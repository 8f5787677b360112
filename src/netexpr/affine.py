"""Fit the per-layer affine wrap (w, b) around a scalar symbolic output.

Both fitters take a whole population of scalar outputs at once, one row
of F each.  For a squared-error loss each neuron's (w_j, b_j) is ordinary
least squares of its target column against [f, 1], solved in closed form
at every layer width.  The softmax cross-entropy output loss is fitted by
a batched Newton method with Armijo backtracking on standardised rows
with one class pinned; each Hessian diagonal entry is damped by a
relative NEWTON_RIDGE of itself, and each step reads the logits,
log-sum-exp and loss of the candidate the last line search accepted.
Its large temporaries, (R, K, n) for R rows and K = C - 1 classes (the
Hessian is built one class at a time), are written in place into work
arrays (``CeWork``), which a caller that fits many times keeps from one
fit to the next.

Both fitters also return each row's loss, taken from what the fit already
holds: the MSE from its sums, the cross-entropy from Newton's last step.
Such a loss is within FIT_LOSS_ERROR, relative, of what scoring the row's
predictions (``evolve.score_rows``) gives; a row where that bound does not
hold gets NaN, and its caller scores it.

Loss convention: mean over samples, sum over neurons (or classes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch

MSE = "mse"
CROSS_ENTROPY = "cross_entropy"

NEWTON_MAX_ITERS = 500     # backstop on a cross-entropy fit's Newton steps
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
MAX_HALVINGS = 30
NEWTON_TOL = 1e-16         # stop once the decrement is at most this * (1 + loss)
NEWTON_RIDGE = 1e-12       # Hessian damping, relative to each diagonal entry

# The fitted losses.  A row's loss is left to its caller (NaN) when the row
# is degenerate or not well conditioned: kappa = sqrt(n) max|f| / sqrt(S_ff)
# at least KAPPA_MAX, a large offset with little spread.  An MSE row's loss
# is also left when its residual sum S_tt - w S_ft, which cancels, is at
# most CANCEL_MIN of the target's sum(t^2); a cross-entropy row's when its
# logits are large next to its loss (``_ce_loss``).
KAPPA_MAX = 1e3
CANCEL_MIN = 1e-6
ROUNDING = np.finfo(float).eps / 2     # u, the unit roundoff
SUM_ROUNDING = 43 * ROUNDING           # numpy's pairwise sum of up to 2**31 terms
# Every loss a fitter returns is within this share of the scored loss, to
# first order in u.  Per neuron, with T = sum(t^2): the fitted sums S_tt,
# S_ft, S_ff are each off by (SUM_ROUNDING + 3u) of their sum of |terms|
# (errors in the means enter in second order only), so S_tt - w S_ft is off
# by (4 SUM_ROUNDING + 14u) S_tt.  Scoring rounds each prediction f w + b
# by u (|f w| + |t| + 2|r|), and centring f moves each fitted residual by
# (u + SUM_ROUNDING) |w| max|f|; with |w| <= sqrt(S_tt / S_ff) that moves
# the residual sum r.r by 2 sqrt(r.r) ((SUM_ROUNDING + 2u) kappa sqrt(S_tt)
# + u sqrt(T)).  Summed over a row's neurons, with r.r > CANCEL_MIN sum(T)
# and kappa < KAPPA_MAX, these are the first two terms below; the last
# covers the final sums.  Cross-entropy rows are routed to keep within it.
FIT_LOSS_ERROR = ((4 * SUM_ROUNDING + 14 * ROUNDING) / CANCEL_MIN
                  + (2 * SUM_ROUNDING + 4 * ROUNDING) * (KAPPA_MAX + 1)
                  / math.sqrt(CANCEL_MIN)
                  + 2 * SUM_ROUNDING + 6 * ROUNDING)


@dataclass(frozen=True)
class AffineParams:
    """Per-neuron scale and offset applied to the shared scalar output."""
    w: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        if self.w.shape != self.b.shape or self.w.ndim != 1:
            raise DimensionMismatch("w and b must be 1-D vectors of equal length")

    @property
    def width(self) -> int:
        return self.w.shape[0]


def _centre_rows(F: np.ndarray):
    """Row means, centred rows, their sums of squares, which rows spread,
    and each row's condition kappa = sqrt(n) max|f| / sqrt(S_ff).

    A row spreads when its sum of squares is finite and above
    n * (4 eps max|f|)^2, the rounding noise of centring it.
    """
    n = F.shape[1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f_mean = F.mean(axis=1)
        Fc = F - f_mean[:, None]
        s_ff = (Fc * Fc).sum(axis=1)
        f_max = np.abs(F).max(axis=1)
        floor = n * (4.0 * np.finfo(float).eps * f_max) ** 2
        kappa = math.sqrt(n) * f_max / np.sqrt(s_ff)
    return f_mean, Fc, s_ff, (s_ff > floor) & np.isfinite(s_ff), kappa


def fit_affine_mse_rows(F: np.ndarray, targets: np.ndarray):
    """Closed-form MSE fit of targets (n, width) against every row of F (P, n).

    Centered least squares: w = S_ft / S_ff, b = mean(t) - w * mean(f).  A
    row without spread (see ``_centre_rows``), or whose fit is not finite,
    is degenerate and gets w=0, b=mean(t).  Every sum runs along one row,
    unlike a BLAS product, so equal rows get bit-equal fits wherever they
    sit and selection ties still go to the lowest index.  A row's loss is
    its residual sum over neurons, S_tt - w S_ft each, over n * width;
    NaN where it is not within FIT_LOSS_ERROR of the scored loss (see
    there).  Returns w, b of shape (P, width), the (P,) degenerate mask and
    the (P,) losses.
    """
    n, width = targets.shape
    t_mean = targets.mean(axis=0)
    # neuron-major and contiguous: each sum over samples is numpy's pairwise one
    tc = np.ascontiguousarray((targets - t_mean).T)
    f_mean, Fc, s_ff, spread, kappa = _centre_rows(F)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s_ft = np.stack([(Fc * t).sum(axis=1) for t in tc], axis=1)
        w = s_ft / s_ff[:, None]
        b = t_mean - w * f_mean[:, None]
        rss = ((tc * tc).sum(axis=1) - w * s_ft).sum(axis=1)
        kept = (kappa < KAPPA_MAX) & (rss > CANCEL_MIN * (targets * targets).sum())
    degenerate = ~(spread & np.isfinite(w).all(axis=1) & np.isfinite(b).all(axis=1))
    w[degenerate] = 0.0
    b[degenerate] = t_mean
    loss = np.where(kept & ~degenerate, rss / (n * width), np.nan)
    return w, b, degenerate, loss


class RowFits(NamedTuple):
    """Batched cross-entropy fit: (P, width) parameters, per-row flags and
    the (P,) losses (NaN where the caller scores the row)."""
    w: np.ndarray
    b: np.ndarray
    degenerate: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    loss: np.ndarray


def _ce_loss(loss, tw, tb, kappa, n_classes):
    """The Newton losses of rows with spread, NaN where one may be off by
    more than FIT_LOSS_ERROR of its scored loss.

    A row's logits w f + b = tw g + tb on its standardised values g are at
    most twice its scale s = kappa max|tw| + max|tb| in size.  Forming them
    as the fit does (from g) and as scoring does (from f) rounds each by at
    most (SUM_ROUNDING + 8u) s, which moves a loss over probability targets
    by at most twice that, on either side.  Evaluating the log-sum-exp, the
    target products and the sums adds at most (5 SUM_ROUNDING + 13u) s and
    (SUM_ROUNDING + 3u) log C + (2C + 4)u + (SUM_ROUNDING + 2u) loss.  So
    the rows kept are those where (9 SUM_ROUNDING + (2C + 45)u)
    (s + log C + 1 + loss) is at most FIT_LOSS_ERROR times the loss, and
    whose kappa is below KAPPA_MAX.
    """
    error = 9 * SUM_ROUNDING + (2 * n_classes + 45) * ROUNDING
    with np.errstate(over="ignore", invalid="ignore"):
        scale = (kappa * np.abs(tw).max(axis=1, initial=0.0)
                 + np.abs(tb).max(axis=1, initial=0.0) + math.log(n_classes) + 1.0)
        kept = (kappa < KAPPA_MAX) & (error * (scale + loss) <= FIT_LOSS_ERROR * loss)
    return np.where(kept, loss, np.nan)


class CeWork:
    """Work arrays that ``fit_affine_ce_rows`` writes its large temporaries
    into, owned by a caller that fits many times (``evolve``, for one run).

    Each name holds one flat buffer.  It grows to the largest size asked
    of it and is handed out as a C-ordered view of its front, the layout
    numpy gives a fresh result, so reductions over it add in the same
    order.  A run's fits thus reuse the same memory, where fresh arrays at
    every Newton step are handed back to the system and faulted in again.
    The contents are scratch: a fit writes every element it reads.  Two
    names can swap their buffers, so that a result becomes the current
    value without a copy.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, *shape: int) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)

    def swap(self, a: str, b: str) -> None:
        self._buffers[a], self._buffers[b] = self._buffers[b], self._buffers[a]


def _rows_of(a, idx, work, name):
    """``a[idx]``: ``a`` itself when idx lists all of its rows (in order, as
    every caller's do), else gathered into the work array ``name``."""
    if idx.size == a.shape[0]:
        return a
    return np.take(a, idx, axis=0, out=work.take(name, idx.size, *a.shape[1:]),
                   mode="clip")


def _ce_lse(Z, lse, work):
    """The log-sum-exp over logits Z (R, K, n) of classes 1..K and the
    pinned class 0, into lse (R, n).  Its temporaries go into the Newton
    step's "g2", "Q" and "A", which are not in use while it runs."""
    R, K, n = Z.shape
    m = np.max(Z, axis=1, initial=0.0, out=work.take("g2", R, n))
    e = np.subtract(Z, m[:, None, :], out=work.take("Q", R, K, n))
    np.exp(e, out=e)
    np.sum(e, axis=1, out=lse)
    e0 = np.negative(m, out=work.take("A", R, n))
    np.exp(e0, out=e0)
    np.add(e0, lse, out=lse)
    np.log(lse, out=lse)
    np.add(m, lse, out=lse)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fit_affine_ce_rows(F: np.ndarray, targets: np.ndarray,
                       work: CeWork | None = None) -> RowFits:
    """Cross-entropy fit of targets (n, C) against every row of F (P, n).

    Softmax is shift-invariant, so class 0 is pinned (w_0 = b_0 = 0) and
    each row has 2(C-1) free parameters.  Rows are centred and scaled to
    unit variance, fitted by Newton from w=0 and the best constant logits,
    and mapped back.  Each Hessian diagonal entry is scaled by
    1 + NEWTON_RIDGE, so each parameter is damped relative to its own
    curvature.  Each row takes its own Armijo backtracking step and stops
    once its Newton decrement g'H^-1g/2 is at most NEWTON_TOL * (1 + loss)
    (converged), or when no step decreases the loss; NEWTON_MAX_ITERS
    steps is a backstop only.  A row without spread (as in
    ``fit_affine_mse_rows``), or whose fit is not finite, is degenerate:
    w=0 and b the best constant logits.  Like the MSE fit, every sum runs
    along one row, so equal rows get bit-equal fits wherever they sit.
    A step starts from the logits, log-sum-exp and loss its row's accepted
    Armijo candidate computed, which are the same bits as recomputing them.
    A row's loss is its last step's, NaN where ``_ce_loss`` does not keep
    it and for degenerate rows.

    Every row starts from the same logits, 0 g + b = b, so the start's
    log-sum-exp, loss sum and first probabilities, Q and Hessian factors
    are computed once, for one row, and broadcast; only their products
    with g and g^2 are per row.  (A row whose g is not finite has a
    non-finite loss and gradient either way, and stops there.)  The
    Hessian is built one class block row at a time, from the factor
    A = Q_k (e_k - p) of shape (R, K, n), so for R rows with spread and
    K = C - 1 every large temporary is (R, K, n) or smaller.  They are
    written in place into ``work``, made for this call when none is given.
    The first Armijo round's candidate logits and log-sum-exp become the
    current ones by a swap of buffers; later rounds copy the rows they
    accept in, and the rows left when some stop are gathered, through
    fresh arrays (both are rare: most rows take their full step).  Every elementwise op and reduction is the same as on fresh
    arrays, in the same order, so a fit does not depend on what earlier
    fits left in ``work``.  While every row is still active, a step reads
    the rows in place rather than gathering them.
    """
    if work is None:
        work = CeWork()
    P, n = F.shape
    C = targets.shape[1]
    K, D = C - 1, 2 * (C - 1)
    mass = targets.sum(axis=1)                     # 1 for probability rows
    b_const = np.log(np.maximum(targets.mean(axis=0), np.finfo(float).tiny))
    b_const -= b_const[0]
    w = np.zeros((P, C))
    b = np.tile(b_const, (P, 1))
    converged = np.zeros(P, dtype=bool)
    iterations = np.zeros(P, dtype=np.int64)

    f_mean, Fc, s_ff, spread, kappa = _centre_rows(F)
    rows = np.flatnonzero(spread)
    R = rows.size
    scale = np.sqrt(s_ff[rows] / n)
    # standardised rows (R, n), divided in place once gathered
    G = np.divide(_rows_of(Fc, rows, work, "G"), scale[:, None],
                  out=work.take("G", R, n))
    del Fc
    G2 = np.multiply(G, G, out=work.take("G2", R, n))
    T = targets[:, 1:].T                           # (K, n)
    t_sum = T.sum(axis=1)
    TG = (G[:, None, :] * T).sum(axis=2)           # (R, K)
    tw = np.zeros((R, K))                          # standardised parameters
    tb = np.tile(b_const[1:], (R, 1))
    diag = np.arange(D)
    eye = np.eye(K)[:, :, None]

    def loss_of(idx, cw, cb, lse):
        linear = (cw * TG[idx]).sum(axis=1) + (cb * t_sum).sum(axis=1)
        mass_lse = np.multiply(mass, lse, out=work.take("A", *lse.shape))
        return (mass_lse.sum(axis=1) - linear) / n

    def newton_step(idx, Z, lse):
        """Newton step of rows idx from their logits Z and log-sum-exp lse,
        or from the one row all of them share, its slope g'step, and
        whether it is finite.  The probabilities overwrite Z."""
        r, s = idx.size, Z.shape[0]
        g = _rows_of(G, idx, work, "g")
        g2 = _rows_of(G2, idx, work, "g2")
        prob = np.subtract(Z, lse[:, None, :], out=Z)
        np.exp(prob, out=prob)
        Q = np.multiply(mass, prob, out=work.take("Q", s, K, n))
        product = work.take("product", r, K, n)
        Qg = np.multiply(Q, g[:, None, :], out=product)
        grad = np.concatenate([Qg.sum(axis=2) - TG[idx],
                               np.broadcast_to(Q.sum(axis=2) - t_sum, (r, K))],
                              axis=1) / n
        H = np.empty((r, D, D))
        for k in range(K):
            # row k of each of the four blocks
            A = np.subtract(eye[k], prob, out=work.take("A", s, K, n))
            np.multiply(Q[:, k, None, :], A, out=A)
            H[:, k, :K] = np.multiply(A, g2[:, None, :], out=product).sum(axis=2)
            H[:, k, K:] = H[:, K + k, :K] = np.multiply(
                A, g[:, None, :], out=product).sum(axis=2)
            H[:, K + k, K:] = A.sum(axis=2)
        H /= n
        H[:, diag, diag] *= 1.0 + NEWTON_RIDGE
        H[:, diag, diag] += np.finfo(float).tiny
        ok = np.isfinite(H).all(axis=(1, 2)) & np.isfinite(grad).all(axis=1)
        step = np.zeros((r, D))
        step[ok] = np.linalg.solve(H[ok], -grad[ok][:, :, None])[:, :, 0]
        return step, (grad * step).sum(axis=1), ok

    active = np.arange(R)
    # Z and lse: the logits and log-sum-exp of the rows of active, in
    # order, at their accepted Armijo candidates; at the start, the one
    # row every row shares
    Z, lse = work.take("Z", 1, K, n), work.take("lse", 1, n)
    Z[...] = b_const[1:, None]
    _ce_lse(Z, lse, work)
    losses = loss_of(active, tw, tb, lse)
    while active.size:
        step, slope, ok = newton_step(active, Z, lse)
        loss = losses[active]
        done = -0.5 * slope <= NEWTON_TOL * (1.0 + loss)
        converged[rows[active]] = done & ok
        go = ok & ~done & (iterations[rows[active]] < NEWTON_MAX_ITERS)
        active, step, slope, loss = active[go], step[go], slope[go], loss[go]

        # per-row Armijo backtracking; a row that never passes stops
        t = np.ones(active.size)
        pending = np.arange(active.size)
        for halving in range(MAX_HALVINGS):
            if not pending.size:
                break
            idx = active[pending]
            r = idx.size
            cw = tw[idx] + t[pending, None] * step[pending, :K]
            cb = tb[idx] + t[pending, None] * step[pending, K:]
            cZ, c_lse = work.take("cZ", r, K, n), work.take("c_lse", r, n)
            np.multiply(cw[:, :, None], _rows_of(G, idx, work, "g")[:, None, :],
                        out=cZ)
            cZ += cb[:, :, None]
            _ce_lse(cZ, c_lse, work)
            cand = loss_of(idx, cw, cb, c_lse)
            accept = np.isfinite(cand) & (
                cand <= loss[pending] + ARMIJO_C * t[pending] * slope[pending])
            won = idx[accept]
            tw[won], tb[won] = cw[accept], cb[accept]
            losses[won] = cand[accept]
            if halving == 0:
                # every row of active was pending: its candidates become
                # the current logits, rejected rows to be overwritten
                work.swap("Z", "cZ")
                work.swap("lse", "c_lse")
                Z, lse = cZ, c_lse
            else:
                Z[pending[accept]], lse[pending[accept]] = cZ[accept], c_lse[accept]
            pending = pending[~accept]
            t[pending] *= ARMIJO_SHRINK
        if pending.size:
            # the rows that stopped leave; the others close up
            keep = np.delete(np.arange(active.size), pending)
            Z, lse, active = Z[keep], lse[keep], active[keep]
        iterations[rows[active]] += 1

    w[rows, 1:] = tw / scale[:, None]
    b[rows, 1:] = tb - w[rows, 1:] * f_mean[rows, None]
    degenerate = ~(spread & np.isfinite(w).all(axis=1) & np.isfinite(b).all(axis=1))
    w[degenerate] = 0.0
    b[degenerate] = b_const
    converged[degenerate] = True
    iterations[degenerate] = 0
    loss = np.full(P, np.nan)
    loss[rows] = _ce_loss(losses, tw, tb, kappa[rows], C)
    loss[degenerate] = np.nan
    return RowFits(w, b, degenerate, converged, iterations, loss)
