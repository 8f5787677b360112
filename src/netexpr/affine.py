"""Fit the per-layer affine wrap (w, b) around a scalar symbolic output.

Both fitters take a whole population of scalar outputs at once, one row
of F each.  For a squared-error loss each neuron's (w_j, b_j) is ordinary
least squares of its target column against [f, 1], solved in closed form
at every layer width.  The softmax cross-entropy output loss is fitted by
a batched Newton method with Armijo backtracking on standardised rows
with one class pinned; each Hessian diagonal entry is damped by a
relative NEWTON_RIDGE of itself, and each step reads the logits,
log-sum-exp and loss of the candidate the last line search accepted.
Its large temporaries are written in place into work arrays (``CeWork``),
which a caller that fits many times keeps from one fit to the next.

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
    """Row means, centred rows, their sums of squares, and which rows spread.

    A row spreads when its sum of squares is finite and above
    n * (4 eps max|f|)^2, the rounding noise of centring it.
    """
    n = F.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        f_mean = F.mean(axis=1)
        Fc = F - f_mean[:, None]
        s_ff = (Fc * Fc).sum(axis=1)
        floor = n * (4.0 * np.finfo(float).eps * np.abs(F).max(axis=1)) ** 2
    return f_mean, Fc, s_ff, (s_ff > floor) & np.isfinite(s_ff)


def fit_affine_mse_rows(F: np.ndarray, targets: np.ndarray):
    """Closed-form MSE fit of targets (n, width) against every row of F (P, n).

    Centered least squares: w = S_ft / S_ff, b = mean(t) - w * mean(f).  A
    row without spread (see ``_centre_rows``), or whose fit is not finite,
    is degenerate and gets w=0, b=mean(t).  Every sum runs along one row,
    unlike a BLAS product, so equal rows get bit-equal fits wherever they
    sit and selection ties still go to the lowest index.  Returns w, b of
    shape (P, width) and the (P,) degenerate mask.
    """
    t_mean = targets.mean(axis=0)
    f_mean, Fc, s_ff, spread = _centre_rows(F)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s_ft = np.stack([(Fc * tc).sum(axis=1) for tc in (targets - t_mean).T], axis=1)
        w = s_ft / s_ff[:, None]
        b = t_mean - w * f_mean[:, None]
    degenerate = ~(spread & np.isfinite(w).all(axis=1) & np.isfinite(b).all(axis=1))
    w[degenerate] = 0.0
    b[degenerate] = t_mean
    return w, b, degenerate


class RowFits(NamedTuple):
    """Batched cross-entropy fit: (P, width) parameters and per-row flags."""
    w: np.ndarray
    b: np.ndarray
    degenerate: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray


class CeWork:
    """Work arrays that ``fit_affine_ce_rows`` writes its large temporaries
    into, owned by a caller that fits many times (``evolve``, for one run).

    Each name holds one flat buffer.  It grows to the largest size asked
    of it and is handed out as a C-ordered view of its front, the layout
    numpy gives a fresh result, so reductions over it add in the same
    order.  A run's fits thus reuse the same memory, where fresh arrays at
    every Newton step are handed back to the system and faulted in again.
    The contents are scratch: a fit writes every element it reads.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, *shape: int) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


def _rows_of(a, idx, work, name):
    """``a[idx]``: ``a`` itself when idx lists all of its rows (in order, as
    every caller's do), else gathered into the work array ``name``."""
    if idx.size == a.shape[0]:
        return a
    return np.take(a, idx, axis=0, out=work.take(name, idx.size, *a.shape[1:]),
                   mode="clip")


def _ce_lse(G, w, b, Z, lse, work):
    """Logits of classes 1..K for rows G (R, n) into Z (R, K, n), and the
    log-sum-exp over them and the pinned class 0 into lse (R, n)."""
    R, K, n = Z.shape
    np.multiply(w[:, :, None], G[:, None, :], out=Z)
    Z += b[:, :, None]
    m = np.max(Z, axis=1, initial=0.0, out=work.take("m", R, n))
    e = np.subtract(Z, m[:, None, :], out=work.take("e", R, K, n))
    np.exp(e, out=e)
    np.sum(e, axis=1, out=lse)
    e0 = np.negative(m, out=work.take("e0", R, n))
    np.exp(e0, out=e0)
    np.add(e0, lse, out=lse)
    np.log(lse, out=lse)
    np.add(m, lse, out=lse)


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

    The large temporaries, (R, K, n) and (R, K, K, n) for R rows with
    spread and K = C - 1, are written in place into ``work``, made for
    this call when none is given.  Every elementwise op and reduction is
    the same as on fresh arrays, in the same order, so a fit does not
    depend on what earlier fits left in ``work``.  While every row is
    still active, a step reads the rows in place rather than gathering
    them.
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

    f_mean, Fc, s_ff, spread = _centre_rows(F)
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
        mass_lse = np.multiply(mass, lse, out=work.take("mass_lse", *lse.shape))
        return (mass_lse.sum(axis=1) - linear) / n

    def newton_step(idx):
        """Newton step, its slope g'step, and whether it is finite."""
        r = idx.size
        g = _rows_of(G, idx, work, "g")
        prob = np.subtract(_rows_of(Z, idx, work, "prob"),
                           _rows_of(lse, idx, work, "lse_rows")[:, None, :],
                           out=work.take("prob", r, K, n))
        np.exp(prob, out=prob)
        Q = np.multiply(mass, prob, out=work.take("Q", r, K, n))
        Qg = np.multiply(Q, g[:, None, :], out=work.take("product", r, K, n))
        grad = np.concatenate([Qg.sum(axis=2) - TG[idx],
                               Q.sum(axis=2) - t_sum], axis=1) / n
        A = np.subtract(eye, prob[:, None, :, :], out=work.take("A", r, K, K, n))
        np.multiply(Q[:, :, None, :], A, out=A)
        product = work.take("product", r, K, K, n)
        H = np.empty((r, D, D))
        g2 = _rows_of(G2, idx, work, "g2")
        H[:, :K, :K] = np.multiply(A, g2[:, None, None, :], out=product).sum(axis=3)
        H[:, :K, K:] = H[:, K:, :K] = np.multiply(
            A, g[:, None, None, :], out=product).sum(axis=3)
        H[:, K:, K:] = A.sum(axis=3)
        H /= n
        H[:, diag, diag] *= 1.0 + NEWTON_RIDGE
        H[:, diag, diag] += np.finfo(float).tiny
        ok = np.isfinite(H).all(axis=(1, 2)) & np.isfinite(grad).all(axis=1)
        step = np.zeros((r, D))
        step[ok] = np.linalg.solve(H[ok], -grad[ok][:, :, None])[:, :, 0]
        return step, (grad * step).sum(axis=1), ok

    active = np.arange(R)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # each row's logits, log-sum-exp and loss at its parameters: at the
        # start, then its accepted Armijo candidate's, which the next Newton
        # step reads rather than recomputes
        Z, lse = work.take("Z", R, K, n), work.take("lse", R, n)
        _ce_lse(G, tw, tb, Z, lse, work)
        losses = loss_of(active, tw, tb, lse)
        while active.size:
            step, slope, ok = newton_step(active)
            loss = losses[active]
            done = -0.5 * slope <= NEWTON_TOL * (1.0 + loss)
            converged[rows[active]] = done & ok
            go = ok & ~done & (iterations[rows[active]] < NEWTON_MAX_ITERS)
            active, step, slope, loss = active[go], step[go], slope[go], loss[go]

            # per-row Armijo backtracking; a row that never passes stops
            t = np.ones(active.size)
            pending = np.arange(active.size)
            for _ in range(MAX_HALVINGS):
                if not pending.size:
                    break
                idx = active[pending]
                r = idx.size
                cw = tw[idx] + t[pending, None] * step[pending, :K]
                cb = tb[idx] + t[pending, None] * step[pending, K:]
                # the step's gathers ("g", "prob", "lse_rows") are free again
                cZ, c_lse = work.take("cZ", r, K, n), work.take("c_lse", r, n)
                _ce_lse(_rows_of(G, idx, work, "g"), cw, cb, cZ, c_lse, work)
                cand = loss_of(idx, cw, cb, c_lse)
                accept = np.isfinite(cand) & (
                    cand <= loss[pending] + ARMIJO_C * t[pending] * slope[pending])
                won, kept = idx[accept], np.flatnonzero(accept)
                tw[won], tb[won] = cw[accept], cb[accept]
                Z[won] = _rows_of(cZ, kept, work, "prob")
                lse[won] = _rows_of(c_lse, kept, work, "lse_rows")
                losses[won] = cand[accept]
                pending = pending[~accept]
                t[pending] *= ARMIJO_SHRINK
            active = np.delete(active, pending)
            iterations[rows[active]] += 1

        w[rows, 1:] = tw / scale[:, None]
        b[rows, 1:] = tb - w[rows, 1:] * f_mean[rows, None]
    degenerate = ~(spread & np.isfinite(w).all(axis=1) & np.isfinite(b).all(axis=1))
    w[degenerate] = 0.0
    b[degenerate] = b_const
    converged[degenerate] = True
    iterations[degenerate] = 0
    return RowFits(w, b, degenerate, converged, iterations)
