"""Fit the per-layer affine wrap (w, b) around a scalar symbolic output.

Both fitters take a whole population of scalar outputs at once, one row
of F each.  For a squared-error loss each neuron's (w_j, b_j) is ordinary
least squares of its target column against [f, 1], solved in closed form
at every layer width.  The softmax cross-entropy output loss is fitted by
a batched Newton method with Armijo backtracking on standardised rows
with one class pinned; each Hessian diagonal entry is damped by a
relative NEWTON_RIDGE of itself, and each step reads the logits,
log-sum-exp and loss of the candidate the last line search accepted.

Loss convention: mean over samples, sum over neurons (or classes).
"""

from __future__ import annotations

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


def _ce_lse(G, w, b):
    """Logits (R, K, n) of classes 1..K for rows G (R, n), and the
    log-sum-exp (R, n) over them and the pinned class 0."""
    Z = w[:, :, None] * G[:, None, :] + b[:, :, None]
    m = Z.max(axis=1, initial=0.0)
    return Z, m + np.log(np.exp(-m) + np.exp(Z - m[:, None, :]).sum(axis=1))


def fit_affine_ce_rows(F: np.ndarray, targets: np.ndarray) -> RowFits:
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
    """
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
    scale = np.sqrt(s_ff[rows] / n)
    G = Fc[rows] / scale[:, None]                  # standardised rows (R, n)
    G2 = G * G
    T = targets[:, 1:].T                           # (K, n)
    t_sum = T.sum(axis=1)
    TG = (G[:, None, :] * T).sum(axis=2)           # (R, K)
    tw = np.zeros((rows.size, K))                  # standardised parameters
    tb = np.tile(b_const[1:], (rows.size, 1))
    diag = np.arange(D)

    def loss_of(idx, cw, cb, lse):
        linear = (cw * TG[idx]).sum(axis=1) + (cb * t_sum).sum(axis=1)
        return ((mass * lse).sum(axis=1) - linear) / n

    def newton_step(idx):
        """Newton step, its slope g'step, and whether it is finite."""
        g = G[idx]
        prob = np.exp(Z[idx] - lse[idx][:, None, :])     # (R, K, n)
        Q = mass * prob
        grad = np.concatenate([(Q * g[:, None, :]).sum(axis=2) - TG[idx],
                               Q.sum(axis=2) - t_sum], axis=1) / n
        A = Q[:, :, None, :] * (np.eye(K)[:, :, None] - prob[:, None, :, :])
        H = np.empty((idx.size, D, D))
        H[:, :K, :K] = (A * G2[idx][:, None, None, :]).sum(axis=3)
        H[:, :K, K:] = H[:, K:, :K] = (A * g[:, None, None, :]).sum(axis=3)
        H[:, K:, K:] = A.sum(axis=3)
        H /= n
        H[:, diag, diag] *= 1.0 + NEWTON_RIDGE
        H[:, diag, diag] += np.finfo(float).tiny
        ok = np.isfinite(H).all(axis=(1, 2)) & np.isfinite(grad).all(axis=1)
        step = np.zeros((idx.size, D))
        step[ok] = np.linalg.solve(H[ok], -grad[ok][:, :, None])[:, :, 0]
        return step, (grad * step).sum(axis=1), ok

    active = np.arange(rows.size)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # each row's logits, log-sum-exp and loss at its parameters: at the
        # start, then its accepted Armijo candidate's, which the next Newton
        # step reads rather than recomputes
        Z, lse = _ce_lse(G, tw, tb)
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
                cw = tw[idx] + t[pending, None] * step[pending, :K]
                cb = tb[idx] + t[pending, None] * step[pending, K:]
                cZ, c_lse = _ce_lse(G[idx], cw, cb)
                cand = loss_of(idx, cw, cb, c_lse)
                accept = np.isfinite(cand) & (
                    cand <= loss[pending] + ARMIJO_C * t[pending] * slope[pending])
                won = idx[accept]
                tw[won], tb[won] = cw[accept], cb[accept]
                Z[won], lse[won], losses[won] = cZ[accept], c_lse[accept], cand[accept]
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
