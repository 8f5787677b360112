"""Fit the per-layer affine wrap (w, b) around a scalar symbolic output.

For a squared-error loss each neuron's (w_j, b_j) is ordinary least
squares of its target column against [f, 1], solved in closed form at
every layer width and for a whole population of scalars at once.  The
softmax cross-entropy output loss is fitted for a whole population at
once too, by a batched damped Newton method on standardised rows with
one class pinned.  A limited-memory BFGS minimizer is kept as the
per-problem reference it is tested against.

Loss convention: mean over samples, sum over neurons (or classes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch

MSE = "mse"
CROSS_ENTROPY = "cross_entropy"

LBFGS_MEMORY = 10
LBFGS_TOL = 1e-8
LBFGS_MAX_ITERS = 500      # also the default Newton iteration cap
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
MAX_HALVINGS = 30
NEWTON_TOL = 1e-16         # stop once the decrement is at most this * (1 + loss)
NEWTON_RIDGE = 1e-12       # Hessian damping, relative to its largest diagonal entry


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


@dataclass(frozen=True)
class FitProblem:
    f_values: np.ndarray    # (n_samples,)
    targets: np.ndarray     # (n_samples, width)
    loss_kind: str = MSE

    def __post_init__(self):
        object.__setattr__(self, "f_values", np.asarray(self.f_values, dtype=float))
        object.__setattr__(self, "targets", np.asarray(self.targets, dtype=float))
        if self.f_values.ndim != 1 or self.targets.ndim != 2:
            raise DimensionMismatch("f_values must be (n,), targets (n, width)")
        if self.f_values.shape[0] != self.targets.shape[0]:
            raise DimensionMismatch("f_values and targets disagree on sample count")
        if self.f_values.shape[0] < 2:
            raise ValueError("need at least 2 samples")
        if not np.all(np.isfinite(self.targets)):
            raise ValueError("targets must be finite")
        if self.loss_kind not in (MSE, CROSS_ENTROPY):
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")

    @property
    def width(self) -> int:
        return self.targets.shape[1]


@dataclass(frozen=True)
class FitResult:
    params: AffineParams
    final_loss: float
    iterations: int
    converged: bool
    degenerate: bool = False


def log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def loss_and_grad(params: AffineParams, problem: FitProblem):
    """Loss and its gradient, flattened as [dL/dw, dL/db].

    Mean over samples, sum over neurons.  For cross-entropy the scores
    w_c * f + b_c go through a softmax against the target rows.
    """
    if params.width != problem.width:
        raise DimensionMismatch("params width does not match targets")
    f = problem.f_values
    t = problem.targets
    n = f.shape[0]
    z = f[:, None] * params.w[None, :] + params.b[None, :]
    if problem.loss_kind == MSE:
        r = z - t
        loss = float((r * r).sum() / n)
        gz = 2.0 * r / n
    else:
        logp = log_softmax(z)
        loss = float(-(t * logp).sum() / n)
        gz = (np.exp(logp) - t) / n
    gw = (gz * f[:, None]).sum(axis=0)
    gb = gz.sum(axis=0)
    return loss, np.concatenate([gw, gb])


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


def fit_affine_ce_rows(F: np.ndarray, targets: np.ndarray,
                       max_iters: int = LBFGS_MAX_ITERS) -> RowFits:
    """Cross-entropy fit of targets (n, C) against every row of F (P, n).

    Softmax is shift-invariant, so class 0 is pinned (w_0 = b_0 = 0) and
    each row has 2(C-1) free parameters.  Rows are centred and scaled to
    unit variance, fitted by damped Newton from w=0 and the best constant
    logits, and mapped back.  Each row takes its own Armijo backtracking
    step and stops once its Newton decrement g'H^-1g/2 is at most
    NEWTON_TOL * (1 + loss) (converged), when no step decreases the loss,
    or after ``max_iters`` steps.  A row without spread (as in
    ``fit_affine_mse_rows``), or whose fit is not finite, is degenerate:
    w=0 and b the best constant logits.  Like the MSE fit, every sum runs
    along one row, so equal rows get bit-equal fits wherever they sit.
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
        """Loss, Newton step, its slope g'step, and whether it is finite."""
        g = G[idx]
        Z, lse = _ce_lse(g, tw[idx], tb[idx])
        prob = np.exp(Z - lse[:, None, :])               # (R, K, n)
        Q = mass * prob
        grad = np.concatenate([(Q * g[:, None, :]).sum(axis=2) - TG[idx],
                               Q.sum(axis=2) - t_sum], axis=1) / n
        A = Q[:, :, None, :] * (np.eye(K)[:, :, None] - prob[:, None, :, :])
        H = np.empty((idx.size, D, D))
        H[:, :K, :K] = (A * G2[idx][:, None, None, :]).sum(axis=3)
        H[:, :K, K:] = H[:, K:, :K] = (A * g[:, None, None, :]).sum(axis=3)
        H[:, K:, K:] = A.sum(axis=3)
        H /= n
        ridge = NEWTON_RIDGE * H[:, diag, diag].max(axis=1, initial=0.0)
        H[:, diag, diag] += ridge[:, None] + np.finfo(float).tiny
        ok = np.isfinite(H).all(axis=(1, 2)) & np.isfinite(grad).all(axis=1)
        step = np.zeros((idx.size, D))
        step[ok] = np.linalg.solve(H[ok], -grad[ok][:, :, None])[:, :, 0]
        return loss_of(idx, tw[idx], tb[idx], lse), step, (grad * step).sum(axis=1), ok

    active = np.arange(rows.size)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while active.size:
            loss, step, slope, ok = newton_step(active)
            done = -0.5 * slope <= NEWTON_TOL * (1.0 + loss)
            converged[rows[active]] = done & ok
            go = ok & ~done & (iterations[rows[active]] < max_iters)
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
                cand = loss_of(idx, cw, cb, _ce_lse(G[idx], cw, cb)[1])
                accept = np.isfinite(cand) & (
                    cand <= loss[pending] + ARMIJO_C * t[pending] * slope[pending])
                tw[idx[accept]], tb[idx[accept]] = cw[accept], cb[accept]
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


def fit_affine_newton(problem: FitProblem) -> FitResult:
    """Exact MSE optimum (one Newton step): ``fit_affine_mse_rows`` on one row."""
    if problem.loss_kind != MSE:
        raise ValueError("the closed-form step only applies to the mse loss")
    w, b, degenerate = fit_affine_mse_rows(problem.f_values[None, :], problem.targets)
    params = AffineParams(w[0], b[0])
    loss, _ = loss_and_grad(params, problem)
    return FitResult(params, loss, 1, True, degenerate=bool(degenerate[0]))


def _initial_params(problem: FitProblem) -> AffineParams:
    if problem.loss_kind == MSE:
        return AffineParams(np.zeros(problem.width), problem.targets.mean(axis=0))
    return AffineParams(np.zeros(problem.width), np.zeros(problem.width))


def fit_affine_lbfgs(problem: FitProblem, memory: int = LBFGS_MEMORY,
                     max_iters: int = LBFGS_MAX_ITERS,
                     tol: float = LBFGS_TOL) -> FitResult:
    """Limited-memory BFGS with two-loop recursion and Armijo backtracking."""
    width = problem.width
    start = _initial_params(problem)
    x = np.concatenate([start.w, start.b])

    def unpack(vec):
        return AffineParams(vec[:width], vec[width:])

    loss, grad = loss_and_grad(unpack(x), problem)
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []
    iterations = 0
    converged = float(np.linalg.norm(grad)) <= tol

    while not converged and iterations < max_iters:
        q = grad.copy()
        alphas = []
        for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * y
        if y_hist:
            gamma = (s_hist[-1] @ y_hist[-1]) / (y_hist[-1] @ y_hist[-1])
            q *= gamma
        for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
            beta = rho * (y @ q)
            q += (a - beta) * s
        direction = -q

        slope = float(grad @ direction)
        if slope >= 0:            # not a descent direction; restart on the gradient
            direction = -grad
            slope = float(grad @ direction)

        step = 1.0
        ok = False
        for _ in range(MAX_HALVINGS):
            cand = x + step * direction
            cand_loss, cand_grad = loss_and_grad(unpack(cand), problem)
            if np.isfinite(cand_loss) and cand_loss <= loss + ARMIJO_C * step * slope:
                ok = True
                break
            step *= ARMIJO_SHRINK
        if not ok:
            return FitResult(unpack(x), loss, iterations, False)

        s_vec = cand - x
        y_vec = cand_grad - grad
        sy = float(s_vec @ y_vec)
        if sy > 1e-16:
            s_hist.append(s_vec)
            y_hist.append(y_vec)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > memory:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        x, loss, grad = cand, cand_loss, cand_grad
        iterations += 1
        converged = float(np.linalg.norm(grad)) <= tol

    return FitResult(unpack(x), loss, iterations, converged)


def fit_affine(problem: FitProblem, lbfgs_max_iters: int = LBFGS_MAX_ITERS) -> FitResult:
    """Fit one problem: closed form for MSE, ``fit_affine_ce_rows`` on one
    row for cross-entropy, with ``lbfgs_max_iters`` capping its Newton steps."""
    if problem.loss_kind == MSE:
        return fit_affine_newton(problem)
    fit = fit_affine_ce_rows(problem.f_values[None, :], problem.targets, lbfgs_max_iters)
    params = AffineParams(fit.w[0], fit.b[0])
    loss, _ = loss_and_grad(params, problem)
    return FitResult(params, loss, int(fit.iterations[0]), bool(fit.converged[0]),
                     degenerate=bool(fit.degenerate[0]))
