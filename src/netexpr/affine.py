"""Fit the per-layer affine wrap (w, b) around a scalar symbolic output.

For a squared-error loss each neuron's (w_j, b_j) is ordinary least
squares of its target column against [f, 1], solved in closed form at
every layer width and for a whole population of scalars at once.  The
softmax cross-entropy output loss goes through a limited-memory BFGS
minimizer with a backtracking Armijo line search.

Loss convention: mean over samples, sum over neurons (or classes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

MSE = "mse"
CROSS_ENTROPY = "cross_entropy"

LBFGS_MEMORY = 10
LBFGS_TOL = 1e-8
LBFGS_MAX_ITERS = 500
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
MAX_HALVINGS = 30


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


def _log_softmax(z: np.ndarray) -> np.ndarray:
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
        logp = _log_softmax(z)
        loss = float(-(t * logp).sum() / n)
        gz = (np.exp(logp) - t) / n
    gw = (gz * f[:, None]).sum(axis=0)
    gb = gz.sum(axis=0)
    return loss, np.concatenate([gw, gb])


def fit_affine_mse_rows(F: np.ndarray, targets: np.ndarray):
    """Closed-form MSE fit of targets (n, width) against every row of F (P, n).

    Centered least squares: w = S_ft / S_ff, b = mean(t) - w * mean(f).  A
    row whose spread S_ff is at most n * (4 eps max|f|)^2, or whose fit is
    not finite, is degenerate and gets w=0, b=mean(t).  Every sum runs
    along one row, unlike a BLAS product, so equal rows get bit-equal fits
    wherever they sit and selection ties still go to the lowest index.
    Returns w, b of shape (P, width) and the (P,) degenerate mask.
    """
    n = F.shape[1]
    t_mean = targets.mean(axis=0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f_mean = F.mean(axis=1)
        Fc = F - f_mean[:, None]
        s_ff = (Fc * Fc).sum(axis=1)
        s_ft = np.stack([(Fc * tc).sum(axis=1) for tc in (targets - t_mean).T], axis=1)
        w = s_ft / s_ff[:, None]
        b = t_mean - w * f_mean[:, None]
        floor = n * (4.0 * np.finfo(float).eps * np.abs(F).max(axis=1)) ** 2
        degenerate = ~((s_ff > floor) & np.isfinite(s_ff)
                       & np.isfinite(w).all(axis=1) & np.isfinite(b).all(axis=1))
    w[degenerate] = 0.0
    b[degenerate] = t_mean
    return w, b, degenerate


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
    """Dispatch on the loss: closed form for MSE, L-BFGS for cross-entropy."""
    if problem.loss_kind == MSE:
        return fit_affine_newton(problem)
    return fit_affine_lbfgs(problem, max_iters=lbfgs_max_iters)
