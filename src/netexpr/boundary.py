"""Uniform sampling filtered to the points nearest a classifier's decision boundary.

A point's distance to the boundary is sum_k |p_k - 1/C| over the model's
class probabilities: zero exactly when the prediction is maximally
uncertain.  The sampler draws a uniform pool inside per-feature bounds and
keeps the points with the smallest distances, ties resolved by draw order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch
from .mlp import SOFTMAX, MlpModel, predict


@dataclass(frozen=True)
class BoundarySampleConfig:
    bounds: np.ndarray          # (n_features, 2) of (min, max)
    pool_size: int = 50000
    keep_size: int = 1000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "bounds", np.asarray(self.bounds, dtype=float))
        if self.bounds.ndim != 2 or self.bounds.shape[1] != 2:
            raise ValueError("bounds must be (n_features, 2)")
        if not np.all(np.isfinite(self.bounds)):
            raise ValueError("bounds must be finite")
        if np.any(self.bounds[:, 0] > self.bounds[:, 1]):
            raise ValueError("each bound must have min <= max")
        if not 1 <= self.keep_size <= self.pool_size:
            raise ValueError("need 1 <= keep_size <= pool_size")


def bounds_from_data(X: np.ndarray, margin: float = 0.0) -> np.ndarray:
    """Per-feature (min, max) of the data, optionally widened by a fraction."""
    X = np.asarray(X, dtype=float)
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    pad = margin * (hi - lo)
    return np.column_stack([lo - pad, hi + pad])


def boundary_distance(probs: np.ndarray) -> float:
    """Distance of one probability vector to the uniform prediction."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1:
        raise DimensionMismatch("probs must be a vector")
    return float(boundary_distances(probs[None])[0])


def boundary_distances(probs: np.ndarray) -> np.ndarray:
    """Row-wise boundary_distance over an (n, C) matrix."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 2:
        raise DimensionMismatch("probs must be (n, C)")
    if np.any(probs < 0) or np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("probability rows must be non-negative and sum to 1")
    c = probs.shape[1]
    return np.abs(probs - 1.0 / c).sum(axis=1)


@dataclass(frozen=True)
class BoundarySample:
    x: np.ndarray           # (keep_size, n_features)
    probs: np.ndarray       # model probabilities for each kept point
    distance: np.ndarray    # boundary distance for each kept point


def sample_near_boundary(model: MlpModel, cfg: BoundarySampleConfig) -> BoundarySample:
    """Draw the pool, score it through the model, keep the closest points.

    Deterministic per seed; the kept set is exactly the keep_size smallest
    distances with earlier draws winning ties.
    """
    if model.head != SOFTMAX:
        raise ValueError("boundary sampling needs a softmax model")
    if cfg.bounds.shape[0] != model.dims[0]:
        raise DimensionMismatch(
            f"bounds cover {cfg.bounds.shape[0]} features, model takes {model.dims[0]}")
    rng = np.random.default_rng(cfg.seed)
    pool = rng.uniform(cfg.bounds[:, 0], cfg.bounds[:, 1],
                       size=(cfg.pool_size, cfg.bounds.shape[0]))
    probs = predict(model, pool)
    d = boundary_distances(probs)
    keep = np.argsort(d, kind="stable")[:cfg.keep_size]
    return BoundarySample(pool[keep], probs[keep], d[keep])


def write_boundary_csv(path: str | Path, sample: BoundarySample,
                       feature_names: list[str] | None = None) -> None:
    """features..., p_0..p_{C-1}, d  -- one row per kept point."""
    n_features = sample.x.shape[1]
    n_classes = sample.probs.shape[1]
    names = feature_names or [f"x{i}" for i in range(n_features)]
    header = names + [f"p_{k}" for k in range(n_classes)] + ["d"]
    lines = [",".join(header)]
    for row, p, d in zip(sample.x, sample.probs, sample.distance):
        cells = [repr(float(v)) for v in row]
        cells += [repr(float(v)) for v in p]
        cells.append(repr(float(d)))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")
