"""Uniform sampling filtered to the points nearest a classifier's decision boundary.

A point's distance to the boundary is sum_k |p_k - 1/C| over the model's
class probabilities: zero exactly when the prediction is maximally
uncertain.  The sampler draws a uniform pool inside per-feature bounds and
keeps the points with the smallest distances, ties resolved by draw order.
The pool is drawn at once but pushed through the model in row blocks of
about SAMPLE_BLOCK points, so only one block's activations are alive at a
time; what the whole pool keeps is its points, probabilities, distances
and one sort order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionMismatch, SchemaError
from .mlp import SOFTMAX, MlpModel, predict, read_table, write_table

# pool rows per forward pass.  The pool is cut into near-equal blocks of at
# least half this many rows: a product of very few rows can take another
# BLAS path, whose bits need not match the whole pool's.
SAMPLE_BLOCK = 4096


@dataclass(frozen=True)
class BoundarySampleConfig:
    bounds: np.ndarray          # (n_features, 2) of (min, max)
    pool_size: int = 50000
    keep_size: int = 1000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "bounds", np.asarray(self.bounds, dtype=float))
        if self.bounds.ndim != 2 or self.bounds.shape[1] != 2:
            raise ConfigError("bounds must be (n_features, 2)")
        if not np.all(np.isfinite(self.bounds)):
            raise ConfigError("bounds must be finite")
        if np.any(self.bounds[:, 0] > self.bounds[:, 1]):
            raise ConfigError("each bound must have min <= max")
        if not 1 <= self.keep_size <= self.pool_size:
            raise ConfigError("need 1 <= keep_size <= pool_size")


def bounds_from_data(X: np.ndarray, margin: float = 0.0) -> np.ndarray:
    """Per-feature (min, max) of the data, optionally widened by a fraction."""
    X = np.asarray(X, dtype=float)
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    with np.errstate(over="ignore"):     # an infinite box is the caller's to reject
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
    distances with earlier draws winning ties.  The pool is scored in
    near-equal row blocks of about SAMPLE_BLOCK points, which give the same
    bits as one pass over the whole pool.  A wide ``--margin`` puts points
    so far outside the data that a layer's product overflows; the pass
    runs with those warnings off, as ``mlp.train`` does.
    """
    if model.head != SOFTMAX:
        raise ValueError("boundary sampling needs a softmax model")
    if cfg.bounds.shape[0] != model.dims[0]:
        raise DimensionMismatch(
            f"bounds cover {cfg.bounds.shape[0]} features, model takes {model.dims[0]}")
    rng = np.random.default_rng(cfg.seed)
    pool = rng.uniform(cfg.bounds[:, 0], cfg.bounds[:, 1],
                       size=(cfg.pool_size, cfg.bounds.shape[0]))
    probs = np.empty((cfg.pool_size, model.dims[-1]))
    d = np.empty(cfg.pool_size)
    n_blocks = -(-cfg.pool_size // SAMPLE_BLOCK)
    edges = [cfg.pool_size * i // n_blocks for i in range(n_blocks + 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in zip(edges, edges[1:]):
            probs[lo:hi] = predict(model, pool[lo:hi])
            d[lo:hi] = boundary_distances(probs[lo:hi])
    keep = np.argsort(d, kind="stable")[:cfg.keep_size]
    return BoundarySample(pool[keep], probs[keep], d[keep])


def _class_columns(n_classes: int) -> list[str]:
    return [f"p_{k}" for k in range(n_classes)] + ["d"]


def write_boundary_csv(path: str | Path, sample: BoundarySample,
                       feature_names: list[str] | None = None) -> None:
    """features..., p_0..p_{C-1}, d  -- one row per kept point."""
    names = feature_names or [f"x{i}" for i in range(sample.x.shape[1])]
    write_table(path, names + _class_columns(sample.probs.shape[1]),
                [*sample.x.T, *sample.probs.T, sample.distance])


def read_boundary_csv(path: str | Path, model: MlpModel):
    """(X, feature_names) from a ``write_boundary_csv`` file: its first
    ``model.dims[0]`` columns, whatever their names, which must be followed
    by exactly ``p_0..p_{C-1}, d`` for the model's C classes.  A NaN or
    infinite cell is a SchemaError."""
    header, rows = read_table(path, finite=True)
    n_features = model.dims[0]
    expected = _class_columns(model.dims[-1])
    if header[n_features:] != expected:
        raise SchemaError(
            f"samples file {path}: expected {n_features} feature columns, then "
            f"{','.join(expected)}; got header {','.join(header)}")
    return rows[:, :n_features], header[:n_features]
