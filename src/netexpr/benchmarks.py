"""Synthetic regression benchmarks and dataset splitting.

K0-K5 are standard symbolic-regression targets, F0-F5 come from physics
formulas.  Each spec carries the variable ranges, sample count, and the
MLP training setup used with it (architecture, optimizer, learning rate).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError

TRAIN_FRACTION = 0.8    # share of a shuffled dataset that ``split`` trains on


@dataclass(frozen=True)
class BenchmarkSpec:
    name: str
    variables: tuple[str, ...]
    ranges: tuple[tuple[float, float], ...]
    n_samples: int
    fn: Callable[..., np.ndarray]       # vectorized, one argument per variable
    arch: tuple[int, ...]
    optimizer: str
    learning_rate: float
    epochs: int
    batch_size: int = 32

    @property
    def n_features(self) -> int:
        return len(self.variables)


def _k0(x):
    return np.sin(x) + np.sin(x + x * x)


def _k1(x, y):
    return 2 * np.sin(x) * np.cos(y)


def _k2(x):
    return 3 + 2.13 * np.log(np.abs(x))


def _k3(x, y):
    with np.errstate(divide="ignore"):
        return 1.0 / (1.0 + x ** -4.0) + 1.0 / (1.0 + y ** 4.0)


def _k4(x, y, z):
    return 30.0 * x * y / ((x - 10.0) * z * z)


def _k5(x, y):
    return x * y + np.sin((x - 1.0) * (y - 1.0))


def _f0(m0, v, c):
    return m0 / np.sqrt(1.0 - (v * v) / (c * c))


def _f1(q1, q2, e, r):
    # the 4*pi*eps constant is folded into the variable e
    return q1 * q2 * r / (e * r ** 3)


def _f2(g, m1, m2, r1, r2):
    return g * m1 * m2 * (1.0 / r2 - 1.0 / r1)


def _f3(k, x):
    return 0.5 * k * x * x


def _f4(m1, m2, g, c, r):
    return -6.4 * (g ** 4 / c ** 5) * (1.0 / r ** 5) * (m1 * m2) ** 2 * (m1 + m2)


def _f5(q, ve, eps, d, y):
    return (q / (4 * np.pi * eps * y * y)) * (
        4 * np.pi * eps * ve * d - q * d * y ** 3 / (y * y - d * d) ** 2)


BENCHMARKS: dict[str, BenchmarkSpec] = {spec.name: spec for spec in [
    BenchmarkSpec("K0", ("x",), ((-1, 1),), 200, _k0,
                  (3, 3), "sgd", 0.01, epochs=30000, batch_size=32),
    BenchmarkSpec("K1", ("x", "y"), ((-1, 1), (-1, 1)), 200, _k1,
                  (3, 3), "sgd", 0.1, epochs=20000, batch_size=32),
    BenchmarkSpec("K2", ("x",), ((-50, 50),), 200, _k2,
                  (5, 5), "sgd", 0.03, epochs=20000, batch_size=32),
    BenchmarkSpec("K3", ("x", "y"), ((-5, 5), (-5, 5)), 10_000, _k3,
                  (4, 4, 4), "adam", 0.03, epochs=500, batch_size=128),
    BenchmarkSpec("K4", ("x", "y", "z"), ((-1, 1), (-1, 1), (1, 2)), 1000, _k4,
                  (4, 4), "adam", 0.003, epochs=2000, batch_size=64),
    BenchmarkSpec("K5", ("x", "y"), ((-3, 3), (-3, 3)), 20, _k5,
                  (5, 5), "adam", 0.003, epochs=4000, batch_size=16),
    BenchmarkSpec("F0", ("m0", "v", "c"), ((1, 5), (1, 2), (3, 10)), 10_000, _f0,
                  (3, 3), "adam", 0.01, epochs=400, batch_size=128),
    BenchmarkSpec("F1", ("q1", "q2", "e", "r"),
                  ((1, 5), (1, 5), (1, 5), (1, 5)), 10_000, _f1,
                  (3, 3), "adam", 0.01, epochs=400, batch_size=128),
    BenchmarkSpec("F2", ("G", "m1", "m2", "r1", "r2"),
                  ((1, 5),) * 5, 10_000, _f2,
                  (3, 3), "adam", 0.01, epochs=400, batch_size=128),
    BenchmarkSpec("F3", ("k", "x"), ((1, 5), (1, 5)), 10_000, _f3,
                  (3, 3), "adam", 0.01, epochs=400, batch_size=128),
    BenchmarkSpec("F4", ("m1", "m2", "G", "c", "r"),
                  ((1, 5), (1, 5), (1, 2), (1, 2), (1, 2)), 10_000, _f4,
                  (5, 5), "adam", 0.03, epochs=400, batch_size=128),
    BenchmarkSpec("F5", ("q", "Ve", "eps", "d", "y"),
                  ((1, 5), (1, 5), (1, 5), (4, 6), (1, 3)), 10_000, _f5,
                  (3, 3), "adam", 0.03, epochs=400, batch_size=128),
]}

K2_EXCLUSION = 1e-6     # |x| below this is rejected and redrawn


def get_benchmark(name: str) -> BenchmarkSpec:
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise ConfigError(f"unknown benchmark {name!r}; "
                          f"choose from {sorted(BENCHMARKS)}") from None


def generate(spec: BenchmarkSpec, seed: int = 0):
    """Draw the benchmark dataset: uniform variables, exact target values."""
    rng = np.random.default_rng(seed)
    cols = []
    for name, (lo, hi) in zip(spec.variables, spec.ranges):
        col = rng.uniform(lo, hi, spec.n_samples)
        if spec.name == "K2" and name == "x":
            bad = np.abs(col) < K2_EXCLUSION
            while np.any(bad):
                col[bad] = rng.uniform(lo, hi, int(bad.sum()))
                bad = np.abs(col) < K2_EXCLUSION
        cols.append(col)
    X = np.column_stack(cols)
    y = spec.fn(*cols)
    return X, y


def split(dataset, seed: int = 0):
    """Seeded shuffle split into (train, test), train size
    floor(TRAIN_FRACTION * n)."""
    X, y = dataset
    n = X.shape[0]
    if n < 2:
        raise DataError(f"need at least 2 samples to split, got {n}")
    idx = np.random.default_rng(seed).permutation(n)
    cut = math.floor(TRAIN_FRACTION * n)
    tr, te = idx[:cut], idx[cut:]
    return (X[tr], y[tr]), (X[te], y[te])


def parse_run_config(path: str | Path) -> dict:
    """Flat key = value file; values are JSON with a bare-string fallback."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value.strip("'\"")
    return out
