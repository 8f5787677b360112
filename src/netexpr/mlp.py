"""Minimal multilayer perceptron: sigmoid hiddens, linear or softmax head.

Kept deliberately small: dense layers only, SGD or Adam, per-layer
activation capture for downstream modelling, JSON weight files that
round-trip bit-exactly.

Training keeps every parameter in one flat vector, of which the model's
(W, b) layers are views.  Each step concatenates the layer gradients
once and updates the whole vector: SGD in one subtraction, Adam through
one first- and one second-moment vector updated in place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (ConfigError, DataError, DimensionMismatch, NumericError,
                     SchemaError, json_floats)

LINEAR = "linear"
SOFTMAX = "softmax"

WEIGHTS_SCHEMA_VERSION = 1
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function from e = exp(-|z|), which never overflows:
    1/(1+e) where z >= 0, e/(1+e) elsewhere, in two full-size buffers."""
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = np.add(e, 1.0)
    np.divide(e, d, out=e)
    np.divide(1.0, d, out=d)
    np.copyto(e, d, where=z >= 0)
    return e


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class MlpModel:
    """Dense layers as (W, b) pairs; W maps (d_in -> d_out) via x @ W + b."""
    layers: list[tuple[np.ndarray, np.ndarray]]
    head: str = LINEAR

    def __post_init__(self):
        if self.head not in (LINEAR, SOFTMAX):
            raise ValueError(f"unknown head {self.head!r}")
        if not self.layers:
            raise DimensionMismatch("a model needs at least one layer")
        dims = self.dims
        for i, (W, b) in enumerate(self.layers):
            if W.ndim != 2 or b.ndim != 1 or W.shape[1] != b.shape[0]:
                raise DimensionMismatch(f"layer {i} has inconsistent shapes")
            if i and W.shape[0] != dims[i]:
                raise DimensionMismatch(f"layer {i} does not chain with layer {i - 1}")
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i} has non-finite parameters")

    @property
    def dims(self) -> list[int]:
        """Dimension chain [d_in, hidden..., d_out]."""
        return [self.layers[0][0].shape[0]] + [W.shape[1] for W, _ in self.layers]


@dataclass
class LayerTrace:
    """Inputs, every post-activation hidden output, and the head output."""
    x: np.ndarray
    h: list[np.ndarray]
    y: np.ndarray

    @property
    def widths(self) -> list[int]:
        """Widths of the modelled layers: hidden layers then the output."""
        return [m.shape[1] for m in self.h] + [self.y.shape[1]]


@dataclass
class TrainConfig:
    optimizer: str = "sgd"
    learning_rate: float = 0.01
    epochs: int = 2000
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be finite and > 0")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")


def init_model(n_inputs: int, hidden: list[int], n_outputs: int, head: str,
               rng: np.random.Generator) -> MlpModel:
    """Uniform +-1/sqrt(fan_in) initialization, biases at zero."""
    dims = [n_inputs] + list(hidden) + [n_outputs]
    layers = []
    for d_in, d_out in zip(dims, dims[1:]):
        bound = 1.0 / np.sqrt(d_in)
        layers.append((rng.uniform(-bound, bound, size=(d_in, d_out)),
                       np.zeros(d_out)))
    return MlpModel(layers, head)


def _forward(model: MlpModel, X: np.ndarray):
    """Unchecked pass: [X, each hidden post-activation] and the head's logits."""
    acts = [X]
    for W, b in model.layers[:-1]:
        acts.append(sigmoid(acts[-1] @ W + b))
    W, b = model.layers[-1]
    return acts, acts[-1] @ W + b


def forward_trace(model: MlpModel, X: np.ndarray) -> LayerTrace:
    """Forward pass capturing each hidden layer's post-activation output."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.dims[0]:
        raise DimensionMismatch(
            f"expected {model.dims[0]} input columns, got shape {X.shape}")
    acts, z = _forward(model, X)
    y = softmax(z) if model.head == SOFTMAX else z
    return LayerTrace(X, acts[1:], y)


def predict(model: MlpModel, X: np.ndarray) -> np.ndarray:
    return forward_trace(model, X).y


def guess_head(y: np.ndarray) -> str:
    """Softmax for integer class-id targets, linear for any other."""
    return SOFTMAX if np.issubdtype(np.asarray(y).dtype, np.integer) else LINEAR


def _as_targets(y: np.ndarray, head: str, n_classes: int | None = None) -> np.ndarray:
    """Targets as a matrix; class ids are one-hot over ``n_classes`` columns,
    by default as many as the largest id present needs."""
    y = np.asarray(y)
    if head == SOFTMAX:
        labels = y.astype(int).reshape(-1)
        if n_classes is None:
            n_classes = int(labels.max()) + 1
        elif labels.max() >= n_classes:
            raise DataError(f"class id {int(labels.max())} is outside the "
                            f"model's {n_classes} classes")
        return np.eye(n_classes)[labels]
    y = y.astype(float)
    return y.reshape(-1, 1) if y.ndim == 1 else y


def _loss(model: MlpModel, X: np.ndarray, T: np.ndarray) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        y = predict(model, X)
        if model.head == SOFTMAX:
            logp = np.log(np.clip(y, 1e-300, None))
            return float(-(T * logp).sum() / X.shape[0])
        return float(((y - T) ** 2).mean())


def _gradients(model: MlpModel, X: np.ndarray, T: np.ndarray):
    """Backprop for mean squared error (linear head) or cross-entropy (softmax)."""
    n = X.shape[0]
    acts, z = _forward(model, X)
    if model.head == SOFTMAX:
        delta = (softmax(z) - T) / n
    else:
        delta = 2.0 * (z - T) / (n * T.shape[1])
    grads = []
    for i in range(len(model.layers) - 1, -1, -1):
        W, _ = model.layers[i]
        grads.append((acts[i].T @ delta, delta.sum(axis=0)))
        if i:
            delta = (delta @ W.T) * acts[i] * (1.0 - acts[i])
    grads.reverse()
    return grads


def train(dataset: tuple[np.ndarray, np.ndarray], arch: list[int],
          cfg: TrainConfig, head: str | None = None) -> MlpModel:
    """Train an MLP with the given hidden widths.

    The head defaults to softmax when targets are integer class ids and
    linear otherwise.  Deterministic for a fixed config seed.  Raises
    NumericError if the loss goes non-finite.
    """
    X, y = dataset
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("dataset must be a non-empty (n, d) matrix")
    if any(w < 1 for w in arch):
        raise ValueError("hidden widths must be >= 1")
    if head is None:
        head = guess_head(y)
    T = _as_targets(y, head)
    if T.shape[0] != X.shape[0]:
        raise DimensionMismatch("X and y disagree on sample count")

    rng = np.random.default_rng(cfg.seed)
    model = init_model(X.shape[1], arch, T.shape[1], head, rng)
    # one flat parameter vector; the model's layers are views into it
    theta = np.concatenate([p.ravel() for layer in model.layers for p in layer])
    layers, start = [], 0
    for W, b in model.layers:
        mid = start + W.size
        layers.append((theta[start:mid].reshape(W.shape), theta[mid:mid + b.size]))
        start = mid + b.size
    model.layers = layers

    if cfg.optimizer == "adam":
        m, v = np.zeros_like(theta), np.zeros_like(theta)
    step = 0
    n = X.shape[0]
    batch = min(cfg.batch_size, n)
    b1, b2 = ADAM_BETAS

    # a diverging run overflows silently; the loss check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            Xo, To = X[order], T[order]
            for lo in range(0, n, batch):
                grads = _gradients(model, Xo[lo:lo + batch], To[lo:lo + batch])
                g = np.concatenate([p.ravel() for layer in grads for p in layer])
                step += 1
                if cfg.optimizer == "sgd":
                    theta -= cfg.learning_rate * g
                else:   # b1 * m + (1 - b1) * g and its v twin, op for op, in place
                    m *= b1
                    m += (1 - b1) * g
                    v *= b2
                    v += (1 - b2) * g * g
                    c1 = 1 - b1 ** step
                    c2 = 1 - b2 ** step
                    theta -= cfg.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
            if epoch % 50 == 0 or epoch == cfg.epochs - 1:
                loss = _loss(model, X, T)
                if not np.isfinite(loss):
                    raise NumericError(f"training loss went non-finite at epoch {epoch}")
    model.layers = [(W.copy(), b.copy()) for W, b in layers]
    return model


def train_loss(model: MlpModel, X: np.ndarray, y: np.ndarray) -> float:
    """Loss under the model's own training criterion (MSE or cross-entropy)."""
    return _loss(model, np.asarray(X, dtype=float),
                 _as_targets(y, model.head, model.dims[-1]))


def mse(model: MlpModel, X: np.ndarray, y: np.ndarray) -> float:
    pred = predict(model, X)
    target = _as_targets(y, model.head, model.dims[-1])
    return float(((pred - target) ** 2).mean())


def accuracy(model: MlpModel, X: np.ndarray, labels: np.ndarray) -> float:
    pred = predict(model, X).argmax(axis=1)
    return float((pred == np.asarray(labels).astype(int).reshape(-1)).mean())


# --- weight files ----------------------------------------------------------

def save_weights(model: MlpModel, path: str | Path) -> None:
    record = {
        "version": WEIGHTS_SCHEMA_VERSION,
        "arch": model.dims,
        "head": model.head,
        "layers": [{"W": [[float(v) for v in row] for row in W],
                    "b": [float(v) for v in b]} for W, b in model.layers],
    }
    write_json(path, record)


def write_json(path: str | Path, record) -> None:
    """Write one JSON artifact.  JSON has no number for NaN or infinity:
    such a value raises NumericError naming the file, before any of it
    is written."""
    try:
        text = json.dumps(record, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{path}: a non-finite value cannot be written "
                           f"as JSON ({exc})") from None
    Path(path).write_text(text)


def load_weights(path: str | Path) -> MlpModel:
    try:
        record = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read weight file {path}: {exc}") from exc
    try:
        if record["version"] != WEIGHTS_SCHEMA_VERSION:
            raise SchemaError(f"unsupported weight schema version {record['version']}")
        arch = record["arch"]
        layers = [(json_floats(layer["W"], f"weight file {path}: layer {i} W"),
                   json_floats(layer["b"], f"weight file {path}: layer {i} b"))
                  for i, layer in enumerate(record["layers"])]
        model = MlpModel(layers, record["head"])
    except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"bad weight file {path}: {exc}") from exc
    if model.dims != list(arch):
        raise SchemaError(f"weight file {path}: arch field disagrees with layer shapes")
    return model


# --- CSV tables ------------------------------------------------------------

def write_table(path: str | Path, header: list[str], columns) -> None:
    """Header row, then one row per index of the equal-length columns:
    integer columns as ints, every other cell as ``repr(float)``."""
    cells = [map(str, c.tolist()) if np.issubdtype(c.dtype, np.integer)
             else map(repr, c.astype(float).tolist()) for c in map(np.asarray, columns)]
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_table(path: str | Path, finite: bool = False) -> tuple[list[str], np.ndarray]:
    """The header and an (n, len(header)) float matrix of a ``write_table``
    file; blank lines are skipped.  Raises SchemaError if the file cannot
    be read, has no data rows, or has a ragged or non-numeric row, and with
    ``finite`` if a cell is NaN or infinite."""
    try:
        lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    if len(lines) < 2:
        raise SchemaError(f"{path} has no data rows")
    header = lines[0].split(",")
    try:    # a non-numeric cell or rows of unequal length
        rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    if rows.shape[1] != len(header):
        raise SchemaError(f"{path}: rows have {rows.shape[1]} cells, "
                          f"the header {len(header)}")
    if finite and not np.isfinite(rows).all():
        row, col = np.argwhere(~np.isfinite(rows))[0]
        raise SchemaError(f"{path}: data row {row + 1}, column {header[col]!r} "
                          f"is {rows[row, col]}, not a finite number")
    return header, rows


def save_dataset_csv(path: str | Path, X: np.ndarray, y: np.ndarray,
                     feature_names: list[str] | None = None,
                     target_name: str = "y") -> None:
    """Header row, feature columns, then one target column."""
    X = np.asarray(X, dtype=float)
    names = feature_names or [f"x{i}" for i in range(X.shape[1])]
    write_table(path, names + [target_name], [*X.T, np.asarray(y).reshape(-1)])


def load_dataset_csv(path: str | Path):
    """Returns (X, y, feature_names); y is int when every value is integral.
    A NaN or infinite cell is a SchemaError."""
    header, rows = read_table(path, finite=True)
    if len(header) < 2:
        raise SchemaError(f"dataset {path} needs a feature and a target column")
    X, y = rows[:, :-1], rows[:, -1]
    # class ids are small non-negative integers; anything else stays float
    if np.all(y == np.round(y)) and y.min() >= 0 and y.max() < 1e6:
        y = y.astype(int)
    return X, y, header[:-1]
