"""Minimal multilayer perceptron: sigmoid hiddens, linear or softmax head.

Kept deliberately small: dense layers only, SGD or Adam, per-layer
activation capture for downstream modelling, JSON weight files that
round-trip bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, DimensionMismatch, NumericError, SchemaError

LINEAR = "linear"
SOFTMAX = "softmax"

WEIGHTS_SCHEMA_VERSION = 1
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


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
        head = SOFTMAX if np.issubdtype(np.asarray(y).dtype, np.integer) else LINEAR
    T = _as_targets(y, head)
    if T.shape[0] != X.shape[0]:
        raise DimensionMismatch("X and y disagree on sample count")

    rng = np.random.default_rng(cfg.seed)
    model = init_model(X.shape[1], arch, T.shape[1], head, rng)

    moments = None
    if cfg.optimizer == "adam":
        moments = [(np.zeros_like(W), np.zeros_like(b),
                    np.zeros_like(W), np.zeros_like(b)) for W, b in model.layers]
    step = 0
    n = X.shape[0]
    batch = min(cfg.batch_size, n)
    b1, b2 = ADAM_BETAS

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, batch):
            idx = order[lo:lo + batch]
            grads = _gradients(model, X[idx], T[idx])
            step += 1
            for i, ((W, b), (gW, gb)) in enumerate(zip(model.layers, grads)):
                if cfg.optimizer == "sgd":
                    model.layers[i] = (W - cfg.learning_rate * gW,
                                       b - cfg.learning_rate * gb)
                else:
                    mW, mb, vW, vb = moments[i]
                    mW = b1 * mW + (1 - b1) * gW
                    mb = b1 * mb + (1 - b1) * gb
                    vW = b2 * vW + (1 - b2) * gW * gW
                    vb = b2 * vb + (1 - b2) * gb * gb
                    moments[i] = (mW, mb, vW, vb)
                    c1 = 1 - b1 ** step
                    c2 = 1 - b2 ** step
                    model.layers[i] = (
                        W - cfg.learning_rate * (mW / c1) / (np.sqrt(vW / c2) + ADAM_EPS),
                        b - cfg.learning_rate * (mb / c1) / (np.sqrt(vb / c2) + ADAM_EPS),
                    )
        if epoch % 50 == 0 or epoch == cfg.epochs - 1:
            loss = _loss(model, X, T)
            if not np.isfinite(loss):
                raise NumericError(f"training loss went non-finite at epoch {epoch}")
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
    Path(path).write_text(json.dumps(record, indent=2))


def load_weights(path: str | Path) -> MlpModel:
    try:
        record = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read weight file {path}: {exc}") from exc
    try:
        if record["version"] != WEIGHTS_SCHEMA_VERSION:
            raise SchemaError(f"unsupported weight schema version {record['version']}")
        arch = record["arch"]
        layers = [(np.array(layer["W"], dtype=float), np.array(layer["b"], dtype=float))
                  for layer in record["layers"]]
        model = MlpModel(layers, record["head"])
    except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"bad weight file {path}: {exc}") from exc
    if model.dims != list(arch):
        raise SchemaError(f"weight file {path}: arch field disagrees with layer shapes")
    return model


# --- dataset CSV -----------------------------------------------------------

def save_dataset_csv(path: str | Path, X: np.ndarray, y: np.ndarray,
                     feature_names: list[str] | None = None,
                     target_name: str = "y") -> None:
    """Header row, feature columns, then one target column."""
    X = np.asarray(X)
    y = np.asarray(y).reshape(-1)
    names = feature_names or [f"x{i}" for i in range(X.shape[1])]
    lines = [",".join(names + [target_name])]
    integer_target = np.issubdtype(y.dtype, np.integer)
    for row, t in zip(X, y):
        cells = [repr(float(v)) for v in row]
        cells.append(str(int(t)) if integer_target else repr(float(t)))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def load_dataset_csv(path: str | Path):
    """Returns (X, y, feature_names); y is int when every value is integral."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read dataset {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise SchemaError(f"dataset {path} has no data rows")
    header = lines[0].split(",")
    try:
        rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    except ValueError as exc:
        raise SchemaError(f"dataset {path}: {exc}") from exc
    if rows.shape[1] != len(header) or rows.shape[1] < 2:
        raise SchemaError(f"dataset {path}: column count mismatch")
    X, y = rows[:, :-1], rows[:, -1]
    # class ids are small non-negative integers; anything else stays float
    if (np.all(np.isfinite(y)) and np.all(y == np.round(y))
            and y.min() >= 0 and y.max() < 1e6):
        y = y.astype(int)
    return X, y, header[:-1]
