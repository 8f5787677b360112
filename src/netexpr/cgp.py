"""Cartesian genetic programming: genomes, decoding, evaluation, mutation.

A genome is a fixed grid of function nodes addressed by integer genes.
Data sources are numbered consecutively: primary inputs first, then
evolvable constants, then the grid nodes in column-major order.  A node
may read from any source in a strictly earlier column (within
``levels_back``), which makes the graph acyclic by construction.

All operators are protected: evaluation never raises on singular inputs,
and overflow propagates as non-finite values that callers can detect
with ``np.isfinite``.

What a genome computes is its phenotype: the active nodes, reached
backwards from the output genes, and the constants they read.  One
vectorised pass (``phenotypes``) finds it for a whole (P, n_nodes, 3)
gene tensor at once, as the step list that ``evaluate_genotype`` runs
plus an exact byte key: equal keys compute equal values, bit for bit.
Each ``Genotype`` caches both; mutation waves fill the cache as they are
made, and ``analyse`` fills it for a stacked population.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DimensionMismatch, SchemaError

DIV_EPS = 1e-9       # |denominator| below this returns the numerator
LN_SENTINEL = -1e6   # value of ln at exactly zero
CLAMP = 1e12         # output clamp for tan and exp
CONST_SIGMA = 0.1    # std of a mutation's Gaussian nudge to a constant
CONST_REDRAW = 0.1   # a constant's redraw chance, as a fraction of p


def p_add(a, b):
    return a + b


def p_sub(a, b):
    return a - b


def p_mul(a, b):
    return a * b


def p_div(a, b):
    small = np.abs(b) < DIV_EPS
    raw = a / np.where(small, 1.0, b)
    return np.where(small, a, raw)


def p_sqrt(a):
    return np.sqrt(np.abs(a))


def p_square(a):
    return a * a


def p_sin(a):
    return np.sin(a)


def p_cos(a):
    return np.cos(a)


def p_ln(a):
    absa = np.abs(a)
    zero = absa == 0
    raw = np.log(np.where(zero, 1.0, absa))
    return np.where(zero, LN_SENTINEL, raw)


def p_tan(a):
    return np.clip(np.tan(a), -CLAMP, CLAMP)


def p_exp(a):
    return np.clip(np.exp(a), -CLAMP, CLAMP)


@dataclass(frozen=True)
class Op:
    """One entry of the function set."""
    code: int
    name: str
    arity: int
    fn: Callable[..., np.ndarray]


@dataclass(frozen=True)
class FunctionSet:
    """Ordered table of operators; opcodes are dense 0..len-1."""
    ops: tuple[Op, ...]

    def __post_init__(self):
        for i, op in enumerate(self.ops):
            if op.code != i:
                raise ValueError(f"opcode {op.code} at position {i}; opcodes must be dense")
            if op.arity not in (1, 2):
                raise ValueError(f"op {op.name} has unsupported arity {op.arity}")

    def __len__(self) -> int:
        return len(self.ops)

    def __getitem__(self, code: int) -> Op:
        return self.ops[code]

    def by_name(self, name: str) -> Op:
        for op in self.ops:
            if op.name == name:
                return op
        raise KeyError(name)


def default_function_set() -> FunctionSet:
    """The standard 11-operator set: +, -, *, /, sqrt, square, sin, cos, ln, tan, exp."""
    return FunctionSet((
        Op(0, "+", 2, p_add),
        Op(1, "-", 2, p_sub),
        Op(2, "*", 2, p_mul),
        Op(3, "/", 2, p_div),
        Op(4, "sqrt", 1, p_sqrt),
        Op(5, "square", 1, p_square),
        Op(6, "sin", 1, p_sin),
        Op(7, "cos", 1, p_cos),
        Op(8, "ln", 1, p_ln),
        Op(9, "tan", 1, p_tan),
        Op(10, "exp", 1, p_exp),
    ))


@dataclass(frozen=True)
class CgpConfig:
    """Grid shape and addressing limits for one genome."""
    n_inputs: int
    n_rows: int = 10
    n_cols: int = 10
    n_constants: int = 1
    levels_back: int | None = None   # None means n_cols (all earlier columns)
    n_outputs: int = 1

    def __post_init__(self):
        if self.n_inputs < 1 or self.n_rows < 1 or self.n_cols < 1 or self.n_outputs < 1:
            raise ValueError("counts must be >= 1")
        if self.n_constants < 0:
            raise ValueError("n_constants must be >= 0")
        if self.levels_back is None:
            object.__setattr__(self, "levels_back", self.n_cols)
        if not 1 <= self.levels_back <= self.n_cols:
            raise ValueError("levels_back must be in 1..n_cols")

    @property
    def n_nodes(self) -> int:
        return self.n_rows * self.n_cols

    @property
    def n_sources_before_nodes(self) -> int:
        return self.n_inputs + self.n_constants

    @property
    def n_sources(self) -> int:
        return self.n_sources_before_nodes + self.n_nodes

    def node_column(self, node: int) -> int:
        return node // self.n_rows

    def input_choices(self, column: int) -> int:
        """Number of sources addressable from a node in the given column."""
        base = self.n_sources_before_nodes
        reachable_cols = min(column, self.levels_back)
        return base + reachable_cols * self.n_rows

    def input_shift(self, column: int) -> int:
        """Offset applied to node-range ranks when the window excludes early columns."""
        if column <= self.levels_back:
            return 0
        return (column - self.levels_back) * self.n_rows


@dataclass(frozen=True, eq=False)
class Genotype:
    """Integer-coded genome plus evolvable constants.

    ``function_genes`` has one row per grid node: (opcode, input_a, input_b).
    Arity-1 ops ignore input_b, but the gene exists and can mutate.
    ``output_genes`` point at any source (input, constant, or node).
    The phenotype (``phenotypes``) is cached on first use.
    """
    config: CgpConfig
    fset: FunctionSet
    function_genes: np.ndarray   # (n_nodes, 3) int
    output_genes: np.ndarray     # (n_outputs,) int
    constants: np.ndarray        # (n_constants,) float
    _steps: tuple[int, ...] | None = field(default=None, init=False, repr=False)
    _key: bytes | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.function_genes.setflags(write=False)
        self.output_genes.setflags(write=False)
        self.constants.setflags(write=False)


def validate_genotype(g: Genotype) -> None:
    """Raise ValueError if any gene refers outside its valid source set."""
    cfg = g.config
    if g.function_genes.shape != (cfg.n_nodes, 3):
        raise ValueError("function gene table has wrong shape")
    if g.output_genes.shape != (cfg.n_outputs,):
        raise ValueError("output gene vector has wrong shape")
    if g.constants.shape != (cfg.n_constants,):
        raise ValueError("constants vector has wrong shape")
    if np.any(g.function_genes[:, 0] < 0) or np.any(g.function_genes[:, 0] >= len(g.fset)):
        raise ValueError("opcode out of range")
    # the window mutation draws from: an input or constant, or a node whose
    # rank (source minus the column's shift) is below the column's choices
    choices, shifts = _input_tables(cfg)
    src = g.function_genes[:, 1:]
    base = cfg.n_sources_before_nodes
    rank = src - shifts[:, None]
    bad = ~(((0 <= src) & (src < base)) | ((base <= rank) & (rank < choices[:, None])))
    if bad.any():
        j, slot = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise ValueError(f"node {j} input gene {slot + 1} out of range")
    if np.any(g.output_genes < 0) or np.any(g.output_genes >= cfg.n_sources):
        raise ValueError("output gene out of range")
    if not np.all(np.isfinite(g.constants)):
        raise ValueError("constants must be finite")


@functools.lru_cache(maxsize=64)
def _input_tables(config: CgpConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per node: how many sources its inputs may address, and the shift that
    maps a node-range rank past the columns outside ``levels_back``."""
    cols = np.arange(config.n_nodes) // config.n_rows
    choices = np.array([config.input_choices(c) for c in range(config.n_cols)])[cols]
    shifts = np.array([config.input_shift(c) for c in range(config.n_cols)])[cols]
    choices.setflags(write=False)
    shifts.setflags(write=False)
    return choices, shifts


def random_genotype(config: CgpConfig, fset: FunctionSet,
                    rng: np.random.Generator) -> Genotype:
    """Draw a uniformly random valid genome; constants are uniform in [-1, 1]."""
    n_nodes = config.n_nodes
    genes = np.empty((n_nodes, 3), dtype=np.int64)
    genes[:, 0] = rng.integers(0, len(fset), n_nodes)
    choices, shifts = _input_tables(config)
    base = config.n_sources_before_nodes
    for slot in (1, 2):
        ranks = rng.integers(0, choices)
        genes[:, slot] = np.where(ranks < base, ranks, ranks + shifts)
    outputs = rng.integers(0, config.n_sources, config.n_outputs)
    constants = rng.uniform(-1.0, 1.0, config.n_constants)
    return Genotype(config, fset, genes, outputs, constants)


@functools.lru_cache(maxsize=16)
def _binary_ops(fset: FunctionSet) -> np.ndarray:
    """Per opcode: whether the op reads its second input gene."""
    binary = np.array([op.arity == 2 for op in fset.ops])
    binary.setflags(write=False)
    return binary


def phenotypes(config: CgpConfig, fset: FunctionSet, genes: np.ndarray,
               outputs: np.ndarray, constants: np.ndarray
               ) -> tuple[list[tuple[int, ...]], list[bytes]]:
    """Active steps and phenotype keys of P genomes in one pass.

    ``genes`` is (P, n_nodes, 3), ``outputs`` (P, n_outputs) and
    ``constants`` (P, n_constants).  Sources are marked as read column by
    column, from the outputs back to the inputs, over the whole stack at
    once; a node is active when it is read.  A genome's steps are
    (node, opcode, input_a, input_b) for each active node in node order,
    flattened into one tuple, with input_b = -1 for arity-1 ops.  Its key
    is the bytes of the int64s [step count, output genes, steps, bit
    patterns of the constants read]; the count and the steps fix how many
    constants follow, so equal keys mean equal phenotypes.
    """
    P = genes.shape[0]
    rows, base, n_out = config.n_rows, config.n_sources_before_nodes, config.n_outputs
    genes = np.asarray(genes, dtype=np.int64)
    binary = _binary_ops(fset)
    read = np.zeros((P, config.n_sources), dtype=bool)
    read[np.arange(P)[:, None], outputs] = True
    for col in range(config.n_cols - 1, -1, -1):
        owner, row = np.nonzero(read[:, base + col * rows:base + (col + 1) * rows])
        live = genes[owner, col * rows + row]
        read[owner, live[:, 1]] = True
        two = binary[live[:, 0]]
        read[owner[two], live[two, 2]] = True

    owner, node = np.nonzero(read[:, base:])
    live = genes[owner, node]
    steps = np.stack([node, live[:, 0], live[:, 1],
                      np.where(binary[live[:, 0]], live[:, 2], -1)], axis=1)
    n_steps = np.bincount(owner, minlength=P)
    c_owner, c_slot = np.nonzero(read[:, config.n_inputs:base])
    const_bits = np.ascontiguousarray(constants, dtype=float).view(np.int64)

    # every key's int64s, back to back in one buffer: a stable sort by
    # genome keeps each genome's parts in the order they are listed here
    genome = np.arange(P)
    parts = [(genome, n_steps), (np.repeat(genome, n_out), outputs.reshape(-1)),
             (np.repeat(owner, 4), steps.reshape(-1)),
             (c_owner, const_bits[c_owner, c_slot])]
    belongs = np.concatenate([p for p, _ in parts])
    packed = np.concatenate([v for _, v in parts])[np.argsort(belongs, kind="stable")]
    ends = np.cumsum(np.bincount(belongs, minlength=P)).tolist()
    buf = packed.tobytes()
    keys = [buf[8 * lo:8 * hi] for lo, hi in zip([0] + ends, ends)]
    flat_steps = steps.reshape(-1).tolist()
    ends = (4 * np.cumsum(n_steps)).tolist()
    return [tuple(flat_steps[lo:hi]) for lo, hi in zip([0] + ends, ends)], keys


def _cache(g: Genotype, steps: tuple[int, ...], key: bytes) -> Genotype:
    object.__setattr__(g, "_steps", steps)
    object.__setattr__(g, "_key", key)
    return g


def analyse(genomes: Sequence[Genotype]) -> None:
    """Cache the phenotype of every genome that lacks one.  The uncached
    genomes are stacked and analysed by one ``phenotypes`` pass per
    (config, function set)."""
    groups: dict = {}
    for g in genomes:
        if g._key is None:
            groups.setdefault((g.config, id(g.fset)), []).append(g)
    for group in groups.values():
        first = group[0]
        found = phenotypes(first.config, first.fset,
                           np.stack([g.function_genes for g in group]),
                           np.stack([g.output_genes for g in group]),
                           np.stack([g.constants for g in group]))
        for g, steps, key in zip(group, *found):
            _cache(g, steps, key)


def phenotype_keys(genomes: Sequence[Genotype]) -> list[bytes]:
    """Each genome's phenotype key (see ``phenotypes``)."""
    analyse(genomes)
    return [g._key for g in genomes]


def mutate_many(g: Genotype, n: int, per_gene_prob: float,
                rng: np.random.Generator) -> list[Genotype]:
    """Point-mutate n copies of one genome as one (n, n_nodes, 3) gene tensor.

    Each function and input gene of each copy is resampled with the given
    probability, uniformly from its valid value set (so the observable
    change rate is p * (1 - 1/k) for k valid values).  Output genes are
    never changed.  Each constant gets a Gaussian nudge (sigma
    ``CONST_SIGMA``) with probability p and is redrawn uniformly in
    [-1, 1] with probability ``CONST_REDRAW`` * p.  The number of
    RNG calls does not depend on n.  Every offspring owns its arrays, and
    the original genome is left untouched.  The wave's phenotypes are
    found by one ``phenotypes`` pass and cached on the offspring.
    """
    if not 0.0 <= per_gene_prob <= 1.0:
        raise ValueError("per_gene_prob must be in [0, 1]")
    cfg = g.config
    genes = np.repeat(g.function_genes[None], n, axis=0)
    mask = rng.random(genes.shape) < per_gene_prob

    hit = mask[..., 0]
    genes[hit, 0] = rng.integers(0, len(g.fset), int(hit.sum()))

    choices, shifts = _input_tables(cfg)
    base = cfg.n_sources_before_nodes
    for slot in (1, 2):
        hit = mask[..., slot]
        node = np.nonzero(hit)[1]
        ranks = rng.integers(0, choices[node])
        genes[hit, slot] = np.where(ranks < base, ranks, ranks + shifts[node])

    constants = np.repeat(g.constants[None], n, axis=0)
    if cfg.n_constants:
        nudge = rng.random(constants.shape) < per_gene_prob
        constants[nudge] += rng.normal(0.0, CONST_SIGMA, int(nudge.sum()))
        redraw = rng.random(constants.shape) < CONST_REDRAW * per_gene_prob
        constants[redraw] = rng.uniform(-1.0, 1.0, int(redraw.sum()))

    steps, keys = phenotypes(cfg, g.fset, genes,
                             np.broadcast_to(g.output_genes, (n, cfg.n_outputs)),
                             constants)
    # copies, not views: a view would keep the whole wave alive
    return [_cache(Genotype(cfg, g.fset, genes[i].copy(), g.output_genes.copy(),
                            constants[i].copy()), steps[i], keys[i])
            for i in range(n)]


def mutate(g: Genotype, per_gene_prob: float, rng: np.random.Generator) -> Genotype:
    """One offspring: ``mutate_many`` with n = 1, same per-gene law."""
    return mutate_many(g, 1, per_gene_prob, rng)[0]


def active_nodes(g: Genotype) -> set[int]:
    """Grid nodes reachable backwards from the output genes, by a
    depth-first walk of one genome: the reference for ``phenotypes``."""
    cfg = g.config
    base = cfg.n_sources_before_nodes
    active: set[int] = set()
    stack = [int(s) - base for s in g.output_genes if int(s) >= base]
    while stack:
        j = stack.pop()
        if j in active:
            continue
        active.add(j)
        op = g.fset[int(g.function_genes[j, 0])]
        for slot in range(1, 1 + op.arity):
            src = int(g.function_genes[j, slot])
            if src >= base:
                stack.append(src - base)
    return active


def evaluate_genotype(g: Genotype, inputs: np.ndarray) -> list[np.ndarray]:
    """Evaluate the genome graph directly, one vector per output gene.

    Only active nodes are computed, by the cached phenotype's steps.
    Non-finite values propagate; callers flag them with ``np.isfinite``.
    """
    cfg = g.config
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] != cfg.n_inputs:
        raise DimensionMismatch(
            f"expected {cfg.n_inputs} input columns, got shape {inputs.shape}")
    n = inputs.shape[0]
    base = cfg.n_sources_before_nodes
    values: dict[int, np.ndarray] = {}
    for i in range(cfg.n_inputs):
        values[i] = inputs[:, i]
    for k in range(cfg.n_constants):
        values[cfg.n_inputs + k] = np.full(n, g.constants[k])
    if g._steps is None:
        analyse([g])
    ops = g.fset.ops
    steps = iter(g._steps)
    with np.errstate(all="ignore"):
        for j, code, a, b in zip(steps, steps, steps, steps):
            fn = ops[code].fn
            values[base + j] = fn(values[a]) if b < 0 else fn(values[a], values[b])
    return [np.array(values[s], dtype=float) for s in g.output_genes.tolist()]


# --- phenotype trees -------------------------------------------------------

@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Const:
    slot: int


@dataclass(frozen=True)
class Call:
    op: Op
    args: tuple


ExpressionTree = Union[Var, Const, Call]


def decode(g: Genotype) -> list[ExpressionTree]:
    """Decode the genome into one expression tree per output gene.

    Shared subgraphs become shared subtree objects, so decoding stays
    linear in the number of active nodes.
    """
    cfg = g.config
    base = cfg.n_sources_before_nodes
    built: dict[int, ExpressionTree] = {}

    def tree_for(src: int) -> ExpressionTree:
        if src in built:
            return built[src]
        if src < cfg.n_inputs:
            t: ExpressionTree = Var(src)
        elif src < base:
            t = Const(src - cfg.n_inputs)
        else:
            j = src - base
            code, a, b = (int(x) for x in g.function_genes[j])
            op = g.fset[code]
            args = tuple(tree_for(g_in) for g_in in ((a,) if op.arity == 1 else (a, b)))
            t = Call(op, args)
        built[src] = t
        return t

    return [tree_for(int(s)) for s in g.output_genes]


def referenced_inputs(expr: ExpressionTree) -> set[int]:
    """Indices of primary inputs the tree reads."""
    out: set[int] = set()
    seen: set[int] = set()

    def walk(node):
        if id(node) in seen:
            return
        seen.add(id(node))
        if isinstance(node, Var):
            out.add(node.index)
        elif isinstance(node, Call):
            for a in node.args:
                walk(a)

    walk(expr)
    return out


def evaluate(expr: ExpressionTree, inputs: np.ndarray,
             constants: Sequence[float] = ()) -> np.ndarray:
    """Evaluate a decoded tree row-wise over an (n_samples, n_inputs) matrix."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2:
        raise DimensionMismatch(f"inputs must be 2-D, got shape {inputs.shape}")
    refs = referenced_inputs(expr)
    if refs and max(refs) >= inputs.shape[1]:
        raise DimensionMismatch(
            f"tree reads input {max(refs)} but only {inputs.shape[1]} columns given")
    constants = np.asarray(constants, dtype=float)
    n = inputs.shape[0]
    memo: dict[int, np.ndarray] = {}

    def walk(node) -> np.ndarray:
        key = id(node)
        if key in memo:
            return memo[key]
        if isinstance(node, Var):
            v = inputs[:, node.index]
        elif isinstance(node, Const):
            v = np.full(n, constants[node.slot])
        else:
            v = node.op.fn(*(walk(a) for a in node.args))
        memo[key] = v
        return v

    with np.errstate(all="ignore"):
        return np.array(walk(expr), dtype=float)


_BINARY_NAMES = {"+", "-", "*", "/"}


def to_infix(expr: ExpressionTree, var_names: Sequence[str],
             constants: Sequence[float] = ()) -> str:
    """Fully parenthesized, deterministic infix rendering.

    Binary ops print as "(a op b)", square as "((a)^2)", other unary ops
    as "name(a)".  Constants print with full repr precision so the string
    parses back to the same function.
    """
    refs = referenced_inputs(expr)
    if refs and max(refs) >= len(var_names):
        raise DimensionMismatch(
            f"tree reads input {max(refs)} but only {len(var_names)} names given")

    def walk(node) -> str:
        if isinstance(node, Var):
            return var_names[node.index]
        if isinstance(node, Const):
            return repr(float(constants[node.slot]))
        if node.op.name in _BINARY_NAMES:
            a, b = (walk(x) for x in node.args)
            return f"({a} {node.op.name} {b})"
        if node.op.name == "square":
            return f"(({walk(node.args[0])})^2)"
        return f"{node.op.name}({walk(node.args[0])})"

    return walk(expr)


# --- serialization ---------------------------------------------------------

def genotype_to_dict(g: Genotype) -> dict:
    """JSON-ready dict with stable field order."""
    return {
        "config": {
            "n_inputs": g.config.n_inputs,
            "n_rows": g.config.n_rows,
            "n_cols": g.config.n_cols,
            "n_constants": g.config.n_constants,
            "levels_back": g.config.levels_back,
            "n_outputs": g.config.n_outputs,
        },
        "function_genes": [int(x) for x in g.function_genes.reshape(-1)],
        "output_genes": [int(x) for x in g.output_genes],
        "constants": [float(x) for x in g.constants],
    }


def genotype_from_dict(d: dict, fset: FunctionSet | None = None) -> Genotype:
    fset = fset or default_function_set()
    try:
        cfg = CgpConfig(**d["config"])
        genes = np.array(d["function_genes"], dtype=np.int64).reshape(cfg.n_nodes, 3)
        outputs = np.array(d["output_genes"], dtype=np.int64)
        constants = np.array(d["constants"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad genotype record: {exc}") from exc
    g = Genotype(cfg, fset, genes, outputs, constants)
    try:
        validate_genotype(g)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    return g


def genotype_to_json(g: Genotype) -> str:
    return json.dumps(genotype_to_dict(g), indent=2)


def genotype_from_json(text: str, fset: FunctionSet | None = None) -> Genotype:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"bad genotype JSON: {exc}") from exc
    return genotype_from_dict(d, fset)
