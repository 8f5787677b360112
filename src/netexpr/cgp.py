"""Cartesian genetic programming: genomes, decoding, evaluation, mutation.

A genome is a fixed grid of function nodes addressed by integer genes.
Data sources are numbered consecutively: primary inputs first, then
evolvable constants, then the grid nodes in column-major order.  A node
may read from any source in a strictly earlier column, which makes the
graph acyclic by construction.

Opcodes index one fixed table of 11 operators, ``FUNCTION_SET``; a
saved genome stores them as bare indices, so the table's order is part
of the file format.  ``/``, ``sqrt``, ``ln``, ``tan`` and ``exp`` are
guarded and the rest are numpy ufuncs: evaluation never raises on
singular inputs, and overflow propagates as non-finite values that
callers can detect with ``np.isfinite``.

What a genome computes is its phenotype: the active nodes, reached
backwards from the output genes, and the constants they read.  Genomes
of one config are kept as a ``Wave`` of stacked arrays; one vectorised
pass (``phenotypes``) finds every genome's active steps and an exact
byte key: equal keys compute equal values, bit for bit.  Waves come from
``random_genotypes``, ``mutate_many`` (a genome's offspring, then the
genome itself) and, for genomes made one at a time, ``stack``.

``evaluate_many`` runs the steps of a wave, or of its listed rows,
together, reading them in place: one op call per (column, opcode) group
on slabs of a bounded value buffer.
``evaluate_genotype`` is its one-genome form; a genome taken from a wave
brings its phenotype along, so it is not stacked again.  ``decode`` and
``evaluate`` build and run expression trees, for printing and as the
tests' reference.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Sequence, Union

import numpy as np

from .errors import ConfigError, DimensionMismatch, SchemaError, json_floats

DIV_EPS = 1e-9       # |denominator| below this returns the numerator
LN_SENTINEL = -1e6   # value of ln at exactly zero
CLAMP = 1e12         # output clamp for tan and exp
CONST_SIGMA = 0.1    # std of a mutation's Gaussian nudge to a constant
CONST_REDRAW = 0.1   # a constant's redraw chance, as a fraction of p
# elements of evaluate_many's value buffer: the smallest power of two that
# holds a K0 position after the first generation (n = 160, about 200
# distinct genomes needing up to about 1 600 rows) as one block
EVAL_BLOCK = 1 << 18
EVAL_SLAB = 1 << 13   # elements of each operand slab it gathers


def p_div(a, b, out=None):
    small = np.abs(b) < DIV_EPS
    out = np.divide(a, np.where(small, 1.0, b), out=out)
    np.copyto(out, a, where=small)
    return out


def p_sqrt(a, out=None):
    out = np.abs(a, out=out)
    return np.sqrt(out, out=out)


def p_ln(a, out=None):
    absa = np.abs(a)
    zero = absa == 0
    absa[zero] = 1.0
    out = np.log(absa, out=out)
    out[zero] = LN_SENTINEL
    return out


def p_tan(a, out=None):
    out = np.tan(a, out=out)
    np.maximum(out, -CLAMP, out=out)
    return np.minimum(out, CLAMP, out=out)


def p_exp(a, out=None):
    out = np.exp(a, out=out)     # never negative: only the upper clamp acts
    return np.minimum(out, CLAMP, out=out)


@dataclass(frozen=True)
class Op:
    """One entry of ``FUNCTION_SET``.  ``fn`` is elementwise, takes its
    arguments as equal-shape arrays and writes into ``out`` when given one
    (an array of that shape that none of the arguments overlaps)."""
    code: int
    name: str
    arity: int
    fn: Callable[..., np.ndarray]


@dataclass(frozen=True)
class FunctionSet:
    """Ordered table of operators; an opcode is its op's position."""
    ops: tuple[Op, ...]

    def __len__(self) -> int:
        return len(self.ops)

    def __getitem__(self, code: int) -> Op:
        return self.ops[code]

    def by_name(self, name: str) -> Op:
        for op in self.ops:
            if op.name == name:
                return op
        raise KeyError(name)


# The one operator table; genotype.json stores opcodes as indices into it.
FUNCTION_SET = FunctionSet((
    Op(0, "+", 2, np.add),
    Op(1, "-", 2, np.subtract),
    Op(2, "*", 2, np.multiply),
    Op(3, "/", 2, p_div),
    Op(4, "sqrt", 1, p_sqrt),
    Op(5, "square", 1, np.square),
    Op(6, "sin", 1, np.sin),
    Op(7, "cos", 1, np.cos),
    Op(8, "ln", 1, p_ln),
    Op(9, "tan", 1, p_tan),
    Op(10, "exp", 1, p_exp),
))
_FNS = [op.fn for op in FUNCTION_SET.ops]
_ARITY = [op.arity for op in FUNCTION_SET.ops]
_BINARY_OPS = np.array(_ARITY) == 2   # per opcode: reads input_b
_BINARY_OPS.setflags(write=False)


@dataclass(frozen=True)
class CgpConfig:
    """Grid shape and addressing limits for one genome."""
    n_inputs: int
    n_rows: int = 10
    n_cols: int = 10
    n_constants: int = 1
    n_outputs: int = 1

    def __post_init__(self):
        if self.n_inputs < 1 or self.n_rows < 1 or self.n_cols < 1 or self.n_outputs < 1:
            raise ConfigError("counts must be >= 1")
        if self.n_constants < 0:
            raise ConfigError("n_constants must be >= 0")

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

    def input_choices(self, column):
        """Number of sources addressable from a node in the given column (or
        array of columns): the inputs, the constants and every node of an
        earlier column."""
        return self.n_sources_before_nodes + column * self.n_rows


@dataclass(frozen=True, eq=False)
class Genotype:
    """Integer-coded genome plus evolvable constants.

    ``function_genes`` has one row per grid node: (opcode, input_a, input_b).
    Arity-1 ops ignore input_b, but the gene exists and can mutate.
    ``output_genes`` point at any source (input, constant, or node).
    Opcodes index ``FUNCTION_SET``.  A genome taken from a wave keeps
    its one-row ``wave``, the phenotype found there, so it is evaluated
    without being stacked afresh.
    """
    fset: ClassVar[FunctionSet] = FUNCTION_SET   # the table, read-only
    config: CgpConfig
    function_genes: np.ndarray   # (n_nodes, 3) int
    output_genes: np.ndarray     # (n_outputs,) int
    constants: np.ndarray        # (n_constants,) float
    wave: "Wave | None" = field(default=None, repr=False)

    def __post_init__(self):
        self.function_genes.setflags(write=False)
        self.output_genes.setflags(write=False)
        self.constants.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Wave:
    """P genomes of one config as stacked arrays, ``genes`` (P, n_nodes, 3),
    ``outputs`` (P, n_outputs) and ``constants`` (P, n_constants), and
    their phenotypes: ``steps`` (S, 4), genome after genome, ``n_steps``
    per genome, ``reads`` (P, n_constants), true where a genome reads a
    constant, and ``keys`` (see ``phenotypes``)."""
    config: CgpConfig
    genes: np.ndarray
    outputs: np.ndarray
    constants: np.ndarray
    steps: np.ndarray
    n_steps: np.ndarray
    reads: np.ndarray
    keys: list[bytes]

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i: int) -> Genotype:
        """Genome i, owning copies of its rows (a view would keep the wave
        alive), with its one-row wave: views of those copies, and copies of
        its steps and key."""
        genes, outputs, constants = (self.genes[i].copy(), self.outputs[i].copy(),
                                     self.constants[i].copy())
        rows = np.array([i], dtype=np.intp)
        one = Wave(self.config, genes[None], outputs[None], constants[None],
                   self.steps[_step_index(self.n_steps, rows)], self.n_steps[rows],
                   self.reads[rows], [self.keys[i]])
        return Genotype(self.config, genes, outputs, constants, one)

    def take(self, rows) -> "Wave":
        """The wave of the listed rows, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        return Wave(self.config, self.genes[rows], self.outputs[rows],
                    self.constants[rows], self.steps[_step_index(self.n_steps, rows)],
                    self.n_steps[rows], self.reads[rows],
                    [self.keys[i] for i in rows.tolist()])


def _step_index(n_steps: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Where the listed genomes' steps sit, in that order, in a steps array
    of genomes with these step counts, genome after genome."""
    counts = n_steps[rows]
    first = (np.cumsum(n_steps) - n_steps)[rows]
    return np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def validate_genotype(g: Genotype) -> None:
    """Raise ValueError if any gene refers outside its valid source set."""
    cfg = g.config
    if g.function_genes.shape != (cfg.n_nodes, 3):
        raise ValueError("function gene table has wrong shape")
    if g.output_genes.shape != (cfg.n_outputs,):
        raise ValueError("output gene vector has wrong shape")
    if g.constants.shape != (cfg.n_constants,):
        raise ValueError("constants vector has wrong shape")
    codes = g.function_genes[:, 0]
    if np.any(codes < 0) or np.any(codes >= len(FUNCTION_SET)):
        raise ValueError("opcode out of range")
    src = g.function_genes[:, 1:]
    bad = (src < 0) | (src >= _input_choices(cfg)[:, None])
    if bad.any():
        j, slot = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise ValueError(f"node {j} input gene {slot + 1} out of range")
    if np.any(g.output_genes < 0) or np.any(g.output_genes >= cfg.n_sources):
        raise ValueError("output gene out of range")
    if not np.all(np.isfinite(g.constants)):
        raise ValueError("constants must be finite")


@functools.lru_cache(maxsize=64)
def _input_choices(config: CgpConfig) -> np.ndarray:
    """Per node, how many sources its inputs may address."""
    choices = config.input_choices(np.arange(config.n_nodes) // config.n_rows)
    choices.setflags(write=False)
    return choices


def _draw_sources(config: CgpConfig, nodes: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """One input gene for each listed node, uniform over its valid sources."""
    return rng.integers(0, _input_choices(config)[nodes])


def random_genotypes(config: CgpConfig, n: int, rng: np.random.Generator) -> Wave:
    """n uniformly random valid genomes drawn as one (n, n_nodes, 3) gene
    tensor, constants uniform in [-1, 1], by five RNG calls whatever n is."""
    nodes = np.broadcast_to(np.arange(config.n_nodes), (n, config.n_nodes))
    genes = np.stack([rng.integers(0, len(FUNCTION_SET), nodes.shape),
                      _draw_sources(config, nodes, rng),
                      _draw_sources(config, nodes, rng)], axis=-1)
    outputs = rng.integers(0, config.n_sources, (n, config.n_outputs))
    constants = rng.uniform(-1.0, 1.0, (n, config.n_constants))
    return phenotypes(config, genes, outputs, constants)


def phenotypes(config: CgpConfig, genes: np.ndarray, outputs: np.ndarray,
               constants: np.ndarray) -> Wave:
    """The wave of P genomes, their phenotypes found in one pass.

    ``genes`` is (P, n_nodes, 3), ``outputs`` (P, n_outputs) and
    ``constants`` (P, n_constants).  Sources are marked as read column by
    column, from the outputs back to the inputs, over the whole stack at
    once; a node is active when it is read, and ``reads`` keeps which
    constants are.  A genome's steps are (node, opcode, input_a, input_b)
    for each active node in node order, with input_b = -1 for arity-1 ops.
    Its key is the bytes of the int64s
    [step count, output genes, steps, bit patterns of the constants read];
    the count and the steps fix how many constants follow, so equal keys
    mean equal phenotypes.
    """
    P = genes.shape[0]
    rows, base, n_out = config.n_rows, config.n_sources_before_nodes, config.n_outputs
    genes = np.asarray(genes, dtype=np.int64)
    read = np.zeros((P, config.n_sources), dtype=bool)
    read[np.arange(P)[:, None], outputs] = True
    for col in range(config.n_cols - 1, -1, -1):
        owner, row = np.nonzero(read[:, base + col * rows:base + (col + 1) * rows])
        live = genes[owner, col * rows + row]
        read[owner, live[:, 1]] = True
        two = _BINARY_OPS[live[:, 0]]
        read[owner[two], live[two, 2]] = True

    owner, node = np.nonzero(read[:, base:])
    live = genes[owner, node]
    steps = np.stack([node, live[:, 0], live[:, 1],
                      np.where(_BINARY_OPS[live[:, 0]], live[:, 2], -1)], axis=1)
    n_steps = np.bincount(owner, minlength=P)
    reads = read[:, config.n_inputs:base]
    c_owner, c_slot = np.nonzero(reads)
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
    return Wave(config, genes, outputs, constants, steps, n_steps, reads.copy(), keys)


def stack(genomes: Sequence[Genotype]) -> Wave:
    """The wave of genomes made one at a time (planted, loaded, hand-built)."""
    cfg = genomes[0].config
    if any(g.config != cfg for g in genomes):
        raise ValueError("genomes of one wave must share a config")
    return phenotypes(cfg, np.stack([g.function_genes for g in genomes]),
                      np.stack([g.output_genes for g in genomes]),
                      np.stack([g.constants for g in genomes]))


def mutate_many(g: Genotype, n: int, per_gene_prob: float,
                rng: np.random.Generator) -> Wave:
    """The next wave of one genome: n point-mutated copies, then g itself,
    unmutated, as row n, in one (n + 1, n_nodes, 3) gene tensor.

    Each function and input gene of each copy is resampled with the given
    probability, uniformly from its valid value set (so the observable
    change rate is p * (1 - 1/k) for k valid values).  Output genes are
    never changed.  Each constant gets a Gaussian nudge (sigma
    ``CONST_SIGMA``) with probability p and is redrawn uniformly in
    [-1, 1] with probability ``CONST_REDRAW`` * p.  The number of
    RNG calls does not depend on n, and the original genome is untouched.

    One uniform per gene of the n copies is drawn in (copy, node, slot)
    order; then each slot's hits, copy after copy, are found by one
    ``np.flatnonzero`` and given their new values by one draw and one
    write through the flat gene tensor: hit i is node i % n_nodes, at flat
    index 3 * i + slot.
    """
    if not 0.0 <= per_gene_prob <= 1.0:
        raise ValueError("per_gene_prob must be in [0, 1]")
    cfg = g.config
    genes = np.repeat(g.function_genes[None], n + 1, axis=0)
    flat = genes.reshape(-1)
    mask = rng.random((n, cfg.n_nodes, 3)) < per_gene_prob
    mask = np.ascontiguousarray(mask.reshape(-1, 3).T)    # (3, n * n_nodes)

    hit = np.flatnonzero(mask[0])
    flat[3 * hit] = rng.integers(0, len(FUNCTION_SET), len(hit))

    for slot in (1, 2):
        hit = np.flatnonzero(mask[slot])
        flat[3 * hit + slot] = _draw_sources(cfg, hit % cfg.n_nodes, rng)

    constants = np.repeat(g.constants[None], n + 1, axis=0)
    if cfg.n_constants:
        mutants = constants[:n]
        nudge = rng.random(mutants.shape) < per_gene_prob
        mutants[nudge] += rng.normal(0.0, CONST_SIGMA, int(nudge.sum()))
        redraw = rng.random(mutants.shape) < CONST_REDRAW * per_gene_prob
        mutants[redraw] = rng.uniform(-1.0, 1.0, int(redraw.sum()))

    return phenotypes(cfg, genes,
                      np.broadcast_to(g.output_genes, (n + 1, cfg.n_outputs)), constants)


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
        for slot in range(1, 1 + _ARITY[int(g.function_genes[j, 0])]):
            src = int(g.function_genes[j, slot])
            if src >= base:
                stack.append(src - base)
    return active


def evaluate_many(genomes: Wave | Sequence[Genotype], inputs: np.ndarray,
                  out: np.ndarray | None = None, rows=None) -> np.ndarray:
    """Evaluate genomes on one input, by opcode: a wave, or a list of
    genomes (stacked).

    ``rows`` lists the wave's genomes to evaluate, in any order (default
    all).  They are read in place, from the wave's steps, outputs,
    constants and the constants each reads; no gene tensor is copied.
    Returns (len(rows) * n_outputs, n): row d * n_outputs + j is output j
    of listed genome d (written into ``out`` when given).
    Each input column, each constant a genome reads and each active step
    has a row in one value buffer of at most ``EVAL_BLOCK`` elements (or
    of one genome's rows, when a single genome needs more), so a call runs
    as one block unless n is large; then successive blocks of whole genomes
    reuse the buffer.  A block's steps are sorted by (column, opcode); a
    node reads only earlier columns, so each group runs as one call of its
    op on the (k, n) slabs of its operands, gathered ``EVAL_SLAB // n`` rows
    at a time, and writes its own rows; a one-row slab is read in place.
    Ops are elementwise, so every row equals what evaluating its genome
    alone gives, bit for bit.  Non-finite values propagate; callers flag
    them with ``np.isfinite``.
    """
    wave = genomes if isinstance(genomes, Wave) else stack(genomes)
    cfg = wave.config
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] != cfg.n_inputs:
        raise DimensionMismatch(
            f"expected {cfg.n_inputs} input columns, got shape {inputs.shape}")
    n_steps, steps, outputs, constants, reads = (
        wave.n_steps, wave.steps, wave.outputs, wave.constants, wave.reads)
    if rows is not None:
        rows = np.asarray(rows, dtype=np.intp)
        if rows.size and not 0 <= rows.min() <= rows.max() < len(wave):
            raise IndexError(f"rows out of range for {len(wave)} genomes")
        steps = steps[_step_index(n_steps, rows)]
        n_steps, outputs, constants, reads = (
            part[rows] for part in (n_steps, outputs, constants, reads))
    D, (n, n_in), n_out = len(n_steps), inputs.shape, cfg.n_outputs
    base = cfg.n_sources_before_nodes
    if out is None:
        out = np.empty((D * n_out, n))

    # blocks of whole genomes whose constants and steps fit beside the
    # inputs: one when they all do, else as few as the budget allows, filled
    # evenly (every block but the last holds more than its share, so no
    # more blocks are made).  A block's rows are the inputs, its constants,
    # then its steps sorted by (column, opcode), so that each group of
    # steps writes consecutive rows.
    node, code, a, b = steps.T
    owner = np.repeat(np.arange(D), n_steps)
    c_owner, c_slot = np.nonzero(reads)
    C, S = len(c_owner), len(steps)
    key = node // cfg.n_rows * len(FUNCTION_SET) + code
    room = max(EVAL_BLOCK // max(n, 1) - n_in, cfg.n_constants + cfg.n_nodes)
    cuts, c_first, s_first = [0, D], np.array([0, C]), np.array([0, S])
    if C + S > room:
        ends = np.concatenate([[0], np.cumsum(n_steps + np.count_nonzero(reads, axis=1))])
        share = -(-(C + S) // -(-(C + S) // room))
        room = min(room, share + int(np.diff(ends).max()))
        cuts = [0]
        while cuts[-1] < D:
            cuts.append(int(np.searchsorted(ends, ends[cuts[-1]] + room, "right")) - 1)
        block = np.repeat(np.arange(len(cuts) - 1), np.diff(cuts))
        c_first, s_first = (np.searchsorted(block[of], np.arange(len(cuts)))
                            for of in (c_owner, owner))
        key += block[owner] * (cfg.n_cols * len(FUNCTION_SET))   # sorted within blocks
    c_count, s_count = np.diff(c_first), np.diff(s_first)
    order = np.argsort(key, kind="stable")
    key = key[order]
    # the extra last column takes the second input gene (-1) of arity-1 steps
    row_of = np.zeros((D, cfg.n_sources + 1), dtype=np.intp)
    row_of[:, :n_in] = np.arange(n_in)
    row_of[c_owner, n_in + c_slot] = (n_in + np.arange(C)
                                      - np.repeat(c_first[:-1], c_count))
    s_row = n_in + np.arange(S) + np.repeat(c_count - s_first[:-1], s_count)
    row_of[owner[order], base + node[order]] = s_row
    operands = (row_of[owner, a][order], row_of[owner, b][order])
    out_rows = row_of[np.arange(D)[:, None], outputs].reshape(-1)

    # slabs: runs of at most `height` steps of one group
    height = max(1, EVAL_SLAB // max(n, 1))
    at = np.arange(S)
    new_group = np.ones(S, dtype=bool)
    new_group[1:] = key[1:] != key[:-1]
    offset = at - np.maximum.accumulate(np.where(new_group, at, 0))
    lo = np.flatnonzero(offset % height == 0)
    slab_first = np.searchsorted(lo, s_first).tolist()
    slab_ops = (s_row[lo].tolist(), lo.tolist(), np.append(lo[1:], S).tolist(),
                code[order][lo].tolist())
    slabs = np.empty((2, min(height, int(offset.max(initial=0)) + 1), n))
    buf = np.empty((n_in + int((c_count + s_count).max(initial=0)), n))
    buf[:n_in] = inputs.T
    c_value = constants[c_owner, c_slot, None]
    with np.errstate(all="ignore"):
        for i, (g_lo, g_hi) in enumerate(zip(cuts, cuts[1:])):
            buf[n_in:n_in + c_count[i]] = c_value[c_first[i]:c_first[i + 1]]
            for dest, s, e, op in zip(*(part[slab_first[i]:slab_first[i + 1]]
                                        for part in slab_ops)):
                if e - s == 1:
                    args = [buf[rows[s]] for rows in operands[:_ARITY[op]]]
                    _FNS[op](*args, out=buf[dest])
                else:
                    args = [buf.take(rows[s:e], axis=0, out=slab[:e - s], mode="clip")
                            for rows, slab in zip(operands[:_ARITY[op]], slabs)]
                    _FNS[op](*args, out=buf[dest:dest + e - s])
            buf.take(out_rows[g_lo * n_out:g_hi * n_out], axis=0,
                     out=out[g_lo * n_out:g_hi * n_out], mode="clip")
    return out


def evaluate_genotype(g: Genotype, inputs: np.ndarray) -> list[np.ndarray]:
    """One genome's ``evaluate_many``, from the wave it was taken from when it
    has one: one vector per output gene."""
    return list(evaluate_many([g] if g.wave is None else g.wave, inputs))


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
            op = FUNCTION_SET[code]
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
        if node.op.arity == 2:
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
            "levels_back": g.config.n_cols,   # every earlier column
            "n_outputs": g.config.n_outputs,
        },
        "function_genes": [int(x) for x in g.function_genes.reshape(-1)],
        "output_genes": [int(x) for x in g.output_genes],
        "constants": [float(x) for x in g.constants],
    }


def genotype_from_dict(d: dict) -> Genotype:
    """The genome of a ``genotype_to_dict`` record.  Its ``levels_back``,
    if given, must be an int in 1..n_cols: a genome drawn within a
    narrower window reads only sources that any node may read."""
    try:
        config = dict(d["config"])
        levels_back = config.pop("levels_back", 1)   # absent: nothing to check
        cfg = CgpConfig(**config)
        if type(levels_back) is not int or not 1 <= levels_back <= cfg.n_cols:
            raise ValueError(f"levels_back must be an integer in 1..n_cols "
                             f"({cfg.n_cols}), not {levels_back!r}")
        genes, outputs = d["function_genes"], d["output_genes"]
        if not all(type(x) is int for x in [*genes, *outputs]):
            raise ValueError("function and output genes must be integers")
        genes = np.array(genes, dtype=np.int64).reshape(cfg.n_nodes, 3)
        outputs = np.array(outputs, dtype=np.int64)
        constants = json_floats(d["constants"], "constants")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"bad genotype record: {exc}") from exc
    g = Genotype(cfg, genes, outputs, constants)
    try:
        validate_genotype(g)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    return g


def genotype_to_json(g: Genotype) -> str:
    return json.dumps(genotype_to_dict(g), indent=2)


def genotype_from_json(text: str) -> Genotype:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"bad genotype JSON: {exc}") from exc
    return genotype_from_dict(d)
