"""Span tracer that wraps netexpr's layer entry points from outside.

The tracer replaces module attributes (``evolve.fit_affine``,
``cgp.mutate``, ...) with timing wrappers for the length of one CLI
stage and puts the originals back afterwards, so no source file changes
and untraced runs pay nothing.  Spans are kept in memory as
``(name, start, end, parent)`` tuples and reduced once the traced
explain and eval have finished.

Work counters are taken in hooks that run after a wrapped call returns.
A hook's own cost is recorded as a ``trace.bookkeeping`` span under the
caller, and is left out of every layer's self and inclusive time.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from netexpr import affine, benchmarks, boundary, cgp, evolve, mlp

BOOKKEEPING = "trace.bookkeeping"

# (module, attribute) pairs called through by the layers; the span name
# is "<module short name>.<attribute>".
WRAPPED = [
    (evolve, "select_layerwise_best"),
    (evolve, "chromosome_scalar"),
    (evolve, "fit_affine"),
    (evolve, "apply_affine"),
    (evolve, "score_values"),
    (evolve, "mutate_net"),
    (cgp, "evaluate_genotype"),
    (cgp, "mutate"),
    (affine, "fit_affine_newton"),
    (affine, "fit_affine_lbfgs"),
    (mlp, "train"),
    (mlp, "forward_trace"),
    (boundary, "sample_near_boundary"),
    (benchmarks, "generate"),
]

# counted but not timed: one call per optimizer step, far too many for spans
COUNTED = [(mlp, "_gradients", "mlp.train_steps")]


def span_name(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


def phenotype_key(g: cgp.Genotype) -> tuple:
    """Active subgraph plus the constants it reads, as a hashable key."""
    cfg = g.config
    genes = g.function_genes
    used = {int(s) for s in g.output_genes}
    nodes = []
    for j in sorted(cgp.active_nodes(g)):
        code = int(genes[j, 0])
        arity = g.fset[code].arity
        srcs = tuple(int(s) for s in genes[j, 1:1 + arity])
        used.update(srcs)
        nodes.append((j, code) + srcs)
    consts = tuple((s, float(g.constants[s - cfg.n_inputs])) for s in sorted(used)
                   if cfg.n_inputs <= s < cfg.n_sources_before_nodes)
    return tuple(int(s) for s in g.output_genes), tuple(nodes), consts


class StageTrace:
    """Spans and hook counters of one traced CLI stage."""

    def __init__(self, name: str):
        self.name = name
        self.spans: list = []
        self.counts: dict[str, int] = {}
        # explain-stage counters, filled by the hooks below
        self.evaluations = 0
        self.active_nodes = 0
        self.nonfinite = 0
        self.duplicates = 0
        self.fits = 0
        self.unconverged = 0
        self.degenerate = 0
        self.lbfgs_iters = 0
        self.scores = 0
        self.penalties = 0
        self.boundary_kept = 0
        self.boundary_pool = 0
        self.generation = 0
        self.position_s: dict[int, float] = {}
        self._seen: set = set()
        self._group = None
        self._marks: list[tuple[float, int]] = []

    # --- hooks: (args, kwargs, result, start, end) -------------------------

    def _on_scalar(self, args, kwargs, f, t0, t1):
        c = args[0]
        pos = c.layer_index
        if not self._marks or self._marks[-1][1] != pos:
            self._marks.append((t0, pos))
        group = (self.generation, pos)
        if group != self._group:
            self._group, self._seen = group, set()
        key = phenotype_key(c.genotype)
        self.duplicates += key in self._seen
        self._seen.add(key)
        self.evaluations += 1
        self.active_nodes += len(key[1])
        self.nonfinite += not bool(np.isfinite(f).all())

    def _on_select(self, args, kwargs, result, t0, t1):
        marks = self._marks
        for k, (start, pos) in enumerate(marks):
            begin = t0 if k == 0 else start
            end = marks[k + 1][0] if k + 1 < len(marks) else t1
            self.position_s[pos] = self.position_s.get(pos, 0.0) + end - begin
        self._marks = []
        self.generation += 1

    def _on_fit(self, args, kwargs, result, t0, t1):
        self.fits += 1
        self.unconverged += not result.converged
        self.degenerate += bool(result.degenerate)

    def _on_lbfgs(self, args, kwargs, result, t0, t1):
        self.lbfgs_iters += result.iterations

    def _on_score(self, args, kwargs, loss, t0, t1):
        self.scores += 1
        self.penalties += loss == evolve.OVERFLOW_PENALTY

    def _on_boundary(self, args, kwargs, sample, t0, t1):
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        self.boundary_kept += sample.x.shape[0]
        self.boundary_pool += cfg.pool_size

    def hooks(self) -> dict:
        return {
            "evolve.chromosome_scalar": self._on_scalar,
            "evolve.select_layerwise_best": self._on_select,
            "evolve.fit_affine": self._on_fit,
            "affine.fit_affine_lbfgs": self._on_lbfgs,
            "evolve.score_values": self._on_score,
            "boundary.sample_near_boundary": self._on_boundary,
        }

    # --- reduction ----------------------------------------------------------

    def duration(self) -> float:
        _, t0, t1, _ = self.spans[0]
        return t1 - t0

    def reduce(self) -> dict[str, list[float]]:
        """name -> [calls, inclusive seconds, self seconds].  Inclusive time
        leaves out the bookkeeping spans below a span."""
        spans = self.spans
        child = [0.0] * len(spans)
        bookkeeping = [0.0] * len(spans)
        # a child is appended after its parent, so walk children first
        for i in range(len(spans) - 1, 0, -1):
            name, t0, t1, parent = spans[i]
            child[parent] += t1 - t0
            if name == BOOKKEEPING:
                bookkeeping[i] = t1 - t0
            bookkeeping[parent] += bookkeeping[i]
        out: dict[str, list[float]] = {}
        for i, (name, t0, t1, _) in enumerate(spans):
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += t1 - t0 - (bookkeeping[i] if name != BOOKKEEPING else 0.0)
            acc[2] += t1 - t0 - child[i]
        return out


class Tracer:
    """Installs the wrappers for one stage at a time."""

    def __init__(self):
        self.stages: list[StageTrace] = []

    @contextmanager
    def stage(self, name: str):
        st = StageTrace(name)
        spans = st.spans
        stack = [0]
        hooks = st.hooks()
        originals = []

        def wrap(module, attr):
            # a renamed entry point is left unwrapped; its time then shows
            # up as the stage's unattributed self time
            original = getattr(module, attr, None)
            if original is None:
                return
            label = span_name(module, attr)
            hook = hooks.get(label)

            def traced(*args, **kwargs):
                parent = stack[-1]
                idx = len(spans)
                spans.append(None)
                stack.append(idx)
                t0 = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    spans[idx] = (label, t0, t1, parent)
                if hook is not None:
                    hook(args, kwargs, result, t0, t1)
                    spans.append((BOOKKEEPING, t1, perf_counter(), parent))
                return result

            originals.append((module, attr, original))
            setattr(module, attr, traced)

        def count(module, attr, key):
            original = getattr(module, attr, None)
            if original is None:
                return

            def counted(*args, **kwargs):
                st.counts[key] = st.counts.get(key, 0) + 1
                return original(*args, **kwargs)

            originals.append((module, attr, original))
            setattr(module, attr, counted)

        for module, attr in WRAPPED:
            wrap(module, attr)
        for module, attr, key in COUNTED:
            count(module, attr, key)
        spans.append(None)
        t0 = perf_counter()
        try:
            yield st
        finally:
            spans[0] = (name, t0, perf_counter(), -1)
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)
            self.stages.append(st)


SETUP_STAGES = ("cli.train", "cli.sample_boundary")

# Each explain-stage span is covered by exactly one of these metrics: its
# self time, or its inclusive time when none of its children is listed.  So
# they add up to cli.explain_s, and a span that is new to the explain stage
# or nested differently breaks the sum.
EXPLAIN_PARTS = [
    "cli.self_s", "trace.bookkeeping_s", "evolve.self_s",
    "surrogate.scalar_self_s", "cgp.evaluate_s", "affine.fit_s",
    "surrogate.apply_affine_s", "evolve.score_s", "surrogate.mutate_net_self_s",
    "cgp.mutate_s", "mlp.forward_trace_explain_s", "benchmarks.generate_explain_s",
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stages: list[StageTrace], n_positions: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pipeline, plus consistency checks.

    Explain-stage metrics (cgp, surrogate, affine, evolve, and the
    ``*_explain_s`` ones) are taken from the ``cli.explain`` stage; the
    other mlp, boundary and benchmarks metrics from the set-up stages
    (``train`` and ``sample-boundary``).
    """
    by_stage = {st.name: st for st in stages}
    reduced = {st.name: st.reduce() for st in stages}
    ex_st = by_stage["cli.explain"]
    ex = reduced["cli.explain"]
    setup = [st for st in stages if st.name in SETUP_STAGES]

    def e(name, field):
        return ex.get(name, [0, 0.0, 0.0])[field]

    def total(name, field):
        return sum(reduced[st.name].get(name, [0, 0.0, 0.0])[field] for st in setup)

    def stage_s(name):
        return by_stage[name].duration() if name in by_stage else 0.0

    m = {
        "cgp.evaluate_s": e("cgp.evaluate_genotype", 1),
        "cgp.evaluate_calls": e("cgp.evaluate_genotype", 0),
        "cgp.mutate_s": e("cgp.mutate", 1),
        "cgp.mutate_calls": e("cgp.mutate", 0),
        "cgp.active_nodes_mean": _ratio(ex_st.active_nodes, ex_st.evaluations),
        "cgp.nonfinite_ratio": _ratio(ex_st.nonfinite, ex_st.evaluations),
        "cgp.duplicate_ratio": _ratio(ex_st.duplicates, ex_st.evaluations),
        "surrogate.scalar_self_s": e("evolve.chromosome_scalar", 2),
        "surrogate.apply_affine_s": e("evolve.apply_affine", 1),
        "surrogate.mutate_net_self_s": e("evolve.mutate_net", 2),
        "affine.fit_s": e("evolve.fit_affine", 1),
        "affine.fit_calls": e("evolve.fit_affine", 0),
        "affine.newton_s": e("affine.fit_affine_newton", 1),
        "affine.newton_calls": e("affine.fit_affine_newton", 0),
        "affine.lbfgs_s": e("affine.fit_affine_lbfgs", 1),
        "affine.lbfgs_calls": e("affine.fit_affine_lbfgs", 0),
        "affine.lbfgs_iters_mean": _ratio(ex_st.lbfgs_iters,
                                          e("affine.fit_affine_lbfgs", 0)),
        "affine.unconverged_ratio": _ratio(ex_st.unconverged, ex_st.fits),
        "affine.degenerate_ratio": _ratio(ex_st.degenerate, ex_st.fits),
        "evolve.select_s": e("evolve.select_layerwise_best", 1),
        "evolve.self_s": e("evolve.select_layerwise_best", 2),
        "evolve.score_s": e("evolve.score_values", 1),
        "evolve.penalty_ratio": _ratio(ex_st.penalties, ex_st.scores),
        "mlp.train_s": total("mlp.train", 1),
        "mlp.train_steps": sum(st.counts.get("mlp.train_steps", 0) for st in setup),
        "mlp.forward_trace_s": total("mlp.forward_trace", 1),
        "mlp.forward_trace_explain_s": e("mlp.forward_trace", 1),
        "boundary.sample_s": total("boundary.sample_near_boundary", 1),
        "boundary.keep_ratio": _ratio(
            sum(st.boundary_kept for st in setup),
            sum(st.boundary_pool for st in setup)),
        "benchmarks.generate_s": total("benchmarks.generate", 1),
        "benchmarks.generate_explain_s": e("benchmarks.generate", 1),
        "cli.train_s": stage_s("cli.train"),
        "cli.sample_boundary_s": stage_s("cli.sample_boundary"),
        "cli.explain_s": stage_s("cli.explain"),
        "cli.eval_s": stage_s("cli.eval"),
        "cli.self_s": e("cli.explain", 2),
        "trace.bookkeeping_s": e(BOOKKEEPING, 1),
    }
    for pos in range(n_positions):
        m[f"evolve.pos{pos}_s"] = ex_st.position_s.get(pos, 0.0)

    check = {"sums": math.isclose(sum(m[k] for k in EXPLAIN_PARTS),
                                  m["cli.explain_s"], rel_tol=1e-9),
             "positions": len(ex_st.position_s) == n_positions}
    return m, check


# counters that must repeat exactly for a fixed seed
COUNTERS = [
    "cgp.evaluate_calls", "cgp.mutate_calls", "cgp.active_nodes_mean",
    "cgp.nonfinite_ratio", "cgp.duplicate_ratio", "affine.fit_calls",
    "affine.newton_calls", "affine.lbfgs_calls", "affine.lbfgs_iters_mean",
    "affine.unconverged_ratio", "affine.degenerate_ratio",
    "evolve.penalty_ratio", "evolve.best_total", "mlp.train_steps",
    "boundary.keep_ratio",
]
