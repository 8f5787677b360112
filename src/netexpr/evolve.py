"""(1+lambda) evolution of whole-network genotypes.

Each generation scores every individual's chromosome position by
position: the best chromosome at position i (affine-fitted against the
traced layer output, fed with the already-chosen prefix's output) joins a
composite parent, which is then mutated into the next wave of offspring.

Total fitness is the mean of the hidden-layer MSEs plus the output-layer
loss (MSE for regression, soft-target cross-entropy for classification).
A layer whose surrogate values are not finite scores a flat 1e12 penalty
so broken expressions stay totally ordered and are never selected.

At one position every individual reads the same input, so the population
is scored as a matrix: individuals whose chromosomes share a phenotype key
(``cgp.phenotype_keys``) share one evaluation, one affine fit and one
loss, and all losses come from one batched pass (``score_rows``) that
equals ``score_values`` bit for bit.  Selection, and so the convergence
log, is the same as scoring every individual on its own.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence, TextIO

import numpy as np

from . import cgp
from .affine import (CROSS_ENTROPY, LBFGS_MAX_ITERS, MSE, AffineParams,
                     fit_affine_ce_rows, fit_affine_mse_rows, log_softmax)
from .errors import DimensionMismatch
from .mlp import LayerTrace
from .surrogate import (LayerChromosome, NetGenotype, apply_affine,
                        chromosome_scalar, genotype_forward, mutate_net,
                        random_net_genotype)

REGRESSION = "regression"
CLASSIFICATION = "classification"

OVERFLOW_PENALTY = 1e12
SCORE_BLOCK = 1 << 15    # predictions per block of the batched loss pass


@dataclass
class EvolveConfig:
    """Knobs for the evolution loop; defaults follow the benchmark setup."""
    n_offspring: int = 200
    max_generations: int = 5000
    mutation_prob: float = 0.4
    fitness_target: float = 1e-4
    affine_refit_every: int = 1     # classification runs typically use 50
    seed: int = 0
    n_rows: int = 10
    n_cols: int = 10
    n_constants: int = 1
    # caps the Newton iterations of each cross-entropy fit; the name predates
    # the Newton fitter and is kept for existing callers
    lbfgs_max_iters: int = LBFGS_MAX_ITERS

    def __post_init__(self):
        if self.n_offspring < 1:
            raise ValueError("n_offspring must be >= 1")
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError("mutation_prob must be in [0, 1]")
        if self.fitness_target <= 0:
            raise ValueError("fitness_target must be > 0")
        if self.affine_refit_every < 1:
            raise ValueError("affine_refit_every must be >= 1")
        cgp.CgpConfig(n_inputs=1, n_rows=self.n_rows, n_cols=self.n_cols,
                      n_constants=self.n_constants)


@dataclass(frozen=True)
class FitnessReport:
    per_layer_mse: tuple[float, ...]   # hidden layers only
    output_loss: float
    total: float


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    best_total: float        # best-so-far, non-increasing
    mean_total: float
    layer_mses: tuple[float, ...]
    output_loss: float
    elapsed_ms: float


@dataclass
class ConvergenceLog:
    n_hidden: int
    records: list[GenerationRecord] = field(default_factory=list)

    def header(self, include_timing: bool = True) -> str:
        cols = ["generation", "best_total", "mean_total"]
        cols += [f"layer{i}_mse" for i in range(self.n_hidden)]
        cols += ["output_loss"]
        if include_timing:
            cols += ["elapsed_ms"]
        return ",".join(cols)

    def row(self, rec: GenerationRecord, include_timing: bool = True) -> str:
        cells = [str(rec.generation), repr(rec.best_total), repr(rec.mean_total)]
        cells += [repr(v) for v in rec.layer_mses]
        cells += [repr(rec.output_loss)]
        if include_timing:
            cells += [repr(rec.elapsed_ms)]
        return ",".join(cells)

    def to_csv(self, stream: TextIO, include_timing: bool = True) -> None:
        stream.write(self.header(include_timing) + "\n")
        for rec in self.records:
            stream.write(self.row(rec, include_timing) + "\n")

    @property
    def best_series(self) -> list[float]:
        return [r.best_total for r in self.records]


def _check_task(task: str) -> None:
    if task not in (REGRESSION, CLASSIFICATION):
        raise ValueError(f"unknown task {task!r}")


def score_values(pred: np.ndarray, target: np.ndarray, kind: str) -> float:
    """Layer loss: mean over samples and neurons, or soft-target CE.

    Non-finite predictions score the flat overflow penalty.
    """
    if not np.all(np.isfinite(pred)):
        return OVERFLOW_PENALTY
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == MSE:
            d = pred - target
            loss = float((d * d).mean())
        else:
            loss = float(-(target * log_softmax(pred)).sum() / pred.shape[0])
    return loss if math.isfinite(loss) else OVERFLOW_PENALTY


def _position_targets(trace: LayerTrace, task: str):
    """(target, loss kind) per chromosome position; output layer last."""
    out = [(np.asarray(h, dtype=float), MSE) for h in trace.h]
    out_kind = CROSS_ENTROPY if task == CLASSIFICATION else MSE
    out.append((np.asarray(trace.y, dtype=float), out_kind))
    return out


def fitness(g: NetGenotype, trace: LayerTrace, task: str) -> FitnessReport:
    """Score a genotype as-is (no affine refitting)."""
    _check_task(task)
    if g.widths != trace.widths:
        raise DimensionMismatch(
            f"genotype widths {g.widths} do not match trace widths {trace.widths}")
    targets = _position_targets(trace, task)
    outs = genotype_forward(g, trace.x)
    losses = [score_values(o.h_values, t, kind)
              for o, (t, kind) in zip(outs, targets)]
    hidden = tuple(losses[:-1])
    total = (sum(hidden) / len(hidden) if hidden else 0.0) + losses[-1]
    return FitnessReport(hidden, losses[-1], total)


def score_rows(F: np.ndarray, W: np.ndarray, B: np.ndarray, target: np.ndarray,
               kind: str) -> np.ndarray:
    """``score_values(apply_affine(F[i], (W[i], B[i])), target, kind)`` for
    every row i of F (R, n), bit for bit.

    Each row's predictions are flattened to one (n * width) row and
    reduced along it, as ``score_values`` reduces its whole array; no BLAS
    product or running statistics.  Rows are taken in blocks of at most
    SCORE_BLOCK predictions, so the temporaries stay small.
    """
    R, n = F.shape
    width = target.shape[1]
    losses = np.empty(R)
    step = max(1, SCORE_BLOCK // (n * width))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, R, step):
            block = slice(lo, lo + step)
            # one buffer, updated in place: predictions, then the summands
            x = F[block, :, None] * W[block, None, :]
            x += B[block, None, :]
            flat = x.reshape(x.shape[0], -1)
            finite = np.isfinite(flat).all(axis=1)
            if kind == MSE:
                x -= target
                x *= x
                loss = flat.sum(axis=1) / (n * width)
            else:
                x -= x.max(axis=2, keepdims=True)
                x -= np.log(np.exp(x).sum(axis=2, keepdims=True))
                x *= target
                loss = -flat.sum(axis=1) / n
            loss[~(finite & np.isfinite(loss))] = OVERFLOW_PENALTY
            losses[block] = loss
    return losses


def _distinct(keys) -> tuple[np.ndarray, np.ndarray]:
    """Where each distinct key first occurs, and the distinct slot of every key."""
    slot: dict = {}
    row_of = np.array([slot.setdefault(key, len(slot)) for key in keys], dtype=np.intp)
    return np.unique(row_of, return_index=True)[1], row_of


def select_layerwise_best(population: Sequence[NetGenotype], trace: LayerTrace,
                          task: str, refit: bool = True,
                          lbfgs_max_iters: int = LBFGS_MAX_ITERS):
    """Assemble the per-position best chromosomes into one composite parent.

    Positions are scanned in order.  At position i every individual sees
    the already-selected prefix's output, so individuals with equal
    phenotype keys (``cgp.phenotype_keys``) have equal scalar outputs:
    each distinct key is evaluated once and its row of F stands for all
    of them.  Without ``refit`` a row stands only for individuals that
    also share one affine object, whose params it is scored with.  With
    ``refit`` the distinct rows are refitted by one batched call (closed
    form for MSE, Newton for cross-entropy, ``lbfgs_max_iters`` capping
    its steps).  Either way duplicates share one loss, scored once.
    Losses come from ``score_rows``, equal to what ``fitness`` gives, so
    rows that are not all finite score the overflow penalty (the fitters
    mark them degenerate).  Only the chosen individual gets a refitted
    chromosome, unless its row is not finite: then it keeps its affine.
    Its values are fed on unchanged.
    Ties go to the lowest population index.  Returns the composite
    genotype and the (n_individuals, n_positions) loss matrix.
    """
    _check_task(task)
    if not population:
        raise ValueError("population must be non-empty")
    targets = _position_targets(trace, task)
    loss_matrix = np.empty((len(population), len(targets)))
    chosen: list[LayerChromosome] = []
    current = np.asarray(trace.x, dtype=float)
    for pos, (target, kind) in enumerate(targets):
        chroms = [indiv.chromosomes[pos] for indiv in population]
        keys = cgp.phenotype_keys([c.genotype for c in chroms])
        if not refit:
            # individuals score alike only with the same affine too; in
            # ``evolve`` every offspring shares its parent's
            keys = [(key, id(c.affine)) for key, c in zip(keys, chroms)]
        firsts, row_of = _distinct(keys)
        F = np.stack([chromosome_scalar(chroms[i], current) for i in firsts])
        # one loss (and with refit one fit) per distinct row, shared by its
        # duplicates
        if not refit:
            W = np.stack([chroms[i].affine.w for i in firsts])
            B = np.stack([chroms[i].affine.b for i in firsts])
        elif kind == MSE:
            W, B, _ = fit_affine_mse_rows(F, target)
        else:
            W, B, *_ = fit_affine_ce_rows(F, target, lbfgs_max_iters)
        losses = score_rows(F, W, B, target, kind)[row_of]
        best = int(np.argmin(losses))     # first minimum: lowest-index tie-break
        k = row_of[best]
        choice = chroms[best]
        if refit and np.isfinite(F[k]).all():
            choice = choice.with_affine(AffineParams(W[k].copy(), B[k].copy()))
        loss_matrix[:, pos] = losses
        chosen.append(choice)
        current = apply_affine(F[k], choice.affine)
    return NetGenotype(tuple(chosen)), loss_matrix


def _combine(loss_matrix: np.ndarray) -> np.ndarray:
    """Per-individual totals: mean of hidden-position losses plus output loss."""
    if loss_matrix.shape[1] == 1:
        return loss_matrix[:, 0].copy()
    return loss_matrix[:, :-1].mean(axis=1) + loss_matrix[:, -1]


def evolve(trace: LayerTrace, task: str, cfg: EvolveConfig,
           fset: cgp.FunctionSet | None = None,
           initial: Sequence[NetGenotype] | None = None,
           log_stream: TextIO | None = None,
           include_timing: bool = True,
           verify_fitness: bool = False):
    """Run the evolution loop; returns (best genotype, convergence log).

    The loop stops once the best-so-far total fitness reaches
    ``cfg.fitness_target`` or ``cfg.max_generations`` is hit.  Fully
    reproducible from ``cfg.seed``.  ``initial`` individuals replace the
    front of the random starting population.  With ``verify_fitness``
    every logged generation re-scores the parent through the plain fitness
    path and asserts agreement.
    """
    _check_task(task)
    fset = fset or cgp.default_function_set()
    widths = trace.widths
    n_inputs = trace.x.shape[1]
    rng = np.random.default_rng(cfg.seed)

    population: list[NetGenotype] = [
        random_net_genotype(n_inputs, widths, fset, rng, n_rows=cfg.n_rows,
                            n_cols=cfg.n_cols, n_constants=cfg.n_constants)
        for _ in range(cfg.n_offspring)]
    if initial:
        for i, indiv in enumerate(initial[:len(population)]):
            if indiv.widths != widths:
                raise DimensionMismatch(
                    f"planted individual {i} widths {indiv.widths} != {widths}")
            population[i] = indiv

    log = ConvergenceLog(n_hidden=len(widths) - 1)
    if log_stream is not None:
        log_stream.write(log.header(include_timing) + "\n")

    best_geno: NetGenotype | None = None
    best_total = math.inf
    start = time.perf_counter()
    for gen in range(cfg.max_generations):
        refit = gen % cfg.affine_refit_every == 0
        parent, loss_matrix = select_layerwise_best(
            population, trace, task, refit=refit,
            lbfgs_max_iters=cfg.lbfgs_max_iters)
        per_pos = loss_matrix.min(axis=0)
        hidden = tuple(float(v) for v in per_pos[:-1])
        output_loss = float(per_pos[-1])
        parent_total = (sum(hidden) / len(hidden) if hidden else 0.0) + output_loss
        if verify_fitness:
            recomputed = fitness(parent, trace, task).total
            if not math.isclose(recomputed, parent_total,
                                rel_tol=1e-9, abs_tol=1e-12):
                raise AssertionError(
                    f"fitness decomposition mismatch at generation {gen}: "
                    f"{recomputed} vs {parent_total}")
        if parent_total <= best_total:       # ties drift to the newer parent
            best_geno, best_total = parent, parent_total
        rec = GenerationRecord(
            generation=gen,
            best_total=best_total,
            mean_total=float(_combine(loss_matrix).mean()),
            layer_mses=hidden,
            output_loss=output_loss,
            elapsed_ms=(time.perf_counter() - start) * 1000.0,
        )
        log.records.append(rec)
        if log_stream is not None:
            log_stream.write(log.row(rec, include_timing) + "\n")
            log_stream.flush()
        if best_total <= cfg.fitness_target or gen + 1 == cfg.max_generations:
            break
        # let the scored population go before the next wave is made, so the
        # two (and their cached phenotypes) are never alive at once
        del population
        population = mutate_net(parent, cfg.mutation_prob, rng,
                                cfg.n_offspring) + [parent]
    return best_geno, log
