"""(1+lambda) evolution of whole-network genotypes.

Each generation scores every individual's chromosome position by
position: the best chromosome at position i (affine-fitted against the
traced layer output, fed with the already-chosen prefix's output) joins a
composite parent, which is then mutated into the next wave of offspring,
the parent itself riding as its last row.

Total fitness is the mean of the hidden-layer MSEs plus the output-layer
loss (MSE for regression, soft-target cross-entropy for classification).
A layer whose surrogate values are not finite scores a flat 1e12 penalty
so broken expressions stay totally ordered and are never selected.

At one position every individual reads the same input, so the population
(``surrogate.Population``, waves by position) is scored as a matrix:
individuals whose genomes share a phenotype key share one evaluation,
one affine fit and one loss.  A refitted row's loss comes from its fit;
the rows its fit cannot vouch for, and those whose fitted loss comes
near the smallest, are scored by one batched pass (``score_rows``), as
every row is when the affines are kept.  ``fitness`` scores through the
same loss rule on one matrix (``score_values``), so the chosen parent,
each position's smallest loss, and so the convergence log but for its
``mean_total``, are the same as scoring every individual on its own, bit
for bit.

Predictions are scored neuron-major, (rows, width, n): the residual,
the class max, ``exp`` and the log-sum-exp run along the samples, and one
transposing copy puts each block back in sample-major order for the flat
row sum.  The class sum keeps numpy's own order, so losses are the same
bits as a sample-major pass: a reduce over the class axis below
PAIRWISE_SUM_MIN classes, the sample-major last-axis sum from there up.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence, TextIO

import numpy as np

from . import cgp
from .affine import (CROSS_ENTROPY, FIT_LOSS_ERROR, MSE, AffineParams, CeWork,
                     fit_affine_ce_rows, fit_affine_mse_rows)
from .errors import ConfigError, DimensionMismatch
from .mlp import LayerTrace
from .surrogate import (LayerChromosome, NetGenotype, Population, apply_affine,
                        chromosome_scalar, genotype_forward, mutate_net,
                        random_net_genotypes)

REGRESSION = "regression"
CLASSIFICATION = "classification"

CLASSIFIER_REFIT_EVERY = 50    # explain's affine refit cadence for a classifier

OVERFLOW_PENALTY = 1e12
# A fitted loss within this share of a position's smallest loss is scored
# again: four times the fitters' bound on a fitted loss's error
SCREEN_MARGIN = 4 * FIT_LOSS_ERROR
SCORE_BLOCK = 1 << 15    # predictions per block of the batched loss pass
# numpy sums a contiguous run of 8 or more values pairwise, through 8
# accumulators, and a shorter run in sequence.  A reduce over the class
# axis of a neuron-major block always adds in sequence, so it gives the
# sample-major class sum bit for bit only below this many classes.
PAIRWISE_SUM_MIN = 8


@dataclass
class EvolveConfig:
    """Knobs for the evolution loop; defaults follow the benchmark setup."""
    n_offspring: int = 200
    max_generations: int = 5000
    mutation_prob: float = 0.4
    fitness_target: float = 1e-4
    affine_refit_every: int = 1
    seed: int = 0
    n_rows: int = cgp.CgpConfig.n_rows
    n_cols: int = cgp.CgpConfig.n_cols
    n_constants: int = cgp.CgpConfig.n_constants

    def __post_init__(self):
        if self.n_offspring < 1:
            raise ConfigError("n_offspring must be >= 1")
        if self.max_generations < 1:
            raise ConfigError("max_generations must be >= 1")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ConfigError("mutation_prob must be in [0, 1]")
        if not self.fitness_target > 0:
            raise ConfigError("fitness_target must be > 0")
        if self.affine_refit_every < 1:
            raise ConfigError("affine_refit_every must be >= 1")
        cgp.CgpConfig(n_inputs=1, n_rows=self.n_rows, n_cols=self.n_cols,
                      n_constants=self.n_constants)


@dataclass(frozen=True)
class FitnessReport:
    per_layer_mse: tuple[float, ...]   # hidden layers only
    output_loss: float

    @property
    def total(self) -> float:
        hidden = self.per_layer_mse
        return (sum(hidden) / len(hidden) if hidden else 0.0) + self.output_loss


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


def _layer_losses(x: np.ndarray, target: np.ndarray, kind: str) -> np.ndarray:
    """Layer loss of each prediction matrix in x (R, width, n), stored
    neuron-major and overwritten, against target (width, n): the mean
    square error over samples and neurons, or the soft-target
    cross-entropy over samples.

    The residual and square, and the class max, shift, ``exp`` and
    log-sum-exp subtraction, run along the samples.  The class sum takes
    numpy's own order for a sample's classes: a reduce over the class
    axis below PAIRWISE_SUM_MIN classes, the sample-major last-axis sum
    from there up.  One transposing copy then puts each matrix back in
    sample-major order as one (n * width) row, which is reduced along
    itself, so a loss does not depend on the other matrices; no BLAS
    product or running statistics.  A loss that is not finite scores the
    flat overflow penalty.  That covers every non-finite prediction: inf
    or NaN survives squaring and summing, and the log-softmax of a sample
    with an inf logit has a NaN or -inf term.  The caller silences the
    floating-point warnings.
    """
    R, width, n = x.shape
    if kind == MSE:
        x -= target
        x *= x
    else:
        x -= x.max(axis=1, keepdims=True)
        e = np.exp(x)
        if width < PAIRWISE_SUM_MIN:
            total = e.sum(axis=1, keepdims=True)
        else:
            total = _sample_major(e).sum(axis=2)[:, None, :]
        x -= np.log(total)
        x *= target
    flat = _sample_major(x).reshape(R, -1)
    loss = flat.sum(axis=1) / (n * width) if kind == MSE else -flat.sum(axis=1) / n
    loss[~np.isfinite(loss)] = OVERFLOW_PENALTY
    return loss


def _sample_major(x: np.ndarray) -> np.ndarray:
    """A neuron-major block (R, width, n) as a C-order (R, n, width) array."""
    return np.ascontiguousarray(x.transpose(0, 2, 1))


def score_values(pred: np.ndarray, target: np.ndarray, kind: str) -> float:
    """Layer loss of one prediction matrix (n, width), by ``score_rows``'s rule;
    ``pred`` is copied neuron-major and left as it is."""
    x = np.array(pred.T, dtype=float, order="C")[None]
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_layer_losses(x, target.T, kind)[0])


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
    return FitnessReport(tuple(losses[:-1]), losses[-1])


def score_rows(F: np.ndarray, W: np.ndarray, B: np.ndarray, target: np.ndarray,
               kind: str) -> np.ndarray:
    """``score_values(apply_affine(F[i], (W[i], B[i])), target, kind)`` for
    every row i of F (R, n), bit for bit.

    Rows are taken in blocks of at most SCORE_BLOCK predictions, so the
    temporaries stay small; each block's predictions are made neuron-major,
    (rows, width, n), in one buffer that ``_layer_losses`` then scores in
    place against the target made neuron-major once.
    """
    R, n = F.shape
    width = target.shape[1]
    target = np.ascontiguousarray(target.T)
    losses = np.empty(R)
    step = max(1, SCORE_BLOCK // (n * width))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, R, step):
            block = slice(lo, lo + step)
            x = F[block, None, :] * W[block, :, None]
            x += B[block, :, None]
            losses[block] = _layer_losses(x, target, kind)
    return losses


def _confirm_near_best(F: np.ndarray, W: np.ndarray, B: np.ndarray, fitted: np.ndarray,
                       degenerate: np.ndarray, target: np.ndarray, kind: str) -> np.ndarray:
    """Each row's loss: its fitted loss, or ``score_rows``'s where the fit
    left NaN or where the fitted loss comes within SCREEN_MARGIN of the
    smallest loss.

    A degenerate row has w = 0 and the same b as every other: one whose F
    is not all finite scores the overflow penalty, and the others all
    predict b, so one of them is scored for all.  The NaN rows go into one
    ``score_rows`` pass with the near-best ones, and the screen repeats
    against the smallest loss so far until no fitted loss is within the
    margin of it.  A fitted loss is within FIT_LOSS_ERROR, a quarter of
    the margin, of its scored loss, so every row left fitted scores above
    the smallest loss: the smallest loss and the first row that has it
    are those of scoring every row.
    """
    losses = fitted.copy()
    flat = np.flatnonzero(degenerate)
    finite = np.isfinite(F[flat]).all(axis=1)
    losses[flat[~finite]] = OVERFLOW_PENALTY
    flat = flat[finite]
    todo = np.isnan(losses)
    todo[flat[1:]] = False               # flat[0] is scored for them all
    unscored = ~np.isnan(fitted)
    while True:
        best = np.fmin.reduce(losses)    # the smallest loss not left NaN
        todo |= unscored & (losses <= best + SCREEN_MARGIN * abs(best))
        if not todo.any():
            return losses
        rows = np.flatnonzero(todo)
        losses[rows] = score_rows(F[rows], W[rows], B[rows], target, kind)
        losses[flat] = losses[flat[:1]]
        unscored &= ~todo
        todo[:] = False


def _distinct(keys) -> tuple[np.ndarray, np.ndarray]:
    """Where each distinct key first occurs, and the distinct slot of every key."""
    slot: dict = {}
    row_of = np.array([slot.setdefault(key, len(slot)) for key in keys], dtype=np.intp)
    return np.unique(row_of, return_index=True)[1], row_of


def select_layerwise_best(population: Population | Sequence[NetGenotype],
                          trace: LayerTrace, task: str, refit: bool = True,
                          work: CeWork | None = None):
    """Assemble the per-position best chromosomes into one composite parent.

    A list of networks is made a ``Population`` first.  Positions are
    scanned in order.  At position i every individual sees the
    already-selected prefix's output, so individuals with equal phenotype
    keys have equal scalar outputs: each distinct key is evaluated once,
    and its row of F stands for all of them.  Individual 0's row goes
    through ``chromosome_scalar``, its chromosome carrying its wave's
    phenotype, so nothing is restacked; the other distinct rows are read
    in place, one ``cgp.evaluate_many`` call per wave that has any (in
    ``evolve``, one wave: the offspring, then the parent), and no gene
    tensor is copied.  Without ``refit`` a row stands only for
    individuals that also share one affine object, whose params it is
    scored with, and every loss comes from ``score_rows``, equal to what
    ``fitness`` gives.  With ``refit`` the distinct rows are
    refitted by one batched call (closed form for MSE, Newton for
    cross-entropy), which also gives each row's loss; ``score_rows``
    scores only the rows the fit cannot vouch for and those near the
    smallest loss (``_confirm_near_best``), so the chosen row and each
    position's smallest loss are still what ``fitness`` gives, and every
    other loss is within FIT_LOSS_ERROR of it.  Rows that are not all
    finite score the overflow penalty (the fitters mark them degenerate).
    Only the chosen individual becomes a chromosome, refitted unless its
    row is not finite (then it keeps its affine); its values are fed on
    unchanged.  Ties go to the lowest population index.  Returns the
    composite genotype and the (n_individuals, n_positions) loss matrix.
    ``work`` holds the cross-entropy fit's work arrays, for a caller that
    selects many times.
    """
    _check_task(task)
    if not len(population):
        raise ValueError("population must be non-empty")
    if not isinstance(population, Population):
        population = Population.of(population)
    targets = _position_targets(trace, task)
    loss_matrix = np.empty((len(population), len(targets)))
    chosen: list[LayerChromosome] = []
    current = np.asarray(trace.x, dtype=float)
    for pos, (target, kind) in enumerate(targets):
        waves, affines = population.waves[pos], population.affines[pos]
        keys = [key for wave in waves for key in wave.keys]
        if not refit:
            # individuals score alike only with the same affine too; in
            # ``evolve`` every offspring shares its parent's
            keys = [(key, id(affine)) for key, affine in zip(keys, affines)]
        firsts, row_of = _distinct(keys)
        # individual 0 is always the first distinct one.  It goes through
        # ``chromosome_scalar``, which checks the input width and is where a
        # tracer that wraps it finds each position's start.
        f = chromosome_scalar(population.chromosome(pos, 0), current)
        F = np.empty((len(firsts), f.shape[0]))
        F[0] = f
        lo, start = 1, 0
        for wave in waves:
            hi = int(np.searchsorted(firsts, start + len(wave)))
            if hi > lo:
                cgp.evaluate_many(wave, current, out=F[lo:hi], rows=firsts[lo:hi] - start)
            lo, start = hi, start + len(wave)
        # one loss (and with refit one fit) per distinct row, shared by its
        # duplicates
        if not refit:
            W = np.stack([affines[i].w for i in firsts])
            B = np.stack([affines[i].b for i in firsts])
            losses = score_rows(F, W, B, target, kind)
        else:
            if kind == MSE:
                W, B, degenerate, fitted = fit_affine_mse_rows(F, target)
            else:
                W, B, degenerate, *_, fitted = fit_affine_ce_rows(F, target, work)
            losses = _confirm_near_best(F, W, B, fitted, degenerate, target, kind)
        losses = losses[row_of]
        best = int(np.argmin(losses))     # first minimum: lowest-index tie-break
        k = row_of[best]
        choice = population.chromosome(pos, best)
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
           initial: Sequence[NetGenotype] | None = None,
           log_stream: TextIO | None = None,
           include_timing: bool = True):
    """Run the evolution loop; returns (best genotype, convergence log).

    The loop stops once the best-so-far total fitness reaches
    ``cfg.fitness_target`` or ``cfg.max_generations`` is hit.  Fully
    reproducible from ``cfg.seed``.  ``initial`` individuals replace the
    front of the random starting population.
    """
    _check_task(task)
    widths = trace.widths
    n_inputs = trace.x.shape[1]
    rng = np.random.default_rng(cfg.seed)

    population = random_net_genotypes(n_inputs, widths, rng, cfg.n_offspring,
                                      cfg.n_rows, cfg.n_cols, cfg.n_constants)
    if initial:
        planted = list(initial[:cfg.n_offspring])
        for i, indiv in enumerate(planted):
            if indiv.widths != widths:
                raise DimensionMismatch(
                    f"planted individual {i} widths {indiv.widths} != {widths}")
        population = Population.of(planted + list(population)[len(planted):])

    log = ConvergenceLog(n_hidden=len(widths) - 1)
    if log_stream is not None:
        log_stream.write(log.header(include_timing) + "\n")

    best_geno: NetGenotype | None = None
    best_total = math.inf
    work = CeWork()      # the cross-entropy fits' work arrays, for this run
    start = time.perf_counter()
    for gen in range(cfg.max_generations):
        refit = gen % cfg.affine_refit_every == 0
        parent, loss_matrix = select_layerwise_best(
            population, trace, task, refit=refit, work=work)
        per_pos = loss_matrix.min(axis=0).tolist()
        report = FitnessReport(tuple(per_pos[:-1]), per_pos[-1])
        if report.total <= best_total:       # ties drift to the newer parent
            best_geno, best_total = parent, report.total
        rec = GenerationRecord(
            generation=gen,
            best_total=best_total,
            mean_total=float(_combine(loss_matrix).mean()),
            layer_mses=report.per_layer_mse,
            output_loss=report.output_loss,
            elapsed_ms=(time.perf_counter() - start) * 1000.0,
        )
        log.records.append(rec)
        if log_stream is not None:
            log_stream.write(log.row(rec, include_timing) + "\n")
            log_stream.flush()
        if best_total <= cfg.fitness_target or gen + 1 == cfg.max_generations:
            break
        # the parent rides as the last row of its offspring's wave at each
        # position, with its own affines; a chosen genome owns copies of its
        # rows, so the scored population can go before the next wave is made
        # and the two are never alive at once
        del population
        population = mutate_net(parent, cfg.mutation_prob, rng, cfg.n_offspring)
    return best_geno, log
