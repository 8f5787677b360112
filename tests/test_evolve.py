import io
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from netexpr import benchmarks, boundary, cgp, evolve as ev, mlp, surrogate
from netexpr.affine import AffineParams
from netexpr.errors import DimensionMismatch
from netexpr.mlp import LayerTrace
from netexpr.surrogate import apply_affine

from conftest import planted_regression_setup, single_op_chromosome
from oracles import fitness_by_hand, score_values_plain


def random_trace(rng, n=30, d=2, widths=(3, 1), task=ev.REGRESSION):
    X = rng.uniform(-1, 1, size=(n, d))
    h = [rng.normal(size=(n, w)) for w in widths[:-1]]
    if task == ev.CLASSIFICATION:
        z = rng.normal(size=(n, widths[-1]))
        e = np.exp(z - z.max(axis=1, keepdims=True))
        y = e / e.sum(axis=1, keepdims=True)
    else:
        y = rng.normal(size=(n, widths[-1]))
    return LayerTrace(X, h, y)


def random_net(rng, d, widths, fitted_scale=1.0):
    net = surrogate.random_net_genotypes(d, list(widths), rng, 1,
                                         n_rows=2, n_cols=3)[0]
    chroms = []
    for c in net.chromosomes:
        w = rng.normal(size=c.width) * fitted_scale
        b = rng.normal(size=c.width)
        chroms.append(c.with_affine(AffineParams(w, b)))
    return surrogate.NetGenotype(tuple(chroms))


def same_genome(a, b):
    """Equal function genes, output genes and constants."""
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("function_genes", "output_genes", "constants"))


def position_finder(pop):
    """The position in pop of a genome, or of the first of a list or wave
    of genomes or of a list of waves, found by its genes and constants,
    which no two positions share."""
    def key(g):
        while not isinstance(g, cgp.Genotype):
            g = g[0]
        return g.function_genes.tobytes(), g.output_genes.tobytes(), g.constants.tobytes()

    where = {key(c.genotype): c.layer_index for indiv in pop for c in indiv.chromosomes}
    return lambda genomes: where[key(genomes)]


class TestFitness:
    def test_exact_reproduction_scores_zero(self):
        trace, net = planted_regression_setup()
        report = ev.fitness(net, trace, ev.REGRESSION)
        assert report.total == 0.0
        assert report.per_layer_mse == (0.0,)
        assert report.output_loss == 0.0

    def test_offset_by_one_gives_unit_mse(self):
        # surrogate h = trace h + 1 everywhere on a width-2 hidden layer
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 1))
        c0 = single_op_chromosome("id", 0, 1, [1.0, -1.0], [0.5, 0.5], 0)
        h0 = X[:, :1] * [1.0, -1.0] + [0.5, 0.5]
        c1 = single_op_chromosome("id", 0, 2, [1.0], [0.0], 1)
        y = h0[:, :1]
        net = surrogate.NetGenotype((c0, c1))
        trace = LayerTrace(X, [h0 - 1.0], y)
        report = ev.fitness(net, trace, ev.REGRESSION)
        assert math.isclose(report.per_layer_mse[0], 1.0, rel_tol=1e-12)

    @pytest.mark.parametrize("task,widths", [
        (ev.REGRESSION, (3, 1)),
        (ev.REGRESSION, (4, 2, 1)),
        (ev.CLASSIFICATION, (3, 2)),
    ])
    def test_matches_straight_line_oracle(self, task, widths):
        rng = np.random.default_rng(1)
        for _ in range(40):
            trace = random_trace(rng, widths=widths, task=task)
            net = random_net(rng, 2, widths)
            report = ev.fitness(net, trace, task)
            expected, _ = fitness_by_hand(net, trace.x, trace.h, trace.y, task)
            assert math.isclose(report.total, expected,
                                rel_tol=1e-12, abs_tol=1e-12)

    def test_width_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        trace = random_trace(rng, widths=(3, 1))
        net = random_net(rng, 2, (4, 1))
        with pytest.raises(DimensionMismatch):
            ev.fitness(net, trace, ev.REGRESSION)

    def test_overflow_penalty_applied(self):
        # exp(exp(...)) of huge inputs clamps, then multiplies into inf
        rng = np.random.default_rng(3)
        X = np.full((10, 1), 1e200)
        c0 = single_op_chromosome("id", 0, 1, [1e200], [0.0], 0)
        c1 = single_op_chromosome("id", 0, 1, [1e200], [0.0], 1)
        net = surrogate.NetGenotype((c0, c1))
        h0 = np.full((10, 1), 1e300)
        trace = LayerTrace(X, [h0], np.ones((10, 1)))
        report = ev.fitness(net, trace, ev.REGRESSION)
        assert report.output_loss == ev.OVERFLOW_PENALTY


class TestSelection:
    def test_population_of_one_returns_same_chromosomes(self):
        trace, net = planted_regression_setup()
        parent, losses = ev.select_layerwise_best([net], trace, ev.REGRESSION)
        for sel, orig in zip(parent.chromosomes, net.chromosomes):
            assert same_genome(sel.genotype, orig.genotype)
        assert losses.shape == (1, 2)

    def test_dominant_positions_combine(self):
        trace, exact = planted_regression_setup()
        rng = np.random.default_rng(4)
        # A: exact at layer 0, junk at layer 1; B: the reverse
        junk0 = single_op_chromosome("cos", 1, 2, np.ones(3), np.zeros(3), 0)
        junk1 = single_op_chromosome("exp", 2, 3, [1.0], [0.0], 1)
        a = surrogate.NetGenotype((exact.chromosomes[0], junk1))
        b = surrogate.NetGenotype((junk0, exact.chromosomes[1]))
        parent, losses = ev.select_layerwise_best([a, b], trace, ev.REGRESSION)
        assert same_genome(parent.chromosomes[0].genotype, exact.chromosomes[0].genotype)
        assert same_genome(parent.chromosomes[1].genotype, exact.chromosomes[1].genotype)
        assert losses[0, 0] < losses[1, 0]
        assert losses[1, 1] < losses[0, 1]

    def test_selected_loss_is_columnwise_minimum(self):
        rng = np.random.default_rng(5)
        trace = random_trace(rng, widths=(3, 1))
        pop = [random_net(rng, 2, (3, 1)) for _ in range(6)]
        parent, losses = ev.select_layerwise_best(pop, trace, ev.REGRESSION)
        report = ev.fitness(parent, trace, ev.REGRESSION)
        mins = losses.min(axis=0)
        assert math.isclose(report.per_layer_mse[0], mins[0], rel_tol=1e-12)
        assert math.isclose(report.output_loss, mins[1], rel_tol=1e-12)

    @pytest.mark.parametrize("task,widths", [
        (ev.REGRESSION, (3, 1)),
        (ev.REGRESSION, (4, 2, 1)),
        (ev.CLASSIFICATION, (3, 2)),
    ])
    @pytest.mark.parametrize("refit", [True, False])
    def test_loss_matrix_minima_equal_parent_fitness_exactly(self, task, widths, refit):
        rng = np.random.default_rng(14)
        for _ in range(5):
            trace = random_trace(rng, widths=widths, task=task)
            pop = [random_net(rng, 2, widths) for _ in range(8)]
            parent, losses = ev.select_layerwise_best(pop, trace, task, refit=refit)
            report = ev.fitness(parent, trace, task)
            assert (losses.min(axis=0).tolist()
                    == list(report.per_layer_mse) + [report.output_loss])

    def test_non_finite_row_takes_penalty_and_keeps_affine(self):
        trace, exact = planted_regression_setup()
        c0 = single_op_chromosome("id", 0, 2, np.full(3, 7.0), np.zeros(3), 0)
        broken = surrogate.NetGenotype((c0, exact.chromosomes[1]))
        X = trace.x.copy()
        X[0, 0] = np.inf
        trace = LayerTrace(X, trace.h, trace.y)
        parent, losses = ev.select_layerwise_best([broken], trace, ev.REGRESSION)
        assert losses[0, 0] == ev.OVERFLOW_PENALTY
        assert np.array_equal(parent.chromosomes[0].affine.w, np.full(3, 7.0))

    def test_cross_entropy_non_finite_row_takes_penalty_and_keeps_affine(self):
        rng = np.random.default_rng(3)
        trace = random_trace(rng, n=40, widths=(3,), task=ev.CLASSIFICATION)
        X = trace.x.copy()
        X[0, 0] = np.inf
        trace = LayerTrace(X, trace.h, trace.y)
        broken = surrogate.NetGenotype((
            single_op_chromosome("id", 0, 2, np.full(3, 7.0), np.zeros(3), 0),))
        finite = surrogate.NetGenotype((
            single_op_chromosome("sin", 1, 2, np.ones(3), np.zeros(3), 0),))
        _, losses = ev.select_layerwise_best([broken, finite], trace,
                                             ev.CLASSIFICATION)
        assert losses[0, 0] == ev.OVERFLOW_PENALTY
        assert losses[1, 0] < ev.OVERFLOW_PENALTY
        parent, losses = ev.select_layerwise_best([broken], trace, ev.CLASSIFICATION)
        assert losses[0, 0] == ev.OVERFLOW_PENALTY
        assert np.array_equal(parent.chromosomes[0].affine.w, np.full(3, 7.0))
        assert np.array_equal(parent.chromosomes[0].affine.b, np.zeros(3))

    def test_all_non_finite_position_feeds_its_values_on(self):
        # every row at position 0 is non-finite; the chosen row's values must
        # reach position 1 as fitness() passes them, not cleaned of infs
        trace, exact = planted_regression_setup()
        c0 = single_op_chromosome("id", 0, 2, np.full(3, 0.5), np.zeros(3), 0)
        broken = surrogate.NetGenotype((c0, exact.chromosomes[1]))
        X = trace.x.copy()
        X[0, 0] = np.inf
        trace = LayerTrace(X, trace.h, trace.y)
        parent, losses = ev.select_layerwise_best([broken, broken], trace,
                                                  ev.REGRESSION)
        report = ev.fitness(parent, trace, ev.REGRESSION)
        assert losses.min(axis=0).tolist() == [ev.OVERFLOW_PENALTY] * 2
        assert report.total == 2 * ev.OVERFLOW_PENALTY
        cfg = ev.EvolveConfig(n_offspring=1, max_generations=3, mutation_prob=0.0,
                              fitness_target=1e-12, seed=0, n_rows=1, n_cols=1,
                              n_constants=0)
        best, log = ev.evolve(trace, ev.REGRESSION, cfg, initial=[broken])
        assert log.records[-1].best_total == 2 * ev.OVERFLOW_PENALTY
        assert ev.fitness(best, trace, ev.REGRESSION).total == 2 * ev.OVERFLOW_PENALTY

    def test_no_refit_uses_existing_params(self):
        trace, net = planted_regression_setup()
        zeroed = surrogate.NetGenotype(tuple(
            c.with_affine(AffineParams(np.zeros(c.width), np.zeros(c.width)))
            for c in net.chromosomes))
        _, with_refit = ev.select_layerwise_best([zeroed], trace, ev.REGRESSION,
                                                 refit=True)
        _, without = ev.select_layerwise_best([zeroed], trace, ev.REGRESSION,
                                              refit=False)
        assert with_refit[0, 0] < without[0, 0]


def soft_targets(rng, n, width):
    z = rng.normal(size=(n, width))
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestScoreRows:
    @pytest.mark.parametrize("kind", [ev.MSE, ev.CROSS_ENTROPY])
    @pytest.mark.parametrize("n,width", [(5, 1), (160, 1), (40, 3), (500, 10),
                                         (3000, 3), (9000, 1), (2, 12)])
    def test_equals_score_values_bit_for_bit(self, kind, n, width):
        rng = np.random.default_rng(n * 31 + width)
        R = 24
        target = (soft_targets(rng, n, width) if kind == ev.CROSS_ENTROPY
                  else rng.normal(size=(n, width)) * 3.0)
        F = rng.normal(size=(R, n)) * rng.choice([1e-6, 1.0, 1e3], size=(R, 1))
        W = rng.normal(size=(R, width)) * 5.0
        B = rng.normal(size=(R, width))
        F[1] = F[0]                      # equal rows with different params
        F[2, 0], W[2], B[2] = 10.0, 1e308, 0.0   # predictions overflow to inf
        F[3, 0], W[3] = 1e200, 1.0       # finite predictions, the loss overflows
        W[4], B[4] = 0.0, -1e300         # cross-entropy logits far apart
        got = ev.score_rows(F, W, B, target, kind)
        preds = [apply_affine(F[i], AffineParams(W[i], B[i])) for i in range(R)]
        want = np.array([score_values_plain(p, target, kind) for p in preds])
        one = np.array([ev.score_values(p, target, kind) for p in preds])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(one.view(np.int64), want.view(np.int64))
        assert got[2] == ev.OVERFLOW_PENALTY
        if kind == ev.MSE:
            assert got[3] == ev.OVERFLOW_PENALTY

    @pytest.mark.parametrize("kind", [ev.MSE, ev.CROSS_ENTROPY])
    def test_score_values_leaves_its_input_alone(self, kind):
        # the shared loss rule works in place on the buffer it is given
        rng = np.random.default_rng(42)
        target = (soft_targets(rng, 20, 3) if kind == ev.CROSS_ENTROPY
                  else rng.normal(size=(20, 3)))
        pred = rng.normal(size=(20, 3))
        kept = pred.copy()
        loss = ev.score_values(pred, target, kind)
        assert np.array_equal(pred, kept)
        assert loss == score_values_plain(kept, target, kind)

    @pytest.mark.parametrize("kind", [ev.MSE, ev.CROSS_ENTROPY])
    def test_non_finite_predictions_score_the_penalty_bit_for_bit(self, kind):
        rng = np.random.default_rng(41)
        n, width, R = 30, 3, 9
        if kind == ev.CROSS_ENTROPY:
            target = soft_targets(rng, n, width)
            target[0] = [0.0, 0.4, 0.6]      # sample 0's class 0 has target 0
        else:
            target = rng.normal(size=(n, width))
        F = rng.normal(size=(R, n))
        W = rng.normal(size=(R, width))
        B = rng.normal(size=(R, width))
        F[0, 3] = np.nan
        F[1, 5] = np.inf
        F[2, 7] = -np.inf
        F[3] = np.nan
        # one -inf logit among finite ones: on sample 0's class 0 (target 0),
        # then on sample 1's class 0 (target > 0)
        F[4, 0], W[4], B[4] = -1e300, [1e10, 1.0, 1.0], 0.0
        F[5, 1], W[5], B[5] = -1e300, [1e10, 1.0, 1.0], 0.0
        B[6] = [-np.inf, 0.0, 0.0]           # class 0 is -inf on every sample
        W[7] = 0.0                           # inf times 0 is NaN
        F[7, 2] = np.inf
        got = ev.score_rows(F, W, B, target, kind)
        preds = [apply_affine(F[i], AffineParams(W[i], B[i])) for i in range(R)]
        want = np.array([score_values_plain(p, target, kind) for p in preds])
        one = np.array([ev.score_values(p, target, kind) for p in preds])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(one.view(np.int64), want.view(np.int64))
        assert got[:8].tolist() == [ev.OVERFLOW_PENALTY] * 8
        assert got[8] < ev.OVERFLOW_PENALTY

    def test_small_blocks_give_the_same_losses(self, monkeypatch):
        rng = np.random.default_rng(40)
        F, W, B = rng.normal(size=(30, 50)), rng.normal(size=(30, 4)), rng.normal(size=(30, 4))
        target = rng.normal(size=(50, 4))
        whole = ev.score_rows(F, W, B, target, ev.MSE)
        monkeypatch.setattr(ev, "SCORE_BLOCK", 7)
        assert ev.score_rows(F, W, B, target, ev.MSE).tolist() == whole.tolist()

    @pytest.mark.parametrize("n", [40, 500])
    @pytest.mark.parametrize("width", [2, 7, 8, 9, 16])
    def test_cross_entropy_bit_for_bit_on_both_sides_of_the_pairwise_sum(self, n, width):
        # below PAIRWISE_SUM_MIN classes the class sum is a reduce over the
        # class axis, from there up the sample-major last-axis sum
        rng = np.random.default_rng(n + width)
        R = 24
        target = soft_targets(rng, n, width)
        target[0, 0] = 0.0
        F = rng.normal(size=(R, n)) * rng.choice([0.1, 1.0, 3.0], size=(R, 1))
        W = rng.normal(size=(R, width))
        B = rng.normal(size=(R, width))
        F[0, 3] = np.nan
        F[1, 5] = np.inf
        F[2, 7] = -np.inf
        F[3] = np.nan
        # one -inf logit among finite ones: on sample 0's class 0 (target 0),
        # then on sample 1's class 0 (target > 0)
        F[4, 0], W[4], B[4] = -1e300, 1.0, 0.0
        W[4, 0] = 1e10
        F[5, 1], W[5], B[5] = -1e300, 1.0, 0.0
        W[5, 0] = 1e10
        B[6, 0] = -np.inf                    # class 0 is -inf on every sample
        W[7] = 0.0                           # inf times 0 is NaN
        F[7, 2] = np.inf
        got = ev.score_rows(F, W, B, target, ev.CROSS_ENTROPY)
        preds = [apply_affine(F[i], AffineParams(W[i], B[i])) for i in range(R)]
        want = np.array([score_values_plain(p, target, ev.CROSS_ENTROPY) for p in preds])
        one = np.array([ev.score_values(p, target, ev.CROSS_ENTROPY) for p in preds])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(one.view(np.int64), want.view(np.int64))
        assert got[:8].tolist() == [ev.OVERFLOW_PENALTY] * 8
        assert (got[8:] < ev.OVERFLOW_PENALTY).all()

    def test_small_blocks_give_the_same_cross_entropy_losses(self, monkeypatch):
        rng = np.random.default_rng(43)
        F, W, B = rng.normal(size=(30, 50)), rng.normal(size=(30, 4)), rng.normal(size=(30, 4))
        target = soft_targets(rng, 50, 4)
        whole = ev.score_rows(F, W, B, target, ev.CROSS_ENTROPY)
        monkeypatch.setattr(ev, "SCORE_BLOCK", 7)
        assert ev.score_rows(F, W, B, target, ev.CROSS_ENTROPY).tolist() == whole.tolist()

    @pytest.mark.parametrize("kind", [ev.MSE, ev.CROSS_ENTROPY])
    @pytest.mark.parametrize("width", [3, 9])
    def test_score_values_takes_c_and_fortran_order_alike(self, kind, width):
        rng = np.random.default_rng(44)
        target = (soft_targets(rng, 25, width) if kind == ev.CROSS_ENTROPY
                  else rng.normal(size=(25, width)))
        pred_c = rng.normal(size=(25, width))
        pred_f = np.asfortranarray(pred_c)
        kept = pred_c.copy()
        loss_c = ev.score_values(pred_c, target, kind)
        loss_f = ev.score_values(pred_f, target, kind)
        assert pred_f.flags.f_contiguous and not pred_f.flags.c_contiguous
        assert loss_c == loss_f == score_values_plain(kept, target, kind)
        assert np.array_equal(pred_c, kept) and np.array_equal(pred_f, kept)

    @pytest.mark.parametrize("kind", [ev.MSE, ev.CROSS_ENTROPY])
    def test_listed_rows_equal_their_rows_scored_alone(self, kind, monkeypatch):
        rng = np.random.default_rng(47)
        n, width, R = 60, 3, 20
        target = (soft_targets(rng, n, width) if kind == ev.CROSS_ENTROPY
                  else rng.normal(size=(n, width)))
        F, W, B = rng.normal(size=(R, n)), rng.normal(size=(R, width)), rng.normal(size=(R, width))
        rows = np.array([1, 4, 5, 11, 19])
        want = ev.score_rows(F[rows], W[rows], B[rows], target, kind)
        monkeypatch.setattr(ev, "SCORE_BLOCK", 2 * n * width)
        got = ev.score_rows(F, W, B, target, kind, rows)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_no_rows(self):
        target = np.zeros((10, 2))
        out = ev.score_rows(np.zeros((0, 10)), np.zeros((0, 2)), np.zeros((0, 2)),
                            target, ev.MSE)
        assert out.shape == (0,)


def select_without_dedup(population, trace, task, refit=True):
    """select_layerwise_best as it was before duplicate phenotypes were
    skipped: every row evaluated, fitted and scored by score_values."""
    targets = ev._position_targets(trace, task)
    loss_matrix = np.empty((len(population), len(targets)))
    chosen = []
    current = np.asarray(trace.x, dtype=float)
    for pos, (target, kind) in enumerate(targets):
        chroms = [indiv.chromosomes[pos] for indiv in population]
        F = np.stack([surrogate.chromosome_scalar(c, current) for c in chroms])
        rows = np.flatnonzero(np.isfinite(F).all(axis=1))
        if refit:
            if kind == ev.MSE:
                w, b, *_ = ev.fit_affine_mse_rows(F[rows], target)
            else:
                w, b, *_ = ev.fit_affine_ce_rows(F[rows], target)
            for i, wi, bi in zip(rows, w, b):
                chroms[i] = chroms[i].with_affine(AffineParams(wi, bi))
        losses = np.full(len(chroms), ev.OVERFLOW_PENALTY)
        for i in rows:
            losses[i] = ev.score_values(apply_affine(F[i], chroms[i].affine),
                                        target, kind)
        loss_matrix[:, pos] = losses
        best = int(np.argmin(losses))
        chosen.append(chroms[best])
        current = apply_affine(F[best], chroms[best].affine)
    return surrogate.NetGenotype(tuple(chosen)), loss_matrix


def population_with_duplicates(rng, d, widths, size=40):
    """Offspring waves of a few parents (many share a phenotype), exact
    copies, copies that differ only in genes nothing reads, and copies
    with other affine params."""
    parents = [random_net(rng, d, widths) for _ in range(4)]
    pop = []
    for p in parents:
        pop += surrogate.mutate_net(p, 0.1, rng, size // 4)
    for i in rng.choice(len(pop), 6, replace=False):
        pop.append(pop[i])
        chroms = []
        for c in pop[i].chromosomes:
            g = c.genotype
            genes = g.function_genes.copy()
            inactive = sorted(set(range(g.config.n_nodes)) - cgp.active_nodes(g))
            if inactive:
                genes[inactive[0], 0] = (genes[inactive[0], 0] + 1) % len(g.fset)
            twin = cgp.Genotype(g.config, genes, g.output_genes.copy(),
                                g.constants.copy())
            chroms.append(surrogate.LayerChromosome(
                twin, AffineParams(c.affine.w * 2.0, c.affine.b + 1.0), c.layer_index))
        pop.append(surrogate.NetGenotype(tuple(chroms)))
    return pop


class TestDuplicatePhenotypes:
    @pytest.mark.parametrize("task,widths", [
        (ev.REGRESSION, (3, 1)),
        (ev.REGRESSION, (4, 2, 1)),
        (ev.CLASSIFICATION, (3, 2)),
        (ev.CLASSIFICATION, (3, 3)),
    ])
    @pytest.mark.parametrize("refit", [True, False])
    def test_same_losses_and_parent_as_without_dedup(self, task, widths, refit):
        rng = np.random.default_rng(41)
        for _ in range(3):
            trace = random_trace(rng, widths=widths, task=task)
            pop = population_with_duplicates(rng, 2, widths)
            parent, losses = ev.select_layerwise_best(pop, trace, task, refit=refit)
            ref_parent, ref_losses = select_without_dedup(pop, trace, task, refit)
            assert np.array_equal(losses.min(axis=0), ref_losses.min(axis=0))
            if refit:
                # a loss away from the smallest may be its fit's
                assert (abs(losses - ref_losses) <= ev.FIT_LOSS_ERROR * ref_losses).all()
            else:
                assert np.array_equal(losses, ref_losses)
            for c, r in zip(parent.chromosomes, ref_parent.chromosomes):
                assert same_genome(c.genotype, r.genotype)
                assert np.array_equal(c.affine.w, r.affine.w)
                assert np.array_equal(c.affine.b, r.affine.b)

    def test_one_evaluation_per_distinct_phenotype(self, monkeypatch):
        # individual 0's row is evaluated by chromosome_scalar, the other
        # distinct phenotypes' rows by evaluate_many
        rng = np.random.default_rng(42)
        trace = random_trace(rng, widths=(3, 1))
        pop = population_with_duplicates(rng, 2, (3, 1))
        position = position_finder(pop)
        counts = [0, 0]
        inside = []      # chromosome_scalar evaluates its row by evaluate_many

        def scalar(c, inputs):
            counts[c.layer_index] += 1
            inside.append(c)
            try:
                return surrogate.chromosome_scalar(c, inputs)
            finally:
                inside.pop()

        def many(genomes, inputs, out=None, rows=None):
            if not inside:
                counts[position(genomes)] += len(genomes if rows is None else rows)
            return evaluate_many(genomes, inputs, out=out, rows=rows)

        evaluate_many = cgp.evaluate_many
        monkeypatch.setattr(ev, "chromosome_scalar", scalar)
        monkeypatch.setattr(cgp, "evaluate_many", many)
        ev.select_layerwise_best(pop, trace, ev.REGRESSION)
        for pos in range(2):
            keys = cgp.stack([p.chromosomes[pos].genotype for p in pop]).keys
            assert counts[pos] == len(set(keys)) < len(pop)

    def test_non_finite_duplicates_take_the_penalty(self):
        trace, exact = planted_regression_setup()
        c0 = single_op_chromosome("id", 0, 2, np.full(3, 7.0), np.zeros(3), 0)
        broken = surrogate.NetGenotype((c0, exact.chromosomes[1]))
        X = trace.x.copy()
        X[0, 0] = np.inf
        trace = LayerTrace(X, trace.h, trace.y)
        pop = [broken, exact, broken, exact]
        for refit in (True, False):
            parent, losses = ev.select_layerwise_best(pop, trace, ev.REGRESSION,
                                                      refit=refit)
            _, ref = select_without_dedup(pop, trace, ev.REGRESSION, refit)
            assert np.array_equal(losses, ref)
            assert losses[0, 0] == losses[2, 0] == ev.OVERFLOW_PENALTY


def three_waves(rng, widths):
    """A population of three waves at each position: a parent's offspring
    wave (the parent its last row), the parent again as a one-row wave of
    the same grid, and a genome of another grid."""
    parent = random_net(rng, 2, widths)
    planted = surrogate.random_net_genotypes(2, list(widths), rng, 1, 1, 2)
    offspring = surrogate.mutate_net(parent, 0.2, rng, 15)
    chromosomes = parent.chromosomes
    return surrogate.Population(
        tuple((wave, cgp.stack([c.genotype]), other) for (wave,), c, (other,)
              in zip(offspring.waves, chromosomes, planted.waves)),
        tuple(affines + (c.affine,) + other for affines, c, other
              in zip(offspring.affines, chromosomes, planted.affines)))


class TestEntryForms:
    """A ``Population`` and the same individuals listed as ``NetGenotype``s
    select alike."""

    @pytest.mark.parametrize("task,widths", [(ev.REGRESSION, (3, 2, 1)),
                                             (ev.CLASSIFICATION, (3, 2))])
    @pytest.mark.parametrize("refit", [True, False])
    def test_population_and_list_select_alike(self, task, widths, refit):
        rng = np.random.default_rng(47)
        for _ in range(3):
            trace = random_trace(rng, widths=widths, task=task)
            pop = three_waves(rng, widths)
            assert [len(waves) for waves in pop.waves] == [3] * len(widths)
            listed = [pop[i] for i in range(len(pop))]
            got, losses = ev.select_layerwise_best(pop, trace, task, refit=refit)
            want, ref = ev.select_layerwise_best(listed, trace, task, refit=refit)
            assert np.array_equal(losses.view(np.int64), ref.view(np.int64))
            for c, r in zip(got.chromosomes, want.chromosomes):
                assert same_genome(c.genotype, r.genotype)
                assert np.array_equal(c.affine.w, r.affine.w)
                assert np.array_equal(c.affine.b, r.affine.b)
                assert c.layer_index == r.layer_index


class TestInPlaceSelection:
    """Selection reads each position's waves as they are: it finds no
    phenotype again and copies no gene tensor for ``evaluate_many``."""

    @pytest.mark.parametrize("task,widths", [(ev.REGRESSION, (3, 2, 1)),
                                             (ev.CLASSIFICATION, (3, 2))])
    @pytest.mark.parametrize("refit", [True, False])
    def test_evaluate_many_reads_the_population_waves(self, monkeypatch, task,
                                                      widths, refit):
        rng = np.random.default_rng(48)
        trace = random_trace(rng, widths=widths, task=task)
        pop = three_waves(rng, widths)
        calls, inside = [], []

        def scalar(c, inputs):
            inside.append(c)
            try:
                return surrogate.chromosome_scalar(c, inputs)
            finally:
                inside.pop()

        def many(genomes, inputs, out=None, rows=None):
            calls.append((inside[-1] if inside else None, genomes, rows))
            return evaluate_many(genomes, inputs, out=out, rows=rows)

        def no_phenotypes(*args, **kwargs):
            raise AssertionError("selection found a phenotype again")

        evaluate_many = cgp.evaluate_many
        monkeypatch.setattr(ev, "chromosome_scalar", scalar)
        monkeypatch.setattr(cgp, "evaluate_many", many)
        monkeypatch.setattr(cgp, "phenotypes", no_phenotypes)
        ev.select_layerwise_best(pop, trace, task, refit=refit)
        seen = []
        for pos, waves in enumerate(pop.waves):
            mine = [(c, genomes, rows) for c, genomes, rows in calls
                    if (c.layer_index == pos if c is not None
                        else any(w is genomes for w in waves))]
            # row 0's chromosome brings its own one-row wave, a view of its
            # genes; then one call per wave that has distinct rows left
            (c, row0, _), *rest = mine
            assert c is not None and row0 is c.genotype.wave and len(row0) == 1
            assert np.shares_memory(row0.genes, c.genotype.function_genes)
            keys = [key for wave in waves for key in wave.keys]
            if not refit:
                keys = [(key, id(a)) for key, a in zip(keys, pop.affines[pos])]
            first: dict = {}
            for i, key in enumerate(keys):
                first.setdefault(key, i)
            owner = np.repeat(np.arange(len(waves)), [len(wave) for wave in waves])
            left = sorted(set(owner[list(first.values())[1:]].tolist()))
            assert [genomes for _, genomes, _ in rest] == [waves[k] for k in left]
            assert all(c is None and rows is not None for c, _, rows in rest)
            # the parent's own one-row wave repeats its offspring wave's last row
            assert 1 not in left
            seen.append(left == [0, 2])
        assert any(seen)


def k0_trace():
    spec = benchmarks.get_benchmark("K0")
    (X, y), _ = benchmarks.split(benchmarks.generate(spec, seed=0), seed=0)
    model = mlp.train((X, y), list(spec.arch), mlp.TrainConfig("sgd", 0.1, 300, 32, 0))
    return mlp.forward_trace(model, X)


def class_trace(n_classes):
    """A classifier's trace on points sampled near its decision boundary:
    two classes split by a sine, or nine angle sectors."""
    rng = np.random.default_rng(n_classes)
    X = rng.uniform(-1, 1, size=(400, 2))
    if n_classes == 2:
        labels = (X[:, 1] > 0.3 * np.sin(3.0 * X[:, 0])).astype(int)
    else:
        angle = np.arctan2(X[:, 1], X[:, 0]) + np.pi
        labels = (angle / (2 * np.pi) * n_classes).astype(int) % n_classes
    model = mlp.train((X, labels), [8], mlp.TrainConfig("adam", 0.05, 100, 32, 1))
    sample = boundary.sample_near_boundary(model, boundary.BoundarySampleConfig(
        bounds=boundary.bounds_from_data(X), pool_size=2000, keep_size=200, seed=2))
    return mlp.forward_trace(model, sample.x)


def evolved_populations(monkeypatch, trace, task, **cfg):
    """Every population a short refitting run selects from."""
    seen = []

    def recording(population, *args, **kwargs):
        seen.append(population)
        return select(population, *args, **kwargs)

    select = ev.select_layerwise_best
    with monkeypatch.context() as patch:
        patch.setattr(ev, "select_layerwise_best", recording)
        ev.evolve(trace, task, ev.EvolveConfig(fitness_target=1e-30, seed=3, **cfg))
    return seen


def scored_every_row(F, W, B, fitted, degenerate, target, kind):
    return ev.score_rows(F, W, B, target, kind)


class TestFittedLosses:
    """A refitted row's loss comes from its fit; the rows near the smallest
    are scored again, so selection is the same as scoring every row."""

    @pytest.mark.parametrize("case", ["k0", "two_class", "nine_class"])
    def test_parent_and_minima_equal_scoring_every_row(self, monkeypatch, case):
        if case == "k0":
            trace, task = k0_trace(), ev.REGRESSION
            cfg = dict(n_offspring=100, max_generations=30, mutation_prob=0.4)
        else:
            trace, task = class_trace(2 if case == "two_class" else 9), ev.CLASSIFICATION
            cfg = dict(n_offspring=50, max_generations=15, mutation_prob=0.2)
        fitted_kept = 0
        for pop in evolved_populations(monkeypatch, trace, task, **cfg):
            parent, losses = ev.select_layerwise_best(pop, trace, task)
            with monkeypatch.context() as patch:
                patch.setattr(ev, "_confirm_near_best", scored_every_row)
                want, ref = ev.select_layerwise_best(pop, trace, task)
            assert np.array_equal(losses.min(axis=0).view(np.int64),
                                  ref.min(axis=0).view(np.int64))
            assert np.array_equal(losses.argmin(axis=0), ref.argmin(axis=0))
            assert (abs(losses - ref) <= ev.FIT_LOSS_ERROR * ref).all()
            fitted_kept += int((losses != ref).sum())
            for c, r in zip(parent.chromosomes, want.chromosomes):
                assert same_genome(c.genotype, r.genotype)
                assert np.array_equal(c.affine.w, r.affine.w)
                assert np.array_equal(c.affine.b, r.affine.b)
            report = ev.fitness(parent, trace, task)
            assert (losses.min(axis=0).tolist()
                    == list(report.per_layer_mse) + [report.output_loss])
        assert fitted_kept > 0       # fitted losses were kept, not all scored

    def test_rescored_rows_are_gathered_block_by_block(self):
        # F0's output position: rows with a large offset and little spread
        # leave their fitted loss NaN, so every row is scored again
        rng = np.random.default_rng(48)
        n, P = 8000, 390
        target = 3.12 + 0.0079 * rng.normal(size=(n, 1))
        F = 1e3 + 0.1 * rng.normal(size=(P, n))
        W, B, degenerate, fitted = ev.fit_affine_mse_rows(F, target)
        assert np.isnan(fitted).all()
        tracemalloc.start()
        try:
            losses = ev._confirm_near_best(F, W, B, fitted, degenerate, target, ev.MSE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = ev.score_rows(F, W, B, target, ev.MSE)
        assert np.array_equal(losses.view(np.int64), want.view(np.int64))
        assert peak < F.nbytes / 8          # a copy of the rescored rows is all of F

    def test_all_non_finite_position_takes_the_penalty_and_picks_row_0(self):
        # six distinct phenotypes, none finite on sample 0
        trace, exact = planted_regression_setup()
        X = trace.x.copy()
        X[0] = np.inf
        trace = LayerTrace(X, trace.h, trace.y)
        pop = [surrogate.NetGenotype((
            single_op_chromosome(op, source, 2, np.full(3, 7.0), np.zeros(3), 0),
            exact.chromosomes[1])) for op in ("id", "sin", "cos") for source in (0, 1)]
        parent, losses = ev.select_layerwise_best(pop, trace, ev.REGRESSION)
        assert losses[:, 0].tolist() == [ev.OVERFLOW_PENALTY] * len(pop)
        assert same_genome(parent.chromosomes[0].genotype, pop[0].chromosomes[0].genotype)
        assert np.array_equal(parent.chromosomes[0].affine.w, np.full(3, 7.0))


class TestTracerContract:
    """perfbench's tracer wraps ``evolve.chromosome_scalar`` and
    ``cgp.evaluate_genotype``: it times each network position from the
    first ``chromosome_scalar`` call there, and a traced run fails unless
    every position has one.  Selection keeps making that call, first."""

    @pytest.mark.parametrize("task,widths", [(ev.REGRESSION, (3, 2, 1)),
                                             (ev.CLASSIFICATION, (3, 2))])
    @pytest.mark.parametrize("refit", [True, False])
    def test_each_position_starts_with_chromosome_scalar(self, monkeypatch, task,
                                                         widths, refit):
        rng = np.random.default_rng(45)
        trace = random_trace(rng, widths=widths, task=task)
        pop = population_with_duplicates(rng, 2, widths)
        position = position_finder(pop)
        events = []

        def record(name, fn, where):
            def recorded(first, *args, **kwargs):
                events.append((where(first), name))
                return fn(first, *args, **kwargs)
            return recorded

        monkeypatch.setattr(ev, "chromosome_scalar", record(
            "scalar", surrogate.chromosome_scalar, lambda c: c.layer_index))
        monkeypatch.setattr(cgp, "evaluate_genotype", record(
            "genotype", cgp.evaluate_genotype, position))
        monkeypatch.setattr(cgp, "evaluate_many", record(
            "many", cgp.evaluate_many, position))
        ev.select_layerwise_best(pop, trace, task, refit=refit)
        assert [pos for pos, _ in events] == sorted(pos for pos, _ in events)
        for pos in range(len(widths)):
            names = [name for at, name in events if at == pos]
            assert names[:2] == ["scalar", "genotype"]
            assert names.count("scalar") == names.count("genotype") == 1
            assert "many" in names[2:]


class TestEvolve:
    def small_cfg(self, **kw):
        base = dict(n_offspring=10, max_generations=15, mutation_prob=0.3,
                    fitness_target=1e-4, seed=1, n_rows=2, n_cols=3)
        base.update(kw)
        return ev.EvolveConfig(**base)

    def test_scored_wave_is_freed_before_the_next_is_made(self, monkeypatch):
        # two populations (and their waves) are never alive at once
        waves = []

        def tracked(parent, p, rng, n):
            assert all(ref() is None for wave in waves for ref in wave)
            population = surrogate.mutate_net(parent, p, rng, n)
            waves.append([weakref.ref(population)]
                         + [weakref.ref(w) for ws in population.waves for w in ws])
            return population

        monkeypatch.setattr(ev, "mutate_net", tracked)
        trace = random_trace(np.random.default_rng(43), widths=(3, 1))
        _, log = ev.evolve(trace, ev.REGRESSION,
                           self.small_cfg(max_generations=5, fitness_target=1e-30))
        assert len(log.records) - 1 == len(waves) == 4

    @pytest.mark.parametrize("task,widths", [(ev.REGRESSION, (3, 2, 1)),
                                             (ev.CLASSIFICATION, (3, 2))])
    def test_parent_rides_as_the_last_row_of_its_offspring_wave(self, monkeypatch,
                                                                task, widths):
        # the next population ends with the parent: at each position one
        # wave, whose last row equals the parent's genome stacked afresh,
        # with the parent's affine, sharing no memory with the scored waves
        scored = []

        def recording(population, *args, **kwargs):
            parent, loss_matrix = select(population, *args, **kwargs)
            scored.append((population, parent))
            return parent, loss_matrix

        select = ev.select_layerwise_best
        monkeypatch.setattr(ev, "select_layerwise_best", recording)
        trace = random_trace(np.random.default_rng(46), widths=widths, task=task)
        ev.evolve(trace, task, self.small_cfg(max_generations=8, fitness_target=1e-30,
                                              affine_refit_every=2))
        assert len(scored) == 8
        fields = ("genes", "outputs", "constants", "steps", "n_steps")
        for (before, parent), (after, _) in zip(scored, scored[1:]):
            assert len(after) == 11
            scored_arrays = [getattr(wave, f) for waves in before.waves
                             for wave in waves for f in fields]
            for pos, c in enumerate(parent.chromosomes):
                (wave,) = after.waves[pos]
                assert len(wave) == 11 and after.affines[pos][-1] is c.affine
                kept, want = wave.take([10]), cgp.stack([c.genotype])
                assert not any(np.shares_memory(getattr(wave, f), x)
                               for f in fields for x in scored_arrays)
                for field in fields:
                    a, b = getattr(kept, field), getattr(want, field)
                    assert a.dtype == b.dtype and np.array_equal(a, b), field
                assert kept.keys == want.keys

    @pytest.mark.parametrize("task,widths", [(ev.REGRESSION, (3, 2, 1)),
                                             (ev.CLASSIFICATION, (3, 2))])
    def test_phenotypes_found_once_per_position_per_generation(self, monkeypatch,
                                                               task, widths):
        # by the starting waves, then by mutate_many; never by selection
        calls, where = [], []

        def tagged(tag, fn):
            def call(*args, **kwargs):
                where.append(tag)
                try:
                    return fn(*args, **kwargs)
                finally:
                    where.pop()
            return call

        def counted(*args, **kwargs):
            calls.append(tuple(where))
            return phenotypes(*args, **kwargs)

        phenotypes = cgp.phenotypes
        monkeypatch.setattr(cgp, "phenotypes", counted)
        monkeypatch.setattr(cgp, "mutate_many", tagged("mutate", cgp.mutate_many))
        monkeypatch.setattr(ev, "select_layerwise_best",
                            tagged("select", ev.select_layerwise_best))
        trace = random_trace(np.random.default_rng(49), widths=widths, task=task)
        _, log = ev.evolve(trace, task, self.small_cfg(max_generations=6,
                                                       fitness_target=1e-30,
                                                       affine_refit_every=2))
        assert len(log.records) == 6
        assert calls == [()] * len(widths) + [("mutate",)] * (5 * len(widths))

    def test_starting_population_is_one_wave_per_position(self, monkeypatch):
        seen = []

        def first_select(population, *args, **kwargs):
            if not seen:
                seen.append([len(wave) for waves in population.waves for wave in waves])
            return select(population, *args, **kwargs)

        select = ev.select_layerwise_best
        monkeypatch.setattr(ev, "select_layerwise_best", first_select)
        trace = random_trace(np.random.default_rng(44), widths=(3, 2, 1))
        ev.evolve(trace, ev.REGRESSION, self.small_cfg(max_generations=2))
        assert seen[0] == [10] * 3

    def test_huge_target_stops_after_one_generation(self):
        rng = np.random.default_rng(6)
        trace = random_trace(rng)
        best, log = ev.evolve(trace, ev.REGRESSION, self.small_cfg(fitness_target=1e18))
        assert len(log.records) == 1
        assert best is not None

    def test_planted_solution_recovered_immediately(self):
        trace, net = planted_regression_setup()
        cfg = self.small_cfg(n_offspring=20, max_generations=10)
        best, log = ev.evolve(trace, ev.REGRESSION, cfg, initial=[net])
        assert log.records[-1].best_total <= 1e-4
        assert len(log.records) <= 2
        assert ev.fitness(best, trace, ev.REGRESSION).total <= 1e-4

    def test_best_series_non_increasing(self):
        rng = np.random.default_rng(7)
        trace = random_trace(rng)
        _, log = ev.evolve(trace, ev.REGRESSION,
                           self.small_cfg(max_generations=25, fitness_target=1e-12))
        series = log.best_series
        assert all(b <= a for a, b in zip(series, series[1:]))

    def test_seed_determinism(self):
        rng = np.random.default_rng(8)
        trace = random_trace(rng)
        cfg = self.small_cfg(max_generations=10, fitness_target=1e-12)
        best1, log1 = ev.evolve(trace, ev.REGRESSION, cfg)
        best2, log2 = ev.evolve(trace, ev.REGRESSION, cfg)
        assert surrogate.net_to_json(best1) == surrogate.net_to_json(best2)
        s1, s2 = io.StringIO(), io.StringIO()
        log1.to_csv(s1, include_timing=False)
        log2.to_csv(s2, include_timing=False)
        assert s1.getvalue() == s2.getvalue()

    def test_each_parent_rescores_to_its_logged_losses(self, monkeypatch):
        selected = []

        def select(*args, **kwargs):
            selected.append(original(*args, **kwargs))
            return selected[-1]

        original = ev.select_layerwise_best
        monkeypatch.setattr(ev, "select_layerwise_best", select)
        trace = random_trace(np.random.default_rng(10))
        _, log = ev.evolve(trace, ev.REGRESSION,
                           self.small_cfg(max_generations=6, fitness_target=1e-12))
        assert len(selected) == len(log.records) == 6
        for (parent, _), rec in zip(selected, log.records):
            report = ev.fitness(parent, trace, ev.REGRESSION)
            assert report.per_layer_mse == rec.layer_mses
            assert report.output_loss == rec.output_loss

    def test_planted_genome_of_another_grid(self):
        # the planted net is a 1x1 grid among 10x10 ones, so at each position
        # the population holds waves of two configs
        trace, planted = planted_regression_setup()
        cfg = self.small_cfg(n_offspring=20, max_generations=10, n_rows=10, n_cols=10)
        other = surrogate.random_net_genotypes(2, trace.widths,
                                               np.random.default_rng(46), 1, 10, 10)[0]
        best, log = ev.evolve(trace, ev.REGRESSION, cfg, initial=[other, planted])
        assert log.records[-1].best_total <= 1e-4
        assert ev.fitness(best, trace, ev.REGRESSION).total <= 1e-4

    def test_mean_never_below_parent(self):
        rng = np.random.default_rng(11)
        trace = random_trace(rng)
        _, log = ev.evolve(trace, ev.REGRESSION,
                           self.small_cfg(max_generations=10, fitness_target=1e-12))
        for rec in log.records:
            parent_total = (sum(rec.layer_mses) / len(rec.layer_mses)
                            if rec.layer_mses else 0.0) + rec.output_loss
            assert rec.mean_total >= parent_total - 1e-12

    def test_classification_loop_runs(self):
        rng = np.random.default_rng(12)
        trace = random_trace(rng, widths=(3, 2), task=ev.CLASSIFICATION)
        cfg = self.small_cfg(max_generations=5, fitness_target=1e-12,
                             affine_refit_every=2)
        best, log = ev.evolve(trace, ev.CLASSIFICATION, cfg)
        assert len(log.records) == 5
        assert np.isfinite(log.records[-1].best_total)

    def test_incremental_stream_matches_log(self):
        rng = np.random.default_rng(13)
        trace = random_trace(rng)
        stream = io.StringIO()
        _, log = ev.evolve(trace, ev.REGRESSION,
                           self.small_cfg(max_generations=5, fitness_target=1e-12),
                           log_stream=stream, include_timing=False)
        replay = io.StringIO()
        log.to_csv(replay, include_timing=False)
        assert stream.getvalue() == replay.getvalue()


class TestConvergenceCsv:
    def test_header_names(self):
        log = ev.ConvergenceLog(n_hidden=2)
        assert log.header() == ("generation,best_total,mean_total,"
                                "layer0_mse,layer1_mse,output_loss,elapsed_ms")
        assert log.header(include_timing=False).endswith("output_loss")
