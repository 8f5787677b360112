import io
import math
import weakref

import numpy as np
import pytest

from netexpr import cgp, evolve as ev, surrogate
from netexpr.affine import AffineParams
from netexpr.errors import DimensionMismatch
from netexpr.mlp import LayerTrace
from netexpr.surrogate import apply_affine

from conftest import planted_regression_setup, single_op_chromosome
from oracles import fitness_by_hand


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
    fset = cgp.default_function_set()
    net = surrogate.random_net_genotype(d, list(widths), fset, rng,
                                        n_rows=2, n_cols=3)
    chroms = []
    for c in net.chromosomes:
        w = rng.normal(size=c.width) * fitted_scale
        b = rng.normal(size=c.width)
        chroms.append(c.with_affine(AffineParams(w, b)))
    return surrogate.NetGenotype(tuple(chroms))


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
            assert sel.genotype is orig.genotype
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
        assert parent.chromosomes[0].genotype is exact.chromosomes[0].genotype
        assert parent.chromosomes[1].genotype is exact.chromosomes[1].genotype
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
    def test_loss_matrix_minima_equal_parent_fitness_exactly(self, task, widths):
        rng = np.random.default_rng(14)
        for _ in range(5):
            trace = random_trace(rng, widths=widths, task=task)
            pop = [random_net(rng, 2, widths) for _ in range(8)]
            parent, losses = ev.select_layerwise_best(pop, trace, task,
                                                      lbfgs_max_iters=50)
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
                                             ev.CLASSIFICATION, lbfgs_max_iters=50)
        assert losses[0, 0] == ev.OVERFLOW_PENALTY
        assert losses[1, 0] < ev.OVERFLOW_PENALTY
        parent, losses = ev.select_layerwise_best([broken], trace, ev.CLASSIFICATION,
                                                  lbfgs_max_iters=50)
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
        _, log = ev.evolve(trace, ev.REGRESSION, cfg, initial=[broken],
                           verify_fitness=True)
        assert log.records[-1].best_total == 2 * ev.OVERFLOW_PENALTY

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
        want = [ev.score_values(apply_affine(F[i], AffineParams(W[i], B[i])),
                                target, kind) for i in range(R)]
        assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))
        assert got[2] == ev.OVERFLOW_PENALTY
        if kind == ev.MSE:
            assert got[3] == ev.OVERFLOW_PENALTY

    def test_small_blocks_give_the_same_losses(self, monkeypatch):
        rng = np.random.default_rng(40)
        F, W, B = rng.normal(size=(30, 50)), rng.normal(size=(30, 4)), rng.normal(size=(30, 4))
        target = rng.normal(size=(50, 4))
        whole = ev.score_rows(F, W, B, target, ev.MSE)
        monkeypatch.setattr(ev, "SCORE_BLOCK", 7)
        assert ev.score_rows(F, W, B, target, ev.MSE).tolist() == whole.tolist()

    def test_no_rows(self):
        target = np.zeros((10, 2))
        out = ev.score_rows(np.zeros((0, 10)), np.zeros((0, 2)), np.zeros((0, 2)),
                            target, ev.MSE)
        assert out.shape == (0,)


def select_without_dedup(population, trace, task, refit=True, lbfgs_max_iters=500):
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
                w, b, _ = ev.fit_affine_mse_rows(F[rows], target)
            else:
                w, b, *_ = ev.fit_affine_ce_rows(F[rows], target, lbfgs_max_iters)
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
            twin = cgp.Genotype(g.config, g.fset, genes, g.output_genes.copy(),
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
            parent, losses = ev.select_layerwise_best(pop, trace, task, refit=refit,
                                                      lbfgs_max_iters=50)
            ref_parent, ref_losses = select_without_dedup(pop, trace, task, refit,
                                                          lbfgs_max_iters=50)
            assert np.array_equal(losses, ref_losses)
            for c, r in zip(parent.chromosomes, ref_parent.chromosomes):
                assert c.genotype is r.genotype
                assert np.array_equal(c.affine.w, r.affine.w)
                assert np.array_equal(c.affine.b, r.affine.b)

    def test_one_evaluation_per_distinct_phenotype(self, monkeypatch):
        rng = np.random.default_rng(42)
        trace = random_trace(rng, widths=(3, 1))
        pop = population_with_duplicates(rng, 2, (3, 1))
        calls = []

        def counted(c, inputs):
            calls.append(c.layer_index)
            return surrogate.chromosome_scalar(c, inputs)

        monkeypatch.setattr(ev, "chromosome_scalar", counted)
        ev.select_layerwise_best(pop, trace, ev.REGRESSION)
        for pos in range(2):
            keys = cgp.phenotype_keys([p.chromosomes[pos].genotype for p in pop])
            assert calls.count(pos) == len(set(keys)) < len(pop)

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


class TestEvolve:
    def small_cfg(self, **kw):
        base = dict(n_offspring=10, max_generations=15, mutation_prob=0.3,
                    fitness_target=1e-4, seed=1, n_rows=2, n_cols=3)
        base.update(kw)
        return ev.EvolveConfig(**base)

    def test_scored_wave_is_freed_before_the_next_is_made(self, monkeypatch):
        # two populations (and their cached phenotypes) are never alive at once
        waves = []

        def tracked(parent, p, rng, n):
            assert all(ref() is None for wave in waves for ref in wave)
            wave = surrogate.mutate_net(parent, p, rng, n)
            waves.append([weakref.ref(child) for child in wave])
            return wave

        monkeypatch.setattr(ev, "mutate_net", tracked)
        trace = random_trace(np.random.default_rng(43), widths=(3, 1))
        _, log = ev.evolve(trace, ev.REGRESSION,
                           self.small_cfg(max_generations=5, fitness_target=1e-30))
        assert len(log.records) - 1 == len(waves) == 4

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

    def test_verify_fitness_mode(self):
        rng = np.random.default_rng(10)
        trace = random_trace(rng)
        ev.evolve(trace, ev.REGRESSION,
                  self.small_cfg(max_generations=6, fitness_target=1e-12),
                  verify_fitness=True)

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
                             affine_refit_every=2, lbfgs_max_iters=50)
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
