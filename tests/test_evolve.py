import io
import math

import numpy as np
import pytest

from netexpr import cgp, evolve as ev, surrogate
from netexpr.affine import AffineParams
from netexpr.errors import DimensionMismatch
from netexpr.mlp import LayerTrace

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


class TestEvolve:
    def small_cfg(self, **kw):
        base = dict(n_offspring=10, max_generations=15, mutation_prob=0.3,
                    fitness_target=1e-4, seed=1, n_rows=2, n_cols=3)
        base.update(kw)
        return ev.EvolveConfig(**base)

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
