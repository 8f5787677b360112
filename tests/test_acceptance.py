"""Acceptance gate: one test per criterion, each pinned to its tolerance
and runtime budget.  The conftest hook prints a PASS/FAIL line per
criterion as the suite runs.
"""

import math
import time

import numpy as np
import pytest

from netexpr import affine, benchmarks as bench, boundary, cgp, evolve as ev, mlp
from netexpr.cli import main as cli_main
from netexpr.surrogate import genotype_forward

from conftest import build_three_output_genome, planted_regression_setup
from oracles import (FitProblem, fit_affine_lbfgs, fitness_by_hand, loss_and_grad,
                     normal_equations_fit)
from test_affine import finite_difference_grad, fit_mse_row
from test_evolve import random_net, random_trace


@pytest.fixture(scope="module")
def k0_setup():
    spec = bench.BENCHMARKS["K0"]
    X, y = bench.generate(spec, seed=0)
    (Xtr, ytr), (Xte, yte) = bench.split((X, y), seed=0)
    cfg = mlp.TrainConfig(optimizer="sgd", learning_rate=0.01, epochs=5000,
                          batch_size=32, seed=0)
    model = mlp.train((Xtr, ytr), [3, 3], cfg)
    return model, (Xtr, ytr), (Xte, yte)


def test_c1_phenotype_reproduction():
    start = time.perf_counter()
    genome = build_three_output_genome()
    trees = cgp.decode(genome)
    X = np.random.default_rng(0).uniform(-5, 5, size=(100, 2))
    x0, x1 = X[:, 0], X[:, 1]
    got = [cgp.evaluate(t, X) for t in trees]
    assert np.array_equal(got[0], -x1)
    assert np.array_equal(got[1], 2 * x0 * x1 + x1 * x1)
    assert np.array_equal(got[2], 2 * x0 + x1)
    assert time.perf_counter() - start < 1.0


def test_c2_fitness_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    cases = [(ev.REGRESSION, (3, 1)), (ev.REGRESSION, (4, 2, 1)),
             (ev.CLASSIFICATION, (3, 2)), (ev.CLASSIFICATION, (2, 3))]
    done = 0
    while done < 100:
        task, widths = cases[done % len(cases)]
        trace = random_trace(rng, n=25, widths=widths, task=task)
        net = random_net(rng, 2, widths)
        report = ev.fitness(net, trace, task)
        expected, _ = fitness_by_hand(net, trace.x, trace.h, trace.y, task)
        assert math.isclose(report.total, expected, rel_tol=1e-12, abs_tol=1e-12)
        done += 1
    assert time.perf_counter() - start < 10.0


def test_c3_affine_fit_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(10, 60))
        width = int(rng.integers(1, 6))
        f = rng.normal(size=n) * rng.uniform(0.5, 2.0)
        targets = (f[:, None] * rng.normal(size=width) + rng.normal(size=width)
                   + rng.normal(scale=0.2, size=(n, width)))
        problem = FitProblem(f, targets, affine.MSE)
        closed = fit_mse_row(problem)
        w, b = normal_equations_fit(f, targets)
        assert np.allclose(closed.params.w, w, rtol=1e-10, atol=1e-12)
        assert np.allclose(closed.params.b, b, rtol=1e-10, atol=1e-12)
        lbfgs = fit_affine_lbfgs(problem)
        denom = max(abs(closed.final_loss), 1e-12)
        assert abs(lbfgs.final_loss - closed.final_loss) / denom < 1e-6
    for kind in (affine.MSE, affine.CROSS_ENTROPY):
        for _ in range(100):
            width = int(rng.integers(1, 5))
            n = int(rng.integers(5, 30))
            f = rng.normal(size=n)
            if kind == affine.MSE:
                t = rng.normal(size=(n, width))
            else:
                t = np.eye(width)[rng.integers(0, width, n)]
            problem = FitProblem(f, t, kind)
            params = affine.AffineParams(rng.normal(size=width),
                                         rng.normal(size=width))
            _, grad = loss_and_grad(params, problem)
            fd = finite_difference_grad(params, problem)
            assert (np.linalg.norm(grad - fd)
                    / max(np.linalg.norm(fd), 1e-8)) < 1e-4
    assert time.perf_counter() - start < 30.0


def test_c4_mlp_gradient_check():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    X = rng.normal(size=(15, 2))
    T = rng.normal(size=(15, 1))
    model = mlp.init_model(2, [1], 1, mlp.LINEAR, rng)
    assert sum(W.size + b.size for W, b in model.layers) == 5
    grads = mlp._gradients(model, X, T)
    step = 1e-5
    for li in range(len(model.layers)):
        for part, grad_part in ((0, grads[li][0]), (1, grads[li][1])):
            arr = model.layers[li][part]
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                hi = [(W.copy(), b.copy()) for W, b in model.layers]
                lo = [(W.copy(), b.copy()) for W, b in model.layers]
                hi[li][part][idx] += step
                lo[li][part][idx] -= step
                fd = (mlp._loss(mlp.MlpModel(hi), X, T)
                      - mlp._loss(mlp.MlpModel(lo), X, T)) / (2 * step)
                assert abs(grad_part[idx] - fd) / max(abs(fd), 1e-8) < 1e-4
    assert time.perf_counter() - start < 5.0


def test_c5_planted_solution_recovery():
    start = time.perf_counter()
    trace, planted = planted_regression_setup()
    cfg = ev.EvolveConfig(n_offspring=50, max_generations=10, mutation_prob=0.4,
                          fitness_target=1e-4, seed=4, n_rows=10, n_cols=10)
    best, log = ev.evolve(trace, ev.REGRESSION, cfg, initial=[planted])
    assert len(log.records) <= 2
    assert log.records[-1].best_total <= 1e-4
    assert ev.fitness(best, trace, ev.REGRESSION).total <= 1e-4
    assert time.perf_counter() - start < 30.0


def test_c6_k0_desk_scale(k0_setup):
    start = time.perf_counter()
    model, (Xtr, ytr), (Xte, yte) = k0_setup
    assert mlp.mse(model, Xte, yte) < 1e-2
    trace = mlp.forward_trace(model, Xtr)
    wins = 0
    for seed in range(1, 6):
        cfg = ev.EvolveConfig(n_offspring=200, max_generations=2000,
                              mutation_prob=0.4, fitness_target=1e-2, seed=seed)
        _, log = ev.evolve(trace, ev.REGRESSION, cfg)
        assert len(log.records) <= 2000
        wins += log.records[-1].best_total < 1e-2
    assert wins >= 4
    assert time.perf_counter() - start < 1200.0


def test_c7_boundary_distance_and_selection():
    start = time.perf_counter()
    assert boundary.boundary_distance(np.array([0.5, 0.5])) == 0.0
    assert boundary.boundary_distance(np.array([1.0, 0.0])) == 1.0
    assert boundary.boundary_distance(np.array([0.25] * 4)) == 0.0
    assert boundary.boundary_distance(np.array([1.0, 0.0, 0.0, 0.0])) == 1.5
    rng = np.random.default_rng(5)
    model = mlp.init_model(2, [8], 3, mlp.SOFTMAX, rng)
    cfg = boundary.BoundarySampleConfig(bounds=[[-2, 2], [-2, 2]],
                                        pool_size=100_000, keep_size=1000, seed=6)
    sample = boundary.sample_near_boundary(model, cfg)
    pool = np.random.default_rng(6).uniform(cfg.bounds[:, 0], cfg.bounds[:, 1],
                                            size=(100_000, 2))
    d_all = boundary.boundary_distances(mlp.predict(model, pool))
    full_sort = np.sort(d_all)
    assert np.array_equal(np.sort(sample.distance), full_sort[:1000])
    assert sample.distance.max() <= full_sort[1000:].min()
    assert time.perf_counter() - start < 10.0


def test_c8_elitism_and_determinism(k0_setup, tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    trace = random_trace(rng, n=40, widths=(3, 1))
    cfg = ev.EvolveConfig(n_offspring=20, max_generations=200,
                          mutation_prob=0.4, fitness_target=1e-15, seed=8,
                          n_rows=5, n_cols=5)
    _, log = ev.evolve(trace, ev.REGRESSION, cfg)
    assert len(log.records) == 200
    series = log.best_series
    assert all(b <= a for a, b in zip(series, series[1:]))

    model, _, _ = k0_setup
    weights = tmp_path / "w.json"
    mlp.save_weights(model, weights)
    csv_bytes = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / name
        code = cli_main(["explain", "--weights", str(weights),
                         "--benchmark", "K0", "--data-seed", "0", "--seed", "9",
                         "--runs", "1", "--offspring", "20",
                         "--generations", "60", "--target", "1e-15",
                         "--threads", threads, "--no-timings", "--out", str(out)])
        assert code == 0
        csv_bytes.append((out / "run_0" / "convergence.csv").read_bytes())
    assert csv_bytes[0] == csv_bytes[1] == csv_bytes[2]
    assert time.perf_counter() - start < 120.0


def test_c9_classification_toy():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, size=(2000, 2))
    labels = (X[:, 1] > 0.3 * np.sin(2.0 * X[:, 0])).astype(int)
    model = mlp.train((X, labels), [10, 10],
                      mlp.TrainConfig("adam", 0.01, 300, 64, 0))
    assert mlp.accuracy(model, X, labels) >= 0.95
    bounds = boundary.bounds_from_data(X)
    sample = boundary.sample_near_boundary(
        model, boundary.BoundarySampleConfig(bounds=bounds, pool_size=2500,
                                             keep_size=500, seed=1))
    trace = mlp.forward_trace(model, sample.x)
    held = boundary.sample_near_boundary(
        model, boundary.BoundarySampleConfig(bounds=bounds, pool_size=2500,
                                             keep_size=500, seed=99))
    mlp_labels = mlp.predict(model, held.x).argmax(axis=1)

    runs = []
    for seed in (2, 3, 4):
        cfg = ev.EvolveConfig(n_offspring=100, max_generations=250,
                              mutation_prob=0.2, fitness_target=1e-6, seed=seed,
                              affine_refit_every=1)
        best, log = ev.evolve(trace, ev.CLASSIFICATION, cfg)
        runs.append((log.records[-1].best_total, best))
    _, chosen = min(runs, key=lambda r: r[0])
    sr_labels = genotype_forward(chosen, held.x)[-1].h_values.argmax(axis=1)
    agreement = float((sr_labels == mlp_labels).mean())
    assert agreement >= 0.90
    assert time.perf_counter() - start < 600.0
