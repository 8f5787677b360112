import tracemalloc

import numpy as np
import pytest

from netexpr import boundary, mlp
from netexpr.errors import DataError

from oracles import sample_near_boundary_whole_pool

BLOCK = boundary.SAMPLE_BLOCK


def constant_uniform_model(n_features=2, n_classes=2):
    return mlp.MlpModel([(np.zeros((n_features, n_classes)), np.zeros(n_classes))],
                        head=mlp.SOFTMAX)


def linear_boundary_model(w):
    """Two-class softmax whose boundary is exactly w . x = 0."""
    w = np.asarray(w, dtype=float)
    W = np.column_stack([w, -w])
    return mlp.MlpModel([(W, np.zeros(2))], head=mlp.SOFTMAX)


class TestBoundaryDistance:
    def test_uniform_two_class_is_zero(self):
        assert boundary.boundary_distance(np.array([0.5, 0.5])) == 0.0

    def test_certain_two_class_is_one(self):
        assert boundary.boundary_distance(np.array([1.0, 0.0])) == 1.0

    def test_four_class_values(self):
        assert boundary.boundary_distance(np.array([0.25] * 4)) == 0.0
        assert boundary.boundary_distance(np.array([1.0, 0.0, 0.0, 0.0])) == 1.5

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            boundary.boundary_distance(np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            boundary.boundary_distance(np.array([-0.1, 1.1]))

    def test_rowwise_matches_scalar(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(40, 3))
        e = np.exp(z)
        probs = e / e.sum(axis=1, keepdims=True)
        d = boundary.boundary_distances(probs)
        for i in range(40):
            assert d[i] == boundary.boundary_distance(probs[i])


class TestSampler:
    def test_total_tie_keeps_first_drawn(self):
        model = constant_uniform_model()
        cfg = boundary.BoundarySampleConfig(bounds=[[-1, 1], [-1, 1]],
                                            pool_size=500, keep_size=50, seed=1)
        sample = boundary.sample_near_boundary(model, cfg)
        rng = np.random.default_rng(1)
        pool = rng.uniform(cfg.bounds[:, 0], cfg.bounds[:, 1], size=(500, 2))
        assert np.array_equal(sample.x, pool[:50])

    def test_kept_set_is_exact_smallest_subset(self):
        rng = np.random.default_rng(2)
        model = mlp.init_model(2, [6], 2, mlp.SOFTMAX, rng)
        cfg = boundary.BoundarySampleConfig(bounds=[[-2, 2], [-2, 2]],
                                            pool_size=4000, keep_size=300, seed=3)
        sample = boundary.sample_near_boundary(model, cfg)
        pool = np.random.default_rng(3).uniform(cfg.bounds[:, 0], cfg.bounds[:, 1],
                                                size=(4000, 2))
        d_all = boundary.boundary_distances(mlp.predict(model, pool))
        expected = np.sort(d_all)[:300]
        assert np.array_equal(np.sort(sample.distance), expected)
        assert sample.distance.max() <= np.sort(d_all)[300:].min()

    def test_bounds_respected(self):
        rng = np.random.default_rng(4)
        model = mlp.init_model(3, [4], 2, mlp.SOFTMAX, rng)
        bounds = np.array([[-1.0, 2.0], [0.0, 0.5], [10.0, 11.0]])
        cfg = boundary.BoundarySampleConfig(bounds=bounds, pool_size=1000,
                                            keep_size=100, seed=5)
        sample = boundary.sample_near_boundary(model, cfg)
        for j in range(3):
            assert np.all(sample.x[:, j] >= bounds[j, 0])
            assert np.all(sample.x[:, j] <= bounds[j, 1])

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(6)
        model = mlp.init_model(2, [4], 2, mlp.SOFTMAX, rng)
        cfg = boundary.BoundarySampleConfig(bounds=[[-1, 1], [-1, 1]],
                                            pool_size=800, keep_size=64, seed=7)
        a = boundary.sample_near_boundary(model, cfg)
        b = boundary.sample_near_boundary(model, cfg)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.distance, b.distance)

    def test_points_concentrate_near_linear_boundary(self):
        # analytic oracle: for boundary w.x = 0, kept points should sit in
        # the lowest |w.x| band of the pool
        w = np.array([1.0, -2.0])
        model = linear_boundary_model(w)
        cfg = boundary.BoundarySampleConfig(bounds=[[-1, 1], [-1, 1]],
                                            pool_size=20000, keep_size=400, seed=8)
        sample = boundary.sample_near_boundary(model, cfg)
        pool = np.random.default_rng(8).uniform(-1, 1, size=(20000, 2))
        band = np.quantile(np.abs(pool @ w), 0.05)
        frac_in_band = float((np.abs(sample.x @ w) <= band).mean())
        assert frac_in_band >= 0.95

    def test_rejects_linear_head(self):
        model = mlp.MlpModel([(np.zeros((2, 1)), np.zeros(1))])
        cfg = boundary.BoundarySampleConfig(bounds=[[-1, 1], [-1, 1]],
                                            pool_size=10, keep_size=5, seed=0)
        with pytest.raises(ValueError):
            boundary.sample_near_boundary(model, cfg)

    def test_bounds_from_data(self):
        X = np.array([[0.0, -1.0], [2.0, 3.0]])
        b = boundary.bounds_from_data(X)
        assert np.array_equal(b, [[0.0, 2.0], [-1.0, 3.0]])
        b2 = boundary.bounds_from_data(X, margin=0.5)
        assert np.array_equal(b2, [[-1.0, 3.0], [-3.0, 5.0]])


def two_hidden_layer_model(seed):
    """A 2-10-10-2 softmax net whose logits spread over several units."""
    model = mlp.init_model(2, [10, 10], 2, mlp.SOFTMAX, np.random.default_rng(seed))
    return mlp.MlpModel([(3.0 * W, b + 0.1) for W, b in model.layers], head=mlp.SOFTMAX)


class TestBlockedPool:
    @pytest.mark.parametrize("pool,keep", [
        (BLOCK - 1, 100), (BLOCK, 100), (BLOCK + 1, 100), (BLOCK + 7, 333),
        (2 * BLOCK + 1, 100), (50001, 500), (BLOCK + 1, BLOCK + 1)])
    def test_equals_the_whole_pool_pass(self, pool, keep):
        model = two_hidden_layer_model(30)
        cfg = boundary.BoundarySampleConfig(bounds=[[-3, 2], [-2, 3]], pool_size=pool,
                                            keep_size=keep, seed=31)
        got = boundary.sample_near_boundary(model, cfg)
        want = sample_near_boundary_whole_pool(model, cfg)
        for name in ("x", "probs", "distance"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_memory_is_the_pool_not_its_activations(self):
        # the pool, its probabilities, distances and sort order are 48 bytes a
        # point here; one pass over the whole pool held about 340
        model = two_hidden_layer_model(32)
        cfg = boundary.BoundarySampleConfig(bounds=[[-2, 2], [-2, 2]],
                                            pool_size=50000, keep_size=500, seed=33)
        tracemalloc.start()
        try:
            boundary.sample_near_boundary(model, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 120 * cfg.pool_size


class TestCsv:
    def test_layout(self, tmp_path):
        model = constant_uniform_model()
        cfg = boundary.BoundarySampleConfig(bounds=[[-1, 1], [-1, 1]],
                                            pool_size=20, keep_size=3, seed=9)
        sample = boundary.sample_near_boundary(model, cfg)
        path = tmp_path / "s.csv"
        boundary.write_boundary_csv(path, sample)
        lines = path.read_text().splitlines()
        assert lines[0] == "x0,x1,p_0,p_1,d"
        assert len(lines) == 4
        cells = lines[1].split(",")
        assert float(cells[2]) == 0.5 and float(cells[4]) == 0.0

    @pytest.mark.parametrize("names", [None, ["a", "d"], ["d", "p_x"], ["p_1", "d"]])
    def test_round_trip_whatever_the_feature_names(self, tmp_path, names):
        rng = np.random.default_rng(10)
        model = mlp.init_model(2, [3], 2, mlp.SOFTMAX, rng)
        cfg = boundary.BoundarySampleConfig(bounds=[[-1, 1], [-1, 1]],
                                            pool_size=200, keep_size=20, seed=11)
        sample = boundary.sample_near_boundary(model, cfg)
        path = tmp_path / "s.csv"
        boundary.write_boundary_csv(path, sample, feature_names=names)
        X, got = boundary.read_boundary_csv(path, model)
        assert got == (names or ["x0", "x1"])
        assert np.array_equal(X, sample.x)

    @pytest.mark.parametrize("n_features,n_classes", [(2, 3), (2, 1), (1, 2), (3, 2)])
    def test_other_model_is_data_error(self, tmp_path, n_features, n_classes):
        cfg = boundary.BoundarySampleConfig(bounds=[[-1, 1], [-1, 1]],
                                            pool_size=20, keep_size=3, seed=12)
        sample = boundary.sample_near_boundary(constant_uniform_model(), cfg)
        path = tmp_path / "s.csv"
        boundary.write_boundary_csv(path, sample, feature_names=["a", "d"])
        with pytest.raises(DataError, match="s.csv"):
            boundary.read_boundary_csv(path, constant_uniform_model(n_features, n_classes))

    @pytest.mark.parametrize("row,col,cell", [(1, 0, "nan"), (2, 3, "inf"),
                                              (3, 4, "-inf")])
    def test_non_finite_cell_is_data_error(self, tmp_path, row, col, cell):
        cfg = boundary.BoundarySampleConfig(bounds=[[-1, 1], [-1, 1]],
                                            pool_size=20, keep_size=3, seed=13)
        sample = boundary.sample_near_boundary(constant_uniform_model(), cfg)
        path = tmp_path / "s.csv"
        boundary.write_boundary_csv(path, sample)
        lines = path.read_text().splitlines()
        cells = lines[row].split(",")
        cells[col] = cell
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        column = lines[0].split(",")[col]
        with pytest.raises(DataError) as info:
            boundary.read_boundary_csv(path, constant_uniform_model())
        assert str(path) in str(info.value)
        assert f"data row {row}, column {column!r}" in str(info.value)
