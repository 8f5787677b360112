import math

import numpy as np
import pytest

from netexpr import mlp
from netexpr.errors import DataError, DimensionMismatch, NumericError, SchemaError
from oracles import sigmoid_masked, train_per_layer


def toy_regression(rng, n=80):
    X = rng.uniform(-1, 1, size=(n, 1))
    return X, X[:, 0]


class TestForwardTrace:
    def test_zero_weights_give_half_activations(self):
        model = mlp.MlpModel([(np.zeros((2, 3)), np.zeros(3)),
                              (np.zeros((3, 1)), np.zeros(1))])
        trace = mlp.forward_trace(model, np.ones((5, 2)))
        assert np.all(trace.h[0] == 0.5)

    def test_softmax_zero_logits_uniform(self):
        model = mlp.MlpModel([(np.zeros((2, 4)), np.zeros(4))], head=mlp.SOFTMAX)
        trace = mlp.forward_trace(model, np.ones((3, 2)))
        assert np.allclose(trace.y, 0.25)
        assert np.allclose(trace.y.sum(axis=1), 1.0, atol=1e-12)

    def test_single_linear_layer_is_matrix_product(self):
        rng = np.random.default_rng(0)
        W = rng.normal(size=(3, 2))
        b = rng.normal(size=2)
        model = mlp.MlpModel([(W, b)])
        X = rng.normal(size=(6, 3))
        trace = mlp.forward_trace(model, X)
        assert trace.h == []
        assert np.array_equal(trace.y, X @ W + b)

    def test_width_mismatch(self):
        model = mlp.MlpModel([(np.zeros((2, 1)), np.zeros(1))])
        with pytest.raises(DimensionMismatch):
            mlp.forward_trace(model, np.zeros((4, 3)))

    def test_trace_matches_predict_bitwise(self):
        rng = np.random.default_rng(1)
        model = mlp.init_model(2, [4, 3], 1, mlp.LINEAR, rng)
        X = rng.normal(size=(20, 2))
        assert np.array_equal(mlp.forward_trace(model, X).y, mlp.predict(model, X))


class TestTrain:
    def test_identity_regression(self):
        rng = np.random.default_rng(2)
        X, y = toy_regression(rng)
        cfg = mlp.TrainConfig(optimizer="adam", learning_rate=0.05, epochs=400,
                              batch_size=16, seed=3)
        model = mlp.train((X, y), [3], cfg)
        assert mlp.mse(model, X, y) < 1e-2

    def test_separable_classification(self):
        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal([-2, -2], 0.5, size=(60, 2)),
                       rng.normal([2, 2], 0.5, size=(60, 2))])
        y = np.array([0] * 60 + [1] * 60)
        cfg = mlp.TrainConfig(optimizer="sgd", learning_rate=0.5, epochs=200,
                              batch_size=16, seed=5)
        model = mlp.train((X, y), [4], cfg)
        assert model.head == mlp.SOFTMAX
        assert mlp.accuracy(model, X, y) >= 0.95

    def test_loss_decreases_from_init(self):
        rng = np.random.default_rng(6)
        X, y = toy_regression(rng)
        cfg0 = mlp.TrainConfig(epochs=0, seed=7)
        cfg1 = mlp.TrainConfig(epochs=300, learning_rate=0.3, seed=7)
        before = mlp.train_loss(mlp.train((X, y), [3], cfg0), X, y)
        after = mlp.train_loss(mlp.train((X, y), [3], cfg1), X, y)
        assert after < before

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        X, y = toy_regression(rng, n=40)
        cfg = mlp.TrainConfig(epochs=20, seed=9)
        m1 = mlp.train((X, y), [3], cfg)
        m2 = mlp.train((X, y), [3], cfg)
        for (W1, b1), (W2, b2) in zip(m1.layers, m2.layers):
            assert np.array_equal(W1, W2) and np.array_equal(b1, b2)

    def test_gradients_match_finite_differences(self):
        # exactly five parameters: 2x1 weights + bias, 1x1 output + bias
        rng = np.random.default_rng(10)
        X = rng.normal(size=(12, 2))
        T = rng.normal(size=(12, 1))
        model = mlp.init_model(2, [1], 1, mlp.LINEAR, rng)
        assert sum(W.size + b.size for W, b in model.layers) == 5
        grads = mlp._gradients(model, X, T)
        step = 1e-5
        for li, (W, b) in enumerate(model.layers):
            for arr, garr, is_w in ((W, grads[li][0], True), (b, grads[li][1], False)):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    hi = [((Wl.copy(), bl.copy())) for Wl, bl in model.layers]
                    lo = [((Wl.copy(), bl.copy())) for Wl, bl in model.layers]
                    (hi[li][0] if is_w else hi[li][1])[idx] += step
                    (lo[li][0] if is_w else lo[li][1])[idx] -= step
                    lhi = mlp._loss(mlp.MlpModel(hi, model.head), X, T)
                    llo = mlp._loss(mlp.MlpModel(lo, model.head), X, T)
                    fd = (lhi - llo) / (2 * step)
                    assert abs(garr[idx] - fd) / max(abs(fd), 1e-8) < 1e-4

    def test_nan_loss_aborts(self):
        X = np.array([[1e300], [1e300]])
        y = np.array([1e300, -1e300])
        cfg = mlp.TrainConfig(learning_rate=1e6, epochs=60, seed=0)
        with pytest.raises(mlp.NumericError):
            mlp.train((X, y), [2], cfg)


def toy_targets(X, head):
    """Three class ids for a softmax head, two real columns for a linear one."""
    if head == mlp.SOFTMAX:
        return (X[:, 0] > X[:, 1]).astype(int) + (X[:, 0] > 1)
    return np.column_stack([np.sin(X[:, 0]), X[:, 0] * X[:, 1]])


class TestFlatParameters:
    """``train`` steps one flat parameter vector; the per-layer loop in
    ``oracles`` is the reference it must equal bit for bit."""

    @pytest.mark.parametrize("optimizer,lr", [("sgd", 0.3), ("adam", 0.05)])
    @pytest.mark.parametrize("head", [mlp.LINEAR, mlp.SOFTMAX])
    @pytest.mark.parametrize("batch,epochs", [
        (10, 30),       # divides n = 40
        (7, 30),        # a short last batch of 5
        (7, 0),
    ])
    def test_weights_equal_the_per_layer_oracle(self, optimizer, lr, head,
                                                batch, epochs):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(40, 2))
        y = toy_targets(X, head)
        cfg = mlp.TrainConfig(optimizer=optimizer, learning_rate=lr,
                              epochs=epochs, batch_size=batch, seed=21)
        model = mlp.train((X, y), [4, 3], cfg, head=head)
        ref = train_per_layer(X, mlp._as_targets(y, head), [4, 3], cfg, head)
        for (W, b), (W_ref, b_ref) in zip(model.layers, ref, strict=True):
            assert W.tobytes() == W_ref.tobytes() and b.tobytes() == b_ref.tobytes()

    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    def test_sigmoid_matches_the_masked_oracle_bitwise(self, layout):
        tiny = np.nextafter(0.0, 1.0)
        edges = [0.0, 745.0, 1e308, np.inf, tiny, 1e-310, 2.2250738585072014e-308,
                 36.8, 709.8, 1.0]
        z = np.concatenate([edges, np.negative(edges),      # -0.0 included
                            np.random.default_rng(22).normal(scale=30, size=28)])
        z = z.reshape(6, 8)
        if layout == "transposed":
            z = z.T
        assert np.array_equal(mlp.sigmoid(z).view(np.uint64),
                              sigmoid_masked(z).view(np.uint64))

    def test_sigmoid_keeps_nan(self):
        z = np.array([np.nan, -np.nan, 1.0])
        assert np.isnan(mlp.sigmoid(z)[:2]).all()

    @pytest.mark.parametrize("n,batch", [(40, 10), (40, 7), (5, 32)])
    def test_one_gradient_call_per_step(self, monkeypatch, n, batch):
        calls = []
        gradients = mlp._gradients
        monkeypatch.setattr(mlp, "_gradients",
                            lambda *args: calls.append(1) or gradients(*args))
        X, y = toy_regression(np.random.default_rng(23), n=n)
        mlp.train((X, y), [3], mlp.TrainConfig(epochs=6, batch_size=batch, seed=24))
        assert len(calls) == 6 * math.ceil(n / batch)

    def test_returned_layers_own_their_arrays(self):
        X, y = toy_regression(np.random.default_rng(25), n=20)
        cfg = mlp.TrainConfig(optimizer="adam", epochs=3, batch_size=8, seed=26)
        arrays = [a for layer in mlp.train((X, y), [3, 2], cfg).layers for a in layer]
        for i, a in enumerate(arrays):
            assert a.flags.owndata
            assert not any(np.shares_memory(a, other) for other in arrays[i + 1:])


class TestSplitClasses:
    def test_split_missing_top_class_scores_against_model_width(self):
        model = mlp.MlpModel([(np.zeros((1, 3)), np.zeros(3))], head=mlp.SOFTMAX)
        X = np.zeros((4, 1))
        labels = np.array([0, 1, 1, 0])          # class 2 absent from this split
        assert np.isclose(mlp.train_loss(model, X, labels), np.log(3))
        assert np.isclose(mlp.mse(model, X, labels), (2 / 9 + 4 / 9) / 3)

    def test_label_beyond_model_width_is_data_error(self):
        model = mlp.MlpModel([(np.zeros((1, 2)), np.zeros(2))], head=mlp.SOFTMAX)
        with pytest.raises(DataError):
            mlp.train_loss(model, np.zeros((2, 1)), np.array([0, 2]))


class TestWeightFiles:
    def test_round_trip_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(11)
        model = mlp.init_model(2, [3], 1, mlp.LINEAR, rng)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        mlp.save_weights(model, p1)
        mlp.save_weights(mlp.load_weights(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_exact_params(self, tmp_path):
        rng = np.random.default_rng(12)
        model = mlp.init_model(3, [4, 2], 2, mlp.SOFTMAX, rng)
        path = tmp_path / "m.json"
        mlp.save_weights(model, path)
        loaded = mlp.load_weights(path)
        assert loaded.head == mlp.SOFTMAX
        for (W1, b1), (W2, b2) in zip(model.layers, loaded.layers):
            assert np.array_equal(W1, W2) and np.array_equal(b1, b2)

    def test_truncated_file_is_schema_error(self, tmp_path):
        rng = np.random.default_rng(13)
        model = mlp.init_model(2, [3], 1, mlp.LINEAR, rng)
        path = tmp_path / "m.json"
        mlp.save_weights(model, path)
        path.write_text(path.read_text()[:40])
        with pytest.raises(SchemaError):
            mlp.load_weights(path)

    def test_inconsistent_arch_is_schema_error(self, tmp_path):
        import json
        rng = np.random.default_rng(14)
        model = mlp.init_model(2, [3], 1, mlp.LINEAR, rng)
        path = tmp_path / "m.json"
        mlp.save_weights(model, path)
        record = json.loads(path.read_text())
        record["arch"] = [2, 5, 1]
        path.write_text(json.dumps(record))
        with pytest.raises(SchemaError):
            mlp.load_weights(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weight_is_a_numeric_error_and_no_file(self, tmp_path, value):
        model = mlp.init_model(2, [3], 1, mlp.LINEAR, np.random.default_rng(15))
        model.layers[0][0][1, 2] = value
        path = tmp_path / "m.json"
        with pytest.raises(NumericError, match="m.json"):
            mlp.save_weights(model, path)
        assert not path.exists()

    def test_hand_written_minimal_file(self, tmp_path):
        # y = 2*x0 + 1 as a single linear layer
        path = tmp_path / "m.json"
        path.write_text("""{
          "version": 1, "arch": [1, 1], "head": "linear",
          "layers": [{"W": [[2.0]], "b": [1.0]}]
        }""")
        model = mlp.load_weights(path)
        out = mlp.predict(model, np.array([[3.0]]))
        assert out[0, 0] == 7.0


class TestDatasetCsv:
    def test_round_trip_regression(self, tmp_path):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        path = tmp_path / "d.csv"
        mlp.save_dataset_csv(path, X, y, ["a", "b", "c"])
        X2, y2, names = mlp.load_dataset_csv(path)
        assert names == ["a", "b", "c"]
        assert np.array_equal(X, X2) and np.array_equal(y, y2)

    def test_integer_targets_become_class_ids(self, tmp_path):
        X = np.zeros((4, 2))
        y = np.array([0, 1, 1, 0])
        path = tmp_path / "d.csv"
        mlp.save_dataset_csv(path, X, y)
        _, y2, _ = mlp.load_dataset_csv(path)
        assert y2.dtype.kind == "i"
        assert np.array_equal(y, y2)

    def test_missing_file_is_schema_error(self, tmp_path):
        with pytest.raises(SchemaError):
            mlp.load_dataset_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("text,where", [
        ("a,y\n1.0,2.0\nnan,1.0\n", "data row 2, column 'a'"),
        ("a,y\n1.0,inf\n", "data row 1, column 'y'"),
        ("a,b,y\n1.0,2.0,0\n\n1.0,-inf,0\n", "data row 2, column 'b'"),
    ])
    def test_non_finite_cell_is_schema_error(self, tmp_path, text, where):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(SchemaError) as info:
            mlp.load_dataset_csv(path)
        assert str(path) in str(info.value) and where in str(info.value)

    def test_table_cells_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        ids = np.array([3, 0, 12])
        values = np.array([0.1, -2.5e-300, np.inf])
        mlp.write_table(path, ["id", "v"], [ids, values])
        assert path.read_text() == "id,v\n3,0.1\n0,-2.5e-300\n12,inf\n"
        header, rows = mlp.read_table(path)
        assert header == ["id", "v"]
        assert np.array_equal(rows, np.column_stack([ids, values]))

    @pytest.mark.parametrize("data", [
        b"a,b\n1.0,2.0\n3.0\n",
        b"a,b\n1.0,2.0,3.0\n",
        b"a,b\n1.0,two\n",
        b"a,b\n",
        b"",
        b"a,b\n\xff,1.0\n",
    ])
    def test_bad_table_is_schema_error(self, tmp_path, data):
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        with pytest.raises(SchemaError):
            mlp.read_table(path)
