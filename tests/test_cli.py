import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from netexpr import benchmarks as bench
from netexpr import evolve as ev
from netexpr import boundary as bdry
from netexpr import cgp, mlp, surrogate
from netexpr.cli import Manifest, main


@pytest.fixture(scope="module")
def trained_k0(tmp_path_factory):
    out = tmp_path_factory.mktemp("k0")
    code = main(["train", "--benchmark", "K0", "--seed", "0",
                 "--epochs", "1500", "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def toy_classifier(tmp_path_factory):
    out = tmp_path_factory.mktemp("cls")
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, size=(300, 2))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    csv = out / "toy.csv"
    mlp.save_dataset_csv(csv, X, y)
    code = main(["train", "--csv", str(csv), "--arch", "4", "--optimizer", "adam",
                 "--lr", "0.05", "--epochs", "150", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    return out, csv


class TestTrain:
    def test_writes_weights_metrics_manifest(self, trained_k0):
        assert (trained_k0 / "weights.json").exists()
        metrics = json.loads((trained_k0 / "metrics.json").read_text())
        assert metrics["test_mse"] < 1e-2
        manifest = Manifest.load(trained_k0 / "manifest.json")
        for path in manifest["artifacts"].values():
            assert Path(path).exists()

    def test_same_seed_identical_weights(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["train", "--benchmark", "K0", "--seed", "7",
                         "--epochs", "100", "--out", str(out)]) == 0
        assert (a / "weights.json").read_bytes() == (b / "weights.json").read_bytes()

    def test_missing_csv_exits_3(self, tmp_path):
        assert main(["train", "--csv", str(tmp_path / "nope.csv"),
                     "--arch", "3", "--seed", "0",
                     "--out", str(tmp_path / "o")]) == 3

    def test_bad_benchmark_exits_2(self, tmp_path):
        assert main(["train", "--benchmark", "K99", "--seed", "0",
                     "--out", str(tmp_path / "o")]) == 2

    def test_config_file_fills_options(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("benchmark = \"K0\"\nepochs = 120\n")
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--seed", "0",
                     "--out", str(out)]) == 0
        manifest = Manifest.load(out / "manifest.json")
        assert manifest["config"]["epochs"] == 120

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no_such_option = 1\n")
        assert main(["train", "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("flag", [
        "--lr=0", "--lr=-0.5", "--batch-size=0", "--arch=0", "--arch=3,0",
        "--epochs=-5", "--lr=nan", "--lr=inf", "--seed=-5",
    ])
    def test_bad_option_exits_2_before_any_artifact(self, tmp_path, flag):
        out = tmp_path / "o"
        assert main(["train", "--benchmark", "K0", "--seed", "0", "--epochs", "5",
                     flag, "--out", str(out)]) == 2
        assert not out.exists()

    def test_one_row_csv_exits_3_before_any_artifact(self, tmp_path, capsys):
        csv = tmp_path / "one.csv"
        mlp.save_dataset_csv(csv, np.array([[0.5]]), np.array([1.5]))
        out = tmp_path / "o"
        assert main(["train", "--csv", str(csv), "--arch", "2", "--epochs", "1",
                     "--seed", "0", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("data error:")
        assert not out.exists()

    def test_class_only_in_test_split_exits_3_before_any_artifact(self, tmp_path,
                                                                   capsys):
        csv = tmp_path / "two.csv"
        X, y = np.array([[0.1], [0.7]]), np.array([2, 4])
        mlp.save_dataset_csv(csv, X, y)
        (_, y_train), (_, y_test) = bench.split((X, y), seed=0)
        assert (list(y_train), list(y_test)) == ([2], [4])
        out = tmp_path / "o"
        assert main(["train", "--csv", str(csv), "--arch", "2", "--epochs", "1",
                     "--seed", "0", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("data error: class id 4")
        assert not out.exists()

    @pytest.mark.parametrize("row,col,cell", [
        (2, 0, "nan"),               # a feature; seed 0 puts row 2 in the test split
        (5, 1, "inf"),               # a feature
        (4, 2, "-inf"),              # the target
    ])
    def test_non_finite_cell_exits_3_before_any_artifact(self, tmp_path, capsys,
                                                         row, col, cell):
        X = np.linspace(-1, 1, 20).reshape(-1, 2)
        table = [[str(float(v)) for v in (*x, x.sum())] for x in X]
        table[row - 1][col] = cell
        csv = tmp_path / "d.csv"
        csv.write_text("a,b,y\n" + "".join(",".join(r) + "\n" for r in table))
        out = tmp_path / "o"
        assert main(["train", "--csv", str(csv), "--arch", "2", "--epochs", "1",
                     "--seed", "0", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert str(csv) in err and f"row {row}," in err and repr("aby"[col]) in err
        assert not out.exists()

    @pytest.mark.parametrize("targets", [
        [0.5, 1.0, 2.0, 0.0],        # not integral
        [-1, 0, 1, 2],               # negative
        [0, 1, 2, 3e6],              # beyond any class id
    ])
    def test_classification_task_needs_class_ids(self, tmp_path, targets):
        X = np.linspace(-1, 1, 8).reshape(-1, 1)
        csv = tmp_path / "d.csv"
        mlp.save_dataset_csv(csv, X, np.array(targets * 2, dtype=float))
        out = tmp_path / "o"
        assert main(["train", "--csv", str(csv), "--arch", "2", "--epochs", "1",
                     "--seed", "0", "--task", "classification",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_classification_task_on_a_benchmark_exits_2(self, tmp_path):
        out = tmp_path / "o"
        assert main(["train", "--benchmark", "K0", "--epochs", "1", "--seed", "0",
                     "--task", "classification", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("task,head", [
        (None, mlp.SOFTMAX), ("classification", mlp.SOFTMAX),
        ("regression", mlp.LINEAR),
    ])
    def test_task_sets_the_head_of_count_targets(self, tmp_path, task, head):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, size=(40, 2))
        csv = tmp_path / "counts.csv"
        mlp.save_dataset_csv(csv, X, rng.poisson(3.0, size=40))
        out = tmp_path / "o"
        argv = ["train", "--csv", str(csv), "--arch", "3", "--epochs", "2",
                "--seed", "0", "--out", str(out)]
        assert main(argv + (["--task", task] if task else [])) == 0
        assert mlp.load_weights(out / "weights.json").head == head
        config = Manifest.load(out / "manifest.json")["config"]
        assert config["head"] == head
        assert config["task"] == task

    def test_diverging_loss_exits_4(self, tmp_path):
        rng = np.random.default_rng(0)
        X = np.full((20, 1), 1e300)
        y = rng.choice([-1e300, 1e300], size=20)
        csv = tmp_path / "huge.csv"
        mlp.save_dataset_csv(csv, X, y.astype(float))
        assert main(["train", "--csv", str(csv), "--arch", "2", "--lr", "1e6",
                     "--epochs", "60", "--seed", "0",
                     "--out", str(tmp_path / "o")]) == 4

    def test_overflowing_step_exits_4_quietly_with_no_out(self, tmp_path, capsys):
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--benchmark", "K0", "--lr", "1e200", "--epochs",
                         "50", "--seed", "0", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 4
        assert [str(w.message) for w in caught] == []
        assert err.startswith("numeric failure:") and err.count("\n") == 1
        assert "Warning" not in err
        assert not out.exists()

    def test_non_finite_weight_exits_4_naming_the_file(self, tmp_path, monkeypatch,
                                                      capsys):
        train = mlp.train

        def train_to_nan(*args, **kwargs):
            model = train(*args, **kwargs)
            model.layers[0][1][0] = np.nan
            return model

        monkeypatch.setattr(mlp, "train", train_to_nan)
        out = tmp_path / "o"
        assert main(["train", "--benchmark", "K0", "--seed", "0", "--epochs", "5",
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and "weights.json" in err
        assert not (out / "weights.json").exists()


class TestExplain:
    def test_artifacts_and_reproducibility(self, trained_k0, tmp_path):
        outs = []
        for name in ("x1", "x2"):
            out = tmp_path / name
            code = main(["explain", "--weights", str(trained_k0 / "weights.json"),
                         "--benchmark", "K0", "--data-seed", "0",
                         "--seed", "3", "--runs", "1", "--offspring", "30",
                         "--generations", "15", "--target", "1e-9",
                         "--no-timings", "--out", str(out)])
            assert code == 0
            outs.append(out)
        for rel in ("run_0/convergence.csv", "run_0/genotype.json",
                    "run_0/expressions.json", "summary.json"):
            assert (outs[0] / rel).exists()
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()

    def test_threads_flag_reproducible(self, trained_k0, tmp_path):
        results = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            code = main(["explain", "--weights", str(trained_k0 / "weights.json"),
                         "--benchmark", "K0", "--data-seed", "0",
                         "--seed", "4", "--runs", "1", "--offspring", "16",
                         "--generations", "10", "--target", "1e-9",
                         "--threads", threads, "--no-timings", "--out", str(out)])
            assert code == 0
            results.append((out / "run_0" / "convergence.csv").read_bytes())
        assert results[0] == results[1]

    def test_config_file_fills_defaulted_options(self, trained_k0, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("offspring = 7\ngenerations = 3\n")
        out = tmp_path / "o"
        assert main(["explain", "--config", str(cfg),
                     "--weights", str(trained_k0 / "weights.json"),
                     "--benchmark", "K0", "--seed", "0", "--target", "1e-9",
                     "--out", str(out)]) == 0
        config = Manifest.load(out / "manifest.json")["config"]
        assert (config["offspring"], config["generations"]) == (7, 3)
        lines = (out / "run_0" / "convergence.csv").read_text().splitlines()
        assert len(lines) == 1 + 3

    def test_explicit_flag_overrides_config_file(self, trained_k0, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("offspring = 7\ngenerations = 2\n")
        out = tmp_path / "o"
        assert main(["explain", "--config", str(cfg), "--offspring", "5",
                     "--weights", str(trained_k0 / "weights.json"),
                     "--benchmark", "K0", "--seed", "0", "--target", "1e-9",
                     "--out", str(out)]) == 0
        assert Manifest.load(out / "manifest.json")["config"]["offspring"] == 5

    def test_explicit_flag_at_its_default_overrides_config_file(self, trained_k0,
                                                                tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("offspring = 7\ngenerations = 2\n")
        out = tmp_path / "o"
        assert main(["explain", "--config", str(cfg), "--offspring", "200",
                     "--weights", str(trained_k0 / "weights.json"),
                     "--benchmark", "K0", "--seed", "0", "--target", "1e-9",
                     "--out", str(out)]) == 0
        config = Manifest.load(out / "manifest.json")["config"]
        assert (config["offspring"], config["generations"]) == (200, 2)

    @pytest.mark.parametrize("flag", [
        "--runs=0", "--generations=0", "--offspring=0", "--cadence=0",
        "--rows=0", "--mutation=2.0", "--mutation=-0.1", "--threads=0",
        "--runs=two", "--target=nan", "--seed=-1", "--data-seed=-1",
    ])
    def test_bad_option_exits_2_before_any_artifact(self, trained_k0, tmp_path,
                                                    flag):
        out = tmp_path / "o"
        assert main(["explain", "--weights", str(trained_k0 / "weights.json"),
                     "--benchmark", "K0", "--seed", "0", "--generations", "2",
                     "--offspring", "4", flag, "--out", str(out)]) == 2
        assert not out.exists()

    def test_defaults_come_from_evolve_config(self, trained_k0, tmp_path,
                                              monkeypatch):
        # the parser reads EvolveConfig when it is built; a short run keeps
        # this quick
        monkeypatch.setattr(ev.EvolveConfig, "n_offspring", 4)
        monkeypatch.setattr(ev.EvolveConfig, "max_generations", 2)
        out = tmp_path / "o"
        assert main(["explain", "--weights", str(trained_k0 / "weights.json"),
                     "--benchmark", "K0", "--seed", "0", "--out", str(out)]) == 0
        config = Manifest.load(out / "manifest.json")["config"]
        cfg = ev.EvolveConfig
        assert ([config[key] for key in ("offspring", "generations", "mutation",
                                         "target", "cadence", "rows", "cols",
                                         "constants")]
                == [4, 2, cfg.mutation_prob, cfg.fitness_target,
                    cfg.affine_refit_every, cfg.n_rows, cfg.n_cols, cfg.n_constants])

    def test_infinite_target_is_recorded_as_text(self, trained_k0, tmp_path):
        out = tmp_path / "o"
        assert main(["explain", "--weights", str(trained_k0 / "weights.json"),
                     "--benchmark", "K0", "--seed", "0", "--generations", "2",
                     "--offspring", "4", "--target", "inf", "--out", str(out)]) == 0

        def strict(token):
            raise AssertionError(f"{token} is not JSON")

        manifest = json.loads((out / "manifest.json").read_text(),
                              parse_constant=strict)
        assert manifest["config"]["target"] == "inf"

    def test_width_mismatch_exits_3(self, trained_k0, tmp_path):
        assert main(["explain", "--weights", str(trained_k0 / "weights.json"),
                     "--benchmark", "K1", "--seed", "0", "--runs", "1",
                     "--generations", "2", "--offspring", "4",
                     "--out", str(tmp_path / "o")]) == 3

    def test_expression_report_shape(self, trained_k0, tmp_path):
        out = tmp_path / "o"
        assert main(["explain", "--weights", str(trained_k0 / "weights.json"),
                     "--benchmark", "K0", "--seed", "5", "--runs", "1",
                     "--offspring", "20", "--generations", "5",
                     "--target", "1e-9", "--out", str(out)]) == 0
        report = json.loads((out / "run_0" / "expressions.json").read_text())
        assert [r["layer"] for r in report] == [0, 1, 2]
        assert len(report[0]["w"]) == 3 and len(report[2]["w"]) == 1


class TestSampleBoundary:
    def test_samples_csv_and_reuse(self, toy_classifier, tmp_path):
        cls_out, csv = toy_classifier
        out = tmp_path / "b"
        code = main(["sample-boundary", "--weights", str(cls_out / "weights.json"),
                     "--csv", str(csv), "--pool", "1000", "--keep", "64",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        lines = (out / "samples.csv").read_text().splitlines()
        assert lines[0] == "x0,x1,p_0,p_1,d"
        assert len(lines) == 65
        x_out = tmp_path / "x"
        code = main(["explain", "--weights", str(cls_out / "weights.json"),
                     "--samples", str(out / "samples.csv"), "--seed", "6",
                     "--runs", "1", "--offspring", "10", "--generations", "3",
                     "--cadence", "1", "--out", str(x_out)])
        assert code == 0

    @pytest.mark.parametrize("names", [["a", "d"], ["p_x", "d"]])
    def test_features_named_like_class_columns(self, toy_classifier, tmp_path, names):
        cls_out, csv = toy_classifier
        X, y, _ = mlp.load_dataset_csv(csv)
        named = tmp_path / "named.csv"
        mlp.save_dataset_csv(named, X, y, names)
        weights = str(cls_out / "weights.json")
        assert main(["sample-boundary", "--weights", weights, "--csv", str(named),
                     "--pool", "500", "--keep", "40", "--seed", "2",
                     "--out", str(tmp_path / "b")]) == 0
        assert main(["explain", "--weights", weights,
                     "--samples", str(tmp_path / "b" / "samples.csv"), "--seed", "6",
                     "--offspring", "10", "--generations", "2", "--cadence", "1",
                     "--out", str(tmp_path / "x")]) == 0

    @pytest.mark.parametrize("text", [
        "x0,x1,p_0,p_1,p_2,d\n0.1,0.2,0.3,0.3,0.4,0.1\n",
        "x0,x1,p_0,d\n0.1,0.2,1.0,0.0\n",
        "x0,p_0,p_1,d\n0.1,0.5,0.5,0.0\n",
        "x0,x1,p_0,p_1\n0.1,0.2,0.5,0.5\n",
    ])
    def test_samples_not_from_the_model_exit_3(self, toy_classifier, tmp_path, capsys,
                                               text):
        cls_out, _ = toy_classifier
        samples = tmp_path / "samples.csv"
        samples.write_text(text)
        assert main(["explain", "--weights", str(cls_out / "weights.json"),
                     "--samples", str(samples), "--seed", "6", "--offspring", "10",
                     "--generations", "2", "--out", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err.startswith("data error:")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("col,cell", [(0, "nan"), (2, "inf"), (4, "-inf")])
    def test_non_finite_sample_exits_3_before_any_artifact(self, toy_classifier,
                                                           tmp_path, capsys, col,
                                                           cell):
        cls_out, csv = toy_classifier
        weights = str(cls_out / "weights.json")
        assert main(["sample-boundary", "--weights", weights, "--csv", str(csv),
                     "--pool", "500", "--keep", "40", "--seed", "2",
                     "--out", str(tmp_path / "b")]) == 0
        lines = (tmp_path / "b" / "samples.csv").read_text().splitlines()
        cells = lines[3].split(",")
        cells[col] = cell
        lines[3] = ",".join(cells)
        samples = tmp_path / "samples.csv"
        samples.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        out = tmp_path / "x"
        assert main(["explain", "--weights", weights, "--samples", str(samples),
                     "--seed", "6", "--offspring", "10", "--generations", "2",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        column = lines[0].split(",")[col]
        assert str(samples) in err and "row 3," in err and repr(column) in err
        assert not out.exists()

    @pytest.mark.parametrize("keep,pool", [("0", "1000"), ("10", "0"),
                                           ("500", "100"), ("-1", "100")])
    def test_bad_option_exits_2_before_any_artifact(self, toy_classifier, tmp_path,
                                                    keep, pool):
        cls_out, csv = toy_classifier
        out = tmp_path / "b"
        assert main(["sample-boundary", "--weights", str(cls_out / "weights.json"),
                     "--csv", str(csv), "--pool", pool, "--keep", keep,
                     "--seed", "2", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("from_file", [False, True])
    def test_negative_seed_exits_2_before_any_artifact(self, toy_classifier, tmp_path,
                                                       capsys, from_file):
        cls_out, csv = toy_classifier
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -2\n" if from_file else "")
        out = tmp_path / "b"
        argv = ["sample-boundary", "--config", str(cfg),
                "--weights", str(cls_out / "weights.json"), "--csv", str(csv),
                "--pool", "200", "--keep", "20", "--out", str(out)]
        assert main(argv + ([] if from_file else ["--seed", "-2"])) == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("from_file", [False, True])
    @pytest.mark.parametrize("value,code,shown", [
        ("nan", 2, "'nan'"),
        ("inf", 2, "'inf'"),
        ("-inf", 2, "'-inf'"),
        ("-2", 2, "-2.0"),           # inverts the box
        ("1e308", 2, "1e+308"),      # overflows it
        ("-0.25", 0, None),          # narrows it
    ])
    def test_margin_errors_name_the_option(self, toy_classifier, tmp_path, capsys,
                                           value, code, shown, from_file):
        cls_out, csv = toy_classifier
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"margin = {value}\n" if from_file else "")
        out = tmp_path / "b"
        argv = ["sample-boundary", "--config", str(cfg),
                "--weights", str(cls_out / "weights.json"), "--csv", str(csv),
                "--pool", "200", "--keep", "20", "--seed", "2", "--out", str(out)]
        assert main(argv + ([] if from_file else [f"--margin={value}"])) == code
        errors = [err for err in capsys.readouterr().err.splitlines()
                  if err.startswith("config error:")]
        if code == 0:
            assert not errors and (out / "samples.csv").exists()
            return
        assert len(errors) == 1
        assert "--margin" in errors[0] and shown in errors[0]
        # argparse names the file of a value it rejects
        assert (str(cfg) in errors[0]) == (from_file and "'" in shown)
        assert not out.exists()

    def test_wide_margin_samples_quietly(self, toy_classifier, tmp_path, capsys):
        # the pool reaches 1e307 times the data's range, past what a layer's
        # product can hold
        cls_out, csv = toy_classifier
        out = tmp_path / "b"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["sample-boundary", "--weights", str(cls_out / "weights.json"),
                         "--csv", str(csv), "--pool", "1000", "--keep", "10",
                         "--margin", "1e307", "--seed", "2", "--out", str(out)])
        assert code == 0
        assert [str(w.message) for w in caught] == []
        assert "Warning" not in capsys.readouterr().err
        assert len((out / "samples.csv").read_text().splitlines()) == 11

    def test_regression_model_exits(self, trained_k0, tmp_path):
        # linear-head model cannot be boundary-sampled
        code = main(["sample-boundary", "--weights", str(trained_k0 / "weights.json"),
                     "--benchmark", "K0", "--pool", "100", "--keep", "10",
                     "--seed", "0", "--out", str(tmp_path / "o")])
        assert code != 0


class TestConfigFileValues:
    @pytest.mark.parametrize("command,line", [
        ("explain", "runs = two"),
        ("explain", "offspring = 1.5"),
        ("explain", "mutation = high"),
        ("explain", "no-timings = 3"),
        ("train", "optimizer = rmsprop"),
        ("train", "epochs = [1, 2]"),
        ("train", "help = true"),
        ("explain", "config = x.cfg"),
        ("train", "seed = -3"),
        ("explain", "seed = -3"),
    ])
    def test_bad_value_exits_2_before_any_artifact(self, trained_k0, tmp_path,
                                                   command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o"
        argv = [command, "--config", str(cfg), "--benchmark", "K0", "--seed", "0",
                "--out", str(out)]
        if command == "explain":
            argv += ["--weights", str(trained_k0 / "weights.json"),
                     "--generations", "2", "--offspring", "4"]
        else:
            argv += ["--epochs", "5"]
        assert main(argv) == 2
        assert not out.exists()

    def test_file_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"benchmark = K\xf60\n")
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--seed", "0",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("flag,line,names_file", [
        ("--runs=two", "", False),              # a flag argparse rejects
        ("", "runs = two", True),               # a file value argparse rejects
        ("--generations=0", "", False),         # a value EvolveConfig rejects
    ])
    def test_exit_2_prints_a_config_error_line(self, trained_k0, tmp_path, capsys,
                                               flag, line, names_file):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        argv = ["explain", "--config", str(cfg), "--benchmark", "K0", "--seed", "0",
                "--weights", str(trained_k0 / "weights.json"),
                "--out", str(tmp_path / "o")]
        assert main(argv + ([flag] if flag else [])) == 2
        errors = [err for err in capsys.readouterr().err.splitlines()
                  if err.startswith("config error:")]
        assert len(errors) == 1
        assert (str(cfg) in errors[0]) == names_file

    @pytest.mark.parametrize("command,line,option", [
        ("explain", "generations = 0", "--generations"),
        ("explain", "cadence = 0", "--cadence"),
        ("train", "batch-size = 0", "--batch-size"),
    ])
    def test_count_below_1_names_the_file_and_the_option(self, trained_k0, tmp_path,
                                                         capsys, command, line,
                                                         option):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o"
        argv = [command, "--config", str(cfg), "--benchmark", "K0", "--seed", "0",
                "--out", str(out)]
        if command == "explain":
            argv += ["--weights", str(trained_k0 / "weights.json")]
        assert main(argv) == 2
        errors = [err for err in capsys.readouterr().err.splitlines()
                  if err.startswith("config error:")]
        assert len(errors) == 1
        assert str(cfg) in errors[0] and option in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("from_file", [False, True])
    @pytest.mark.parametrize("command,option,value", [
        ("train", "--epochs", "-5"),
        ("train", "--epochs", "1.5"),
        ("train", "--lr", "0"),
        ("train", "--lr", "-0.5"),
        ("train", "--lr", "nan"),
        ("train", "--lr", "inf"),
        ("explain", "--constants", "-1"),
        ("explain", "--mutation", "2"),
        ("explain", "--mutation", "-0.1"),
        ("explain", "--mutation", "nan"),
        ("explain", "--target", "0"),
        ("explain", "--target", "-1e-3"),
        ("explain", "--target", "nan"),
        ("train", "--seed", "-5"),
        ("explain", "--seed", "-1"),
        ("explain", "--data-seed", "-1"),
    ])
    def test_value_a_config_class_rejects_names_the_option(
            self, trained_k0, tmp_path, capsys, command, option, value, from_file):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{option[2:]} = {value}\n" if from_file else "")
        out = tmp_path / "o"
        argv = [command, "--config", str(cfg), "--benchmark", "K0", "--seed", "0",
                "--out", str(out)] + ([] if from_file else [f"{option}={value}"])
        if command == "explain":
            argv += ["--weights", str(trained_k0 / "weights.json"),
                     "--generations", "2", "--offspring", "4"]
        else:
            argv += ["--epochs", "5"] if option != "--epochs" else []
        assert main(argv) == 2
        errors = [err for err in capsys.readouterr().err.splitlines()
                  if err.startswith("config error:")]
        assert len(errors) == 1
        assert option in errors[0]
        assert (str(cfg) in errors[0]) == from_file
        assert not out.exists()

    @pytest.mark.parametrize("command,option,value", [
        ("train", "--epochs", "0"),
        ("train", "--lr", "1e-300"),
        ("explain", "--constants", "0"),
        ("explain", "--mutation", "0"),
        ("explain", "--mutation", "1"),
        ("explain", "--target", "inf"),
    ])
    def test_edge_values_the_config_classes_accept_still_run(
            self, trained_k0, tmp_path, command, option, value):
        out = tmp_path / "o"
        argv = [command, "--benchmark", "K0", "--seed", "0", "--out", str(out),
                f"{option}={value}"]
        if command == "explain":
            argv += ["--weights", str(trained_k0 / "weights.json"),
                     "--generations", "2", "--offspring", "4"]
        elif option != "--epochs":
            argv += ["--epochs", "5"]
        assert main(argv) == 0

    def test_untyped_value_is_read_as_text(self, tmp_path, monkeypatch):
        # csv = 5 names the file "5", which is missing: a data error
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("csv = 5\n")
        assert main(["train", "--config", str(cfg), "--arch", "3", "--seed", "0",
                     "--out", str(tmp_path / "o")]) == 3

    def test_values_take_the_option_types(self, trained_k0, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text('runs = "2"\nmutation = 0.25\ntarget = 1e-9\n'
                       "no-timings = true\n")
        out = tmp_path / "o"
        assert main(["explain", "--config", str(cfg),
                     "--weights", str(trained_k0 / "weights.json"),
                     "--benchmark", "K0", "--seed", "0", "--generations", "2",
                     "--offspring", "4", "--out", str(out)]) == 0
        config = Manifest.load(out / "manifest.json")["config"]
        assert (config["runs"], config["mutation"], config["timings"]) == (2, 0.25, False)


class TestConfigFileRequiredOptions:
    """A config file may supply the options a command requires."""

    def test_train_takes_its_seed_from_the_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\nepochs = 5\n")
        out = tmp_path / "o"
        assert main(["train", "--benchmark", "K0", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert Manifest.load(out / "manifest.json")["seeds"] == [5]

    def test_explain_takes_weights_and_seed_from_the_file(self, trained_k0, tmp_path):
        weights = str(trained_k0 / "weights.json")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"weights = {json.dumps(weights)}\nseed = 3\n"
                       "generations = 2\noffspring = 4\n")
        out = tmp_path / "o"
        assert main(["explain", "--config", str(cfg), "--benchmark", "K0",
                     "--out", str(out)]) == 0
        manifest = Manifest.load(out / "manifest.json")
        assert manifest["seeds"] == [3]
        assert manifest["config"]["weights"] == weights

    def test_eval_takes_its_genotype_from_the_file(self, tmp_path):
        weights, gpath = TestEval().make_identity_artifacts(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"genotype = {json.dumps(str(gpath))}\n")
        out = tmp_path / "o"
        assert main(["eval", "--config", str(cfg), "--weights", str(weights),
                     "--domain=-1:1", "--points", "5", "--out", str(out)]) == 0
        assert Manifest.load(out / "manifest.json")["config"]["genotype"] == str(gpath)

    @pytest.mark.parametrize("argv,code", [([], 2), (["--help"], 0),
                                           (["train", "--help"], 0)])
    def test_command_line_without_a_run(self, argv, code):
        assert main(argv) == code


class TestEval:
    def make_identity_artifacts(self, tmp_path):
        # identity MLP: single linear layer y = x
        model = mlp.MlpModel([(np.eye(1), np.zeros(1))])
        weights = tmp_path / "w.json"
        mlp.save_weights(model, weights)
        genotype = {
            "chromosomes": [{
                "cgp": {
                    "config": {"n_inputs": 1, "n_rows": 1, "n_cols": 1,
                               "n_constants": 0, "levels_back": 1, "n_outputs": 1},
                    "function_genes": [0, 0, 0],
                    "output_genes": [0],
                    "constants": [],
                },
                "w": [1.0], "b": [0.0], "layer_index": 0,
            }]
        }
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(genotype))
        return weights, gpath

    def test_identity_columns_equal(self, tmp_path):
        weights, gpath = self.make_identity_artifacts(tmp_path)
        out = tmp_path / "o"
        code = main(["eval", "--genotype", str(gpath), "--weights", str(weights),
                     "--domain=-1:1", "--points", "41", "--out", str(out)])
        assert code == 0
        lines = (out / "grid.csv").read_text().splitlines()
        assert lines[0] == "x0,y_nn,y_expr"
        assert len(lines) == 42
        for line in lines[1:]:
            x, y_nn, y_expr = (float(v) for v in line.split(","))
            assert y_nn == y_expr == x

    def test_extrapolation_span_is_five_times(self, tmp_path):
        weights, gpath = self.make_identity_artifacts(tmp_path)
        out = tmp_path / "o"
        assert main(["eval", "--genotype", str(gpath), "--weights", str(weights),
                     "--domain=-1:1", "--points", "5", "--out", str(out)]) == 0
        lines = (out / "grid.csv").read_text().splitlines()[1:]
        xs = [float(line.split(",")[0]) for line in lines]
        assert xs[0] == -5.0 and xs[-1] == 5.0      # width 2 -> extended to 10
        manifest = Manifest.load(out / "manifest.json")
        interp = manifest["config"]["interpolation"]
        extrap = manifest["config"]["extrapolation"]
        assert (extrap[1] - extrap[0]) == 5 * (interp[1] - interp[0])

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_bad_option_exits_2_before_any_artifact(self, tmp_path, points):
        weights, gpath = self.make_identity_artifacts(tmp_path)
        out = tmp_path / "o"
        assert main(["eval", "--genotype", str(gpath), "--weights", str(weights),
                     "--domain=-1:1", "--points", points, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("domain", ["nan:1", "-inf:1", "-1:inf", "1:-1", "1",
                                        "-1e308:1e308",     # the window's ends overflow
                                        "-3e307:3e307",     # its span overflows
                                        "-2:2,1e308:1.7e308"])  # a midpoint overflows
    def test_bad_domain_exits_2_before_any_artifact(self, tmp_path, domain):
        weights, gpath = self.make_identity_artifacts(tmp_path)
        out = tmp_path / "o"
        assert main(["eval", "--genotype", str(gpath), "--weights", str(weights),
                     f"--domain={domain}", "--points", "5", "--out", str(out)]) == 2
        assert not out.exists()

    def test_negative_domain_as_a_separate_argument(self, tmp_path):
        # y = x0 + x1 for both the network and its expression
        weights = tmp_path / "w.json"
        mlp.save_weights(mlp.MlpModel([(np.ones((2, 1)), np.zeros(1))]), weights)
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"chromosomes": [{
            "cgp": {"config": {"n_inputs": 2, "n_rows": 1, "n_cols": 1,
                               "n_constants": 0, "levels_back": 1, "n_outputs": 1},
                    "function_genes": [0, 0, 1], "output_genes": [2],
                    "constants": []},
            "w": [1.0], "b": [0.0], "layer_index": 0}]}))
        out = tmp_path / "o"
        assert main(["eval", "--genotype", str(gpath), "--weights", str(weights),
                     "--domain", "-2:2,-2:2", "--points", "5", "--out", str(out)]) == 0
        assert Manifest.load(out / "manifest.json")["config"]["domain"] == "-2:2,-2:2"
        grid = np.loadtxt(out / "grid.csv", delimiter=",", skiprows=1)
        assert np.array_equal(grid[:, 2], grid[:, 3])

    @staticmethod
    def window_artifacts(tmp_path, config):
        # identity MLP, and y = (x + x) * (x + x) - x on a 1 x 3 grid whose
        # every node reads the input or the column just before it
        weights = tmp_path / "w.json"
        mlp.save_weights(mlp.MlpModel([(np.eye(1), np.zeros(1))]), weights)
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"chromosomes": [{
            "cgp": {"config": {"n_inputs": 1, "n_rows": 1, "n_cols": 3,
                               "n_constants": 0, "n_outputs": 1, **config},
                    "function_genes": [0, 0, 0, 2, 1, 1, 1, 2, 0],
                    "output_genes": [3], "constants": []},
            "w": [1.0], "b": [0.0], "layer_index": 0}]}))
        return weights, gpath

    @pytest.mark.parametrize("config", [{}, {"levels_back": 3}, {"levels_back": 2},
                                        {"levels_back": 1}])
    def test_levels_back_in_1_to_n_cols_loads(self, tmp_path, config):
        weights, gpath = self.window_artifacts(tmp_path, config)
        out = tmp_path / "o"
        assert main(["eval", "--genotype", str(gpath), "--weights", str(weights),
                     "--domain=-1:1", "--points", "9", "--out", str(out)]) == 0
        grid = np.loadtxt(out / "grid.csv", delimiter=",", skiprows=1)
        x = grid[:, 0]
        assert np.array_equal(grid[:, 2], (x + x) * (x + x) - x)

    @pytest.mark.parametrize("value", [0, 4, True, "3", 2.0, None])
    def test_levels_back_outside_1_to_n_cols_exits_3(self, tmp_path, capsys, value):
        weights, gpath = self.window_artifacts(tmp_path, {"levels_back": value})
        out = tmp_path / "o"
        assert main(["eval", "--genotype", str(gpath), "--weights", str(weights),
                     "--domain=-1:1", "--points", "9", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "levels_back" in err
        assert not out.exists()

    def test_genotype_directory_exits_3(self, tmp_path, capsys):
        weights, _ = self.make_identity_artifacts(tmp_path)
        out = tmp_path / "o"
        assert main(["eval", "--genotype", str(tmp_path), "--weights", str(weights),
                     "--domain=-1:1", "--points", "5", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("layer,field,index,value", [
        (0, "w", 0, float("nan")),
        (1, "b", 0, float("inf")),
        (0, "function_genes", 0, 1.5),       # would read as opcode 1
        (0, "function_genes", 0, True),
        (1, "output_genes", 0, 1.5),         # would read as source 1
        (0, "function_genes", 1, 10 ** 30),  # past int64
        (1, "layer_index", None, 7),
    ])
    def test_bad_genotype_file_exits_3_before_any_artifact(
            self, tmp_path, capsys, layer, field, index, value):
        # two identity layers, y = x, each chromosome passing x through
        weights = tmp_path / "w.json"
        mlp.save_weights(mlp.MlpModel([(np.eye(1), np.zeros(1))] * 2), weights)
        net = {"chromosomes": [{
            "cgp": {"config": {"n_inputs": 1, "n_rows": 1, "n_cols": 1,
                               "n_constants": 0, "levels_back": 1, "n_outputs": 1},
                    "function_genes": [0, 0, 0], "output_genes": [0],
                    "constants": []},
            "w": [1.0], "b": [0.0], "layer_index": i} for i in range(2)]}
        rec = net["chromosomes"][layer]
        if index is None:
            rec[field] = value
        else:
            (rec if field in rec else rec["cgp"])[field][index] = value
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(net))
        out = tmp_path / "o"
        assert main(["eval", "--genotype", str(gpath), "--weights", str(weights),
                     "--domain=-1:1", "--points", "5", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("data error:")
        assert not out.exists()

    @pytest.mark.parametrize("kind,path,value,field", [
        ("genotype", ("chromosomes", 0, "w", 0), True, "layer 0 w"),
        ("genotype", ("chromosomes", 1, "b", 0), False, "layer 1 b"),
        ("genotype", ("chromosomes", 0, "w", 0), "1.0", "layer 0 w"),
        ("genotype", ("chromosomes", 0, "cgp", "constants", 0), True, "constants"),
        ("genotype", ("chromosomes", 1, "cgp", "constants", 0), "0.5", "constants"),
        ("weights", ("layers", 0, "W", 0, 0), True, "layer 0 W"),
        ("weights", ("layers", 1, "W", 0, 0), False, "layer 1 W"),
        ("weights", ("layers", 1, "b", 0), "0", "layer 1 b"),
        ("genotype", ("chromosomes", 1, "w", 0), 10 ** 400, "layer 1 w"),  # past float
        ("weights", ("layers", 0, "b", 0), 10 ** 400, "layer 0 b"),
    ])
    def test_non_number_json_value_exits_3_before_any_artifact(
            self, tmp_path, capsys, kind, path, value, field):
        # two identity layers, y = x, each chromosome passing x through; every
        # value set here used to read as a float, or to raise a traceback
        weights = tmp_path / "w.json"
        mlp.save_weights(mlp.MlpModel([(np.eye(1), np.zeros(1))] * 2), weights)
        records = {"weights": json.loads(weights.read_text()), "genotype": {
            "chromosomes": [{
                "cgp": {"config": {"n_inputs": 1, "n_rows": 1, "n_cols": 1,
                                   "n_constants": 1, "levels_back": 1, "n_outputs": 1},
                        "function_genes": [0, 0, 0], "output_genes": [0],
                        "constants": [0.5]},
                "w": [1.0], "b": [0.0], "layer_index": i} for i in range(2)]}}
        rec = records[kind]
        for key in path[:-1]:
            rec = rec[key]
        rec[path[-1]] = value
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(records["genotype"]))
        weights.write_text(json.dumps(records["weights"]))
        out = tmp_path / "o"
        assert main(["eval", "--genotype", str(gpath), "--weights", str(weights),
                     "--domain=-1:1", "--points", "5", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert str(gpath if kind == "genotype" else weights) in err and field in err
        assert not out.exists()

    @pytest.mark.parametrize("n_inputs,widths", [
        (1, [3]),                # one chromosome of the first hidden layer's width
        (1, [3, 1]),
        (1, [3, 2, 1]),
        (1, [3, 3, 1, 1]),
        (2, [3, 3, 1]),          # the right widths, but two inputs
        (1, []),                 # no chromosomes at all
    ])
    def test_genotype_of_other_layers_exits_3_before_any_artifact(
            self, trained_k0, tmp_path, capsys, n_inputs, widths):
        net = surrogate.NetGenotype(())
        if widths:
            net = surrogate.random_net_genotypes(n_inputs, widths,
                                                 np.random.default_rng(0), 1, 2, 2)[0]
        gpath = tmp_path / "g.json"
        gpath.write_text(surrogate.net_to_json(net))
        out = tmp_path / "o"
        assert main(["eval", "--genotype", str(gpath),
                     "--weights", str(trained_k0 / "weights.json"),
                     "--benchmark", "K0", "--points", "5", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(gpath) in err
        assert not out.exists()

    def test_classifier_y_expr_is_a_probability(self, toy_classifier, tmp_path):
        model_dir, csv = toy_classifier
        weights = model_dir / "weights.json"
        explained = tmp_path / "x"
        assert main(["explain", "--weights", str(weights), "--csv", str(csv),
                     "--seed", "4", "--offspring", "8", "--generations", "2",
                     "--cadence", "1", "--out", str(explained)]) == 0
        genotype = explained / "run_0" / "genotype.json"
        out = tmp_path / "o"
        assert main(["eval", "--genotype", str(genotype), "--weights", str(weights),
                     "--domain=-2:2,-2:2", "--points", "25", "--out", str(out)]) == 0
        header = (out / "grid.csv").read_text().split("\n", 1)[0].split(",")
        grid = np.loadtxt(out / "grid.csv", delimiter=",", skiprows=1)
        net = surrogate.net_from_json(genotype.read_text())
        logits = surrogate.genotype_forward(net, grid[:, :2])[-1].h_values
        y_expr = grid[:, header.index("y_expr")]
        assert np.array_equal(y_expr, mlp.softmax(logits)[:, 0])
        assert np.all((0.0 <= y_expr) & (y_expr <= 1.0))

    def test_benchmark_grid_includes_truth(self, trained_k0, tmp_path):
        out = tmp_path / "o"
        genotype_out = tmp_path / "x"
        assert main(["explain", "--weights", str(trained_k0 / "weights.json"),
                     "--benchmark", "K0", "--seed", "9", "--runs", "1",
                     "--offspring", "10", "--generations", "3",
                     "--target", "1e-9", "--out", str(genotype_out)]) == 0
        code = main(["eval", "--genotype", str(genotype_out / "run_0/genotype.json"),
                     "--weights", str(trained_k0 / "weights.json"),
                     "--benchmark", "K0", "--points", "17", "--out", str(out)])
        assert code == 0
        lines = (out / "grid.csv").read_text().splitlines()
        assert lines[0] == "x,y_nn,y_expr,y_true"
        assert len(lines) == 18


class TestOversizeOptions:
    """A size option whose first array cannot be allocated exits 2 with one
    ``config error:`` line.  Each first array is over 2^57 bytes, more than
    any virtual address space, so its allocation fails at once whatever the
    overcommit setting and touches no memory, yet under numpy's 2^63-byte
    limit, so numpy raises ``MemoryError`` and not ``ValueError``."""

    def check(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory") and "Traceback" not in err
        assert len(err.splitlines()) == 1

    def test_sample_boundary_pool(self, toy_classifier, tmp_path, capsys):
        # the pool is (2^54, 2) float64: 2^58 bytes
        cls_out, csv = toy_classifier
        out = tmp_path / "b"
        self.check(["sample-boundary", "--weights", str(cls_out / "weights.json"),
                    "--csv", str(csv), "--pool", str(2 ** 54), "--keep", "10",
                    "--seed", "2", "--out", str(out)], capsys)
        assert not out.exists()

    def test_explain_offspring(self, trained_k0, tmp_path, capsys):
        # the first position's opcodes are (2^48, 100) int64: 2^57.6 bytes
        out = tmp_path / "x"
        self.check(["explain", "--weights", str(trained_k0 / "weights.json"),
                    "--benchmark", "K0", "--seed", "0", "--offspring", str(2 ** 48),
                    "--generations", "1", "--out", str(out)], capsys)
        assert not out.exists()

    def test_explain_keeps_an_out_that_existed(self, trained_k0, tmp_path, capsys):
        out = tmp_path / "x"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        self.check(["explain", "--weights", str(trained_k0 / "weights.json"),
                    "--benchmark", "K0", "--seed", "0", "--offspring", str(2 ** 48),
                    "--generations", "1", "--out", str(out)], capsys)
        assert (out / "notes.txt").read_text() == "kept"

    def test_eval_points(self, tmp_path, capsys):
        # the grid is 2^55 float64: 2^58 bytes
        weights, gpath = TestEval().make_identity_artifacts(tmp_path)
        out = tmp_path / "o"
        self.check(["eval", "--genotype", str(gpath), "--weights", str(weights),
                    "--domain=-1:1", "--points", str(2 ** 55), "--out", str(out)], capsys)
        assert not out.exists()


class TestUnwritableOut:
    """An --out that names a file, or lies under one, exits 3 with one
    ``data error:`` line and leaves the file as it was."""

    def argv(self, command, request, tmp_path):
        if command == "train":
            return ["train", "--benchmark", "K0", "--seed", "0", "--epochs", "5"]
        if command == "explain":
            k0 = request.getfixturevalue("trained_k0")
            return ["explain", "--weights", str(k0 / "weights.json"), "--benchmark",
                    "K0", "--seed", "0", "--generations", "2", "--offspring", "4"]
        if command == "sample-boundary":
            cls_out, csv = request.getfixturevalue("toy_classifier")
            return ["sample-boundary", "--weights", str(cls_out / "weights.json"),
                    "--csv", str(csv), "--pool", "200", "--keep", "20", "--seed", "2"]
        weights, gpath = TestEval().make_identity_artifacts(tmp_path)
        return ["eval", "--genotype", str(gpath), "--weights", str(weights),
                "--domain=-1:1", "--points", "5"]

    @pytest.mark.parametrize("under", [False, True])
    @pytest.mark.parametrize("command", ["train", "explain", "sample-boundary", "eval"])
    def test_exits_3_and_keeps_the_file(self, request, tmp_path, capsys, command, under):
        blocker = tmp_path / "f"
        blocker.write_text("kept")
        out = blocker / "o" if under else blocker
        assert main(self.argv(command, request, tmp_path) + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and len(err.splitlines()) == 1
        assert blocker.read_text() == "kept"

    @pytest.mark.parametrize("under", [False, True])
    @pytest.mark.parametrize("command", ["train", "sample-boundary"])
    def test_fails_before_the_work(self, request, tmp_path, monkeypatch, command, under):
        # neither a model is trained nor a pool sampled for an --out that
        # cannot be made
        argv = self.argv(command, request, tmp_path)

        def never(*args, **kwargs):
            raise AssertionError(f"{command} started its work before checking --out")

        monkeypatch.setattr(mlp, "train", never)
        monkeypatch.setattr(bdry, "sample_near_boundary", never)
        blocker = tmp_path / "f"
        blocker.write_text("kept")
        out = blocker / "o" if under else blocker
        assert main(argv + ["--out", str(out)]) == 3
        assert blocker.read_text() == "kept"


class TestReport:
    def test_summarizes_runs(self, trained_k0, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["explain", "--weights", str(trained_k0 / "weights.json"),
                     "--benchmark", "K0", "--seed", "11", "--runs", "2",
                     "--offspring", "10", "--generations", "3",
                     "--target", "1e-9", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--dir", str(out)]) == 0
        text = capsys.readouterr().out
        assert "best:" in text and "mean:" in text

    def test_runs_are_listed_by_run_number(self, tmp_path, capsys):
        # as strings, run_10 and run_11 sort before run_2
        for r in range(12):
            (tmp_path / f"run_{r}").mkdir()
            (tmp_path / f"run_{r}" / "convergence.csv").write_text(
                f"generation,best_total,mean_total,output_loss\n0,{r + 1}.5,9.0,0.25\n")
        assert main(["report", "--dir", str(tmp_path)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:-1]
        assert [row.split()[:2] for row in rows] == [[str(r), f"{r + 1}.5"]
                                                     for r in range(12)]

    def test_empty_dir_exits_3(self, tmp_path):
        assert main(["report", "--dir", str(tmp_path)]) == 3

    @pytest.mark.parametrize("text", [
        "generation,best_total,mean_total,output_loss\n",
        "",
        "generation,best_total,mean_total,output_loss\n0,1.0,oops,1.0\n",
        "generation,best_total,mean_total,output_loss\n0,1.0,2.0\n",
        "generation,mean_total\n0,1.0\n",
    ])
    def test_bad_convergence_csv_exits_3(self, tmp_path, text):
        run_dir = tmp_path / "run_0"
        run_dir.mkdir()
        (run_dir / "convergence.csv").write_text(text)
        assert main(["report", "--dir", str(tmp_path)]) == 3

    def test_runs_with_other_columns_exit_3(self, tmp_path, capsys):
        for run, header, row in [
                ("run_0", "generation,best_total,mean_total,layer0_mse,layer1_mse,"
                          "output_loss", "0,1.0,2.0,0.5,0.5,0.5"),
                ("run_1", "generation,best_total,mean_total,layer0_mse,output_loss",
                 "0,1.0,2.0,0.5,0.5")]:
            (tmp_path / run).mkdir()
            (tmp_path / run / "convergence.csv").write_text(f"{header}\n{row}\n")
        assert main(["report", "--dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "run_1" in err


class TestManifest:
    def test_round_trip(self, tmp_path):
        m = Manifest("train", {"benchmark": "K0"}, seeds=[1, 2])
        m.add("weights", tmp_path / "w.json")
        m.save(tmp_path)
        loaded = Manifest.load(tmp_path / "manifest.json")
        assert loaded["command"] == "train"
        assert loaded["config"] == {"benchmark": "K0"}
        assert loaded["seeds"] == [1, 2]
        assert set(loaded["artifacts"]) == {"weights", "manifest"}
