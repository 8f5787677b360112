import json
from pathlib import Path

import numpy as np
import pytest

from netexpr import mlp, surrogate
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
        "--epochs=-5",
    ])
    def test_bad_option_exits_2_before_any_artifact(self, tmp_path, flag):
        out = tmp_path / "o"
        assert main(["train", "--benchmark", "K0", "--seed", "0", "--epochs", "5",
                     flag, "--out", str(out)]) == 2
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
        "--runs=two",
    ])
    def test_bad_option_exits_2_before_any_artifact(self, trained_k0, tmp_path,
                                                    flag):
        out = tmp_path / "o"
        assert main(["explain", "--weights", str(trained_k0 / "weights.json"),
                     "--benchmark", "K0", "--seed", "0", "--generations", "2",
                     "--offspring", "4", flag, "--out", str(out)]) == 2
        assert not out.exists()

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
