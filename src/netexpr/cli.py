"""Command-line front end: train, explain, sample-boundary, eval, report.

Every randomized command takes an explicit --seed; outputs are UTF-8
CSV/JSON files under --out, and each command writes a manifest recording
its config snapshot, seeds, and every artifact path.

A ``--config`` file's ``key = value`` lines can set any option of the
command, required ones included: they become ``--key=value`` tokens
between the command and the rest of the command line, which is parsed
once, so argparse checks both alike and a flag on the command line wins.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import benchmarks as bench
from . import boundary as bdry
from . import evolve as ev
from . import mlp
from . import surrogate
from .errors import ConfigError, DataError, NumericError


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


class Manifest:
    """Record of one command run: config snapshot, seeds, artifact paths."""

    def __init__(self, command: str, config: dict, seeds: list[int]):
        self.command = command
        self.config = config
        self.seeds = seeds
        self.artifacts: dict[str, str] = {}
        self.created = _utc_now()

    def add(self, name: str, path: Path) -> Path:
        self.artifacts[name] = str(path)
        return path

    def to_dict(self) -> dict:
        return {"command": self.command, "config": self.config,
                "seeds": self.seeds, "artifacts": self.artifacts,
                "created": self.created}

    def save(self, out_dir: Path) -> Path:
        path = out_dir / "manifest.json"
        self.artifacts["manifest"] = str(path)
        path.write_text(json.dumps(self.to_dict(), indent=2))
        return path

    @staticmethod
    def load(path: str | Path) -> dict:
        return json.loads(Path(path).read_text())


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_arch(value) -> list[int]:
    if value is None:
        raise ConfigError("no architecture given and none implied by a benchmark")
    if isinstance(value, tuple):     # a benchmark's own architecture
        return list(value)
    try:
        return [int(tok) for tok in str(value).split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad architecture {value!r}; expected e.g. 3,3") from None


def _load_table(args):
    """Dataset from --benchmark or --csv; returns (X, y, names, spec|None)."""
    if args.benchmark:
        spec = bench.get_benchmark(args.benchmark)
        X, y = bench.generate(spec, seed=args.seed)
        return X, y, list(spec.variables), spec
    if args.csv:
        X, y, names = mlp.load_dataset_csv(args.csv)
        return X, y, names, None
    raise ConfigError("need --benchmark or --csv")


def _train_head(task, y) -> str | None:
    """The network head --task asks for; None leaves the guess from the
    targets (class ids train a softmax head) to ``mlp.train``."""
    if task is None:
        return None
    if task == ev.REGRESSION:
        return mlp.LINEAR
    if not np.issubdtype(np.asarray(y).dtype, np.integer):
        raise ConfigError("--task classification needs class-id targets "
                          "(non-negative integers)")
    return mlp.SOFTMAX


def cmd_train(args) -> int:
    X, y, names, spec = _load_table(args)
    arch = _parse_arch(args.arch if args.arch else (spec.arch if spec else None))
    # a benchmark's own training setup, else TrainConfig's; same field names
    defaults = spec or mlp.TrainConfig()
    optimizer = args.optimizer or defaults.optimizer
    lr = args.lr if args.lr is not None else defaults.learning_rate
    epochs = args.epochs if args.epochs is not None else defaults.epochs
    batch = args.batch_size if args.batch_size is not None else defaults.batch_size
    if any(w < 1 for w in arch):
        raise ConfigError(f"hidden widths must be >= 1, got {arch}")
    head = _train_head(args.task, y)
    try:
        cfg = mlp.TrainConfig(optimizer=optimizer, learning_rate=lr, epochs=epochs,
                              batch_size=batch, seed=args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    out = _out_dir(args)
    (Xtr, ytr), (Xte, yte) = bench.split((X, y), seed=args.seed)
    model = mlp.train((Xtr, ytr), arch, cfg, head=head)

    metrics = {
        "train_loss": mlp.train_loss(model, Xtr, ytr),
        "test_loss": mlp.train_loss(model, Xte, yte),
        "train_mse": mlp.mse(model, Xtr, ytr),
        "test_mse": mlp.mse(model, Xte, yte),
    }
    if model.head == mlp.SOFTMAX:
        metrics["train_accuracy"] = mlp.accuracy(model, Xtr, ytr)
        metrics["test_accuracy"] = mlp.accuracy(model, Xte, yte)

    manifest = Manifest("train", {
        "benchmark": args.benchmark, "csv": args.csv, "arch": arch,
        "optimizer": optimizer, "lr": lr, "epochs": epochs,
        "batch_size": batch, "feature_names": names, "task": args.task,
        "head": model.head,
    }, seeds=[args.seed])
    mlp.save_weights(model, manifest.add("weights", out / "weights.json"))
    manifest.add("metrics", out / "metrics.json").write_text(
        json.dumps(metrics, indent=2))
    manifest.save(out)
    for key, value in metrics.items():
        print(f"{key}: {value:.6g}")
    return 0


def _explain_inputs(args, model):
    """Input rows for tracing: benchmark train split, a CSV, or sampled points."""
    if args.samples:
        return _split_samples_csv(args.samples)
    if args.benchmark:
        spec = bench.get_benchmark(args.benchmark)
        X, y = bench.generate(spec, seed=args.data_seed)
        (Xtr, _), _ = bench.split((X, y), seed=args.data_seed)
        return Xtr, list(spec.variables)
    if args.csv:
        X, _, names = mlp.load_dataset_csv(args.csv)
        return X, names
    raise ConfigError("need --benchmark, --csv, or --samples")


def _split_samples_csv(path):
    """Read a sample-boundary CSV back: feature columns end before p_0."""
    X, last, names = mlp.load_dataset_csv(path)
    full = np.column_stack([X, np.asarray(last, dtype=float)])
    header = names + ["d"]
    feat_end = len(header)
    for i, name in enumerate(header):
        if name.startswith("p_") or name == "d":
            feat_end = i
            break
    if feat_end == 0:
        raise DataError(f"samples file {path} has no feature columns")
    return full[:, :feat_end], header[:feat_end]


def cmd_explain(args) -> int:
    if args.runs < 1:
        raise ConfigError("--runs must be >= 1")
    if args.threads < 1:
        raise ConfigError("--threads must be >= 1")
    model = mlp.load_weights(args.weights)
    X, names = _explain_inputs(args, model)
    if X.shape[1] != model.dims[0]:
        raise DataError(f"data has {X.shape[1]} features, model takes {model.dims[0]}")
    task = ev.CLASSIFICATION if model.head == mlp.SOFTMAX else ev.REGRESSION
    cadence = args.cadence if args.cadence is not None else \
        (50 if task == ev.CLASSIFICATION else 1)

    seeds = [args.seed + r for r in range(args.runs)]
    try:
        cfgs = [ev.EvolveConfig(
            n_offspring=args.offspring, max_generations=args.generations,
            mutation_prob=args.mutation, fitness_target=args.target,
            affine_refit_every=cadence, seed=run_seed, n_rows=args.rows,
            n_cols=args.cols, n_constants=args.constants) for run_seed in seeds]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    out = _out_dir(args)
    trace = mlp.forward_trace(model, X)
    manifest = Manifest("explain", {
        "weights": args.weights, "benchmark": args.benchmark, "csv": args.csv,
        "samples": args.samples, "data_seed": args.data_seed, "task": task,
        "runs": args.runs, "offspring": args.offspring,
        "generations": args.generations, "mutation": args.mutation,
        "target": args.target, "cadence": cadence, "rows": args.rows,
        "cols": args.cols, "constants": args.constants,
        "threads": args.threads, "timings": not args.no_timings,
    }, seeds=seeds)

    summary_runs = []
    for r, cfg in enumerate(cfgs):
        run_dir = out / f"run_{r}"
        run_dir.mkdir(parents=True, exist_ok=True)
        csv_path = manifest.add(f"run_{r}/convergence", run_dir / "convergence.csv")
        with open(csv_path, "w") as stream:
            best, log = ev.evolve(trace, task, cfg, log_stream=stream,
                                  include_timing=not args.no_timings)
        manifest.add(f"run_{r}/genotype", run_dir / "genotype.json").write_text(
            surrogate.net_to_json(best))
        report = surrogate.expression_report(best, feature_names=names)
        manifest.add(f"run_{r}/expressions", run_dir / "expressions.json").write_text(
            json.dumps(report, indent=2))
        final = log.records[-1]
        summary_runs.append({
            "run": r, "seed": cfg.seed, "generations": len(log.records),
            "best_total": final.best_total, "mean_total": final.mean_total,
            "layer_mses": list(final.layer_mses), "output_loss": final.output_loss,
        })
        print(f"run {r}: best {final.best_total:.6g} "
              f"after {len(log.records)} generations")

    best_runs = [r["best_total"] for r in summary_runs]
    summary = {
        "runs": summary_runs,
        "best_total": min(best_runs),
        "mean_total": sum(best_runs) / len(best_runs),
        "per_layer_best": [min(r["layer_mses"][i] for r in summary_runs)
                           for i in range(len(summary_runs[0]["layer_mses"]))],
        "output_loss_best": min(r["output_loss"] for r in summary_runs),
    }
    manifest.add("summary", out / "summary.json").write_text(
        json.dumps(summary, indent=2))
    manifest.save(out)
    print(f"best over {args.runs} run(s): {summary['best_total']:.6g}")
    return 0


def cmd_sample_boundary(args) -> int:
    model = mlp.load_weights(args.weights)
    if model.head != mlp.SOFTMAX:
        raise DataError(f"{args.weights} is not a classifier (head is "
                        f"{model.head}); boundary sampling needs softmax")
    X, _, names, spec = _load_table(args)
    bounds = bdry.bounds_from_data(X, margin=args.margin)
    try:
        cfg = bdry.BoundarySampleConfig(bounds=bounds, pool_size=args.pool,
                                        keep_size=args.keep, seed=args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    out = _out_dir(args)
    sample = bdry.sample_near_boundary(model, cfg)
    manifest = Manifest("sample-boundary", {
        "weights": args.weights, "benchmark": args.benchmark, "csv": args.csv,
        "pool": args.pool, "keep": args.keep, "margin": args.margin,
        "bounds": bounds.tolist(), "feature_names": names,
    }, seeds=[args.seed])
    path = manifest.add("samples", out / "samples.csv")
    bdry.write_boundary_csv(path, sample, feature_names=names)
    manifest.save(out)
    print(f"kept {sample.x.shape[0]} of {args.pool} points; "
          f"max distance {sample.distance.max():.6g}")
    return 0


def _parse_domain(text: str) -> list[tuple[float, float]]:
    out = []
    for part in text.split(","):
        try:
            lo, hi = (float(v) for v in part.split(":"))
        except ValueError:
            raise ConfigError(f"bad domain {part!r}; expected lo:hi") from None
        if lo > hi:
            raise ConfigError(f"domain {part!r} has lo > hi")
        out.append((lo, hi))
    return out


def cmd_eval(args) -> int:
    if args.points < 1:
        raise ConfigError("--points must be >= 1")
    model = mlp.load_weights(args.weights)
    net = surrogate.net_from_json(Path(args.genotype).read_text())
    spec = bench.get_benchmark(args.benchmark) if args.benchmark else None
    if args.domain:
        ranges = _parse_domain(args.domain)
    elif spec:
        ranges = list(spec.ranges)
    else:
        raise ConfigError("need --domain or --benchmark for the grid ranges")
    if len(ranges) != model.dims[0]:
        raise DataError(f"domain covers {len(ranges)} features, "
                        f"model takes {model.dims[0]}")
    k = args.feature
    if not 0 <= k < len(ranges):
        raise ConfigError(f"--feature {k} out of range")

    # extrapolation window: centered, total width 5x the interpolation width
    lo, hi = ranges[k]
    width = hi - lo
    grid = np.linspace(lo - 2 * width, hi + 2 * width, args.points)
    X = np.tile([0.5 * (a + b) for a, b in ranges], (args.points, 1))
    X[:, k] = grid

    out = _out_dir(args)
    y_nn = mlp.predict(model, X)[:, 0]
    out_expr = surrogate.genotype_forward(net, X)[-1].h_values
    if model.head == mlp.SOFTMAX:
        # the surrogate's output layer is fitted as logits; y_nn is a
        # probability
        with np.errstate(over="ignore", invalid="ignore"):
            out_expr = mlp.softmax(out_expr)
    y_expr = out_expr[:, 0]
    names = list(spec.variables) if spec else [f"x{i}" for i in range(len(ranges))]
    header = names + ["y_nn", "y_expr"]
    cols = [X[:, j] for j in range(X.shape[1])] + [y_nn, y_expr]
    if spec:
        header.append("y_true")
        cols.append(spec.fn(*[X[:, j] for j in range(X.shape[1])]))

    manifest = Manifest("eval", {
        "genotype": args.genotype, "weights": args.weights,
        "benchmark": args.benchmark, "domain": args.domain,
        "feature": k, "points": args.points,
        "interpolation": [lo, hi],
        "extrapolation": [lo - 2 * width, hi + 2 * width],
    }, seeds=[])
    path = manifest.add("grid", out / "grid.csv")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(args.points):
            fh.write(",".join(repr(float(c[i])) for c in cols) + "\n")
    manifest.save(out)
    print(f"wrote {args.points}-point grid over "
          f"[{grid[0]:.6g}, {grid[-1]:.6g}] to {path}")
    return 0


def cmd_report(args) -> int:
    run_dirs = sorted(Path(args.dir).glob("run_*"))
    if not run_dirs:
        raise DataError(f"no run_* directories under {args.dir}")
    finals = []
    for run_dir in run_dirs:
        csv_path = run_dir / "convergence.csv"
        if not csv_path.exists():
            raise DataError(f"{run_dir} has no convergence.csv")
        lines = csv_path.read_text().splitlines()
        if len(lines) < 2:
            raise DataError(f"{csv_path} has no generation rows")
        header = lines[0].split(",")
        try:
            last = [float(v) for v in lines[-1].split(",")]
        except ValueError:
            last = []
        if len(last) != len(header) or not {"best_total", "output_loss"} <= set(header):
            raise DataError(f"{csv_path}: last row {lines[-1]!r} does not "
                            f"match header {lines[0]!r}")
        finals.append(dict(zip(header, last)))
    layer_cols = [c for c in finals[0] if c.startswith("layer")]
    print(f"{'run':>4} {'best_total':>14} " +
          " ".join(f"{c:>12}" for c in layer_cols) + f" {'output_loss':>12}")
    for i, row in enumerate(finals):
        print(f"{i:>4} {row['best_total']:>14.6g} " +
              " ".join(f"{row[c]:>12.6g}" for c in layer_cols) +
              f" {row['output_loss']:>12.6g}")
    bests = [row["best_total"] for row in finals]
    print(f"best: {min(bests):.6g}  mean: {sum(bests) / len(bests):.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netexpr",
        description="Extract per-layer symbolic expressions from trained MLPs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--out", default="out", help="output directory")
        if seed:
            p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("train", help="train an MLP on a benchmark or CSV")
    common(p)
    p.add_argument("--benchmark", default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--arch", default=None, help="hidden widths, e.g. 3,3")
    p.add_argument("--optimizer", choices=["sgd", "adam"], default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--task", choices=[ev.REGRESSION, ev.CLASSIFICATION],
                   default=None,
                   help="network head: linear for regression, softmax for "
                        "classification (default: classification when every "
                        "target is a non-negative integer)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("explain", help="evolve per-layer expressions for a model")
    common(p)
    p.add_argument("--weights", required=True)
    p.add_argument("--benchmark", default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--samples", default=None,
                   help="CSV from sample-boundary to trace instead of a dataset")
    p.add_argument("--data-seed", type=int, default=0,
                   help="seed for regenerating benchmark data")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--threads", type=int, default=1,
                   help="recorded in the manifest; execution is single-threaded "
                        "whatever the value")
    p.add_argument("--offspring", type=int, default=200)
    p.add_argument("--generations", type=int, default=5000)
    p.add_argument("--mutation", type=float, default=0.4)
    p.add_argument("--target", type=float, default=1e-4)
    p.add_argument("--cadence", type=int, default=None,
                   help="generations between affine refits "
                        "(default 1 for regression, 50 for classification)")
    p.add_argument("--rows", type=int, default=10)
    p.add_argument("--cols", type=int, default=10)
    p.add_argument("--constants", type=int, default=1)
    p.add_argument("--no-timings", action="store_true",
                   help="omit elapsed_ms from convergence CSVs")
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("sample-boundary",
                       help="sample points near a classifier's decision boundary")
    common(p)
    p.add_argument("--weights", required=True)
    p.add_argument("--benchmark", default=None)
    p.add_argument("--csv", default=None,
                   help="dataset whose per-feature range bounds the pool")
    p.add_argument("--pool", type=int, default=50000)
    p.add_argument("--keep", type=int, default=1000)
    p.add_argument("--margin", type=float, default=0.0)
    p.set_defaults(fn=cmd_sample_boundary)

    p = sub.add_parser("eval", help="grid CSV over interpolation + 5x extrapolation")
    common(p, seed=False)
    p.add_argument("--genotype", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--benchmark", default=None)
    p.add_argument("--domain", default=None, help="per-feature lo:hi, comma separated")
    p.add_argument("--feature", type=int, default=0, help="feature swept by the grid")
    p.add_argument("--points", type=int, default=200)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("report", help="summarize explain runs in a directory")
    p.add_argument("--dir", required=True)
    p.set_defaults(fn=cmd_report)

    return parser


def _config_argv(command_parser, path) -> list[str]:
    """A key = value config file as ``--option=value`` tokens of one
    command, which its parser then types and checks as it does the
    command line.

    A flag takes true (given) or false (left out); a list is joined with
    commas, so ``arch = [10, 10]`` reads as ``--arch=10,10``.
    """
    options = {action.dest: action for action in command_parser._actions
               if action.dest not in ("help", "config")}
    argv = []
    for key, value in bench.parse_run_config(path).items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise ConfigError(f"config key {key!r} is not a recognized option")
        option = action.option_strings[-1]
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise ConfigError(f"config key {key!r} takes true or false, "
                                  f"not {value!r}")
            argv += [option] if value else []
        else:
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            argv.append(f"{option}={value}")
    return argv


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # the config file's options go between the command and the rest of
        # the command line, so that the command line's come later and win
        pre = argparse.ArgumentParser(prog=" ".join([parser.prog, *argv[:1]]),
                                      add_help=False)
        pre.add_argument("--config")
        path = pre.parse_known_args(argv[1:])[0].config
        commands = next(action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction)).choices
        if path and argv[0] in commands:
            argv[1:1] = _config_argv(commands[argv[0]], path)
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:    # argparse: 2 for a bad option, 0 after --help
        return exc.code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
