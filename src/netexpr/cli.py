"""Command-line front end: train, explain, sample-boundary, eval, report.

Every randomized command takes an explicit --seed; outputs are UTF-8
CSV/JSON files under --out, and each command writes a manifest recording
its config snapshot, seeds, and every artifact path.

A ``--config`` file's ``key = value`` lines can set any option of the
command, required ones included: they become ``--key=value`` tokens
between the command and the rest of the command line, which is parsed
once, so argparse checks both alike and a flag on the command line wins.

Each setting has one home.  The defaults of the evolution and grid
options are read from ``EvolveConfig`` and ``CgpConfig``, those of the
boundary pool from ``BoundarySampleConfig``.  argparse types every value
but ``--domain`` (the manifest records its text), and each option's type
rejects exactly what the config class field it fills rejects, so an error
names the option.  The config classes check the rest: what spans fields
(``--keep`` at most ``--pool``) and the box ``--margin`` makes, which
``sample-boundary`` reports with those options' values.  Both raise
``ConfigError``.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
Every exit 2 prints one ``config error:`` line; a size option whose
arrays cannot be allocated (``MemoryError``) is one too.  A path that
cannot be read or written (any ``OSError``) is a data error.  An ``explain``
that fails removes the ``--out`` that it made; ``train`` and
``sample-boundary`` make theirs only once the model or sample is made, but
check it first, so that an ``--out`` that is a file, or lies under one,
fails before the work.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import shutil
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import benchmarks as bench
from . import boundary as bdry
from . import cgp
from . import evolve as ev
from . import mlp
from . import surrogate
from .errors import ConfigError, DataError, NumericError, SchemaError


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
        # JSON has no number for an infinite option value (``--target inf``
        # is one): it is recorded as its text
        config = {key: repr(value) if isinstance(value, float)
                  and not math.isfinite(value) else value
                  for key, value in self.config.items()}
        return {"command": self.command, "config": config,
                "seeds": self.seeds, "artifacts": self.artifacts,
                "created": self.created}

    def save(self, out_dir: Path) -> Path:
        path = out_dir / "manifest.json"
        self.artifacts["manifest"] = str(path)
        mlp.write_json(path, self.to_dict())
        return path

    @staticmethod
    def load(path: str | Path) -> dict:
        return json.loads(Path(path).read_text())


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_out(args) -> None:
    """Raise DataError unless --out is a directory or can be made one: its
    nearest existing path must be a directory."""
    out = Path(args.out)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise DataError(f"--out {args.out}: {existing} is not a directory")


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


def _train_head(task, y) -> str:
    """The network head --task asks for, else the one the targets imply
    (class ids train a softmax head)."""
    if task is None:
        return mlp.guess_head(y)
    if task == ev.REGRESSION:
        return mlp.LINEAR
    if not np.issubdtype(np.asarray(y).dtype, np.integer):
        raise ConfigError("--task classification needs class-id targets "
                          "(non-negative integers)")
    return mlp.SOFTMAX


def cmd_train(args) -> int:
    _check_out(args)
    X, y, names, spec = _load_table(args)
    arch = args.arch or (list(spec.arch) if spec else None)
    if not arch:
        raise ConfigError("no architecture given and none implied by a benchmark")
    # a benchmark's own training setup, else TrainConfig's; same field names
    defaults = spec or mlp.TrainConfig()
    optimizer = args.optimizer or defaults.optimizer
    lr = args.lr if args.lr is not None else defaults.learning_rate
    epochs = args.epochs if args.epochs is not None else defaults.epochs
    batch = args.batch_size if args.batch_size is not None else defaults.batch_size
    head = _train_head(args.task, y)
    cfg = mlp.TrainConfig(optimizer=optimizer, learning_rate=lr, epochs=epochs,
                          batch_size=batch, seed=args.seed)
    (Xtr, ytr), (Xte, yte) = bench.split((X, y), seed=args.seed)
    # the train split's largest class id sets the model's class count
    if head == mlp.SOFTMAX and yte.max() > ytr.max():
        raise DataError(f"class id {int(yte.max())} is in the test split only; "
                        f"the train split's ids end at {int(ytr.max())}")

    model = mlp.train((Xtr, ytr), arch, cfg, head=head)
    out = _out_dir(args)

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
    mlp.write_json(manifest.add("metrics", out / "metrics.json"), metrics)
    manifest.save(out)
    for key, value in metrics.items():
        print(f"{key}: {value:.6g}")
    return 0


def _explain_inputs(args, model):
    """Input rows for tracing: benchmark train split, a CSV, or sampled points."""
    if args.samples:
        return bdry.read_boundary_csv(args.samples, model)
    if args.benchmark:
        spec = bench.get_benchmark(args.benchmark)
        X, y = bench.generate(spec, seed=args.data_seed)
        (Xtr, _), _ = bench.split((X, y), seed=args.data_seed)
        return Xtr, list(spec.variables)
    if args.csv:
        X, _, names = mlp.load_dataset_csv(args.csv)
        return X, names
    raise ConfigError("need --benchmark, --csv, or --samples")


def cmd_explain(args) -> int:
    model = mlp.load_weights(args.weights)
    X, names = _explain_inputs(args, model)
    if X.shape[1] != model.dims[0]:
        raise DataError(f"data has {X.shape[1]} features, model takes {model.dims[0]}")
    task = ev.CLASSIFICATION if model.head == mlp.SOFTMAX else ev.REGRESSION
    cadence = args.cadence if args.cadence is not None else (
        ev.CLASSIFIER_REFIT_EVERY if task == ev.CLASSIFICATION
        else ev.EvolveConfig.affine_refit_every)

    seeds = [args.seed + r for r in range(args.runs)]
    cfgs = [ev.EvolveConfig(
        n_offspring=args.offspring, max_generations=args.generations,
        mutation_prob=args.mutation, fitness_target=args.target,
        affine_refit_every=cadence, seed=run_seed, n_rows=args.rows,
        n_cols=args.cols, n_constants=args.constants) for run_seed in seeds]
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

    out = Path(args.out)
    made = not out.exists()
    try:
        _explain_runs(args, cfgs, trace, task, names, _out_dir(args), manifest)
    except Exception:
        # a failed explain leaves no --out that it made
        if made:
            shutil.rmtree(out, ignore_errors=True)
        raise
    return 0


def _explain_runs(args, cfgs, trace, task, names, out: Path, manifest: Manifest) -> None:
    """Evolve each run into out/run_<r>, then write the summary and manifest."""
    summary_runs = []
    for r, cfg in enumerate(cfgs):
        run_dir = out / f"run_{r}"
        run_dir.mkdir(parents=True, exist_ok=True)
        csv_path = manifest.add(f"run_{r}/convergence", run_dir / "convergence.csv")
        with open(csv_path, "w") as stream:
            best, log = ev.evolve(trace, task, cfg, log_stream=stream,
                                  include_timing=not args.no_timings)
        mlp.write_json(manifest.add(f"run_{r}/genotype", run_dir / "genotype.json"),
                       surrogate.net_to_dict(best))
        report = surrogate.expression_report(best, feature_names=names)
        mlp.write_json(manifest.add(f"run_{r}/expressions",
                                    run_dir / "expressions.json"), report)
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
    mlp.write_json(manifest.add("summary", out / "summary.json"), summary)
    manifest.save(out)
    print(f"best over {args.runs} run(s): {summary['best_total']:.6g}")


def cmd_sample_boundary(args) -> int:
    _check_out(args)
    model = mlp.load_weights(args.weights)
    if model.head != mlp.SOFTMAX:
        raise DataError(f"{args.weights} is not a classifier (head is "
                        f"{model.head}); boundary sampling needs softmax")
    X, _, names, spec = _load_table(args)
    bounds = bdry.bounds_from_data(X, margin=args.margin)
    try:
        cfg = bdry.BoundarySampleConfig(bounds=bounds, pool_size=args.pool,
                                        keep_size=args.keep, seed=args.seed)
    except ConfigError as exc:
        # its checks span these options: an inverted or overflowing box
        # (the data is finite) or more kept points than drawn
        raise ConfigError(f"{exc} (--margin {args.margin!r}, --pool {args.pool}, "
                          f"--keep {args.keep})") from None
    sample = bdry.sample_near_boundary(model, cfg)
    out = _out_dir(args)
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
        if not -np.inf < lo <= hi < np.inf:
            raise ConfigError(f"domain {part!r} needs finite lo <= hi")
        if not math.isfinite(0.5 * (lo + hi)):    # the grid holds features there
            raise ConfigError(f"--domain {text}: the midpoint of {part!r} overflows")
        out.append((lo, hi))
    return out


def cmd_eval(args) -> int:
    model = mlp.load_weights(args.weights)
    try:
        net = surrogate.net_from_json(Path(args.genotype).read_text())
    except SchemaError as exc:
        raise SchemaError(f"genotype file {args.genotype}: {exc}") from exc
    layers = [c.n_inputs for c in net.chromosomes[:1]] + net.widths
    if layers != model.dims:
        raise DataError(f"genotype {args.genotype} chains widths {layers} (inputs "
                        f"first), but model {args.weights} has {model.dims}")
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
    start, stop = lo - 2 * width, hi + 2 * width
    if not math.isfinite(stop - start):    # an end or the span overflows
        raise ConfigError(f"--domain {args.domain}: the extrapolation window "
                          f"[{start:.6g}, {stop:.6g}] of feature {k} overflows")
    grid = np.linspace(start, stop, args.points)
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
        "extrapolation": [start, stop],
    }, seeds=[])
    path = manifest.add("grid", out / "grid.csv")
    mlp.write_table(path, header, cols)
    manifest.save(out)
    print(f"wrote {args.points}-point grid over "
          f"[{grid[0]:.6g}, {grid[-1]:.6g}] to {path}")
    return 0


def cmd_report(args) -> int:
    # by run number: as strings, run_10 sorts before run_2
    runs = sorted((int(d.name[4:]), d) for d in Path(args.dir).glob("run_*")
                  if d.name[4:].isdecimal())
    if not runs:
        raise DataError(f"no run_* directories under {args.dir}")
    finals = []
    for _, run_dir in runs:
        csv_path = run_dir / "convergence.csv"
        header, rows = mlp.read_table(csv_path)
        if not {"best_total", "output_loss"} <= set(header):
            raise DataError(f"{csv_path} has no best_total or output_loss column")
        if finals and header != list(finals[0]):
            raise DataError(f"{csv_path}: header {','.join(header)} differs from "
                            f"{runs[0][1].name}'s {','.join(finals[0])}")
        finals.append(dict(zip(header, rows[-1].tolist())))
    layer_cols = [c for c in finals[0] if c.startswith("layer")]
    print(f"{'run':>4} {'best_total':>14} " +
          " ".join(f"{c:>12}" for c in layer_cols) + f" {'output_loss':>12}")
    for (r, _), row in zip(runs, finals):
        print(f"{r:>4} {row['best_total']:>14.6g} " +
              " ".join(f"{row[c]:>12.6g}" for c in layer_cols) +
              f" {row['output_loss']:>12.6g}")
    bests = [row["best_total"] for row in finals]
    print(f"best: {min(bests):.6g}  mean: {sum(bests) / len(bests):.6g}")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse, with two changes.  An error prints the usage line and
    raises ConfigError, so that ``main`` has one exit-2 path.  A value
    that starts with ``-`` and a digit, as in ``--domain -2:2``, is read
    as a value, as argparse does from Python 3.13 on."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _option_type(name: str, convert, accepts):
    """An argparse type: ``convert`` the text, then reject what ``accepts``
    refuses; argparse names the type ``name`` in its error."""
    def parse(text: str):
        value = convert(text)
        if not accepts(value):
            raise ValueError(text)
        return value
    parse.__name__ = name
    return parse


# each mirrors the check of the config class field it fills, so argparse
# rejects exactly what the class would and names the option
count = _option_type("count", int, lambda v: v >= 1)
non_negative = _option_type("non-negative int", int, lambda v: v >= 0)
fraction = _option_type("fraction", float, lambda v: 0.0 <= v <= 1.0)
positive = _option_type("positive", float, lambda v: v > 0)
finite_positive = _option_type("finite positive", float, lambda v: 0 < v < np.inf)
finite = _option_type("finite", float, math.isfinite)


def widths(text: str) -> list[int]:
    """Option type: hidden-layer widths such as 3,3, each >= 1."""
    return [count(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="netexpr",
        description="Extract per-layer symbolic expressions from trained MLPs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--out", default="out", help="output directory")
        if seed:
            p.add_argument("--seed", type=non_negative, required=True)

    p = sub.add_parser("train", help="train an MLP on a benchmark or CSV")
    common(p)
    p.add_argument("--benchmark", default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--arch", type=widths, default=None, help="hidden widths, e.g. 3,3")
    p.add_argument("--optimizer", choices=["sgd", "adam"], default=None)
    p.add_argument("--lr", type=finite_positive, default=None)
    p.add_argument("--epochs", type=non_negative, default=None)
    p.add_argument("--batch-size", type=count, default=None)
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
    p.add_argument("--data-seed", type=non_negative, default=0,
                   help="seed for regenerating benchmark data")
    p.add_argument("--runs", type=count, default=1)
    p.add_argument("--threads", type=count, default=1,
                   help="recorded in the manifest; execution is single-threaded "
                        "whatever the value")
    p.add_argument("--offspring", type=count, default=ev.EvolveConfig.n_offspring)
    p.add_argument("--generations", type=count, default=ev.EvolveConfig.max_generations)
    p.add_argument("--mutation", type=fraction, default=ev.EvolveConfig.mutation_prob)
    p.add_argument("--target", type=positive, default=ev.EvolveConfig.fitness_target)
    p.add_argument("--cadence", type=count, default=None,
                   help="generations between affine refits (default "
                        f"{ev.EvolveConfig.affine_refit_every} for regression, "
                        f"{ev.CLASSIFIER_REFIT_EVERY} for classification)")
    p.add_argument("--rows", type=count, default=cgp.CgpConfig.n_rows)
    p.add_argument("--cols", type=count, default=cgp.CgpConfig.n_cols)
    p.add_argument("--constants", type=non_negative, default=cgp.CgpConfig.n_constants)
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
    p.add_argument("--pool", type=count, default=bdry.BoundarySampleConfig.pool_size)
    p.add_argument("--keep", type=count, default=bdry.BoundarySampleConfig.keep_size)
    p.add_argument("--margin", type=finite, default=0.0,
                   help="widen each feature's data range by this fraction of it "
                        "on both sides (negative narrows it)")
    p.set_defaults(fn=cmd_sample_boundary)

    p = sub.add_parser("eval", help="grid CSV over interpolation + 5x extrapolation")
    common(p, seed=False)
    p.add_argument("--genotype", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--benchmark", default=None)
    p.add_argument("--domain", default=None, help="per-feature lo:hi, comma separated")
    p.add_argument("--feature", type=int, default=0, help="feature swept by the grid")
    p.add_argument("--points", type=count, default=200)
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
            raise ConfigError(f"{path}: config key {key!r} is not a recognized option")
        option = action.option_strings[-1]
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise ConfigError(f"{path}: config key {key!r} takes true or false, "
                                  f"not {value!r}")
            argv += [option] if value else []
        else:
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            try:    # argparse's own type and choices check, here to name the file
                command_parser._get_values(action, [str(value)])
            except argparse.ArgumentError as exc:
                command_parser.error(f"{path}: {exc}")
            argv.append(f"{option}={value}")
    return argv


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # the config file's options go between the command and the rest of
        # the command line, so that the command line's come later and win
        pre = _Parser(prog=" ".join([parser.prog, *argv[:1]]), add_help=False)
        pre.add_argument("--config")
        path = pre.parse_known_args(argv[1:])[0].config
        commands = next(action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction)).choices
        if path and argv[0] in commands:
            argv[1:1] = _config_argv(commands[argv[0]], path)
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:    # argparse, after --help
        return exc.code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:   # a size option too large to allocate for
        print(f"config error: out of memory, a size option is too large "
              f"({' '.join(str(exc).split()) or 'allocation failed'})", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
