"""End-to-end benchmark of the netexpr CLI pipeline.

    python3 perfbench/run.py --workload k0 --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --smoke

A run drives ``train -> [sample-boundary] -> explain -> eval`` in-process
through ``netexpr.cli.main``: it trains a few networks, then runs explain
jobs on them in turn until ``--seconds`` have passed.  Every job has its own
explain seed, and on cls its own boundary sample.  Every seed is drawn from
``--seed``.  It checks every
artifact and prints one JSON line with every metric: end-to-end with
``--trace 0``, per layer with ``--trace 1``.  End-to-end times are scaled to
a reference machine speed measured around each timed stage (see
``reference_s``).  ``--smoke`` runs every workload for a few
generations in child processes and checks that each named metric is
emitted and that traced work counters repeat for a fixed seed.

The netexpr sources are imported from ``src/`` of the checkout holding
this file; without them the run exits 2 and prints no result.
"""

from __future__ import annotations

import os

# Single-threaded baseline: pin BLAS before numpy is imported.
BLAS_PIN = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"

EXPLAIN_COMMON = ["--runs", "1", "--threads", "1", "--target", "1e-15"]
EVAL_POINTS = 500
CLS_POINTS = 2000
CLS_KEEP = 500
FITNESS_RTOL = 1e-9
QUICK_GENERATIONS = 3
# Explain jobs an untraced run makes at least, even past --seconds: a rare
# cls job in which many fits run to the L-BFGS iteration limit can take 40 s.
MIN_JOBS = 12
# An explain's parts are the time outside the generation loop, then each
# generation's time.  gen_ms_p50 leaves out generation 0, which scores a
# random population.
GEN1 = 2
# Untraced times are scaled to the machine speed at which reference_s()
# takes this long, about its median time on the 2-core Xeon VM of the
# baseline, so that scaled times read close to wall times there.
REFERENCE_S = 0.020
REFERENCE_REPEATS = 3       # reference_s() calls before and after each stage


@dataclass(frozen=True)
class Workload:
    name: str
    benchmark: str | None      # netexpr benchmark name; None for the CSV toy
    networks: int              # trained networks (datasets) per run
    generations: int           # fixed generations per explain
    explain_args: tuple[str, ...]
    train_args: tuple[str, ...]
    quick_epochs: int          # training length for --quick


REGRESSION_EXPLAIN = ("--offspring", "200", "--mutation", "0.4", "--cadence", "1")

WORKLOADS = {w.name: w for w in [
    # K0, n=160: tiny arrays, so per-call Python overhead dominates; training
    # is many tiny SGD steps (10k epochs keeps three set-ups inside a run).
    Workload("k0", "K0", 3, 8, REGRESSION_EXPLAIN, ("--epochs", "10000"), 200),
    # F0, n=8000: numeric work (Newton fit, apply, score) dominates.  Not in
    # BENCHMARK.json: its runs do not fit the benchmark's time budget next
    # to cls.
    Workload("f0", "F0", 3, 3, REGRESSION_EXPLAIN, (), 5),
    # Criterion-9 toy: the only cross-entropy output (L-BFGS) and boundary
    # sampling.  L-BFGS cost swings several-fold with the boundary sample and
    # the explain seed, hardly with the network, so every explain job draws
    # its own boundary sample, and a run takes the median over many short
    # explains of two generations.
    Workload("cls", None, 3, 2,
             ("--offspring", "100", "--mutation", "0.2", "--cadence", "1"),
             ("--arch", "10,10", "--optimizer", "adam", "--lr", "0.01",
              "--epochs", "300", "--batch-size", "64"), 20),
]}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_netexpr():
    """Import netexpr from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "netexpr" / "cli.py").is_file():
        print(f"perfbench: no netexpr sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import netexpr
    if Path(netexpr.__file__).resolve().parent != (src / "netexpr").resolve():
        print(f"perfbench: imported netexpr from {netexpr.__file__}, "
              f"not from {src}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy as np
    blas = "unknown"
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    return {"nproc": os.cpu_count(), "blas": blas, "blas_pin": BLAS_PIN,
            "python": platform.python_version(), "numpy": np.__version__}


def write_cls_csv(path: Path, seed: int) -> None:
    """2000 uniform points in [-2, 2]^2 labelled x1 > 0.3 sin(2 x0)."""
    import numpy as np
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(CLS_POINTS, 2))
    labels = (X[:, 1] > 0.3 * np.sin(2.0 * X[:, 0])).astype(int)
    lines = ["x0,x1,label"]
    lines += [f"{a!r},{b!r},{c}" for (a, b), c in zip(X.tolist(), labels.tolist())]
    path.write_text("\n".join(lines) + "\n")


def reference_block() -> list[float]:
    return [reference_s() for _ in range(REFERENCE_REPEATS)]


def reference_s() -> float:
    """Wall time of a fixed loop of interpreter work and of numpy calls on
    arrays of k0's and f0's sizes.  It runs no netexpr code, so a change to
    the program cannot move it; a busy machine slows it as it slows the
    pipelines."""
    import numpy as np
    small = np.linspace(0.0, 1.0, 160)
    large = np.linspace(0.0, 1.0, 8000)
    t0 = perf_counter()
    counts: dict[int, int] = {}
    for i in range(30000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    total = 0.0
    for _ in range(3000):
        total += float((small * small).sum())
    for _ in range(300):
        total += float(np.exp(large * 0.5).sum() + (large * large).sum())
    return perf_counter() - t0


class Bench:
    """Stage runner and tally of attempted and failed operations."""

    def __init__(self, workload: Workload, seed: int, work: Path, quick: bool):
        self.w = workload
        self.seed = seed
        self.work = work
        self.generations = QUICK_GENERATIONS if quick else workload.generations
        self.quick = quick
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracer = None          # a tracing.Tracer while a traced stage may run

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def stage(self, label: str, argv: list[str]) -> tuple[bool, float]:
        """Run one CLI command in-process; (exit code was 0, wall seconds)."""
        from netexpr import cli
        traced = (self.tracer.stage(f"cli.{label}") if self.tracer is not None
                  else contextlib.nullcontext())
        code = None
        t0 = perf_counter()
        with traced, contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc(file=sys.stderr)
        seconds = perf_counter() - t0
        return self.check(code == 0, f"{label} exited {code}"), seconds

    def inspect(self, label: str, fn, *args):
        """Run an artifact check; an unreadable artifact counts as a failure."""
        try:
            return fn(*args)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.check(False, f"{label} artifacts unreadable")
            return None


class Pipeline:
    """One dataset's set-up, explains and output checks."""

    def __init__(self, bench: Bench, index: int):
        import numpy as np
        self.b = bench
        self.w = bench.w
        draws = np.random.default_rng([bench.seed, index]).integers(0, 2**31 - 1, 4)
        self.seeds = dict(zip(("data", "train", "boundary", "explain"),
                              (int(v) for v in draws)))
        self.dir = bench.work / f"p{index}"
        self.dir.mkdir()
        self.weights = self.dir / "train" / "weights.json"
        self.samples = self.dir / "boundary" / "samples.csv"
        self.csv = self.dir / "data.csv"
        if self.w.benchmark is None:
            write_cls_csv(self.csv, self.seeds["data"])
        self.best_total = math.nan
        self.n_positions = 0

    def setup(self) -> tuple[bool, float]:
        """train; returns (ok, wall seconds)."""
        argv = ["train", "--out", str(self.dir / "train")]
        if self.w.benchmark:
            # train draws and splits the benchmark data from its own seed
            argv += ["--seed", str(self.seeds["data"]), "--benchmark", self.w.benchmark]
        else:
            argv += ["--seed", str(self.seeds["train"]), "--csv", str(self.csv)]
        argv += list(self.w.train_args)
        if self.b.quick:
            argv += ["--epochs", str(self.w.quick_epochs)]
        return self.b.stage("train", argv)

    def sample_boundary(self, seed: int) -> tuple[bool, float]:
        """sample-boundary with this seed into the explain's --samples file
        (cls only); returns (ok, wall seconds)."""
        if self.w.benchmark:
            return True, 0.0
        out = self.samples.parent
        shutil.rmtree(out, ignore_errors=True)
        ok, seconds = self.b.stage("sample_boundary", [
            "sample-boundary", "--out", str(out), "--seed", str(seed),
            "--weights", str(self.weights), "--csv", str(self.csv),
            "--keep", str(CLS_KEEP)])
        if ok:
            ok = bool(self.b.inspect("sample_boundary", self.check_samples))
        return ok, seconds

    def explain_and_eval(self, tag: str, seed: int) -> list[float] | None:
        """One explain with this explain seed, then eval, with checks.
        Returns the explain's wall seconds split into parts: the time outside
        the generation loop, then each generation's time.  None if the
        explain failed a check."""
        out = self.dir / f"explain_{tag}"
        argv = ["explain", "--out", str(out), "--seed", str(seed),
                "--weights", str(self.weights), "--generations", str(self.b.generations)]
        if self.w.benchmark:
            argv += ["--benchmark", self.w.benchmark,
                     "--data-seed", str(self.seeds["data"])]
        else:
            argv += ["--samples", str(self.samples)]
        ok, seconds = self.b.stage("explain",
                                   argv + EXPLAIN_COMMON + list(self.w.explain_args))
        elapsed = self.b.inspect("explain", self.check_explain, out) if ok else None
        if elapsed is None:
            return None
        grid = self.dir / f"eval_{tag}"
        argv = ["eval", "--out", str(grid), "--points", str(EVAL_POINTS),
                "--genotype", str(out / "run_0" / "genotype.json"),
                "--weights", str(self.weights)]
        argv += (["--benchmark", self.w.benchmark] if self.w.benchmark
                 else ["--domain=-2:2,-2:2"])
        if self.b.stage("eval", argv)[0]:
            self.b.inspect("eval", self.check_eval, grid / "grid.csv")
        shutil.rmtree(out)
        shutil.rmtree(grid, ignore_errors=True)
        # elapsed_ms of generation g is the loop's time from its start to
        # generation g's end
        ends = [ms / 1000.0 for ms in elapsed]
        return [seconds - ends[-1]] + [b - a for a, b in zip([0.0] + ends, ends)]

    # --- output checks ------------------------------------------------------

    def check_samples(self) -> bool:
        rows = len(self.samples.read_text().splitlines()) - 1
        return self.b.check(rows == CLS_KEEP,
                            f"kept {rows} boundary samples, not {CLS_KEEP}")

    def traced_inputs(self):
        """The rows explain traced, rebuilt independently of the CLI."""
        import numpy as np
        from netexpr import benchmarks as bench
        if self.w.benchmark:
            spec = bench.get_benchmark(self.w.benchmark)
            data = bench.generate(spec, seed=self.seeds["data"])
            (Xtr, _), _ = bench.split(data, seed=self.seeds["data"])
            return Xtr
        header = self.samples.read_text().split("\n", 1)[0].split(",")
        X = np.loadtxt(self.samples, delimiter=",", skiprows=1, ndmin=2)
        return X[:, :header.index("p_0")]

    def check_explain(self, out: Path) -> list[float] | None:
        """Check one explain's artifacts; the elapsed_ms column, or None when
        the run did not do its fixed number of generations."""
        from netexpr import evolve as ev
        from netexpr import mlp, surrogate
        lines = (out / "run_0" / "convergence.csv").read_text().splitlines()
        col = lines[0].split(",").index("elapsed_ms")
        elapsed = [float(ln.split(",")[col]) for ln in lines[1:]]
        complete = self.b.check(len(elapsed) == self.b.generations,
                                f"convergence.csv has {len(elapsed)} rows, "
                                f"not {self.b.generations}")

        summary = json.loads((out / "summary.json").read_text())
        model = mlp.load_weights(self.weights)
        net = surrogate.net_from_json((out / "run_0" / "genotype.json").read_text())
        trace = mlp.forward_trace(model, self.traced_inputs())
        task = ev.CLASSIFICATION if model.head == mlp.SOFTMAX else ev.REGRESSION
        total = ev.fitness(net, trace, task).total
        self.b.check(math.isclose(total, summary["best_total"], rel_tol=FITNESS_RTOL),
                     f"genotype fitness {total!r} != best_total "
                     f"{summary['best_total']!r}")
        self.best_total = summary["best_total"]
        self.n_positions = len(net.chromosomes)
        return elapsed if complete else None

    def check_eval(self, path: Path) -> None:
        import numpy as np
        header = path.read_text().split("\n", 1)[0].split(",")
        grid = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        y_nn = grid[:, header.index("y_nn")]
        self.b.check(y_nn.shape[0] == EVAL_POINTS and bool(np.isfinite(y_nn).all()),
                     f"eval grid has {y_nn.shape[0]} rows or non-finite y_nn")


def job_seeds(seed: int, job: int) -> tuple[int, int]:
    """sample-boundary and explain seeds of the run's job-th explain."""
    import numpy as np
    draws = np.random.default_rng([seed, 1 << 20, job]).integers(0, 2**31 - 1, 2)
    return int(draws[0]), int(draws[1])


def run_untraced(b: Bench, seconds: float) -> dict:
    """Train every network, then run explain jobs on the networks in turn
    until the run has lasted --seconds (at least MIN_JOBS jobs).  A job
    samples the boundary (cls only), explains and evaluates, each with its
    own seed."""
    deadline = perf_counter() + seconds
    pipelines = [Pipeline(b, i) for i in range(1 if b.quick else b.w.networks)]
    # A block of reference times before the first stage and after every
    # stage, so that each stage lies between two blocks.
    blocks = [reference_block()]
    setups, samplings, explains = [], [], []
    for p in pipelines:
        ok, dt = p.setup()
        blocks.append(reference_block())
        if not ok:
            return {}
        setups.append(dt)
    min_jobs = 1 if b.quick else MIN_JOBS
    while len(explains) < min_jobs or perf_counter() < deadline:
        job = len(explains)
        p = pipelines[job % len(pipelines)]
        boundary_seed, explain_seed = job_seeds(b.seed, job)
        ok, sampling = p.sample_boundary(boundary_seed)
        parts = p.explain_and_eval(str(job), explain_seed) if ok else None
        blocks.append(reference_block())
        if parts is None:
            return {}
        samplings.append(sampling)
        explains.append(parts)

    # The shared machine changes speed over seconds to minutes.  Each stage
    # is scaled by the reference times just before and after it, which the
    # same change of speed slows alike.
    scales = [REFERENCE_S / statistics.median(before + after)
              for before, after in zip(blocks, blocks[1:])]
    setup_scales, explain_scales = scales[:len(setups)], scales[len(setups):]
    # set-up before an explain: a network's training, then (cls) its
    # boundary sample
    wall = {"setup_s": statistics.median(setups) + statistics.median(samplings),
            "explain_s": statistics.median(sum(parts) for parts in explains),
            "gen_ms_p50": statistics.median(1000.0 * t for parts in explains
                                            for t in parts[GEN1:]),
            "explains": len(explains),
            "reference_s_median": statistics.median(t for blk in blocks for t in blk)}
    print("# unscaled " + json.dumps(wall))
    return {"setup_s": statistics.median(t * k for t, k in zip(setups, setup_scales))
            + statistics.median(t * k for t, k in zip(samplings, explain_scales)),
            "explain_s": statistics.median(sum(parts) * k
                                           for parts, k in zip(explains, explain_scales)),
            # gen_ms_p50 leaves out generation 0, which scores a random population
            "gen_ms_p50": statistics.median(1000.0 * t * k
                                            for parts, k in zip(explains, explain_scales)
                                            for t in parts[GEN1:]),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def run_traced(b: Bench, seconds: float) -> dict:
    """One pipeline: traced set-up, then traced explains alternating with
    untraced ones until the run has lasted --seconds (at least two of each)."""
    import tracing
    deadline = perf_counter() + seconds
    p = Pipeline(b, 0)
    setup_trace = b.tracer = tracing.Tracer()
    ok = p.setup()[0] and p.sample_boundary(p.seeds["boundary"])[0]
    b.tracer = None
    if not ok:
        return {}

    plain_s, plain_gen_ms, traced = [], [], []
    while len(traced) < 2 or perf_counter() < deadline:
        parts = p.explain_and_eval(f"plain{len(plain_s)}", p.seeds["explain"])
        if parts is None:
            return {}
        plain_s.append(sum(parts))
        plain_gen_ms += [1000.0 * t for t in parts[GEN1:]]
        b.tracer = tracing.Tracer()
        parts = p.explain_and_eval(f"traced{len(traced)}", p.seeds["explain"])
        stages, b.tracer = setup_trace.stages + b.tracer.stages, None
        if parts is None:
            return {}
        m, check = tracing.layer_metrics(stages, p.n_positions)
        b.check(check["sums"], "explain-stage layer times do not add up to "
                               "cli.explain_s")
        b.check(check["positions"], "not every network position was timed")
        m["evolve.best_total"] = p.best_total
        traced.append(m)

    b.check(all(m[k] == traced[0][k] for m in traced for k in tracing.COUNTERS),
            "work counters differ between traced explains of one seed")
    # the traced explain with the median explain time, whole, so that its
    # layer times still add up to its cli.explain_s
    metrics = sorted(traced, key=lambda m: m["cli.explain_s"])[(len(traced) - 1) // 2]
    metrics["evolve.gen_ms_p95"] = statistics.quantiles(
        plain_gen_ms, n=20, method="inclusive")[18]
    metrics["evolve.gen_samples"] = len(plain_gen_ms)
    metrics["trace.overhead_s"] = metrics["cli.explain_s"] - statistics.median(plain_s)
    return metrics


def run_workload(args) -> int:
    import_netexpr()
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        b = Bench(WORKLOADS[args.workload], args.seed, work, args.quick)
        metrics = (run_traced if args.trace else run_untraced)(b, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    units = {m["name"]: m["unit"]
             for m in load_spec()["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        b.errors.append(f"metrics not measured: {', '.join(missing)}")
    for err in b.errors:
        print(f"perfbench: {err}", file=sys.stderr)
    print("# env " + json.dumps(environment(), sort_keys=True))
    result = {"correct": b.failed == 0 and not missing,
              "attempted": max(b.attempted, 1), "failed": b.failed,
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units.items() if k in metrics}}
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Quick run of every workload: every metric emitted, counters repeat."""
    import tracing
    spec = load_spec()
    problems = []
    for name in WORKLOADS:
        results = []
        for trace in (0, 1, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", "7", "--seconds", "0", "--trace", str(trace), "--quick"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                problems.append(f"{name} trace={trace}: exit {proc.returncode}\n"
                                f"{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = set(result["metrics"])
            if wanted != got:
                problems.append(f"{name} trace={trace}: missing {sorted(wanted - got)}, "
                                f"unexpected {sorted(got - wanted)}")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: {result['failed']} of "
                                f"{result['attempted']} failed\n{proc.stderr}")
            if trace:
                results.append(result["metrics"])
        if len(results) == 2:
            diff = [k for k in tracing.COUNTERS
                    if results[0][k]["value"] != results[1][k]["value"]]
            if diff:
                problems.append(f"{name}: counters differ across same-seed runs: {diff}")
        print(f"smoke {name}: {'FAILED' if problems else 'ok'}", file=sys.stderr)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the run, set-ups included")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one network and job, few generations and epochs")
    parser.add_argument("--smoke", action="store_true",
                        help="check that every workload emits every metric")
    args = parser.parse_args(argv)
    if args.smoke:
        import_netexpr()
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
