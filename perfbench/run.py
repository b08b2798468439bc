"""ptlab benchmark: closed-loop batches of exact, CLI and Monte Carlo queries.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload exact-chain --seed 1 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

One client process runs the workload's batch (see ``workloads.py``) as a
closed loop: each op starts when the previous one returns, with no threads of
its own.  The batch repeats while the next repetition fits in ``run_seconds``
of ``BENCHMARK.json``; timings are medians over repetitions.  Outputs are
checked after the timed region (``ops.check``) and must not change between
repetitions.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``: set-up
time (median over this process and SETUP_CHILDREN fresh ``--setup-only``
processes, each timed from the start of this file to the end of set-up),
batch wall time, median and tail op latency (an op's latency is its median
over the passes), and peak resident memory.
``--trace 1`` runs one warm-up batch, then passes that run each op untraced
and traced in turn (``tracing.py``), checks that all produced the same bits,
and prints the per-layer metrics; the spans of the set-up and of the first
traced pass go to ``perfbench/out/``.  The last line of standard output is
always the JSON result.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402 - the set-up clock starts before the imports

# One BLAS thread, set before numpy loads.  With OpenBLAS's default of one
# thread per core, its worker spins after every threaded call and keeps a
# second core busy; on a 2-core VM that made the Monte Carlo timings of runs
# of the same batch differ by a quarter.  Exact workloads make no BLAS calls.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTDIR = HERE / "out"
SETUP_CHILDREN = 4
TAIL_BEYOND = 10


def import_sources():
    """Import ptlab from this checkout's ``src/`` only, never an installed copy."""
    src = ROOT / "src"
    if not (src / "ptlab" / "__init__.py").is_file():
        print(f"perfbench: no ptlab sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(HERE)]
    import ptlab
    if Path(ptlab.__file__).resolve().parent != src / "ptlab":
        print(f"perfbench: imported ptlab from {ptlab.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


class Rep:
    """One pass over the batch: wall time, per-op latencies, outputs, errors.

    Traced passes also carry their per-layer totals and, for the first traced
    pass only (to bound memory), the raw spans.
    """

    def __init__(self):
        self.wall = 0.0
        self.latencies: list[float] = []
        self.outputs: list = []
        self.errors: list[str | None] = []
        self.layers: dict | None = None
        self.spans: tuple | None = None

    def record(self, latency: float, out, err: str | None) -> None:
        self.latencies.append(latency)
        self.outputs.append(out)
        self.errors.append(err)


def timed(call) -> tuple[float, object, str | None]:
    """Latency, output and error of one op."""
    ts = time.perf_counter()
    try:
        out, err = call(), None
    except Exception as exc:  # noqa: BLE001 - a failing op is a data point, not a crash
        out, err = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - ts, out, err


def run_batch(calls) -> Rep:
    import gc
    gc.collect()
    rep = Rep()
    t0 = time.perf_counter()
    for call in calls:
        rep.record(*timed(call))
    rep.wall = time.perf_counter() - t0
    return rep


def run_batches(calls, seconds: float) -> list[Rep]:
    """Repeat the batch while the next repetition is expected to fit in ``seconds``."""
    reps: list[Rep] = []
    t0 = time.perf_counter()
    while True:
        reps.append(run_batch(calls))
        expected = statistics.median(r.wall for r in reps)
        if time.perf_counter() - t0 + expected > seconds:
            return reps


def run_interleaved(calls, tracer, parity: int) -> tuple[Rep, Rep]:
    """An untraced and a traced pass, interleaved op by op so both see the same load.

    Each op runs twice in a row, untraced and traced, in an order that
    alternates with the op index and ``parity``, so neither side always runs
    second.  A pass's wall time is the sum of its op latencies; installing and
    removing the tracer between ops is not timed.
    """
    import gc
    from tracing import layer_totals
    gc.collect()
    plain, traced = Rep(), Rep()
    tracer.reset()
    for i, call in enumerate(calls):
        tracer.op = i
        for with_trace in ((False, True) if (i + parity) % 2 == 0 else (True, False)):
            if not with_trace:
                plain.record(*timed(call))
                continue
            tracer.install()
            try:
                traced.record(*timed(call))
            finally:
                tracer.uninstall()
    plain.wall, traced.wall = math.fsum(plain.latencies), math.fsum(traced.latencies)
    traced.layers = layer_totals(tracer.spans, tracer.counters)
    return plain, traced


def op_latencies(reps: list[Rep]) -> list[float]:
    """Each op's latency: its median over the passes, so one slow pass moves no op."""
    return [statistics.median(lat) for lat in zip(*(r.latencies for r in reps))]


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile of the ops with TAIL_BEYOND ops beyond it, and its value."""
    n = len(latencies)
    return 100 * (n - TAIL_BEYOND) / n, sorted(latencies)[-TAIL_BEYOND - 1]


def count_failures(reps: list[Rep], verdicts: list[str | None]) -> tuple[int, list[str]]:
    """Failed op executions: raised, failed its check, or changed between passes."""
    failed, reasons = 0, []
    first = reps[0].outputs
    for rep in reps:
        for i, (out, err) in enumerate(zip(rep.outputs, rep.errors)):
            why = err or verdicts[i] or (None if out == first[i] else "output changed between passes")
            if why:
                failed += 1
                reasons.append(f"op {i}: {why}")
    return failed, reasons


def setup_children(workload: str, seed: int) -> list[float]:
    """Set-up times of SETUP_CHILDREN fresh processes, one after another."""
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def environment() -> dict:
    import numpy as np
    env = {"nproc": os.cpu_count(), "cpu": platform.processor() or "unknown",
           "python": platform.python_version(), "numpy": np.__version__,
           "blas_threads": BLAS_THREADS}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    return env


def merge_layers(a: dict, b: dict) -> dict:
    out = {}
    for span in set(a) | set(b):
        x, y = a.get(span, {}), b.get(span, {})
        out[span] = {k: x.get(k, 0) + y.get(k, 0) for k in set(x) | set(y)}
    return out


def sweep_threads(queries, outputs, outdir: Path) -> tuple[dict, list[str]]:
    """Time exact-general's moment and covariance points through ``ptlab sweep``."""
    import csv
    import ops
    paths = ops.write_theta_files(str(outdir))
    grids: dict[str, list] = {"moment": [], "covariance": []}
    expected: dict[str, list] = {"moment": [], "covariance": []}
    for q, out in zip(queries, outputs):
        argv = ops.resolve_argv(q["argv"], paths)
        if argv[0] not in grids:
            continue
        point = {"M": int(argv[argv.index("--M") + 1])}
        for flag in ("--word", "--word1", "--word2"):
            if flag in argv:
                point[flag[2:]] = argv[argv.index(flag) + 1]
        grids[argv[0]].append(point)
        expected[argv[0]].append(out["exact"] if out else None)
    times, problems = {}, []
    saved = os.environ.get("PTLAB_THREADS")
    try:
        for threads in (1, 2):
            os.environ["PTLAB_THREADS"] = str(threads)
            t0 = time.perf_counter()
            for cmd, grid in grids.items():
                cfg, csv_path = outdir / f"sweep-{cmd}.json", outdir / f"sweep-{cmd}.csv"
                cfg.write_text(json.dumps({"command": cmd, "grid": grid}))
                if ops.cli.main(["sweep", "--config", str(cfg), "--out", str(csv_path)]) != 0:
                    problems.append(f"sweep {cmd} with {threads} threads failed")
                    continue
                with open(csv_path) as fh:
                    got = [row["exact"] for row in csv.DictReader(fh)]
                if got != expected[cmd]:
                    problems.append(f"sweep {cmd} with {threads} threads: rows differ")
            times[f"cli.sweep.t{threads}_s"] = time.perf_counter() - t0
    finally:
        if saved is None:
            os.environ.pop("PTLAB_THREADS", None)
        else:
            os.environ["PTLAB_THREADS"] = saved
    return times, problems


def write_spans(path: Path, setup, batch) -> None:
    names: dict[str, int] = {}

    def rows(spans, counters):
        return [[names.setdefault(s[0], len(names)), round(s[1] - T_START, 7),
                 round(s[2] - T_START, 7), s[3], s[4], counters.get(k, 0)]
                for k, s in enumerate(spans)]

    body = {"columns": ["name", "start_s", "end_s", "parent", "op", "work"],
            "setup": rows(*setup), "batch": rows(*batch) if batch else []}
    body["names"] = list(names)
    path.write_text(json.dumps(body, separators=(",", ":")))


def print_metric(name: str, value, unit: str, note: str = "") -> None:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<48} {shown:>14} {unit:<6} {note}".rstrip())


def measure_untraced(args, spec, queries, calls, setup_s, reference):
    """The end-to-end run: batches until ``run_seconds``, then checks and set-up samples."""
    import ops
    reps = run_batches(calls, spec["run_seconds"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdicts = ops.check(args.workload, queries, reps[0].outputs, reference, args.seed)
    failed, reasons = count_failures(reps, verdicts)
    setups = [setup_s] + setup_children(args.workload, args.seed)
    lat = op_latencies(reps)
    pct, tail_s = tail(lat)
    executed = len(calls) * len(reps)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r.wall for r in reps),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_tail_ms": 1000 * tail_s,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; this process {setup_s:.6g}",
        "wall_s": f"median of {len(reps)} batches",
        "op_p50_ms": f"{len(lat)} ops, each its median of {len(reps)} passes",
        "op_tail_ms": f"p{pct:.2f} of {len(lat)} ops, {TAIL_BEYOND} beyond",
    }
    for m in spec["end_to_end"]:
        print_metric(m["name"], values[m["name"]], m["unit"], notes.get(m["name"], ""))
    print_metric("fail_ratio", failed / executed, "share", f"{failed}/{executed} ops")
    if args.workload == "mc-crosscheck":
        draws = sum(q["samples"] * (len(q["Ms"]) if q["op"] == "probe" else 1) for q in queries)
        print_metric("draws_per_s", draws / values["wall_s"], "1/s",
                     f"{draws} Wishart draws per batch")
    return executed, failed, reasons, values


def measure_traced(args, spec, queries, calls, tracer, reference):
    """A warm-up batch, then interleaved untraced/traced passes until ``run_seconds``.

    ``trace.overhead_s`` is the median over passes of the traced minus the
    untraced wall time, both taken from the same interleaved pass.  Per-layer
    totals include the set-up.
    """
    import ops
    from tracing import layer_totals, layer_value, metric_names
    setup_trace = (tracer.spans, tracer.counters)
    setup_layers = layer_totals(*setup_trace)
    t0 = time.perf_counter()
    warm = run_batch(calls)  # the first pass after set-up can run slower
    pairs, pair_s = [], []
    while True:
        tp = time.perf_counter()
        pairs.append(run_interleaved(calls, tracer, len(pairs) % 2))
        pair_s.append(time.perf_counter() - tp)
        if len(pairs) == 1:
            pairs[0][1].spans = (tracer.spans, tracer.counters)
        if time.perf_counter() - t0 + statistics.median(pair_s) > spec["run_seconds"]:
            break
    untraced, traced = [u for u, _ in pairs], [t for _, t in pairs]
    reps = [warm] + untraced + traced
    verdicts = ops.check(args.workload, queries, warm.outputs, reference, args.seed)
    failed, reasons = count_failures(reps, verdicts)
    attempted = len(calls) * len(reps)
    per_rep = [merge_layers(setup_layers, r.layers) for r in traced]
    # counts repeat exactly between batches; times take the median batch
    values = {name: (statistics.median if name.endswith("_s") else statistics.median_low)(
                  [layer_value(name, layers) for layers in per_rep])
              for name in metric_names()}
    values["trace.overhead_s"] = statistics.median(t.wall - u.wall for u, t in pairs)
    if args.workload == "exact-general":
        sweep, problems = sweep_threads(queries, warm.outputs, OUTDIR)
        values.update(sweep)
        attempted += 2 * len(sweep)  # one sweep per command and thread count
        failed += len(problems)
        reasons += problems
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, value in values.items():
        exercised = any(name.rsplit(".", 1)[0] in layers for layers in per_rep)
        if exercised or name.startswith(("trace.", "cli.sweep.")):
            print_metric(name, value, units.get(name, "s" if name.endswith("_s") else "count"))
    print(f"  trace.overhead_s of each pass: {[round(t.wall - u.wall, 4) for u, t in pairs]} s, "
          f"{len(traced[0].spans[0])} spans per traced pass")
    print(f"  interleaved untraced/traced passes {len(pairs)}; traced outputs identical to "
          f"the untraced ones: {all(r.outputs == warm.outputs for r in traced)}")
    OUTDIR.mkdir(exist_ok=True)
    spans_path = OUTDIR / f"spans-{args.workload}.json"
    write_spans(spans_path, setup_trace, traced[0].spans)
    print(f"  spans of the set-up and the first traced batch: {spans_path.relative_to(ROOT)}")
    return attempted, failed, reasons, values


def run_workload(args) -> int:
    import_sources()
    import ops
    import workloads
    from tracing import Tracer

    spec = benchmark_spec()
    check_seconds(args, spec)
    queries = workloads.generate(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    calls = ops.prepare(args.workload, queries, str(OUTDIR))
    setup_s = time.perf_counter() - T_START
    if tracer is not None:
        tracer.uninstall()
    if args.setup_only:
        print(f"setup_s {setup_s!r}")
        return 0

    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(calls)} ops per batch, closed loop, one client")
    print("  environment " + json.dumps(environment(), sort_keys=True))
    if tracer is None:
        attempted, failed, reasons, values = measure_untraced(
            args, spec, queries, calls, setup_s, reference)
        listed = spec["end_to_end"]
    else:
        attempted, failed, reasons, values = measure_traced(
            args, spec, queries, calls, tracer, reference)
        listed = spec["per_layer"]
    for reason in reasons[:20]:
        print(f"  FAILED {reason}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def check_seconds(args, spec) -> None:
    """``--seconds`` may restate ``run_seconds``, the one source of the run length."""
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        print(f"perfbench: --seconds {args.seconds:g} differs from run_seconds "
              f"{spec['run_seconds']} in BENCHMARK.json", file=sys.stderr)
        sys.exit(2)


def run_all(args) -> int:
    """Run every workload in its own process and summarise."""
    import_sources()
    check_seconds(args, benchmark_spec())
    import workloads
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout[:proc.stdout.rstrip().rfind("\n") + 1])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    help="exact-chain, exact-general, mc-crosscheck or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="optional; must equal run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time the set-up only and print it (one setup_s sample)")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
