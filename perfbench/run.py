"""fthresh benchmark runner: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload nu-scan --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1     # every workload, one table
    python3 perfbench/run.py --workload nu-scan --check-counts

Run from the repository root or anywhere else; paths are resolved from this
file. Ops run one after another (the next starts when the previous returns),
in whole passes over the workload's op list until --seconds have passed.
Results are checked after each pass, outside the timed region. The last line
of stdout is one JSON object: end-to-end metrics with --trace 0, per-layer
metrics (spans around fthresh's entry points) with --trace 1. A results file
with provenance goes to perfbench/results/.
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import workloads  # noqa: E402

# Address-space cap: a runaway Macaulay matrix fails with MemoryError instead
# of taking the machine's memory.
MEMORY_CAP = 6 << 30
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
    "wrong_results": "count",
}
# The result line carries the metrics BENCHMARK.json declares, each with a
# regression bound. The others are printed and stored in the results file:
# failed_ratio and wrong_results can be 0 (the line carries them as "failed"
# and "correct"), and op_p50_ms and op_tail_ms spread too widely from run to
# run on a shared host to bound (NOTES.md).
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def setup(workload: str):
    """Imports, session loading and seeded input generation."""
    import fthresh
    import fthresh.cli
    import fthresh.frobenius
    import fthresh.verifier
    import oracles

    if Path(fthresh.__file__).resolve().parent != ROOT / "src" / "fthresh":
        raise SystemExit(f"fthresh was imported from {fthresh.__file__}, not from {ROOT / 'src'}")
    fx = types.SimpleNamespace(
        cli=fthresh.cli,
        frobenius=fthresh.frobenius,
        verifier=fthresh.verifier,
        QuotientRing=fthresh.QuotientRing,
        Ideal=fthresh.Ideal,
        parse_poly=fthresh.parse_poly,
        oracles=oracles,
    )
    return workloads.build(fx, workload)


def _setup_in_child(args) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _timed(op, ctx):
    t0 = time.perf_counter()
    try:
        result, error = op.run(ctx), None
    except Exception as exc:  # an op's failure is data, not a crash
        # without its traceback, the failed op's frames and arrays are freed now
        result, error = None, exc.with_traceback(None)
    return result, error, time.perf_counter() - t0


def run_passes(ops, seconds: float, tracer=None):
    """Whole passes over the op list until `seconds` have passed; checks follow each pass.

    A pass's time is the sum of its op latencies.
    """
    latencies, pass_times, problems = [], [], []
    failed = wrong = 0
    began = time.perf_counter()
    while True:
        gc.collect()
        ctx, outcomes = {}, []
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            result, error, latency = _timed(op, ctx)
            if tracer is not None:
                tracer.op = -1
            ctx[op.name] = result
            outcomes.append((op, result, error, latency))
        pass_times.append(sum(outcome[3] for outcome in outcomes))
        for op, result, error, latency in outcomes:
            latencies.append((op.name, latency))
            if error is not None:
                if type(error).__name__ == op.expected_error:
                    continue
                failed += 1
                problems.append(f"FAILED {op.name}: {type(error).__name__}: {str(error)[:200]}")
            elif op.expected_error:
                wrong += 1
                problems.append(f"WRONG {op.name}: returned instead of raising {op.expected_error}")
            else:
                message = op.check(result, ctx)
                if message:
                    wrong += 1
                    problems.append(f"WRONG {op.name}: {message[:300]}")
        if time.perf_counter() - began >= seconds:
            return latencies, pass_times, failed, wrong, problems


def end_to_end(setup_times, latencies, pass_times, failed, wrong):
    ms = sorted(lat * 1000 for _, lat in latencies)
    n = len(ms)
    # the highest percentile that still has at least ten ops beyond it
    tail_index = max(n - 11, 0)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(pass_times),
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": ms[tail_index],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_ratio": failed / n,
        "wrong_results": wrong,
    }, {"ops": n, "tail_percentile": round(100 * (tail_index + 1) / n, 2)}


def provenance(args):
    import numpy

    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_level"):
        return "nf/level"
    return "count"


def traced_run(args, ops, record):
    """An untraced pass for reference, then a traced pass; returns the per-layer view."""
    import tracer as tracing

    latencies, pass_times, failed, wrong, problems = run_passes(ops, 0)
    untraced_wall = statistics.median(pass_times)
    tr = tracing.Tracer()
    tr.install()
    t_latencies, t_pass_times, t_failed, t_wrong, t_problems = run_passes(ops, 0, tr)
    layer, seen, calls = tr.metrics()
    traced_wall = statistics.median(t_pass_times)
    layer["trace.overhead_s"] = traced_wall - untraced_wall
    layer["trace.spans"] = len(tr.start)
    missing = [g for g in tracing.EXPECTED_GROUPS[args.workload] if g not in seen]
    problems += t_problems + [f"SELF-CHECK no span recorded for {g}" for g in missing]
    record.update(per_layer=layer, span_calls=calls, traced_wall_s=traced_wall,
                  untraced_wall_s=untraced_wall)
    shown = {k: (v, _unit(k)) for k, v in layer.items()}
    correct = wrong + t_wrong == 0 and not missing
    return latencies + t_latencies, failed + t_failed, correct, problems, shown


def run_workload(args) -> int:
    units = setup(args.workload)
    own_setup = time.perf_counter() - _STARTED
    random.Random(args.seed).shuffle(units)
    ops = [op for unit in units for op in unit]
    record = provenance(args)

    if args.trace:
        latencies, failed, correct, problems, shown = traced_run(args, ops, record)
        summary = f"{len(ops)} ops per pass, one untraced and one traced pass"
    else:
        # A process imports once, so the other set-up samples come from child
        # processes: half before the passes and half after, so that their
        # median spans the run rather than one moment of the host's speed.
        setup_times = [own_setup] + [_setup_in_child(args) for _ in range(SETUP_REPEATS // 2)]
        latencies, pass_times, failed, wrong, problems = run_passes(ops, args.seconds)
        setup_times += [_setup_in_child(args) for _ in range(SETUP_REPEATS // 2)]
        metrics, info = end_to_end(setup_times, latencies, pass_times, failed, wrong)
        record.update(end_to_end=metrics, **info, passes=len(pass_times), setup_samples=setup_times)
        correct = wrong == 0
        shown = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        summary = (f"{info['ops']} ops per pass x {len(pass_times)} pass(es), "
                   f"op_tail_ms is p{info['tail_percentile']}")

    record.update(correct=correct, problems=problems,
                  op_latency_ms=[[name, round(lat * 1000, 3)] for name, lat in latencies])
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for line in problems:
        print(line, file=sys.stderr)
    print(f"# {args.workload}: {summary}; results in {out.relative_to(ROOT)}")
    for name, (value, unit) in shown.items():
        print(f"{args.workload:>15} {name:<28} {value:>14.6g} {unit}")
    declared = DECLARED["per_layer" if args.trace else "end_to_end"]
    reported = {m["name"]: {"value": shown[m["name"]][0], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": correct, "attempted": len(latencies), "failed": failed, "metrics": reported}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one table, then a combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            raise SystemExit(f"{workload} exited with {out.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def check_counts(args) -> int:
    """Two traced runs of the same code must give identical work counts.

    The two runs use different PYTHONHASHSEEDs, so a count that depends on
    set or dict iteration order shows up as a difference.
    """
    import tracer as tracing

    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    ok = True
    for workload in names:
        counts = []
        for hash_seed in ("1", "2"):
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", "0", "--trace", "1"],
                cwd=ROOT, capture_output=True, check=True, timeout=600,
                env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            )
            record = json.loads((RESULTS / f"{workload}-seed{args.seed}-trace1.json").read_text())
            counts.append({k: record["per_layer"][k] for k in tracing.COUNT_METRICS})
        same = counts[0] == counts[1]
        ok &= same
        print(f"{workload}: counts {'identical' if same else 'DIFFER'} {counts[0] if same else counts}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0, help="orders the op list")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--check-counts", action="store_true",
                        help="run the traced workload twice and compare work counts")
    args = parser.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    if args.setup_only:
        setup(args.workload)
        print(time.perf_counter() - _STARTED)
        return 0
    if args.check_counts:
        return check_counts(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
