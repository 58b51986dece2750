"""jccopt benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One closed-loop client in one process, BLAS
pinned to one thread.  The workload's inputs are drawn from ``--seed``;
whole passes over the workload's ops repeat until ``--seconds`` have
passed.  Outputs are checked after the timed loop.  The last stdout line
is one JSON object: end-to-end metrics with ``--trace 0``, per-layer
metrics from a traced run with ``--trace 1``.  An op that ends in a
program error counts as failed; an answer that fails a check also makes
the run incorrect, and the run then exits 1.  Exits 2 when the program
cannot be imported from ``src/``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 10
P90_MIN_SAMPLES = 100   # the p90 needs ten samples beyond it
END_TO_END = {"setup_s": "s", "op_s_p50": "s", "ops_per_s": "1/s",
              "feasible_frac": "frac", "cost_mean": "cost",
              "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up only and print the set-up time")
    return p.parse_args(argv)


def die(message: str):
    print(message, file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import jccopt from this checkout's src/, never from elsewhere."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        import jccopt
    except ImportError as exc:
        die(f"cannot import jccopt from {SRC}: {exc}")
    if Path(jccopt.__file__).resolve().parent.parent != SRC:
        die(f"jccopt was imported from {jccopt.__file__}, not {SRC}")
    import workloads
    return workloads


def set_up(workloads, args):
    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; have "
            f"{sorted(workloads.WORKLOADS)}")
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    return workloads.WORKLOADS[args.workload](args.seed, workdir), workdir


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter, from its first line to ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                         check=True)
    return float(out.stdout.split()[-1])


def run_passes(ops, seconds, tracer=None):
    """Closed loop: whole passes over the ops until ``seconds`` elapsed."""
    records = []   # (op, seconds, output, exception)
    t0 = time.perf_counter()
    while True:
        for op in ops:
            k = len(records)
            if tracer is not None:
                tracer.begin_op(k)
            t = time.perf_counter()
            try:
                out, err = op.run(k), None
            except Exception as exc:  # a failing op is counted, not fatal
                out, err = None, exc
            dt = time.perf_counter() - t
            if tracer is not None:
                tracer.end_op()
            records.append((op, dt, out, err))
        if tracer is not None:
            tracer.record_lps = False   # later passes repeat the first
        if time.perf_counter() - t0 >= seconds:
            return records, time.perf_counter() - t0


def judge(records):
    """Check every op; an answer also counts as wrong when it differs from
    the first pass.  Returns the verdicts and one line per failure."""
    import check

    verdicts, failures, first = [], [], {}
    for k, (op, _, out, err) in enumerate(records):
        if err is not None:
            v = check.Verdict.failed(f"raised {type(err).__name__}: {err}")
        else:
            try:
                v = op.check(out)
            except Exception as exc:
                v = check.Verdict(problems=[f"check raised {exc!r}"])
        if first.setdefault(op.label, v.costs) != v.costs:
            v.problems.append(f"costs {v.costs} differ from the first pass "
                              f"{first[op.label]}")
        verdicts.append(v)
        if v.error is not None:
            failures.append(f"FAILED op {k} ({op.label}): {v.error}")
        failures += [f"WRONG op {k} ({op.label}): {p}" for p in v.problems]
    return verdicts, failures


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    ops, workdir = set_up(workloads, args)
    setup_here = time.perf_counter() - START
    if args.setup_probe:
        shutil.rmtree(workdir)
        print(setup_here)
        return 0
    try:
        return measure(args, ops, workdir, setup_here)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, ops, workdir, setup_here) -> int:
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer().install()
        tracer.record_lps = True
        setup_times = [setup_here]
    else:
        setup_times = [setup_here] + [probe_setup(args) for _ in range(SETUP_PROBES)]
    records, loop_s = run_passes(ops, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    verdicts, failures = judge(records)
    for line in failures:
        print(line)

    n = len(records)
    failed = sum(not v.ok for v in verdicts)
    correct = not any(v.problems for v in verdicts)
    # A failed op misses any latency limit: it ranks as slower than every
    # completed op, taking the whole loop's time.
    times = [r[1] if v.ok else loop_s for r, v in zip(records, verdicts)]
    costs = [c for v in verdicts if v.ok for c in v.costs]
    op_p50 = statistics.median(times)
    named = {
        "setup_s": statistics.median(setup_times),
        "op_s_p50": op_p50,
        "ops_per_s": (n - failed) / loop_s,
        "feasible_frac": len(costs) / sum(v.solves for v in verdicts),
        "cost_mean": statistics.fmean(costs) if costs else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "failed_frac": (failed / n, "frac"),
        "op_s_p90": ((statistics.quantiles(times, n=10)[-1], "s")
                     if n >= P90_MIN_SAMPLES else None),
        "report_bytes": (statistics.fmean(v.bytes_written for v in verdicts), "B"),
    }
    print(f"workload={args.workload} seed={args.seed} ops={n} "
          f"passes={n // len(ops)} loop_s={loop_s:.3f}")
    for name, value in named.items():
        print(f"  {name:<14}{value:>16.6f} {END_TO_END[name]}")
    for name, value in extra.items():
        print(f"  {name:<14}" + (f"{value[0]:>16.6f} {value[1]}" if value
                                 else f"{'n/a':>16} ({n} samples)"))

    if tracer is None:
        metrics = {k: metric(v, END_TO_END[k]) for k, v in named.items()}
    else:
        metrics = traced_metrics(args, tracer, n, op_p50, extra)
    print(json.dumps({"correct": correct, "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def traced_metrics(args, tracer, n, op_p50, extra):
    import tracing
    from layers import LAYER_METRICS

    values, self_per_op = tracing.layer_metrics(tracer, n)
    mismatches, lines = tracing.reference_mismatches(tracer.lps)
    for line in lines:
        print(f"HiGHS mismatch: {line}")
    values.update({
        "lp.ref_mismatch": mismatches,
        "lp.ref_checked": len(tracer.lps),
        "cli.report_bytes": extra["report_bytes"][0],
        "bench.failed_frac": extra["failed_frac"][0],
        "trace.op_s_p50": op_p50,
    })
    path = WORK / "traces" / f"{args.workload}-{args.seed}.spans.json"
    tracing.write_spans(tracer, path)
    print(f"wrote {len(tracer.spans)} spans to {path.relative_to(ROOT)}")
    print(tracing.layer_table(self_per_op, op_p50, values))
    return {k: metric(values[k], unit) for k, (unit, _, _) in LAYER_METRICS.items()}


if __name__ == "__main__":
    sys.exit(main())
