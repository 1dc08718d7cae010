#!/usr/bin/env python3
"""Benchmark of the nnkernels library, one workload per run.

    python3 perfbench/run.py --workload depth_sweep --seed 1 --seconds 12 --trace 0

Times the package import, sets up the workload three times (input
generation and one warm-up operation each), then runs whole cycles of
its operation list until ``--seconds`` have passed, and checks every
output afterwards. The last line on stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A copy of the result, with per-operation detail, goes to
``perfbench/results/``.
"""

import os

# One BLAS thread, fixed before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

IMPORT_T0 = time.perf_counter()  # the package import starts here, with NumPy

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 3
# Later cycles repeat the first cycle's operations on the same inputs.
REPEAT_RTOL = 1e-9


def set_up(build, seed, tracer, import_s):
    """Median set-up time (``import_s`` plus inputs and warm-up), the last
    built workload, median data time and every set-up time."""
    times, data_s = [], []
    for _ in range(SETUP_REPEATS):
        data_before = tracer.self_s("data.") if tracer else 0.0
        t0 = time.perf_counter()
        workload = build(seed)
        workload.ops[0].run()  # warm-up
        times.append(import_s + time.perf_counter() - t0)
        data_s.append(tracer.self_s("data.") - data_before if tracer else 0.0)
    return statistics.median(times), workload, statistics.median(data_s), times


def timed_phase(ops, seconds):
    """Whole cycles of ``ops`` until ``seconds`` have passed.

    Returns the records (op index, seconds, error), the first cycle's
    outputs, (index, summary) of later cycles, the cycle count and the
    elapsed time.
    """
    records, first, later = [], {}, []
    cycles = 0
    start = time.perf_counter()
    while cycles == 0 or time.perf_counter() - start < seconds:
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                out, err = op.run(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, err = None, exc
            records.append((i, time.perf_counter() - t0, err))
            if out is not None:
                if cycles == 0:
                    first[i] = out
                else:
                    later.append((i, op.summary(out)))
        cycles += 1
    return records, first, later, cycles, time.perf_counter() - start


def check_outputs(workload, first, later):
    """{op index: messages} for outputs that fail a check; pooled messages."""
    bad = {}
    for i, out in first.items():
        msgs = workload.ops[i].check(out)
        if msgs:
            bad[i] = msgs
    for i, summary in later:
        ref = workload.ops[i].summary(first[i]) if i in first else None
        if (ref is None or ref.shape != summary.shape
                or not np.allclose(summary, ref, rtol=REPEAT_RTOL,
                                   atol=REPEAT_RTOL * np.max(np.abs(ref)), equal_nan=True)):
            bad.setdefault(i, []).append("output differs from the first cycle's")
    pooled = workload.pooled_check(first) if workload.pooled_check and first else []
    return bad, pooled


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "nnkernels" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]

    import nnkernels
    import spans
    from workloads import WORKLOADS
    import_s = time.perf_counter() - IMPORT_T0
    if not Path(nnkernels.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported nnkernels from {nnkernels.__file__}, not {SRC}")
    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    setup_s, workload, data_self_s, setup_times = set_up(WORKLOADS[args.workload], args.seed,
                                                            tracer, import_s)
    if tracer:
        tracer.reset()
    records, first, later, cycles, elapsed = timed_phase(workload.ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    t_check = time.perf_counter()
    bad, pooled = check_outputs(workload, first, later)
    check_s = time.perf_counter() - t_check

    ops = workload.ops
    errors = {}
    for i, _, err in records:
        if err is not None and ops[i].label not in errors:
            errors[ops[i].label] = f"{type(err).__name__}: {err}"
            if ops[i].known_fault is None:
                print(f"perfbench: unexpected failure of {ops[i].label}:", file=sys.stderr)
                traceback.print_exception(err, file=sys.stderr)
    for i, msgs in bad.items():
        for msg in msgs:
            print(f"perfbench: check failed on {ops[i].label}: {msg}", file=sys.stderr)
    for msg in pooled:
        print(f"perfbench: pooled check failed: {msg}", file=sys.stderr)

    passed = [dt for i, dt, err in records if err is None and i not in bad and not pooled]
    if args.trace:
        metrics = spans.per_layer(tracer, cycles, data_self_s)
    else:
        metrics = {
            "ops_per_s": (len(passed) / elapsed, "1/s"),
            "op_p50_ms": (1e3 * statistics.median(passed or [dt for _, dt, _ in records]), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not bad and not pooled,
        "attempted": len(records),
        "failed": sum(err is not None for _, _, err in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    op_ms = {}
    for i, dt, err in records:
        if err is None:
            op_ms.setdefault(ops[i].label, []).append(1e3 * dt)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cycles": cycles, "elapsed_s": elapsed,
        "setup_s_each": setup_times, "check_s": check_s,
        "op_ms_median": {k: statistics.median(v) for k, v in op_ms.items()},
        "errors": errors,
        "checks_failed": {ops[i].label: m for i, m in bad.items()} | (
            {"pooled": pooled} if pooled else {}),
        "spans": ({k: vars(v) for k, v in sorted(tracer.stats.items()) if v.calls}
                  if tracer else {}),
        "result": result,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
