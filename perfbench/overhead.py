#!/usr/bin/env python3
"""Tracing overhead: every operation run untraced and traced, back to back.

    python3 perfbench/overhead.py --workload depth_sweep --seed 1 --cycles 3

Each pair runs the same operation without and with the tracer installed,
alternating which goes first. The machine's speed drifts by tens of percent
over seconds to minutes, so each side keeps its fastest time per
operation; the overhead is the sum of the traced minima over the sum of
the untraced minima, minus 1.
"""

import argparse
import sys
import time

import run  # sets the BLAS thread count before NumPy loads

sys.path[:0] = [str(run.SRC)]

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def timed(op):
    t0 = time.perf_counter()
    try:
        op.run()
    except Exception:  # a kept-failing operation: no pair
        return None
    return time.perf_counter() - t0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--cycles", type=int, default=1)
    args = p.parse_args()
    workload = WORKLOADS[args.workload](args.seed)
    workload.ops[0].run()  # warm-up
    tracer = spans.Tracer()
    best = {False: {}, True: {}}  # side -> {op index: fastest seconds}
    for cycle in range(args.cycles):
        for i, op in enumerate(workload.ops):
            for traced in ((False, True) if (cycle + i) % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                try:
                    dt = timed(op)
                finally:
                    tracer.uninstall()
                if dt is not None:
                    best[traced][i] = min(dt, best[traced].get(i, dt))
    ops = best[False].keys() & best[True].keys()
    plain, traced = (sum(best[side][i] for i in ops) for side in (False, True))
    print(f"{args.workload}: tracing overhead {traced / plain - 1.0:+.2%} "
          f"({len(ops)} operations x {args.cycles} cycles; fastest untraced "
          f"{plain:.3f} s, traced {traced:.3f} s per cycle)")


if __name__ == "__main__":
    main()
