#!/usr/bin/env python3
"""Overfitting/underfitting depth sweep on the unit-circle tasks.

Runs GP regression with GELU and ReLU deep kernels at their
norm-preserving weight scales for depths 1..100, 10 random training
sets per target function, and writes train/test MSE rows per depth.
GELU train error keeps falling with depth (overfitting); ReLU errors
flatten toward the constant predictor (underfitting). Stops at the
first failing run and exits with its non-zero code.
"""

import argparse
import sys

from nnkernels.cli import main as cli_main


def run(outdir, functions, n_train, repeats):
    for f in functions:
        out = f"{outdir}/depth_sweep_{f}.csv"
        code = cli_main(["simplicity", "--f", f, "--n-train", str(n_train),
                         "--depth-max", "100", "--repeats", str(repeats),
                         "--out", out, "--self-check"])
        if code != 0:
            return code
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--outdir", default=".")
    p.add_argument("--functions", nargs="+", default=["sin"],
                   choices=["sin", "saw", "cubic", "sinc", "expabs", "tan"])
    p.add_argument("--n-train", type=int, default=30)
    p.add_argument("--repeats", type=int, default=10)
    args = p.parse_args()
    sys.exit(run(args.outdir, args.functions, args.n_train, args.repeats))
