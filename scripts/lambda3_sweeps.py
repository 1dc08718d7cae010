#!/usr/bin/env python3
"""Angle sweeps of the correlation eigenvalue lambda_3.

For each activation and input norm, evaluates lambda_3 at the
norm-preserving sigma* over theta in (0, pi) and writes the sweep CSV
(columns theta, lambda3, activation, norm, sigma, method) plus the
contraction verdict JSON on stdout. LReLU stays below 1 everywhere;
GELU and ELU cross 1 near theta = 0. Stops at the first failing run
and exits with its non-zero code.
"""

import argparse
import sys

from nnkernels.cli import main as cli_main


def run(outdir):
    for act in ("lrelu", "gelu", "elu"):
        for norm in ("0.5", "1.0", "5.0"):
            out = f"{outdir}/lambda3_{act}_norm{norm}.csv"
            code = cli_main(["fixedpoint", "--activation", act, "--norm", norm,
                             "--theta-points", "512", "--out", out, "--self-check"])
            if code != 0:
                return code
            print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--outdir", default=".")
    sys.exit(run(p.parse_args().outdir))
