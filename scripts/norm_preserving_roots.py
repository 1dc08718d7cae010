#!/usr/bin/env python3
"""Norm-preserving weight scales sigma*(||x||) for each activation.

Writes one CSV per activation with columns norm, sigma_star, activation
(the data behind the sigma* panel): the GELU/ELU roots approach the
ReLU value sqrt(2) as the input norm grows. Stops at the first failing
activation and exits with its non-zero code.
"""

import argparse
import sys

from nnkernels.cli import main as cli_main


def run(outdir):
    for act in ("gelu", "elu", "relu"):
        out = f"{outdir}/sigma_star_{act}.csv"
        code = cli_main(["norm-preserve", "--activation", act,
                         "--norm-min", "0.1", "--norm-max", "10.0",
                         "--norm-points", "80", "--out", out, "--self-check"])
        if code != 0:
            return code
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--outdir", default=".")
    sys.exit(run(p.parse_args().outdir))
