#!/usr/bin/env python3
"""Record the benchmark of one or more checkouts as BENCH_<label>.json.

    python3 scripts/bench_record.py --checkout LABEL=DIR [--checkout LABEL=DIR ...]
        [--workloads W ...] [--seeds K] [--seconds T] [--cli] [--micro]
        [--no-tier1] [--out-dir DIR]

For each seed 1..K and each workload, runs the benchmark command of
``BENCHMARK.json`` (``perfbench/run.py`` with ``--trace 0``) once in every
checkout, rotating the order of the checkouts from seed to seed, so two
checkouts make alternating pairs of runs. Each checkout's file holds:
every run, and per workload the median and quartiles of each end-to-end
metric, failed/attempted and whether every run was correct; the tier-1
wall time and pass count (run once per checkout, unless ``--no-tier1``);
``src_lines``, the ``wc -l`` total of ``src/nnkernels/*.py``; and the git SHA, with ``dirty`` set when
``src/`` differs from it. With two or more checkouts, each file after
the first also counts, per workload and metric, the pairs of runs it won
against the first checkout (ties count for neither), and gives the
median and quartiles over seeds of the log ratio of its run to the
first checkout's run of the same seed.

With ``--cli``, each seed also runs every case of ``CLI_CASES`` once per
checkout, in the same rotating order: an ``nnk`` subcommand at its
documented defaults, started as ``python -m nnkernels.cli`` in a fresh
process with ``--out`` added, so its wall time includes the interpreter
start and the package import. ``gp-fit`` and ``benchmark`` read a
100 x 6 CSV generated from a fixed seed. The file's ``cli`` entry (null
without ``--cli``) gives per case the median and quartiles of the wall
time, every exit code, and the sha256 of stdout and of the ``--out``
file, per run and, where all runs agree, once; each file after the first
also says whether its bytes equal the first checkout's. Each seed also
times ``python -c "import nnkernels"`` once per checkout, in the same
order and environment; ``import_s`` (null without ``--cli``) holds the
median, the quartiles and every run, to read beside the benchmark's
``setup_s``, which is mostly this import.

With ``--micro``, after the seeds, each checkout runs ``MICRO_SCRIPT``
once, in a fresh process: the ns per entry of ELU ``pair_moments`` for
each case of ``MICRO_CASES`` (a band and a batch size: the Genz-band
interior at batch 1, as in one fixed-point step, and at 5,050, the pairs
of one ``elu_gp`` layer; the 0.925 <= |rho| < 1 tail band at batch 1 and
at 128), the min over 5 runs of ``MICRO_CALLS / batch`` calls (at least
3). The file's ``micro`` entry (null without ``--micro``) holds them and,
in each file after the first, the log ratio of each case to the first
checkout's.

The default checkout is this repository, labelled by its short SHA.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
NNK = [sys.executable, "-m", "nnkernels.cli"]
IMPORT = [sys.executable, "-c", "import nnkernels"]
# name -> arguments; "{dataset}" stands for the generated CSV
CLI_CASES = {
    "kernel-eval": ["kernel-eval"],
    "mc-verify": ["mc-verify"],
    "fixedpoint": ["fixedpoint"],
    "norm-preserve": ["norm-preserve"],
    "gp-fit": ["gp-fit", "--dataset", "{dataset}"],
    "benchmark": ["benchmark", "--dataset", "{dataset}"],
    "simplicity": ["simplicity"],
    "kernel-eval-elu": ["kernel-eval", "--activation", "elu"],
    "fixedpoint-elu": ["fixedpoint", "--activation", "elu"],
    "fixedpoint-lrelu": ["fixedpoint", "--activation", "lrelu"],
    "fixedpoint-norm0.5": ["fixedpoint", "--norm", "0.5"],
    "gp-fit-elu": ["gp-fit", "--activation", "elu", "--dataset", "{dataset}"],
}
# name -> (band, batch) of the --micro cases
MICRO_CASES = {"interior-1": ("interior", 1), "interior-5050": ("interior", 5050),
               "tail-1": ("tail", 1), "tail-128": ("tail", 128)}
MICRO_CALLS = 2000
# argv[1]: JSON [[name, band, batch], ...], argv[2]: MICRO_CALLS. s1 is
# log-uniform on [0.25, 25], s2 = s1 U(0.7, 1); |rho| is U(0, 0.9) in the
# interior and U(0.93, 0.999) in the tail band, of either sign.
MICRO_SCRIPT = """
import json, sys, timeit
import numpy as np
from nnkernels.activations import ELU
from nnkernels.kernels import pair_moments
out = {}
for name, band, n in json.loads(sys.argv[1]):
    rng = np.random.default_rng(0)
    s1 = np.exp(rng.uniform(np.log(0.25), np.log(25.0), n))
    s2 = s1 * rng.uniform(0.7, 1.0, n)
    lo, hi = (0.0, 0.9) if band == "interior" else (0.93, 0.999)
    rho = rng.choice([-1.0, 1.0], n) * rng.uniform(lo, hi, n)
    number = max(3, int(sys.argv[2]) // n)
    best = min(timeit.repeat(lambda: pair_moments(ELU, s1, s2, rho), number=number, repeat=5))
    out[name] = best / number / n * 1e9
print(json.dumps(out))
"""


def _git(checkout, *args):
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def _src_lines(checkout):
    """The ``wc -l`` total of ``src/nnkernels/*.py``: its newline count."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "nnkernels").glob("*.py"))


def _env(checkout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(checkout / "src"), env.get("PYTHONPATH")]))
    return env


def run_tier1(checkout):
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=checkout, env=_env(checkout),
                          capture_output=True, text=True)
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {key: int(n) for n, key in re.findall(r"(\d+) (passed|failed|errors?)", summary)}
    return {"wall_s": time.perf_counter() - t0, "exit_code": proc.returncode,
            "passed": counts.get("passed", 0), "summary": summary}


def run_benchmark(checkout, command, workload, seed, seconds):
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def write_dataset(path):
    """The ``gp-fit`` and ``benchmark`` CSV: a header, 100 rows of 6
    standard normal features and a sin target plus noise, from seed 0."""
    rows, dim = 100, 6
    rng = np.random.default_rng(0)
    X = rng.standard_normal((rows, dim))
    y = np.sin(X @ rng.standard_normal(dim) / np.sqrt(dim)) + 0.1 * rng.standard_normal(rows)
    lines = [",".join([f"x{i}" for i in range(dim)] + ["y"])]
    lines += [",".join(f"{v:.17g}" for v in row) for row in np.column_stack([X, y])]
    Path(path).write_text("\n".join(lines) + "\n")


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def run_cli(checkout, argv, workdir):
    """One ``nnk`` run in a fresh process: wall time, exit code and the
    sha256 of stdout and of the ``--out`` file (None if none was written)."""
    out = Path(workdir) / "out"
    out.unlink(missing_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.run([*NNK, *argv, "--out", str(out)], cwd=workdir, env=_env(checkout),
                          capture_output=True)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "exit_code": proc.returncode, "stdout_sha256": _sha256(proc.stdout),
            "out_sha256": _sha256(out.read_bytes()) if out.exists() else None}


def run_import(checkout, workdir):
    """Wall time of ``import nnkernels`` in a fresh process, with the
    environment of the ``nnk`` cases."""
    t0 = time.perf_counter()
    proc = subprocess.run(IMPORT, cwd=workdir, env=_env(checkout), capture_output=True,
                          text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: import nnkernels exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return wall


def run_micro(checkout, workdir):
    """ns per entry of each ``MICRO_CASES`` case, from one fresh process."""
    cases = json.dumps([[name, band, n] for name, (band, n) in MICRO_CASES.items()])
    proc = subprocess.run([sys.executable, "-c", MICRO_SCRIPT, cases, str(MICRO_CALLS)],
                          cwd=workdir, env=_env(checkout), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: micro exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": med, "q1": q1, "q3": q3}


def summarize_cli(runs):
    out = {"wall_s": _quartiles([r["wall_s"] for r in runs]),
           "exit_codes": [r["exit_code"] for r in runs]}
    for key in ("stdout_sha256", "out_sha256"):
        values = {r[key] for r in runs}
        out[key] = values.pop() if len(values) == 1 else None
    out["runs"] = runs
    return out


def summarize(runs, metrics):
    out = {"attempted": sum(r["attempted"] for r in runs),
           "failed": sum(r["failed"] for r in runs),
           "all_correct": all(r["correct"] for r in runs), "metrics": {}}
    for m in metrics:
        out["metrics"][m["name"]] = {"unit": m["unit"], "better": m["better"],
                                     **_quartiles([r["metrics"][m["name"]] for r in runs])}
    return out


def pairs_won(runs, base_runs, metrics):
    won = {}
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        diffs = [sign * (r["metrics"][name] - b["metrics"][name])
                 for r, b in zip(runs, base_runs)]
        won[name] = {"won": sum(d > 0 for d in diffs), "lost": sum(d < 0 for d in diffs),
                     "pairs": len(diffs)}
    return won


def paired_log_ratios(runs, base_runs, metrics):
    """Median and quartiles over seeds of log(run / base run) per metric.

    Each seed runs both checkouts back to back, so the ratio cancels the
    machine's speed drift from seed to seed, which widens each side's
    own quartiles. None where a value is not positive.
    """
    out = {}
    for m in metrics:
        name = m["name"]
        pairs = [(r["metrics"][name], b["metrics"][name]) for r, b in zip(runs, base_runs)]
        if not all(a > 0 and b > 0 for a, b in pairs):
            out[name] = None
            continue
        out[name] = _quartiles([np.log(a / b) for a, b in pairs])
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--checkout", action="append", default=[], metavar="LABEL=DIR")
    p.add_argument("--workloads", nargs="+")
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--seconds", type=float)
    p.add_argument("--cli", action="store_true")
    p.add_argument("--micro", action="store_true")
    p.add_argument("--no-tier1", action="store_true")
    p.add_argument("--out-dir", type=Path, default=REPO)
    args = p.parse_args(argv)
    if args.seeds < 1:
        p.error("--seeds must be >= 1")
    checkouts = {}
    for item in args.checkout or [f"{_git(REPO, 'rev-parse', '--short', 'HEAD')}={REPO}"]:
        label, sep, path = item.partition("=")
        if not sep or not label or label in checkouts:
            p.error(f"--checkout needs a unique LABEL=DIR, got {item!r}")
        checkouts[label] = Path(path).resolve()
    return args, checkouts


def main(argv=None):
    args, checkouts = parse_args(argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    seeds = list(range(1, args.seeds + 1))
    labels = list(checkouts)

    runs = {label: {w: [] for w in workloads} for label in labels}
    cli_runs = {label: {c: [] for c in CLI_CASES} for label in labels}
    import_runs = {label: [] for label in labels}
    with tempfile.TemporaryDirectory() as workdir:
        dataset = Path(workdir) / "gp_fit.csv"
        write_dataset(dataset)
        for i, seed in enumerate(seeds):
            order = labels[i % len(labels):] + labels[:i % len(labels)]
            for w in workloads:
                for label in order:
                    run = run_benchmark(checkouts[label], spec["command"], w, seed, seconds)
                    run["position"] = order.index(label)
                    runs[label][w].append(run)
                    print(f"{label} {w} seed {seed}: {json.dumps(run['metrics'])}", flush=True)
            for label in order if args.cli else ():
                import_runs[label].append(run_import(checkouts[label], workdir))
                print(f"{label} import seed {seed}: {import_runs[label][-1]:.3f} s", flush=True)
            for case, argv in CLI_CASES.items() if args.cli else ():
                argv = [a.replace("{dataset}", str(dataset)) for a in argv]
                for label in order:
                    run = run_cli(checkouts[label], argv, workdir)
                    cli_runs[label][case].append(run)
                    print(f"{label} nnk {case} seed {seed}: {run['wall_s']:.3f} s, "
                          f"exit {run['exit_code']}", flush=True)
        micro = {}
        for label in labels if args.micro else ():
            micro[label] = run_micro(checkouts[label], workdir)
            print(f"{label} micro: {json.dumps(micro[label])}", flush=True)

    for label in labels:
        checkout = checkouts[label]
        record = {
            "label": label,
            "git_sha": _git(checkout, "rev-parse", "HEAD"),
            "dirty": bool(_git(checkout, "status", "--porcelain", "--", "src")),
            "src_lines": _src_lines(checkout),
            "tier1": None if args.no_tier1 else run_tier1(checkout),
            "settings": {"seconds": seconds, "seeds": seeds, "checkouts": labels,
                         "cpus": os.cpu_count(), "quartiles": "numpy linear"},
            "workloads": {},
            "cli": None,
            "import_s": None,
            "micro": None,
        }
        for w in workloads:
            entry = summarize(runs[label][w], spec["end_to_end"])
            if label != labels[0]:
                base = runs[labels[0]][w]
                entry["pairs_won_vs_" + labels[0]] = pairs_won(
                    runs[label][w], base, spec["end_to_end"])
                entry["log_ratio_vs_" + labels[0]] = paired_log_ratios(
                    runs[label][w], base, spec["end_to_end"])
            entry["runs"] = runs[label][w]
            record["workloads"][w] = entry
        if args.cli:
            record["import_s"] = {**_quartiles(import_runs[label]), "runs": import_runs[label]}
            record["cli"] = {}
            for case, argv in CLI_CASES.items():
                entry = {"argv": argv, **summarize_cli(cli_runs[label][case])}
                if label != labels[0]:
                    both = cli_runs[label][case] + cli_runs[labels[0]][case]
                    entry["same_bytes_as_" + labels[0]] = all(
                        len({r[k] for r in both}) == 1 for k in ("stdout_sha256", "out_sha256"))
                record["cli"][case] = entry
        if args.micro:
            record["micro"] = {"ns_per_entry": micro[label]}
            if label != labels[0]:
                record["micro"]["log_ratio_vs_" + labels[0]] = {
                    case: float(np.log(ns / micro[labels[0]][case]))
                    for case, ns in micro[label].items()}
        args.out_dir.mkdir(parents=True, exist_ok=True)
        out = args.out_dir / f"BENCH_{label}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
