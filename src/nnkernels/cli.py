"""Command-line entry point emitting plot-ready CSV/JSON series.

Subcommands: kernel-eval | mc-verify | fixedpoint | norm-preserve |
gp-fit | benchmark | simplicity. Every run is deterministic given its
seed; errors exit with code 1 and a machine-readable JSON object on
stderr. Output schemas are documented in the README.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import data as data_mod
from . import fixed_point as fp
from . import gp as gp_mod
from .activations import from_name
from .deep import (NetworkHyper, deep_normalized_kernel, input_state,
                   iterate_state, kernel_matrices_by_depth)
from .finite_width import empirical_trajectory
from .kernels import kernel_dot_values


def _fmt(v):
    return repr(float(v)) if isinstance(v, (float, np.floating)) else v


def _to_stdout(out):
    return out is None or out == "-"


def _write_rows(out, fmt, columns, rows):
    if fmt == "csv":
        def dump(fh):
            w = csv.writer(fh)
            w.writerow(columns)
            for r in rows:
                w.writerow([_fmt(v) for v in r])
    else:
        def dump(fh):
            json.dump({"columns": list(columns), "rows": [list(r) for r in rows]},
                      fh, default=float)
            fh.write("\n")
    if _to_stdout(out):
        dump(sys.stdout)
    else:
        with open(out, "w", newline="") as fh:
            dump(fh)


def _self_check(out, fmt, columns, n_rows):
    if fmt == "csv":
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != list(columns) or len(rows) - 1 != n_rows:
            raise ValueError(f"self-check failed on {out}: schema or row count mismatch")
        for r in rows[1:]:
            if len(r) != len(columns):
                raise ValueError(f"self-check failed on {out}: ragged row")
    else:
        with open(out) as fh:
            obj = json.load(fh)
        if obj["columns"] != list(columns) or len(obj["rows"]) != n_rows:
            raise ValueError(f"self-check failed on {out}: schema or row count mismatch")
    print(json.dumps({"self_check": "ok", "rows": n_rows}))


def _activation(args):
    return from_name(args.activation or "gelu", lrelu_slope=args.lrelu_slope)


def _sigma_w2(args, act, norm):
    if args.sigma_w2 is not None:
        return args.sigma_w2, np.sqrt(args.sigma_w2)
    sigma = fp.sigma_star(act, norm)
    return sigma * sigma, sigma


def cmd_kernel_eval(args):
    act = _activation(args)
    sw2, _ = _sigma_w2(args, act, args.norm)
    thetas = np.linspace(0.0, np.pi, args.theta_points)
    columns = ("theta0", "layer", "s1_sq", "s2_sq", "rho", "k", "kdot")
    state = input_state(thetas, args.norm, sw2, args.sigma_b2)
    layers = []
    for _ in range(args.depth):
        kdot = kernel_dot_values(act, np.sqrt(state.s1_sq), np.sqrt(state.s2_sq),
                                 state.rho, sw2)
        state = iterate_state(act, state, sw2, args.sigma_b2)
        k = state.rho * np.sqrt(state.s1_sq * state.s2_sq)
        layers.append((state.s1_sq, state.s2_sq, state.rho, k, kdot))
    rows = [(float(theta0), layer, *(float(col[i]) for col in cols))
            for i, theta0 in enumerate(thetas)
            for layer, cols in enumerate(layers, start=1)]
    return columns, rows, None


def cmd_mc_verify(args):
    act = _activation(args)
    sw2, _ = _sigma_w2(args, act, args.norm)
    thetas = np.linspace(0.0, np.pi, args.theta_points)
    columns = ("theta0", "layer", "empirical_rho", "analytic_rho", "seed")
    hyper = NetworkHyper.shared(args.depth, sw2, args.sigma_b2)
    analytic = deep_normalized_kernel(act, thetas, args.norm, hyper)
    rows = []
    for i, theta0 in enumerate(thetas):
        for rep in range(args.repeats):
            seed = args.seed + 1000 * rep + i
            emp = empirical_trajectory(act, float(theta0), args.norm, args.width,
                                       args.depth, sw2, args.sigma_b2, seed)
            for layer in range(1, args.depth + 1):
                rows.append((float(theta0), layer, float(emp[layer - 1]),
                             float(analytic[i, layer - 1]), seed))
    return columns, rows, None


def cmd_fixedpoint(args):
    act = _activation(args)
    sw2, sigma = _sigma_w2(args, act, args.norm)
    thetas = np.pi * (np.arange(args.theta_points) + 1.0) / (args.theta_points + 1.0)
    rows = fp.lambda3_sweep_rows(act, args.norm, sigma, thetas, args.sigma_b2)
    columns = ("theta", "lambda3", "activation", "norm", "sigma", "method")
    s_sq = sw2 * args.norm ** 2 + args.sigma_b2
    report = fp.find_fixed_point(act, sw2, args.sigma_b2,
                                 input_state(2.0, args.norm, sw2, args.sigma_b2),
                                 max_iter=512)
    return columns, rows, {
        "activation": act.kind, "norm": args.norm, "sigma_star": sigma,
        "verdict": report.verdict, "sup_lambda3": report.sup_lambda3,
        "converged": report.converged, "iterations": report.iterations,
        "final_rho": report.final_state.rho, "input_s_sq": s_sq,
        "s_sq_star": report.s_sq_star, "rho_star": report.rho_star,
        "lambda1": report.lambda1, "lambda3_at_rho_star": report.lambda3_at_rho_star,
    }


def cmd_norm_preserve(args):
    act = _activation(args)
    norms = np.geomspace(args.norm_min, args.norm_max, args.norm_points)
    columns = ("norm", "sigma_star", "activation")
    rows = [(float(n), fp.sigma_star(act, float(n)), act.kind) for n in norms]
    return columns, rows, None


def _load_standardized(args):
    ds = data_mod.load_csv(args.dataset, _target(args.target_col))
    ds, _ = data_mod.standardize(ds)
    return ds


def _target(raw):
    try:
        return int(raw)
    except ValueError:
        return raw


def cmd_gp_fit(args):
    act = _activation(args)
    ds = _load_standardized(args)
    train, test = data_mod.split(ds, args.train_frac, args.seed)
    sw2, _ = _sigma_w2(args, act, args.norm)
    # K in the dataset's own order, so a refused row is named as in the CSV
    _, K = next(kernel_matrices_by_depth(act, ds.X, sw2, args.sigma_b2, [args.depth]))
    tr, te, diag = train.indices, test.indices, np.diag(K)
    K_tr = K[np.ix_(tr, tr)]
    gp = gp_mod.fit(K_tr, train.y, args.noise_var)
    mean_tr, var_tr = gp_mod.predict(gp, K_tr, diag[tr])
    mean_te, var_te = gp_mod.predict(gp, K[np.ix_(te, tr)], diag[te])
    metrics = {
        "activation": act.kind, "depth": args.depth, "sigma_w2": sw2,
        "sigma_b2": args.sigma_b2, "noise_var": args.noise_var,
        "n_train": train.n, "n_test": test.n,
        "train_rmse": gp_mod.rmse(mean_tr, train.y),
        "test_rmse": gp_mod.rmse(mean_te, test.y),
        "nll": gp.nll,
    }
    columns = ("index", "split", "y", "mean", "var")
    rows = ([(int(i), "train", float(y), float(m), float(v))
             for i, y, m, v in zip(train.indices, train.y, mean_tr, var_tr)]
            + [(int(i), "test", float(y), float(m), float(v))
               for i, y, m, v in zip(test.indices, test.y, mean_te, var_te)])
    # predictions go to a file only: on stdout the metrics line stands alone
    if _to_stdout(args.out):
        rows = None
    return columns, rows, dict(sorted(metrics.items()))


def _decimals(v):
    """The fewest decimals (at most 15) that ``round`` keeps v with."""
    return next((d for d in range(16) if round(v, d) == v), 15)


def cmd_benchmark(args):
    act = _activation(args)
    ds = _load_standardized(args)
    depths = range(1, args.depth_max + 1)
    # min + step * i, each written with the decimals of min and step: an
    # accumulated 1.2000000000000002 would label and evaluate the grid
    lo, step = args.sw2_min, args.sw2_step
    decimals = max(_decimals(lo), _decimals(step))
    n = int(np.floor((args.sw2_max - lo) / step + 1e-9)) + 1
    sigmas = [round(lo + step * i, decimals) for i in range(n)]
    ranked, rows = gp_mod.grid_search(ds, act, depths, sigmas, args.noise_var,
                                      metric=args.metric, n_splits=args.splits,
                                      train_frac=args.train_frac, seed=args.seed,
                                      sigma_b2=args.sigma_b2)
    return gp_mod.GRID_CSV_COLUMNS, rows, {"best": ranked[:5]}


def cmd_simplicity(args):
    acts = [args.activation] if args.activation else ["gelu", "relu"]
    columns = ("activation", "f", "depth", "repetition", "train_mse", "test_mse")
    rows = []
    grid = data_mod.disc_grid(args.f, 100)
    depths = list(range(1, args.depth_max + 1))
    for name in acts:
        act = from_name(name, lrelu_slope=args.lrelu_slope)
        sigma = fp.sigma_star(act, 1.0)
        sw2 = sigma * sigma
        for rep in range(args.repeats):
            ds = data_mod.disc_task(args.f, args.n_train, args.noise_var,
                                    seed=args.seed + rep)
            X = np.vstack([ds.X, grid.X])
            n = ds.n
            for depth, K in kernel_matrices_by_depth(act, X, sw2, 0.0, depths):
                alpha = gp_mod.fit(K[:n, :n], ds.y, args.noise_var).alpha
                rows.append((name, args.f, depth, rep,
                             float(np.mean((K[:n, :n] @ alpha - ds.y) ** 2)),
                             float(np.mean((K[n:, :n] @ alpha - grid.y) ** 2))))
    return columns, rows, None


# Each flag that only some subcommands read: those subcommands, then its
# add_argument keywords. Any other subcommand refuses it and its config key.
_OWNED_FLAGS = {
    "--depth": ("kernel-eval mc-verify gp-fit", dict(type=int, default=4)),
    "--sigma-w2": ("kernel-eval mc-verify fixedpoint gp-fit",
                   dict(type=float, default=None,
                        help="weight variance; defaults to the norm-preserving value")),
    "--sigma-b2": ("kernel-eval mc-verify fixedpoint gp-fit benchmark",
                   dict(type=float, default=0.0)),
    "--noise-var": ("gp-fit benchmark simplicity", dict(type=float, default=0.1)),
    "--norm": ("kernel-eval mc-verify fixedpoint gp-fit", dict(type=float, default=1.0)),
    "--dataset": ("gp-fit benchmark", dict(default=None)),
    "--target-col": ("gp-fit benchmark", dict(default="-1")),
    "--seed": ("mc-verify gp-fit benchmark simplicity", dict(type=int, default=0)),
}


def build_parser():
    """The ``nnk`` parser and its subcommand parsers by name."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help="JSON file of flag defaults (precedence: "
                             "flags > config file > built-in defaults)")
    # unset rather than "gelu": simplicity then runs both gelu and relu
    common.add_argument("--activation", default=None,
                        help="gelu | elu | selu | relu | lrelu | erf "
                             "(default gelu; simplicity runs gelu and relu)")
    common.add_argument("--lrelu-slope", type=float, default=0.2)
    common.add_argument("--out", default=None)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--self-check", action="store_true",
                        help="re-parse the emitted file and validate its schema")

    p = argparse.ArgumentParser(prog="nnk", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("kernel-eval", parents=[common],
                        help="normalized-kernel trajectories plus k and kdot per layer")
    sp.add_argument("--theta-points", type=int, default=64)
    sp.set_defaults(func=cmd_kernel_eval)

    sp = sub.add_parser("mc-verify", parents=[common],
                        help="finite-width dots against analytic curves")
    sp.add_argument("--theta-points", type=int, default=32)
    sp.add_argument("--width", type=int, default=3000)
    sp.add_argument("--repeats", type=int, default=1)
    sp.set_defaults(func=cmd_mc_verify)

    sp = sub.add_parser("fixedpoint", parents=[common],
                        help="lambda_3 sweep and contraction verdict at sigma*")
    sp.add_argument("--theta-points", type=int, default=512)
    sp.set_defaults(func=cmd_fixedpoint)

    sp = sub.add_parser("norm-preserve", parents=[common],
                        help="norm-preserving sigma* over a grid of input norms")
    sp.add_argument("--norm-min", type=float, default=0.1)
    sp.add_argument("--norm-max", type=float, default=10.0)
    sp.add_argument("--norm-points", type=int, default=50)
    sp.set_defaults(func=cmd_norm_preserve)

    sp = sub.add_parser("gp-fit", parents=[common],
                        help="GP regression with a deep kernel on a CSV dataset")
    sp.add_argument("--train-frac", type=float, default=0.8)
    sp.set_defaults(func=cmd_gp_fit)

    sp = sub.add_parser("benchmark", parents=[common],
                        help="depth x weight-variance grid search, shuffled splits")
    sp.add_argument("--depth-max", type=int, default=32)
    sp.add_argument("--sw2-min", type=float, default=0.1)
    sp.add_argument("--sw2-max", type=float, default=5.0)
    sp.add_argument("--sw2-step", type=float, default=0.1)
    sp.add_argument("--splits", type=int, default=5)
    sp.add_argument("--train-frac", type=float, default=0.8)
    sp.add_argument("--metric", choices=("test_rmse", "train_rmse", "nll"),
                    default="test_rmse")
    sp.set_defaults(func=cmd_benchmark)

    sp = sub.add_parser("simplicity", parents=[common],
                        help="disc-task depth sweep: train/test MSE vs depth")
    sp.add_argument("--f", default="sin", choices=data_mod.DISC_FUNCTION_NAMES)
    sp.add_argument("--n-train", type=int, default=30)
    sp.add_argument("--depth-max", type=int, default=100)
    sp.add_argument("--repeats", type=int, default=10)
    sp.set_defaults(func=cmd_simplicity)
    for flag, (names, kwargs) in _OWNED_FLAGS.items():
        for name in names.split():
            sub.choices[name].add_argument(flag, **kwargs)
    return p, sub.choices


def _apply_config(parser, command, args, argv):
    """Re-parse argv with the config file's values as the subcommand's
    defaults, so that argparse lets every given flag win, abbreviated or
    not. An ill-typed value raises ``ArgumentError`` instead of exiting;
    argparse checks ``choices`` on the command line only, so config
    values are checked against them here."""
    with open(args.config) as fh:
        cfg = json.load(fh)
    unknown = set(cfg) - (set(vars(args)) - {"func", "command", "config"})
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for action in command._actions:
        if action.dest in cfg and action.choices is not None \
                and cfg[action.dest] not in action.choices:
            raise ValueError(f"config value {cfg[action.dest]!r} for {action.dest!r} "
                             f"is not one of {list(action.choices)}")
    command.set_defaults(**cfg)
    parser.exit_on_error = command.exit_on_error = False
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one subcommand: its table goes to ``--out`` (or stdout), then its
    summary as one JSON line, then the ``--self-check`` line."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = _apply_config(parser, commands[args.command], args, argv)
        # gp-fit writes no table to stdout, so there is nothing to check
        if args.self_check and _to_stdout(args.out) and args.command != "gp-fit":
            raise ValueError("--self-check requires --out")
        columns, rows, summary = args.func(args)
        if rows is not None:
            _write_rows(args.out, args.format, columns, rows)
        if summary is not None:
            print(json.dumps(summary, default=float))
        if args.self_check and rows is not None:
            _self_check(args.out, args.format, columns, len(rows))
        return 0
    except BrokenPipeError:
        return 1
    except Exception as exc:  # noqa: BLE001 - contract: JSON error on stderr
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
