import argparse
import csv
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nnkernels import activations as am
from nnkernels import cli
from nnkernels import data as data_mod
from nnkernels import deep
from nnkernels import gp as gp_mod
from nnkernels.activations import ELU, GELU, from_name
from nnkernels.cli import main
from nnkernels.deep import NetworkHyper, deep_normalized_kernel, input_state, iterate_state
from nnkernels.fixed_point import lambda3, lambda3_quad_grid, sigma_star
from nnkernels.kernels import kernel_dot_values

from oracle import mean_1d, rho_star_quadrature

REPO = Path(__file__).resolve().parent.parent


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture
def dataset_csv(tmp_path):
    rng = np.random.Generator(np.random.Philox(key=12))
    X = rng.standard_normal((40, 3))
    y = X @ np.array([0.5, -1.0, 0.2]) + 0.1 * rng.standard_normal(40)
    p = tmp_path / "toy.csv"
    with open(p, "w") as fh:
        for row, target in zip(X, y):
            fh.write(",".join(f"{v:.8f}" for v in row) + f",{target:.8f}\n")
    return p


# the six activations by CLI name; ERF has no norm-preserving variance at norm 1
SIX_CLI_ACTS = [("gelu", None), ("erf", 1.5), ("elu", None), ("selu", None),
                ("relu", None), ("lrelu", None)]


def cli_act_and_sw2(name, sw2):
    """The activation, its weight variance as the CLI resolves it, and the flags."""
    act = from_name(name)
    if sw2 is not None:
        return act, sw2, ["--sigma-w2", repr(sw2)]
    sigma = sigma_star(act, 1.0)
    return act, sigma * sigma, []


class TestKernelEval:
    def test_schema_and_self_check(self, tmp_path, capsys):
        out = tmp_path / "ke.csv"
        code, stdout, _ = run_cli([
            "kernel-eval", "--activation", "relu", "--sigma-w2", "2.0",
            "--depth", "3", "--theta-points", "5", "--out", str(out),
            "--self-check"], capsys)
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["theta0", "layer", "s1_sq", "s2_sq", "rho", "k", "kdot"]
        assert len(rows) == 1 + 5 * 3
        assert json.loads(stdout.strip().splitlines()[-1]) == {"self_check": "ok", "rows": 15}

    @pytest.mark.parametrize("out", [[], ["--out", "-"]])
    def test_self_check_without_file_refused_before_work(self, out, monkeypatch, capsys):
        def never(args):
            raise AssertionError("dispatched")
        monkeypatch.setattr("nnkernels.cli.cmd_kernel_eval", never)
        code, stdout, err = run_cli(["kernel-eval", "--theta-points", "2", *out,
                                     "--self-check"], capsys)
        assert code == 1 and stdout == ""
        assert json.loads(err.strip())["message"] == "--self-check requires --out"

    def test_zero_angle_trajectory_is_ones(self, tmp_path, capsys):
        out = tmp_path / "ke.csv"
        run_cli(["kernel-eval", "--activation", "gelu", "--depth", "4",
                 "--theta-points", "3", "--out", str(out)], capsys)
        rows = read_csv(out)
        first_angle = [r for r in rows[1:] if float(r[0]) == 0.0]
        assert all(float(r[4]) == pytest.approx(1.0, abs=1e-12) for r in first_angle)

    def test_json_table_on_stdout_is_one_line(self, capsys):
        code, stdout, _ = run_cli(["kernel-eval", "--format", "json", "--depth", "2",
                                   "--theta-points", "3"], capsys)
        assert code == 0
        [line] = stdout.splitlines()
        obj = json.loads(line)
        assert obj["columns"] == ["theta0", "layer", "s1_sq", "s2_sq", "rho", "k", "kdot"]
        assert len(obj["rows"]) == 3 * 2

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["kernel-eval", "--activation", "elu", "--depth", "2",
                "--theta-points", "4"]
        run_cli(args + ["--out", str(a)], capsys)
        run_cli(args + ["--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_selu_is_not_elu(self, capsys):
        # --activation selu takes the self-normalizing scales, not lambda = alpha = 1
        args = ["kernel-eval", "--depth", "2", "--theta-points", "4", "--activation"]
        elu, selu = (run_cli(args + [name], capsys)[1] for name in ("elu", "selu"))
        assert elu != selu

    @pytest.mark.parametrize("name, sw2", SIX_CLI_ACTS, ids=[a for a, _ in SIX_CLI_ACTS])
    def test_rows_match_per_angle_float_calls(self, name, sw2, tmp_path, capsys):
        # reference: one angle at a time, through the float calls
        act, sw2, flags = cli_act_and_sw2(name, sw2)
        out = tmp_path / "ke.csv"
        code, _, _ = run_cli(["kernel-eval", "--activation", name, *flags, "--depth", "5",
                              "--theta-points", "32", "--sigma-b2", "0.1",
                              "--out", str(out)], capsys)
        assert code == 0
        expected = []
        for theta0 in np.linspace(0.0, np.pi, 32):
            state = input_state(float(theta0), 1.0, sw2, 0.1)
            for layer in range(1, 6):
                kdot = kernel_dot_values(act, np.sqrt(state.s1_sq), np.sqrt(state.s2_sq),
                                         state.rho, sw2)
                state = iterate_state(act, state, sw2, 0.1)
                k = state.rho * np.sqrt(state.s1_sq * state.s2_sq)
                expected.append([theta0, layer, state.s1_sq, state.s2_sq, state.rho, k, kdot])
        got = np.array([[float(v) for v in r] for r in read_csv(out)[1:]])
        np.testing.assert_array_equal(got, np.array(expected, dtype=float))


class TestMcVerify:
    def test_dot_cloud_schema(self, tmp_path, capsys):
        out = tmp_path / "mc.csv"
        code, _, _ = run_cli([
            "mc-verify", "--activation", "relu", "--sigma-w2", "2.0",
            "--width", "200", "--depth", "2", "--theta-points", "4",
            "--out", str(out), "--self-check"], capsys)
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["theta0", "layer", "empirical_rho", "analytic_rho", "seed"]
        assert len(rows) == 1 + 4 * 2
        emp = np.array([float(r[2]) for r in rows[1:]])
        ana = np.array([float(r[3]) for r in rows[1:]])
        assert np.abs(emp - ana).max() <= 0.35  # width 200 smoke bound

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["mc-verify", "--activation", "gelu", "--width", "300",
                "--depth", "3", "--theta-points", "4", "--repeats", "2",
                "--seed", "5"]
        assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
        assert len(read_csv(a)) == 1 + 4 * 2 * 3
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("name, sw2", SIX_CLI_ACTS, ids=[a for a, _ in SIX_CLI_ACTS])
    def test_analytic_column_matches_per_angle_calls(self, name, sw2, tmp_path, capsys):
        act, sw2, flags = cli_act_and_sw2(name, sw2)
        out = tmp_path / "mc.csv"
        code, _, _ = run_cli(["mc-verify", "--activation", name, *flags, "--width", "40",
                              "--depth", "3", "--theta-points", "8", "--repeats", "2",
                              "--out", str(out)], capsys)
        assert code == 0
        hyper = NetworkHyper.shared(3, sw2, 0.0)
        rows = read_csv(out)[1:]
        assert len(rows) == 8 * 2 * 3
        for theta0, layer, _, analytic, _ in rows:
            curve = deep_normalized_kernel(act, float(theta0), 1.0, hyper)
            assert float(analytic) == curve[int(layer) - 1]


@pytest.mark.parametrize("command", [["kernel-eval"], ["mc-verify", "--width", "30"]],
                         ids=["kernel-eval", "mc-verify"])
def test_one_layer_step_per_layer_for_all_angles(command, monkeypatch, tmp_path, capsys):
    calls = []
    step = deep._layer_step

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(deep, "_layer_step", counted)
    code, _, _ = run_cli([*command, "--activation", "elu", "--depth", "5",
                          "--theta-points", "16", "--out", str(tmp_path / "o.csv")], capsys)
    assert code == 0
    assert len(calls) == 5


class TestFixedpoint:
    def test_relu_constant_sigma_column(self, tmp_path, capsys):
        out = tmp_path / "fp.csv"
        code, stdout, _ = run_cli([
            "fixedpoint", "--activation", "relu", "--theta-points", "16",
            "--out", str(out)], capsys)
        assert code == 0
        rows = read_csv(out)
        sigmas = {float(r[4]) for r in rows[1:]}
        assert len(sigmas) == 1
        assert sigmas.pop() == pytest.approx(1.41421, abs=1e-5)
        verdict = json.loads(stdout.strip().splitlines()[-1])
        assert verdict["verdict"] == "unique-contraction"

    def test_stdout_table_then_verdict_line(self, capsys):
        code, stdout, _ = run_cli(["fixedpoint", "--activation", "relu",
                                   "--theta-points", "4"], capsys)
        assert code == 0
        lines = stdout.splitlines()
        rows = list(csv.reader(lines[:-1]))
        assert rows[0] == ["theta", "lambda3", "activation", "norm", "sigma", "method"]
        assert len(rows) == 1 + 4  # one closed-form row per angle
        assert {r[5] for r in rows[1:]} == {"closed-form"}
        assert json.loads(lines[-1])["verdict"] == "unique-contraction"

    def test_default_summary_reports_the_fixed_point(self, tmp_path, capsys):
        # GELU at sigma*(1): the iteration stops on a collapsed norm at
        # rho 0.7535, which is not converged; rho* comes from the roots
        out = tmp_path / "fp.csv"
        code, stdout, err = run_cli(["fixedpoint", "--out", str(out)], capsys)
        assert code == 0, err
        assert len(read_csv(out)) == 1 + 512
        summary = json.loads(stdout.strip().splitlines()[-1])
        assert (summary["converged"], summary["iterations"]) == (False, 239)
        assert summary["final_rho"] == pytest.approx(0.7535, abs=1e-4)
        u = summary["s_sq_star"]
        assert u == pytest.approx(2.15506, abs=1e-5)
        sw2 = summary["sigma_star"] ** 2
        assert abs(summary["rho_star"] - rho_star_quadrature(GELU, u, sw2, 0.0)) <= 1e-9
        assert summary["rho_star"] == pytest.approx(0.85319173, abs=1e-8)
        assert summary["lambda1"] > 1.0 > summary["lambda3_at_rho_star"]

    @pytest.mark.parametrize("act, sb2", [("gelu", "0.5"), ("relu", "0.3")])
    def test_no_norm_root_gives_null(self, act, sb2, tmp_path, capsys):
        code, stdout, err = run_cli(["fixedpoint", "--activation", act, "--sigma-b2", sb2,
                                     "--theta-points", "4", "--out", str(tmp_path / "fp.csv")],
                                    capsys)
        assert code == 0, err
        summary = json.loads(stdout.strip().splitlines()[-1])
        assert summary["converged"] is False
        for key in ("s_sq_star", "rho_star", "lambda1", "lambda3_at_rho_star"):
            assert summary[key] is None, key

    def test_gelu_not_contraction(self, tmp_path, capsys):
        out = tmp_path / "fp.csv"
        _, stdout, _ = run_cli(["fixedpoint", "--activation", "gelu",
                                "--theta-points", "64", "--out", str(out)], capsys)
        verdict = json.loads(stdout.strip().splitlines()[-1])
        assert verdict["verdict"] == "not-contraction"
        assert verdict["sigma_star"] == pytest.approx(1.468, abs=0.01)

    def test_elu_norm_five_stays_inside_guard(self, tmp_path, capsys):
        # the norm fixed-point search grid must stop at s = 25
        code, stdout, err = run_cli([
            "fixedpoint", "--activation", "elu", "--norm", "5",
            "--theta-points", "8", "--out", str(tmp_path / "fp.csv")], capsys)
        assert code == 0, err
        assert json.loads(stdout.strip().splitlines()[-1])["verdict"] == "not-contraction"

    def test_sigma_b2_reaches_the_csv(self, tmp_path, capsys):
        rows = {}
        for b in ("0.0", "0.5"):
            out = tmp_path / f"fp{b}.csv"
            code, _, err = run_cli(["fixedpoint", "--activation", "gelu",
                                    "--theta-points", "8", "--sigma-b2", b,
                                    "--out", str(out)], capsys)
            assert code == 0, err
            rows[b] = read_csv(out)[1:]
        assert rows["0.0"] != rows["0.5"]
        closed = [float(r[1]) for r in rows["0.5"] if r[5] == "closed-form"]
        assert len(closed) == len(rows["0.5"]) == 8
        # at the input signal s^2 = sigma^2 norm^2 + sigma_b^2
        sigma = sigma_star(GELU, 1.0)
        s = np.sqrt(sigma ** 2 + 0.5)
        thetas = np.pi * np.arange(1, 9) / 9.0
        quad = lambda3_quad_grid(GELU, s, thetas, sigma ** 2, 0.5)
        assert np.abs(np.subtract(closed, quad)).max() <= 1e-6
        expected = lambda3(GELU, s, s, np.cos(thetas), sigma ** 2, 0.5)
        assert np.abs(np.subtract(closed, expected)).max() <= 1e-12


class TestNormPreserve:
    def test_relu_constant_root(self, tmp_path, capsys):
        out = tmp_path / "np.csv"
        code, _, _ = run_cli([
            "norm-preserve", "--activation", "relu", "--norm-points", "6",
            "--out", str(out), "--self-check"], capsys)
        assert code == 0
        rows = read_csv(out)
        vals = [float(r[1]) for r in rows[1:]]
        assert all(v == pytest.approx(np.sqrt(2), abs=1e-8) for v in vals)

    def test_elu_defaults_reach_norm_ten(self, tmp_path, capsys):
        # the root bracket must stay inside the closed form's s <= 25 guard
        out = tmp_path / "np.csv"
        code, _, err = run_cli(["norm-preserve", "--activation", "elu",
                                "--out", str(out)], capsys)
        assert code == 0, err
        rows = read_csv(out)
        assert len(rows) == 1 + 50
        norm, sigma = float(rows[-1][0]), float(rows[-1][1])
        assert norm == 10.0 and 0.5 <= sigma <= 2.5
        second = mean_1d(lambda z: am.eval(ELU, sigma * norm * z) ** 2)
        assert abs(second / norm ** 2 - 1.0) <= 1e-6


class TestGpCommands:
    def test_gp_fit_metrics(self, tmp_path, dataset_csv, capsys):
        out = tmp_path / "pred.csv"
        code, stdout, _ = run_cli([
            "gp-fit", "--dataset", str(dataset_csv), "--target-col", "-1",
            "--activation", "relu", "--depth", "2", "--sigma-w2", "1.0",
            "--out", str(out), "--self-check"], capsys)
        assert code == 0
        metrics = json.loads(stdout.strip().splitlines()[0])
        assert metrics["n_train"] == 32 and metrics["n_test"] == 8
        assert metrics["train_rmse"] < 1.0
        rows = read_csv(out)
        assert rows[0] == ["index", "split", "y", "mean", "var"]
        assert len(rows) == 41

    def test_gp_fit_keeps_predictions_off_stdout(self, dataset_csv, capsys):
        # without a file --out there is no table, so nothing to self-check
        code, stdout, err = run_cli(["gp-fit", "--dataset", str(dataset_csv),
                                     "--depth", "1", "--self-check"], capsys)
        assert code == 0, err
        [line] = stdout.splitlines()
        assert json.loads(line)["n_train"] == 32

    def test_gp_fit_default_sigma_w2_is_norm_preserving(self, dataset_csv, capsys):
        code, stdout, _ = run_cli([
            "gp-fit", "--dataset", str(dataset_csv), "--activation", "gelu",
            "--depth", "2"], capsys)
        assert code == 0
        metrics = json.loads(stdout.strip().splitlines()[0])
        assert metrics["sigma_w2"] == sigma_star(GELU, 1.0) ** 2

    def test_benchmark_rows(self, tmp_path, dataset_csv, capsys):
        out = tmp_path / "bench.csv"
        code, stdout, _ = run_cli([
            "benchmark", "--dataset", str(dataset_csv), "--activation", "relu",
            "--depth-max", "2", "--sw2-min", "0.5", "--sw2-max", "1.0",
            "--sw2-step", "0.5", "--splits", "2", "--out", str(out),
            "--self-check"], capsys)
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["activation", "depth", "sigma_w2", "sigma_b2",
                           "noise_var", "split_id", "train_rmse", "test_rmse", "nll"]
        assert len(rows) == 1 + 2 * 2 * 2  # depths x sigmas x splits
        best = json.loads(stdout.strip().splitlines()[0])["best"]
        assert len(best) <= 5

    def test_benchmark_sigma_w2_labels_are_the_grid_decimals(self, dataset_csv, capsys):
        # np.arange(0.1, 5.0 + 1e-9, 0.1) wrote 1.2000000000000002 and
        # 3.0000000000000004 and evaluated the grid there
        code, stdout, err = run_cli([
            "benchmark", "--dataset", str(dataset_csv), "--activation", "relu",
            "--depth-max", "1", "--splits", "1"], capsys)
        assert code == 0, err
        labels = [r[2] for r in csv.reader(stdout.splitlines()[1:-1])]
        assert labels == [repr(k / 10.0) for k in range(1, 51)]
        code, stdout, err = run_cli([
            "benchmark", "--dataset", str(dataset_csv), "--activation", "relu",
            "--depth-max", "1", "--splits", "1", "--sw2-min", "0.15", "--sw2-max", "0.45",
            "--sw2-step", "0.1"], capsys)
        assert code == 0, err
        assert [r[2] for r in csv.reader(stdout.splitlines()[1:-1])] == [
            "0.15", "0.25", "0.35", "0.45"]

    def test_benchmark_stdout_table_then_best_line(self, dataset_csv, capsys):
        code, stdout, err = run_cli([
            "benchmark", "--dataset", str(dataset_csv), "--activation", "relu",
            "--depth-max", "1", "--sw2-min", "1.0", "--sw2-max", "1.0",
            "--splits", "2"], capsys)
        assert code == 0, err
        lines = stdout.splitlines()
        rows = list(csv.reader(lines[:-1]))
        assert rows[0][:2] == ["activation", "depth"] and len(rows) == 1 + 2
        assert len(json.loads(lines[-1])["best"]) == 1

    def test_benchmark_json_rows_are_the_csv_rows(self, tmp_path, dataset_csv, capsys):
        # the grid rows are written as they are: each JSON value prints as
        # its CSV cell, floats by repr, so both formats hold the same bits
        args = ["benchmark", "--dataset", str(dataset_csv), "--activation", "relu",
                "--depth-max", "2", "--sw2-min", "0.5", "--sw2-max", "1.0",
                "--sw2-step", "0.5", "--splits", "2"]
        for fmt in ("csv", "json"):
            code, _, err = run_cli(args + ["--format", fmt, "--out", str(tmp_path / fmt)],
                                   capsys)
            assert code == 0, err
        header, *rows = read_csv(tmp_path / "csv")
        obj = json.loads((tmp_path / "json").read_text())
        assert obj["columns"] == header == list(gp_mod.GRID_CSV_COLUMNS)
        assert len(rows) == 2 * 2 * 2
        assert [[repr(v) if isinstance(v, float) else str(v) for v in r]
                for r in obj["rows"]] == rows

    def test_benchmark_elu_past_the_guard(self, tmp_path, dataset_csv, capsys):
        # at sigma_w^2 = 5 the signal passes s = 25 within six layers on
        # this data; the cells before that are kept, the rest are nan rows
        out = tmp_path / "bench.csv"
        code, stdout, err = run_cli([
            "benchmark", "--dataset", str(dataset_csv), "--activation", "elu",
            "--depth-max", "6", "--sw2-min", "1.0", "--sw2-max", "5.0",
            "--sw2-step", "2.0", "--splits", "2", "--out", str(out)], capsys)
        assert code == 0, err
        rows = read_csv(out)[1:]
        cells = [(int(r[1]), float(r[2]), int(r[5])) for r in rows]
        assert len(cells) == len(set(cells)) == 6 * 3 * 2
        nan_cells = {(d, sw) for (d, sw, _), r in zip(cells, rows) if r[7] == "nan"}
        assert nan_cells and {sw for _, sw in nan_cells} == {5.0}
        assert (1, 5.0) not in nan_cells
        best = json.loads(stdout.strip().splitlines()[0])["best"]
        assert len(best) == 5
        assert all(np.isfinite(b["test_rmse"]) for b in best)
        assert not {(b["depth"], b["sigma_w2"]) for b in best} & nan_cells

    @pytest.mark.parametrize("name", ["relu", "gelu"])
    def test_benchmark_numerically_singular_cells(self, tmp_path, capsys, name):
        # at sigma_w^2 4.7..5.0 and depth <= 32, max diag(K) reaches ~1e14:
        # the noise 0.1 falls under the Cholesky rounding bound, and the
        # old means-and-variances path raised on the predictive variance
        path, out = tmp_path / "d.csv", tmp_path / "bench.csv"
        rng = np.random.default_rng(5)
        X = rng.standard_normal((100, 6))
        y = np.sin(X @ rng.standard_normal(6) / np.sqrt(6)) + 0.1 * rng.standard_normal(100)
        Z = np.column_stack([X, y])
        np.savetxt(path, (Z - Z.mean(axis=0)) / Z.std(axis=0), delimiter=",", fmt="%.17g",
                   header="x0,x1,x2,x3,x4,x5,y", comments="")
        code, stdout, err = run_cli([
            "benchmark", "--dataset", str(path), "--activation", name, "--sw2-min", "4.7",
            "--sw2-max", "5.0", "--depth-max", "32", "--out", str(out)], capsys)
        assert code == 0, err
        rows = read_csv(out)[1:]
        assert len(rows) == 4 * 32 * 5
        nan_cells = {(int(r[1]), float(r[2])) for r in rows if r[7] == "nan"}
        assert all(r[6:] == ["nan"] * 3 for r in rows if (int(r[1]), float(r[2])) in nan_cells)
        # the rule from K itself: noise <= gamma_{n+1} max diag(K), u = eps / 2
        ds, _ = data_mod.standardize(data_mod.load_csv(path, -1))
        splits = [[part.indices for part in data_mod.split(ds, 0.8, i)] for i in range(5)]
        n, u = 80, 2.0 ** -53
        gamma = (n + 1) * u / (1 - (n + 1) * u)
        act, rule, raised = from_name(name), set(), set()
        sigmas = sorted({float(r[2]) for r in rows})
        for sw2 in sigmas:
            for depth, K in deep.kernel_matrices_by_depth(act, ds.X, sw2, 0.0, range(1, 33)):
                if 0.1 <= gamma * K.diagonal().max():
                    rule.add((depth, sw2))
                for tr, te in splits:  # the old path: fit, then predict on both blocks
                    try:
                        gp = gp_mod.fit(K[np.ix_(tr, tr)], ds.y[tr], 0.1)
                        gp_mod.predict(gp, K[np.ix_(tr, tr)], np.diag(K)[tr])
                        gp_mod.predict(gp, K[np.ix_(te, tr)], np.diag(K)[te])
                    except ArithmeticError:
                        raised.add((depth, sw2))
        assert nan_cells == rule and len(rule) == 15
        assert raised and raised <= nan_cells
        ranked, _ = gp_mod.grid_search(ds, act, range(1, 33), sigmas, 0.1)
        assert len(ranked) == 4 * 32 - len(nan_cells)
        assert not {(r["depth"], r["sigma_w2"]) for r in ranked} & nan_cells
        best = json.loads(stdout.strip().splitlines()[0])["best"]
        assert best == ranked[:5]

    def test_simplicity_reads_means_only(self, monkeypatch, tmp_path, capsys):
        calls, dtrtrs = [], gp_mod.dtrtrs
        monkeypatch.setattr(gp_mod, "dtrtrs",
                            lambda *a, **k: calls.append(a) or dtrtrs(*a, **k))
        code, _, err = run_cli(["simplicity", "--n-train", "10", "--depth-max", "3",
                                "--repeats", "1", "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 0, err
        assert calls == []

    def test_simplicity_runs_both_activations(self, tmp_path, capsys):
        out = tmp_path / "simp.csv"
        code, _, _ = run_cli([
            "simplicity", "--f", "sin", "--n-train", "10", "--depth-max", "3",
            "--repeats", "2", "--out", str(out), "--self-check"], capsys)
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["activation", "f", "depth", "repetition",
                           "train_mse", "test_mse"]
        assert {r[0] for r in rows[1:]} == {"gelu", "relu"}
        assert len(rows) == 1 + 2 * 2 * 3

    def test_simplicity_lrelu_slope_reaches_the_kernel(self, tmp_path, capsys):
        outputs = []
        for slope in ("0.2", "0.5"):
            out = tmp_path / f"simp{slope}.csv"
            code, _, err = run_cli([
                "simplicity", "--activation", "lrelu", "--lrelu-slope", slope,
                "--n-train", "10", "--depth-max", "2", "--repeats", "1",
                "--out", str(out)], capsys)
            assert code == 0, err
            outputs.append(out.read_bytes())
        assert outputs[0] != outputs[1]


DEFAULT_ACTIVATION_RUNS = {
    "kernel-eval": ["--depth", "1", "--theta-points", "2"],
    "mc-verify": ["--width", "50", "--depth", "1", "--theta-points", "2"],
    "fixedpoint": ["--theta-points", "4"],
    "norm-preserve": ["--norm-points", "2"],
    "gp-fit": ["--depth", "1"],
    "benchmark": ["--depth-max", "1", "--sw2-min", "1.0", "--sw2-max", "1.0",
                  "--splits", "1"],
}


@pytest.mark.parametrize("command", sorted(DEFAULT_ACTIVATION_RUNS))
def test_default_activation_is_gelu(command, tmp_path, dataset_csv, capsys):
    # simplicity's own default (both activations) is covered above
    args = [command, *DEFAULT_ACTIVATION_RUNS[command]]
    if command in ("gp-fit", "benchmark"):
        args += ["--dataset", str(dataset_csv)]
    outputs = []
    for extra in ([], ["--activation", "gelu"]):
        out = tmp_path / f"out{len(outputs)}.csv"
        code, stdout, err = run_cli(args + extra + ["--out", str(out)], capsys)
        assert code == 0, err
        outputs.append((stdout, out.read_bytes()))
    assert outputs[0] == outputs[1]


# the flags that only some subcommands read, and those subcommands
SHARED_FLAG_OWNERS = {
    "--depth": {"kernel-eval", "mc-verify", "gp-fit"},
    "--sigma-w2": {"kernel-eval", "mc-verify", "fixedpoint", "gp-fit"},
    "--norm": {"kernel-eval", "mc-verify", "fixedpoint", "gp-fit"},
    "--sigma-b2": {"kernel-eval", "mc-verify", "fixedpoint", "gp-fit", "benchmark"},
    "--noise-var": {"gp-fit", "benchmark", "simplicity"},
    "--dataset": {"gp-fit", "benchmark"},
    "--target-col": {"gp-fit", "benchmark"},
    "--seed": {"mc-verify", "gp-fit", "benchmark", "simplicity"},
}
SUBCOMMANDS = sorted([*DEFAULT_ACTIVATION_RUNS, "simplicity"])
UNREAD_FLAGS = [(command, flag) for flag, owners in SHARED_FLAG_OWNERS.items()
                for command in SUBCOMMANDS if command not in owners]
SMALL_RUNS = {**DEFAULT_ACTIVATION_RUNS,
              "simplicity": ["--n-train", "5", "--depth-max", "1", "--repeats", "1"]}


class ReadRecorder(argparse.Namespace):
    """A namespace that records the names of the attributes read from it."""

    def __init__(self):
        object.__setattr__(self, "_reads", set())
        super().__init__()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


class TestFlagOwnership:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_parser_defines_exactly_what_the_run_reads(self, command, monkeypatch, tmp_path,
                                                       dataset_csv, capsys):
        namespaces, build = [], cli.build_parser

        def recording_parser():
            parser, commands = build()
            parse = parser.parse_args

            def parse_args(argv):
                ns = parse(argv, namespace=ReadRecorder())
                ns._reads.clear()  # argparse's own reads while parsing
                namespaces.append(ns)
                return ns
            parser.parse_args = parse_args
            return parser, commands

        monkeypatch.setattr(cli, "build_parser", recording_parser)
        argv = [command, *SMALL_RUNS[command], "--out", str(tmp_path / "o.csv")]
        if command in ("gp-fit", "benchmark"):
            argv += ["--dataset", str(dataset_csv)]
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err
        _, commands = build()
        defined = {a.dest for a in commands[command]._actions if a.dest != "help"}
        assert namespaces[-1]._reads - {"func", "command"} == defined

    @pytest.mark.parametrize("command, flag", [
        pair for pair in UNREAD_FLAGS
        if pair not in {("benchmark", "--depth"), ("simplicity", "--depth")}])
    def test_unread_flag_refused_on_the_command_line(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, "1"])
        assert exc.value.code == 2
        # on norm-preserve, --norm is a prefix of three flags of its own
        ambiguous = (command, flag) == ("norm-preserve", "--norm")
        reason = "ambiguous option" if ambiguous else "unrecognized arguments"
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
    def test_unread_config_key_refused(self, command, flag, tmp_path, capsys):
        key = flag[2:].replace("-", "_")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        code, stdout, err = run_cli([command, "--config", str(cfg)], capsys)
        assert code == 1 and stdout == ""
        message = json.loads(err.strip())["message"]
        assert message == f"unknown config keys: {[key]}"

    @pytest.mark.parametrize("command", ["benchmark", "simplicity"])
    def test_depth_reads_as_depth_max(self, command, tmp_path, dataset_csv, capsys):
        # argparse takes an unambiguous prefix: --depth is --depth-max here
        if command == "benchmark":
            args = ["--sw2-min", "1.0", "--sw2-max", "1.0", "--splits", "1",
                    "--dataset", str(dataset_csv)]
        else:
            args = ["--n-train", "5", "--repeats", "1"]
        outputs = []
        for flag in ("--depth", "--depth-max"):
            out = tmp_path / f"{flag}.csv"
            code, stdout, err = run_cli([command, *args, flag, "2", "--out", str(out)], capsys)
            assert code == 0, err
            outputs.append((stdout, out.read_bytes()))
        assert outputs[0] == outputs[1]
        assert {int(r[1] if command == "benchmark" else r[2])
                for r in read_csv(tmp_path / "--depth.csv")[1:]} == {1, 2}


def test_no_subcommand_integrates(monkeypatch, tmp_path, dataset_csv, capsys):
    # the package's quadrature stays a test oracle: every subcommand, and
    # fixedpoint for each activation, runs with all of it raising.
    # raising=True, so a renamed name fails here instead of patching nothing
    from nnkernels import fixed_point, quadrature

    def boom(*args, **kwargs):
        raise AssertionError("quadrature called")

    for mod, name in ((quadrature, "pair_mean_quad"), (quadrature, "autocorr_mean_quad"),
                      (fixed_point, "autocorr_mean_quad"), (fixed_point, "lambda3_quad_grid")):
        monkeypatch.setattr(mod, name, boom, raising=True)
    runs = [[command, *SMALL_RUNS[command]] for command in SUBCOMMANDS]
    runs += [["fixedpoint", "--theta-points", "4", "--activation", name,
              *cli_act_and_sw2(name, sw2)[2]] for name, sw2 in SIX_CLI_ACTS]
    for argv in runs:
        if argv[0] in ("gp-fit", "benchmark"):
            argv += ["--dataset", str(dataset_csv)]
        code, _, err = run_cli(argv + ["--out", str(tmp_path / "o.csv")], capsys)
        assert code == 0, (argv, err)


class TestErrorContract:
    def test_missing_dataset_gives_json_error(self, tmp_path, capsys):
        code, _, err = run_cli(["gp-fit", "--dataset", str(tmp_path / "nope.csv")],
                               capsys)
        assert code == 1
        obj = json.loads(err.strip())
        assert "error" in obj and "message" in obj

    def test_bad_activation(self, capsys):
        code, _, err = run_cli(["kernel-eval", "--activation", "swish"], capsys)
        assert code == 1
        assert json.loads(err.strip())["error"] == "ValueError"

    @pytest.mark.parametrize("command", ["gp-fit", "benchmark"])
    def test_zero_norm_row_named(self, command, tmp_path, capsys):
        # two rows sit at the column means: standardized, they are the
        # origin, whose kernel row is 0/0 without a bias
        rng = np.random.default_rng(7)
        centre = np.array([3.0, -2.0])
        A = rng.integers(-5, 6, (15, 2)).astype(float)
        X = np.vstack([centre + A[:7], centre, centre - A, centre, centre + A[7:]])
        y = rng.standard_normal(32)
        path = tmp_path / "centred.csv"
        np.savetxt(path, np.column_stack([X, y]), delimiter=",", fmt="%.17g")
        args = [command, "--dataset", str(path), "--activation", "relu"]
        if command == "benchmark":
            args += ["--depth-max", "2", "--sw2-min", "1.0", "--sw2-max", "1.0",
                     "--splits", "1"]
        code, stdout, err = run_cli(args, capsys)
        assert code == 1 and stdout == ""
        [line] = err.splitlines()
        obj = json.loads(line)
        assert obj["error"] == "ValueError"
        assert "strictly positive squared norms; row " in obj["message"]
        assert "row 7 has 0.0" in obj["message"]  # the dataset's own row order
        code, _, err = run_cli(args + ["--sigma-b2", "0.1"], capsys)
        assert code == 0, err

    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        code, _, _ = run_cli(["norm-preserve", "--activation", "relu",
                              "--norm-points", "3", "--format", "json",
                              "--out", str(out), "--self-check"], capsys)
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["columns"] == ["norm", "sigma_star", "activation"]
        assert len(obj["rows"]) == 3


class TestConfigFile:
    def test_config_provides_defaults_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"activation": "relu", "norm_points": 4}))
        out = tmp_path / "np.csv"
        code, _, _ = run_cli(["norm-preserve", "--config", str(cfg),
                              "--norm-points", "2", "--out", str(out)], capsys)
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 1 + 2                 # flag wins over config
        assert rows[1][2] == "relu"               # config fills the default

    @pytest.mark.parametrize("flag", [["--dept", "2"], ["--dep=2"]])
    def test_abbreviated_flag_wins_over_config(self, flag, tmp_path, capsys):
        # argparse accepts unambiguous prefixes; they are flags all the same
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"depth": 7}))
        out = tmp_path / "ke.csv"
        code, _, err = run_cli(["kernel-eval", *flag, "--theta-points", "1",
                                "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 0, err
        assert [r[1] for r in read_csv(out)[1:]] == ["1", "2"]

    def test_config_string_takes_the_flag_type(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"depth": "2"}))
        out = tmp_path / "ke.csv"
        code, _, err = run_cli(["kernel-eval", "--theta-points", "1",
                                "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 0, err
        assert [r[1] for r in read_csv(out)[1:]] == ["1", "2"]

    def test_ill_typed_config_value_is_a_json_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"depth": "abc"}))
        code, stdout, err = run_cli(["kernel-eval", "--config", str(cfg)], capsys)
        assert code == 1 and stdout == ""
        assert set(json.loads(err.strip())) == {"error", "message"}

    @pytest.mark.parametrize("command,key,value", [
        ("norm-preserve", "format", "xml"),
        ("benchmark", "metric", "mse"),
        ("simplicity", "f", "cos"),
    ])
    def test_config_value_outside_choices_rejected(self, command, key, value,
                                                   tmp_path, capsys):
        # argparse checks choices on the command line only
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, stdout, err = run_cli([command, "--config", str(cfg)], capsys)
        assert code == 1 and stdout == ""
        message = json.loads(err.strip())["message"]
        assert repr(value) in message and repr(key) in message

    def test_unknown_config_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_flag": 1}))
        code, _, err = run_cli(["norm-preserve", "--config", str(cfg)], capsys)
        assert code == 1
        assert "unknown config keys" in json.loads(err.strip())["message"]


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "nnkernels.cli", "norm-preserve",
                           "--activation", "relu", "--norm-points", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "sigma_star" in proc.stdout


def test_benchmark_trace_targets_resolve(monkeypatch):
    # perfbench/spans.py wraps these by name; a rename must fail here, not
    # only in a traced benchmark run
    spec = importlib.util.spec_from_file_location("spans", REPO / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "spans", spans)  # its dataclass looks itself up
    spec.loader.exec_module(spans)
    for mod_name, fn_name, *_ in spans.TARGETS:
        module = importlib.import_module(f"nnkernels.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
    deep = importlib.import_module("nnkernels.deep")
    assert inspect.isgeneratorfunction(deep.kernel_matrices_by_depth)


class TestScripts:
    def _run(self, script, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, str(REPO / "scripts" / script), *args],
                              capture_output=True, text=True, env=env)

    def test_norm_preserving_roots_writes_all_three(self, tmp_path):
        proc = self._run("norm_preserving_roots.py", "--outdir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        for act in ("gelu", "elu", "relu"):
            assert len(read_csv(tmp_path / f"sigma_star_{act}.csv")) == 1 + 80

    def test_norm_preserving_roots_reports_failure(self, tmp_path):
        proc = self._run("norm_preserving_roots.py", "--outdir", str(tmp_path / "missing"))
        assert proc.returncode != 0
        assert "wrote" not in proc.stdout
        assert json.loads(proc.stderr.strip().splitlines()[-1])["error"]

    def test_lambda3_sweeps_reports_failure(self, tmp_path):
        proc = self._run("lambda3_sweeps.py", "--outdir", str(tmp_path / "missing"))
        assert proc.returncode != 0
        assert "wrote" not in proc.stdout
        assert json.loads(proc.stderr.strip().splitlines()[-1])["error"]

    def test_depth_sweep_reports_failure(self, tmp_path):
        proc = self._run("depth_sweep_disc.py", "--outdir", str(tmp_path / "missing"),
                         "--repeats", "1")
        assert proc.returncode != 0
        assert "wrote" not in proc.stdout
        assert json.loads(proc.stderr.strip().splitlines()[-1])["error"]
