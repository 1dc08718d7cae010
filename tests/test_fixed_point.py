import importlib
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nnkernels import activations as am
from nnkernels.activations import ELU, ERF, GELU, RELU, from_name, lrelu, selu
from nnkernels.deep import (LayerState, NetworkHyper, _layer_jacobian,
                            input_state, iterate_state, kernel_grad,
                            state_trajectory)
from nnkernels.fixed_point import (eigenvalues, find_fixed_point, lambda3,
                                   lambda3_elu, lambda3_gelu_lower,
                                   lambda3_lrelu, lambda3_quad_grid,
                                   lambda3_sweep_rows, sigma_star,
                                   _norm_fixed_point)
from nnkernels import fixed_point
from nnkernels.kernels import KernelArgs, kernel_values

from oracle import kernel_dot_quadrature, mean_1d, rho_star_quadrature


def g1_value(act, s1_sq, sw2, sb2):
    s1 = np.sqrt(s1_sq)
    return float(kernel_values(act, s1, s1, 1.0, sw2, sb2))


def g3_value(act, s1_sq, s2_sq, rho, sw2, sb2):
    s1, s2 = np.sqrt(s1_sq), np.sqrt(s2_sq)
    k = float(kernel_values(act, s1, s2, rho, sw2, sb2))
    g1 = g1_value(act, s1_sq, sw2, sb2)
    g2 = g1_value(act, s2_sq, sw2, sb2)
    return k / np.sqrt(g1 * g2)


class TestEigenvalues:
    def test_relu_orthogonal_quadrant(self):
        tri = eigenvalues(RELU, 1.0, 1.0, 0.0, 2.0, 0.0)
        assert tri.lambda3 == pytest.approx(0.5, abs=1e-10)

    def test_lrelu_lambda3_approaches_one_at_rho_one(self):
        a = 0.2
        sw2 = 2.0 / (1.0 + a * a)
        tri = eigenvalues(lrelu(a), 1.0, 1.0, 0.99999, sw2, 0.0)
        assert tri.lambda3 == pytest.approx(1.0, abs=2e-3)

    def test_gelu_frozen_golden_and_bound(self):
        sigma = 1.47
        tri = eigenvalues(GELU, 1.0, 1.0, 0.0, sigma ** 2, 0.0)
        assert tri.lambda1 == pytest.approx(1.0512351694769102, rel=1e-9)
        assert tri.lambda3 == pytest.approx(0.5879289035183284, rel=1e-9)
        # the quadrature value exceeds the bound evaluated at the same state
        assert tri.lambda3 >= lambda3_gelu_lower(1.0 / sigma, sigma, np.pi / 2) - 1e-9

    def test_lambda_symmetry(self):
        tri = eigenvalues(GELU, 1.3, 1.3, 0.4, 1.0, 0.1)
        assert tri.lambda1 == tri.lambda2

    def test_invalid_state(self):
        with pytest.raises(ValueError):
            eigenvalues(GELU, 0.0, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            eigenvalues(GELU, 1.0, 1.0, 1.5, 1.0, 0.0)
        # the norms take the rule of iterate_state; an infinite one used to
        # warn, and a NaN one to raise an ArithmeticError that did not name it
        for s1_sq, s2_sq, row in ((np.inf, 1.0, 0), (1.0, np.nan, 1), (0.0, 1.0, 0),
                                  (1.0, -2.0, 1)):
            with pytest.raises(ValueError, match="eigenvalues requires finite, strictly "
                                                 f"positive squared norms; row {row}"):
                eigenvalues(GELU, s1_sq, s2_sq, 0.3, 1.0, 0.0)

    @pytest.mark.parametrize("act", [GELU, ELU, lrelu(0.2)], ids=lambda a: a.kind)
    def test_lambda3_matches_fd_of_g3(self, act):
        for rho in (-0.5, 0.0, 0.7):
            for s_sq in (0.5, 1.5):
                tri = eigenvalues(act, s_sq, s_sq, rho, 1.2, 0.1)
                h = 1e-5
                fd = (g3_value(act, s_sq, s_sq, rho + h, 1.2, 0.1)
                      - g3_value(act, s_sq, s_sq, rho - h, 1.2, 0.1)) / (2 * h)
                assert tri.lambda3 == pytest.approx(fd, abs=1e-4)

    @pytest.mark.parametrize("act", [GELU, ERF, ELU, selu(1.0507, 1.6733), RELU,
                                     lrelu(0.2)], ids=lambda a: a.kind)
    def test_lambda1_matches_quadrature(self, act):
        # Stein's lemma: lambda_1 = sigma_w^2 E[(Z^2 - 1) psi^2(s Z)] / (2 s^2)
        grid = (0.25, 0.5, 1.0, 2.0, 5.0, 10.0)
        if act.kind in ("elu", "selu"):
            grid += (12.0, 25.0)
        for s in grid:
            tri = eigenvalues(act, s * s, (0.9 * s) ** 2, 0.3, 1.2, 0.1)
            for lam, si in ((tri.lambda1, s), (tri.lambda2, 0.9 * s)):
                quad = 1.2 * mean_1d(lambda z: (z * z - 1.0) * am.eval(act, si * z) ** 2,
                                     nodes=160) / (2.0 * si * si)
                assert lam == pytest.approx(quad, rel=1e-12)

    def test_no_quadrature_on_the_jacobian_path(self, monkeypatch):
        from nnkernels import fixed_point, quadrature

        def boom(*args, **kwargs):
            raise AssertionError("quadrature called")

        # every quadrature name a package module holds; raising=True, so a
        # renamed one fails here instead of leaving the guard patching nothing
        for mod, name in ((quadrature, "pair_mean_quad"), (quadrature, "autocorr_mean_quad"),
                          (fixed_point, "autocorr_mean_quad")):
            monkeypatch.setattr(mod, name, boom, raising=True)
        hyper = NetworkHyper.shared(2, 1.5, 0.1)
        for act in (GELU, ERF, ELU, RELU):
            tri = eigenvalues(act, 1.3, 0.8, 0.4, 1.5, 0.1)
            assert np.isfinite([tri.lambda1, tri.lambda2, tri.lambda3]).all()
            traj = state_trajectory(act, [1.0, 0.2], [0.3, -0.5], hyper)
            assert np.isfinite(kernel_grad(act, hyper, traj)).all()

    @pytest.mark.parametrize("act", [GELU, ELU, lrelu(0.2)], ids=lambda a: a.kind)
    def test_lambda1_matches_fd_of_g1(self, act):
        for s_sq in (0.5, 1.5):
            tri = eigenvalues(act, s_sq, s_sq, 0.3, 1.2, 0.1)
            h = 1e-5
            fd = (g1_value(act, s_sq + h, 1.2, 0.1)
                  - g1_value(act, s_sq - h, 1.2, 0.1)) / (2 * h)
            assert tri.lambda1 == pytest.approx(fd, abs=1e-4)


class TestLambda3LRelu:
    def test_relu_half(self):
        assert lambda3_lrelu(0.0, np.pi / 2) == pytest.approx(0.5, rel=1e-14)

    def test_slope_point_two(self):
        assert lambda3_lrelu(0.2, np.pi / 2) == pytest.approx(0.36 / 0.52, rel=1e-12)

    def test_unity_at_zero_angle(self):
        for a in (0.0, 0.2, 0.5, 0.9):
            assert lambda3_lrelu(a, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_below_one_on_open_interval(self):
        thetas = np.linspace(0.01, np.pi, 400)
        for a in (0.0, 0.2, 0.5):
            assert (lambda3_lrelu(a, thetas) < 1.0).all()

    def test_scale_invariance_matches_quadrature(self):
        # absolute homogeneity: lambda_3 independent of s
        a = 0.2
        sw2 = 2.0 / (1.0 + a * a)
        vals = [eigenvalues(lrelu(a), s * s, s * s, 0.4, sw2, 0.0).lambda3
                for s in (0.5, 1.0, 5.0)]
        assert np.ptp(vals) <= 1e-8
        assert vals[0] == pytest.approx(lambda3_lrelu(a, np.arccos(0.4)), abs=1e-9)


class TestLambda3Gelu:
    def test_orthogonal_reduces_to_quarter_variance(self):
        sigma = 1.3
        assert lambda3_gelu_lower(1.0, sigma, np.pi / 2) == pytest.approx(
            sigma * sigma / 4.0, rel=1e-12)

    def test_exceeds_one_at_norm_preserving_sigma(self):
        thetas = np.linspace(1e-3, np.pi - 1e-3, 800)
        for norm in (0.5, 1.0, 5.0):
            sigma = sigma_star(GELU, norm)
            assert lambda3_gelu_lower(norm, sigma, thetas).max() > 1.0

    def test_large_norm_small_angle(self):
        assert lambda3_gelu_lower(5.0, 1.42, 0.05) > 1.0

    def test_bound_below_quadrature_for_positive_cos(self):
        sigma = sigma_star(GELU, 1.0)
        s = sigma * 1.0
        thetas = np.pi * (np.arange(23) + 1.0) / 24.0
        quad = lambda3_quad_grid(GELU, s, thetas, sigma ** 2, 0.0)
        bound = lambda3_gelu_lower(1.0, sigma, thetas)
        positive = thetas <= np.pi / 2
        assert positive.sum() == 12
        assert (quad[positive] >= bound[positive] - 1e-9).all()


class TestLambda3Elu:
    def test_exceeds_one_at_norm_preserving_sigma(self):
        thetas = np.linspace(1e-3, np.pi - 1e-3, 800)
        for norm in (0.5, 1.0, 5.0):
            sigma = sigma_star(ELU, norm)
            assert lambda3_elu(norm, sigma, thetas).max() > 1.0

    def test_small_scale_limit_is_variance(self):
        sigma = 1e-6
        assert lambda3_elu(1.0, sigma, 1.0) == pytest.approx(sigma ** 2, rel=1e-4)

    def test_endpoint_matches_quadrature(self):
        # at the exact norm-preserving root, g1 = s^2, so the scale-free
        # form sigma^2 E[psi' psi'] coincides with the Jacobian eigenvalue
        sigma = sigma_star(ELU, 1.0)
        got = lambda3_elu(1.0, sigma, np.pi - 1e-9)
        quad = kernel_dot_quadrature(
            ELU, KernelArgs(sigma, sigma, np.cos(np.pi - 1e-9), sigma ** 2), nodes=120)
        assert got == pytest.approx(quad, abs=1e-6)

    def test_agrees_with_quadrature_on_grid(self):
        thetas = np.pi * (np.arange(63) + 1.0) / 64.0
        for norm in (0.5, 1.0, 5.0):
            sigma = sigma_star(ELU, norm)
            vals = lambda3_elu(norm, sigma, thetas)
            quad = lambda3_quad_grid(ELU, sigma * norm, thetas, sigma ** 2, 0.0)
            assert np.abs(vals - quad).max() <= 1e-6

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            lambda3_elu(26.0, 1.0, 1.0)


@pytest.mark.parametrize("norm", [0.5, 1.0, 5.0])
def test_paper_forms_are_lambda3_at_sigma_star(norm):
    # sigma^2 E[psi' psi'] equals lambda_3 where g(s) = s^2; sigma* is a
    # bisection root (xtol 1e-8), so g/s^2 - 1 is ~1e-8 there
    thetas = np.linspace(0.01, np.pi - 0.01, 50)
    for act, paper in ((GELU, lambda3_gelu_lower), (ELU, lambda3_elu)):
        sigma = sigma_star(act, norm)
        s = sigma * norm
        want = lambda3(act, s, s, np.cos(thetas), sigma ** 2, 0.0)
        assert paper(norm, sigma, thetas) == pytest.approx(want, rel=1e-6)
    a = 0.2
    sigma = sigma_star(lrelu(a), norm)
    want = lambda3(lrelu(a), norm * sigma, norm * sigma, np.cos(thetas), sigma ** 2, 0.0)
    assert lambda3_lrelu(a, thetas) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("norm", [0.5, 1.0, 5.0])
def test_quadrature_rows_match_lambda3_to_the_end_angles(norm):
    # the 512 angles of `nnk fixedpoint`, out to pi/513 from theta = 0 and
    # pi; ELU and SELU only below norm 5, where their closed forms are
    # themselves 2e-11..3e-11 off at mid angles (ROADMAP item 2)
    thetas = np.pi * (np.arange(512) + 1.0) / 513.0
    elus = [ELU, selu(1.0507, 1.6733)] if norm < 5.0 else []
    for act in [RELU, lrelu(0.2), GELU] + elus:
        sigma = sigma_star(act, norm)
        s = sigma * norm
        want = lambda3(act, s, s, np.cos(thetas), sigma ** 2, 0.0)
        got = lambda3_quad_grid(act, s, thetas, sigma ** 2, 0.0)
        assert np.abs(got - want).max() <= 1e-13, act.kind


@pytest.mark.parametrize("n", [1, 5, 31])
def test_quadrature_rows_match_lambda3_on_coarse_grids(n):
    # the cells of the grid pi (k + 1) / (n + 1) widen as n falls; their
    # sub-cells keep ~4096 angular nodes on every grid (512 angles: above)
    thetas = np.pi * (np.arange(n) + 1.0) / (n + 1.0)
    for norm in (0.5, 1.0, 5.0):
        elus = [ELU, selu(1.0507, 1.6733)] if norm < 5.0 else []
        for act in [RELU, lrelu(0.2), GELU] + elus:
            sigma = sigma_star(act, norm)
            s = sigma * norm
            want = lambda3(act, s, s, np.cos(thetas), sigma ** 2, 0.0)
            got = lambda3_quad_grid(act, s, thetas, sigma ** 2, 0.0)
            assert np.abs(got - want).max() <= 1e-13, (act.kind, norm)


@pytest.mark.parametrize("n", [1, 5, 31, 512])
def test_erf_quadrature_rows_match_closed_form(n):
    # at sigma*(0.5) and at a narrow s = 7.5 (sigma_w^2 = 1), where rows
    # from the 120-node polar rule of pair_mean_quad are 1.2e-10 off on 512
    # angles
    thetas = np.pi * (np.arange(n) + 1.0) / (n + 1.0)
    sigma = sigma_star(ERF, 0.5)
    for s, sw2 in ((0.5 * sigma, sigma ** 2), (7.5, 1.0)):
        want = lambda3(ERF, s, s, np.cos(thetas), sw2, 0.0)
        got = lambda3_quad_grid(ERF, s, thetas, sw2, 0.0)
        assert np.abs(got - want).max() <= 1e-13, s


@pytest.mark.parametrize("thetas", [np.linspace(0.3, 2.8, 5), [np.pi - 1e-9],
                                    np.pi * np.arange(1.0, 9.0) / 8.0,
                                    np.pi * np.arange(8.0, 0.0, -1.0) / 9.0],
                         ids=["linspace", "end-angle", "k-over-n", "reversed"])
def test_quadrature_rows_refuse_angles_off_the_grid(thetas):
    with pytest.raises(ValueError, match=r"pi \(k \+ 1\) / "):
        lambda3_quad_grid(GELU, 1.5, thetas, 2.0, 0.0)


def test_quadrature_rows_take_the_grid_to_a_few_ulps():
    thetas = np.pi * np.arange(1.0, 9.0) / 9.0
    exact = lambda3_quad_grid(GELU, 1.5, thetas, 2.0, 0.0)
    nudged = lambda3_quad_grid(GELU, 1.5, thetas + 2.0 * np.spacing(thetas), 2.0, 0.0)
    assert np.array_equal(exact, nudged)


class TestSigmaStar:
    def test_relu_he(self):
        assert sigma_star(RELU, 1.0) == pytest.approx(np.sqrt(2.0), abs=1e-8)
        assert sigma_star(RELU, 7.3) == pytest.approx(np.sqrt(2.0), abs=1e-8)

    def test_lrelu_analytic(self):
        a = 0.2
        got = sigma_star(lrelu(a), 2.0)
        assert got == pytest.approx(np.sqrt(2.0 / (1.0 + a * a)), rel=1e-12)
        # oracle: the norm condition E[psi^2(s Z)] = norm^2 holds at the root
        from nnkernels.kernels import diag_mean
        assert float(diag_mean(lrelu(a), got * 2.0)) == pytest.approx(4.0, rel=1e-12)

    def test_gelu_roots_match_reported_values(self):
        assert sigma_star(GELU, 0.5) == pytest.approx(1.59, abs=0.01)
        assert sigma_star(GELU, 1.0) == pytest.approx(1.47, abs=0.01)
        assert sigma_star(GELU, 5.0) == pytest.approx(1.42, abs=0.01)

    def test_elu_roots(self):
        assert sigma_star(ELU, 0.5) == pytest.approx(1.17, abs=0.01)
        assert sigma_star(ELU, 5.0) == pytest.approx(1.40, abs=0.01)
        # the norm-1 root of the preservation condition sits at 1.2780
        # (the 1.26 sometimes quoted for this case is not a root; acceptance
        # criterion 2 checks it against an independent quadrature solve)
        got = sigma_star(ELU, 1.0)
        assert got == pytest.approx(1.2780, abs=1e-3)
        from nnkernels.kernels import diag_mean
        assert float(diag_mean(ELU, got)) == pytest.approx(1.0, abs=1e-7)

    def test_residual_vanishes_at_root(self):
        from nnkernels.kernels import diag_mean
        for act, norm in ((GELU, 0.5), (GELU, 5.0), (ELU, 2.0), (ERF, 0.7)):
            sigma = sigma_star(act, norm)
            assert float(diag_mean(act, sigma * norm)) == pytest.approx(
                norm * norm, abs=1e-7 * max(1.0, norm * norm))

    def test_no_root_reported_with_diagnostic(self):
        # erf is bounded: E[erf^2] < 1 can never reach norm^2 = 4
        with pytest.raises(ValueError, match="no sign change|no root"):
            sigma_star(ERF, 2.0)

    def test_root_past_the_elu_cap_refused(self):
        # at norm 20 the ELU root (~1.4) lies past the cap 25 / 20, so no
        # bracket changes sign
        with pytest.raises(ValueError, match="no sign change"):
            sigma_star(ELU, 20.0)

    def test_erf_root_beyond_elu_cap(self):
        # the root lies past 25 / norm, where only the ELU/SELU bracket is capped
        from scipy.special import erf
        sigma = sigma_star(ERF, 0.99)
        assert sigma == pytest.approx(32.3075, abs=1e-3)
        assert mean_1d(lambda z: erf(sigma * 0.99 * z) ** 2) == pytest.approx(
            0.99 ** 2, abs=1e-7)

    def test_erf_norm_one_asks_for_sigma_w2(self):
        with pytest.raises(ValueError, match=r"E\[erf\(s Z\)\^2\] < 1.*--sigma-w2"):
            sigma_star(ERF, 1.0)

    def test_norm_validation(self):
        with pytest.raises(ValueError):
            sigma_star(GELU, 0.0)


def _scipy_bisect(f, a, b, xtol):
    from scipy.optimize import bisect
    return float(bisect(f, a, b, xtol=xtol))


def test_roots_match_scipy_bisect_bit_for_bit(monkeypatch):
    # the in-module bisection takes scipy.optimize.bisect's steps and stop
    # rule; both root finders of this module return the same doubles
    def roots():
        out = [sigma_star(act, norm) for act in (GELU, ELU, selu(1.0507, 1.6733))
               for norm in (0.5, 1.0, 5.0)]
        out += [sigma_star(ERF, norm) for norm in (0.5, 0.99)]
        for act in (GELU, ELU, RELU, ERF):
            for norm in (0.5, 1.0, 5.0):
                sigma = 1.2 if act is ERF else sigma_star(act, norm)
                for sw2, sb2 in ((sigma ** 2, 0.0), (2.0, 0.1)):
                    out.append(_norm_fixed_point(act, sw2 * norm * norm + sb2, sw2, sb2))
        return out

    def hexes(xs):  # ReLU at (2.0, 0.1) has no norm root: g1(u) = u + 0.1
        return [None if x is None else x.hex() for x in xs]

    ours = roots()
    monkeypatch.setattr(fixed_point, "_bisect", _scipy_bisect)
    assert hexes(ours) == hexes(roots())


@pytest.mark.parametrize("f, a, b", [(lambda x: x * x - 2.0, 0.0, 2.0),
                                     (lambda x: np.tanh(40.0 * (x - 0.3)), 1.0, -1.0),
                                     (lambda x: x - 1.0, 0.0, 1.0),
                                     (lambda x: x, 0.0, 5.0),
                                     (lambda x: np.exp(x) - 1e-300, -800.0, 0.0)])
@pytest.mark.parametrize("xtol", [1e-300, 1e-12, 1e-3])
def test_bisect_matches_scipy(f, a, b, xtol):
    assert fixed_point._bisect(f, a, b, xtol) == _scipy_bisect(f, a, b, xtol)


def test_bisect_refuses_nan_and_an_unbracketed_root():
    with pytest.raises(ValueError, match="NaN"):
        fixed_point._bisect(lambda x: np.nan if x > 0.4 else -1.0, 0.0, 1.0, 1e-8)
    with pytest.raises(ValueError, match="different signs"):
        fixed_point._bisect(lambda x: x + 2.0, 0.0, 1.0, 1e-8)


def test_import_leaves_scipy_optimize_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]))
    code = "import sys, nnkernels, nnkernels.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_package_holds_no_oracle():
    # quadrature, Monte-Carlo and pdf oracles live in tests/oracle.py only
    import nnkernels
    oracles = {"kernel_quadrature", "kernel_dot_quadrature", "kernel_mc", "mean_1d",
               "normal_panel_nodes", "bvn_cdf", "std_normal_pdf"}
    modules = [nnkernels] + [importlib.import_module(f"nnkernels.{info.name}")
                             for info in pkgutil.iter_modules(nnkernels.__path__)]
    assert {"nnkernels.kernels", "nnkernels.quadrature", "nnkernels.special"} <= {
        module.__name__ for module in modules}
    for module in modules:
        assert not oracles & set(vars(module)), module.__name__
    assert not oracles & set(nnkernels.__all__)


class TestFindFixedPoint:
    def test_lrelu_contracts_to_one(self):
        a = 0.2
        sw2 = 2.0 / (1.0 + a * a)
        # tol keeps the trajectory's smallest angle above the grid's
        # finest angle pi/513, so the grid sup bounds every local ratio
        report = find_fixed_point(lrelu(a), sw2, 0.0, LayerState(1.0, 1.0, -0.9),
                                  tol=1e-6, max_iter=30000)
        assert report.converged
        assert report.final_state.rho == pytest.approx(1.0, abs=5e-3)
        assert report.verdict == "unique-contraction"
        thetas = np.pi * (np.arange(512) + 1.0) / 513.0
        sup = lambda3_lrelu(a, thetas).max()
        assert all(r <= sup + 1e-6 for r in report.per_step_ratio)

    def test_start_at_fixed_point(self):
        sigma = sigma_star(GELU, 1.0)
        u = _norm_fixed_point(GELU, sigma ** 2, sigma ** 2, 0.0)
        report = find_fixed_point(GELU, sigma ** 2, 0.0, LayerState(u, u, 1.0))
        assert report.converged and report.stopped == "converged"
        assert report.iterations <= 2
        assert report.final_state.rho == 1.0

    def test_gelu_not_contraction_at_sigma_star(self):
        sigma = sigma_star(GELU, 1.0)
        start = input_state(2.0, 1.0, sigma ** 2, 0.0)
        report = find_fixed_point(GELU, sigma ** 2, 0.0, start, max_iter=256)
        assert report.verdict == "not-contraction"
        assert report.sup_lambda3 > 1.0

    def test_max_iter_stop(self):
        sigma = sigma_star(GELU, 1.0)
        report = find_fixed_point(GELU, sigma ** 2, 0.0, input_state(2.0, 1.0, sigma ** 2, 0.0),
                                  max_iter=8)
        assert (report.stopped, report.iterations, report.converged) == ("max_iter", 8, False)

    def test_elu_step_is_one_bvn_call(self, bvn_work):
        # the pair's three rows go in one call of the Genz rule, as one
        # column, in the Genz band; in the tail band the pair is one entry
        # of the tail rule and makes no Genz call. The rho = 1 norm updates
        # take closed-form limits
        calls, work = bvn_work
        for rho, shapes, genz, tail in ((0.4, [(3, 1)], 1, 0), (0.97, [], 0, 1)):
            calls.clear()
            work.update(genz=0, tail=0)
            iterate_state(ELU, LayerState(1.3, 0.8, rho), 1.5, 0.1)
            assert [shape for shape, _ in calls] == shapes
            assert work == {"genz": genz, "tail": tail}

    def test_overflowing_norm_stops_as_diverged(self):
        # at sigma*(0.5) the GELU norm fixed point repels, and from
        # theta0 = 1 the squared norm grows past 1e78 until a step overflows
        sigma = sigma_star(GELU, 0.5)
        start = input_state(1.0, 0.5, sigma ** 2, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = find_fixed_point(GELU, sigma ** 2, 0.0, start)
        assert report.stopped == "diverged"
        assert not report.converged
        assert np.isfinite(report.final_state.s1_sq) and report.final_state.s1_sq > 1e70


# the CLI's SELU (scale 1.0507009873554805, alpha 1.6732632423543772): at
# sigma*(1) its mean is ~0, so rho* is ~0
SELU = from_name("selu")
EXPECTED_RHO_STAR = {("gelu", 0.5): 0.70153103, ("gelu", 1.0): 0.85319173,
                     ("gelu", 5.0): 0.99152028, ("elu", 0.5): 0.51714725,
                     ("elu", 1.0): 0.64371112, ("elu", 5.0): 0.94086160,
                     ("selu", 0.5): 0.75154045, ("selu", 1.0): 0.0,
                     ("selu", 5.0): 0.77876010}


@pytest.mark.parametrize("norm", [0.5, 1.0, 5.0])
@pytest.mark.parametrize("act", [GELU, ELU, SELU], ids=lambda a: a.kind)
def test_fixed_point_roots_at_sigma_star(act, norm):
    # u* is a root of the norm map, rho* a root of the correlation map at
    # u* (against an independent 80-node quadrature brentq root), and the
    # stability is the eigenvalues there; lambda_3(rho*) < 1, so rho*
    # attracts along rho
    sw2 = sigma_star(act, norm) ** 2
    report = find_fixed_point(act, sw2, 0.0, input_state(2.0, norm, sw2, 0.0), max_iter=1)
    u = report.s_sq_star
    assert abs(g1_value(act, u, sw2, 0.0) - u) <= 1e-12 * max(1.0, u)
    assert abs(report.rho_star - rho_star_quadrature(act, u, sw2, 0.0, nodes=80)) <= 1e-9
    assert report.rho_star == pytest.approx(EXPECTED_RHO_STAR[act.kind, norm], abs=1e-8)
    tri = eigenvalues(act, u, u, report.rho_star, sw2, 0.0)
    assert (report.lambda1, report.lambda3_at_rho_star) == (tri.lambda1, tri.lambda3)
    assert report.lambda3_at_rho_star < 1.0


def test_homogeneous_norm_map_keeps_the_start():
    # ReLU and LReLU at sigma*: g1(u) = u to rounding, so u* is the start
    # and rho* = 1, where lambda_3 = 1
    for act in (RELU, lrelu(0.2)):
        for norm in (0.5, 1.0, 5.0):
            sw2 = sigma_star(act, norm) ** 2
            start = input_state(2.0, norm, sw2, 0.0)
            report = find_fixed_point(act, sw2, 0.0, start, max_iter=1)
            assert report.s_sq_star == start.s1_sq
            assert report.rho_star == 1.0
            assert report.lambda3_at_rho_star == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("act, sb2", [(GELU, 0.5), (RELU, 0.3)], ids=["gelu", "relu"])
def test_no_norm_root_reports_none(act, sb2):
    # with sigma_b^2 > 0 at sigma*(1), g1(u) - u keeps its sign around the
    # start: no fixed point is reported, nothing converged to one, and with
    # no sphere to take lambda_3 on the verdict is "inconclusive"
    sw2 = sigma_star(act, 1.0) ** 2
    start = input_state(2.0, 1.0, sw2, sb2)
    assert _norm_fixed_point(act, start.s1_sq, sw2, sb2) is None
    report = find_fixed_point(act, sw2, sb2, start, max_iter=512)
    assert (report.s_sq_star, report.rho_star, report.lambda1,
            report.lambda3_at_rho_star) == (None, None, None, None)
    assert not report.converged
    assert report.verdict == "inconclusive"


@pytest.mark.parametrize("act, converged, iterations", [(GELU, False, 239), (ELU, True, 505)],
                         ids=["gelu", "elu"])
def test_converged_needs_the_norm_fixed_point(act, converged, iterations):
    # both loops stop on a step below tol; GELU's norm has collapsed off its
    # repelling fixed point by then (s1^2 ~ 6e-11 against u* = 2.155)
    sw2 = sigma_star(act, 1.0) ** 2
    report = find_fixed_point(act, sw2, 0.0, input_state(2.0, 1.0, sw2, 0.0), max_iter=512)
    assert (report.stopped, report.iterations) == ("converged", iterations)
    assert report.converged is converged
    assert report.verdict == "not-contraction"


def _iterate_state_loop(act, sw2, sb2, start, max_iter):
    """The loop of ``find_fixed_point`` at its default tol, written over
    ``iterate_state``: a LayerState per step, each step in its own
    errstate, the distance on the states' numpy scalars. Returns (final
    state, iterations, stopped, per-step ratios)."""
    state, distances, stopped = start, [], "max_iter"
    for _ in range(max_iter):
        try:
            with np.errstate(over="raise"):
                new = iterate_state(act, state, sw2, sb2)
        except (ArithmeticError, ValueError):
            stopped = "diverged"
            break
        d = float(np.sqrt((new.s1_sq - state.s1_sq) ** 2 + (new.s2_sq - state.s2_sq) ** 2
                          + (new.rho - state.rho) ** 2))
        if not np.isfinite(d):
            stopped = "diverged"
            break
        state = new
        distances.append(d)
        if d < 1e-10:
            stopped = "converged"
            break
    ratios = tuple(d1 / d0 for d0, d1 in zip(distances[:-1], distances[1:]) if d0 > 0.0)
    return state, len(distances), stopped, ratios


def _assert_loop_is_iterate_state(act, sw2, sb2, start, max_iter):
    report = find_fixed_point(act, sw2, sb2, start, max_iter=max_iter)
    state, iterations, stopped, ratios = _iterate_state_loop(act, sw2, sb2, start, max_iter)
    assert (report.iterations, report.stopped) == (iterations, stopped)
    u = report.s_sq_star
    assert report.converged == (stopped == "converged" and u is not None and all(
        abs(v - u) <= 1e-6 * u for v in (state.s1_sq, state.s2_sq)))
    for field in ("s1_sq", "s2_sq", "rho"):
        assert float(getattr(report.final_state, field)).hex() == float(
            getattr(state, field)).hex(), field
    assert [r.hex() for r in report.per_step_ratio] == [r.hex() for r in ratios]
    return report


@pytest.mark.parametrize("norm", [0.5, 1.0, 5.0])
@pytest.mark.parametrize("act", [lrelu(0.2), GELU, ELU, selu(1.0507, 1.6733), RELU, ERF],
                         ids=lambda a: a.kind)
def test_loop_equals_iterate_state_bit_for_bit(act, norm):
    # the float-state loop against the same loop over iterate_state: the
    # contraction (LReLU, ReLU), the repelling norm map (GELU) and the ELU
    # bands, out to 512 steps
    sigma = 1.2 if act is ERF and norm >= 1.0 else sigma_star(act, norm)
    _assert_loop_is_iterate_state(act, sigma ** 2, 0.0, input_state(2.0, norm, sigma ** 2, 0.0),
                                  512)


def test_loop_diverges_where_iterate_state_does():
    # a zero squared norm, refused before the first step by both; a zero
    # first norm used to end in a NaN sup_lambda3 and the verdict
    # "inconclusive"
    for row, start in enumerate((LayerState(0.0, 1.0, 0.5), LayerState(1.0, 0.0, 0.5))):
        with pytest.raises(ValueError, match=f"find_fixed_point .* row {row} has 0.0"):
            find_fixed_point(GELU, 2.0, 0.0, start, max_iter=512)
        with pytest.raises(ValueError, match=f"iterate_state .* row {row} has 0.0"):
            iterate_state(GELU, start, 2.0, 0.0)
    # GELU at sigma*(0.5) from theta0 = 1: the norm grows until a step overflows
    sigma = sigma_star(GELU, 0.5)
    report = _assert_loop_is_iterate_state(GELU, sigma ** 2, 0.0,
                                           input_state(1.0, 0.5, sigma ** 2, 0.0), 10_000)
    assert report.stopped == "diverged" and report.iterations > 512
    # ELU at sigma_w^2 = 4 from s = 10: s passes ELU_S_MAX = 25 within three
    # steps, and the next step's kernel call refuses it
    report = _assert_loop_is_iterate_state(ELU, 4.0, 0.0, LayerState(100.0, 100.0, 0.3), 512)
    assert (report.stopped, report.iterations) == ("diverged", 3)
    with pytest.raises(OverflowError, match="s <= 25"):
        iterate_state(ELU, report.final_state, 4.0, 0.0)


@pytest.mark.parametrize("norm", [0.5, 1.0, 5.0])
@pytest.mark.parametrize("act, repels", [(GELU, True), (ELU, False)],
                         ids=["gelu", "elu"])
def test_norm_fixed_point_stability_at_sigma_star(act, repels, norm):
    # lambda_1 at the norm fixed point: GELU 1.173, 1.084, 1.0015 (repels),
    # ELU 0.894, 0.898, 0.985 (attracts) at norms 0.5, 1, 5
    sw2 = sigma_star(act, norm) ** 2
    u = _norm_fixed_point(act, sw2 * norm * norm, sw2, 0.0)
    lam1 = _layer_jacobian(act, u, u, u, sw2)[0, 0]
    assert (lam1 > 1.0) == repels, f"lambda_1 = {lam1:.4f}"


@pytest.mark.parametrize("sw2_sb2", [None, (2.0, 0.1)], ids=["sigma-star", "sw2-2-sb2-0.1"])
@pytest.mark.parametrize("norm", [0.5, 1.0, 5.0])
@pytest.mark.parametrize("act", [GELU, ELU, selu(1.0507, 1.6733), RELU, lrelu(0.2), ERF],
                         ids=lambda a: a.kind)
def test_verdict_sup_is_the_max_over_all_512_angles(act, norm, sw2_sb2):
    # the verdict evaluates lambda_3 at the two end angles of the grid only
    if sw2_sb2 is None:
        sigma = 1.2 if act is ERF and norm >= 1.0 else sigma_star(act, norm)
        sw2_sb2 = (sigma * sigma, 0.0)
    sw2, sb2 = sw2_sb2
    start = input_state(2.0, norm, sw2, sb2)
    # the sup depends on the start alone, not on how far the iteration ran
    report = find_fixed_point(act, sw2, sb2, start, max_iter=1)
    # at the start's norm where the norm map has no root (all but GELU and
    # ERF at (2.0, 0.1))
    u = _norm_fixed_point(act, start.s1_sq, sw2, sb2)
    s = np.sqrt(start.s1_sq if u is None else u)
    thetas = np.pi * (np.arange(512) + 1.0) / 513.0
    assert report.sup_lambda3 == np.abs(lambda3(act, s, s, np.cos(thetas), sw2, sb2)).max()


SIX_ACTS = [GELU, ERF, ELU, selu(1.0507, 1.6733), RELU, lrelu(0.2)]


def test_sweep_rows_schema():
    # one closed-form row per angle, for every activation; no quadrature rows
    thetas = np.pi * (np.arange(9) + 1.0) / 10.0
    for act in SIX_ACTS:
        sigma = 1.47 if act is GELU else sigma_star(act, 0.5)
        rows = lambda3_sweep_rows(act, 1.0, sigma, thetas)
        assert len(rows) == thetas.size, act.kind
        assert [r[0] for r in rows] == list(thetas)
        assert {r[2:] for r in rows} == {(act.kind, 1.0, sigma, "closed-form")}


@pytest.mark.parametrize("norm", [0.5, 1.0, 5.0])
@pytest.mark.parametrize("act", SIX_ACTS, ids=lambda a: a.kind)
def test_sweep_rows_are_the_quadrature_oracle(act, norm):
    # the 512 angles of `nnk fixedpoint` at sigma* (ERF at sigma = 1.2 from
    # norm 1, where it has no sigma*). Two closed forms are off by more than
    # rounding at norm 5, as measured against this oracle: ERF at s = 6 by
    # 1.7e-14, and ELU and SELU at s ~ 7 by 4.1e-11 and 2.2e-11, the open
    # fault of their Genz integrals (ROADMAP item 2)
    thetas = np.pi * (np.arange(512) + 1.0) / 513.0
    sigma = 1.2 if act is ERF and norm >= 1.0 else sigma_star(act, norm)
    tol = 1e-14
    if norm == 5.0 and act.kind in ("erf", "elu", "selu"):
        tol = 3e-14 if act is ERF else 5e-11
    rows = lambda3_sweep_rows(act, norm, sigma, thetas)
    assert len(rows) == thetas.size
    got = np.array([r[1] for r in rows])
    want = lambda3_quad_grid(act, sigma * norm, thetas, sigma ** 2, 0.0)
    assert np.abs(got - want).max() <= tol


@pytest.mark.parametrize("act, sigma", [(ELU, np.sqrt(2.0)),
                                        (selu(1.0507, 1.67326), None)],
                         ids=["elu-sw2-2", "selu-sigma-star"])
def test_sweep_closed_rows_match_quadrature_off_sigma_star(act, sigma):
    # away from sigma* (sigma_w^2 = 2) and with SELU scales, the closed-form
    # rows are still lambda_3, not the scale-free sigma^2 E[psi' psi']
    sigma = sigma or sigma_star(act, 1.0)
    thetas = np.pi * (np.arange(63) + 1.0) / 64.0
    rows = lambda3_sweep_rows(act, 1.0, sigma, thetas)
    closed = np.array([r[1] for r in rows])
    quad = lambda3_quad_grid(act, sigma, thetas, sigma ** 2, 0.0)
    assert closed.size == quad.size == thetas.size
    assert np.abs(closed - quad).max() <= 1e-6
