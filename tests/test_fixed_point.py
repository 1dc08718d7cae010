import warnings

import numpy as np
import pytest

from nnkernels import activations as am
from nnkernels.activations import ELU, ERF, GELU, RELU, lrelu, selu
from nnkernels.deep import (LayerState, NetworkHyper, _layer_jacobian,
                            input_state, iterate_state, kernel_grad,
                            state_trajectory)
from nnkernels.fixed_point import (eigenvalues, find_fixed_point, lambda3,
                                   lambda3_elu, lambda3_gelu_lower,
                                   lambda3_lrelu, lambda3_quad_grid,
                                   lambda3_sweep_rows, sigma_star,
                                   _norm_fixed_point)
from nnkernels.kernels import kernel_values
from nnkernels.quadrature import mean_1d


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
        from nnkernels import fixed_point, kernels, quadrature

        def boom(*args, **kwargs):
            raise AssertionError("quadrature called")

        for mod in (quadrature, kernels, fixed_point):
            for name in ("pair_mean_quad", "normal_panel_nodes"):
                monkeypatch.setattr(mod, name, boom, raising=False)
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
        thetas = np.linspace(0.05, np.pi / 2, 12)
        quad = lambda3_quad_grid(GELU, s, thetas, sigma ** 2, 0.0)
        bound = lambda3_gelu_lower(1.0, sigma, thetas)
        assert (quad >= bound - 1e-9).all()


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
        quad = lambda3_quad_grid(ELU, sigma, np.array([np.pi - 1e-9]), sigma ** 2, 0.0)
        assert got == pytest.approx(float(quad[0]), abs=1e-6)

    def test_agrees_with_quadrature_on_grid(self):
        thetas = np.array([0.05, 0.5, 1.0, np.pi / 2, 2.5, np.pi - 0.05])
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
        from nnkernels.quadrature import mean_1d
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
        # the pair's three bvn rows go in one call, as three Genz integrals,
        # in the Genz band; in the tail band the pair is one entry of the
        # tail rule and makes no bvn call. The rho = 1 norm updates take
        # closed-form limits
        calls, work = bvn_work
        for rho, shapes, genz, tail in ((0.4, [(3, 1)], 3, 0), (0.97, [], 0, 1)):
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
    s = np.sqrt(_norm_fixed_point(act, start.s1_sq, sw2, sb2))
    thetas = np.pi * (np.arange(512) + 1.0) / 513.0
    assert report.sup_lambda3 == np.abs(lambda3(act, s, s, np.cos(thetas), sw2, sb2)).max()


def test_sweep_rows_schema():
    thetas = np.linspace(0.3, 2.8, 5)
    rows = lambda3_sweep_rows(GELU, 1.0, 1.47, thetas)
    assert {r[5] for r in rows} == {"lower-bound", "quadrature"}
    rows = lambda3_sweep_rows(ERF, 0.5, sigma_star(ERF, 0.5), thetas)
    assert {r[5] for r in rows} == {"quadrature"}
    rows = lambda3_sweep_rows(ELU, 1.0, sigma_star(ELU, 1.0), thetas)
    assert {r[5] for r in rows} == {"closed-form", "quadrature"}
    closed = {r[0]: r[1] for r in rows if r[5] == "closed-form"}
    quad = {r[0]: r[1] for r in rows if r[5] == "quadrature"}
    assert all(abs(closed[t] - quad[t]) < 1e-6 for t in closed)


@pytest.mark.parametrize("act, sigma", [(ELU, np.sqrt(2.0)),
                                        (selu(1.0507, 1.67326), None)],
                         ids=["elu-sw2-2", "selu-sigma-star"])
def test_sweep_closed_rows_match_quadrature_off_sigma_star(act, sigma):
    # away from sigma* (sigma_w^2 = 2) and with SELU scales, the closed-form
    # rows are still lambda_3, not the scale-free sigma^2 E[psi' psi']
    sigma = sigma or sigma_star(act, 1.0)
    thetas = np.linspace(0.05, np.pi - 0.05, 9)
    rows = lambda3_sweep_rows(act, 1.0, sigma, thetas)
    closed = np.array([r[1] for r in rows if r[5] == "closed-form"])
    quad = np.array([r[1] for r in rows if r[5] == "quadrature"])
    assert closed.size == quad.size == thetas.size
    assert np.abs(closed - quad).max() <= 1e-6
