import functools

import numpy as np
import pytest
from scipy import stats

from nnkernels import activations as am
from nnkernels.activations import ELU, GELU, RELU, from_name
from nnkernels.deep import NetworkHyper, deep_normalized_kernel, input_state
from nnkernels.finite_width import (empirical_kernel_trajectory, empirical_trajectory,
                                    factored_kernel_trajectory, random_rotation,
                                    rotated_pair, sample_net)
from nnkernels.fixed_point import find_fixed_point, sigma_star
from nnkernels.kernels import diag_mean

from oracle import mean_1d


class TestRandomRotation:
    def test_orthogonality(self):
        for dim in (2, 3, 5):
            q = random_rotation(dim, seed=4)
            assert np.abs(q.T @ q - np.eye(dim)).max() <= 1e-12

    def test_determinant_is_unit(self):
        q = random_rotation(2, seed=7)
        assert abs(abs(np.linalg.det(q)) - 1.0) <= 1e-12

    def test_determinism(self):
        assert np.array_equal(random_rotation(4, seed=11), random_rotation(4, seed=11))

    def test_angle_preserved(self):
        theta0 = 0.73
        x1, x2 = rotated_pair(theta0, 1.0, seed=3)
        cos = x1 @ x2 / (np.linalg.norm(x1) * np.linalg.norm(x2))
        assert cos == pytest.approx(np.cos(theta0), abs=1e-12)

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            random_rotation(1, seed=0)


class TestSampler:
    def test_layer_shapes_and_scaling(self):
        net = sample_net(RELU, 2, 500, 3, 2.0, 0.1, seed=5)
        assert net.weights[0].shape == (500, 2)
        assert net.weights[1].shape == (500, 500)
        # input layer at raw variance, hidden layers at sigma_w^2 / width
        assert net.weights[0].std() == pytest.approx(np.sqrt(2.0), rel=0.15)
        assert net.weights[1].std() == pytest.approx(np.sqrt(2.0 / 500), rel=0.05)
        assert net.biases[0].std() == pytest.approx(np.sqrt(0.1), rel=0.15)

    def test_identical_inputs_give_exactly_one(self):
        traj = empirical_trajectory(GELU, 0.0, 1.0, 200, 3, 1.5, 0.0, seed=9)
        assert traj.shape == (3,)
        np.testing.assert_allclose(traj, 1.0, rtol=0, atol=1e-12)

    def test_relu_single_layer_orthogonal(self):
        vals = [empirical_trajectory(RELU, np.pi / 2, 1.0, 3000, 1, 2.0, 0.0, seed=s)[-1]
                for s in range(5)]
        assert np.abs(np.mean(vals) - 1 / np.pi) <= 0.05
        for v in vals:
            assert abs(v - 1 / np.pi) <= 0.05

    def test_width_floor(self):
        # nnk mc-verify samples widths down to 1; a width of 0 is refused
        for width in (0, -3):
            with pytest.raises(ValueError, match="width"):
                empirical_trajectory(GELU, 1.0, 1.0, width, 1, 1.0, 0.0, seed=0)


class TestAgainstAnalytic:
    def test_empirical_diagonal_mean(self):
        # mean over seeds of ||a||^2 / n at layer 1 estimates the expected
        # squared hidden norm E[psi^2(s Z)] within 3 MC standard errors
        sw2, width, norm = 1.5, 1000, 1.2
        x = np.array([norm, 0.0])
        vals = []
        for seed in range(40):
            net = sample_net(GELU, 2, width, 1, sw2, 0.0, seed=100 + seed)
            h = _first_layer(net, x)[0]
            vals.append(float(h @ h) / width)
        vals = np.array(vals)
        expected = float(diag_mean(GELU, np.sqrt(sw2) * norm))
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - expected) <= 3 * se

    def test_gelu_agreement_with_analytic_curves(self):
        # spot check of the dots-vs-curves agreement (full grid in acceptance)
        from nnkernels.fixed_point import sigma_star
        sigma = sigma_star(GELU, 1.0)
        hyper = NetworkHyper.shared(2, sigma ** 2, 0.0)
        for i, theta0 in enumerate((0.5, 1.5, 2.5)):
            ana = deep_normalized_kernel(GELU, theta0, 1.0, hyper)
            emp = np.mean([empirical_trajectory(GELU, theta0, 1.0, 3000, 2,
                                                sigma ** 2, 0.0, seed=40 + i + 100 * r)
                           for r in range(3)], axis=0)
            assert np.abs(ana - emp).max() <= 0.03

    def test_width_convergence_one_over_n(self):
        # variance at n = 3000 vs n = 750 across frozen seeds; the literal
        # 1/4 ratio holds only in expectation, so allow an F-distribution
        # margin (0.40 is a ~3 sigma upper bound under true 1/n scaling)
        theta0 = np.pi / 2
        v = {}
        for width in (750, 3000):
            vals = [empirical_trajectory(RELU, theta0, 1.0, width, 1, 2.0, 0.0, seed=500 + s)[-1]
                    for s in range(100)]
            v[width] = np.var(vals, ddof=1)
        assert v[3000] <= 0.40 * v[750]


class TestFactoredSampler:
    """The P x P-factor sampler against the explicit network it replaces."""

    @pytest.mark.parametrize("act", (GELU, ELU, RELU))
    def test_first_layer_matches_explicit_net(self, act):
        # W_0 and b_0 come from the same Philox stream in the same order,
        # so layer 1 is the same network, not only the same law
        x1, x2 = rotated_pair(1.1, 1.3, seed=2)
        for depth in (1, 3):
            net = sample_net(act, 2, 400, depth, 1.7, 0.2, seed=21)
            ref = empirical_kernel_trajectory(net, x1, x2)
            new = factored_kernel_trajectory(act, x1, x2, 400, depth, 1.7, 0.2, seed=21)
            assert new.shape == (depth,)
            assert abs(new[0] - ref[0]) <= 1e-12

    @pytest.mark.parametrize("theta0, sigma_b2", ((np.pi / 2, 0.0), (1.0, 0.1)))
    def test_deep_layers_same_law_as_explicit_net(self, theta0, sigma_b2):
        # 600 explicit and 600 factored width-200 depth-4 ELU nets at sigma*,
        # on disjoint frozen seeds (a shared seed would share layer 1).
        # Means: |z| <= 3 per layer. Variances: the ratio of two sample
        # variances of normal data is F(599, 599), and its 0.1% / 99.9%
        # quantiles (0.78, 1.29) give each layer a two-sided level of 0.2%.
        # Each estimate is a smooth function of averages over 200 units; its
        # measured excess kurtosis is within +-0.5, which widens the spread
        # of log(variance ratio) by at most 12%, leaving the bounds at least
        # 2.7 standard deviations out. The bias case would catch a bias drawn
        # per input instead of shared by both inputs.
        n_nets, width, depth = 600, 200, 4
        sw2 = sigma_star(ELU, 1.0) ** 2
        x1, x2 = rotated_pair(theta0, 1.0, seed=0)
        explicit = np.array([
            empirical_kernel_trajectory(
                sample_net(ELU, 2, width, depth, sw2, sigma_b2, seed=s), x1, x2)
            for s in range(n_nets)])
        factored = np.array([
            factored_kernel_trajectory(ELU, x1, x2, width, depth, sw2, sigma_b2,
                                       seed=10 ** 6 + s)
            for s in range(n_nets)])
        v_exp, v_fac = explicit.var(axis=0, ddof=1), factored.var(axis=0, ddof=1)
        z = (factored.mean(axis=0) - explicit.mean(axis=0)) / np.sqrt((v_exp + v_fac) / n_nets)
        assert np.abs(z).max() <= 3.0
        lo, hi = stats.f.ppf([0.001, 0.999], n_nets - 1, n_nets - 1)
        ratio = v_fac / v_exp
        assert ((ratio >= lo) & (ratio <= hi)).all(), ratio

    def test_width_convergence_one_over_n_three_decades(self):
        # depth-3 ReLU nets at widths 300, 3000 and 30000 (explicit nets at
        # the last width would hold two 7.2 GB weight matrices). Per layer,
        # the variance over 200 frozen seeds falls tenfold per decade: the
        # ratio of consecutive variances stays in the F(199, 199) 0.1% /
        # 99.9% band (0.64, 1.55) around 1/10, a two-sided level of 0.2% per
        # (layer, decade) for normal estimates
        n_nets, depth = 200, 3
        v = [np.array([empirical_trajectory(RELU, np.pi / 2, 1.0, width, depth,
                                            2.0, 0.0, seed=800 + s)
                       for s in range(n_nets)]).var(axis=0, ddof=1)
             for width in (300, 3000, 30000)]
        lo, hi = stats.f.ppf([0.001, 0.999], n_nets - 1, n_nets - 1)
        for coarse, fine in zip(v, v[1:]):
            ratio = 10.0 * fine / coarse
            assert ((ratio >= lo) & (ratio <= hi)).all(), ratio


def _first_layer(net, x):
    from nnkernels import activations as am
    h = am.eval(net.activation, net.weights[0] @ np.asarray(x, float) + net.biases[0])
    return [h]


@functools.lru_cache(maxsize=None)
def _deep_rhos(act, theta0, width, nets=48):
    """rho at depth 120 of ``nets`` width-n nets at sigma*(1), seeds 0.."""
    sw2 = sigma_star(act, 1.0) ** 2
    return np.array([empirical_trajectory(act, theta0, 1.0, width, 120, sw2, 0.0, seed)[-1]
                     for seed in range(nets)])


def _fixed_point_at_sigma_star(act):
    """sigma_w^2 at sigma*(1) and the fixed-point report from its input."""
    sw2 = sigma_star(act, 1.0) ** 2
    return sw2, find_fixed_point(act, sw2, 0.0, input_state(2.0, 1.0, sw2, 0.0), max_iter=1)


def _log_norm_ratios(act, sw2, u, width, depth, nets, seed):
    """log(s_L^2 / u) of ``nets`` width-n nets at one input, from s_0^2 = u.

    The exact law of one input: given the post-activations x of a layer,
    the next pre-activations W x are iid N(0, sigma_w^2 |x|^2 / n) per
    unit, so s_{l+1}^2 = sigma_w^2 |psi(s_l Z)|^2 / n with Z in R^n fresh
    standard normal at each layer. Only psi comes from the package."""
    rng = np.random.default_rng(seed)
    s_sq = np.full(nets, u)
    for _ in range(depth):
        z = rng.standard_normal((nets, width))
        s_sq = sw2 * np.mean(am.eval(act, np.sqrt(s_sq)[:, None] * z) ** 2, axis=1)
    return np.log(s_sq / u)


@pytest.mark.parametrize("act, width, depth, nets", [
    (GELU, 1000, 10, 1000), (ELU, 200, 40, 2000), (from_name("selu"), 200, 30, 2000)],
    ids=["gelu", "elu", "selu"])
def test_log_norm_is_ar1_with_lambda1(act, width, depth, nets):
    # Linearised about u*, x_l = log(s_l^2 / u*) follows x_{l+1} =
    # lambda_1 x_l + eps_l with Var eps = v / n, v = E[psi^4] / E[psi^2]^2 - 1
    # at s*, so from x_0 = 0, Var x_L = (v / n) (lambda_1^{2L} - 1) /
    # (lambda_1^2 - 1). GELU's norm map repels (lambda_1 = 1.084) and stays
    # linear to L ~ 10 at this width; ELU (0.898) and SELU (0.783) are at
    # stationarity (lambda_1^{2L} < 2e-4). Bound on |S^2 / Var x_L - 1|:
    # 4 standard deviations of a sample variance over m nets, sqrt(2 / (m - 1))
    # by the chi^2 law with m - 1 degrees of freedom, plus an O(1/n) model
    # error taken as Var x_L itself (the second-order terms of log g1 and of
    # the log of a mean of n squares are O(Var x) relative; measured over
    # 20,000 nets: +0.55 Var x_L for GELU, -0.27 for ELU, +0.15 for SELU)
    sw2, report = _fixed_point_at_sigma_star(act)
    u, lam = report.s_sq_star, report.lambda1
    s = np.sqrt(u)
    m2 = mean_1d(lambda z: am.eval(act, s * z) ** 2, nodes=160)
    m4 = mean_1d(lambda z: am.eval(act, s * z) ** 4, nodes=160)
    var = (m4 / m2 ** 2 - 1.0) / width * (lam ** (2 * depth) - 1.0) / (lam ** 2 - 1.0)
    x = _log_norm_ratios(act, sw2, u, width, depth, nets, seed=23)
    bound = 4.0 * np.sqrt(2.0 / (nets - 1)) + var
    assert abs(x.var(ddof=1) / var - 1.0) <= bound, (x.var(ddof=1), var)


@pytest.mark.parametrize("act, theta0", [(ELU, 0.8), (from_name("selu"), 1.5)],
                         ids=["elu", "selu"])
def test_deep_nets_sit_at_rho_star(act, theta0):
    # Where the norm fixed point attracts (lambda_1 < 1), width-1000 nets at
    # depth 120 have the correlation rho* of the fixed-point report: from
    # these angles the infinite-width curve is within 2e-3 of rho* there
    # (ELU 0.6437, SELU ~0, lambda_3(rho*) 0.964 and 0.971), and over 200
    # nets of other seeds the mean sat within 0.5 standard errors of it
    _, report = _fixed_point_at_sigma_star(act)
    rhos = _deep_rhos(act, theta0, 1000)
    se = rhos.std(ddof=1) / np.sqrt(rhos.size)
    assert abs(rhos.mean() - report.rho_star) <= 3.0 * se


def test_deep_spread_shrinks_as_one_over_sqrt_width():
    # At depth 120 the spread of rho over ELU nets is O(n^-1/2): 4x the
    # width halves its standard deviation (measured 0.169 and 0.086 at
    # widths 250 and 1000 over other seeds, 0.129 and 0.071 here). Over m
    # nets a sample variance is sigma^2 chi^2_{m-1} / (m - 1), so the ratio
    # of the two is 4 F(m - 1, m - 1); the bound is its central quantiles at
    # the two-sided probability of 4 normal standard deviations
    wide, narrow = _deep_rhos(ELU, 0.8, 1000), _deep_rhos(ELU, 0.8, 250)
    m = wide.size
    lo, hi = 4.0 * stats.f.ppf([3.2e-5, 1.0 - 3.2e-5], m - 1, m - 1)
    assert lo <= narrow.var(ddof=1) / wide.var(ddof=1) <= hi
