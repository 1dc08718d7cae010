import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnkernels import kernels as kernels_mod
from nnkernels.activations import ELU, ERF, GELU, RELU, lrelu, selu
from nnkernels.kernels import (_ELU_CHUNK, _TAIL_CHUNK, ELU_S_MAX, KernelArgs, _elu_moments,
                               diag_mean, kernel, kernel_dot, kernel_dot_quadrature,
                               kernel_dot_values, kernel_from_inputs,
                               kernel_mc, kernel_quadrature, kernel_values,
                               pair_dd_mean, pair_dot_mean, pair_mean,
                               pair_moments)

CLOSED_FORM_ACTS = [RELU, lrelu(0.2), ERF, GELU, ELU, selu(1.0507, 1.6733)]
CLOSED_DOT_ACTS = [RELU, lrelu(0.2), ERF, GELU, ELU, selu(1.0507, 1.6733)]

GRID_S = (0.25, 0.5, 1.0, 2.0, 5.0)
GRID_THETA = (0.05, 0.5, 1.0, np.pi / 2, 2.5, np.pi - 0.05)
GRID_SW2 = (0.5, 1.0, 2.0)
GRID_SB2 = (0.0, 0.5)


def standard_grid():
    s1, s2, th, sw2, sb2 = np.meshgrid(GRID_S, GRID_S, GRID_THETA, GRID_SW2, GRID_SB2)
    return (s1.ravel(), s2.ravel(), np.cos(th.ravel()), sw2.ravel(), sb2.ravel())


def dd_oracle(act, s1, s2, rho, nodes=200):
    """E[psi''(s1 Z1) psi(s2 Z2)]: the regular part of psi'' by 2-D
    quadrature plus, for a kink of slope jump j at 0,
    j E[psi(s2 tau Z)] / (sqrt(2 pi) s1); with ``regular`` for the
    rho = +-1 limits."""
    from nnkernels.quadrature import mean_1d, pair_mean_quad
    from nnkernels import activations as am
    lam, alpha = ((act.selu_lambda, act.selu_alpha) if act.kind == "selu"
                  else (1.0, 1.0))
    regular = {
        "gelu": lambda z: np.exp(-0.5 * z * z) * (2.0 - z * z) / np.sqrt(2 * np.pi),
        "erf": lambda z: -(4.0 / np.sqrt(np.pi)) * z * np.exp(-z * z),
        "elu": lambda z: np.where(z < 0, np.exp(np.minimum(z, 0.0)), 0.0),
        "selu": lambda z: np.where(z < 0, lam * alpha * np.exp(np.minimum(z, 0.0)), 0.0),
    }.get(act.kind, lambda z: np.zeros_like(z))
    jump = {"relu": 1.0, "lrelu": 1.0 - act.lrelu_slope,
            "selu": lam * (1.0 - alpha)}.get(act.kind, 0.0)
    f = lambda z: am.eval(act, z)
    tau = np.sqrt((1.0 - rho) * (1.0 + rho))  # 1 - rho * rho loses digits near |rho| = 1
    oracle = pair_mean_quad(regular, f, s1, s2, rho, nodes=nodes)
    oracle += jump * np.array([mean_1d(lambda z: f(b * t * z), nodes=nodes)
                               for b, t in zip(s2, tau)]) / (np.sqrt(2 * np.pi) * s1)
    return oracle, regular


def _elu_interior_five_calls(l2, alpha, s1, s2, rho, c1):
    """``kernels._elu_interior`` with its five bvn terms as five rows of one
    ``bvn_cdf_exp`` call, each at its own arguments: the reference it
    matches bit for bit in the Genz band |cos theta| < 0.925."""
    from nnkernels.special import SQRT_2PI, TWO_PI, bvn_cdf_exp, expscaled_cdf
    a2 = alpha * alpha
    theta = np.arccos(np.clip(rho, -1.0, 1.0))
    sn, cs = np.sin(theta), np.cos(theta)
    q1, q2 = s1 * s1 / 2.0, s2 * s2 / 2.0
    b2, b1, e12, e10, e01 = bvn_cdf_exp(
        np.stack([s2 * cs, s1 * cs, -(s1 + s2 * cs), -s1, -(s2 * cs)]),
        np.stack([-s2, -s1, -(s1 * cs + s2), -(s1 * cs), -s2]),
        np.stack([-cs, -cs, cs, cs, cs]),
        np.stack([q2, q1, (s1 * s1 + 2.0 * s1 * s2 * cs + s2 * s2) / 2.0, q1, q2]))
    quadrant = (np.pi - theta) / TWO_PI
    x1, x2 = expscaled_cdf(np.stack([s1 * sn, s2 * sn]))
    cross = (s1 * ((x2 - 0.5) / SQRT_2PI + s2 * cs * b2)
             + s2 * ((x1 - 0.5) / SQRT_2PI + s1 * cs * b1))
    mean = l2 * (s1 * s2 * (sn + (np.pi - theta) * cs) / TWO_PI + alpha * cross
                 + a2 * (e12 - e10 - e01 + quadrant))
    dot = l2 * (quadrant + alpha * (b2 + b1) + a2 * e12)
    lin = s2 * ((x1 - cs / 2.0) / SQRT_2PI + s1 * cs * (c1 - e10))
    jump = (s2 * sn / SQRT_2PI + alpha * (x2 - 0.5)) / (SQRT_2PI * s1)
    dd = l2 * (alpha * (lin + alpha * (e12 - e10)) + (1.0 - alpha) * jump)
    return mean, dot, dd


def _elu_moments_both(monkeypatch, act, s1, s2, rho):
    """``_elu_moments`` as it is and on the five-call reference."""
    new = np.array(_elu_moments(act, s1, s2, rho))
    with monkeypatch.context() as m:
        m.setattr(kernels_mod, "_elu_interior", _elu_interior_five_calls)
        ref = np.array(_elu_moments(act, s1, s2, rho))
    return new, ref


def _tail_band(rho):
    cs = np.abs(np.cos(np.arccos(np.clip(rho, -1.0, 1.0))))
    return (cs >= 0.925) & (np.abs(rho) < 1.0 - 1e-12)


def _elu_oracles(act, s1, s2, rho, nodes=400):
    """E[psi psi], E[psi' psi'] and E[psi'' psi] by quadrature."""
    from nnkernels.quadrature import pair_mean_quad
    from nnkernels import activations as am
    f, d = (lambda z: am.eval(act, z)), (lambda z: am.deriv(act, z))
    return np.array([pair_mean_quad(f, f, s1, s2, rho, nodes=nodes),
                     pair_mean_quad(d, d, s1, s2, rho, nodes=nodes),
                     dd_oracle(act, s1, s2, rho, nodes=nodes)[0]])


def _assert_batch_is_one_by_one(act, s1, s2, rho):
    batch = _elu_moments(act, s1, s2, rho)
    one_by_one = np.array([_elu_moments(act, *args) for args in zip(s1, s2, rho)]).T
    assert np.array_equal(np.array(batch), one_by_one)
    # (entries, 2) transposed inputs make Fortran-ordered outputs, whose
    # interior entries must be written as those of C-ordered ones are
    twin = _elu_moments(act, *(np.stack([a, a]).T for a in (s1, s2, rho)))
    assert np.array_equal(np.array(twin), np.stack([one_by_one] * 2, axis=-1))


class TestExamples:
    def test_relu_norm_preservation_from_inputs(self):
        # k(x, x) = sigma_w^2 E[psi^2(s Z)] with s^2 = sigma_w^2 ||x||^2;
        # at the He variance the *preserved hidden norm* (k - sigma_b^2)/sigma_w^2
        # equals ||x||^2 = 1 while the kernel itself is 2
        k = kernel_from_inputs(RELU, [1.0, 0.0], [1.0, 0.0], 2.0, 0.0)
        assert k == pytest.approx(2.0, rel=1e-12)
        assert (k - 0.0) / 2.0 == pytest.approx(1.0, rel=1e-12)

    def test_relu_orthogonal_inputs(self):
        got = kernel_from_inputs(RELU, [1.0, 0.0], [0.0, 1.0], 1.0, 0.0)
        assert got == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-12)

    def test_gelu_diagonal_from_inputs(self):
        # quadrature-verified constant; also the norm-preservation identity
        got = kernel_from_inputs(GELU, [0.6, 0.8], [0.6, 0.8], 1.0, 0.0)
        assert got == pytest.approx(0.4252214825702987, rel=1e-10)
        oracle = kernel_quadrature(GELU, KernelArgs(1.0, 1.0, 1.0), nodes=120)
        assert got == pytest.approx(oracle, rel=1e-10)

    def test_zero_norm_input_rejected(self):
        with pytest.raises(ValueError):
            kernel_from_inputs(GELU, [0.0, 0.0], [1.0, 0.0], 1.0, 0.0)

    def test_elu_independent_factorization(self):
        # (e^{1/2} Phi(-1) + 1/sqrt(2 pi) - 1/2)^2, Monte-Carlo confirmed
        from scipy.special import ndtr
        expected = (np.exp(0.5) * ndtr(-1.0) + 1 / np.sqrt(2 * np.pi) - 0.5) ** 2
        assert kernel(ELU, KernelArgs(1, 1, 0.0)) == pytest.approx(expected, rel=1e-12)
        assert kernel(ELU, KernelArgs(1, 1, 0.0)) == pytest.approx(0.0257668541, abs=1e-9)

    def test_zero_weight_variance_degenerates(self):
        for act in CLOSED_FORM_ACTS:
            assert kernel(act, KernelArgs(1.0, 2.0, 0.3, 0.0, 0.7)) == 0.7

    def test_relu_dot_orthogonal(self):
        assert kernel_dot(RELU, KernelArgs(1, 1, 0.0)) == pytest.approx(0.25, rel=1e-12)

    def test_identity_slope_dot_is_variance(self):
        # slope approaching 1 makes psi' == 1 (exact a = 1 is outside the domain)
        got = kernel_dot(lrelu(1.0 - 1e-12), KernelArgs(2.0, 0.5, -0.4, 1.7))
        assert got == pytest.approx(1.7, rel=1e-9)

    def test_elu_dot_frozen_golden(self):
        # frozen from a 1e7-sample Monte-Carlo over psi' products (z = 1.13)
        assert kernel_dot(ELU, KernelArgs(1, 1, 0.0)) == pytest.approx(
            0.5800014946401989, rel=1e-12)


def test_gelu_pair_mean_is_the_formula_written_out():
    # pair_mean shares r*r, the d term, sqrt(d) and s1*s2*r; the bits must
    # stay those of each expression evaluated in full
    rng = np.random.default_rng(17)
    s1, s2 = rng.uniform(0.0, 8.0, (2, 20000))
    rho = rng.uniform(-1.0, 1.0, 20000)
    rho[:50], rho[50:100] = 1.0, -1.0
    r = np.clip(rho, -1.0, 1.0)
    s1s, s2s = s1 * s1, s2 * s2
    d = 1.0 + s1s + s2s + s1s * s2s * (1.0 - r * r)
    num = 1.0 + r * r + s1s + s2s + s1s * s2s * (1.0 - r * r)
    ref = (s1 * s2 * r / 4.0
           + (s1s * s2s / (2 * np.pi)) * num / ((1.0 + s1s) * (1.0 + s2s) * np.sqrt(d))
           + (s1 * s2 * r / (2 * np.pi)) * np.arctan(r * s1 * s2 / np.sqrt(d)))
    assert pair_mean(GELU, s1, s2, rho).tobytes() == ref.tobytes()
    assert [pair_mean(GELU, *v) for v in zip(s1[:200], s2[:200], rho[:200])] == list(ref[:200])


class TestOracles:
    def test_quadrature_matches_relu_closed_form(self):
        args = KernelArgs(1, 1, 0.3, 1.0, 0.0)
        assert kernel_quadrature(RELU, args, nodes=120) == pytest.approx(
            kernel(RELU, args), abs=1e-8)

    def test_quadrature_zero_weight(self):
        assert kernel_quadrature(GELU, KernelArgs(1, 1, 0.5, 0.0, 0.9)) == pytest.approx(0.9)

    def test_quadrature_node_convergence_smooth(self):
        for act in (GELU, ERF):
            for rho in (-0.9, 0.2, 0.95):
                a = KernelArgs(1.3, 0.7, rho, 1.0, 0.1)
                assert abs(kernel_quadrature(act, a, 80)
                           - kernel_quadrature(act, a, 120)) < 1e-9

    def test_quadrature_rejects_few_nodes(self):
        with pytest.raises(ValueError):
            kernel_quadrature(GELU, KernelArgs(1, 1, 0.0), nodes=10)

    def test_mc_determinism(self):
        a = KernelArgs(1, 1, 0.3, 1.0, 0.0)
        assert kernel_mc(GELU, a, 10_000, seed=5) == kernel_mc(GELU, a, 10_000, seed=5)

    def test_mc_relu_hits_closed_form(self):
        mean, se = kernel_mc(RELU, KernelArgs(1, 1, 0.0), 10 ** 6, seed=11)
        assert abs(mean - 1 / (2 * np.pi)) <= 3 * se

    def test_mc_gelu_diagonal(self):
        mean, se = kernel_mc(GELU, KernelArgs(1, 1, 1.0), 10 ** 6, seed=3)
        assert abs(mean - 0.4252214825702987) <= 3 * se

    def test_mc_sample_floor(self):
        with pytest.raises(ValueError):
            kernel_mc(GELU, KernelArgs(1, 1, 0.0), 100, seed=0)


class TestOracleEquivalence:
    @pytest.mark.parametrize("act", CLOSED_FORM_ACTS, ids=lambda a: a.kind)
    def test_kernel_grid(self, act):
        s1, s2, rho, sw2, sb2 = standard_grid()
        closed = kernel_values(act, s1, s2, rho, 1.0, 0.0) * sw2 + sb2
        from nnkernels.quadrature import pair_mean_quad
        from nnkernels import activations as am
        f = lambda z: am.eval(act, z)
        oracle = pair_mean_quad(f, f, s1, s2, rho, nodes=120) * sw2 + sb2
        rel = np.abs(closed - oracle) / np.maximum(1.0, np.abs(closed))
        assert rel.max() <= 1e-6, f"worst rel err {rel.max():.2e}"

    @pytest.mark.parametrize("act", CLOSED_DOT_ACTS, ids=lambda a: a.kind)
    def test_kernel_dot_grid(self, act):
        s1, s2, rho, sw2, _ = standard_grid()
        closed = kernel_dot_values(act, s1, s2, rho, 1.0) * sw2
        from nnkernels.quadrature import pair_mean_quad
        from nnkernels import activations as am
        f = lambda z: am.deriv(act, z)
        oracle = pair_mean_quad(f, f, s1, s2, rho, nodes=120) * sw2
        rel = np.abs(closed - oracle) / np.maximum(1.0, np.abs(closed))
        assert rel.max() <= 1e-6, f"worst rel err {rel.max():.2e}"

    @pytest.mark.parametrize("act", [GELU, ERF], ids=lambda a: a.kind)
    def test_smooth_kernel_dot_to_guard_scale(self, act):
        # out to s = 25 with both correlation endpoints; 200 nodes, since at
        # 120 the oracle itself is 5e-7 off for ERF at s1 = s2 = 25, rho = -0.5
        grid_s = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0)
        grid_rho = (-1.0, -0.99, -0.5, 0.0, 0.3, 0.9, 0.999, 1.0)
        s1, s2, rho = (v.ravel() for v in np.meshgrid(grid_s, grid_s, grid_rho))
        closed = kernel_dot_values(act, s1, s2, rho, 1.0)
        from nnkernels.quadrature import pair_mean_quad
        from nnkernels import activations as am
        f = lambda z: am.deriv(act, z)
        oracle = pair_mean_quad(f, f, s1, s2, rho, nodes=200)
        rel = np.abs(closed - oracle) / np.abs(oracle)
        assert rel.max() <= 1e-10, f"worst rel err {rel.max():.2e}"

    @pytest.mark.parametrize("act", CLOSED_FORM_ACTS, ids=lambda a: a.kind)
    def test_pair_dd_mean_grid(self, act):
        from nnkernels.quadrature import mean_1d
        from nnkernels import activations as am
        f = lambda z: am.eval(act, z)
        s1, s2, rho = (v.ravel() for v in np.meshgrid(
            GRID_S, GRID_S, (-0.95, -0.5, 0.0, 0.3, 0.95)))
        oracle, regular = dd_oracle(act, s1, s2, rho)
        closed = pair_dd_mean(act, s1, s2, rho)
        err = np.abs(closed - oracle) / np.maximum(1.0, np.abs(oracle))
        assert err.max() <= 1e-12, f"worst err {err.max():.2e}"
        # the rho = +-1 limits: Z2 = +-Z1, and psi(0) = 0 removes the jump
        for sign in (1.0, -1.0):
            for a, b in ((0.25, 1.0), (1.0, 1.0), (5.0, 2.0), (2.0, 5.0)):
                end = mean_1d(lambda z: regular(a * z) * f(sign * b * z), nodes=200)
                assert abs(pair_dd_mean(act, a, b, sign) - end) <= 1e-12 * max(1.0, abs(end))

    @pytest.mark.parametrize("act", [ELU, selu(1.0507009873554805, 1.6732632423543772)],
                             ids=lambda a: a.kind)
    def test_elu_tail_band_against_quadrature(self, act):
        # the 1-D rule of the tail band over the whole guarded range, down
        # to 1 - |rho| = 1.3e-12 with both signs; the five bvn tail-rule rows
        # it replaced were off by up to 0.24 here, and by 2% at the last
        # entry. Measured: 4e-13 at most, at s1 = 0.05, where the oracle
        # itself moves by 3e-13 between 200 and 800 nodes
        s1, s2, rho = (v.ravel() for v in np.meshgrid(
            (0.05, 1.0, 8.0, 25.0), (0.05, 1.0, 8.0, 25.0),
            [sign * (1.0 - gap) for sign in (1.0, -1.0) for gap in (1.3e-12, 3e-8, 1e-4, 0.07)]))
        s1, s2, rho = (np.append(a, b) for a, b in ((s1, 21.60), (s2, 21.09),
                                                    (rho, -(1.0 - 2.9e-12))))
        assert _tail_band(rho).all()
        oracles = _elu_oracles(act, s1, s2, rho)
        err = np.abs(np.array(_elu_moments(act, s1, s2, rho)) - oracles)
        assert (err <= 1e-12 * np.maximum(1.0, np.abs(oracles))).all(), err.max(axis=1)

    @pytest.mark.parametrize("act", [ELU, selu(1.0507, 1.6733)], ids=lambda a: a.kind)
    def test_elu_band_edge(self, act):
        # a few ulps on each side of |cos theta| = 0.925, the Genz and the
        # tail rule agree with the oracle alike
        edge = np.array([0.925, -0.925])
        ulps = [edge]
        for _ in range(3):
            ulps = [np.nextafter(ulps[0], 0.0)] + ulps + [np.nextafter(ulps[-1], 2 * edge)]
        s1, s2, rho = (v.ravel() for v in np.meshgrid((0.3, 2.0, 5.0), (0.7, 4.0), np.ravel(ulps)))
        assert 0 < _tail_band(rho).sum() < rho.size
        oracles = _elu_oracles(act, s1, s2, np.where(rho > 0, 0.925, -0.925))
        err = np.abs(np.array(_elu_moments(act, s1, s2, rho)) - oracles)
        assert (err <= 1e-12 * np.maximum(1.0, np.abs(oracles))).all(), err.max(axis=1)

    @pytest.mark.parametrize("act", [ELU, selu(1.0507, 1.6733)], ids=lambda a: a.kind)
    def test_pair_dd_mean_endpoints_quiet_to_guard(self, act):
        # at rho = +-1 the endpoint limits are used, so no bvn call sees
        # |r| = 1 with an exponent that overflows
        with np.errstate(over="raise", invalid="raise"):
            for s in (12.0, 18.0, 25.0):
                for sign in (1.0, -1.0):
                    assert np.isfinite(pair_dd_mean(act, s, s, sign))


class TestInvariants:
    @settings(max_examples=50, deadline=None)
    @given(s1=st.floats(0.1, 5.0), s2=st.floats(0.1, 5.0), rho=st.floats(-1.0, 1.0),
           idx=st.integers(0, len(CLOSED_FORM_ACTS) - 1))
    def test_symmetry(self, s1, s2, rho, idx):
        act = CLOSED_FORM_ACTS[idx]
        a = float(kernel_values(act, s1, s2, rho, 1.3, 0.2))
        b = float(kernel_values(act, s2, s1, rho, 1.3, 0.2))
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(s1=st.floats(0.1, 5.0), s2=st.floats(0.1, 5.0), rho=st.floats(-1.0, 1.0),
           idx=st.integers(0, len(CLOSED_FORM_ACTS) - 1))
    def test_cauchy_schwarz(self, s1, s2, rho, idx):
        act = CLOSED_FORM_ACTS[idx]
        sb2 = 0.2
        k12 = float(kernel_values(act, s1, s2, rho, 1.3, sb2)) - sb2
        k11 = float(kernel_values(act, s1, s1, 1.0, 1.3, sb2)) - sb2
        k22 = float(kernel_values(act, s2, s2, 1.0, 1.3, sb2)) - sb2
        assert k12 <= np.sqrt(k11 * k22) + 1e-10

    @pytest.mark.parametrize("act", CLOSED_FORM_ACTS, ids=lambda a: a.kind)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_endpoint_continuity(self, act, sign):
        end = float(kernel_values(act, 1.3, 0.6, sign, 1.0, 0.0))
        approach = [float(kernel_values(act, 1.3, 0.6, sign * (1 - 10.0 ** -k), 1.0, 0.0))
                    for k in range(4, 9)]
        # values at rho = +/-(1 - 1e-k) converge to the endpoint value
        gaps = np.abs(np.array(approach) - end)
        assert gaps[-1] <= 1e-7 and (np.diff(gaps) <= 1e-9).all()

    def test_selu_unit_scale_bit_for_bit(self):
        s1, s2, rho, _, _ = standard_grid()
        a = kernel_values(selu(1.0, 1.0), s1, s2, rho, 1.0, 0.0)
        b = kernel_values(ELU, s1, s2, rho, 1.0, 0.0)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("act", CLOSED_FORM_ACTS, ids=lambda a: a.kind)
    def test_pair_moments_bit_for_bit(self, act):
        rho = np.array([-1.0, -1.0 + 1e-13, -0.97, -0.3, 0.0, 0.6, 0.95, 1.0 - 1e-13, 1.0])
        batches = [np.meshgrid((0.3, 1.0, 4.0), (0.5, 2.0), rho),  # mixed
                   (np.full(4, 1.2), np.full(4, 0.8), np.array([1.0, -1.0, 1.0, 1.0])),
                   (1.3, 0.7, 1.0), (1.3, 0.7, -1.0), (1.3, 0.7, 0.3)]
        for s1, s2, r in batches:
            mean, dot_mean = pair_moments(act, s1, s2, r)
            assert np.array_equal(mean, pair_mean(act, s1, s2, r))
            assert np.array_equal(dot_mean, pair_dot_mean(act, s1, s2, r))
            assert type(mean) is type(pair_mean(act, s1, s2, r))

    @pytest.mark.parametrize("act", [ELU, selu(1.0507, 1.6733)], ids=lambda a: a.kind)
    @pytest.mark.parametrize("n", [1, _ELU_CHUNK - 1, _ELU_CHUNK, _ELU_CHUNK + 1,
                                   3 * _ELU_CHUNK + 7])
    def test_elu_chunks_equal_one_by_one(self, act, n):
        # n Genz-band entries, so the bvn chunks split exactly at n; the
        # rho = +-1 and +-(1 - 1e-13) limits sit among them and take no chunk slot
        rng = np.random.default_rng(n)
        rho = np.insert(rng.uniform(-0.92, 0.92, n), [0, n // 3, n // 2, n],
                        [1.0, -1.0, 1.0 - 1e-13, -1.0 + 1e-13])
        s1, s2 = rng.uniform(0.05, 12.0, (2, rho.size))
        _assert_batch_is_one_by_one(act, s1, s2, rho)

    @pytest.mark.parametrize("act", [ELU, selu(1.0507, 1.6733)], ids=lambda a: a.kind)
    @pytest.mark.parametrize("n", [_TAIL_CHUNK - 1, _TAIL_CHUNK, _TAIL_CHUNK + 1,
                                   3 * _TAIL_CHUNK + 7])
    def test_elu_tail_chunks_equal_one_by_one(self, act, n):
        # n tail-band entries, so the tail-rule chunks split exactly at n;
        # Genz-band entries and limits sit among them
        rng = np.random.default_rng(n)
        rho = rng.choice([-1.0, 1.0], n) * (1.0 - 10.0 ** -rng.uniform(1.15, 12.0, n))
        rho = np.insert(rho, [0, n // 3, n // 2, n], [0.3, -1.0, -0.6, 1.0 - 1e-13])
        assert _tail_band(rho).sum() == n
        s1, s2 = rng.uniform(0.05, 25.0, (2, rho.size))
        _assert_batch_is_one_by_one(act, s1, s2, rho)

    @pytest.mark.parametrize("act", [ELU, selu(1.0507, 1.6733)], ids=lambda a: a.kind)
    def test_elu_moments_equal_five_calls_outside_tail_band(self, monkeypatch, act):
        # three Genz integrals give the five bvn terms bit for bit; the tail
        # band takes the 1-D rule in both
        rng = np.random.default_rng(11)
        n = 20_000
        s1, s2 = rng.uniform(0.05, 12.0, (2, n))
        rho = rng.uniform(-1.0, 1.0, n)
        rho[:200] = rng.choice([-1.0, 1.0], 200) * (1.0 - 10.0 ** -rng.uniform(1, 13, 200))
        new, ref = _elu_moments_both(monkeypatch, act, s1, s2, rho)
        tail = _tail_band(rho)
        assert 0 < tail.sum() < n
        assert np.array_equal(new[:, ~tail], ref[:, ~tail])

    def test_diag_mean_consistency(self):
        for act in CLOSED_FORM_ACTS:
            for s in GRID_S:
                assert float(diag_mean(act, s)) == pytest.approx(
                    float(pair_mean(act, s, s, 1.0)), rel=1e-11)

    @pytest.mark.parametrize("act", CLOSED_FORM_ACTS, ids=lambda a: a.kind)
    def test_diag_mean_matches_1d_oracle(self, act):
        # the whole guarded range: the rho = 1 limit needs no bvn, so ELU/SELU
        # hold here up to s = 25 (measured <= 1e-14 relative)
        from nnkernels import activations as am
        from nnkernels.quadrature import mean_1d
        for s in np.geomspace(0.1, ELU_S_MAX, 13):
            oracle = mean_1d(lambda z: am.eval(act, s * z) ** 2, nodes=200)
            assert float(diag_mean(act, s)) == pytest.approx(oracle, rel=1e-13)


class TestGuards:
    @pytest.mark.parametrize("fn", [pair_mean, pair_dot_mean, pair_dd_mean])
    def test_elu_nan_correlation_refused(self, fn):
        with pytest.raises(ValueError):
            fn(ELU, np.array([1.0, 1.0]), 1.0, np.array([1.0, np.nan]))

    def test_elu_overflow_guard(self):
        with pytest.raises(OverflowError):
            kernel(ELU, KernelArgs(26.0, 1.0, 0.5))
        with pytest.raises(OverflowError):
            kernel_dot(ELU, KernelArgs(1.0, 30.0, 0.5))

    def test_elu_genz_band_not_refused_to_guard(self):
        # the Genz rule refuses exponents above 700; on the ELU rows the
        # largest is 156 (E(s1, s2) at s1 = s2 = 25), so none is refused
        s = np.linspace(0.05, ELU_S_MAX, 12)
        s1, s2, rho = np.meshgrid(s, s, np.linspace(-0.92, 0.92, 9))
        assert all(np.isfinite(v).all() for v in _elu_moments(ELU, s1, s2, rho))

    def test_elu_at_guard_boundary_is_finite(self):
        for rho in (-0.99999, -0.5, 0.0, 0.9, 0.99999, 1.0):
            v = kernel(ELU, KernelArgs(ELU_S_MAX, ELU_S_MAX, rho))
            assert np.isfinite(v)

    def test_kernel_args_validation(self):
        with pytest.raises(ValueError):
            KernelArgs(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            KernelArgs(1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            KernelArgs(1.0, 1.0, np.nan)
        with pytest.raises(ValueError):
            KernelArgs(1.0, 1.0, 0.0, -1.0)

    def test_dot_quadrature_matches_closed_for_relu(self):
        args = KernelArgs(1.0, 2.0, 0.4, 1.5)
        assert kernel_dot_quadrature(RELU, args, nodes=120) == pytest.approx(
            kernel_dot(RELU, args), abs=1e-9)
