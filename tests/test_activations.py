import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnkernels import activations as am
from nnkernels.activations import (ACTIVATION_NAMES, ELU, ERF, GELU, RELU,
                                   Activation, from_name, lrelu, selu)


def all_activations():
    return [GELU, ELU, RELU, ERF, lrelu(0.2), selu(1.0507, 1.6733)]


class TestDescriptor:
    def test_serialized_names_round_trip(self):
        for name in ACTIVATION_NAMES:
            assert from_name(name).kind == name

    def test_selu_by_name_is_self_normalizing(self):
        # the scales of Klambauer et al. (2017), whose fixed point is unit norm
        act = from_name("selu")
        assert (act.selu_lambda, act.selu_alpha) == (1.0507009873554805, 1.6732632423543772)
        from nnkernels.fixed_point import sigma_star
        assert sigma_star(act, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Activation("swish")

    def test_parameter_scoping(self):
        with pytest.raises(ValueError):
            Activation("relu", lrelu_slope=0.5)
        with pytest.raises(ValueError):
            Activation("gelu", selu_alpha=2.0)
        with pytest.raises(ValueError):
            lrelu(1.0)  # slope must stay below 1
        with pytest.raises(ValueError):
            selu(-1.0, 1.0)


class TestEval:
    def test_gelu_at_zero(self):
        assert am.eval(GELU, 0.0) == 0.0

    def test_elu_saturation(self):
        assert am.eval(ELU, -30.0) == pytest.approx(-1.0, abs=1e-12)

    def test_lrelu_negative_branch(self):
        assert am.eval(lrelu(0.2), -1.0) == pytest.approx(-0.2)

    def test_relu_and_erf(self):
        assert am.eval(RELU, -2.0) == 0.0
        assert am.eval(RELU, 3.0) == 3.0
        assert am.eval(ERF, 0.5) == pytest.approx(0.5204998778, abs=1e-9)

    def test_selu_scaling(self):
        act = selu(1.0507, 1.6733)
        assert am.eval(act, 2.0) == pytest.approx(1.0507 * 2.0)
        assert am.eval(act, -30.0) == pytest.approx(-1.0507 * 1.6733, rel=1e-10)

    def test_selu_unit_scales_equals_elu(self):
        z = np.linspace(-6, 6, 401)
        assert np.array_equal(am.eval(selu(1.0, 1.0), z), am.eval(ELU, z))
        assert np.array_equal(am.deriv(selu(1.0, 1.0), z), am.deriv(ELU, z))


class TestDeriv:
    def test_gelu_at_zero(self):
        assert am.deriv(GELU, 0.0) == pytest.approx(0.5)

    def test_elu_one_sided_limits_agree_at_zero(self):
        assert am.deriv(ELU, 0.0) == 1.0
        assert am.deriv(ELU, -1e-12) == pytest.approx(1.0, abs=1e-11)

    def test_relu_heaviside(self):
        assert am.deriv(RELU, -3.0) == 0.0
        assert am.deriv(RELU, 3.0) == 1.0

    @pytest.mark.parametrize("act", all_activations(), ids=lambda a: a.kind)
    def test_matches_finite_differences(self, act):
        # 200 random points away from the kink, rel err <= 1e-6; the range
        # stays within |z| <= 3 where erf has not saturated (beyond that the
        # difference quotient of two values ~1 loses all significant digits)
        rng = np.random.Generator(np.random.Philox(key=1))
        z = rng.uniform(-3, 3, 400)
        z = z[np.abs(z) > 1e-3][:200]
        h = 1e-6
        fd = (am.eval(act, z + h) - am.eval(act, z - h)) / (2 * h)
        d = am.deriv(act, z)
        assert np.max(np.abs(fd - d) / np.maximum(1e-9, np.abs(d))) <= 1e-6


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.1, 20.0), z=st.floats(-10.0, 10.0), slope=st.floats(0.0, 0.95))
def test_lrelu_absolute_homogeneity(a, z, slope):
    act = lrelu(slope)
    assert am.eval(act, a * z) == pytest.approx(a * am.eval(act, z), rel=1e-12, abs=1e-12)
