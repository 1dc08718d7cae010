import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr

from nnkernels.special import _BLOCK_COLS, GENZ_RHO_MAX, _blocked, bvn_cdf_exp, expscaled_cdf


def bvn_reference(h, k, rho):
    """Adaptive 2-D integration oracle for the bivariate normal cdf."""
    if abs(rho) >= 1.0:
        raise ValueError("reference needs |rho| < 1")
    def density(z2, z1):
        q = (z1 * z1 - 2 * rho * z1 * z2 + z2 * z2) / (2 * (1 - rho ** 2))
        return np.exp(-q) / (2 * np.pi * np.sqrt(1 - rho ** 2))
    v, _ = integrate.dblquad(density, -9, min(k, 9), lambda _: -9, lambda _: min(h, 9),
                             epsabs=1e-13, epsrel=1e-12)
    return v


class TestUnivariate:
    def test_expscaled_cdf(self):
        # e^{t^2/2} Phi(-t) against the direct product in the safe range
        for t in (-3.0, -1.0, 0.0, 0.5, 2.0, 10.0):
            direct = np.exp(t * t / 2) * ndtr(-t)
            assert expscaled_cdf(t) == pytest.approx(direct, rel=1e-13)
        # large argument: ~ 1/(t sqrt(2 pi)), finite
        assert np.isfinite(expscaled_cdf(50.0))
        assert expscaled_cdf(50.0) == pytest.approx(1 / (50 * np.sqrt(2 * np.pi)), rel=1e-3)

    def test_expscaled_cdf_negative_tail_or_refusal(self):
        # t = -37 (1.9e297) is in range; t = -38 (3.6e313) is past the
        # double range, so it is refused rather than clamped
        with mpmath.workdps(40):
            t = mpmath.mpf(-37)
            ref = float(mpmath.exp(t * t / 2) * mpmath.ncdf(-t))
        assert expscaled_cdf(-37.0) == pytest.approx(ref, rel=1e-13)
        out = expscaled_cdf(np.array([-37.0, 0.0, 40.0]))
        assert out[0] == expscaled_cdf(-37.0) and np.isfinite(out).all()
        with pytest.raises(OverflowError, match="sqrt\\(1400\\)"):
            expscaled_cdf(-38.0)
        with pytest.raises(OverflowError):
            expscaled_cdf(np.array([1.0, -38.0]))


class TestBvnCdf:
    def test_independent_quadrant(self):
        assert bvn_cdf_exp(0.0, 0.0, 0.0) == pytest.approx(0.25, abs=1e-14)

    def test_marginalization(self):
        for k in (-1.0, 0.3, 2.0):
            for rho in (-0.8, 0.0, 0.6):
                assert bvn_cdf_exp(8.0, k, rho) == pytest.approx(ndtr(k), abs=1e-12)

    def test_third_at_half_correlation(self):
        got = bvn_cdf_exp(0.0, 0.0, 0.5)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert got == pytest.approx(0.25 + np.arcsin(0.5) / (2 * np.pi), abs=1e-13)

    @pytest.mark.parametrize("h,k,rho", [
        (1.0, -0.5, 0.3), (-1.0, 2.0, -0.8), (0.5, 0.5, 0.95),
        (-0.3, 0.4, 0.999), (2.0, 1.0, -0.97), (1.5, -2.5, 0.99),
        (-3.0, -3.0, 0.9), (0.2, -0.7, 0.93), (-1.0, -1.0, -0.5),
    ])
    def test_against_adaptive_oracle(self, h, k, rho):
        if abs(rho) >= GENZ_RHO_MAX:  # the refused band
            with pytest.raises(ValueError, match="0.925 <= \\|rho\\| < 1"):
                bvn_cdf_exp(h, k, rho)
        else:
            assert bvn_cdf_exp(h, k, rho) == pytest.approx(bvn_reference(h, k, rho), abs=1e-10)

    def test_infinite_arguments_clamped(self):
        # exact limits: a -inf argument gives 0 (clamped at 8.5, the first
        # two returned 3.6e243 and 6.3e106), a +inf one drops its variable
        inf = np.inf
        assert bvn_cdf_exp(-inf, 0.0, 0.3, 600.0) == 0.0
        assert bvn_cdf_exp(0.0, -inf, -0.5, 300.0) == 0.0
        assert bvn_cdf_exp(-inf, 0.7, 0.2) == 0.0 and bvn_cdf_exp(-inf, inf, 1.0, 5.0) == 0.0
        with mpmath.workdps(30):
            for h, k, r, q in [(inf, 0.0, 0.3, 600.0), (inf, -30.0, 0.3, 600.0),
                               (-1.3, inf, -0.5, 50.0), (inf, 0.7, 0.2, 0.0),
                               (inf, inf, -1.0, 12.0)]:
                want = float(mpmath.exp(q) * mpmath.ncdf(min(h, k)))
                # exp(q + log Phi) rounds its exponent once, as the Genz
                # rule's product term does: measured 7.0e-14 at q = 600
                assert bvn_cdf_exp(h, k, r, q) == pytest.approx(want, rel=1e-13), (h, k, r, q)
        # the limit is the value at a large finite argument, and a mixed
        # call leaves its finite entries as they are alone
        assert bvn_cdf_exp(inf, -30.0, 0.3, 600.0) == bvn_cdf_exp(40.0, -30.0, 0.3, 600.0)
        h = np.array([0.4, inf, -inf, -1.0])
        got = bvn_cdf_exp(h, -0.2, np.array([0.3, 0.3, 0.3, -1.0]), 2.0)
        assert got[0] == bvn_cdf_exp(0.4, -0.2, 0.3, 2.0) and got[2] == 0.0
        assert got[3] == bvn_cdf_exp(-1.0, -0.2, -1.0, 2.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            bvn_cdf_exp(np.nan, 0.0, 0.0)
        with pytest.raises(ValueError):
            bvn_cdf_exp(0.0, np.nan, 0.0)
        with pytest.raises(ValueError):
            bvn_cdf_exp(0.0, 0.0, np.nan)

    def test_correlation_range_rejected(self):
        with pytest.raises(ValueError):
            bvn_cdf_exp(0.0, 0.0, 1.5)

    def test_tail_band_refused(self):
        # 0.925 <= |rho| < 1 has no rule; its edges and |rho| = 1 do
        for rho in (0.95, -0.95, GENZ_RHO_MAX, -GENZ_RHO_MAX, np.nextafter(1.0, 0.0)):
            with pytest.raises(ValueError, match="0.925 <= \\|rho\\| < 1"):
                bvn_cdf_exp(0.0, 0.0, rho)
        with pytest.raises(ValueError, match="refused"):
            bvn_cdf_exp([0.0, 0.0], [0.0, 0.0], [0.3, 0.95], 1.0)
        for rho in (np.nextafter(GENZ_RHO_MAX, 0.0), -np.nextafter(GENZ_RHO_MAX, 0.0), 1.0, -1.0):
            assert np.isfinite(bvn_cdf_exp(0.0, 0.0, rho))

    @settings(max_examples=80, deadline=None)
    @given(h=st.floats(-4, 4), k=st.floats(-4, 4), rho=st.floats(-0.92, 0.92))
    def test_symmetry(self, h, k, rho):
        assert bvn_cdf_exp(h, k, rho) == pytest.approx(bvn_cdf_exp(k, h, rho), abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(h=st.floats(-3, 3), k=st.floats(-3, 3))
    def test_zero_correlation_factorizes(self, h, k):
        assert bvn_cdf_exp(h, k, 0.0) == pytest.approx(
            ndtr(h) * ndtr(k), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(h=st.floats(-3, 3), k=st.floats(-3, 3), rho=st.floats(-0.92, 0.92),
           dh=st.floats(0.001, 1.0))
    def test_monotone_in_each_argument(self, h, k, rho, dh):
        base = bvn_cdf_exp(h, k, rho)
        assert bvn_cdf_exp(h + dh, k, rho) >= base - 1e-15
        assert bvn_cdf_exp(h, k + dh, rho) >= base - 1e-15

    def test_exp_folding_matches_direct_product(self):
        for (h, k, rho, q) in [(-1, 2, -0.8, 3.0), (0.5, 0.5, 0.92, 10.0),
                               (-3, -3, 0.9, 5.5), (1.5, -2.5, -0.92, 2.0)]:
            direct = np.exp(q) * bvn_cdf_exp(h, k, rho)
            assert bvn_cdf_exp(h, k, rho, q) == pytest.approx(direct, rel=1e-13)

    def test_exp_folding_survives_overflow_scale(self):
        # exp(q) alone overflows, Phi2 alone underflows; the product is finite
        v = bvn_cdf_exp(-40.0, -40.0, 0.5, 800.0)
        assert np.isfinite(v) and v >= 0.0

    def test_overflowing_exponent_refused(self):
        # the correlation integral's exponent reaches q = 800 at h = k = 0;
        # it used to be clamped to 700 and the product term returned inf
        with pytest.raises(OverflowError):
            bvn_cdf_exp(0.0, 0.0, 0.3, 800.0)
        with pytest.raises(OverflowError):
            bvn_cdf_exp([-40.0, 0.0], [-40.0, 0.0], 0.3, [800.0, 800.0])
        with pytest.raises(OverflowError):
            bvn_cdf_exp(np.inf, 0.0, 0.3, 800.0)
        # at rho = +-1 the limits' exponents q + log Phi pass 700 at q = 800
        # and are refused as at a +inf argument; np.exp used to overflow
        # there with a RuntimeWarning
        for rho in (1.0, -1.0):
            with pytest.raises(OverflowError, match="> 700 would overflow"):
                bvn_cdf_exp(1.0, 2.0, rho, 800.0)
            with pytest.raises(OverflowError, match="> 700 would overflow"):
                bvn_cdf_exp([0.0, 1.0], [0.0, 2.0], [0.3, rho], [1.0, 800.0])
            assert np.isfinite(bvn_cdf_exp(1.0, 2.0, rho, 700.0))

    def test_upper_limit_is_the_infinite_argument_limit(self):
        # rho = +1 and a +inf argument take the one form exp(q) Phi(min(h, k))
        rng = np.random.default_rng(7)
        h, k = rng.uniform(-30, 30, (2, 500))
        q = rng.uniform(0, 600, 500)
        got = bvn_cdf_exp(h, k, 1.0, q)
        r = _branch_columns(rng, 500)  # at a +inf argument the correlation drops out
        assert np.array_equal(got, bvn_cdf_exp(np.minimum(h, k), np.inf, r, q))
        assert got[0] == bvn_cdf_exp(np.inf, min(h[0], k[0]), -1.0, q[0])


def _branch_columns(rng, m):
    """m correlations alternating between the Genz (|r| < 0.925) and exact
    (|r| = 1) branches, so each branch's mask scatters across the block
    edges."""
    return np.stack([rng.uniform(-0.92, 0.92, m),
                     rng.choice([-1.0, 1.0], m)], axis=1).reshape(-1)[:m]


class TestBlockedBatches:
    """The Genz rule runs over blocks of ``_BLOCK_COLS`` columns."""

    @pytest.mark.parametrize("n", [1, _BLOCK_COLS - 1, _BLOCK_COLS, _BLOCK_COLS + 1,
                                   3 * _BLOCK_COLS + 7])
    def test_batch_equals_one_by_one(self, n):
        # every branch: the Genz rule, rho = +-1, and a +-inf argument
        rng = np.random.default_rng(n)
        r = _branch_columns(rng, n)
        h, k = rng.uniform(-4, 4, (2, n))
        h[2::5] = rng.choice([-np.inf, np.inf], h[2::5].size)
        k[3::7] = rng.choice([-np.inf, np.inf], k[3::7].size)
        q = rng.uniform(0, 12, n)
        batch = bvn_cdf_exp(h, k, r, q)
        one_by_one = np.array([bvn_cdf_exp(*args) for args in zip(h, k, r, q)])
        assert np.array_equal(batch, one_by_one)


def _interior_terms(s1, s2, cs):
    """E(s1, s2), E(s1, 0), E(0, s2), B(s1), B(s2) of the ELU/SELU interior
    at correlation cs, from the three tilted Genz integrals
    (``kernels._tilted_genz``) over blocks of ``_BLOCK_COLS`` columns, with
    the arguments its docstring names; c(s) = ``expscaled_cdf``."""
    from nnkernels.kernels import _tilted_genz
    sn_sq = (1.0 - cs) * (1.0 + cs)
    coef = -0.5 * np.array([s1 * s1, s2 * s2, s1 * s1 + 2.0 * s1 * s2 * cs + s2 * s2])
    g10, g01, g12 = _blocked(_tilted_genz, _BLOCK_COLS, coef, -s1 * s2 * sn_sq, cs,
                             np.arcsin(cs))
    c1, c2 = expscaled_cdf(np.array([s1, s2]))
    e12 = g12 + np.exp(-coef[2]) * ndtr(-(s1 + s2 * cs)) * ndtr(-(s1 * cs + s2))
    return (e12, c1 * ndtr(-s1 * cs) + g10, c2 * ndtr(-s2 * cs) + g01,
            c1 * ndtr(s1 * cs) - g10, c2 * ndtr(s2 * cs) - g01)


class TestHalves:
    """The halves of the ELU/SELU interior: one tilted Genz integral per row
    (``kernels._tilted_genz``) gives both E(s, 0) = exp(s^2/2) P(X > s,
    Y > s cos theta) and its other half B(s) = exp(s^2/2) P(X > -s cos theta,
    Y > s) at correlation -cos theta, over blocks of ``_BLOCK_COLS``
    columns."""

    @pytest.mark.parametrize("m", [1, _BLOCK_COLS - 1, _BLOCK_COLS, _BLOCK_COLS + 1,
                                   3 * _BLOCK_COLS + 7])
    def test_halves_are_two_cdf_calls(self, m):
        # each of the five terms is a bvn_cdf_exp call (the untilted rule)
        # to 1e-13 of max(1, |ref|); the blocks equal one column at a time
        rng = np.random.default_rng(m)
        cs = rng.uniform(-0.92, 0.92, m)
        s1, s2 = rng.uniform(0.1, 4.0, (2, m))
        out = np.array(_interior_terms(s1, s2, cs))
        q1, q2 = s1 * s1 / 2.0, s2 * s2 / 2.0
        ref = bvn_cdf_exp(
            np.stack([-(s1 + s2 * cs), -s1, -(s2 * cs), s1 * cs, s2 * cs]),
            np.stack([-(s1 * cs + s2), -(s1 * cs), -s2, -s1, -s2]),
            np.stack([cs, cs, cs, -cs, -cs]),
            np.stack([(s1 * s1 + 2.0 * s1 * s2 * cs + s2 * s2) / 2.0, q1, q2, q1, q2]))
        assert (np.abs(out - ref) / np.maximum(1.0, np.abs(ref))).max() <= 1e-13
        cols = [np.array(_interior_terms(s1[j:j + 1], s2[j:j + 1], cs[j:j + 1]))
                for j in range(m)]
        assert np.array_equal(np.hstack(cols), out)

    def test_halves_add_up(self):
        # E(s, 0) + B(s) = exp(s^2/2) P(Y > s) = c(s); and the joint row and
        # its mirror at (s1, -s2, -cos theta) add up to exp(q) Phi(-h)
        rng = np.random.default_rng(5)
        cs = rng.uniform(-0.92, 0.92, 600)
        s1, s2 = rng.uniform(0.1, 8.0, (2, cs.size))
        e12, e10, e01, b1, b2 = _interior_terms(s1, s2, cs)
        for e, b, s in ((e10, b1, s1), (e01, b2, s2)):
            assert (np.abs(e + b - expscaled_cdf(s)) / expscaled_cdf(s)).max() <= 1e-15
        whole = np.exp((s1 * s1 + 2.0 * s1 * s2 * cs + s2 * s2) / 2.0) * ndtr(-(s1 + s2 * cs))
        mirror = _interior_terms(s1, -s2, -cs)[0]
        assert (np.abs(e12 + mirror - whole) / whole).max() <= 1e-13


def _mp_bvn_exp(h, k, rho, q):
    """``exp(q) P(Z1 <= h, Z2 <= k)`` as a 1-D mpmath integral of
    ``phi(z) Phi((k - rho z)/tau)`` over z < h, split at the kink z = k/rho."""
    h, k, rho, q = (mpmath.mpf(float(v)) for v in (h, k, rho, q))
    tau = mpmath.sqrt((1 - rho) * (1 + rho))
    f = lambda z: mpmath.npdf(z) * mpmath.ncdf((k - rho * z) / tau)
    kink = [k / rho] if rho != 0 and k / rho < h else []
    return float(mpmath.exp(q) * mpmath.quad(f, [-mpmath.inf, *kink, h]))


def test_minus_one_limit_in_the_upper_tails_against_mpmath():
    # at rho = -1, P(-k <= Z1 <= h) as Phi(h) - Phi(-k) cancelled where both
    # terms near 1: 4.6e-9 relative off at (5, -4.99) and 6.1e-3 at (8, -7.9)
    pts = [(5.0, -4.99, 0.0), (8.0, -7.9, 0.0), (8.0, -7.9, 30.0), (3.0, -1.0, 2.0),
           (0.5, -0.2, 0.0), (-0.2, 0.5, 0.0), (1.0, 2.0, 5.0), (6.0, 6.5, 0.0)]
    with mpmath.workdps(40):
        for h, k, q in pts:
            want = float(mpmath.exp(q) * (mpmath.ncdf(h) - mpmath.ncdf(-k)))
            assert bvn_cdf_exp(h, k, -1.0, q) == pytest.approx(want, rel=1e-14), (h, k, q)
    assert bvn_cdf_exp(5.0, -5.0, -1.0) == 0.0 and bvn_cdf_exp(2.0, -3.0, -1.0) == 0.0


def test_bvn_cdf_exp_against_mpmath():
    """Relative error against a 20-digit reference, on the Genz branch.

    r >= 0 on the whole grid |h|, |k| <= 5; r < 0 only with h >= 0 and
    k >= -0.5. For r < 0 and both arguments in the lower tails the Genz
    branch cancels (ROADMAP item 2): bvn_cdf_exp(-2.5, -2.5, -0.9) returns
    -1.2e-19, so that corner is left to item 2's test, as is the ELU/SELU
    range s <= 25. The prefactor q alternates between 0 and 12; it
    scales every term alike, so it does not change the relative error.
    Measured: at most 2.3e-15.
    """
    grid = (-5.0, -1.0, 0.5, 5.0)
    pts = [(h, k, r) for h in grid for k in grid for r in (0.0, 0.5, 0.92)]
    pts += [(h, k, r) for h in (0.0, 1.5, 5.0) for k in (-0.5, 1.5, 5.0)
            for r in (-0.9, -0.4)]
    with mpmath.workdps(20):
        for i, (h, k, r) in enumerate(pts):
            q = 12.0 * (i % 2)
            got, want = bvn_cdf_exp(h, k, r, q), _mp_bvn_exp(h, k, r, q)
            assert got >= 0.0
            assert got == pytest.approx(want, rel=1e-13), (h, k, r, q)
