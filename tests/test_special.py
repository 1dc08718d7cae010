import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from nnkernels.special import (_BLOCK_COLS, GENZ_RHO_MAX, bvn_cdf, bvn_cdf_exp,
                               bvn_halves_exp, expscaled_cdf, std_normal_cdf,
                               std_normal_pdf)


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
    def test_pdf_at_zero(self):
        assert std_normal_pdf(0.0) == pytest.approx(0.3989422804, abs=1e-10)

    def test_pdf_at_one_vs_series(self):
        # direct evaluation cross-checked against the exponential series
        from math import factorial
        series = sum((-0.5) ** n / factorial(n) for n in range(40))
        assert std_normal_pdf(1.0) == pytest.approx(series / np.sqrt(2 * np.pi), abs=1e-14)
        assert std_normal_pdf(1.0) == pytest.approx(0.2419707245, abs=1e-10)

    def test_pdf_symmetry(self):
        assert std_normal_pdf(-1.0) == std_normal_pdf(1.0)

    def test_cdf_examples(self):
        assert std_normal_cdf(0.0) == 0.5
        assert std_normal_cdf(8.0) == pytest.approx(1.0, abs=1e-15)
        assert std_normal_cdf(1.0) == pytest.approx(0.8413447461, abs=1e-10)

    def test_cdf_vs_erf_reference(self):
        from scipy.special import erf
        z = np.linspace(-8, 8, 201)
        ref = 0.5 * (1.0 + erf(z / np.sqrt(2.0)))
        assert np.abs(std_normal_cdf(z) - ref).max() <= 1e-14

    def test_cdf_monotone(self):
        z = np.linspace(-10, 10, 500)
        assert (np.diff(std_normal_cdf(z)) >= 0).all()

    def test_expscaled_cdf(self):
        # e^{t^2/2} Phi(-t) against the direct product in the safe range
        for t in (-3.0, -1.0, 0.0, 0.5, 2.0, 10.0):
            direct = np.exp(t * t / 2) * std_normal_cdf(-t)
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
        assert bvn_cdf(0.0, 0.0, 0.0) == pytest.approx(0.25, abs=1e-14)

    def test_marginalization(self):
        for k in (-1.0, 0.3, 2.0):
            for rho in (-0.8, 0.0, 0.6):
                assert bvn_cdf(8.0, k, rho) == pytest.approx(std_normal_cdf(k), abs=1e-12)

    def test_third_at_half_correlation(self):
        got = bvn_cdf(0.0, 0.0, 0.5)
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
                bvn_cdf(h, k, rho)
        else:
            assert bvn_cdf(h, k, rho) == pytest.approx(bvn_reference(h, k, rho), abs=1e-10)

    def test_infinite_arguments_clamped(self):
        assert bvn_cdf(np.inf, 0.7, 0.2) == pytest.approx(std_normal_cdf(0.7), abs=1e-12)
        assert bvn_cdf(-np.inf, 0.7, 0.2) <= 1e-15  # saturated tail

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            bvn_cdf(np.nan, 0.0, 0.0)
        with pytest.raises(ValueError):
            bvn_cdf(0.0, 0.0, np.nan)

    def test_correlation_range_rejected(self):
        with pytest.raises(ValueError):
            bvn_cdf(0.0, 0.0, 1.5)

    def test_tail_band_refused(self):
        # 0.925 <= |rho| < 1 has no rule; its edges and |rho| = 1 do
        for rho in (0.95, -0.95, GENZ_RHO_MAX, -GENZ_RHO_MAX, np.nextafter(1.0, 0.0)):
            with pytest.raises(ValueError, match="0.925 <= \\|rho\\| < 1"):
                bvn_cdf(0.0, 0.0, rho)
        with pytest.raises(ValueError, match="refused"):
            bvn_cdf_exp([0.0, 0.0], [0.0, 0.0], [0.3, 0.95], 1.0)
        with pytest.raises(ValueError, match="refused"):
            bvn_halves_exp(np.zeros((2, 2)), np.zeros((2, 2)), [0.3, -0.99], np.zeros((2, 2)))
        for rho in (np.nextafter(GENZ_RHO_MAX, 0.0), -np.nextafter(GENZ_RHO_MAX, 0.0), 1.0, -1.0):
            assert np.isfinite(bvn_cdf(0.0, 0.0, rho))

    @settings(max_examples=80, deadline=None)
    @given(h=st.floats(-4, 4), k=st.floats(-4, 4), rho=st.floats(-0.92, 0.92))
    def test_symmetry(self, h, k, rho):
        assert bvn_cdf(h, k, rho) == pytest.approx(bvn_cdf(k, h, rho), abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(h=st.floats(-3, 3), k=st.floats(-3, 3))
    def test_zero_correlation_factorizes(self, h, k):
        assert bvn_cdf(h, k, 0.0) == pytest.approx(
            std_normal_cdf(h) * std_normal_cdf(k), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(h=st.floats(-3, 3), k=st.floats(-3, 3), rho=st.floats(-0.92, 0.92),
           dh=st.floats(0.001, 1.0))
    def test_monotone_in_each_argument(self, h, k, rho, dh):
        base = bvn_cdf(h, k, rho)
        assert bvn_cdf(h + dh, k, rho) >= base - 1e-15
        assert bvn_cdf(h, k + dh, rho) >= base - 1e-15

    def test_exp_folding_matches_direct_product(self):
        for (h, k, rho, q) in [(-1, 2, -0.8, 3.0), (0.5, 0.5, 0.92, 10.0),
                               (-3, -3, 0.9, 5.5), (1.5, -2.5, -0.92, 2.0)]:
            direct = np.exp(q) * bvn_cdf(h, k, rho)
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
        rng = np.random.default_rng(n)
        r = _branch_columns(rng, n)
        h, k = rng.uniform(-4, 4, (2, n))
        q = rng.uniform(0, 12, n)
        batch = bvn_cdf_exp(h, k, r, q)
        one_by_one = np.array([bvn_cdf_exp(*args) for args in zip(h, k, r, q)])
        assert np.array_equal(batch, one_by_one)


class TestHalves:
    """``bvn_halves_exp``: both halves of ``exp(q) P(Z2 <= k)``, split at
    Z1 = h, from one Genz integral per row."""

    @pytest.mark.parametrize("m", [1, _BLOCK_COLS - 1, _BLOCK_COLS, _BLOCK_COLS + 1,
                                   3 * _BLOCK_COLS + 7])
    def test_halves_are_two_cdf_calls(self, m):
        rng = np.random.default_rng(m)
        r = _branch_columns(rng, m)
        h, k = rng.uniform(-4, 4, (2, 3, m))
        q = rng.uniform(0, 12, (3, m))
        lower, upper = bvn_halves_exp(h, k, r, q)
        assert np.array_equal(lower, bvn_cdf_exp(h, k, r, q))
        assert np.array_equal(upper, bvn_cdf_exp(-h, k, -r, q))
        lower1, upper1 = bvn_halves_exp(h, k, r, q, slice(1, None))
        assert np.array_equal(lower1, lower) and np.array_equal(upper1, upper[1:])
        cols = [bvn_halves_exp(h[:, j:j + 1], k[:, j:j + 1], r[j:j + 1], q[:, j:j + 1])
                for j in range(m)]
        assert np.array_equal(np.hstack([c[0] for c in cols]), lower)
        assert np.array_equal(np.hstack([c[1] for c in cols]), upper)

    def test_halves_add_up(self):
        # lower + upper = exp(q) Phi(k) on Genz and exact rows
        rng = np.random.default_rng(5)
        r = _branch_columns(rng, 600)
        h, k = rng.uniform(-4, 4, (2, 2, r.size))
        q = rng.uniform(0, 12, (2, r.size))
        lower, upper = bvn_halves_exp(h, k, r, q)
        err = np.abs(lower + upper - np.exp(q) * std_normal_cdf(k)) / np.exp(q)
        assert err.max() <= 1e-13

    def test_halves_refuse_like_cdf(self):
        with pytest.raises(ValueError):
            bvn_halves_exp(np.zeros((2, 1)), np.full((2, 1), np.nan), [0.3], np.zeros((2, 1)))
        with pytest.raises(ValueError):
            bvn_halves_exp(np.zeros((2, 1)), np.zeros((2, 1)), [1.5], np.zeros((2, 1)))


def _mp_bvn_exp(h, k, rho, q):
    """``exp(q) P(Z1 <= h, Z2 <= k)`` as a 1-D mpmath integral of
    ``phi(z) Phi((k - rho z)/tau)`` over z < h, split at the kink z = k/rho."""
    h, k, rho, q = (mpmath.mpf(float(v)) for v in (h, k, rho, q))
    tau = mpmath.sqrt((1 - rho) * (1 + rho))
    f = lambda z: mpmath.npdf(z) * mpmath.ncdf((k - rho * z) / tau)
    kink = [k / rho] if rho != 0 and k / rho < h else []
    return float(mpmath.exp(q) * mpmath.quad(f, [-mpmath.inf, *kink, h]))


def test_bvn_cdf_exp_against_mpmath():
    """Relative error against a 20-digit reference, on the Genz branch.

    r >= 0 on the whole grid |h|, |k| <= 5; r < 0 only with h >= 0 and
    k >= -0.5. For r < 0 and both arguments in the lower tails the Genz
    branch cancels (ROADMAP item 2): bvn_cdf(-2.5, -2.5, -0.9) returns
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
