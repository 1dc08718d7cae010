"""Scalar special functions used by the closed-form kernels.

Univariate normal pdf/cdf, an overflow-safe ``exp(t^2/2) * Phi(-t)``,
and the bivariate normal CDF (Genz's rewrite of the Drezner-Wesolowsky
algorithm, with optional exponential prefactor folded into the
quadrature so that products like ``exp(q) * Phi2`` stay finite).

Everything here is pure, reentrant and vectorized over ndarray inputs.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfcx, log_ndtr, ndtr, roots_legendre

SQRT_2PI = np.sqrt(2.0 * np.pi)
TWO_PI = 2.0 * np.pi

# Beyond |z| = 8.5 the univariate cdf saturates below 1e-15, so infinite
# arguments to the bivariate cdf are clamped there.
_Z_CLAMP = 8.5

_EXPSCALED_T_MIN = -np.sqrt(1400.0)

_GL_NODES, _GL_WEIGHTS = roots_legendre(24)

# Rows per block of the Genz rule. At 256 rows each (rows, 24) temporary
# is 48 KB, so its ~8 live ones fit the per-core L2; CHANGES.md records
# the sweep (128-2048 rows) behind it.
_BLOCK_ROWS = 256
# Rows per block of the tail rule, whose (rows, 28, 24) temporaries are
# 0.5 MB each at 96 rows. 256-row blocks raised the peak RSS of the
# `fixed_point` benchmark by ~4 MB; of 64, 96 and 128 rows, 96 was the
# fastest. CHANGES.md records the sweep.
_TAIL_BLOCK_ROWS = 96


def std_normal_pdf(z):
    """Standard normal density ``phi(z)``."""
    z = np.asarray(z, dtype=float)
    out = np.exp(-0.5 * z * z) / SQRT_2PI
    return out if out.shape else float(out)


def std_normal_cdf(z):
    """Standard normal distribution function ``Phi(z)``."""
    out = ndtr(np.asarray(z, dtype=float))
    return out if out.shape else float(out)


def expscaled_cdf(t):
    """``exp(t^2/2) * Phi(-t)`` without overflow for large positive t.

    For t >= 0 this is ``erfcx(t/sqrt(2)) / 2``; for t < 0 the direct
    product, evaluated on those entries only. The value passes 1e304 as
    t falls below ``_EXPSCALED_T_MIN`` = -sqrt(1400) (t^2/2 = 700) and
    overflows soon after, so such t raise ``OverflowError``.
    """
    t = np.asarray(t, dtype=float)
    if (t < _EXPSCALED_T_MIN).any():
        raise OverflowError("exp(t^2/2) Phi(-t) refused for t < -sqrt(1400); "
                            f"got t = {float(np.nanmin(t))}")
    out = np.asarray(0.5 * erfcx(t / np.sqrt(2.0)))
    neg = t < 0.0
    if neg.any():
        tn = t[neg]
        out[neg] = np.exp(tn * tn / 2.0) * ndtr(-tn)
    return out if out.shape else float(out)


def _check_correlation(rho):
    rho = np.asarray(rho, dtype=float)
    if np.isnan(rho).any():
        raise ValueError("correlation is NaN")
    if (np.abs(rho) > 1.0).any():
        raise ValueError("correlation must lie in [-1, 1]")
    return rho


def _bvnu_tail_1d(h, k, r, q):
    """``exp(q) * P(X > h, Y > k)`` by log-space 1-D panel quadrature.

    Conditions on X: the target equals
    ``e^q int_h^inf phi(z) Phi((r z - k)/tau) dz``. Contributions are
    accumulated by log-sum-exp, so the method stays accurate for
    arbitrarily extreme arguments and exponential prefactors (where the
    series-accelerated branch of the Genz algorithm loses all digits to
    cancellation). Used for |r| >= 0.925.
    """
    tau = np.sqrt(np.maximum((1.0 - r) * (1.0 + r), 1e-300))
    # Log-slope of the integrand at z = h sets the decay scale of the
    # near-boundary cluster (hazard term from the conditional cdf).
    arg_h = (r * h - k) / tau
    hazard = np.exp(-0.5 * arg_h * arg_h - np.log(SQRT_2PI) - log_ndtr(arg_h))
    slope = -h + (r / tau) * hazard
    scale = 1.0 / np.maximum(1.0, np.abs(slope))
    upper = np.maximum(41.0, h + 130.0 * scale)
    z_t = k / np.where(np.abs(r) < 1e-12, 1.0, r)
    w_t = np.maximum(tau / np.abs(r), 1e-6)
    n_pts = h.shape[0]
    edge_sets = [np.broadcast_to(v, (n_pts,)) for v in
                 (-40.0, -20.0, -10.0, -5.0, -2.0, 0.0, 2.0, 5.0, 10.0, 20.0, 40.0)]
    edge_sets += [h + c * scale for c in
                  (0.0, 0.05, 0.15, 0.4, 1.0, 2.5, 6.0, 15.0, 40.0, 80.0, 130.0)]
    edge_sets += [z_t + c * w_t for c in (-30.0, -5.0, -1.0, 0.0, 1.0, 5.0, 30.0)]
    edges = np.stack(edge_sets, axis=1)
    edges = np.clip(edges, h[:, None], upper[:, None])
    edges = np.sort(edges, axis=1)

    x, w = _GL_NODES, _GL_WEIGHTS
    lo = edges[:, :-1]
    width = edges[:, 1:] - lo
    z = lo[:, :, None] + 0.5 * width[:, :, None] * (x[None, None, :] + 1.0)
    with np.errstate(divide="ignore"):
        log_w = np.where(width > 0, np.log(0.5 * np.maximum(width, 1e-300)), -np.inf)
    log_c = (log_w[:, :, None] + np.log(w)[None, None, :]
             - 0.5 * z * z - np.log(SQRT_2PI)
             + log_ndtr((r[:, None, None] * z - k[:, None, None]) / tau[:, None, None]))
    log_c = log_c.reshape(n_pts, -1)
    peak = np.max(log_c, axis=1)
    safe_peak = np.where(np.isfinite(peak), peak, 0.0)
    total = np.exp(log_c - safe_peak[:, None]).sum(axis=1)
    return np.where(np.isfinite(peak), np.exp(q + safe_peak + np.log(total)), 0.0)


def _bvnu_genz(h, k, r, q):
    """The |r| < 0.925 branch of ``_bvnu_exp``: Genz's correlation integral."""
    hk = h * k
    hs = (h * h + k * k) / 2.0
    asr = np.arcsin(r)
    theta = asr[:, None] * (_GL_NODES[None, :] + 1.0) / 2.0
    sn = np.sin(theta)
    expo = (sn * hk[:, None] - hs[:, None]) / (1.0 - sn * sn) + q[:, None]
    expo = np.minimum(expo, 700.0)
    integral = (asr / 2.0) * (_GL_WEIGHTS[None, :] * np.exp(expo)).sum(axis=1)
    return integral / TWO_PI + np.exp(log_ndtr(-h) + log_ndtr(-k) + q)


def _blocked(rule, rows, h, k, r, q):
    """``rule(h, k, r, q)`` over consecutive blocks of ``rows`` rows.

    Both rules are row-independent, so the result equals one call on the
    whole batch bit for bit; the blocks keep their (rows, nodes)
    temporaries in the per-core cache.
    """
    if h.shape[0] <= rows:
        return rule(h, k, r, q)
    return np.concatenate([rule(*(a[i:i + rows] for a in (h, k, r, q)))
                           for i in range(0, h.shape[0], rows)])


def _bvnu_exp(h, k, r, q):
    """``exp(q) * P(X > h, Y > k)`` for a standard bivariate normal.

    |r| < 0.925 uses the correlation-integral form of the Genz (2004)
    rewrite of the Drezner-Wesolowsky algorithm, vectorized, with the
    ``exp(q)`` prefactor folded into every exponential. For r < 0 the
    integral is negative and cancels against the product term, so the
    result loses relative accuracy, and can come out negative, where it
    is small next to that term: ``bvn_cdf(-2.5, -2.5, -0.9)`` is below 0,
    and the ELU/SELU kernels fail at s >~ 10 (ROADMAP item 2). Higher
    correlations go through the log-space conditional integral, and
    |r| = 1 is exact. The branch masks, gathers and scatters run once on
    the whole call; each quadrature rule then runs over row blocks, of
    ``_BLOCK_ROWS`` for the Genz rule and ``_TAIL_BLOCK_ROWS`` for the
    tail rule.
    """
    out = np.zeros(h.shape, dtype=float)
    absr = np.abs(r)

    m = absr >= 1.0  # degenerate correlation
    if m.any():
        hm, km, rm, qm = h[m], k[m], r[m], q[m]
        pos = np.exp(qm + log_ndtr(-np.maximum(hm, km)))
        neg = np.maximum(0.0, np.exp(qm + log_ndtr(-hm)) - np.exp(qm + log_ndtr(km)))
        out[m] = np.where(rm > 0, pos, neg)

    for m, rule, rows in ((absr < 0.925, _bvnu_genz, _BLOCK_ROWS),
                          ((absr >= 0.925) & (absr < 1.0), _bvnu_tail_1d, _TAIL_BLOCK_ROWS)):
        if m.any():
            out[m] = _blocked(rule, rows, h[m], k[m], r[m], q[m])

    return out


def bvn_cdf_exp(h, k, rho, q=0.0):
    """``exp(q) * P(Z1 <= h, Z2 <= k)`` for correlation rho, overflow-safe.

    The prefactor is folded into the quadrature, so arguments where
    ``exp(q)`` overflows or ``Phi2`` underflows still give the correct
    finite product (needed by the exponential cross terms of the
    ELU/SELU closed forms at large signal norms).
    """
    h, k, rho, q = np.broadcast_arrays(
        *[np.asarray(v, dtype=float) for v in (h, k, rho, q)]
    )
    if np.isnan(h).any() or np.isnan(k).any():
        raise ValueError("bvn_cdf: NaN argument")
    _check_correlation(rho)
    # infinite rectangle corners saturate at |z| = 8.5 (cdf within 1e-15)
    h = np.where(np.isinf(h), np.sign(h) * _Z_CLAMP, h)
    k = np.where(np.isinf(k), np.sign(k) * _Z_CLAMP, k)
    res = _bvnu_exp(np.atleast_1d(-h), np.atleast_1d(-k),
                    np.atleast_1d(rho), np.atleast_1d(q))
    res = res.reshape(h.shape)
    return res if res.shape else float(res)


def bvn_cdf(h, k, rho):
    """``P(Z1 <= h, Z2 <= k)`` for a standard bivariate normal, corr rho.

    Absolute accuracy is ~1e-14; infinite arguments are clamped at
    ``|z| = 8.5``.
    """
    return bvn_cdf_exp(h, k, rho, 0.0)
