"""Scalar special functions used by the closed-form kernels.

Univariate normal pdf/cdf, an overflow-safe ``exp(t^2/2) * Phi(-t)``,
and the bivariate normal CDF (Genz's rewrite of the Drezner-Wesolowsky
algorithm, with optional exponential prefactor folded into the
quadrature so that products like ``exp(q) * Phi2`` stay finite).
``bvn_halves_exp`` gives both halves ``Z1 <= h`` and ``Z1 > h`` of
``exp(q) P(Z2 <= k)`` from one Genz integral per row, on rows that share
their correlation by column; ``bvn_cdf_exp`` is its lower half on one row.

Everything here is pure, reentrant and vectorized over ndarray inputs.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from scipy.special import erfcx, log_ndtr, ndtr, roots_legendre

SQRT_2PI = np.sqrt(2.0 * np.pi)
TWO_PI = 2.0 * np.pi

# Beyond |z| = 8.5 the univariate cdf saturates below 1e-15, so infinite
# arguments to the bivariate cdf are clamped there.
_Z_CLAMP = 8.5

_EXPSCALED_T_MIN = -np.sqrt(1400.0)

_GL_NODES, _GL_WEIGHTS = roots_legendre(24)

# Columns per block of the Genz rule. With one row per column each
# (256, 24) temporary is 48 KB, so its ~8 live ones fit the per-core L2;
# CHANGES.md records the sweeps (128-2048 rows, and 128-3,072 rows at
# three rows per column) behind it.
_BLOCK_COLS = 256
# Rows per block of the tail rule, whose (rows, 28, 24) temporaries are
# 0.5 MB each at 96 rows. 256-row blocks raised the peak RSS of the
# `fixed_point` benchmark by ~4 MB; of 64, 96 and 128 rows, 96 was the
# fastest. CHANGES.md records the sweep.
_TAIL_BLOCK_ROWS = 96
# Panel edges of the tail rule: fixed, from z = h by the integrand's decay
# scale, and around the kink z = k / r by its width
_TAIL_EDGES_FIXED = np.array([-40.0, -20.0, -10.0, -5.0, -2.0, 0.0, 2.0, 5.0, 10.0, 20.0, 40.0])
_TAIL_EDGES_H = np.array([0.0, 0.05, 0.15, 0.4, 1.0, 2.5, 6.0, 15.0, 40.0, 80.0, 130.0])
_TAIL_EDGES_KINK = np.array([-30.0, -5.0, -1.0, 0.0, 1.0, 5.0, 30.0])


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
    edges = np.concatenate([np.broadcast_to(_TAIL_EDGES_FIXED, (n_pts, _TAIL_EDGES_FIXED.size)),
                            h[:, None] + _TAIL_EDGES_H * scale[:, None],
                            z_t[:, None] + _TAIL_EDGES_KINK * w_t[:, None]], axis=1)
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


def _bvnu_genz(h, k, r, q, up):
    """The |r| < 0.925 branch of ``_bvnu_exp``: Genz's correlation integral.

    One integral per row, with the arcsine and node sines once per column.
    At (-h, k, -r) hk and sin(theta) both change sign and the arcsine in
    front does, so the upper half is the integral negated plus its own
    product term. The exponent never exceeds q (|sin theta| < 1), so only
    where q > 700 can it pass 700 and be refused rather than overflow.
    """
    asr = np.arcsin(r)
    sn = np.sin(asr[:, None] * ((_GL_NODES + 1.0) / 2.0))
    expo = sn * (h * k)[..., None]
    expo -= ((h * h + k * k) / 2.0)[..., None]
    expo /= 1.0 - sn * sn
    expo += q[..., None]
    if q.max() > 700.0 and expo.max() > 700.0:
        raise OverflowError(f"bvn: exponent {float(expo.max())} > 700 in the correlation "
                            "integral would overflow")
    np.exp(expo, out=expo)
    expo *= _GL_WEIGHTS
    g = (asr / 2.0) * expo.sum(axis=-1) / TWO_PI
    lk = log_ndtr(-k)
    return np.concatenate([g + np.exp(log_ndtr(-h) + lk + q),
                           np.exp(log_ndtr(h[up]) + lk[up] + q[up]) - g[up]])


def _mirrored(h, k, r, q, up):
    """Rows ``(h, k, r, q)`` followed by the ``up`` rows at ``(-h, k, -r, q)``,
    as one (4, T + U, m) array, for the rules that take no shortcut from
    the mirror."""
    t = h.shape[0]
    rows = np.empty((4, t + h[up].shape[0], h.shape[1]))
    rows[0, :t], rows[1, :t], rows[2, :t], rows[3, :t] = h, k, r, q
    rows[0, t:], rows[1, t:], rows[2, t:], rows[3, t:] = -h[up], k[up], -r, q[up]
    return rows


def _bvnu_tail(h, k, r, q, up):
    """The 0.925 <= |r| < 1 branch of ``_bvnu_exp``: the tail rule per row."""
    rows = _mirrored(h, k, r, q, up)
    return _blocked(_bvnu_tail_1d, _TAIL_BLOCK_ROWS, *rows.reshape(4, -1)).reshape(rows.shape[1:])


def _bvnu_edge(h, k, r, q, up):
    """The |r| = 1 branch of ``_bvnu_exp``: the degenerate limits."""
    h, k, r, q = _mirrored(h, k, r, q, up)
    pos = np.exp(q + log_ndtr(-np.maximum(h, k)))
    neg = np.maximum(0.0, np.exp(q + log_ndtr(-h)) - np.exp(q + log_ndtr(k)))
    return np.where(r > 0, pos, neg)


def _blocked(rule, size, *args, **kwargs):
    """``rule(*args, **kwargs)`` over consecutive blocks of ``size`` along
    the last axis of ``args``.

    Both quadrature rules are independent along it, so the result equals
    one call on the whole batch bit for bit; the blocks keep their
    (block, nodes) temporaries in the per-core cache.
    """
    n = args[0].shape[-1]
    if n <= size:
        return rule(*args, **kwargs)
    return np.concatenate([rule(*(a[..., i:i + size] for a in args), **kwargs)
                           for i in range(0, n, size)], axis=-1)


def _bvnu_exp(h, k, r, q, up):
    """``exp(q) P(X > h, Y > k)`` and, for the rows ``up``,
    ``exp(q) P(X > -h, Y > k)`` at correlation -r, for standard bivariate
    normals: h, k, q are (T, m), r is (m,); returned as one (T + U, m)
    array, the U upper rows last.

    |r| < 0.925 uses the correlation-integral form of the Genz (2004)
    rewrite of the Drezner-Wesolowsky algorithm, vectorized, with the
    ``exp(q)`` prefactor folded into every exponential; a row and its
    mirror share one integral. For r < 0 the integral is negative and
    cancels against the product term, so the result loses relative
    accuracy, and can come out negative, where it is small next to that
    term: ``bvn_cdf(-2.5, -2.5, -0.9)`` is below 0, and the ELU/SELU
    kernels fail at s >~ 10 (ROADMAP item 2). Higher correlations go
    through the log-space conditional integral, one row per half, and
    |r| = 1 is exact. The branch masks, gathers and scatters run once on
    the whole call, by column; the Genz rule then runs over blocks of
    ``_BLOCK_COLS`` columns and the tail rule over ``_TAIL_BLOCK_ROWS``
    rows.
    """
    out = np.empty((h.shape[0] + h[up].shape[0], h.shape[1]))
    absr = np.abs(r)
    for m, rule in ((absr < 0.925, partial(_blocked, _bvnu_genz, _BLOCK_COLS)),
                    ((absr >= 0.925) & (absr < 1.0), _bvnu_tail),
                    (absr >= 1.0, _bvnu_edge)):
        if m.any():
            out[:, m] = rule(h[:, m], k[:, m], r[m], q[:, m], up=up)
    return out


def bvn_halves_exp(h, k, rho, q, upper_rows=slice(None)):
    """``exp(q) P(Z1 <= h, Z2 <= k)`` and ``exp(q) P(Z1 > h, Z2 <= k)``
    at correlation rho, overflow-safe, as (lower, upper).

    h, k and q are (T, m) and rho is (m,): the T rows of a column share
    its correlation. The upper half equals ``bvn_cdf_exp(-h, k, -rho, q)``
    bit for bit and is returned for the rows ``upper_rows`` only; in the Genz
    band it costs no second integral, elsewhere it costs one row of its
    own.
    """
    h, k, q = (np.asarray(v, dtype=float) for v in (h, k, q))
    if np.isnan(h).any() or np.isnan(k).any():
        raise ValueError("bvn_cdf: NaN argument")
    rho = _check_correlation(rho)
    # infinite rectangle corners saturate at |z| = 8.5 (cdf within 1e-15)
    h = np.where(np.isinf(h), np.sign(h) * _Z_CLAMP, h)
    k = np.where(np.isinf(k), np.sign(k) * _Z_CLAMP, k)
    out = _bvnu_exp(-h, -k, rho, q, upper_rows)
    return out[:h.shape[0]], out[h.shape[0]:]


def bvn_cdf_exp(h, k, rho, q=0.0):
    """``exp(q) * P(Z1 <= h, Z2 <= k)`` for correlation rho, overflow-safe.

    The prefactor is folded into the quadrature, so arguments where
    ``exp(q)`` overflows or ``Phi2`` underflows still give the correct
    finite product (needed by the exponential cross terms of the
    ELU/SELU closed forms at large signal norms). The lower half of
    ``bvn_halves_exp`` with one row.
    """
    h, k, rho, q = np.broadcast_arrays(
        *[np.asarray(v, dtype=float) for v in (h, k, rho, q)]
    )
    res, _ = bvn_halves_exp(h.reshape(1, -1), k.reshape(1, -1), rho.reshape(-1),
                            q.reshape(1, -1), slice(0, 0))
    res = res.reshape(h.shape)
    return res if res.shape else float(res)


def bvn_cdf(h, k, rho):
    """``P(Z1 <= h, Z2 <= k)`` for a standard bivariate normal, corr rho.

    Absolute accuracy is ~1e-14; infinite arguments are clamped at
    ``|z| = 8.5``.
    """
    return bvn_cdf_exp(h, k, rho, 0.0)
