"""Scalar special functions used by the closed-form kernels.

An overflow-safe ``exp(t^2/2) * Phi(-t)`` and the bivariate normal CDF
``bvn_cdf_exp``, with a prefactor ``exp(q)`` folded in so that products
like ``exp(q) * Phi2`` stay finite: Genz's rewrite of the
Drezner-Wesolowsky algorithm for |rho| < 0.925, exact limits at |rho| = 1
and at infinite arguments; the band between is refused. The ELU/SELU
moments take the same rule in a form of their own
(``kernels._tilted_genz``); ``bvn_cdf_exp`` checks them in the tests.

Everything here is pure, reentrant and vectorized over ndarray inputs.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfcx, log_ndtr, ndtr, roots_legendre

SQRT_2PI = np.sqrt(2.0 * np.pi)
TWO_PI = 2.0 * np.pi

_EXPSCALED_T_MIN = -np.sqrt(1400.0)

_GL_NODES, _GL_WEIGHTS = roots_legendre(24)

# Columns per block of the Genz rule. With one row per column each
# (256, 24) temporary is 48 KB, so its ~8 live ones fit the per-core L2;
# CHANGES.md records the sweeps (128-2048 rows, and 128-3,072 rows at
# three rows per column) behind it.
_BLOCK_COLS = 256

# Correlations 0.925 <= |rho| < 1 are refused: the Genz rule loses
# accuracy there, and the ELU/SELU moments, its one caller in that band,
# take a 1-D rule of their own (``kernels._elu_tail``).
GENZ_RHO_MAX = 0.925


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


def _bvnu_genz(h, k, r, q):
    """``exp(q) P(X > h, Y > k)`` at |r| < ``GENZ_RHO_MAX``: h, k, q and r
    are (m,). The arguments are not checked: callers pass finite rows.

    Genz's (2004) correlation integral, with the ``exp(q)`` prefactor folded
    into every exponential. For r < 0 the integral cancels against the
    product term, so the result loses relative accuracy where it is small
    next to it, and can come out negative: ``bvn_cdf_exp(-2.5, -2.5, -0.9)``
    is below 0 (the table of ROADMAP item 2). The exponent never exceeds
    q, so only where q > 700 can it pass 700 and be refused rather than
    overflow.
    """
    asr = np.arcsin(r)
    sn = np.sin(asr[:, None] * ((_GL_NODES + 1.0) / 2.0))
    expo = sn * (h * k)[:, None]
    expo -= ((h * h + k * k) / 2.0)[:, None]
    expo /= 1.0 - sn * sn
    expo += q[:, None]
    if q.max() > 700.0 and expo.max() > 700.0:
        raise OverflowError(f"bvn: exponent {float(expo.max())} > 700 in the correlation "
                            "integral would overflow")
    np.exp(expo, out=expo)
    expo *= _GL_WEIGHTS
    g = (asr / 2.0) * expo.sum(axis=-1) / TWO_PI
    return g + np.exp(log_ndtr(-h) + log_ndtr(-k) + q)


def _blocked(rule, size, *args):
    """``rule(*args)`` over consecutive blocks of ``size`` along the last
    axis of ``args``.

    The Genz rules are independent along it, so the result equals
    one call on the whole batch bit for bit; the blocks keep their
    (block, nodes) temporaries in the per-core cache.
    """
    n = args[0].shape[-1]
    if n <= size:
        return rule(*args)
    return np.concatenate([rule(*(a[..., i:i + size] for a in args))
                           for i in range(0, n, size)], axis=-1)


def bvn_cdf_exp(h, k, rho, q=0.0):
    """``exp(q) * P(Z1 <= h, Z2 <= k)`` for correlation rho, overflow-safe.

    The prefactor is folded into the quadrature, so arguments where
    ``exp(q)`` overflows or ``Phi2`` underflows still give the correct
    finite product. Each entry's rule is decided once: 0 at a -inf
    argument, else ``exp(q) Phi(min(h, k))`` at a +inf argument or rho = 1,
    ``exp(q) max(0, Phi(h) - Phi(-k))`` at rho = -1 (as ``Phi(k) - Phi(-h)``
    where both terms of the first exceed 1/2) and the Genz rule at
    |rho| < ``GENZ_RHO_MAX``. In the limits an exponent above 700 raises
    ``OverflowError``. NaN arguments and correlations outside [-1, 1] or
    with ``GENZ_RHO_MAX`` <= |rho| < 1 raise ``ValueError``.
    """
    h, k, rho, q = np.broadcast_arrays(
        *[np.asarray(v, dtype=float) for v in (h, k, rho, q)]
    )
    shape = h.shape
    h, k, rho, q = (a.reshape(-1) for a in (h, k, rho, q))
    if np.isnan(h).any() or np.isnan(k).any():
        raise ValueError("bvn_cdf_exp: NaN argument")
    rho = _check_correlation(rho)
    absr = np.abs(rho)
    if ((absr >= GENZ_RHO_MAX) & (absr < 1.0)).any():
        raise ValueError(f"bvn: correlations with {GENZ_RHO_MAX} <= |rho| < 1 are refused; "
                         "the Genz rule is not accurate there")
    res = np.zeros(h.shape)
    fin = np.isfinite(h) & np.isfinite(k)
    genz = fin & (absr < GENZ_RHO_MAX)
    if genz.any():
        res[genz] = _blocked(_bvnu_genz, _BLOCK_COLS, -h[genz], -k[genz], rho[genz], q[genz])
    top = (h > -np.inf) & (k > -np.inf) & (~fin | (rho == 1.0))
    neg = fin & (rho == -1.0)
    n = np.count_nonzero(top)
    # on neg, Phi(h) - Phi(-k) = Phi(k) - Phi(-h); the second where the
    # first's terms both exceed 1/2, and so cancel in the upper tails
    hn, kn = h[neg], k[neg]
    up = (hn > 0.0) & (kn < 0.0)
    # the exponents of exp(q) Phi(min(h, k)) on top, of the two terms on neg
    expo = (np.concatenate([q[top], q[neg], q[neg]])
            + log_ndtr(np.concatenate([np.minimum(h[top], k[top]), np.where(up, kn, hn),
                                       np.where(up, -hn, -kn)])))
    if (expo > 700.0).any():
        raise OverflowError(f"bvn: exponent {float(expo.max())} > 700 would overflow")
    np.exp(expo, out=expo)
    res[top] = expo[:n]
    phi_h, phi_k = expo[n:].reshape(2, -1)
    res[neg] = np.maximum(0.0, phi_h - phi_k)
    res = res.reshape(shape)
    return res if res.shape else float(res)
