"""Gaussian-expectation quadrature used by the kernel oracles.

The defining expectations are over one or two standard normals. For
smooth integrands plain Gauss-Hermite converges spectrally, but the
piecewise activations (ReLU/LReLU/ELU/SELU) have kinks or jumps along
lines, where Gauss-Hermite stalls at ~1e-4..1e-5 relative error even
with hundreds of nodes. The rules here therefore integrate the normal
weight over [-ZMAX, ZMAX] with Gauss-Legendre panels split at the kink
locations; each panel sees a smooth integrand, restoring spectral
accuracy at the same per-dimension node count. Truncation at
ZMAX = 9.5 contributes < 1e-17 for polynomially bounded integrands.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

from .special import std_normal_pdf

ZMAX = 9.5


@lru_cache(maxsize=32)
def _legendre(n: int):
    return roots_legendre(n)


def normal_panel_nodes(n: int, cuts=()):
    """Nodes/weights for ``int f(z) phi(z) dz`` over [-ZMAX, ZMAX].

    The interval is split at ``cuts`` (clipped into range); each panel
    carries an n-point Gauss-Legendre rule with the normal density
    folded into the weights.
    """
    x, w = _legendre(n)
    edges = np.concatenate(
        [[-ZMAX], np.sort(np.clip(np.atleast_1d(np.asarray(cuts, float)), -ZMAX, ZMAX)), [ZMAX]]
    )
    zs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a < 1e-13:
            continue
        z = 0.5 * (b - a) * x + 0.5 * (a + b)
        zs.append(z)
        ws.append(0.5 * (b - a) * w * std_normal_pdf(z))
    return np.concatenate(zs), np.concatenate(ws)


def mean_1d(f, nodes: int = 120, cuts=(0.0,)):
    """``E[f(Z)]`` for Z ~ N(0,1), panel-split at ``cuts``."""
    z, w = normal_panel_nodes(nodes, cuts)
    return float(w @ f(z))


# Doubles per (tile, nodes) temporary of ``pair_mean_quad``: 115 KB stays
# in L2; 120-node tiles at 120 nodes were fastest in a measured sweep.
_TILE_DOUBLES = 14_400


def pair_mean_quad(f1, f2, s1, s2, rho, nodes: int = 120):
    """``E[f1(s1 Z1) f2(s2 Z2)]`` with corr(Z1, Z2) = rho, batched.

    Uses the iid parameterization Z2 = rho Z1 + sqrt(1-rho^2) G. The
    outer dimension always splits at 0 (kink or sharp feature of f1);
    the inner dimension splits where the argument of f2 crosses 0.
    s1, s2, rho may be arrays of a common shape; returns that shape.
    Each entry runs its tensor rule in tiles of ``_TILE_DOUBLES // nodes``
    outer nodes, so the temporaries hold ~``_TILE_DOUBLES`` doubles whatever
    the batch size, and every entry's sums run in the same order as in a
    one-entry call.
    """
    s1, s2, rho = np.broadcast_arrays(
        *[np.asarray(v, dtype=float) for v in (s1, s2, rho)]
    )
    shape = s1.shape
    s1f, s2f, rf = s1.ravel(), s2.ravel(), rho.ravel()
    rf = np.clip(rf, -1.0 + 1e-15, 1.0 - 1e-15)
    tau = np.sqrt(1.0 - rf * rf)

    z1, w1 = normal_panel_nodes(nodes, (0.0,))
    x, w = _legendre(nodes)
    tile = max(1, _TILE_DOUBLES // nodes)

    out = np.empty(s1f.shape)
    for i in range(s1f.size):
        r, t, acc = rf[i], tau[i], np.zeros_like(z1)
        for j in range(0, z1.size, tile):
            zt = z1[j:j + tile]
            cut = np.clip(-r * zt / t, -ZMAX, ZMAX)
            for lo, hi in ((np.full_like(cut, -ZMAX), cut), (cut, np.full_like(cut, ZMAX))):
                live = hi > lo  # a cut clipped to +-ZMAX leaves an empty panel
                lo, hi, zl = lo[live], hi[live], zt[live]
                half = 0.5 * (hi - lo)
                z2 = half[:, None] * x + 0.5 * (lo + hi)[:, None]
                wz = half[:, None] * w * std_normal_pdf(z2)
                vals = wz * f2(s2f[i] * (r * zl[:, None] + t * z2))
                acc[j:j + tile][live] += vals.sum(axis=-1)
        out[i] = (w1 * f1(s1f[i] * z1) * acc).sum()
    out = out.reshape(shape)
    return out if out.shape else float(out)
