"""Gaussian-expectation quadrature over two correlated standard normals,
the independent oracle of the closed forms: the test oracles build on
the polar rule ``pair_mean_quad``, and ``fixed_point.lambda3_quad_grid``
on ``autocorr_mean_quad``. No production path calls either; they stay
in the package because ``perfbench/spans.py`` traces ``pair_mean_quad``
and ``lambda3_quad_grid`` by name.
``ZMAX`` also sets the last panel edge of ``kernels._elu_tail``.

For smooth integrands plain Gauss-Hermite converges spectrally, but the
piecewise activations (ReLU/LReLU/ELU/SELU) have kinks or jumps at 0,
where Gauss-Hermite stalls at ~1e-4..1e-5 relative error even with
hundreds of nodes. The rules here therefore use Gauss-Legendre panels
split at the kinks, in polar coordinates, where the kinks of f1(s1 Z1)
and f2(s2 Z2) lie on four rays through the origin whatever the
correlation; the four panels between them form two antipodal pairs
whose nodes both coordinates share, so each factor is evaluated once
per entry, and an equal second factor reuses the first one's values. On
the angle grid theta_k = k pi / M every angle is a whole number of cells
of one shared angular grid, so ``autocorr_mean_quad`` takes
E[f(s Z1) f(s Z2)] at all of them from one evaluation of f, as a
circular autocorrelation. Truncating the polar radius at ZMAX = 9.5
costs < 1e-17 for polynomially bounded integrands.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

from .special import _check_correlation

ZMAX = 9.5


@lru_cache(maxsize=32)
def _legendre(n: int):
    return roots_legendre(n)


def _gauss_panels(edges, n: int):
    """An n-point Gauss-Legendre rule on each panel between consecutive
    ``edges`` (sorted, no two equal): nodes and weights, panel by panel."""
    x, w = _legendre(n)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (half * x + mid).ravel(), (half * w).ravel()


def _radial_rule(n: int):
    """n Gauss-Legendre nodes on each of [0, 1], [1, 3], [3, ZMAX], with the
    Rayleigh density R exp(-R^2/2) / 2pi of the polar radius in the weights."""
    r, w = _gauss_panels(np.array([0.0, 1.0, 3.0, ZMAX]), n)
    return r, w * (r * np.exp(-0.5 * r * r) / (2.0 * np.pi))


@lru_cache(maxsize=8)
def _angular_rule(m: int, keep: tuple):
    """Gauss-Legendre nodes u and weights on [0, 1], m of them, and the
    pairing of the columns of [G, -G]: f1 at column k meets f2 at column
    ``pairs[k]``, node j of the same block at node m - 1 - j, on -G for
    the theta-wide block and on G for the (pi - theta)-wide one. ``keep``
    flags which of those two blocks the grid holds."""
    u, w = _gauss_panels(np.array([0.0, 1.0]), m)
    cross = np.array([1, 0])[list(keep)]
    sign, block, j = np.unravel_index(np.arange(2 * cross.size * m), (2, cross.size, m))
    pairs = np.ravel_multi_index((sign ^ cross[block], block, m - 1 - j), (2, cross.size, m))
    return u, w, pairs


def pair_mean_quad(f1, f2, s1, s2, rho, nodes: int = 120):
    """``E[f1(s1 Z1) f2(s2 Z2)]`` with corr(Z1, Z2) = rho, batched.

    Polar form (Z1, Z2) = R (cos phi, cos(phi - theta)), theta = arccos rho,
    so the kinks of f1 and f2 at 0 lie on the rays phi = +-pi/2 and
    theta +- pi/2. The four angular panels between them form two antipodal
    pairs: with u in [0, 1], the panel of width theta is
    R (sin theta u, -sin theta (1 - u)), the panel of width pi - theta is
    R (sin (pi - theta)(1 - u), sin (pi - theta) u), and the other two are
    their negatives. With ``nodes // 2`` symmetric Gauss-Legendre nodes u
    per panel (``nodes`` on each of the two left at rho = +-1), both
    coordinates run over one set G = R x [sin theta u, sin (pi - theta) u];
    the radius carries ``nodes // 4`` nodes on each of [0, 1], [1, 3],
    [3, ZMAX], with the Rayleigh density R exp(-R^2/2) / 2pi in its
    weights. So f1 is evaluated once on s1 [G, -G], a
    (3 * (nodes // 4), 2 * nodes) grid, and f2 once on s2 [G, -G], or not
    at all when ``f2 is f1`` and s2 == s1; each panel pairs their columns,
    one of them in reverse node order. s1, s2, rho may be arrays of a
    common shape; returns that shape. Entries run one at a time, so a
    batch equals its one-entry calls bit for bit.
    """
    if nodes < 20:
        raise ValueError("nodes must be >= 20")
    s1, s2, rho = np.broadcast_arrays(
        *[np.asarray(v, dtype=float) for v in (s1, s2, rho)]
    )
    shape = s1.shape
    s1f, s2f = s1.ravel(), s2.ravel()
    theta = np.arccos(_check_correlation(rho).ravel())

    r, wr = _radial_rule(nodes // 4)

    out = np.empty(s1f.shape)
    for i in range(s1f.size):
        # at rho = +-1 one of the two panel widths is 0
        widths = np.array([theta[i], np.pi - theta[i]])
        keep = widths > 0.0
        widths = widths[keep]
        u, w, pairs = _angular_rule(nodes // widths.size, tuple(keep))
        sines = np.sin(np.outer(widths, u)).ravel()
        sines = np.concatenate([sines, -sines])
        wphi = np.tile(np.outer(widths, w).ravel(), 2)
        vals = f1(np.outer(s1f[i] * r, sines))
        if f2 is f1 and s2f[i] == s1f[i]:
            vals *= vals[:, pairs]
        else:
            vals *= f2(np.outer(s2f[i] * r, sines[pairs]))
        out[i] = wr @ vals @ wphi
    out = out.reshape(shape)
    return out if out.shape else float(out)


def autocorr_mean_quad(f, s, n: int):
    """``E[f(s Z1) f(s Z2)]`` at the n correlations rho_k = cos(k pi / M),
    M = n + 1, k = 1..n, from one evaluation of f.

    The polar form of ``pair_mean_quad``, (Z1, Z2) = R (cos phi,
    cos(phi - theta_k)) with theta_k = k pi / M. The circle is cut into 2M
    cells of width pi / M, with edges at multiples of pi / M, offset by
    half a cell when M is odd: then the kinks of f at 0, on the rays
    phi = +-pi/2 and theta_k +- pi/2, lie on cell edges for every k, and
    the shift by theta_k maps cells onto cells. Each cell holds
    p = ceil(512 / M) sub-cells of 4 Gauss-Legendre nodes, laid out alike
    in every cell; the radius carries the 30 nodes on each of [0, 1],
    [1, 3], [3, ZMAX] of ``pair_mean_quad`` at 120 nodes. With
    F[r, c] = f(s R_r cos phi_c), c running over the cells at one node
    position, the angular sum at theta_k is the circular autocorrelation
    of F along the cells at lag k, taken as ``irfft(|rfft(F)|^2)`` after
    the weighted sum over the radii and node positions. The reflection
    phi -> 2 pi - phi takes node u of cell j, sub-cell s, to node -u of
    cell 2M - 1 - j (one cell further when M is odd), sub-cell p - 1 - s,
    where F takes the same values, as cos is even; a circular reversal and
    shift leave |rfft|^2 unchanged. So only the two nodes u < 0 are taken,
    at twice their weight: f is evaluated in 6 (radial panel, node) slabs
    of ~250 KB, one at a time, where the whole circle would take 12.
    """
    m = n + 1
    p = -(-512 // m)
    u, wu = _legendre(4)
    h = np.pi / m
    r, wr = _radial_rule(30)
    # cell edges in units of pi / M: pi / 2 is one of them
    cells = np.arange(2 * m) + 0.5 * (m % 2)
    subcells = np.arange(p)
    power = np.zeros(m + 1)
    # the nodes u < 0 stand for their reflections u > 0 too
    for ui, wi in zip(u[:2], 2.0 * wu[:2]):
        cosines = np.cos(h * (cells[:, None] + (subcells + 0.5 * (ui + 1.0)) / p))
        for panel in range(3):
            rows = slice(30 * panel, 30 * panel + 30)
            spec = np.fft.rfft(f(s * r[rows, None, None] * cosines), axis=1)
            power += (0.5 * wi * h / p) * (wr[rows] @ (spec.real ** 2 + spec.imag ** 2).sum(-1))
    return np.fft.irfft(power, 2 * m)[1:m]
