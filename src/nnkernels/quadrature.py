"""Gaussian-expectation quadrature over two correlated standard normals,
the independent oracle of the closed forms: the test oracles build on
the polar rule ``pair_mean_quad``, and ``fixed_point.lambda3_quad_grid``
on ``autocorr_mean_quad``. No production path calls either; they stay
in the package because ``perfbench/spans.py`` traces ``pair_mean_quad``
and ``lambda3_quad_grid`` by name.

For smooth integrands plain Gauss-Hermite converges spectrally, but the
piecewise activations (ReLU/LReLU/ELU/SELU) have kinks or jumps at 0,
where Gauss-Hermite stalls at ~1e-4..1e-5 relative error even with
hundreds of nodes. Both rules therefore take polar coordinates
(Z1, Z2) = R (cos phi, cos(phi - theta)), rho = cos theta, where the
kinks of f1(s1 Z1) and f2(s2 Z2) lie on four rays through the origin,
and put Gauss-Legendre panels between those rays. Truncating the radius
at ZMAX = 9.5 costs < 1e-17 for polynomially bounded integrands.
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


def pair_mean_quad(f1, f2, s1, s2, rho, nodes: int = 120):
    """``E[f1(s1 Z1) f2(s2 Z2)]`` with corr(Z1, Z2) = rho, batched.

    In the polar form the kinks of f1 lie on the rays phi = +-pi/2 and
    those of f2 on phi = theta +- pi/2, which cut the circle into four
    panels of widths theta, pi - theta, theta, pi - theta (two of them,
    of width pi, at rho = +-1). Each panel carries ``nodes // 2``
    Gauss-Legendre nodes in phi (``nodes`` at rho = +-1), and the radius
    ``nodes // 4`` on each of [0, 1], [1, 3], [3, ZMAX]. s1, s2, rho may
    be arrays of a common shape; returns that shape. Entries run one at
    a time, so a batch equals its one-entry calls bit for bit.
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
        widths = np.array([theta[i], np.pi - theta[i]] * 2)
        widths = widths[widths > 0.0]
        edges = np.concatenate([[0.0], np.cumsum(widths)]) - np.pi / 2.0
        phi, wphi = _gauss_panels(edges, 2 * nodes // widths.size)
        vals = f1(np.outer(s1f[i] * r, np.cos(phi)))
        vals *= f2(np.outer(s2f[i] * r, np.cos(phi - theta[i])))
        out[i] = wr @ vals @ wphi
    out = out.reshape(shape)
    return out if out.shape else float(out)


def autocorr_mean_quad(f, s, n: int):
    """``E[f(s Z1) f(s Z2)]`` at the n correlations rho_k = cos(k pi / M),
    M = n + 1, k = 1..n, from one evaluation of f.

    The circle is cut into 2M cells of width pi / M, with edges at
    multiples of pi / M, offset by half a cell when M is odd: then the
    kinks of f on the rays phi = +-pi/2 and theta_k +- pi/2,
    theta_k = k pi / M, lie on cell edges for every k, and the shift by
    theta_k maps cells onto cells. Each cell holds p = ceil(512 / M)
    sub-cells of 4 Gauss-Legendre nodes, laid out alike in every cell;
    the radius carries the 30 nodes on each of [0, 1], [1, 3], [3, ZMAX]
    of ``pair_mean_quad`` at 120 nodes. With F[r, c] = f(s R_r cos phi_c),
    c running over the cells at one node position, the angular sum at
    theta_k is the circular autocorrelation of F along the cells at lag
    k, taken as ``irfft(|rfft(F)|^2)`` after the weighted sum over the
    radii and node positions. f is evaluated one node position at a
    time.
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
    for ui, wi in zip(u, wu):
        cosines = np.cos(h * (cells[:, None] + (subcells + 0.5 * (ui + 1.0)) / p))
        spec = np.fft.rfft(f(s * r[:, None, None] * cosines), axis=1)
        power += (0.5 * wi * h / p) * (wr @ (spec.real ** 2 + spec.imag ** 2).sum(-1))
    return np.fft.irfft(power, 2 * m)[1:m]
