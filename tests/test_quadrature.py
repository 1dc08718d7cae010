"""The 2-D quadrature oracle's tiles: batching is exact and memory stays small."""

import tracemalloc

import numpy as np
import pytest
from scipy.special import roots_legendre

from nnkernels import activations as am
from nnkernels.activations import GELU, lrelu
from nnkernels.fixed_point import lambda3_quad_grid, sigma_star
from nnkernels.quadrature import ZMAX, normal_panel_nodes, pair_mean_quad
from nnkernels.special import std_normal_pdf

# a kinked integrand (the LReLU step derivative) and a smooth one
INTEGRANDS = {"lrelu-deriv": lambda z: am.deriv(lrelu(0.2), z),
              "gelu": lambda z: am.eval(GELU, z)}


def _entries(n):
    rng = np.random.default_rng(n)
    s1, s2 = rng.uniform(0.3, 3.0, (2, n))
    rho = np.concatenate([[1.0, -(1.0 - 1e-13)], rng.uniform(-1.0, 1.0, n)])[:n]
    return s1, s2, rho


def _whole_row_rule(f1, f2, s1, s2, rho, nodes):
    """One entry of the tensor rule on its whole (2 * nodes, nodes) grid:
    each half-panel summed over its inner nodes, then the outer sum."""
    z1, w1 = normal_panel_nodes(nodes, (0.0,))
    x, w = roots_legendre(nodes)
    r = np.clip(np.float64(rho), -1.0 + 1e-15, 1.0 - 1e-15)
    t = np.sqrt(1.0 - r * r)
    cut = np.clip(-r * z1 / t, -ZMAX, ZMAX)
    acc = np.zeros_like(cut)
    for lo, hi in ((-ZMAX, cut), (cut, ZMAX)):
        half = 0.5 * (hi - lo)
        z2 = half[:, None] * x + 0.5 * (lo + hi)[:, None]
        wz = half[:, None] * w * std_normal_pdf(z2)
        acc += (wz * f2(s2 * (r * z1[:, None] + t * z2))).sum(axis=-1)
    return (w1 * f1(s1 * z1) * acc).sum()


@pytest.mark.parametrize("nodes", [120, 200])
@pytest.mark.parametrize("name", sorted(INTEGRANDS))
@pytest.mark.parametrize("shape", [(1,), (2,), (7,), (3, 4)], ids=str)
def test_batch_equals_one_entry_calls_bit_for_bit(shape, name, nodes):
    f = INTEGRANDS[name]
    s1, s2, rho = (v.reshape(shape) for v in _entries(int(np.prod(shape))))
    batch = pair_mean_quad(f, f, s1, s2, rho, nodes=nodes)
    assert batch.shape == shape
    single = np.array([pair_mean_quad(f, f, a, b, r, nodes=nodes)
                       for a, b, r in zip(s1.ravel(), s2.ravel(), rho.ravel())])
    assert np.array_equal(batch.ravel(), single)
    # the tiles keep the summation order of the whole-row rule
    whole = [_whole_row_rule(f, f, a, b, r, nodes)
             for a, b, r in zip(s1.ravel(), s2.ravel(), rho.ravel())]
    assert np.array_equal(single, whole)


def test_lambda3_grid_peak_memory_is_tile_sized():
    # the 512-angle sweep of `nnk fixedpoint`: its peak is ~0.7 MB in tiles,
    # and 192 MB when 145 entries share one (145, 240, 120) block
    s = sigma_star(GELU, 1.0)
    thetas = np.pi * (np.arange(512) + 1.0) / 513.0
    tracemalloc.start()
    try:
        lambda3_quad_grid(GELU, s, thetas, s * s, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
