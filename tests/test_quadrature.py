"""The 2-D quadrature oracle: batching is exact, memory stays small, and
the polar rule meets exact references, the correlation endpoints included."""

import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from nnkernels import activations as am
from nnkernels.activations import ELU, GELU, RELU, lrelu
from nnkernels.fixed_point import lambda3_quad_grid, sigma_star
from nnkernels.kernels import pair_mean
from nnkernels.quadrature import autocorr_mean_quad, pair_mean_quad

# a kinked integrand (the LReLU step derivative) and a smooth one
INTEGRANDS = {"lrelu-deriv": lambda z: am.deriv(lrelu(0.2), z),
              "gelu": lambda z: am.eval(GELU, z)}


def _lrelu_step_exact(s1, s2, rho, a=0.2):
    # E[psi'(s1 Z1) psi'(s2 Z2)] for the LReLU step: 1 on the two quadrants
    # of equal sign (mass (pi - theta) / 2pi each), a on the others
    theta = np.arccos(rho)
    return (1.0 - a) ** 2 * (np.pi - theta) / (2.0 * np.pi) + a


EXACT = {"lrelu-deriv": _lrelu_step_exact,
         "gelu": lambda s1, s2, rho: pair_mean(GELU, s1, s2, rho)}


def _entries(n):
    rng = np.random.default_rng(n)
    s1, s2 = rng.uniform(0.3, 3.0, (2, n))
    rho = np.concatenate([[1.0, -(1.0 - 1e-13)], rng.uniform(-1.0, 1.0, n)])[:n]
    return s1, s2, rho


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
    # the same entries against closed forms, rho = 1 and -(1 - 1e-13) included
    exact = EXACT[name](s1.ravel(), s2.ravel(), rho.ravel())
    assert np.abs(single - exact).max() <= 1e-13


@pytest.mark.parametrize("rho, exact", [(1.0, 0.5), (-1.0, 0.0)])
def test_relu_at_the_correlation_endpoints(rho, exact):
    # at rho = +-1 two angular panels are empty and the other two carry
    # all the nodes: E[relu(s1 Z) relu(+-s2 Z)] = s1 s2 / 2 or 0
    f = lambda z: am.eval(RELU, z)
    for s1, s2 in ((1.0, 1.0), (0.3, 2.5), (4.0, 0.7)):
        assert abs(pair_mean_quad(f, f, s1, s2, rho) - exact * s1 * s2) <= 1e-14


ENDPOINT_RHOS = (1.0, -1.0, 1.0 - 1e-13, -(1.0 - 1e-13))


@pytest.mark.parametrize("rho", ENDPOINT_RHOS + (-0.6, 0.0, 0.37, 0.99))
def test_general_path_at_the_correlation_endpoints(rho):
    # two different integrands: E[relu(s1 Z1) 1{Z2 >= 0}] = s1 (1 + rho) / (2 sqrt(2 pi))
    relu = lambda z: am.eval(RELU, z)
    step = lambda z: (z >= 0.0).astype(float)
    for s1, s2 in ((1.0, 1.0), (0.3, 2.5), (4.0, 0.7)):
        exact = s1 * (1.0 + rho) / (2.0 * np.sqrt(2.0 * np.pi))
        assert abs(pair_mean_quad(relu, step, s1, s2, rho) - exact) <= 1e-13 * max(1.0, s1)


@pytest.mark.parametrize("rho", ENDPOINT_RHOS + (0.3,))
def test_equal_factors_meet_the_closed_form(rho):
    # f2 is f1 at one scale, as in every self-product of the oracles
    f = INTEGRANDS["gelu"]
    s = 1.7
    assert abs(pair_mean_quad(f, f, s, s, rho) - pair_mean(GELU, s, s, rho)) <= 1e-13


@pytest.mark.parametrize("rho", [np.nan, 1.5, -1.0000001])
def test_rejects_correlations_outside_the_closed_interval(rho):
    f = INTEGRANDS["gelu"]
    with pytest.raises(ValueError, match="correlation"):
        pair_mean_quad(f, f, 1.0, 1.0, rho)
    with pytest.raises(ValueError, match="correlation"):
        pair_mean_quad(f, f, [1.0, 1.0], 1.0, [0.5, rho])


@pytest.mark.parametrize("nodes", [2, 3, 4, 10, 19])
def test_rejects_too_few_nodes(nodes):
    f = INTEGRANDS["gelu"]
    with pytest.raises(ValueError, match="nodes"):
        pair_mean_quad(f, f, 1.0, 1.0, 0.5, nodes=nodes)


def _elu_dot_mpmath(s, rho):
    # E[psi'(s Z1) psi'(s Z2)] for the ELU: given Z1 = z, X = s Z2 is
    # N(m, v^2) with m = s rho z, v = s tau, and
    # E[psi'(X)] = Phi(m / v) + exp(m + v^2 / 2) Phi(-m / v - v)
    s, rho = mp.mpf(s), mp.mpf(rho)
    v = s * mp.sqrt(1 - rho * rho)

    def inner(z):
        m = s * rho * z
        return mp.ncdf(m / v) + mp.exp(m + v * v / 2) * mp.ncdf(-m / v - v)

    def outer(z):
        d1 = 1 if z > 0 else mp.exp(s * z)
        return d1 * inner(z) * mp.npdf(z)

    return mp.quad(outer, [-mp.inf, 0, mp.inf])


def test_elu_dot_oracle_against_mpmath_at_s7():
    # sigma*(ELU) x 5 on the `nnk fixedpoint` grid, where the closed form
    # is 1.6e-11 off (ROADMAP item 2); both oracles must hold to 1e-13.
    # rho is cos(337 pi / 513), the grid's angle nearest -0.473
    s, rho = 7.011889768764377, -0.47325223402736816
    assert np.cos(np.pi * 337 / 513.0) == rho
    with mp.workdps(30):
        ref = _elu_dot_mpmath(s, rho)
        assert abs(ref - mp.mpf("0.2340692418881439809")) < 1e-18
    f = lambda z: am.deriv(ELU, z)
    assert abs(pair_mean_quad(f, f, s, s, rho) - float(ref)) <= 1e-13
    assert abs(autocorr_mean_quad(f, s, 512)[336] - float(ref)) <= 1e-13


def test_lambda3_grid_evaluates_psi_prime_on_half_the_circle(monkeypatch):
    # psi' is evaluated once for all 512 angles, not once per angle:
    # 4 nodes x 90 radii x 1026 cells of one sub-cell each, 369,360 points,
    # one node at a time
    sizes, deriv = [], am.deriv

    def counted(act, z):
        sizes.append(z.size)
        return deriv(act, z)

    monkeypatch.setattr(am, "deriv", counted)
    s = sigma_star(GELU, 1.0)
    lambda3_quad_grid(GELU, s, np.pi * (np.arange(512) + 1.0) / 513.0, s * s, 0.0)
    assert sum(sizes) == 369_360 and len(sizes) == 4


def test_lambda3_grid_peak_memory_is_tile_sized():
    # the 512-angle sweep of `nnk fixedpoint`: psi' is evaluated on a
    # (90, 1026) grid of ~740 KB per node position, one at a time (its
    # spectrum and the integrand's temporaries add a few more), where one
    # (90, 240) grid per angle would be 88 MB
    s = sigma_star(GELU, 1.0)
    thetas = np.pi * (np.arange(512) + 1.0) / 513.0
    tracemalloc.start()
    try:
        lambda3_quad_grid(GELU, s, thetas, s * s, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
