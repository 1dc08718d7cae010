"""Reference-free identities that tie the closed forms to each other.

For E = ``pair_mean``, D = ``pair_dot_mean`` and DD = ``pair_dd_mean``:

- Price in rho: E(rho1) - E(rho0) = s1 s2 times the integral of D over
  [rho0, rho1], by a 64-node Gauss-Legendre rule in rho.
- Price in s: at a fixed covariance k = s1 s2 rho (the coordinates of
  ``deep._layer_jacobian``), dE/d(s1^2) = DD / 2, so E at the end of a
  path in s1^2 minus E at its start is half the integral of DD over it.
- Cauchy-Schwarz: |E(s1, s2, rho)| <= sqrt(``diag_mean``(s1)
  ``diag_mean``(s2)); and D >= 0 where psi' >= 0 (all but GELU).

The grids are deterministic. ReLU, LReLU, GELU and ERF take s in
[1e-8, 25] on both signs of rho; ELU and SELU only the slice their forms
get right (README "Numerical notes"): rho >= 0 with s in [0.25, 10] and
rho < 0 with s in [0.25, 3]. The intervals cross the ELU/SELU band edge
|rho| = 0.925, where the Genz interior meets the 1-D tail rule. A gap is
relative to sqrt(diag1 diag2) for s1 < 0.5 and to max(1, that) above.
"""

import numpy as np
import pytest
from scipy.special import roots_legendre

from nnkernels.activations import ELU, ERF, GELU, RELU, lrelu, selu
from nnkernels.kernels import diag_mean, pair_dd_mean, pair_dot_mean, pair_mean

SELU = selu(1.0507009873554805, 1.6732632423543772)
ACTS = [RELU, lrelu(0.2), GELU, ERF, ELU, SELU]
GAP_TOL = 1e-14
_NODES, _WEIGHTS = roots_legendre(64)


def _slices(act):
    """(s1 grid, rho edges) per slice; s2 = 0.9 s1."""
    if act.kind in ("elu", "selu"):
        return [(np.geomspace(0.25, 10.0, 10), (0.0, 0.5, 0.99)),
                (np.geomspace(0.25, 3.0, 8), (-0.99, -0.5, 0.0))]
    return [(np.geomspace(1e-8, 25.0, 12), (-0.99, -0.5, 0.0, 0.5, 0.99))]


def _gauss_legendre(a, b):
    """Nodes (64, n) and weights (64, n) on [a, b] per column."""
    half = (b - a) / 2.0
    return a + half * (_NODES[:, None] + 1.0), half * _WEIGHTS[:, None]


def _relative(gap, act, s1, s2):
    scale = np.sqrt(diag_mean(act, s1) * diag_mean(act, s2))
    return np.abs(gap) / np.where(s1 < 0.5, scale, np.maximum(1.0, scale))


@pytest.mark.parametrize("act", ACTS, ids=lambda a: a.kind)
def test_price_in_rho(act):
    for s1, edges in _slices(act):
        s2 = 0.9 * s1
        for r0, r1 in zip(edges[:-1], edges[1:]):
            rho, w = _gauss_legendre(np.full(s1.size, r0), np.full(s1.size, r1))
            integral = s1 * s2 * (w * pair_dot_mean(act, s1, s2, rho)).sum(axis=0)
            gap = pair_mean(act, s1, s2, r1) - pair_mean(act, s1, s2, r0) - integral
            assert _relative(gap, act, s1, s2).max() <= GAP_TOL, (r0, r1)


@pytest.mark.parametrize("act", ACTS, ids=lambda a: a.kind)
def test_price_in_s(act):
    # s1 from s to 1.1 s at k = s 0.9 s rho0, so rho falls by 1 / 1.1:
    # from +-0.3 and from +-0.95, across the ELU/SELU band edge
    for s1, edges in _slices(act):
        s2 = 0.9 * s1
        signs = [1.0, -1.0] if edges[0] < 0.0 < edges[-1] else [np.sign(edges[0] + edges[-1])]
        for rho0 in (sign * r for sign in signs for r in (0.3, 0.95)):
            k = s1 * s2 * rho0
            end = 1.1 * s1
            v, w = _gauss_legendre(s1 * s1, end * end)
            path = np.sqrt(v)
            integral = 0.5 * (w * pair_dd_mean(act, path, s2, k / (path * s2))).sum(axis=0)
            gap = pair_mean(act, end, s2, k / (end * s2)) - pair_mean(act, s1, s2, rho0) - integral
            assert _relative(gap, act, s1, s2).max() <= GAP_TOL, rho0


@pytest.mark.parametrize("act", ACTS, ids=lambda a: a.kind)
def test_cauchy_schwarz(act):
    for s1, edges in _slices(act):
        s2 = 0.9 * s1
        rho = np.linspace(edges[0], edges[-1], 41)[:, None]
        bound = np.sqrt(diag_mean(act, s1) * diag_mean(act, s2))
        assert (np.abs(pair_mean(act, s1, s2, rho)) <= bound * (1.0 + 4e-16)).all()
        if act.kind != "gelu":  # psi' >= 0
            assert (pair_dot_mean(act, s1, s2, rho) >= 0.0).all()
