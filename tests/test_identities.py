"""Reference-free identities that tie the closed forms to each other.

For E = ``pair_mean``, D = ``pair_dot_mean`` and DD = ``pair_dd_mean``:

- Price in rho: E(rho1) - E(rho0) = s1 s2 times the integral of D over
  [rho0, rho1], by a 64-node Gauss-Legendre rule in theta = arccos rho,
  in which the integrand stays smooth up to rho = +-1.
- Price in s: at a fixed covariance k = s1 s2 rho (the coordinates of
  ``deep._layer_jacobian``), dE/d(s1^2) = DD / 2, so E at the end of a
  path in s1^2 minus E at its start is half the integral of DD over it,
  taken in theta = arccos rho along the path (s1 = k / (s2 cos theta)).
- Cauchy-Schwarz: |E(s1, s2, rho)| <= sqrt(``diag_mean``(s1)
  ``diag_mean``(s2)); and D >= 0 where psi' >= 0 (all but GELU).

The grids are deterministic, and a ``hypothesis`` property draws Price in
rho and Cauchy-Schwarz over the same domain. ReLU, LReLU, GELU and ERF
take s in [1e-10, 25] and rho up to +-(1 - 1e-13); ELU and SELU only the
slice their forms get right (README "Numerical notes"): rho >= 0 with s
in [0.25, 10] and rho < 0 with s in [0.25, 3]. The intervals cross the
ELU/SELU band edge |rho| = 0.925, where the Genz interior meets the 1-D
tail rule. A gap is relative to sqrt(diag1 diag2) for s1 < 0.5 and to
max(1, that) above.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_legendre

from nnkernels.activations import ELU, ERF, GELU, RELU, lrelu, selu
from nnkernels.kernels import diag_mean, pair_dd_mean, pair_dot_mean, pair_mean

SELU = selu(1.0507009873554805, 1.6732632423543772)
ACTS = [RELU, lrelu(0.2), GELU, ERF, ELU, SELU]
GAP_TOL = 1e-14
_NODES, _WEIGHTS = roots_legendre(64)


RHO_MAX = 1.0 - 1e-13
EDGES = (-RHO_MAX, -0.99, -0.5, 0.0, 0.5, 0.99, RHO_MAX)


def _slices(act):
    """(s1 grid, rho edges) per slice; s2 = 0.9 s1."""
    if act.kind in ("elu", "selu"):
        return [(np.geomspace(0.25, 10.0, 10), (0.0, 0.5, 0.99)),
                (np.geomspace(0.25, 3.0, 8), (-0.99, -0.5, 0.0))]
    return [(np.geomspace(1e-10, 25.0, 16), EDGES)]


def _gauss_legendre(a, b):
    """Nodes (64, n) and weights (64, n) on [a, b] per column."""
    half = (b - a) / 2.0
    return a + half * (_NODES[:, None] + 1.0), half * _WEIGHTS[:, None]


def _relative(gap, act, s1, s2):
    scale = np.sqrt(diag_mean(act, s1) * diag_mean(act, s2))
    return np.abs(gap) / np.where(s1 < 0.5, scale, np.maximum(1.0, scale))


def _price_in_rho_gap(act, s1, r0, r1):
    """Relative gap of Price in rho over [r0, r1], s2 = 0.9 s1; with rho =
    cos theta, d rho = -sin theta d theta."""
    s2 = 0.9 * s1
    theta, w = _gauss_legendre(np.arccos(np.full(s1.size, r0)), np.arccos(np.full(s1.size, r1)))
    integral = -s1 * s2 * (w * np.sin(theta) * pair_dot_mean(act, s1, s2, np.cos(theta))).sum(0)
    return _relative(pair_mean(act, s1, s2, r1) - pair_mean(act, s1, s2, r0) - integral,
                     act, s1, s2)


@pytest.mark.parametrize("act", ACTS, ids=lambda a: a.kind)
def test_price_in_rho(act):
    for s1, edges in _slices(act):
        for r0, r1 in zip(edges[:-1], edges[1:]):
            assert _price_in_rho_gap(act, s1, r0, r1).max() <= GAP_TOL, (r0, r1)


@pytest.mark.parametrize("act", ACTS, ids=lambda a: a.kind)
def test_price_in_s(act):
    # s1 from s to 1.1 s at k = s 0.9 s rho0, so rho falls by 1 / 1.1:
    # from +-0.3, +-0.95 and the slice's largest |rho|, across the ELU/SELU
    # band edge; along the path s1 = k / (s2 cos theta), so d(s1^2) =
    # 2 k^2 sin theta / (s2^2 cos^3 theta) d theta
    for s1, edges in _slices(act):
        s2 = 0.9 * s1
        signs = [1.0, -1.0] if edges[0] < 0.0 < edges[-1] else [np.sign(edges[0] + edges[-1])]
        for rho0 in (sign * r for sign in signs for r in (0.3, 0.95, max(np.abs(edges)))):
            k = s1 * s2 * rho0
            theta, w = _gauss_legendre(np.full(s1.size, np.arccos(rho0)),
                                       np.full(s1.size, np.arccos(rho0 / 1.1)))
            c = np.cos(theta)
            ds_sq = 2.0 * k * k * np.sin(theta) / (s2 * s2 * c ** 3)
            integral = 0.5 * (w * ds_sq * pair_dd_mean(act, k / (s2 * c), s2, c)).sum(axis=0)
            end = k / (s2 * (rho0 / 1.1))
            gap = pair_mean(act, end, s2, rho0 / 1.1) - pair_mean(act, s1, s2, rho0) - integral
            assert _relative(gap, act, s1, s2).max() <= GAP_TOL, rho0


def _cauchy_schwarz(act, s1, rho):
    s2 = 0.9 * s1
    bound = np.sqrt(diag_mean(act, s1) * diag_mean(act, s2))
    assert (np.abs(pair_mean(act, s1, s2, rho)) <= bound * (1.0 + 4e-16)).all()
    if act.kind != "gelu":  # psi' >= 0
        assert (pair_dot_mean(act, s1, s2, rho) >= 0.0).all()


@pytest.mark.parametrize("act", ACTS, ids=lambda a: a.kind)
def test_cauchy_schwarz(act):
    for s1, edges in _slices(act):
        _cauchy_schwarz(act, s1, np.linspace(edges[0], edges[-1], 41)[:, None])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(act=st.sampled_from(ACTS[:4]), log_s=st.floats(np.log(1e-10), np.log(25.0)),
       r=st.lists(st.floats(-RHO_MAX, RHO_MAX), min_size=2, max_size=2))
def test_identities_property(act, log_s, r):
    # Price in rho from r0 to r1 on panels split at the grid's edges, and
    # Cauchy-Schwarz at both ends
    s1, (r0, r1) = np.array([np.exp(log_s)]), sorted(r)
    panels = [r0, *(e for e in EDGES if r0 < e < r1), r1]
    for a, b in zip(panels[:-1], panels[1:]):
        assert _price_in_rho_gap(act, s1, a, b).max() <= GAP_TOL, (a, b)
    _cauchy_schwarz(act, s1, np.array([r0, r1]))
