"""Tests of the benchmark itself: its oracles and its output checks.

    python3 -m pytest perfbench/test_perfbench.py -q

The oracles are compared with ``scipy.integrate`` and ``mpmath`` at a
few points, with activations written out again here. Each output check
is shown to pass on a real operation output and to reject the same
output perturbed.
"""

import dataclasses
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _psi(kind, x, deriv=False):
    """Scalar activations (and derivatives) in plain ``math``."""
    cdf = 0.5 * math.erfc(-x / math.sqrt(2.0))
    pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    if kind == "gelu":
        return cdf + x * pdf if deriv else x * cdf
    slope = {"relu": 0.0, "lrelu": oracles.LRELU_SLOPE}.get(kind)
    if x >= 0.0:
        return 1.0 if deriv else x
    if kind == "elu":
        return math.exp(x) if deriv else math.expm1(x)
    return slope if deriv else slope * x


def _pair_quad(kind, s1, s2, rho, deriv=False):
    """E[f(s1 Z1) f(s2 Z2)] by nested ``scipy.integrate.quad`` split at
    the kinks, Z2 = rho Z1 + tau G."""
    tau = math.sqrt(1.0 - rho * rho)
    phi = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)  # noqa: E731

    def inner(z):
        cut = -rho * z / tau
        g = lambda t: phi(t) * _psi(kind, s2 * (rho * z + tau * t), deriv)  # noqa: E731
        return sum(integrate.quad(g, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
                   for a, b in ((-12.0, cut), (cut, 12.0)))

    outer = lambda z: phi(z) * _psi(kind, s1 * z, deriv) * inner(z)  # noqa: E731
    return sum(integrate.quad(outer, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
               for a, b in ((-12.0, 0.0), (0.0, 12.0)))


POINTS = [(0.7, 1.3, 0.4), (2.0, 1.1, -0.6), (1.5, 1.5, 0.97)]


@pytest.mark.parametrize("kind", oracles.ACTIVATIONS)
@pytest.mark.parametrize("deriv", [False, True])
def test_pair_expectation_matches_scipy(kind, deriv):
    for s1, s2, rho in POINTS:
        ref = _pair_quad(kind, s1, s2, rho, deriv)
        got = oracles.pair_expectation(kind, s1, s2, rho, deriv)[0]
        assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref)), (s1, s2, rho, got, ref)


@pytest.mark.parametrize("kind", oracles.ACTIVATIONS)
@pytest.mark.parametrize("deriv", [False, True])
def test_conditional_mean_matches_mpmath(kind, deriv):
    f = (lambda x: _psi(kind, float(x), deriv))
    for mu, sig in [(0.3, 0.5), (-1.2, 2.0), (4.0, 0.05)]:
        g = lambda t: mpmath.npdf(t) * f(mu + sig * t)  # noqa: E731
        ref = float(mpmath.quad(g, [-mpmath.inf, *sorted((-mu / sig, 0.0)), mpmath.inf]))
        got = float(oracles.cond_mean(kind, np.float64(mu), np.float64(sig), deriv))
        assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), (mu, sig, got, ref)


@pytest.mark.parametrize("kind", oracles.ACTIVATIONS)
def test_diag_expectation_matches_scipy(kind):
    for s in (0.4, 1.0, 3.0):
        ref = sum(integrate.quad(lambda z: math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
                                 * _psi(kind, s * z) ** 2, a, b, epsabs=1e-14)[0]
                  for a, b in ((-12.0, 0.0), (0.0, 12.0)))
        assert oracles.diag_expectation(kind, s)[0] == pytest.approx(ref, rel=1e-11)


def test_arccos_recursion_matches_scipy():
    s1, s2, rho = 0.9, 1.4, -0.3
    k = oracles.relu_arccos_pairs([s1 * s1], [s2 * s2], [rho * s1 * s2], 2.0, 1)[0, 0]
    assert k == pytest.approx(2.0 * _pair_quad("relu", s1, s2, rho), rel=1e-10)


def test_lambda3_closed_form_matches_scipy():
    theta = 0.8
    ref = _pair_quad("lrelu", 1.0, 1.0, math.cos(theta), deriv=True) / (
        (1.0 + oracles.LRELU_SLOPE ** 2) / 2.0)
    assert oracles.lambda3_lrelu(oracles.LRELU_SLOPE, theta) == pytest.approx(ref, rel=1e-10)


def test_gp_dense_matches_mpmath():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, 2))
    K = X @ X.T + 0.5
    y = rng.standard_normal(3)
    mean, var = oracles.gp_dense(K[:3, :3], y, K[3:, :3], np.diag(K)[3:], 0.1)
    A = mpmath.matrix(K[:3, :3].tolist()) + 0.1 * mpmath.eye(3)
    weights = mpmath.lu_solve(A, mpmath.matrix(y.tolist()))
    for r in range(2):
        ks = mpmath.matrix(K[3 + r, :3].tolist())
        assert mean[r] == pytest.approx(float((ks.T * weights)[0]), rel=1e-12)
        assert var[r] == pytest.approx(float(K[3 + r, 3 + r] - (ks.T * mpmath.lu_solve(A, ks))[0]),
                                       rel=1e-10)


# --- each check rejects a perturbed output -----------------------------------

def _op(workload, label):
    return next(op for op in workload.ops if op.label == label)


@pytest.fixture(scope="module")
def sweep():
    wl = workloads.depth_sweep(5)
    return {label: (_op(wl, label), _op(wl, label).run()) for label in ("gelu/sin", "relu/saw")}


@pytest.mark.parametrize("label", ["gelu/sin", "relu/saw"])
def test_depth_sweep_kernel_scaled(sweep, label):
    op, out = sweep[label]
    assert op.check(out) == []
    bad = dict(out, sampled=out["sampled"] * (1.0 + 1e-6))
    assert any("kernel entries" in m for m in op.check(bad))


def test_depth_sweep_sigma_off(sweep):
    op, out = sweep["gelu/sin"]
    assert any("sigma*" in m for m in op.check(dict(out, sigma=out["sigma"] + 1e-4)))


def test_depth_sweep_gp_mean_scaled(sweep):
    op, out = sweep["relu/saw"]
    K, mean, var = out["full"][10]
    bad = dict(out, full={10: (K, mean * (1.0 + 1e-6), var)})
    assert any("GP mean" in m for m in op.check(bad))


def test_elu_gp_kernel_scaled():
    op = workloads.elu_gp(5).ops[0]
    out = op.run()
    assert op.check(out) == []
    K, mean, var = out[True]
    assert any("NTK entries" in m for m in op.check({**out, True: (K * (1.0 + 1e-6), mean, var)}))


def test_fixed_point_checks():
    wl = workloads.fixed_point_workload(5)
    ntk, gelu, lrelu = (_op(wl, label) for label in ("gelu-ntk/0", "gelu/norm=1.0",
                                                     "lrelu/norm=0.5"))
    out = ntk.run()
    assert ntk.check(out) == []
    assert any("NTK entries" in m for m in ntk.check(dict(out, K=out["K"] * (1.0 + 1e-6))))
    out = gelu.run()
    assert gelu.check(out) == []
    assert any("sigma*" in m for m in gelu.check(dict(out, sigma=out["sigma"] + 1e-4)))
    flipped = dataclasses.replace(out["report"], verdict="unique-contraction")
    assert any("verdict" in m for m in gelu.check(dict(out, report=flipped)))
    out = lrelu.run()
    assert lrelu.check(out) == []
    flipped = dataclasses.replace(out["report"], verdict="not-contraction")
    assert any("verdict" in m for m in lrelu.check(dict(out, report=flipped)))


def test_finite_width_curve_shifted():
    wl = workloads.finite_width_workload(5)
    outputs = {i: wl.ops[i].run() for i in (0, 1)}
    assert wl.pooled_check(outputs) == []
    shifted = {i: dict(out, emp=out["emp"] + 0.03) for i, out in outputs.items()}
    assert wl.pooled_check(shifted)


# --- tracing -----------------------------------------------------------------

def test_tracer_counts_and_restores():
    import nnkernels.deep as deep
    import nnkernels.gp as gp
    original = deep.kernel_matrices_by_depth
    op = workloads.depth_sweep(5).ops[0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        op.run()
    finally:
        tracer.uninstall()
    assert deep.kernel_matrices_by_depth is original and gp.fit.__module__ == "nnkernels.gp"
    n = workloads.DS_N_TRAIN + workloads.DS_GRID
    assert tracer.counters["deep.pair_layers"] == n * (n + 1) // 2 * 100
    assert tracer.stats["deep.kernel_matrices_by_depth"].calls == 101  # 100 + exhaustion
    assert tracer.stats["gp.fit"].calls == 100 and tracer.stats["gp.predict"].calls == 200
    for st in tracer.stats.values():
        assert 0.0 <= st.self_s <= st.total_s + 1e-12
    metrics = spans.per_layer(tracer, 1, 0.0)
    assert metrics["kernels.pair_mean.gelu.items"][0] == n * (n - 1) // 2 * 100
