"""Single-layer kernels k and derivative kernels k-dot.

For zero-mean weight priors the kernel of one infinitely wide layer is

    k = sigma_w^2 E[psi(s1 Z1) psi(s2 Z2)] + sigma_b^2,

with (Z1, Z2) standard bivariate normal, correlation rho = cos(theta).
This module provides closed forms for every supported activation, plus
quadrature and Monte-Carlo oracles for checking them. All closed-form
paths are vectorized over (s1, s2, rho) arrays of a common shape.

Closed forms:
  ReLU / LReLU  arc-cosine degree-1 (Cho & Saul, 2009) plus the linear
                part of the leaky slope;
  ERF           Williams' (1997) arcsine kernel;
  GELU          rational/arctan expression in s1, s2, cos(theta);
  ELU / SELU    the arc-cosine term of the linear parts plus
                exponential cross terms, each a bivariate normal CDF
                kept finite via bvn_cdf_exp and expscaled_cdf.

The derivative kernel k-dot = sigma_w^2 E[psi'(s1 Z1) psi'(s2 Z2)] is
closed-form for every activation as well:
  ReLU / LReLU  quadrant probability plus the leaky slope;
  ERF           a Gaussian integral of erf' products (Williams, 1997);
  GELU          an arcsine quadrant term plus two algebraic terms, from
                psi'(z) = Phi(z) + z phi(z);
  ELU / SELU    the quadrant term plus exponential cross terms, through
                bvn_cdf_exp.

So is ``pair_dd_mean``, D = E[psi''(s1 Z1) psi(s2 Z2)] (a kink adds a
delta to psi''): by Price's theorem, 2 dE[psi psi]/ds1^2, the entry the
layer Jacobian in ``deep`` is built from. ``pair_moments`` gives
E[psi psi] and E[psi' psi'] together, for the tangent-kernel step. For
ELU/SELU all three come from one evaluator, ``_elu_moments``: five bvn
terms per entry from three Genz integrals, in one ``bvn_halves_exp`` call
per chunk of entries; for 0.925 <= |rho| < 1 a 1-D Gauss-Legendre rule
over Z1 of closed-form conditional moments; at rho = +-1 the limits.
``diag_mean`` is ``pair_mean`` at rho = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, ndtr, roots_legendre

from . import activations as act_mod
from .activations import Activation, _selu_params
from .quadrature import ZMAX, pair_mean_quad
from .special import (GENZ_RHO_MAX, SQRT_2PI, TWO_PI, _check_correlation,
                      bvn_halves_exp, expscaled_cdf)

# e^(s^2)-type factors in the ELU/SELU closed forms leave double range
# (even with exponent folding on the bvn side) beyond this.
ELU_S_MAX = 25.0

_RHO_EPS = 1e-12  # |rho| >= 1 - _RHO_EPS is routed to endpoint limits

# Interior ELU/SELU entries per bvn_halves_exp call, of three bvn rows
# each: each batch-sized array of its front end is at most 24 KB and the
# peak memory stays bounded whatever the batch size. CHANGES.md records
# the sweep behind it.
_ELU_CHUNK = 1024

# The tail-band rule: 16-node Gauss-Legendre panels on each side of the
# kink at 0, between 0, 1, 2, 4, ZMAX, c / max(s1, 1) and c min(1, tau/|rho|)
# for c = 1/16 .. 8, 640 nodes per entry; 32 entries per call keep each
# (entries, 640) temporary at 160 KB, where unchunked calls raised the
# peak RSS of the `fixed_point` benchmark from 84.5 to 89.6 MB.
_TAIL_NODES, _TAIL_WEIGHTS = roots_legendre(16)
_TAIL_SCALES = 2.0 ** np.arange(-4, 4)
_TAIL_EDGES = np.array([0.0, 1.0, 2.0, 4.0, ZMAX])
_TAIL_CHUNK = 32


@dataclass(frozen=True)
class KernelArgs:
    """Arguments of the layer kernel: signal norms, correlation, variances."""

    s1: float
    s2: float
    rho: float
    sigma_w2: float = 1.0
    sigma_b2: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.s1) and np.isfinite(self.s2)):
            raise ValueError("s1, s2 must be finite")
        if self.s1 <= 0.0 or self.s2 <= 0.0:
            raise ValueError("s1, s2 must be strictly positive")
        _check_correlation(self.rho)
        if self.sigma_w2 < 0.0 or self.sigma_b2 < 0.0:
            raise ValueError("variances must be nonnegative")


def _arccos_theta(rho):
    return np.arccos(np.clip(rho, -1.0, 1.0))


def _lrelu_slope(act: Activation) -> float:
    if act.kind == "relu":
        return 0.0
    return act.lrelu_slope


def _elu_moments(act, s1, s2, rho):
    """``(E[psi psi], E[psi' psi'], E[psi'' psi])`` for ELU/SELU, vectorized.

    Entries with |rho| >= 1 - _RHO_EPS take their rho = +-1 limits. The
    rest take five bvn terms, evaluated on those entries only, so the
    limits cost no bvn work: E(s1, s2), E(s1, 0), E(0, s2) with
    E(a, b) = E[e^(a Z1 + b Z2); Z1 < 0, Z2 < 0], and B(s1), B(s2) with
    B(b) = E[e^(b Z2); Z1 > 0, Z2 < 0]. Each B is the other half of the
    E with the same exponent, so ``bvn_halves_exp`` gives all five from
    the three E rows at correlation cos(theta): three Genz integrals per
    entry. Where |cos theta| >= ``GENZ_RHO_MAX``, the band ``bvn`` refuses,
    ``_elu_tail`` integrates over Z1 instead. Each band runs in chunks,
    of at most ``_ELU_CHUNK`` and ``_TAIL_CHUNK`` entries.
    """
    s1, s2, rho = _broadcast(s1, s2, rho)
    if (s1 > ELU_S_MAX).any() or (s2 > ELU_S_MAX).any():
        raise OverflowError(f"ELU/SELU closed form limited to s <= {ELU_S_MAX}; exponential "
                            "factors overflow the double range beyond that")
    lam, alpha = _selu_params(act)
    l2, a2 = lam * lam, alpha * alpha
    c1, c2, c12 = expscaled_cdf(np.stack([s1, s2, s1 + s2]))
    hi = rho > 0.0
    outs = [np.where(hi, l2 * (s1 * s2 / 2.0 + a2 * (c12 - c1 - c2 + 0.5)),
                     -l2 * alpha * s1 * s2 * (c1 + c2)),
            np.where(hi, l2 * (0.5 + a2 * c12), l2 * (alpha * (c1 + c2))),
            np.where(hi, l2 * (a2 * (c12 - c1)), l2 * (alpha * s2 * (1.0 / SQRT_2PI - s1 * c1)))]
    mid = ~(np.abs(rho) >= 1.0 - _RHO_EPS)  # NaN stays inside, to be refused by bvn
    # the band on the correlation that _elu_interior hands to bvn
    tail = mid & (np.abs(np.cos(_arccos_theta(rho))) >= GENZ_RHO_MAX)
    for band, rule, size, args in ((mid & ~tail, _elu_interior, _ELU_CHUNK, (s1, s2, rho, c1)),
                                   (tail, _elu_tail, _TAIL_CHUNK, (s1, s2, rho))):
        entries = np.flatnonzero(band)
        for i in range(0, entries.size, size):
            # take and put index the C-order flattening whatever the layout
            idx = entries[i:i + size]
            vals = rule(l2, alpha, *(np.take(a, idx) for a in args))
            for out, v in zip(outs, vals):
                np.put(out, idx, v)
    return [out if out.shape else float(out) for out in outs]


def _elu_interior(l2, alpha, s1, s2, rho, c1):
    """``_elu_moments`` at |cos theta| < ``GENZ_RHO_MAX``, c1 = expscaled_cdf(s1)."""
    a2 = alpha * alpha
    theta = _arccos_theta(rho)
    sn, cs = np.sin(theta), np.cos(theta)
    # E(s1, 0) enters with its arguments swapped, so that B(s1) is its
    # upper half as B(s2) is that of E(0, s2)
    (e12, e10, e01), (b1, b2) = bvn_halves_exp(
        np.stack([-(s1 + s2 * cs), -(s1 * cs), -(s2 * cs)]),
        np.stack([-(s1 * cs + s2), -s1, -s2]),
        cs,
        np.stack([(s1 * s1 + 2.0 * s1 * s2 * cs + s2 * s2) / 2.0, s1 * s1 / 2.0, s2 * s2 / 2.0]),
        slice(1, None))
    quadrant = (np.pi - theta) / TWO_PI  # P(Z1 < 0, Z2 < 0)
    x1, x2 = expscaled_cdf(np.stack([s1 * sn, s2 * sn]))
    # E[Theta(Z1) Z1 Theta(-Z2)(e^{s2 Z2} - 1)] and its mirror, the linear
    # side's scale factored out by homogeneity
    cross = (s1 * ((x2 - 0.5) / SQRT_2PI + s2 * cs * b2)
             + s2 * ((x1 - 0.5) / SQRT_2PI + s1 * cs * b1))
    mean = l2 * (s1 * s2 * (sn + (np.pi - theta) * cs) / TWO_PI + alpha * cross
                 + a2 * (e12 - e10 - e01 + quadrant))
    dot = l2 * (quadrant + alpha * (b2 + b1) + a2 * e12)
    lin = s2 * ((x1 - cs / 2.0) / SQRT_2PI + s1 * cs * (c1 - e10))
    jump = (s2 * sn / SQRT_2PI + alpha * (x2 - 0.5)) / (SQRT_2PI * s1)
    dd = l2 * (alpha * (lin + alpha * (e12 - e10)) + (1.0 - alpha) * jump)
    return mean, dot, dd


def _elu_tail(l2, alpha, s1, s2, rho):
    """``_elu_moments`` where |cos theta| >= ``GENZ_RHO_MAX``, by one 1-D
    rule over Z1 = z. Given z, Y = s2 Z2 is N(s2 rho z, v^2), v = s2 tau,
    tau = sqrt(1 - rho^2), so E[psi(Y) | z] and E[psi'(Y) | z] are closed
    forms (``_conditional``); the moments integrate them against
    phi(z) psi(s1 z), phi(z) psi'(s1 z) and phi(z) psi''(s1 z), whose kink
    at 0 adds (1 - alpha) phi(0) E[psi(Y) | 0] / s1.
    """
    tau = np.sqrt((1.0 - rho) * (1.0 + rho))
    n = s1.size
    edges = np.sort(np.hstack([np.broadcast_to(_TAIL_EDGES, (n, _TAIL_EDGES.size)),
                               np.outer(1.0 / np.maximum(s1, 1.0), _TAIL_SCALES),
                               np.outer(np.minimum(1.0, tau / np.abs(rho)), _TAIL_SCALES)]),
                    axis=1)
    half = np.diff(edges, axis=1)[..., None] / 2.0
    z = (edges[:, :-1, None] + half * (_TAIL_NODES + 1.0)).reshape(n, -1)
    w = (half * _TAIL_WEIGHTS).reshape(n, -1) * np.exp(-0.5 * z * z) / SQRT_2PI
    v = s2 * tau
    (g_pos, g_neg), (d_pos, d_neg) = (
        np.hsplit(c, 2) for c in _conditional(alpha, (rho / tau)[:, None] * np.hstack([z, -z]),
                                              v[:, None]))
    sz = s1[:, None] * z
    e = np.exp(-sz)  # psi'(-s1 z) / (lam alpha)
    mean = (w * (sz * g_pos + alpha * np.expm1(-sz) * g_neg)).sum(axis=1)
    dot = (w * (d_pos + alpha * e * d_neg)).sum(axis=1)
    kink = _conditional(alpha, np.zeros(n), v)[0] / (SQRT_2PI * s1)
    dd = alpha * (w * e * g_neg).sum(axis=1) + (1.0 - alpha) * kink
    return l2 * mean, l2 * dot, l2 * dd


def _conditional(alpha, t, v):
    """``(E[psi(Y)], E[psi'(Y)])`` at lam = 1 for Y ~ N(t v, v^2), from
    E[Y; Y > 0] = v (t Phi(t) + phi(t)) and E[e^Y; Y < 0] =
    exp(t v + v^2/2) Phi(-t - v), the latter as
    exp(-t^2/2) erfcx((t + v)/sqrt(2)) / 2 where t + v >= 0: each form on
    its own entries, where it cannot overflow."""
    u = t + v
    pdf = np.exp(-0.5 * t * t)
    ey = np.empty(u.shape)
    up = u >= 0.0
    ey[up] = pdf[up] * erfcx(u[up] / np.sqrt(2.0)) / 2.0
    low = ~up
    ey[low] = np.exp((v * (t + v / 2.0))[low]) * ndtr(-u[low])
    cdf = ndtr(t)
    return v * (t * cdf + pdf / SQRT_2PI) + alpha * (ey - ndtr(-t)), cdf + alpha * ey


def _broadcast(*arrays):
    return np.broadcast_arrays(*[np.asarray(v, dtype=float) for v in arrays])


def pair_mean(act: Activation, s1, s2, rho):
    """``E[psi(s1 Z1) psi(s2 Z2)]`` with corr rho, closed form, vectorized."""
    s1, s2, rho = _broadcast(s1, s2, rho)
    kind = act.kind
    if kind in ("relu", "lrelu"):
        a = _lrelu_slope(act)
        theta = _arccos_theta(rho)
        out = s1 * s2 * ((1.0 - a) ** 2
                         * (np.sin(theta) + (np.pi - theta) * np.cos(theta)) / TWO_PI
                         + a * rho)
    elif kind == "erf":
        out = (2.0 / np.pi) * np.arcsin(
            np.clip(2.0 * rho * s1 * s2
                    / np.sqrt((1.0 + 2.0 * s1 * s1) * (1.0 + 2.0 * s2 * s2)), -1.0, 1.0)
        )
    elif kind == "gelu":
        # s1 s2 r, r r, q = s1s s2s (1 - r r) and sqrt(d) are computed once
        # and combined in the order of the formula written out, so the bits
        # are unchanged; r s1 s2 inside arctan stays apart from s1 s2 r,
        # which differs in floats. The updates are in place: holding the
        # shared terms as extra arrays made the heap grow and shrink on each
        # call of the depth_sweep benchmark, ~46 page faults per call.
        r = np.clip(rho, -1.0, 1.0)
        c = s1 * s2
        c *= r
        out = c / 4.0
        s1s, s2s = s1 * s1, s2 * s2
        p = s1s * s2s
        num = r * r
        q = 1.0 - num
        q *= p
        num += 1.0
        num += s1s
        num += s2s
        num += q
        sd = 1.0 + s1s
        den = sd * (1.0 + s2s)
        sd += s2s
        sd += q
        sd = np.sqrt(sd)
        den *= sd
        t = r * s1
        t *= s2
        t /= sd
        p /= TWO_PI
        p *= num
        p /= den
        out += p
        c /= TWO_PI
        c *= np.arctan(t)
        out += c
    else:  # elu / selu
        return _elu_moments(act, s1, s2, rho)[0]
    return out if out.shape else float(out)


def pair_dot_mean(act: Activation, s1, s2, rho):
    """``E[psi'(s1 Z1) psi'(s2 Z2)]`` with corr rho, closed form, vectorized."""
    s1, s2, rho = _broadcast(s1, s2, rho)
    kind = act.kind
    if kind in ("relu", "lrelu"):
        a = _lrelu_slope(act)
        theta = _arccos_theta(rho)
        out = (1.0 - a) ** 2 * (np.pi - theta) / TWO_PI + a
    elif kind in ("elu", "selu"):
        return _elu_moments(act, s1, s2, rho)[1]
    else:  # gelu / erf; the radicands stay >= 1 at |rho| = 1, so no endpoint branch
        c = s1 * s2 * np.clip(rho, -1.0, 1.0)
        if kind == "erf":
            out = (4.0 / np.pi) / np.sqrt(
                (1.0 + 2.0 * s1 * s1) * (1.0 + 2.0 * s2 * s2) - 4.0 * c * c)
        else:
            a, b = 1.0 + s1 * s1, 1.0 + s2 * s2
            d = a * b - c * c
            # np.power, not **: on a numpy scalar ** is libm pow, which
            # differs from the array power by 1 ulp on ~5% of inputs
            out = (0.25 + np.arcsin(c / np.sqrt(a * b)) / TWO_PI
                   + c * (1.0 / a + 1.0 / b) / (TWO_PI * np.sqrt(d))
                   + c / (TWO_PI * np.power(d, 1.5)))
    return out if out.shape else float(out)


def pair_moments(act: Activation, s1, s2, rho):
    """``(E[psi psi], E[psi' psi'])``: ``pair_mean`` and ``pair_dot_mean``
    in one call; ELU/SELU take both from one ``_elu_moments`` call, three
    bvn rows per pair."""
    if act.kind not in ("elu", "selu"):
        return pair_mean(act, s1, s2, rho), pair_dot_mean(act, s1, s2, rho)
    return tuple(_elu_moments(act, s1, s2, rho)[:2])


def pair_dd_mean(act: Activation, s1, s2, rho):
    """``E[psi''(s1 Z1) psi(s2 Z2)]`` with corr rho, closed form, vectorized.

    A kink of slope jump j at 0 adds j E[psi(s2 tau Z)] / (sqrt(2 pi) s1),
    tau = sqrt(1 - rho^2), from the delta in psi''.
    """
    s1, s2, rho = _broadcast(s1, s2, rho)
    kind = act.kind
    if kind in ("relu", "lrelu"):
        a = _lrelu_slope(act)
        r = np.clip(rho, -1.0, 1.0)
        out = (1.0 - a) ** 2 * s2 * np.sqrt((1.0 - r) * (1.0 + r)) / (TWO_PI * s1)
    elif kind in ("elu", "selu"):
        return _elu_moments(act, s1, s2, rho)[2]
    else:  # gelu / erf; no endpoint branch, as in pair_dot_mean
        c = s1 * s2 * np.clip(rho, -1.0, 1.0)
        if kind == "erf":
            a = 1.0 + 2.0 * s1 * s1
            out = -(8.0 / np.pi) * c / (a * np.sqrt(a * (1.0 + 2.0 * s2 * s2) - 4.0 * c * c))
        else:
            a, b = 1.0 + s1 * s1, 1.0 + s2 * s2
            d = a * b - c * c
            out = (((a + 2.0) * d * d - a * (a + b) * d - a * a * b)
                   / (TWO_PI * a * a * np.power(d, 1.5)))  # np.power as in pair_dot_mean
    return out if out.shape else float(out)


def diag_mean(act: Activation, s):
    """``E[psi(s Z)^2]``, the rho = 1, s1 = s2 = s diagonal."""
    # a full rho array: the ufuncs run slower on a broadcast scalar
    return pair_mean(act, s, s, np.ones_like(s, dtype=float))


def kernel_values(act: Activation, s1, s2, rho, sigma_w2, sigma_b2):
    """Closed-form layer kernel on arrays (no KernelArgs validation)."""
    return sigma_w2 * pair_mean(act, s1, s2, rho) + sigma_b2


def kernel_dot_values(act: Activation, s1, s2, rho, sigma_w2):
    """Closed-form derivative kernel on arrays."""
    return sigma_w2 * pair_dot_mean(act, s1, s2, rho)


def kernel(act: Activation, args: KernelArgs) -> float:
    """Layer kernel ``sigma_w^2 E[psi(s1 Z1) psi(s2 Z2)] + sigma_b^2``."""
    return float(kernel_values(act, args.s1, args.s2, args.rho,
                                args.sigma_w2, args.sigma_b2))


def kernel_dot(act: Activation, args: KernelArgs) -> float:
    """Derivative kernel ``sigma_w^2 E[psi'(s1 Z1) psi'(s2 Z2)]``."""
    return float(kernel_dot_values(act, args.s1, args.s2, args.rho, args.sigma_w2))


def input_geometry(x1, x2, sigma_w2, sigma_b2):
    """(s1, s2, rho) of the transformed inputs under the diagonal prior.

    s_i = sqrt(sigma_w^2 ||x_i||^2 + sigma_b^2); rho is the cosine
    between the transformed augmented inputs (the plain input cosine
    when sigma_b^2 = 0).
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.shape != x2.shape or x1.ndim != 1 or x1.size < 1:
        raise ValueError("x1, x2 must be 1-D vectors of equal dimension")
    s1_sq = sigma_w2 * float(x1 @ x1) + sigma_b2
    s2_sq = sigma_w2 * float(x2 @ x2) + sigma_b2
    if s1_sq <= 0.0 or s2_sq <= 0.0:
        raise ValueError("zero-norm input with sigma_b^2 = 0 is unsupported")
    dot = sigma_w2 * float(x1 @ x2) + sigma_b2
    rho = float(np.clip(dot / np.sqrt(s1_sq * s2_sq), -1.0, 1.0))
    return np.sqrt(s1_sq), np.sqrt(s2_sq), rho


def kernel_from_inputs(act: Activation, x1, x2, sigma_w2, sigma_b2) -> float:
    """Layer kernel evaluated directly on a pair of input vectors."""
    s1, s2, rho = input_geometry(x1, x2, sigma_w2, sigma_b2)
    return float(kernel_values(act, s1, s2, rho, sigma_w2, sigma_b2))


def kernel_quadrature(act: Activation, args: KernelArgs, nodes: int = 80) -> float:
    """Numerical-integration oracle for the kernel.

    ``sigma_w^2 E[psi(s1 Z1) psi(s2 Z2)] + sigma_b^2`` by the polar
    Gauss-Legendre rule of ``pair_mean_quad``, whose angular panels split
    at the rays where the activation kinks lie (plain Gauss-Hermite
    converges only algebraically for the piecewise activations, stalling
    near 1e-4 relative error at 120 nodes).
    """
    f = lambda z: act_mod.eval(act, z)
    e = pair_mean_quad(f, f, args.s1, args.s2, args.rho, nodes=nodes)
    return float(args.sigma_w2 * e + args.sigma_b2)


def kernel_dot_quadrature(act: Activation, args: KernelArgs, nodes: int = 80) -> float:
    """Quadrature oracle for the derivative kernel
    ``sigma_w^2 E[psi'(s1 Z1) psi'(s2 Z2)]``, by the same polar rule."""
    f = lambda z: act_mod.deriv(act, z)
    e = pair_mean_quad(f, f, args.s1, args.s2, args.rho, nodes=nodes)
    return float(args.sigma_w2 * e)


def kernel_mc(act: Activation, args: KernelArgs, samples: int, seed: int,
              use_deriv: bool = False):
    """Monte-Carlo oracle: (mean, stderr) of the kernel estimate.

    Unbiased, reproducible per seed (counter-based Philox stream),
    chunked so that 1e7-sample runs stay within a small memory budget.
    """
    if samples < 10_000:
        raise ValueError("samples must be >= 1e4")
    rng = np.random.Generator(np.random.Philox(key=seed))
    tau = np.sqrt(max(1.0 - args.rho * args.rho, 0.0))
    f = (lambda z: act_mod.deriv(act, z)) if use_deriv else (lambda z: act_mod.eval(act, z))
    total = 0.0
    total_sq = 0.0
    remaining = samples
    while remaining > 0:
        m = min(remaining, 1_000_000)
        g1 = rng.standard_normal(m)
        g2 = rng.standard_normal(m)
        z2 = args.rho * g1 + tau * g2
        vals = args.sigma_w2 * f(args.s1 * g1) * f(args.s2 * z2)
        if not use_deriv:
            vals = vals + args.sigma_b2
        total += vals.sum()
        total_sq += (vals * vals).sum()
        remaining -= m
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    stderr = np.sqrt(var / samples)
    return float(mean), float(stderr)
