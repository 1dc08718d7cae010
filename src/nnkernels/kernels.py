"""Single-layer kernels k and derivative kernels k-dot.

For zero-mean weight priors the kernel of one infinitely wide layer is

    k = sigma_w^2 E[psi(s1 Z1) psi(s2 Z2)] + sigma_b^2,

with (Z1, Z2) standard bivariate normal, correlation rho = cos(theta).
This module provides closed forms for every supported activation,
vectorized over (s1, s2, rho) arrays of a common shape; the integration
and Monte-Carlo oracles that check them share no code with this module.

Closed forms:
  ReLU / LReLU  arc-cosine degree-1 (Cho & Saul, 2009) plus the linear
                part of the leaky slope;
  ERF           Williams' (1997) arcsine kernel;
  GELU          rational/arctan expression in s1, s2, cos(theta);
  ELU / SELU    the arc-cosine term of the linear parts plus
                exponential cross terms, each a bivariate normal CDF
                kept finite by Genz's rule in a tilted form, whose node
                exponents carry no exp(q) to cancel, and expscaled_cdf.

The derivative kernel k-dot = sigma_w^2 E[psi'(s1 Z1) psi'(s2 Z2)] is
closed-form for every activation as well:
  ReLU / LReLU  quadrant probability plus the leaky slope;
  ERF           a Gaussian integral of erf' products (Williams, 1997);
  GELU          an arcsine quadrant term plus two algebraic terms, from
                psi'(z) = Phi(z) + z phi(z);
  ELU / SELU    the quadrant term plus exponential cross terms, through
                the same tilted Genz rule.

So is ``pair_dd_mean``, D = E[psi''(s1 Z1) psi(s2 Z2)] (a kink adds a
delta to psi''): by Price's theorem, 2 dE[psi psi]/ds1^2, the entry the
layer Jacobian in ``deep`` is built from. ``pair_moments`` gives
E[psi psi] and E[psi' psi'] together, for the tangent-kernel step. For
ELU/SELU all three come from one evaluator, ``_elu_moments``, which
computes only the ones its caller returns: five bvn terms per entry from
three tilted Genz integrals, in one call of the rule per chunk of entries;
for 0.925 <= |rho| < 1 a 1-D Gauss-Legendre rule over Z1 of closed-form
conditional moments; at rho = +-1 the limits. ``diag_mean`` is
``pair_mean`` at rho = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, log_ndtr, ndtr, roots_legendre

from .activations import Activation
from . import special
from .special import GENZ_RHO_MAX, SQRT_2PI, TWO_PI, _check_correlation, expscaled_cdf

# e^(s^2)-type factors in the ELU/SELU closed forms leave double range
# (even with exponent folding on the Genz side) beyond this.
ELU_S_MAX = 25.0

# Interior ELU/SELU entries per call of ``_elu_interior``, of three Genz
# rows each: each batch-sized array of its front end is at most 32 KB and
# the peak memory stays bounded whatever the batch size. CHANGES.md
# records the sweep behind it.
_ELU_CHUNK = 1024

# The tail-band rule: 16-node Gauss-Legendre panels on each side of the
# kink at 0, between 0, 1, 2, 4, 9.5, c / max(s1, 1) and c min(1, tau/|rho|)
# for c = 1/16 .. 8, 640 nodes per entry; 32 entries per call keep each
# (entries, 640) temporary at 160 KB, where unchunked calls raised the
# peak RSS of the `fixed_point` benchmark from 84.5 to 89.6 MB. The last
# edge, 9.5, drops the normal tail where phi(z) < 1.1e-20; the integrands
# grow at most like z^2 there, so that is below the rounding of every
# moment. It is also the radius ``ZMAX`` of the polar oracle rule, written
# out so that the closed forms import nothing from the oracle module.
_TAIL_NODES, _TAIL_WEIGHTS = roots_legendre(16)
_TAIL_SCALES = 2.0 ** np.arange(-4, 4)
_TAIL_EDGES = np.array([0.0, 1.0, 2.0, 4.0, 9.5])
_TAIL_CHUNK = 32

# The interior's Genz rule: the 24 Gauss-Legendre nodes of ``special`` on
# [0, 1], scaled to [0, arcsin(cos theta)] per column, and their weights
# over 4 pi (half the interval, over 2 pi).
_TILT_NODES = (special._GL_NODES + 1.0) / 2.0
_TILT_WEIGHTS = special._GL_WEIGHTS / (2.0 * TWO_PI)


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


def _unit_clip(x):
    """``np.clip(x, -1, 1)``, at half its cost on small arrays."""
    return np.minimum(np.maximum(x, -1.0), 1.0)


def _arccos_theta(rho):
    return np.arccos(_unit_clip(rho))


def _lrelu_slope(act: Activation) -> float:
    if act.kind == "relu":
        return 0.0
    return act.lrelu_slope


def _elu_moments(act, s1, s2, rho, want=("mean", "dot", "dd")):
    """The ELU/SELU moments named in ``want``, in its order, vectorized:
    "mean" E[psi psi], "dot" E[psi' psi'] and "dd" E[psi'' psi].

    Each entry takes one rule, by its band on theta = arccos(rho):
    ``_elu_limits`` at |rho| = 1, ``_elu_interior`` where |cos theta| <
    ``GENZ_RHO_MAX`` and ``_elu_tail`` between; each rule computes only
    the moments in ``want``. A band that holds all entries and fits one
    chunk runs on the arrays directly; otherwise each band runs on its
    own entries, gathered by its mask, or in chunks of ``_ELU_CHUNK`` and
    ``_TAIL_CHUNK`` when it holds more.
    """
    s1, s2, rho = _broadcast(s1, s2, rho)
    if np.isnan(s1 + s2 + rho).any():  # NaN in any argument makes the sum NaN
        raise ValueError("ELU/SELU moments: NaN argument")
    if (np.maximum(s1, s2) > ELU_S_MAX).any():
        raise OverflowError(f"ELU/SELU closed form limited to s <= {ELU_S_MAX}; exponential "
                            "factors overflow the double range beyond that")
    shape = rho.shape
    s1, s2, rho = (a.reshape(-1) for a in (s1, s2, rho))
    l2, alpha = act.selu_lambda * act.selu_lambda, act.selu_alpha
    theta = _arccos_theta(rho)
    limit = np.abs(rho) >= 1.0
    interior = np.abs(np.cos(theta)) < GENZ_RHO_MAX  # never at |rho| = 1
    bands = ((limit, _elu_limits, rho.size, rho),
             (interior, _elu_interior, _ELU_CHUNK, theta),
             (~(limit | interior), _elu_tail, _TAIL_CHUNK, rho))
    outs = [np.empty(rho.size) for _ in want]
    for band, rule, size, arg in bands:
        count = np.count_nonzero(band)
        if count == rho.size and count <= size:
            outs = rule(l2, alpha, s1, s2, arg, want)
            break
        if count <= size:
            parts = [band] if count else []
        else:
            entries = np.flatnonzero(band)
            parts = [entries[i:i + size] for i in range(0, count, size)]
        for idx in parts:
            for out, v in zip(outs, rule(l2, alpha, s1[idx], s2[idx], arg[idx], want)):
                out[idx] = v
    return [out.reshape(shape) if shape else float(out[0]) for out in outs]


def _elu_limits(l2, alpha, s1, s2, rho, want):
    """``_elu_moments`` at rho = +-1, where Z2 = +-Z1: closed forms in
    c = expscaled_cdf(s) of s1, s2 and s1 + s2. A batch of one sign
    evaluates only that sign's forms."""
    a2 = alpha * alpha
    c1, c2, c12 = expscaled_cdf(np.array([s1, s2, s1 + s2]))
    pos = {"mean": lambda: l2 * (s1 * s2 / 2.0 + a2 * (c12 - c1 - c2 + 0.5)),
           "dot": lambda: l2 * (0.5 + a2 * c12),
           "dd": lambda: l2 * (a2 * (c12 - c1))}
    neg = {"mean": lambda: -l2 * alpha * s1 * s2 * (c1 + c2),
           "dot": lambda: l2 * (alpha * (c1 + c2)),
           "dd": lambda: l2 * (alpha * s2 * (1.0 / SQRT_2PI - s1 * c1))}
    hi = rho > 0.0
    n_hi = np.count_nonzero(hi)
    if n_hi == hi.size:
        return [pos[w]() for w in want]
    if n_hi == 0:
        return [neg[w]() for w in want]
    return [np.where(hi, pos[w](), neg[w]()) for w in want]


def _elu_interior(l2, alpha, s1, s2, theta, want):
    """``_elu_moments`` at |cos theta| < ``GENZ_RHO_MAX``, on 1-D arrays:
    E(s1, s2), E(s1, 0), E(0, s2) with E(a, b) = E[e^(a Z1 + b Z2); Z1 < 0,
    Z2 < 0], and B(s1), B(s2) with B(b) = E[e^(b Z2); Z1 > 0, Z2 < 0]. Each
    B is the other half of the E with the same exponent: Genz's (2004)
    rule writes E(s, 0) as c(s) Phi(-s cos theta) plus an integral G and
    B(s) as c(s) Phi(s cos theta) - G, c = ``expscaled_cdf``, so the three
    tilted integrals of ``_tilted_genz`` give all five. Only E(s1, s2)
    keeps its product exp(q + log Phi(-h) + log Phi(-k)), with
    h = s1 + s2 cos theta, k = s1 cos theta + s2 and
    q = (s1^2 + 2 s1 s2 cos theta + s2^2) / 2.
    """
    a2 = alpha * alpha
    sn, cs = np.sin(theta), np.cos(theta)
    s1c, s2c, s12 = s1 * cs, s2 * cs, s1 * s2
    s1s, s2s = s1 * s1, s2 * s2
    coef = np.array([s1s, s2s, s1s + 2.0 * s12 * cs + s2s])
    coef *= -0.5  # -s1^2/2, -s2^2/2 and -q
    g = special._blocked(_tilted_genz, special._BLOCK_COLS, coef, -s12 * sn * sn, cs,
                         np.pi / 2.0 - theta)  # arcsin(cos theta)
    cx = expscaled_cdf(np.array([s1, s2, s1 * sn, s2 * sn]))
    # c(s1), c(s2) times Phi(-s1 cos theta), Phi(-s2 cos theta) and then
    # times Phi(s1 cos theta), Phi(s2 cos theta)
    halves = ndtr(np.array([-s1c, -s2c, s1c, s2c])).reshape(2, 2, -1) * cx[:2]
    e10, e01 = halves[0] + g[:2]
    b1, b2 = halves[1] - g[:2]
    lh, lk = log_ndtr(-np.array([s1 + s2c, s1c + s2]))
    e12 = g[2] + np.exp(lh + lk - coef[2])
    quadrant = (np.pi - theta) / TWO_PI  # P(Z1 < 0, Z2 < 0)
    x1, x2 = cx[2:]
    outs = {}
    if "dot" in want:
        outs["dot"] = l2 * (quadrant + alpha * (b2 + b1) + a2 * e12)
    if "mean" in want:
        # E[Theta(Z1) Z1 Theta(-Z2)(e^{s2 Z2} - 1)] and its mirror, the
        # linear side's scale factored out by homogeneity
        cross = (s1 * ((x2 - 0.5) / SQRT_2PI + s2c * b2)
                 + s2 * ((x1 - 0.5) / SQRT_2PI + s1c * b1))
        outs["mean"] = l2 * (s12 * (sn + (np.pi - theta) * cs) / TWO_PI + alpha * cross
                             + a2 * (e12 - e10 - e01 + quadrant))
    if "dd" in want:
        lin = s2 * ((x1 - cs / 2.0) / SQRT_2PI + s1c * b1)  # c(s1) - E(s1, 0) = B(s1)
        dd = alpha * (lin + alpha * (e12 - e10))
        if alpha != 1.0:  # the kink's delta; the ELU has none, and s1 may be 0
            jump = (s2 * sn / SQRT_2PI + alpha * (x2 - 0.5)) / (SQRT_2PI * s1)
            dd += (1.0 - alpha) * jump
        outs["dd"] = l2 * dd
    return [outs[w] for w in want]


def _tilted_genz(coef, p, cs, width):
    """The Genz integrals G of E(s1, 0), E(0, s2) and E(s1, s2), one row
    each, for the columns of ``_elu_interior``: G = (1 / 2 pi) times the
    integral over phi in [0, width], width = arcsin(cos theta), of e^x
    with x the node exponent, by the 24 Gauss-Legendre nodes phi_i.

    The exponent q - (h^2 - 2 h k sin phi + k^2) / (2 cos^2 phi) of Genz's
    rule adds q and then cancels it. Per column, in d_i = cos theta -
    sin phi_i and r_i = d_i / cos^2 phi_i, it is -s1^2 d_i r_i / 2 and
    -s2^2 d_i r_i / 2 for the single rows and -(q d_i + s1 s2 sin^2 theta)
    r_i for the joint one (``coef`` holds -s1^2 / 2, -s2^2 / 2 and -q,
    ``p`` -s1 s2 sin^2 theta). For rho >= 0, d_i, r_i >= 0, so no term is
    positive and none cancels. The node sum is an ``einsum``, whose sums
    do not depend on the batch (a BLAS product's do).
    """
    sphi = np.sin(width[:, None] * _TILT_NODES)
    d = cs[:, None] - sphi
    r = sphi * sphi
    np.subtract(1.0, r, out=r)
    np.divide(d, r, out=r)
    expo = np.empty((3,) + d.shape)
    np.multiply(d, coef[2][:, None], out=expo[2])
    expo[2] += p[:, None]
    expo[2] *= r
    d *= r
    np.multiply(coef[:2, :, None], d, out=expo[:2])
    np.exp(expo, out=expo)
    return width * np.einsum("tmn,n->tm", expo, _TILT_WEIGHTS)


def _elu_tail(l2, alpha, s1, s2, rho, want):
    """``_elu_moments`` where |cos theta| >= ``GENZ_RHO_MAX``, by one 1-D
    rule over Z1 = z. Given z, Y = s2 Z2 is N(s2 rho z, v^2), v = s2 tau,
    tau = sqrt(1 - rho^2), so E[psi(Y) | z] and E[psi'(Y) | z] are closed
    forms (``_conditional``); the moments integrate them against
    phi(z) psi(s1 z), phi(z) psi'(s1 z) and phi(z) psi''(s1 z), whose kink
    at 0 adds (1 - alpha) phi(0) E[psi(Y) | 0] / s1. The rule holds on the
    whole open band |rho| < 1: its panel edge min(1, tau / |rho|) is
    written tau / max(|rho|, tau), which is 1 at rho = 0.
    """
    tau = np.sqrt((1.0 - rho) * (1.0 + rho))
    n = s1.size
    edges = np.empty((n, _TAIL_EDGES.size + 2 * _TAIL_SCALES.size))
    edges[:, :_TAIL_EDGES.size] = _TAIL_EDGES
    edges[:, _TAIL_EDGES.size:] = (
        np.array([1.0 / np.maximum(s1, 1.0), tau / np.maximum(np.abs(rho), tau)]).T[..., None]
        * _TAIL_SCALES).reshape(n, -1)
    edges.sort(axis=1)
    half = (edges[:, 1:] - edges[:, :-1])[..., None] / 2.0
    z = (edges[:, :-1, None] + half * (_TAIL_NODES + 1.0)).reshape(n, -1)
    w = (half * _TAIL_WEIGHTS).reshape(n, -1) * np.exp(-0.5 * z * z) / SQRT_2PI
    v = s2 * tau
    m = z.shape[1]
    g, d = _conditional(alpha, (rho / tau)[:, None] * np.concatenate([z, -z], axis=1),
                        v[:, None], value="mean" in want or "dd" in want,
                        slope="dot" in want)
    sz = s1[:, None] * z
    outs = {}
    if "mean" in want:
        outs["mean"] = l2 * (w * (sz * g[:, :m] + alpha * np.expm1(-sz) * g[:, m:])).sum(axis=1)
    if "dot" in want or "dd" in want:
        e = np.exp(-sz)  # psi'(-s1 z) / (lam alpha)
    if "dot" in want:
        outs["dot"] = l2 * (w * (d[:, :m] + alpha * e * d[:, m:])).sum(axis=1)
    if "dd" in want:
        dd = alpha * (w * e * g[:, m:]).sum(axis=1)
        if alpha != 1.0:  # the kink's delta, as in ``_elu_interior``
            kink = _conditional(alpha, np.zeros(n), v, slope=False)[0] / (SQRT_2PI * s1)
            dd += (1.0 - alpha) * kink
        outs["dd"] = l2 * dd
    return [outs[w] for w in want]


def _conditional(alpha, t, v, value=True, slope=True):
    """``(E[psi(Y)], E[psi'(Y)])`` at lam = 1 for Y ~ N(t v, v^2), each
    only if asked for (``value``, ``slope``; else None), from
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
    return (v * (t * cdf + pdf / SQRT_2PI) + alpha * (ey - ndtr(-t)) if value else None,
            cdf + alpha * ey if slope else None)


def _broadcast(*arrays):
    """The arguments as float arrays of one shape: unchanged when their
    shapes already agree, else broadcast."""
    arrays = [np.asarray(v, dtype=float) for v in arrays]
    shape = arrays[0].shape
    if all(a.shape == shape for a in arrays[1:]):
        return arrays
    return np.broadcast_arrays(*arrays)


def pair_mean(act: Activation, s1, s2, rho):
    """``E[psi(s1 Z1) psi(s2 Z2)]`` with corr rho, closed form, vectorized."""
    s1, s2, rho = _broadcast(s1, s2, rho)
    kind = act.kind
    if kind in ("relu", "lrelu"):
        a = _lrelu_slope(act)
        r = _unit_clip(rho)  # cos theta; sin theta from it, as in pair_dd_mean
        out = s1 * s2 * ((1.0 - a) ** 2
                         * (np.sqrt((1.0 - r) * (1.0 + r)) + (np.pi - np.arccos(r)) * r) / TWO_PI
                         + a * rho)
    elif kind == "erf":
        out = (2.0 / np.pi) * np.arcsin(
            _unit_clip(2.0 * rho * s1 * s2
                       / np.sqrt((1.0 + 2.0 * s1 * s1) * (1.0 + 2.0 * s2 * s2)))
        )
    elif kind == "gelu":
        # s1 s2 r, r r, q = s1s s2s (1 - r r) and sqrt(d) are computed once
        # and combined in the order of the formula written out, so the bits
        # are unchanged; r s1 s2 inside arctan stays apart from s1 s2 r,
        # which differs in floats. The updates are in place: holding the
        # shared terms as extra arrays made the heap grow and shrink on each
        # call of the depth_sweep benchmark, ~46 page faults per call.
        r = _unit_clip(rho)
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
        return _elu_moments(act, s1, s2, rho, ("mean",))[0]
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
        return _elu_moments(act, s1, s2, rho, ("dot",))[0]
    else:  # gelu / erf; the radicands stay >= 1 at |rho| = 1, so no endpoint branch
        c = s1 * s2 * _unit_clip(rho)
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
    Genz rows per pair."""
    if act.kind not in ("elu", "selu"):
        return pair_mean(act, s1, s2, rho), pair_dot_mean(act, s1, s2, rho)
    return tuple(_elu_moments(act, s1, s2, rho, ("mean", "dot")))


def pair_dd_mean(act: Activation, s1, s2, rho):
    """``E[psi''(s1 Z1) psi(s2 Z2)]`` with corr rho, closed form, vectorized.

    A kink of slope jump j at 0 adds j E[psi(s2 tau Z)] / (sqrt(2 pi) s1),
    tau = sqrt(1 - rho^2), from the delta in psi''.
    """
    s1, s2, rho = _broadcast(s1, s2, rho)
    kind = act.kind
    if kind in ("relu", "lrelu"):
        a = _lrelu_slope(act)
        r = _unit_clip(rho)
        out = (1.0 - a) ** 2 * s2 * np.sqrt((1.0 - r) * (1.0 + r)) / (TWO_PI * s1)
    elif kind in ("elu", "selu"):
        if act.selu_alpha != 1.0 and ((s1 == 0.0) & (np.abs(rho) < 1.0)).any():
            raise ValueError("SELU pair_dd_mean is unbounded at s1 = 0 with |rho| < 1: "
                             "the kink adds (1 - alpha) E[psi(s2 tau Z)] / (sqrt(2 pi) s1)")
        return _elu_moments(act, s1, s2, rho, ("dd",))[0]
    else:  # gelu / erf; no endpoint branch, as in pair_dot_mean
        c = s1 * s2 * _unit_clip(rho)
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
