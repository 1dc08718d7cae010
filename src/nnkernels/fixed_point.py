"""Fixed-point analysis of the iterated kernel map.

The layer map g sends (s1^2, s2^2, rho) to the next layer's squared
norms and normalized kernel. Its Jacobian is triangular with
eigenvalues

    lambda_1 = sigma_w^2 E[psi'^2(s1 Z) + psi(s1 Z) psi''(s1 Z)]
    lambda_2 = likewise in s2
    lambda_3 = sigma_w^2 s1 s2 E[psi'(s1 Z1) psi'(s2 Z2)] / sqrt(g1 g2)

lambda_1 and lambda_2 are the diagonal of ``deep._layer_jacobian``.

A sup of |lambda_3| below 1 over the angle interval certifies a unique
fixed point of the normalized kernel at rho = 1 (degenerate deep
prior); LReLU satisfies this for every slope in [0, 1), while GELU and
ELU at their norm-preserving weight variance exceed 1 near theta = 0.

``lambda3`` is the one implementation of lambda_3, on the closed-form
derivative kernel, behind the verdict and the sweep rows of
``nnk fixedpoint``. ``lambda3_quad_grid`` is its quadrature oracle on
the sweep's grid pi (k + 1) / (n + 1), where one evaluation of psi'
serves every angle; it stays in the package for the tests and for
``perfbench/spans.py``, and no production path calls it. The paper's
``lambda3_lrelu``, ``lambda3_gelu_lower`` and ``lambda3_elu`` are the
scale-free form sigma^2 E[psi' psi'], which equals lambda_3 at sigma*;
the GELU "lower bound" is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .activations import ELU, GELU, Activation, lrelu
from .deep import (_PAIR_ENTRIES, _RHO_OVERSHOOT, LayerState, _layer_jacobian, _layer_step,
                   _positive_norms)
from .kernels import ELU_S_MAX, diag_mean, kernel_dot_values, kernel_values, pair_moments
from .quadrature import autocorr_mean_quad
from . import activations as act_mod


@dataclass(frozen=True)
class EigenTriple:
    lambda1: float
    lambda2: float
    lambda3: float


@dataclass(frozen=True)
class FixedPointReport:
    converged: bool
    final_state: LayerState
    iterations: int
    per_step_ratio: tuple
    verdict: str  # unique-contraction | not-contraction | inconclusive
    sup_lambda3: float
    stopped: str  # converged | max_iter | diverged
    # the fixed point as roots, None where the norm map has no root
    s_sq_star: float | None
    rho_star: float | None
    lambda1: float | None
    lambda3_at_rho_star: float | None


def lambda3(act: Activation, s1, s2, rho, sigma_w2, sigma_b2):
    """Correlation eigenvalue ``s1 s2 kdot / sqrt(g1 g2)`` of the layer
    map, with g_i = k(s_i, s_i, 1); closed form, vectorized over
    (s1, s2, rho)."""
    g1 = kernel_values(act, s1, s1, 1.0, sigma_w2, sigma_b2)
    g2 = kernel_values(act, s2, s2, 1.0, sigma_w2, sigma_b2)
    return s1 * s2 * kernel_dot_values(act, s1, s2, rho, sigma_w2) / np.sqrt(g1 * g2)


def eigenvalues(act: Activation, s1_sq: float, s2_sq: float, rho: float,
                sigma_w2: float, sigma_b2: float) -> EigenTriple:
    """Jacobian eigenvalues of the layer map at the given state.

    lambda_1/lambda_2 are the diagonal of the closed-form layer
    Jacobian, lambda_3 comes from ``lambda3``; the squared norms are
    checked as in ``iterate_state``.
    """
    _positive_norms(np.array([s1_sq, s2_sq]), "eigenvalues")
    if np.isnan(rho) or abs(rho) > 1.0:
        raise ValueError("rho must lie in [-1, 1]")
    jac = _layer_jacobian(act, s1_sq, s2_sq, rho * np.sqrt(s1_sq * s2_sq), sigma_w2)
    lam3 = lambda3(act, np.sqrt(s1_sq), np.sqrt(s2_sq), rho, sigma_w2, sigma_b2)
    triple = EigenTriple(float(jac[0, 0]), float(jac[1, 1]), float(lam3))
    if not all(np.isfinite(v) for v in (triple.lambda1, triple.lambda2, triple.lambda3)):
        raise ArithmeticError("non-finite Jacobian eigenvalue")
    return triple


def lambda3_quad_grid(act: Activation, s: float, thetas, sigma_w2: float,
                      sigma_b2: float) -> np.ndarray:
    """Quadrature oracle for ``lambda3`` on the theta grid
    pi (k + 1) / (n + 1), k = 0..n-1, of ``nnk fixedpoint``, at
    s1 = s2 = s: ``E[psi' psi']`` by ``autocorr_mean_quad``, which
    evaluates psi' once for the whole grid, on cells whose edges hold
    every kink, over the closed-form g. Angles off that grid (checked to
    a few ulps) raise ``ValueError``. The tests check the sweep rows
    against it; no production path calls it (``perfbench/spans.py``
    traces it by this name)."""
    thetas = np.asarray(thetas, dtype=float)
    n = thetas.size
    grid = np.pi * (np.arange(n) + 1.0) / (n + 1.0)
    if np.any(np.abs(thetas.ravel() - grid) > 4.0 * np.spacing(np.pi)):
        raise ValueError(f"lambda3_quad_grid takes the {n} angles pi (k + 1) / {n + 1}, "
                         f"k = 0..{n - 1}, in that order")
    g = kernel_values(act, s, s, 1.0, sigma_w2, sigma_b2)
    e = autocorr_mean_quad(lambda z: act_mod.deriv(act, z), s, n)
    return (sigma_w2 * s * s * e / g).reshape(thetas.shape)


def lambda3_lrelu(a: float, theta) -> float:
    """lambda_3 of the leaky ReLU at its norm-preserving variance
    (scale-free by absolute homogeneity)."""
    return kernel_dot_values(lrelu(a), 1.0, 1.0, np.cos(theta), 2.0 / (1.0 + a * a))


def lambda3_gelu_lower(norm: float, sigma: float, theta) -> float:
    """The paper's GELU lower bound on lambda_3 at s1 = s2 = sigma * norm,
    exact at sigma*."""
    return kernel_dot_values(GELU, sigma * norm, sigma * norm, np.cos(theta), sigma * sigma)


def lambda3_elu(norm: float, sigma: float, theta) -> float:
    """lambda_3 for the ELU at s1 = s2 = sigma * norm, exact at sigma*
    (s <= ELU_S_MAX)."""
    return kernel_dot_values(ELU, sigma * norm, sigma * norm, np.cos(theta), sigma * sigma)


def _bisect(f, a: float, b: float, xtol: float) -> float:
    """Root of f in [a, b] by the steps of ``scipy.optimize.bisect``
    (scipy 1.17, rtol = 4 eps), bit for bit: halve the step from a, move
    a to the midpoint when f there has the sign of f(a), and stop at the
    first zero or when the step falls below xtol + rtol |x|. Signs are
    compared, not products, which could underflow. A NaN from f raises
    ``ValueError``, as scipy's does."""
    rtol = 4.0 * np.finfo(float).eps

    def value(x):
        fx = float(f(x))
        if np.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; bisection cannot continue")
        return fx

    a, b = float(a), float(b)
    fa, fb = value(a), value(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    dm = b - a
    for _ in range(100):
        dm *= 0.5
        xm = a + dm
        fm = value(xm)
        if (fm < 0.0) == (fa < 0.0):
            a = xm
        if fm == 0.0 or abs(dm) < xtol + rtol * abs(xm):
            return xm
    raise RuntimeError(f"bisection did not converge in 100 steps, last x={a}")


_ANALYTIC_SIGMA_STAR = {"relu": lambda a: np.sqrt(2.0),
                        "lrelu": lambda a: np.sqrt(2.0 / (1.0 + a * a))}


def sigma_star(act: Activation, norm: float) -> float:
    """Weight std that preserves the expected squared signal norm.

    Solves E[psi^2(sigma * norm * Z)] = norm^2. Analytic for
    ReLU/LReLU; otherwise a bisection root (to 1e-8) on sigma in [0.5, 3]
    (bracket expanded outward when the root falls outside). The upper
    end never exceeds ELU_S_MAX / norm for ELU/SELU. ERF has no root at
    norm >= 1, since E[erf^2] < 1.
    """
    if norm <= 0.0:
        raise ValueError("norm must be positive")
    if act.kind in _ANALYTIC_SIGMA_STAR:
        return float(_ANALYTIC_SIGMA_STAR[act.kind](act.lrelu_slope))
    if act.kind == "erf" and norm >= 1.0:
        raise ValueError(
            f"norm preservation has no root for erf at norm {norm:.3g}: "
            "E[erf(s Z)^2] < 1 for every s, so sigma_w^2 must be given (--sigma-w2)"
        )

    def f(sigma):
        return float(diag_mean(act, sigma * norm)) - norm * norm

    cap = ELU_S_MAX / norm if act.kind in ("elu", "selu") else np.inf
    lo, hi = 0.5, min(3.0, cap)
    for _ in range(8):
        if f(lo) * f(hi) < 0.0:
            return _bisect(f, lo, hi, 1e-8)
        lo, hi = lo / 2.0, min(hi * 2.0, cap)
    raise ValueError(
        f"no sign change for sigma in [{lo:.3g}, {hi:.3g}]: norm preservation "
        f"has no root for {act.kind} at norm {norm:.3g}"
    )


def _norm_fixed_point(act: Activation, u0: float, sigma_w2: float,
                      sigma_b2: float) -> float | None:
    """Fixed point of the squared-norm map g1 near u0, as a root of
    g1(u) - u, or None where there is none near u0.

    A root is found whether it attracts or repels (GELU at its
    norm-preserving variance: lambda_1 > 1; ELU: < 1): the sign change
    on a geometric grid around u0 nearest to it is bisected. u0 is
    returned as-is only when g1(u0) - u0 is within 4 ulps of u0: the
    absolutely homogeneous activations (ReLU, LReLU) at the preserving
    variance, where g1(u) - u vanishes identically (2 ulps of rounding
    at most, measured over norms 0.3 to 100). None where no grid cell
    changes sign, as for ReLU with sigma_b^2 > 0 at sigma*, whose norm
    grows without bound. For ELU/SELU the search stays within
    s <= ELU_S_MAX.
    """
    def h(u):
        return kernel_values(act, np.sqrt(u), np.sqrt(u), 1.0, sigma_w2, sigma_b2) - u

    if abs(h(u0)) <= 4.0 * np.spacing(u0):
        return u0
    grid = u0 * np.geomspace(0.01, 100.0, 80)
    if act.kind in ("elu", "selu"):
        grid = grid[grid <= ELU_S_MAX ** 2]
    vals = h(grid)
    sign_change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    if sign_change.size == 0:
        return None
    i = sign_change[np.argmin(np.abs(np.log(grid[sign_change] / u0)))]
    return _bisect(h, grid[i], grid[i + 1], 1e-12)


def _correlation_fixed_point(act: Activation, u: float, rho_max: float, sigma_w2: float,
                             sigma_b2: float) -> float:
    """The root rho* in [0, 1] of c(rho) = k(s, s, rho) / k(s, s, 1) - rho
    at s^2 = u.

    By Mehler's expansion k(s, s, rho) = sigma_w^2 sum_n a_n^2 rho^n +
    sigma_b^2 is convex on [0, 1], with c(0) >= 0 and c(1) = 0. So where
    c(rho_max) < 0 the root below rho_max is unique and c decreases to
    it; Newton's method from rho = 0, with c'(rho) = lambda_3(rho) - 1
    from the same ``pair_moments`` call as c, then rises monotonically
    to it, each tangent staying below the convex c. It stops at a step
    below 4 eps or a value c <= 0 (the root, to rounding). Where
    c(rho_max) >= 0, rho* = 1. For odd psi (and sigma_b^2 = 0) the roots
    come in pairs +-rho*; this is the one in [0, 1].
    """
    s = math.sqrt(u)
    g = float(kernel_values(act, s, s, 1.0, sigma_w2, sigma_b2))
    if float(kernel_values(act, s, s, rho_max, sigma_w2, sigma_b2)) / g >= rho_max:
        return 1.0
    rho = 0.0
    for _ in range(100):
        mean, dot = pair_moments(act, s, s, rho)
        c = (sigma_w2 * float(mean) + sigma_b2) / g - rho
        if c <= 0.0:
            return rho
        step = c / (1.0 - sigma_w2 * u * float(dot) / g)
        rho += step
        if step < 4.0 * np.finfo(float).eps:
            return rho
    raise RuntimeError(f"Newton's method for rho* did not converge in 100 steps, last {rho}")


def find_fixed_point(act: Activation, sigma_w2: float, sigma_b2: float,
                     start: LayerState, tol: float = 1e-10,
                     max_iter: int = 10_000) -> FixedPointReport:
    """Iterate the layer map, report its fixed point as roots, and
    classify it.

    Non-convergence is reported, not raised: ``stopped`` says whether
    the iteration converged, ran out of ``max_iter`` steps or diverged
    (a step that overflows, fails or moves by a non-finite distance ends
    the loop at the last finite state); a start whose squared norms are not
    finite and positive raises ``ValueError``, as in ``iterate_state``.
    ``converged`` holds only where the loop stopped on a step below
    ``tol`` with both squared norms within 1e-6 relative of u*: a loop
    whose norm has collapsed off a repelling norm fixed point also ends
    in steps below ``tol``.

    The fixed point does not rest on the iteration: u* (``s_sq_star``) is
    the root of the norm map next to ``start.s1_sq``
    (``_norm_fixed_point``), rho* (``rho_star``) the root in [0, 1] of
    the correlation map at s^2 = u* (``_correlation_fixed_point``), and
    ``lambda1`` and ``lambda3_at_rho_star`` the ``eigenvalues`` at
    (u*, u*, rho*). Where the norm map has no root near the start, these
    four are None and ``converged`` is False.
    The verdict derives from the sup of |lambda_3| over the 512 angles
    theta = k pi / 513 at the norm fixed point: below 1 is
    "unique-contraction", above 1 "not-contraction", else "inconclusive".
    At equal scales Mehler's expansion gives E[psi'(s Z1) psi'(s Z2)] =
    sum_n b_n(s)^2 rho^n, so |lambda_3(rho)| <= lambda_3(|rho|), which
    grows with |rho|: the sup sits at an end angle, and only pi / 513 and
    pi - pi / 513 are evaluated (an even psi', as ERF's, ties the two).

    The loop keeps (s1^2, s2^2, rho) as three floats, inside one
    ``np.errstate(over="raise")``; each step is one ``deep._layer_step``
    call on two reused buffers, and every check of ``iterate_state`` is
    applied to the floats, so states, distances and stop equal those of
    iterating ``iterate_state``, bit for bit.
    """
    _positive_norms(np.array([start.s1_sq, start.s2_sq]), "find_fixed_point")
    s1, s2, rho = float(start.s1_sq), float(start.s2_sq), float(start.rho)
    norms, rhos = np.empty(2), np.ones(3)  # rhos[1:] stay 1: the rows' own diagonal
    distances = []
    stopped = "max_iter"
    with np.errstate(over="raise"):
        for _ in range(max_iter):
            ok = 0.0 < s1 < math.inf and 0.0 < s2 < math.inf  # as _positive_norms
            if ok:
                norms[0], norms[1], rhos[0] = s1, s2, rho
                try:
                    k, t1, t2 = _layer_step(act, norms, _PAIR_ENTRIES, rhos, sigma_w2,
                                            sigma_b2)[0].tolist()
                    # the checks of _normalized, then of LayerState
                    t = k / math.sqrt(t1 * t2) if t1 * t2 < math.inf else math.inf
                    ok = (abs(t) - 1.0 <= _RHO_OVERSHOOT and math.isfinite(t1 + t2)
                          and min(t1, t2) >= 0.0)
                    t = min(max(t, -1.0), 1.0)
                    d = math.sqrt((t1 - s1) ** 2 + (t2 - s2) ** 2 + (t - rho) ** 2)
                except (ArithmeticError, ValueError):
                    ok = False
            if not (ok and math.isfinite(d)):
                stopped = "diverged"  # the norm map can be repelling
                break
            s1, s2, rho = t1, t2, t
            distances.append(d)
            if d < tol:
                stopped = "converged"
                break
    state = LayerState(s1, s2, rho) if distances else start
    ratios = tuple(d1 / d0 for d0, d1 in zip(distances[:-1], distances[1:]) if d0 > 0.0)

    # The verdict's lambda_3 is taken at the norm fixed point on the
    # *starting* sphere (at the start's norm where the norm map has no
    # root): the iterated norm cannot be used directly because a
    # repelling fixed point (lambda_1 > 1, as for GELU at sigma*) lets
    # rounding noise drift it to another attractor.
    u = _norm_fixed_point(act, start.s1_sq, sigma_w2, sigma_b2)
    s_fp = math.sqrt(start.s1_sq if u is None else u)
    ends = np.cos(np.pi * np.array([1.0, 512.0]) / 513.0)
    sup = float(np.max(np.abs(lambda3(act, s_fp, s_fp, ends, sigma_w2, sigma_b2))))
    if sup < 1.0 - 1e-9:
        verdict = "unique-contraction"
    elif sup > 1.0 + 1e-9:
        verdict = "not-contraction"
    else:
        verdict = "inconclusive"
    if u is None:
        return FixedPointReport(False, state, len(distances), ratios, verdict, sup, stopped,
                                None, None, None, None)
    rho_star = _correlation_fixed_point(act, u, ends[0], sigma_w2, sigma_b2)
    tri = eigenvalues(act, u, u, rho_star, sigma_w2, sigma_b2)
    # A step below tol next to an attracting norm fixed point leaves the
    # norms within ~tol / (1 - lambda_1) of u* (1e-9 for ELU at sigma*(1),
    # lambda_1 = 0.898), and sigma_star's 1e-8 bisection starts them
    # ~1e-8 relative off it; a repelling norm map (GELU) multiplies that
    # by lambda_1 per step and leaves 1e-6 within ~60 steps, long before
    # a collapsed state's steps fall below tol.
    converged = stopped == "converged" and all(abs(v - u) <= 1e-6 * u for v in (s1, s2))
    return FixedPointReport(converged, state, len(distances), ratios, verdict, sup, stopped,
                            u, rho_star, tri.lambda1, tri.lambda3)


def lambda3_sweep_rows(act: Activation, norm: float, sigma: float,
                       thetas, sigma_b2: float = 0.0) -> list:
    """Rows (theta, lambda3, activation, norm, sigma, "closed-form") for
    CSV dumps: ``lambda3`` at the input signal s1 = s2 =
    sqrt(sigma^2 norm^2 + sigma_b^2), with sigma_b^2 in g, one row per
    angle."""
    thetas = np.asarray(thetas, dtype=float)
    s = np.hypot(sigma * norm, np.sqrt(sigma_b2))
    vals = lambda3(act, s, s, np.cos(thetas), sigma * sigma, sigma_b2)
    return [(float(t), float(v), act.kind, norm, sigma, "closed-form")
            for t, v in zip(thetas, vals)]
