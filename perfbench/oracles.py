"""Reference computations written apart from the library.

Nothing here imports ``nnkernels``. The two-input expectations
``E[f(s1 Z1) g(s2 Z2)]`` are computed by conditioning on Z1: given
Z1 = z, the second argument is Gaussian, ``s2 (rho z + tau G)``, and for
every activation used here ``E[g(mu + sigma G)]`` has a closed form. What
remains is a 1-D Gauss-Legendre integral over z, split at the kink z = 0
and graded towards it, so correlations near +-1 (where the conditional
mean jumps across the kink within a width ~tau) stay resolved. This is a
different method from the library's closed forms and from its 2-D
tensor quadrature.

ReLU kernels at any depth come from the arc-cosine recursion (Cho & Saul,
2009), and GP posteriors from a dense ``numpy.linalg.solve``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import log_ndtr, ndtr, roots_legendre

SQRT_2PI = np.sqrt(2.0 * np.pi)
ZMAX = 12.0
ACTIVATIONS = ("relu", "lrelu", "elu", "gelu")
LRELU_SLOPE = 0.2

_X, _W = roots_legendre(32)


def _phi(x):
    return np.exp(-0.5 * x * x) / SQRT_2PI


def _panels(edges):
    """Nodes and weights of int_a^b f(z) phi(z) dz over the given edges.

    ``edges`` has shape (P, E): one sorted edge list per problem.
    Returns z, w of shape (P, (E - 1) * 32).
    """
    lo, hi = edges[:, :-1], edges[:, 1:]
    half = 0.5 * (hi - lo)
    z = half[..., None] * _X + (0.5 * (lo + hi))[..., None]
    w = half[..., None] * _W * _phi(z)
    return z.reshape(len(edges), -1), w.reshape(len(edges), -1)


def _edges(tau):
    """Outer-integral edges: [-ZMAX, ZMAX] cut at 0, graded by tau."""
    tau = np.atleast_1d(tau)
    fixed = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 3.5, 5.5, 8.0, ZMAX])
    graded = np.clip(tau[:, None] * np.array([0.1, 0.5, 2.0, 8.0, 32.0]), 0.0, 0.25)
    half = np.sort(np.concatenate([np.broadcast_to(fixed, (tau.size, fixed.size)),
                                   graded], axis=1), axis=1)
    return np.concatenate([-half[:, :0:-1], half], axis=1)


def act_eval(kind, x):
    """psi(x) of the reference activations."""
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "lrelu":
        return np.where(x > 0.0, x, LRELU_SLOPE * x)
    if kind == "elu":
        return np.where(x > 0.0, x, np.expm1(np.minimum(x, 0.0)))
    if kind == "gelu":
        return x * ndtr(x)
    raise ValueError(kind)


def act_deriv(kind, x):
    """psi'(x) almost everywhere."""
    if kind == "relu":
        return (x >= 0.0).astype(float)
    if kind == "lrelu":
        return np.where(x >= 0.0, 1.0, LRELU_SLOPE)
    if kind == "elu":
        return np.where(x >= 0.0, 1.0, np.exp(np.minimum(x, 0.0)))
    if kind == "gelu":
        return ndtr(x) + x * _phi(x)
    raise ValueError(kind)


def _relu_cond(mu, sig):
    t = mu / sig
    return mu * ndtr(t) + sig * _phi(t)


def _elu_neg_exp(mu, sig):
    """E[e^X 1{X < 0}] for X ~ N(mu, sig^2), in log space."""
    return np.exp(mu + 0.5 * sig * sig + log_ndtr(-(mu + sig * sig) / sig))


def cond_mean(kind, mu, sig, deriv=False):
    """``E[f(mu + sig G)]`` in closed form, f = psi or psi'; sig > 0."""
    if kind in ("relu", "lrelu"):
        a = 0.0 if kind == "relu" else LRELU_SLOPE
        if deriv:
            return (1.0 - a) * ndtr(mu / sig) + a
        return (1.0 - a) * _relu_cond(mu, sig) + a * mu
    if kind == "elu":
        if deriv:
            return ndtr(mu / sig) + _elu_neg_exp(mu, sig)
        return _relu_cond(mu, sig) + _elu_neg_exp(mu, sig) - ndtr(-mu / sig)
    if kind == "gelu":
        v = 1.0 + sig * sig
        u = mu / np.sqrt(v)
        if deriv:
            return ndtr(u) + _phi(u) / np.sqrt(v) * mu / v
        return mu * ndtr(u) + sig * sig * _phi(u) / np.sqrt(v)
    raise ValueError(kind)


def pair_expectation(kind, s1, s2, rho, deriv=False):
    """``E[f(s1 Z1) f(s2 Z2)]``, corr(Z1, Z2) = rho, f = psi or psi'.

    Vectorized over equal-shaped s1, s2, rho; |rho| = 1 is taken in
    its limit (the conditional variance vanishes).
    """
    s1, s2, rho = (np.atleast_1d(np.asarray(v, float)).ravel()
                   for v in np.broadcast_arrays(s1, s2, rho))
    rho = np.clip(rho, -1.0, 1.0)
    tau = np.sqrt(np.maximum(1.0 - rho * rho, 0.0))
    z, w = _panels(_edges(tau))
    f = act_deriv if deriv else act_eval
    mu = (s2 * rho)[:, None] * z
    sig = (s2 * tau)[:, None] * np.ones_like(z)
    exact = sig < 1e-13
    inner = np.where(exact, f(kind, mu),
                     cond_mean(kind, mu, np.where(exact, 1.0, sig), deriv))
    return (w * f(kind, s1[:, None] * z) * inner).sum(axis=1)


def diag_expectation(kind, s, deriv=False):
    """``E[f(s Z)^2]``."""
    s = np.atleast_1d(np.asarray(s, float))
    z, w = _panels(_edges(np.zeros(s.size)))
    f = act_deriv if deriv else act_eval
    return (w * f(kind, s[:, None] * z) ** 2).sum(axis=1)


def deep_pairs(kind, s1_sq, s2_sq, k, sigma_w2, sigma_b2, depth, ntk=False):
    """Depth-``depth`` kernel (or tangent kernel) of input pairs.

    Starts from the input map ``(s1^2, s2^2, k)`` and applies the layer
    update ``k' = sw2 E[psi psi] + sb2`` with the squared norms updated
    on the diagonal; the tangent kernel starts at T = k after update 1
    and follows ``T' = T kdot + k'``. Returns an array of shape
    (depth, P): the value after each update.
    """
    s1_sq, s2_sq, k = (np.asarray(v, float).copy() for v in (s1_sq, s2_sq, k))
    out = np.empty((depth, s1_sq.size))
    T = None
    for layer in range(depth):
        s1, s2 = np.sqrt(s1_sq), np.sqrt(s2_sq)
        rho = np.clip(k / (s1 * s2), -1.0, 1.0)
        k_new = sigma_w2 * pair_expectation(kind, s1, s2, rho) + sigma_b2
        if ntk:
            kdot = sigma_w2 * pair_expectation(kind, s1, s2, rho, deriv=True)
            T = k_new if layer == 0 else T * kdot + k_new
        s, where = np.unique(np.concatenate([s1, s2]), return_inverse=True)
        diag = sigma_w2 * diag_expectation(kind, s)[where] + sigma_b2
        s1_sq, s2_sq = diag[:s1.size], diag[s1.size:]
        k = k_new
        out[layer] = T if ntk else k
    return out


def relu_arccos_pairs(s1_sq, s2_sq, k, sigma_w2, depth):
    """ReLU kernels of input pairs after each of ``depth`` updates
    (arc-cosine recursion, sigma_b^2 = 0). Shape (depth, P)."""
    s1_sq, s2_sq, k = (np.asarray(v, float).copy() for v in (s1_sq, s2_sq, k))
    out = np.empty((depth, s1_sq.size))
    for layer in range(depth):
        s1s2 = np.sqrt(s1_sq * s2_sq)
        theta = np.arccos(np.clip(k / s1s2, -1.0, 1.0))
        k = sigma_w2 * s1s2 * (np.sin(theta) + (np.pi - theta) * np.cos(theta)) / (2.0 * np.pi)
        s1_sq, s2_sq = sigma_w2 * s1_sq / 2.0, sigma_w2 * s2_sq / 2.0
        out[layer] = k
    return out


def deep_curve(kind, theta0, norm, sigma_w2, depth):
    """Normalized kernel cos(theta_l), l = 1..depth, of two inputs of
    equal norm at angle theta0 (sigma_b^2 = 0)."""
    s_sq = np.array([sigma_w2 * norm * norm])
    k0 = s_sq * np.cos(theta0)
    if kind == "relu":
        k = relu_arccos_pairs(s_sq, s_sq, k0, sigma_w2, depth)[:, 0]
        diag = relu_arccos_pairs(s_sq, s_sq, s_sq, sigma_w2, depth)[:, 0]
    else:
        k = deep_pairs(kind, s_sq, s_sq, k0, sigma_w2, 0.0, depth)[:, 0]
        diag = deep_pairs(kind, s_sq, s_sq, s_sq, sigma_w2, 0.0, depth)[:, 0]
    return k / diag


def norm_residual(kind, sigma, norm):
    """Relative residual of E[psi^2(sigma norm Z)] = norm^2."""
    return float(diag_expectation(kind, sigma * norm)[0]) / (norm * norm) - 1.0


def lambda3(kind, s, theta, sigma_w2):
    """``sw2 s^2 E[psi'(s Z1) psi'(s Z2)] / g`` with g = sw2 E[psi(sZ)^2]
    (sigma_b^2 = 0), the correlation eigenvalue at s1 = s2 = s."""
    theta = np.asarray(theta, float)
    e = pair_expectation(kind, np.full(theta.shape, s), np.full(theta.shape, s),
                         np.cos(theta), deriv=True)
    return s * s * e / float(diag_expectation(kind, s)[0])


def lambda3_lrelu(a, theta):
    """Closed-form LReLU lambda_3 at its norm-preserving variance."""
    return ((1.0 - a) ** 2 * (np.pi - theta) / (2.0 * np.pi) + a) / ((1.0 - a) ** 2 / 2.0 + a)


def gp_dense(K_train, y, K_cross, k_diag, noise_var):
    """Posterior mean and variance by dense solves (no Cholesky)."""
    A = K_train + noise_var * np.eye(K_train.shape[0])
    mean = K_cross @ np.linalg.solve(A, y)
    var = k_diag - np.einsum("ij,ji->i", K_cross, np.linalg.solve(A, K_cross.T))
    return mean, var
