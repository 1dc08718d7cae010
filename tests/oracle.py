"""Independent oracles for the closed forms: quadrature, Monte Carlo and
finite differences. Nothing in ``nnkernels`` imports this module; the
library computes the closed forms, and these only check them.

- ``normal_panel_nodes`` / ``mean_1d``: ``E[f(Z)]`` over one standard
  normal by Gauss-Legendre panels split at the kinks.
- ``kernel_quadrature`` / ``kernel_dot_quadrature``: the layer kernel and
  derivative kernel by the polar rule ``quadrature.pair_mean_quad``.
- ``rho_star_quadrature``: the correlation fixed point at a given norm,
  by ``scipy.optimize.brentq`` on ``kernel_quadrature``.
- ``autocorr_mean_full``: ``quadrature.autocorr_mean_quad`` over the
  whole circle, all four Gauss-Legendre nodes of each sub-cell; the
  reference for its half-circle sweep.
- ``kernel_mc``: a seeded Monte-Carlo estimate of either kernel.
- ``kernel_grad_fd``: a central-difference hyperparameter gradient, the
  oracle for the reverse-mode ``deep.kernel_grad``.
"""

from types import SimpleNamespace

import numpy as np
from nnkernels import activations as act_mod
from nnkernels.activations import Activation
from nnkernels.deep import NetworkHyper, state_trajectory
from nnkernels.kernels import KernelArgs
from nnkernels.quadrature import (ZMAX, _gauss_panels, _legendre, _radial_rule,
                                  pair_mean_quad)
from nnkernels.special import SQRT_2PI


def normal_panel_nodes(n: int, cuts=()):
    """Nodes/weights for ``int f(z) phi(z) dz`` over [-ZMAX, ZMAX].

    The interval is split at ``cuts`` (clipped into range); each panel
    carries an n-point Gauss-Legendre rule with the normal density
    folded into the weights.
    """
    edges = np.clip(np.concatenate([[-ZMAX], np.atleast_1d(np.asarray(cuts, float)), [ZMAX]]),
                    -ZMAX, ZMAX)
    z, w = _gauss_panels(np.unique(edges), n)
    return z, w * (np.exp(-0.5 * z * z) / SQRT_2PI)


def mean_1d(f, nodes: int = 120, cuts=(0.0,)):
    """``E[f(Z)]`` for Z ~ N(0,1), panel-split at ``cuts``."""
    z, w = normal_panel_nodes(nodes, cuts)
    return float(w @ f(z))


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


def rho_star_quadrature(act: Activation, s_sq: float, sigma_w2: float, sigma_b2: float,
                        nodes: int = 80) -> float:
    """The root of c(rho) = k(s, s, rho) / k(s, s, 1) - rho, s^2 = s_sq, with
    k from ``kernel_quadrature`` at ``nodes`` nodes, by ``brentq`` on
    [-0.5, cos(pi / 513)]; 1.0 where c >= 0 at that upper end. The lower
    end is below 0, so that a root at 0 (odd psi), where the quadrature's
    c(0) can round either way, stays bracketed."""
    from scipy.optimize import brentq

    s = float(np.sqrt(s_sq))

    def k(rho):
        return kernel_quadrature(act, KernelArgs(s, s, rho, sigma_w2, sigma_b2), nodes=nodes)

    g, end = k(1.0), np.cos(np.pi / 513.0)
    if k(end) / g >= end:
        return 1.0
    return float(brentq(lambda rho: k(rho) / g - rho, -0.5, end, xtol=1e-15))


def autocorr_mean_full(f, s, n: int):
    """``E[f(s Z1) f(s Z2)]`` at rho_k = cos(k pi / M), M = n + 1, k = 1..n,
    by the cells, sub-cells and radial rule of
    ``quadrature.autocorr_mean_quad``, with f evaluated at all four
    Gauss-Legendre nodes of every sub-cell, around the whole circle."""
    m = n + 1
    p = -(-512 // m)
    u, wu = _legendre(4)
    h = np.pi / m
    r, wr = _radial_rule(30)
    cells = np.arange(2 * m) + 0.5 * (m % 2)
    subcells = np.arange(p)
    power = np.zeros(m + 1)
    for ui, wi in zip(u, wu):
        cosines = np.cos(h * (cells[:, None] + (subcells + 0.5 * (ui + 1.0)) / p))
        for panel in range(3):
            rows = slice(30 * panel, 30 * panel + 30)
            spec = np.fft.rfft(f(s * r[rows, None, None] * cosines), axis=1)
            power += (0.5 * wi * h / p) * (wr[rows] @ (spec.real ** 2 + spec.imag ** 2).sum(-1))
    return np.fft.irfft(power, 2 * m)[1:m]


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


def kernel_grad_fd(act, hyper: NetworkHyper, x1, x2,
                   rel_step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the depth-L kernel, any activation.

    Same layout as ``kernel_grad``. Perturbed evaluations bypass the
    nonnegativity validation of ``NetworkHyper`` so that a boundary
    value sigma_b^2 = 0 can be differenced symmetrically.
    """
    def k_final(sw, sb):
        hyper_h = SimpleNamespace(sigma_w2=sw, sigma_b2=sb)
        return state_trajectory(act, x1, x2, hyper_h)[-1][2]

    grads = np.zeros((hyper.depth + 1, 2))
    for l in range(hyper.depth + 1):
        for col, params in enumerate((hyper.sigma_w2, hyper.sigma_b2)):
            base = list(params)
            h = rel_step * max(abs(base[l]), 1.0)
            hi, lo = list(base), list(base)
            hi[l] += h
            lo[l] -= h
            if col == 0:
                grads[l, col] = (k_final(hi, list(hyper.sigma_b2))
                                 - k_final(lo, list(hyper.sigma_b2))) / (2 * h)
            else:
                grads[l, col] = (k_final(list(hyper.sigma_w2), hi)
                                 - k_final(list(hyper.sigma_w2), lo)) / (2 * h)
    return grads
