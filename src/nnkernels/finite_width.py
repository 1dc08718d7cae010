"""Finite-width MLP sampler and empirical-kernel estimator.

Verifies the infinite-width formulas: a sampled network of width n
propagates two inputs, and the per-layer normalized inner products of
the post-activations estimate the analytic normalized kernels with
O(1/sqrt(n)) scatter.

The input layer draws weights at the raw variance sigma_w^2 (matching
the kernel's input map s^2 = sigma_w^2 ||x||^2 + sigma_b^2); hidden
layers scale by 1/fan_in.

``factored_kernel_trajectory`` (behind ``empirical_trajectory`` and
``nnk mc-verify``) samples such a
network restricted to its P inputs, carrying only the n x P array of
post-activations H from layer to layer. Given H, the rows of the next
pre-activations W H + b are iid N(0, (sigma_w^2/n) H^T H) plus the
shared bias (Matthews et al., 2018; Lee et al., 2018), so a hidden layer
draws an n x P standard normal G and forms sqrt(sigma_w^2/n) G R + b,
with R the triangular factor of a thin QR of H (H^T H = R^T R, also when
H is rank-deficient). That is nP draws per hidden layer instead of n^2.
The first layer draws W_0 and b_0 exactly as ``sample_net`` does.
``sample_net`` + ``empirical_kernel_trajectory`` keep the explicit
network, with its n x n hidden weight matrices, as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import activations as act_mod
from .activations import Activation


@dataclass(frozen=True)
class SampledNet:
    weights: tuple            # (n, d), then (n, n) per hidden layer
    biases: tuple             # (n,) per layer
    activation: Activation
    sigma_w2: float
    sigma_b2: float
    seed: int


def random_rotation(dim: int, seed: int) -> np.ndarray:
    """Orthogonal matrix from the QR decomposition of a U[0,1] matrix.

    Deterministic per seed; column signs are fixed by the R diagonal so
    the factorization is unique.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    rng = np.random.Generator(np.random.Philox(key=seed))
    q, r = np.linalg.qr(rng.random((dim, dim)))
    q = q * np.sign(np.diag(r))
    return q


def sample_net(act: Activation, d_in: int, width: int, depth: int,
               sigma_w2: float, sigma_b2: float, seed: int) -> SampledNet:
    if width < 1 or depth < 1 or d_in < 1:
        raise ValueError("width, depth and d_in must be positive")
    rng = np.random.Generator(np.random.Philox(key=seed))
    w0, b0 = _first_layer_draws(rng, d_in, width, sigma_w2, sigma_b2)
    weights, biases = [w0], [b0]
    for _ in range(depth - 1):
        weights.append(np.sqrt(sigma_w2 / width) * rng.standard_normal((width, width)))
        biases.append(np.sqrt(sigma_b2) * rng.standard_normal(width))
    return SampledNet(tuple(weights), tuple(biases), act, sigma_w2, sigma_b2, seed)


def hidden_activations(net: SampledNet, x) -> list:
    """Post-activations of every hidden layer for one input."""
    h = np.asarray(x, dtype=float)
    outs = []
    for W, b in zip(net.weights, net.biases):
        h = act_mod.eval(net.activation, W @ h + b)
        outs.append(h)
    return outs


def empirical_kernel_trajectory(net: SampledNet, x1, x2) -> np.ndarray:
    """Per-layer empirical normalized kernels for an input pair.

    Layer-l estimate: k_hat = sigma_w^2 <a1, a2>/n + sigma_b^2,
    normalized by the two diagonal estimates.
    """
    a1s = hidden_activations(net, x1)
    a2s = hidden_activations(net, x2)
    return np.array([_normalized_kernel(a1, a2, net.sigma_w2, net.sigma_b2)
                     for a1, a2 in zip(a1s, a2s)])


def factored_kernel_trajectory(act: Activation, x1, x2, width: int, depth: int,
                               sigma_w2: float, sigma_b2: float,
                               seed: int) -> np.ndarray:
    """Per-layer empirical normalized kernels for an input pair, drawn
    without hidden weight matrices.

    Same law as ``empirical_kernel_trajectory(sample_net(act, len(x1),
    width, depth, sigma_w2, sigma_b2, seed), x1, x2)`` and the same
    first-layer draws. Each hidden layer draws G (n x P) then b (n) and
    forms sqrt(sigma_w^2/n) G R + b from the thin-QR factor R of the
    previous post-activations H (n x P, one column per input).
    """
    if width < 1 or depth < 1:
        raise ValueError("width and depth must be positive")
    x = np.column_stack([x1, x2])
    rng = np.random.Generator(np.random.Philox(key=seed))
    w0, b0 = _first_layer_draws(rng, x.shape[0], width, sigma_w2, sigma_b2)
    h = act_mod.eval(act, w0 @ x + b0[:, None])
    rhos = np.empty(depth)
    rhos[0] = _normalized_kernel(h[:, 0], h[:, 1], sigma_w2, sigma_b2)
    scale = np.sqrt(sigma_w2 / width)
    for l in range(1, depth):
        r = np.linalg.qr(h, mode="r")
        g = rng.standard_normal((width, r.shape[0]))
        b = np.sqrt(sigma_b2) * rng.standard_normal(width)
        h = act_mod.eval(act, scale * (g @ r) + b[:, None])
        rhos[l] = _normalized_kernel(h[:, 0], h[:, 1], sigma_w2, sigma_b2)
    return rhos


def _first_layer_draws(rng, d_in: int, width: int, sigma_w2: float, sigma_b2: float):
    """W_0 (n x d_in) at the raw variance sigma_w^2, then b_0 (n)."""
    return (np.sqrt(sigma_w2) * rng.standard_normal((width, d_in)),
            np.sqrt(sigma_b2) * rng.standard_normal(width))


def _normalized_kernel(a1, a2, sigma_w2: float, sigma_b2: float) -> float:
    """One layer's estimate k12 / sqrt(k11 k22), where
    k_ij = sigma_w^2 <a_i, a_j> / n + sigma_b^2."""
    n = a1.shape[0]
    k12 = sigma_w2 * float(a1 @ a2) / n + sigma_b2
    k11 = sigma_w2 * float(a1 @ a1) / n + sigma_b2
    k22 = sigma_w2 * float(a2 @ a2) / n + sigma_b2
    return k12 / np.sqrt(k11 * k22)


def rotated_pair(theta0: float, norm: float, seed: int):
    """The inputs behind each sampled dot: a random rotation applied to
    norm * (1, 0) and norm * (cos theta0, sin theta0)."""
    q = random_rotation(2, seed)
    x1 = norm * (q @ np.array([1.0, 0.0]))
    x2 = norm * (q @ np.array([np.cos(theta0), np.sin(theta0)]))
    return x1, x2


def empirical_trajectory(act: Activation, theta0: float, norm: float,
                         width: int, depth: int, sigma_w2: float,
                         sigma_b2: float, seed: int) -> np.ndarray:
    """All per-layer estimates from one sampled network (one forward pass)."""
    rot_seed, net_seed = _derived_seeds(seed)
    x1, x2 = rotated_pair(theta0, norm, rot_seed)
    return factored_kernel_trajectory(act, x1, x2, width, depth, sigma_w2,
                                      sigma_b2, net_seed)


def _derived_seeds(seed: int):
    ss = np.random.SeedSequence(seed).spawn(2)
    return (int(ss[0].generate_state(1)[0]), int(ss[1].generate_state(1)[0]))
