"""Depth iteration of kernel and tangent-kernel states.

Conventions
-----------
A network of depth L has L hidden layers and therefore L + 1 parameter
pairs: index 0 is the input map (the linear kernel of the transformed
inputs), indices 1..L drive the expectation updates. ``NetworkHyper``
stores one (sigma_w^2, sigma_b^2) pair per index; the shared
constructor replicates a single pair, which is the default protocol.

Every update, scalar or matrix, kernel or tangent kernel, shared or
per-level variances, goes through one array function, ``_layer_step``,
and each layer is one kernel call: the pairs and each row's own
diagonal at rho = 1 are the entries of one ``pair_mean`` call (or, with
the tangent kernel, one ``pair_moments`` call), whose diagonal entries
are the next squared norms. The matrix path builds those entries once
per depth sweep; the pair calls take a state of floats or of arrays (one
pair per entry) and step the stacked norms ``[s1_sq, s2_sq]`` as rows 0
and 1, with the entries ``_PAIR_ENTRIES``. The tangent kernel T starts
at zero on the input map, so T = k after update 1, and follows
T' = T * kdot + k'.
``_layer_jacobian`` is the closed-form Jacobian of one pair update, for
every activation; ``kernel_grad`` chains it into exact gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .activations import Activation
from .kernels import (_unit_clip, kernel_dot_values, pair_dd_mean, pair_dot_mean,
                      pair_mean, pair_moments)

_RHO_OVERSHOOT = 1e-12

# The entries of one pair step: the pair (0, 1), then each row's own
# diagonal (0, 0) and (1, 1), indexing the stacked norms [s1_sq, s2_sq].
_PAIR_ENTRIES = (np.array([0, 0, 1]), np.array([1, 0, 1]))


def _all(flags):
    """``np.all`` over every entry, at a quarter of its cost on a scalar."""
    return np.logical_and.reduce(flags, axis=None)


@dataclass(frozen=True)
class LayerState:
    """Squared signal norms and normalized kernel of one layer; floats,
    or arrays of one shape holding one pair per entry."""

    s1_sq: float
    s2_sq: float
    rho: float

    def __post_init__(self):
        if not _all(abs(self.rho) <= 1.0):  # false at NaN
            raise ValueError("rho must lie in [-1, 1]")
        if not _all(np.isfinite(self.s1_sq + self.s2_sq)
                    & (np.minimum(self.s1_sq, self.s2_sq) >= 0.0)):
            raise ValueError("squared norms s1_sq, s2_sq must be finite and nonnegative")


@dataclass(frozen=True)
class NtkState:
    """Kernel and tangent-kernel state, floats or arrays of one shape;
    ``tau`` only for the rescaled form."""

    s1_sq: float
    s2_sq: float
    k: float
    T: float
    tau: float | None = None


@dataclass(frozen=True)
class NetworkHyper:
    """Per-level (sigma_w^2, sigma_b^2) for a depth-L network."""

    depth: int
    sigma_w2: tuple
    sigma_b2: tuple

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if len(self.sigma_w2) != self.depth + 1 or len(self.sigma_b2) != self.depth + 1:
            raise ValueError("need depth + 1 parameter pairs (input map + updates)")
        if any(v < 0 for v in self.sigma_w2) or any(v < 0 for v in self.sigma_b2):
            raise ValueError("variances must be nonnegative")

    @classmethod
    def shared(cls, depth: int, sigma_w2: float, sigma_b2: float = 0.0):
        return cls(depth, (float(sigma_w2),) * (depth + 1), (float(sigma_b2),) * (depth + 1))


def _normalized(k, s1_sq, s2_sq):
    rho = k / np.sqrt(s1_sq * s2_sq)
    # written as a refusal of what is not within the bound, so NaN fails it too
    if not _all(np.abs(rho) - 1.0 <= _RHO_OVERSHOOT):
        if not np.isfinite(rho).all():
            raise ArithmeticError("normalized kernel is not finite (NaN or inf): the kernel "
                                  "or a squared norm overflowed")
        raise ArithmeticError(
            f"normalized kernel overshoots [-1, 1] by {float(np.max(np.abs(rho))) - 1.0:.3e}; "
            "this signals a kernel bug"
        )
    return _unit_clip(rho)


def _layer_step(act: Activation, s_sq, entries, rho, sigma_w2, sigma_b2, t=None):
    """One layer of the kernel and tangent-kernel recursion, on arrays, in
    one kernel call.

    ``s_sq`` holds each row's squared signal norm; entry e joins rows
    ``entries[0][e]`` and ``entries[1][e]`` at correlation ``rho[e]``. The
    caller lists the pairs first and then each row's own diagonal, at
    rho = 1, so the one call also gives the next norms. Returns the next
    level's k' = sigma_w^2 E[psi psi] + sigma_b^2 on every entry (on the
    diagonal, the next ``s_sq``) and, with the tangent kernel ``t`` given
    (broadcast against the entries), T' = T kdot + k' from the same
    ``pair_moments`` call; else None.
    """
    i, j = entries
    s = np.sqrt(s_sq)
    # The updates are in place, in an order that gives the bits of
    # sigma_w2 * mean + sigma_b2 and t * (sigma_w2 * dot_mean) + k: with
    # two fresh batch-sized temporaries per update, glibc trimmed and
    # regrew its heap on every layer of the matrix path (~200 page faults
    # per layer at 8,515 entries, GELU 1.7x slower).
    if t is None:
        k = pair_mean(act, s[i], s[j], rho)
    else:
        k, kdot = pair_moments(act, s[i], s[j], rho)
    k *= sigma_w2
    k += sigma_b2
    if t is None:
        return k, None
    kdot *= sigma_w2
    kdot *= t
    kdot += k
    return k, kdot


def _with_diagonal(rho):
    """``[rho, 1, 1]`` along a new first axis: the correlations of
    ``_PAIR_ENTRIES``."""
    out = np.ones((3,) + np.shape(rho))
    out[0] = rho
    return out


def _positive_norms(s_sq, name):
    """``s_sq``, one squared norm per row (``[s1_sq, s2_sq]`` of a pair
    state, or sigma_w^2 ||x||^2 + sigma_b^2 of each input), if each is
    finite and strictly positive; else a ``ValueError`` naming a row."""
    ok = (s_sq > 0.0) & (s_sq < np.inf)  # false at NaN
    if not _all(ok):
        row = np.argwhere(~ok)[0]
        raise ValueError(f"{name} requires finite, strictly positive squared norms; "
                         f"row {row[0]} has {float(s_sq[tuple(row)])!r}")
    return s_sq


def iterate_state(act: Activation, state: LayerState, sigma_w2: float,
                  sigma_b2: float) -> LayerState:
    """One layer update of (s1^2, s2^2, rho), on one pair or an array of pairs."""
    s_sq = _positive_norms(np.array([state.s1_sq, state.s2_sq]), "iterate_state")
    (k, s1_sq, s2_sq), _ = _layer_step(act, s_sq, _PAIR_ENTRIES, _with_diagonal(state.rho),
                                       sigma_w2, sigma_b2)
    return LayerState(s1_sq, s2_sq, _normalized(k, s1_sq, s2_sq))


def input_state(theta0, norm: float, sigma_w2: float, sigma_b2: float) -> LayerState:
    """Level-0 state of two inputs of equal norm at the angle(s) theta0."""
    if norm <= 0.0:
        raise ValueError("norm must be positive")
    k0 = sigma_w2 * norm * norm * np.cos(theta0) + sigma_b2
    s_sq = np.zeros_like(k0) + (sigma_w2 * norm * norm + sigma_b2)
    return LayerState(s_sq, s_sq, _normalized(k0, s_sq, s_sq))


def deep_normalized_kernel(act: Activation, theta0, norm: float,
                           hyper: NetworkHyper) -> np.ndarray:
    """Trajectory cos(theta^(l)), l = 1..L, from the angle(s) theta0,
    along the last axis."""
    state = input_state(theta0, norm, hyper.sigma_w2[0], hyper.sigma_b2[0])
    rhos = []
    for l in range(1, hyper.depth + 1):
        state = iterate_state(act, state, hyper.sigma_w2[l], hyper.sigma_b2[l])
        rhos.append(state.rho)
    return np.stack(rhos, axis=-1)


def state_trajectory(act: Activation, x1, x2, hyper: NetworkHyper):
    """Per-level (s1_sq, s2_sq, k) from the input map through depth L;
    level 1 is the one-layer kernel of x1 and x2. An input whose squared
    norm sigma_w^2 ||x||^2 + sigma_b^2 is 0 or not finite raises
    ``ValueError``."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    sw, sb = hyper.sigma_w2, hyper.sigma_b2
    s_sq = _positive_norms(sw[0] * np.array([x1 @ x1, x2 @ x2]) + sb[0], "state_trajectory")
    k = sw[0] * float(x1 @ x2) + sb[0]
    traj = [(*s_sq, k)]
    for l in range(1, len(sw)):
        (k, *s_sq), _ = _layer_step(act, s_sq, _PAIR_ENTRIES,
                                    _with_diagonal(_normalized(k, *s_sq)), sw[l], sb[l])
        traj.append((*s_sq, k))
    return traj


def ntk_iterate(act: Activation, state: NtkState, sigma_w2: float,
                sigma_b2: float) -> NtkState:
    """One tangent-kernel update: T' = T kdot' + k' (plus diag updates)."""
    s_sq = _positive_norms(np.array([state.s1_sq, state.s2_sq]), "ntk_iterate")
    rho = _with_diagonal(_normalized(state.k, state.s1_sq, state.s2_sq))
    # the pair's T, broadcast to the rows' entries too, whose T' is unused
    (k, s1_sq, s2_sq), (T, _, _) = _layer_step(act, s_sq, _PAIR_ENTRIES, rho, sigma_w2,
                                               sigma_b2, t=state.T)
    return NtkState(s1_sq, s2_sq, k, T, state.tau)


def scaled_ntk_iterate(act: Activation, state: NtkState, sigma_w2: float,
                       sigma_b2: float) -> NtkState:
    """Depth-rescaled tangent-kernel update.

    T' = tau ((1/tau - 1) T kdot + k'), tau' = 1/(1/tau + 1), so tau
    runs through 1/2, 1/3, 1/4, ... and T stays in a bounded set when
    the kernel map contracts.
    """
    tau = state.tau
    if tau is None or not np.all((0.0 < tau) & (tau <= 0.5)):
        raise ValueError("scaled_ntk_iterate requires tau in (0, 1/2]")
    new = ntk_iterate(act, replace(state, T=(1.0 / tau - 1.0) * state.T), sigma_w2, sigma_b2)
    return replace(new, T=tau * new.T, tau=tau / (1.0 + tau))


def kernel_matrices_by_depth(act: Activation, X, sigma_w2, sigma_b2,
                             depths, use_ntk: bool = False):
    """Yield (depth, K) for each requested depth, sharing the iteration.

    ``sigma_w2`` and ``sigma_b2`` are one value for every level or, as in
    ``NetworkHyper``, one per level 0..max(depths). Vectorized over
    all index pairs; ``depths`` must be increasing. A row whose squared
    norm sigma_w^2 ||x||^2 + sigma_b^2 is 0 or not finite raises
    ``ValueError`` naming it, before any layer. Each K is a fresh,
    exactly symmetric array, written whole by two scatters of the pair
    values through C-order flat indices fixed once, and one diagonal
    stride.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n < 1:
        raise ValueError("need at least one row")
    depths = list(depths)
    if depths != sorted(depths) or depths[0] < 1:
        raise ValueError("depths must be increasing and >= 1")
    sw, sb = (np.broadcast_to(v, depths[-1] + 1) for v in (sigma_w2, sigma_b2))
    rows = np.arange(n)
    entries = tuple(np.concatenate([e, rows]) for e in np.triu_indices(n, k=1))
    p = entries[0].size - n
    iu, ju = (e[:p] for e in entries)
    upper = lower = None  # the flat indices of K, fixed at its first write
    s_sq = _positive_norms(sw[0] * np.einsum("ij,ij->i", X, X) + sb[0],
                           "kernel_matrices_by_depth")
    k = sw[0] * np.einsum("ij,ij->i", X[iu], X[ju]) + sb[0]
    t = np.zeros(p + n) if use_ntk else None
    rho = np.ones(p + n)  # the pairs, then the rows' diagonal, which stays at 1
    want = set(depths)
    for depth in range(1, depths[-1] + 1):
        rho[:p] = _normalized(k, s_sq[iu], s_sq[ju])
        k_all, t = _layer_step(act, s_sq, entries, rho, sw[depth], sb[depth], t)
        k, s_sq = k_all[:p], k_all[p:]
        if depth in want:
            if upper is None:
                upper, lower = iu * n + ju, ju * n + iu
            off, diag = (t[:p], t[p:]) if use_ntk else (k, s_sq)
            K = np.empty(n * n)
            K[upper] = off
            K[lower] = off
            K[::n + 1] = diag
            yield depth, K.reshape(n, n)


def deep_kernel_matrix(act: Activation, X, hyper: NetworkHyper,
                       use_ntk: bool = False) -> np.ndarray:
    """Depth-L kernel (or tangent-kernel) matrix over the rows of X.

    Symmetry is exact by construction (upper triangle computed once).
    A non-finite entry raises ArithmeticError naming its pair. K is not
    factorized here: ``gp.fit`` factorizes it, and refuses a K + noise
    that is not positive definite.
    """
    _, K = next(kernel_matrices_by_depth(act, X, hyper.sigma_w2, hyper.sigma_b2,
                                         [hyper.depth], use_ntk=use_ntk))
    return _validated(K)


def _validated(K):
    bad = ~np.isfinite(K)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ArithmeticError(f"non-finite kernel entry at pair ({i}, {j})")
    return K


# ---------------------------------------------------------------------------
# Layer Jacobian and hyperparameter gradients of the depth-L kernel
# ---------------------------------------------------------------------------

def _layer_jacobian(act: Activation, s1_sq, s2_sq, k, sigma_w2) -> np.ndarray:
    """Jacobian of the state map (s1^2, s2^2, k) -> next level, 3 x 3.

    By Price's theorem, with D(a, b, rho) = E[psi''(a Z1) psi(b Z2)]:
    ds_i^2'/ds_i^2 = sigma_w^2 (E[psi'^2] + D)(s_i, s_i, 1), dk'/ds1^2 =
    (sigma_w^2 / 2) D(s1, s2, rho), likewise in s2, and dk'/dk = kdot.
    """
    rho = float(_normalized(k, s1_sq, s2_sq))
    s = np.sqrt([s1_sq, s2_sq])
    diag = sigma_w2 * (pair_dot_mean(act, s, s, 1.0) + pair_dd_mean(act, s, s, 1.0))
    dk_ds = 0.5 * sigma_w2 * pair_dd_mean(act, s, s[::-1], rho)
    return np.array([
        [diag[0], 0.0, 0.0],
        [0.0, diag[1], 0.0],
        [dk_ds[0], dk_ds[1], kernel_dot_values(act, s[0], s[1], rho, sigma_w2)],
    ])


def kernel_grad(act: Activation, hyper: NetworkHyper, trajectory) -> np.ndarray:
    """Reverse-mode gradient of the final kernel in all hyperparameters.

    ``trajectory`` is the output of :func:`state_trajectory`. Returns an
    array of shape (depth + 1, 2): column 0 is d k_final / d sigma_w^2
    at each level, column 1 the sigma_b^2 gradients.
    """
    if len(trajectory) != hyper.depth + 1:
        raise ValueError("trajectory length must be depth + 1")
    L = hyper.depth
    grads = np.zeros((L + 1, 2))
    suffix = np.eye(3)  # product J_L ... J_{l+1}, built from the top down
    for l in range(L, -1, -1):
        s1_sq, s2_sq, k = trajectory[l]
        sw, sb = hyper.sigma_w2[l], hyper.sigma_b2[l]
        if sw <= 0.0:
            raise ValueError("gradient requires strictly positive sigma_w^2")
        v_w = np.array([(s1_sq - sb) / sw, (s2_sq - sb) / sw, (k - sb) / sw])
        v_b = np.ones(3)
        grads[l, 0] = (suffix @ v_w)[2]
        grads[l, 1] = (suffix @ v_b)[2]
        if l > 0:
            suffix = suffix @ _layer_jacobian(act, *trajectory[l - 1], hyper.sigma_w2[l])
    return grads
