"""Exact Gaussian-process regression on precomputed kernel matrices.

``fit`` and ``predict`` are Rasmussen & Williams (2006), Alg. 2.1: one
LAPACK ``potrf`` (Cholesky), ``potrs`` (weights) and ``trtrs``
(variances), called directly, with the arguments of scipy's
``cholesky``, ``cho_solve`` and ``solve_triangular``, so the results are
theirs bit for bit; the inputs are validated once here instead of in
each wrapper, whose fixed cost dominated a fit at N = 30. ``fit`` is the
one factorization of a kernel matrix and the one place that refuses a
numerically singular K + noise_var I; ``grid_search`` forms its means as
K alpha, without the variance solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .activations import Activation
from .data import Dataset, split
from .deep import kernel_matrices_by_depth


@dataclass
class GpFit:
    """Cholesky factorization of K + noise_var * I with solved weights,
    the negative log marginal likelihood ``nll`` of the targets and the
    count of variances ``predict`` clamped to zero."""

    chol_lower: np.ndarray
    alpha: np.ndarray
    log_det: float
    nll: float
    n_var_clamped: int = 0


def _gamma(m):
    """Higham's gamma_m = m u / (1 - m u), u = eps / 2.

    The computed Cholesky factor L of an n x n A = K + noise_var I is exact
    for A + dA, |dA| <= gamma_{n+1} |L||L^T| (Higham, Accuracy and Stability
    of Numerical Algorithms, Thm 10.3), whose entries are at most max
    diag(A). Where noise_var <= gamma_{n+1} max diag(K), that exceeds the
    noise term: K + noise_var I is numerically singular.
    """
    mu = m * np.finfo(float).eps / 2
    return mu / (1.0 - mu)


def _finite(a, what):
    if not np.isfinite(a).all():
        raise ValueError(f"{what} contains non-finite entries")
    return a


def fit(K, y, noise_var: float) -> GpFit:
    """Factorize K + noise_var * I, solve for the weights and take the
    negative log marginal likelihood from them. A numerically singular
    (see ``_gamma``) or indefinite K + noise_var I raises ArithmeticError."""
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1] or K.shape[0] != y.shape[0]:
        raise ValueError("K must be square and match y")
    _finite(K, "K")
    # the allclose(K, K.T, rtol=0, atol) predicate, K being finite
    if np.abs(K - K.T).max() > 1e-10 * max(1.0, np.abs(K).max()):
        raise ValueError("K must be symmetric")
    if not 0.0 < noise_var < np.inf:
        raise ValueError("noise variance must be strictly positive and finite")
    n = K.shape[0]
    gamma, max_diag = _gamma(n + 1), K.diagonal().max()
    if noise_var <= gamma * max_diag:
        raise ArithmeticError(f"K + noise_var I is numerically singular: noise_var {noise_var:.6g}"
                              f" <= gamma_{n + 1} {gamma:.6g} x max diag K {max_diag:.6g}")
    L, info = dpotrf(K + noise_var * np.eye(n), lower=1, clean=1)
    if info:
        raise ArithmeticError(f"K + noise_var I is not positive definite (leading minor {info})")
    alpha, info = dpotrs(L, _finite(y, "right-hand side"), lower=1)
    if info:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    log_det = 2.0 * float(np.log(np.diag(L)).sum())
    nll = float(0.5 * y @ alpha + 0.5 * log_det + 0.5 * n * np.log(2.0 * np.pi))
    return GpFit(L, alpha, log_det, nll)


def predict(gp: GpFit, K_star, K_star_star_diag):
    """Posterior mean K* alpha and variance k** - v.v, v = L^-1 k*. A
    negative variance within its rounding bound is clamped to zero and
    counted on ``gp.n_var_clamped``; one below it raises ArithmeticError."""
    K_star = np.atleast_2d(np.asarray(K_star, dtype=float))
    k_diag = np.asarray(K_star_star_diag, dtype=float)
    if K_star.shape[1] != gp.alpha.shape[0] or K_star.shape[0] != k_diag.shape[0]:
        raise ValueError("shape mismatch between K_star and the fit")
    _finite(K_star, "K_star")
    _finite(k_diag, "K_star_star_diag")
    mean = K_star @ gp.alpha
    L = gp.chol_lower
    v, info = dtrtrs(L, K_star.T, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"triangular solve failed: trtrs info {info}")
    var = k_diag - np.einsum("ij,ij->j", v, v)
    clamped = var < 0.0
    if clamped.any():
        # trtrs returns v' with (L + dL) v' = k*, |dL| <= gamma_n |L| (Higham
        # Thm 8.5), so to first order |v'.v' - v.v| = 2 |(L^-T v)^T dL v'| <= 2
        # gamma_n ||L^-1||_2 ||L||_F |v|^2 <= 2 sqrt(n) kappa gamma_n |v|^2, with
        # d = max diag(L L^T) and kappa = sqrt(d) / min diag(L), the Cholesky
        # diagonal's estimate of sqrt(d) ||L^-1||_2; the dot product adds
        # gamma_n |v|^2 (Higham (3.5)). |v|^2 = k*^T (K + noise_var I)^-1 k* <=
        # k** for a positive semidefinite prior; the bound takes max(k**, d).
        n, d = L.shape[0], np.einsum("ij,ij->i", L, L).max()
        kappa = np.sqrt(d) / L.diagonal().min()
        tol = (2.0 * np.sqrt(n) * kappa + 1.0) * _gamma(n) * np.maximum(k_diag, d)
        if (var < -tol).any():
            j = int(np.argmax(-var / tol))
            raise ArithmeticError(f"predictive variance {var[j]:.6g} below its rounding "
                                  f"bound -{tol[j]:.6g}")
        gp.n_var_clamped += int(clamped.sum())
        var = np.where(clamped, 0.0, var)
    return mean, var


def rmse(predicted, target) -> float:
    diff = np.asarray(predicted, dtype=float) - np.asarray(target, dtype=float)
    return float(np.sqrt(np.mean(diff ** 2)))


class GridResult(NamedTuple):
    activation: str
    depth: int
    sigma_w2: float
    sigma_b2: float
    noise_var: float
    split_id: int
    train_rmse: float
    test_rmse: float
    nll: float


GRID_CSV_COLUMNS = GridResult._fields


def _grid_one_sigma(act, X, y, sigma_w2, sigma_b2, depths, noise_var, splits):
    # a cell whose train blocks ``fit`` would refuse as numerically singular
    # keeps nan metrics; the max is over every row, so all splits agree
    gamma, nan = _gamma(len(splits[0][0]) + 1), float("nan")
    metrics = dict.fromkeys(depths, ((nan, nan, nan),) * len(splits))
    try:
        for depth, K in kernel_matrices_by_depth(act, X, sigma_w2, sigma_b2, depths):
            if noise_var <= gamma * np.diag(K).max():
                continue
            cell = metrics[depth] = []
            for tr, te in splits:
                K_tr = K[np.ix_(tr, tr)]
                gp = fit(K_tr, y[tr], noise_var)
                cell.append((rmse(K_tr @ gp.alpha, y[tr]),
                             rmse(K[np.ix_(te, tr)] @ gp.alpha, y[te]), gp.nll))
    except OverflowError:
        pass  # the ELU/SELU closed forms refuse s > ELU_S_MAX: deeper cells keep nan
    return [GridResult(act.kind, d, sigma_w2, sigma_b2, noise_var, i, *m)
            for d in depths for i, m in enumerate(metrics[d])]


def grid_search(dataset: Dataset, act: Activation, depth_range, sigma_w2_range,
                noise_var: float, metric: str = "test_rmse", n_splits: int = 5,
                train_frac: float = 0.8, seed: int = 0, sigma_b2: float = 0.0):
    """Depth x weight-variance grid search with shuffled splits.

    Returns (ranked, rows): ``rows`` holds one GridResult per
    (configuration, split); ``ranked`` aggregates the chosen metric
    over splits, sorted by (metric, depth, sigma_w2) so ties resolve to
    the smallest depth, then the smallest weight variance. Cells whose
    kernel leaves the ELU/SELU guard, or with noise_var <= gamma_{n+1} max
    diag(K) (n the train size), get nan metrics and are not ranked.
    """
    if dataset.n < 4:
        raise ValueError("dataset too small for a grid search (need >= 4 points)")
    if metric not in ("test_rmse", "train_rmse", "nll"):
        raise ValueError(f"unknown metric {metric!r}")
    depths = sorted(set(int(d) for d in depth_range))
    sigmas = [float(s) for s in sigma_w2_range]
    if not depths or not sigmas:
        raise ValueError("empty grid")
    idx_splits = [tuple(part.indices for part in split(dataset, train_frac, seed + i))
                  for i in range(n_splits)]

    rows = [r for sw in sigmas
            for r in _grid_one_sigma(act, dataset.X, dataset.y, sw, sigma_b2,
                                     depths, noise_var, idx_splits)]

    agg = {}
    for r in rows:
        if not np.isnan(r.test_rmse):
            agg.setdefault((r.depth, r.sigma_w2), []).append(getattr(r, metric))
    ranked = sorted(
        ({"depth": d, "sigma_w2": s, metric: float(np.mean(vals)),
          "n_splits": len(vals)} for (d, s), vals in agg.items()),
        key=lambda rec: (rec[metric], rec["depth"], rec["sigma_w2"]),
    )
    return ranked, rows
