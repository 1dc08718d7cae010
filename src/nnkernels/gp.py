"""Exact Gaussian-process regression on precomputed kernel matrices.

``fit`` and ``predict`` are Rasmussen & Williams (2006), Alg. 2.1: one
LAPACK ``potrf`` (Cholesky), ``potrs`` (weights) and ``trtrs``
(variances), called directly; the log marginal likelihood comes from
the fit's own weights and log-determinant. These are the routines
``scipy.linalg.cholesky``, ``cho_solve`` and ``solve_triangular`` call,
with the same arguments, so the results are theirs bit for bit; the
inputs are validated once here (shape, finiteness, symmetry, noise)
instead of again in each of scipy's wrappers, whose fixed cost dominated
a fit at N = 30. ``fit`` is the one factorization of a kernel matrix;
``grid_search`` forms its means as K alpha, without the variance solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .activations import Activation
from .data import Dataset, split
from .deep import kernel_matrices_by_depth

_VAR_CLAMP = -1e-10


@dataclass
class GpFit:
    """Cholesky factorization of K + noise_var * I with solved weights
    and the negative log marginal likelihood ``nll`` of the targets.

    ``jitter`` is the diagonal term the one retry added to K + noise_var
    * I (0.0 when the first factorization succeeded).
    """

    chol_lower: np.ndarray
    alpha: np.ndarray
    log_det: float
    nll: float
    n_var_clamped: int = 0
    jitter: float = 0.0


def _finite(a, what):
    if not np.isfinite(a).all():
        raise ValueError(f"{what} contains non-finite entries")
    return a


def _potrs(L, b):
    """(L L^T)^-1 b for the lower Cholesky factor L."""
    x, info = dpotrs(L, _finite(b, "right-hand side"), lower=1)
    if info:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


def fit(K, y, noise_var: float) -> GpFit:
    """Factorize K + noise_var * I, solve for the weights and take the
    negative log marginal likelihood from them."""
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
    A = K + noise_var * np.eye(n)
    jitter = 0.0
    L, info = dpotrf(A, lower=1, clean=1)
    if info:
        jitter = 1e-8 * np.trace(K) / n
        L, info = dpotrf(A + jitter * np.eye(n), lower=1, clean=1)
        if info:
            raise ArithmeticError("factorization failed after one jitter retry "
                                  f"(leading minor {info} not positive definite)")
    alpha = _potrs(L, y)
    log_det = 2.0 * float(np.log(np.diag(L)).sum())
    nll = float(0.5 * y @ alpha + 0.5 * log_det + 0.5 * n * np.log(2.0 * np.pi))
    return GpFit(L, alpha, log_det, nll, jitter=float(jitter))


def predict(gp: GpFit, K_star, K_star_star_diag):
    """Posterior mean and variance at test points.

    mean = K* alpha; var = diag(K**) - row quadratic form. Variances
    above the -1e-10 tolerance are clamped to zero (counted on the fit
    object); anything lower raises. The tolerance is absolute: at a large
    kernel scale (diag(K) ~ 1e14) the rounding of k** - v.v can cross it.
    """
    K_star = np.atleast_2d(np.asarray(K_star, dtype=float))
    k_diag = np.asarray(K_star_star_diag, dtype=float)
    if K_star.shape[1] != gp.alpha.shape[0] or K_star.shape[0] != k_diag.shape[0]:
        raise ValueError("shape mismatch between K_star and the fit")
    _finite(K_star, "K_star")
    _finite(k_diag, "K_star_star_diag")
    mean = K_star @ gp.alpha
    v, info = dtrtrs(gp.chol_lower, K_star.T, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"triangular solve failed: trtrs info {info}")
    var = k_diag - np.einsum("ij,ij->j", v, v)
    if (var < _VAR_CLAMP).any():
        raise ArithmeticError(f"predictive variance below {_VAR_CLAMP}")
    clamped = var < 0.0
    if clamped.any():
        gp.n_var_clamped += int(clamped.sum())
        var = np.where(clamped, 0.0, var)
    return mean, var


def rmse(predicted, target) -> float:
    predicted = np.asarray(predicted, dtype=float)
    target = np.asarray(target, dtype=float)
    return float(np.sqrt(np.mean((predicted - target) ** 2)))


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
    # The computed Cholesky factor L of the n x n train block A = K +
    # noise_var I is exact for A + dA, |dA| <= gamma_{n+1} |L||L^T| (Higham,
    # Accuracy and Stability of Numerical Algorithms, Thm 10.3), whose
    # entries are at most max diag(A). Where noise_var <= gamma_{n+1} max
    # diag(K), that exceeds the noise term: the cell's metrics mean nothing
    # and stay nan. The max is over every row, so all splits of a cell agree.
    n, u = len(splits[0][0]), np.finfo(float).eps / 2
    gamma = (n + 1) * u / (1.0 - (n + 1) * u)
    nan = float("nan")
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
    idx_splits = []
    for i in range(n_splits):
        tr, te = split(dataset, train_frac, seed + i)
        idx_splits.append((tr.indices, te.indices))

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
