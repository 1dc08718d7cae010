import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky, solve_triangular

from nnkernels.activations import RELU
from nnkernels.data import Dataset, disc_grid, disc_task
from nnkernels.deep import kernel_matrices_by_depth
from nnkernels.gp import GRID_CSV_COLUMNS, fit, grid_search, nll, predict


def dense_posterior(K, y, noise, K_star, K_ss_diag):
    A = K + noise * np.eye(K.shape[0])
    alpha = np.linalg.solve(A, y)
    mean = K_star @ alpha
    var = K_ss_diag - np.einsum("ij,jk,ik->i", K_star, np.linalg.inv(A), K_star)
    return mean, var


def dense_nll(K, y, noise):
    A = K + noise * np.eye(K.shape[0])
    sign, logdet = np.linalg.slogdet(A)
    return 0.5 * y @ np.linalg.solve(A, y) + 0.5 * logdet + 0.5 * len(y) * np.log(2 * np.pi)


def random_spd(n, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    B = rng.standard_normal((n, n + 3))
    return B @ B.T / (n + 3)


class TestFit:
    def test_zero_kernel_weights_are_targets(self):
        y = np.array([1.0, -2.0, 0.5])
        gp = fit(np.zeros((3, 3)), y, 1.0)
        assert np.allclose(gp.alpha, y)

    def test_scalar_shrinkage(self):
        c, noise, y = 2.0, 0.5, np.array([3.0])
        gp = fit(np.array([[c]]), y, noise)
        mean, _ = predict(gp, np.array([[c]]), np.array([c]))
        assert mean[0] == pytest.approx(c * y[0] / (c + noise), rel=1e-12)

    def test_alpha_matches_dense_solve(self):
        K = random_spd(20, 1)
        rng = np.random.Generator(np.random.Philox(key=2))
        y = rng.standard_normal(20)
        gp = fit(K, y, 0.3)
        dense = np.linalg.solve(K + 0.3 * np.eye(20), y)
        assert np.abs(gp.alpha - dense).max() <= 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            fit(np.zeros((2, 2)), np.zeros(2), 0.0)  # noise must be positive
        with pytest.raises(ValueError):
            fit(np.array([[1.0, 0.5], [0.2, 1.0]]), np.zeros(2), 0.1)  # asymmetric
        with pytest.raises(ValueError):
            fit(np.full((2, 2), np.nan), np.zeros(2), 0.1)
        for noise in (np.inf, np.nan):
            with pytest.raises(ValueError):
                fit(np.eye(2), np.zeros(2), noise)
        with pytest.raises(ValueError):
            fit(np.eye(2), np.array([np.inf, 0.0]), 0.1)
        gp = fit(np.eye(2), np.zeros(2), 0.1)
        with pytest.raises(ValueError):
            predict(gp, np.array([[np.nan, 0.0]]), np.ones(1))
        with pytest.raises(ValueError):
            nll(gp, np.zeros(3))
        with pytest.raises(ValueError):
            nll(gp, np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("scale", [0.9, 1.1])
    def test_symmetry_tolerance(self, scale):
        K = 3.0 * random_spd(4, 13)
        tol = 1e-10 * max(1.0, np.abs(K).max())
        K[0, 1] += scale * tol
        if scale < 1.0:
            fit(K, np.zeros(4), 0.1)
        else:
            with pytest.raises(ValueError, match="symmetric"):
                fit(K, np.zeros(4), 0.1)

    def test_jitter_retry_is_recorded(self):
        # K + noise I is singular; K + noise I + 1e-8 (trace K / N) I is not
        noise = 0.1
        K = np.diag([1.0, -noise])
        assert fit(random_spd(3, 1), np.ones(3), noise).jitter == 0.0
        gp = fit(K, np.array([1.0, 0.0]), noise)
        assert gp.jitter == 1e-8 * (1.0 - noise) / 2
        np.testing.assert_allclose(gp.chol_lower @ gp.chol_lower.T,
                                   K + (noise + gp.jitter) * np.eye(2), rtol=0, atol=1e-15)
        # K + noise I indefinite beyond the jitter: one retry, then a refusal
        with pytest.raises(ArithmeticError, match="jitter retry"):
            fit(np.diag([1.0, -1.0]), np.zeros(2), noise)

    def test_factorization_residual(self):
        K = random_spd(30, 3)
        gp = fit(K, np.zeros(30), 0.1)
        A = gp.chol_lower @ gp.chol_lower.T
        target = K + 0.1 * np.eye(30)
        assert np.abs(A - target).max() <= 1e-8 * np.abs(K).max()


def assert_matches_scipy_wrappers(K, y, K_star, k_diag, noise=0.1):
    """``fit``, ``predict`` and ``nll`` equal, bit for bit, Rasmussen &
    Williams Alg. 2.1 through scipy's validating wrappers."""
    A = K + noise * np.eye(K.shape[0])
    jitter = 0.0
    try:
        L = cholesky(A, lower=True)
    except np.linalg.LinAlgError:
        jitter = 1e-8 * np.trace(K) / K.shape[0]
        L = cholesky(A + jitter * np.eye(K.shape[0]), lower=True)
    alpha = cho_solve((L, True), y)
    log_det = 2.0 * float(np.log(np.diag(L)).sum())
    v = solve_triangular(L, K_star.T, lower=True)
    var = k_diag - np.einsum("ij,ij->j", v, v)
    ref_nll = float(0.5 * y @ cho_solve((L, True), y) + 0.5 * log_det
                    + 0.5 * y.shape[0] * np.log(2.0 * np.pi))
    ref = (L, alpha, log_det, jitter, K_star @ alpha, np.where(var < 0.0, 0.0, var), ref_nll)
    gp = fit(K, y, noise)
    got = (gp.chol_lower, gp.alpha, gp.log_det, gp.jitter,
           *predict(gp, K_star, k_diag), nll(gp, y))
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)
    return gp


class TestLapackIdentity:
    @pytest.mark.parametrize("n", [1, 30, 80])
    def test_random_kernels(self, n):
        K_full = random_spd(n + 20, 40 + n)
        y = np.random.Generator(np.random.Philox(key=n)).standard_normal(n)
        assert_matches_scipy_wrappers(K_full[:n, :n], y, K_full[n:, :n], np.diag(K_full)[n:])

    def test_deep_kernel_sweep(self):
        train, grid = disc_task("sin", 30, 0.1, seed=3), disc_grid("sin", 100)
        X = np.vstack([train.X, grid.X])
        n = train.n
        for _, K in kernel_matrices_by_depth(RELU, X, 2.0, 0.0, [1, 10, 100]):
            assert_matches_scipy_wrappers(K[:n, :n], train.y, K[n:, :n], np.diag(K)[n:])

    def test_jitter_retry(self):
        K = np.diag([1.0, -0.1])
        gp = assert_matches_scipy_wrappers(K, np.array([1.0, 0.0]), K[:1], np.ones(1))
        assert gp.jitter > 0.0


class TestPredict:
    def test_training_point_shrinkage(self):
        K = random_spd(10, 4)
        rng = np.random.Generator(np.random.Philox(key=5))
        y = rng.standard_normal(10)
        gp = fit(K, y, 0.5)
        mean, _ = predict(gp, K, np.diag(K))
        # ridge shrinkage pulls predictions toward zero relative to y
        assert np.linalg.norm(mean) < np.linalg.norm(y)

    def test_zero_cross_covariance_recovers_prior(self):
        K = random_spd(8, 6)
        gp = fit(K, np.ones(8), 0.2)
        mean, var = predict(gp, np.zeros((3, 8)), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(mean, 0.0)
        assert np.allclose(var, [1.0, 2.0, 3.0])

    def test_matches_dense_oracle(self):
        K_full = random_spd(30, 7)
        K = K_full[:20, :20]
        K_star = K_full[20:, :20]
        K_ss = np.diag(K_full)[20:]
        rng = np.random.Generator(np.random.Philox(key=8))
        y = rng.standard_normal(20)
        gp = fit(K, y, 0.1)
        mean, var = predict(gp, K_star, K_ss)
        mean_d, var_d = dense_posterior(K, y, 0.1, K_star, K_ss)
        assert np.abs(mean - mean_d).max() <= 1e-9
        assert np.abs(var - var_d).max() <= 1e-9

    def test_rounding_variance_clamped_and_counted(self):
        # a K** diagonal 5e-11 below the quadratic form is within the
        # rounding tolerance: its variance is clamped to 0 and counted;
        # 1e-9 below raises
        K = random_spd(6, 3)
        gp = fit(K, np.ones(6), 0.1)
        quad = np.diag(K[:2] @ np.linalg.solve(K + 0.1 * np.eye(6), K[:2].T))
        _, var = predict(gp, K[:2], quad + np.array([-5e-11, 1.0]))
        assert var[0] == 0.0 and var[1] == pytest.approx(1.0, abs=1e-12)
        assert gp.n_var_clamped == 1
        with pytest.raises(ArithmeticError, match="variance below"):
            predict(gp, K[:2], quad - 1e-9)

    def test_shape_mismatch(self):
        gp = fit(np.eye(3), np.zeros(3), 0.1)
        with pytest.raises(ValueError):
            predict(gp, np.zeros((2, 4)), np.zeros(2))


class TestNll:
    def test_single_point_closed_form(self):
        gp = fit(np.zeros((1, 1)), np.zeros(1), 1.0)
        assert nll(gp, np.zeros(1)) == pytest.approx(0.5 * np.log(2 * np.pi), rel=1e-12)

    def test_noise_doubling_closed_form(self):
        y = np.array([0.7, -0.3, 1.1])
        g1 = fit(np.zeros((3, 3)), y, 1.0)
        g2 = fit(np.zeros((3, 3)), y, 2.0)
        expected_delta = 0.5 * 3 * np.log(2.0) + 0.5 * (y @ y) * (1 / 2 - 1)
        assert nll(g2, y) - nll(g1, y) == pytest.approx(expected_delta, rel=1e-12)

    def test_matches_dense_oracle(self):
        K = random_spd(10, 9)
        rng = np.random.Generator(np.random.Philox(key=10))
        y = rng.standard_normal(10)
        gp = fit(K, y, 0.25)
        assert nll(gp, y) == pytest.approx(dense_nll(K, y, 0.25), abs=1e-9)

    def test_permutation_invariance(self):
        K = random_spd(12, 11)
        rng = np.random.Generator(np.random.Philox(key=12))
        y = rng.standard_normal(12)
        perm = rng.permutation(12)
        a = nll(fit(K, y, 0.1), y)
        b = nll(fit(K[np.ix_(perm, perm)], y[perm], 0.1), y[perm])
        assert a == pytest.approx(b, rel=1e-10)


class TestGridSearch:
    def _toy(self, n=24, seed=0):
        rng = np.random.Generator(np.random.Philox(key=seed))
        X = rng.standard_normal((n, 2))
        y = X @ np.array([1.0, -0.5]) + 0.05 * rng.standard_normal(n)
        return Dataset(X, y, name="toy-linear")

    def test_single_configuration(self):
        ranked, rows = grid_search(self._toy(), RELU, [2], [1.0], 0.1, n_splits=2)
        assert len(ranked) == 1
        assert len(rows) == 2
        assert set(GRID_CSV_COLUMNS) == set(rows[0].__dataclass_fields__)

    def test_linear_data_prefers_shallow(self):
        ranked, _ = grid_search(self._toy(), RELU, [1, 32], [1.0], 0.1,
                                n_splits=3, seed=1)
        by_depth = {r["depth"]: r["test_rmse"] for r in ranked}
        assert by_depth[1] < by_depth[32]

    def test_deterministic_tie_breaking(self):
        ds = self._toy()
        ranked, _ = grid_search(ds, RELU, [1, 2], [0.5, 1.0], 0.1, n_splits=2)
        keys = [(r["test_rmse"], r["depth"], r["sigma_w2"]) for r in ranked]
        assert keys == sorted(keys)

    def test_too_small_dataset(self):
        ds = Dataset(np.eye(3), np.arange(3.0))
        with pytest.raises(ValueError):
            grid_search(ds, RELU, [1], [1.0], 0.1)


class TestRmseSurface:
    def test_grid_rmse_surface_is_smooth(self):
        # protocol run (80/20, shuffled splits, fixed noise 0.1): the mean
        # test-RMSE surface varies smoothly in depth and weight variance --
        # no config should spike away from its grid neighbours
        rng = np.random.Generator(np.random.Philox(key=31))
        X = rng.standard_normal((60, 3))
        y = np.sin(X @ np.array([1.0, -0.7, 0.4])) + 0.1 * rng.standard_normal(60)
        ds = Dataset(X, y, name="smooth-toy")
        depths = [1, 2, 3, 4, 5, 6]
        sigmas = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        ranked, _ = grid_search(ds, RELU, depths, sigmas, 0.1, n_splits=3, seed=2)
        surface = np.full((len(depths), len(sigmas)), np.nan)
        for rec in ranked:
            surface[depths.index(rec["depth"]), sigmas.index(rec["sigma_w2"])] = rec["test_rmse"]
        assert np.isfinite(surface).all()
        # smoothness = no isolated spikes: every cell stays close to the
        # mean of its grid neighbours relative to the global range
        rng_range = surface.max() - surface.min()
        worst = 0.0
        for i in range(len(depths)):
            for j in range(len(sigmas)):
                neigh = [surface[a, b]
                         for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
                         if 0 <= a < len(depths) and 0 <= b < len(sigmas)]
                worst = max(worst, abs(surface[i, j] - np.mean(neigh)))
        assert worst <= 0.35 * rng_range


class TestDegeneratePosterior:
    def test_deep_relu_posterior_flattens_with_depth(self):
        # empirical form of the constant-limit property: the deep ReLU
        # posterior mean varies far less over the circle than a shallow one
        train = disc_task("sin", 16, 0.1, seed=21)
        grid = disc_grid("sin", 100)
        X = np.vstack([train.X, grid.X])
        n = train.n
        stds = {}
        for depth, K in kernel_matrices_by_depth(RELU, X, 2.0, 0.0, [1, 64, 512]):
            gp = fit(K[:n, :n], train.y, 0.1)
            mean, _ = predict(gp, K[n:, :n], np.diag(K)[n:])
            stds[depth] = np.std(mean)
        assert stds[64] < 0.35 * stds[1]
        assert stds[512] < 0.5 * stds[64]
        # and the L=64 kernel itself is nearly constant
        _, K64 = next(iter(kernel_matrices_by_depth(RELU, X, 2.0, 0.0, [64])))
        assert K64.min() >= 0.98
