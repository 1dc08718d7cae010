import numpy as np
import pytest

from nnkernels.activations import ELU, ERF, GELU, RELU, from_name, lrelu, selu
from nnkernels.deep import (_PAIR_ENTRIES, LayerState, NetworkHyper, NtkState, _layer_jacobian,
                            _layer_step, _normalized, _validated, deep_kernel_matrix,
                            deep_normalized_kernel, input_state, iterate_state,
                            kernel_grad, kernel_matrices_by_depth, ntk_iterate,
                            scaled_ntk_iterate, state_trajectory)
from nnkernels.fixed_point import sigma_star
from nnkernels.kernels import diag_mean, kernel_dot_values, pair_mean, pair_moments

from oracle import kernel_grad_fd

ALL_ACTS = [GELU, ELU, RELU, ERF, lrelu(0.2)]
SIX_ACTS = [GELU, ERF, ELU, selu(1.0507, 1.6733), RELU, lrelu(0.2)]


class TestIterateState:
    def test_relu_one_step(self):
        st = iterate_state(RELU, LayerState(1.0, 1.0, 0.0), 2.0, 0.0)
        assert st.s1_sq == pytest.approx(1.0, rel=1e-12)
        assert st.s2_sq == pytest.approx(1.0, rel=1e-12)
        assert st.rho == pytest.approx(1.0 / np.pi, rel=1e-12)

    @pytest.mark.parametrize("act", ALL_ACTS, ids=lambda a: a.kind)
    def test_rho_one_is_fixed(self, act):
        st = iterate_state(act, LayerState(1.3, 1.3, 1.0), 1.1, 0.2)
        assert st.rho == pytest.approx(1.0, abs=1e-12)
        assert st.s1_sq == pytest.approx(st.s2_sq, rel=1e-14)

    def test_gelu_norm_preserving_variance(self):
        # sigma_w = 1.47: the hidden-layer expected square norm
        # (s'^2 - sigma_b^2)/sigma_w^2 stays at ||x||^2 = 1
        sw2 = 1.47 ** 2
        st = iterate_state(GELU, input_state(np.pi / 2, 1.0, sw2, 0.0), sw2, 0.0)
        assert st.s1_sq / sw2 == pytest.approx(1.0, abs=5e-3)
        assert st.s1_sq == pytest.approx(sw2, abs=5e-3 * sw2)

    def test_relu_he_norm_invariance_any_scale(self):
        for s_sq in (0.25, 1.0, 7.0):
            st = iterate_state(RELU, LayerState(s_sq, s_sq, 0.3), 2.0, 0.0)
            assert st.s1_sq == pytest.approx(s_sq, rel=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            iterate_state(GELU, LayerState(0.0, 1.0, 0.0), 1.0, 0.0)


class TestDeepNormalizedKernel:
    def test_zero_angle_all_ones(self):
        hyper = NetworkHyper.shared(8, 1.5, 0.1)
        traj = deep_normalized_kernel(GELU, 0.0, 1.0, hyper)
        assert np.allclose(traj, 1.0, atol=1e-12)

    def test_relu_degeneracy_and_monotonicity(self):
        hyper = NetworkHyper.shared(64, 2.0, 0.0)
        traj = deep_normalized_kernel(RELU, np.pi / 2, 1.0, hyper)
        assert traj[-1] >= 0.98
        assert (np.diff(traj[1:]) >= -1e-14).all()

    def test_relu_degeneracy_over_angle_range(self):
        hyper = NetworkHyper.shared(64, 2.0, 0.0)
        for theta0 in np.linspace(0.1, np.pi - 0.1, 9):
            traj = deep_normalized_kernel(RELU, float(theta0), 1.0, hyper)
            assert traj[-1] >= 0.98

    def test_gelu_depth_curves_intersect(self):
        # non-unique fixed point: trajectories for different depths cross
        sigma = sigma_star(GELU, 1.0)
        hyper = NetworkHyper.shared(8, sigma ** 2, 0.0)
        thetas = np.linspace(0.05, np.pi - 0.05, 60)
        rows = np.array([deep_normalized_kernel(GELU, float(t), 1.0, hyper)
                         for t in thetas])
        diff = rows[:, 0] - rows[:, 7]  # layer 1 vs layer 8
        assert (diff > 0).any() and (diff < 0).any()


class TestNtk:
    def test_depth_one_initialization_is_kernel(self):
        st = ntk_iterate(RELU, NtkState(1.0, 1.0, 0.0, 0.0), 2.0, 0.0)
        assert st.T == pytest.approx(st.k, rel=1e-14)
        assert st.k == pytest.approx(1.0 / np.pi, rel=1e-12)

    def test_relu_one_step_frozen(self):
        # closed forms: k' = 2 J1(pi/3)/(2 pi), T' = T kdot' + k'
        st = ntk_iterate(RELU, NtkState(1.0, 1.0, 0.5, 0.5), 2.0, 0.0)
        assert st.k == pytest.approx(0.6089977810442295, rel=1e-12)
        assert st.T == pytest.approx(0.9423311143775629, rel=1e-12)

    def test_zero_weight_variance(self):
        st = ntk_iterate(GELU, NtkState(1.0, 1.0, 0.3, 0.9), 0.0, 0.25)
        assert st.k == 0.25
        assert st.T == pytest.approx(0.25)

    def test_ntk_dominates_kernel_for_nonnegative_kdot(self):
        st = NtkState(1.0, 1.0, 0.8, 0.8)
        for _ in range(6):
            st = ntk_iterate(GELU, st, 1.47 ** 2, 0.0)
            assert st.T >= st.k - 1e-12


class TestScaledNtk:
    def test_tau_sequence(self):
        st = NtkState(1.0, 1.0, 0.5, 0.5, tau=0.5)
        taus = []
        for _ in range(3):
            st = scaled_ntk_iterate(RELU, st, 2.0, 0.0)
            taus.append(st.tau)
        assert taus == pytest.approx([1 / 3, 1 / 4, 1 / 5], rel=1e-14)

    def test_zero_kdot_reduces_to_tau_k(self):
        # sigma_w^2 = 0 kills kdot, so T' = tau * k' = tau * sigma_b^2
        st = scaled_ntk_iterate(GELU, NtkState(1.0, 1.0, 0.2, 5.0, tau=0.5), 0.0, 0.3)
        assert st.T == pytest.approx(0.5 * 0.3, rel=1e-14)

    def test_relu_bounded_over_depth(self):
        st = NtkState(1.0, 1.0, 0.5, 0.5, tau=0.5)
        for _ in range(64):
            st = scaled_ntk_iterate(RELU, st, 2.0, 0.0)
            assert abs(st.T) <= st.s1_sq + 1e-9

    def test_tau_domain(self):
        with pytest.raises(ValueError):
            scaled_ntk_iterate(RELU, NtkState(1, 1, 0.5, 0.5, tau=0.9), 2.0, 0.0)
        with pytest.raises(ValueError):
            scaled_ntk_iterate(RELU, NtkState(1, 1, 0.5, 0.5), 2.0, 0.0)


class TestArraysOfPairs:
    """The one-pair calls on arrays of pairs equal their per-pair float
    calls bit for bit."""

    @pytest.fixture(scope="class")
    def pairs(self):
        rng = np.random.default_rng(21)
        n = 400
        s1_sq, s2_sq = rng.uniform(0.2, 4.0, (2, n))
        rho = rng.uniform(-1.0, 1.0, n)
        rho[:4] = (1.0, -1.0, 1.0, -1.0)
        s2_sq[:4] = s1_sq[:4]  # so that k / sqrt(s1_sq s2_sq) is exactly +-1
        T = rng.uniform(0.0, 2.0, n)
        tau = rng.uniform(0.05, 0.5, n)
        return s1_sq, s2_sq, rho, T, tau

    @staticmethod
    def per_pair(fn, *columns):
        return np.array([fn(*(float(c[i]) for c in columns))
                         for i in range(len(columns[0]))]).T

    @pytest.mark.parametrize("act", SIX_ACTS, ids=lambda a: a.kind)
    def test_iterate_state(self, act, pairs):
        s1_sq, s2_sq, rho, _, _ = pairs
        batch = iterate_state(act, LayerState(s1_sq, s2_sq, rho), 1.3, 0.1)

        def one(a, b, r):
            st = iterate_state(act, LayerState(a, b, r), 1.3, 0.1)
            return st.s1_sq, st.s2_sq, st.rho

        np.testing.assert_array_equal(np.array([batch.s1_sq, batch.s2_sq, batch.rho]),
                                      self.per_pair(one, s1_sq, s2_sq, rho))

    @pytest.mark.parametrize("act", SIX_ACTS, ids=lambda a: a.kind)
    @pytest.mark.parametrize("step", [ntk_iterate, scaled_ntk_iterate],
                             ids=["ntk", "scaled"])
    def test_ntk_steps(self, act, step, pairs):
        s1_sq, s2_sq, rho, T, tau = pairs
        k = rho * np.sqrt(s1_sq * s2_sq)
        batch = step(act, NtkState(s1_sq, s2_sq, k, T, tau), 1.3, 0.1)

        def one(*fields):
            st = step(act, NtkState(*fields), 1.3, 0.1)
            return st.s1_sq, st.s2_sq, st.k, st.T, st.tau

        np.testing.assert_array_equal(
            np.array([batch.s1_sq, batch.s2_sq, batch.k, batch.T, batch.tau]),
            self.per_pair(one, s1_sq, s2_sq, k, T, tau))

    @pytest.mark.parametrize("act", SIX_ACTS, ids=lambda a: a.kind)
    def test_deep_normalized_kernel(self, act):
        hyper = NetworkHyper(3, (1.2, 1.5, 1.1, 1.4), (0.0, 0.1, 0.05, 0.2))
        thetas = np.linspace(0.0, np.pi, 400)  # rho = +-1 at the ends
        batch = deep_normalized_kernel(act, thetas, 0.8, hyper)
        assert batch.shape == (400, 3)
        np.testing.assert_array_equal(
            batch, [deep_normalized_kernel(act, float(t), 0.8, hyper) for t in thetas])

    @pytest.mark.parametrize("field, bad", [("rho", np.nan), ("rho", 1.5), ("rho", -1.0 - 1e-9),
                                            ("s1_sq", -1.0), ("s2_sq", -0.5),
                                            ("s1_sq", np.nan), ("s2_sq", np.nan),
                                            ("s1_sq", np.inf), ("s2_sq", -np.inf)])
    def test_bad_entry_rejected_by_state(self, field, bad):
        columns = {"s1_sq": np.ones(6), "s2_sq": np.ones(6), "rho": np.full(6, 0.3)}
        columns[field][4] = bad
        with pytest.raises(ValueError, match="rho" if field == "rho" else "norms"):
            LayerState(**columns)
        with pytest.raises(ValueError):
            LayerState(*(float(columns[f][4]) for f in ("s1_sq", "s2_sq", "rho")))

    @pytest.mark.parametrize("field", ["s1_sq", "s2_sq"])
    def test_zero_norm_rejected_by_steps(self, field):
        # zero, NaN and infinite squared norms; a LayerState refuses the
        # last two itself
        for bad in (0.0, np.nan, np.inf):
            columns = {"s1_sq": np.ones(6), "s2_sq": np.ones(6)}
            columns[field][2] = bad
            zeros = np.zeros(6)
            with pytest.raises(ValueError, match="norms"):
                iterate_state(GELU, LayerState(**columns, rho=zeros), 1.0, 0.0)
            with pytest.raises(ValueError, match="norms"):
                ntk_iterate(GELU, NtkState(**columns, k=zeros, T=zeros), 1.0, 0.0)
            with pytest.raises(ValueError, match="norms"):
                scaled_ntk_iterate(GELU, NtkState(**columns, k=zeros, T=zeros, tau=0.5),
                                   1.0, 0.0)
            with pytest.raises(ValueError, match="norms"):
                ntk_iterate(GELU, NtkState(float(columns["s1_sq"][2]),
                                           float(columns["s2_sq"][2]), 0.5, 0.0), 1.0, 0.0)

    def test_input_state_shapes(self):
        st = input_state(np.array([0.0, 1.0, np.pi]), 1.0, 2.0, 0.1)
        assert np.shape(st.s1_sq) == np.shape(st.s2_sq) == np.shape(st.rho) == (3,)
        np.testing.assert_array_equal(st.s1_sq, 2.1)
        assert st.rho[0] == 1.0
        assert st.rho[2] == pytest.approx(-1.9 / 2.1, rel=1e-15)


class TestKernelMatrix:
    def test_single_row(self):
        hyper = NetworkHyper.shared(3, 1.5, 0.1)
        K = deep_kernel_matrix(GELU, np.array([[0.6, 0.8]]), hyper)
        traj = state_trajectory(GELU, [0.6, 0.8], [0.6, 0.8], hyper)
        assert K.shape == (1, 1)
        assert K[0, 0] == pytest.approx(traj[-1][0], rel=1e-12)

    def test_duplicated_rows_duplicate_entries(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        K = deep_kernel_matrix(RELU, X, NetworkHyper.shared(2, 2.0, 0.0))
        assert np.allclose(K[0], K[2])
        assert np.allclose(K[:, 0], K[:, 2])

    def test_random_gelu_matrix_factorizes(self):
        rng = np.random.Generator(np.random.Philox(key=9))
        X = rng.standard_normal((10, 3))
        K = deep_kernel_matrix(GELU, X, NetworkHyper.shared(3, 1.47 ** 2, 0.0))
        jitter = 1e-8 * np.trace(K) / K.shape[0]
        np.linalg.cholesky(K + jitter * np.eye(10))

    @pytest.mark.parametrize("act", [GELU, RELU, ELU], ids=lambda a: a.kind)
    def test_matrix_matches_scalar_path(self, act):
        rng = np.random.Generator(np.random.Philox(key=10))
        X = rng.standard_normal((6, 2))
        hyper = NetworkHyper.shared(4, 1.2, 0.05)
        K = deep_kernel_matrix(act, X, hyper)
        for i in range(6):
            for j in range(i, 6):
                k_scalar = state_trajectory(act, X[i], X[j], hyper)[-1][2]
                assert K[i, j] == pytest.approx(k_scalar, rel=1e-12, abs=1e-12)

    def test_ntk_matrix_matches_scalar_recursion(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        X = rng.standard_normal((5, 2))
        hyper = NetworkHyper.shared(3, 2.0, 0.1)
        K = deep_kernel_matrix(RELU, X, hyper, use_ntk=True)
        x1, x2 = X[0], X[1]
        sw, sb = 2.0, 0.1
        s1_sq = sw * x1 @ x1 + sb
        s2_sq = sw * x2 @ x2 + sb
        k0 = sw * x1 @ x2 + sb
        st = NtkState(s1_sq, s2_sq, k0, 0.0)
        for l in range(3):
            st = ntk_iterate(RELU, st, sw, sb)
            if l == 0:
                st = NtkState(st.s1_sq, st.s2_sq, st.k, st.k)  # T starts at k
        assert K[0, 1] == pytest.approx(st.T, rel=1e-12)

    @pytest.mark.parametrize("hyper", [
        NetworkHyper.shared(3, 1.6, 0.1),
        NetworkHyper(3, (1.5, 2.0, 0.8, 1.2), (0.05, 0.1, 0.2, 0.0))],
        ids=["shared", "per-layer"])
    @pytest.mark.parametrize("act", [GELU, ELU], ids=lambda a: a.kind)
    def test_ntk_matrix_matches_ntk_iterate_chain(self, act, hyper):
        rng = np.random.Generator(np.random.Philox(key=13))
        X = rng.standard_normal((4, 2))
        K = deep_kernel_matrix(act, X, hyper, use_ntk=True)
        sw, sb = hyper.sigma_w2, hyper.sigma_b2
        for i in range(4):
            for j in range(i, 4):
                x1, x2 = X[i], X[j]
                st = NtkState(sw[0] * x1 @ x1 + sb[0], sw[0] * x2 @ x2 + sb[0],
                              sw[0] * x1 @ x2 + sb[0], 0.0)
                for l in range(1, hyper.depth + 1):
                    st = ntk_iterate(act, st, sw[l], sb[l])
                assert K[i, j] == pytest.approx(st.T, rel=1e-12)

    @pytest.mark.parametrize("hyper", [
        NetworkHyper.shared(1, 1.3, 0.1), NetworkHyper(1, (1.1, 1.6), (0.0, 0.2))],
        ids=["shared", "per-layer"])
    @pytest.mark.parametrize("act", ALL_ACTS + [from_name("selu")], ids=lambda a: a.kind)
    def test_ntk_equals_nngp_at_depth_one(self, act, hyper):
        X = np.random.Generator(np.random.Philox(key=14)).standard_normal((4, 3))
        assert np.array_equal(deep_kernel_matrix(act, X, hyper, use_ntk=True),
                              deep_kernel_matrix(act, X, hyper))

    def test_generator_takes_per_level_variances(self):
        X = np.random.Generator(np.random.Philox(key=15)).standard_normal((4, 2))
        sw, sb = (1.5, 2.0, 0.8, 1.2), (0.05, 0.1, 0.2, 0.0)
        for depth, K in kernel_matrices_by_depth(GELU, X, sw, sb, [1, 2, 3]):
            hyper = NetworkHyper(depth, sw[:depth + 1], sb[:depth + 1])
            assert np.array_equal(K, deep_kernel_matrix(GELU, X, hyper))
        with pytest.raises(ValueError):
            next(kernel_matrices_by_depth(GELU, X, sw, sb, [1, 2]))

    @pytest.mark.parametrize("use_ntk", [False, True], ids=["nngp", "ntk"])
    @pytest.mark.parametrize("n", [1, 7])
    def test_each_depth_fresh_symmetric_and_as_dense_assembly(self, n, use_ntk):
        # reference: the same layer loop, each K assembled by zeros, two
        # 2-D fancy scatters and fill_diagonal
        X = np.random.Generator(np.random.Philox(key=16)).standard_normal((n, 3))
        sw, sb, depths = 1.4, 0.1, [1, 3, 4]
        iu, ju = np.triu_indices(n, k=1)
        p = iu.size
        entries = (np.append(iu, np.arange(n)), np.append(ju, np.arange(n)))
        s_sq = sw * np.einsum("ij,ij->i", X, X) + sb
        k = sw * np.einsum("ij,ij->i", X[iu], X[ju]) + sb
        t = np.zeros(p + n) if use_ntk else None
        ref = {}
        for depth in range(1, depths[-1] + 1):
            rho = np.append(_normalized(k, s_sq[iu], s_sq[ju]), np.ones(n))
            k_all, t = _layer_step(GELU, s_sq, entries, rho, sw, sb, t)
            k, s_sq = k_all[:p], k_all[p:]
            diag, off = (t[p:], t[:p]) if use_ntk else (s_sq, k)
            ref[depth] = np.zeros((n, n))
            ref[depth][iu, ju] = off
            ref[depth][ju, iu] = off
            np.fill_diagonal(ref[depth], diag)
        got = list(kernel_matrices_by_depth(GELU, X, sw, sb, depths, use_ntk=use_ntk))
        assert [d for d, _ in got] == depths
        for i, (depth, K) in enumerate(got):
            assert K.shape == (n, n) and K.tobytes() == ref[depth].tobytes()
            assert np.array_equal(K, K.T)
            assert not any(np.shares_memory(K, other) for _, other in got[:i])

    def test_depth_generator_increasing_requirement(self):
        with pytest.raises(ValueError):
            list(kernel_matrices_by_depth(GELU, np.eye(3), 1.0, 0.0, [3, 2]))

    def test_per_layer_hyper_matrix_matches_scalar_path(self):
        rng = np.random.Generator(np.random.Philox(key=12))
        X = rng.standard_normal((5, 2))
        hyper = NetworkHyper(2, (1.5, 2.0, 0.8), (0.05, 0.1, 0.2))
        K = deep_kernel_matrix(GELU, X, hyper)
        for i in range(5):
            for j in range(i, 5):
                k_scalar = state_trajectory(GELU, X[i], X[j], hyper)[-1][2]
                assert K[i, j] == pytest.approx(k_scalar, rel=1e-12)

    def test_failed_layer_pins_few_arrays(self):
        # a caller that keeps the ArithmeticError (as a benchmark harness
        # keeps each failed operation's) keeps its frames' arrays: the
        # generator's frame holds the two entry-index arrays, rho and the
        # layer's values, and no copies of the pair indices or flat K
        # indices before the first K is written; _normalized holds rho and
        # its two norm arguments
        X = np.random.default_rng(2).standard_normal((40, 6))
        X *= (10.0 / np.linalg.norm(X, axis=1))[:, None]
        with pytest.raises(ArithmeticError, match="overshoots") as info:
            deep_kernel_matrix(ELU, X, NetworkHyper.shared(8, 2.0))
        pinned, tb = set(), info.value.__traceback__
        while tb is not None:
            for v in list(tb.tb_frame.f_locals.values()):
                for a in v if isinstance(v, tuple) else (v,):
                    if isinstance(a, np.ndarray) and a.size >= 40 * 39 // 2:
                        pinned.add(id(a if a.base is None else a.base))
            tb = tb.tb_next
        assert len(pinned) == 7

    def test_elu_ntk_bvn_work(self, bvn_work):
        # k and kdot share each pair's work, and the rho = 1 diagonal, whose
        # limits are closed forms, takes none: one Genz-rule call per layer,
        # of one column (three rows) per Genz-band pair, and one tail-rule
        # entry per tail-band pair
        calls, work = bvn_work
        n, depth = 9, 3
        pairs = n * (n - 1) // 2
        X = np.random.default_rng(3).standard_normal((n, 4))
        X[1] = X[0] + 0.05 * X[1]  # a tail-band pair
        deep_kernel_matrix(ELU, X, NetworkHyper.shared(depth, 1.5), use_ntk=True)
        assert len(calls) == depth and all(shape[0] == 3 for shape, _ in calls)
        r = np.abs(np.concatenate([r for _, r in calls]))
        assert r.max() < 0.925
        assert work == {"genz": r.size, "tail": depth * pairs - r.size}
        assert r.size > 0 and work["tail"] > 0


class TestOneCallStep:
    """``_layer_step`` takes the pairs and the rows' diagonal in one kernel
    call, and equals the separate calls bit for bit."""

    @staticmethod
    def separate(act, s_sq, entries, rho, sw, sb, t):
        """The step from separate calls: ``pair_mean`` / ``pair_moments`` on
        the pairs, ``diag_mean`` and ``kernel_dot_values`` at rho = 1 on the
        rows."""
        n = len(s_sq)
        i, j = (e[:-n] for e in entries)
        s = np.sqrt(s_sq)
        s_sq_new = sw * diag_mean(act, s) + sb
        if t is None:
            return np.concatenate([sw * pair_mean(act, s[i], s[j], rho[:-n]) + sb, s_sq_new]), None
        mean, dot = pair_moments(act, s[i], s[j], rho[:-n])
        k = sw * mean + sb
        t_rows = t[-n:] * kernel_dot_values(act, s, s, 1.0, sw) + s_sq_new
        return (np.concatenate([k, s_sq_new]),
                np.concatenate([t[:-n] * (sw * dot) + k, t_rows]))

    @staticmethod
    def elu_band_correlations(rng, m):
        """Correlations in the Genz band, in the tail band and at +-1."""
        rho = rng.uniform(-0.9, 0.9, m)
        rho[::4] = rng.choice([-1.0, 1.0], rho[::4].size) * rng.uniform(0.93, 1.0 - 1e-9,
                                                                         rho[::4].size)
        rho[1::8] = rng.choice([-1.0, 1.0], rho[1::8].size)
        return rho

    @pytest.mark.parametrize("act", SIX_ACTS, ids=lambda a: a.kind)
    @pytest.mark.parametrize("use_ntk", [False, True], ids=["nngp", "ntk"])
    def test_equals_separate_calls(self, act, use_ntk):
        rng = np.random.default_rng(8)
        sw, sb = 1.3, 0.1
        n = 40
        iu, ju = np.triu_indices(n, k=1)
        matrix_rho = np.append(self.elu_band_correlations(rng, iu.size), np.ones(n))
        m = 24
        pairs_rho = np.ones((3, m))
        pairs_rho[0] = self.elu_band_correlations(rng, m)
        cases = [  # one pair in each band, arrays of pairs, a 40-row matrix
            *((rng.uniform(0.2, 4.0, 2), _PAIR_ENTRIES, np.array([r, 1.0, 1.0]))
              for r in (0.3, -0.6, 0.97, -0.999, 1.0, -1.0)),
            (rng.uniform(0.2, 4.0, (2, m)), _PAIR_ENTRIES, pairs_rho),
            (rng.uniform(0.2, 4.0, n), (np.append(iu, np.arange(n)), np.append(ju, np.arange(n))),
             matrix_rho),
        ]
        for s_sq, entries, rho in cases:
            t = rng.uniform(0.0, 2.0, rho.shape) if use_ntk else None
            got = _layer_step(act, s_sq, entries, rho, sw, sb, t)
            want = self.separate(act, s_sq, entries, rho, sw, sb, t)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("act", [ELU, selu(1.0507, 1.6733)], ids=lambda a: a.kind)
    def test_one_elu_call_per_layer(self, act, elu_calls):
        for rho in (0.4, 0.97, -1.0):  # the Genz band, the tail band and a limit
            elu_calls.clear()
            iterate_state(act, LayerState(1.3, 0.8, rho), 1.5, 0.1)
            ntk_iterate(act, NtkState(1.3, 0.8, rho * np.sqrt(1.3 * 0.8), 0.2), 1.5, 0.1)
            assert len(elu_calls) == 2
        elu_calls.clear()
        iterate_state(act, LayerState(np.full(5, 1.3), np.full(5, 0.8), np.linspace(-1, 1, 5)),
                      1.5, 0.1)
        assert len(elu_calls) == 1
        X = np.random.default_rng(3).standard_normal((9, 4))
        for use_ntk in (False, True):
            elu_calls.clear()
            list(kernel_matrices_by_depth(act, X, 1.5, 0.1, [1, 2, 4], use_ntk))
            assert len(elu_calls) == 4
            rho = np.array([call[2] for call in elu_calls])
            assert rho.shape == (4, 9 * 8 // 2 + 9) and (rho[:, -9:] == 1.0).all()


class TestRefusals:
    def test_non_finite_kernel_refused(self):
        K = np.eye(3)
        K[1, 2] = K[2, 1] = np.nan
        with pytest.raises(ArithmeticError, match=r"non-finite kernel entry at pair \(1, 2\)"):
            _validated(K)

    def test_kernel_matrix_not_factorized(self, monkeypatch):
        # gp.fit is the one factorization (and PSD refusal) of a kernel matrix
        calls, cholesky = [], np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a) or cholesky(a))
        X = np.random.default_rng(4).standard_normal((7, 3))
        for use_ntk in (False, True):
            K = deep_kernel_matrix(GELU, X, NetworkHyper.shared(3, 1.5), use_ntk=use_ntk)
            assert K.shape == (7, 7) and np.isfinite(K).all()
        assert calls == []

    @pytest.mark.parametrize("use_ntk", [False, True])
    def test_zero_norm_row_refused_once(self, use_ntk, monkeypatch):
        # a row at the origin has level-0 squared norm sigma_w^2 ||x||^2 = 0:
        # refused by name before any layer, where it made a 0/0 correlation
        steps = []
        monkeypatch.setattr("nnkernels.deep._layer_step",
                            lambda *a, **k: steps.append(1) or _layer_step(*a, **k))
        X = np.random.default_rng(3).standard_normal((5, 3))
        X[3] = 0.0
        with pytest.raises(ValueError, match="row 3 has 0.0"):
            next(kernel_matrices_by_depth(GELU, X, 1.5, 0.0, [1, 4], use_ntk=use_ntk))
        with pytest.raises(ValueError, match="row 3"):
            deep_kernel_matrix(RELU, X, NetworkHyper.shared(2, 2.0), use_ntk=use_ntk)
        assert steps == []
        # a bias gives the origin a positive norm
        _, K = next(kernel_matrices_by_depth(GELU, X, 1.5, 0.1, [2], use_ntk=use_ntk))
        assert np.isfinite(K).all()

    @pytest.mark.parametrize("zero", [0, 1])
    def test_zero_norm_input_pair_refused(self, zero):
        x = [np.array([0.6, 0.8]), np.array([1.0, 0.0])]
        x[zero] = np.zeros(2)
        with pytest.raises(ValueError, match=f"row {zero} has 0.0"):
            state_trajectory(ELU, *x, NetworkHyper.shared(3, 1.0))
        assert len(state_trajectory(ELU, *x, NetworkHyper.shared(3, 1.0, 0.2))) == 4

    def test_normalized_overshoot_refused(self):
        with pytest.raises(ArithmeticError, match="overshoots"):
            _normalized(np.array([0.5, 1.0 + 1e-9]), 1.0, 1.0)
        assert _normalized(1.0 + 1e-13, 1.0, 1.0) == 1.0


class TestLayerJacobian:
    @pytest.mark.parametrize("act", SIX_ACTS, ids=lambda a: a.kind)
    def test_matches_fd_of_layer_step(self, act):
        sw2, sb2 = 1.3, 0.1

        def step(x):
            rho = x[2] / np.sqrt(x[0] * x[1])
            (k, *s_sq), _ = _layer_step(act, x[:2], _PAIR_ENTRIES, [rho, 1.0, 1.0], sw2, sb2)
            return np.array([*s_sq, k])

        worst = 0.0
        for s1_sq in (0.3, 1.0, 4.0, 25.0):
            for s2_sq in (0.5, 2.0):
                for rho in (-0.95, -0.3, 0.0, 0.5, 0.95):
                    x = np.array([s1_sq, s2_sq, rho * np.sqrt(s1_sq * s2_sq)])
                    jac = _layer_jacobian(act, *x, sw2)
                    fd = np.empty((3, 3))
                    for i in range(3):
                        e = np.zeros(3)
                        e[i] = 1e-5 * max(abs(x[i]), 1.0)
                        fd[:, i] = (step(x + e) - step(x - e)) / (2.0 * e[i])
                    worst = max(worst, np.abs(jac - fd).max() / max(1.0, np.abs(jac).max()))
        assert worst <= 1e-7, f"worst {worst:.2e}"

    def test_relu_entries(self):
        # the ReLU's homogeneity gives dk'/ds1^2 = sigma_w^2 s2 sin(theta) / (4 pi s1)
        s1_sq, s2_sq, theta, sw2 = 1.5, 0.7, 1.1, 2.0
        k = np.cos(theta) * np.sqrt(s1_sq * s2_sq)
        jac = _layer_jacobian(RELU, s1_sq, s2_sq, k, sw2)
        sin_term = sw2 * np.sin(theta) / (4.0 * np.pi)
        expected = np.array([
            [sw2 / 2.0, 0.0, 0.0],
            [0.0, sw2 / 2.0, 0.0],
            [sin_term * np.sqrt(s2_sq / s1_sq), sin_term * np.sqrt(s1_sq / s2_sq),
             sw2 * (np.pi - theta) / (2.0 * np.pi)],
        ])
        assert np.abs(jac - expected).max() <= 1e-14


class TestGradients:
    @pytest.mark.parametrize("act", SIX_ACTS, ids=lambda a: a.kind)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("per_level", [False, True], ids=["shared", "per-level"])
    def test_kernel_grad_matches_fd(self, act, depth, per_level):
        if per_level:
            hyper = NetworkHyper(depth, tuple(np.linspace(1.2, 2.0, depth + 1)),
                                 tuple(np.linspace(0.05, 0.2, depth + 1)))
        else:
            hyper = NetworkHyper.shared(depth, 1.5, 0.1)
        x1, x2 = [1.0, 0.2], [0.3, -0.5]
        grad = kernel_grad(act, hyper, state_trajectory(act, x1, x2, hyper))
        fd = kernel_grad_fd(act, hyper, x1, x2)
        rel = np.abs(grad - fd) / np.maximum(1e-8, np.abs(fd))
        assert rel.max() <= 1e-7, f"worst rel {rel.max():.2e}"

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_relu_chain_rule_matches_fd(self, depth):
        hyper = NetworkHyper.shared(depth, 2.0, 0.1)
        x1, x2 = [1.0, 0.2], [0.3, -0.5]
        grad = kernel_grad(RELU, hyper, state_trajectory(RELU, x1, x2, hyper))
        fd = kernel_grad_fd(RELU, hyper, x1, x2)
        rel = np.abs(grad - fd) / np.maximum(1e-8, np.abs(fd))
        assert rel.max() <= 1e-5

    def test_top_level_bias_gradient_is_one(self):
        hyper = NetworkHyper.shared(3, 2.0, 0.1)
        grad = kernel_grad(RELU, hyper, state_trajectory(RELU, [1.0, 0.2], [0.3, -0.5], hyper))
        assert grad[-1, 1] == pytest.approx(1.0, abs=1e-14)

    def test_depth_one_weight_gradient(self):
        # at depth 1 the top-level sigma_w^2 gradient is the pair expectation
        hyper = NetworkHyper.shared(1, 2.0, 0.0)
        x1, x2 = [0.8, 0.1], [0.2, -0.4]
        traj = state_trajectory(RELU, x1, x2, hyper)
        grad = kernel_grad(RELU, hyper, traj)
        assert grad[1, 0] == pytest.approx(traj[1][2] / 2.0, rel=1e-10)

    def test_per_layer_hyperparameters(self):
        hyper = NetworkHyper(2, (1.5, 2.0, 0.8), (0.05, 0.1, 0.2))
        grad = kernel_grad(RELU, hyper, state_trajectory(RELU, [1.0, 0.2], [0.3, -0.5], hyper))
        fd = kernel_grad_fd(RELU, hyper, [1.0, 0.2], [0.3, -0.5])
        assert np.abs(grad - fd).max() <= 1e-6

    def test_unsupported_activation_raises(self):
        hyper = NetworkHyper.shared(2, 1.0, 0.0)
        traj = state_trajectory(GELU, [1.0, 0.0], [0.0, 1.0], hyper)
        grad = kernel_grad(RELU, hyper, traj)
        fd = kernel_grad_fd(GELU, hyper, [1.0, 0.0], [0.0, 1.0])
        # the closed chain rule is ReLU-only: applied to a GELU trajectory
        # it must NOT match the GELU finite differences
        assert np.abs(grad - fd).max() > 1e-3

    def test_gelu_fd_frozen_golden(self):
        # Richardson-checked golden (two step sizes agree to 4.6e-11)
        hyper = NetworkHyper.shared(2, 1.5, 0.1)
        fd = kernel_grad_fd(GELU, hyper, [0.8, 0.4], [0.1, -0.6])
        expected = np.array([[0.07435209, 0.33610428],
                             [0.07268949, 0.58900466],
                             [0.08524398, 1.0]])
        assert np.abs(fd - expected).max() <= 1e-6

    def test_fd_agrees_with_relu_closed_form_loosely(self):
        hyper = NetworkHyper.shared(2, 2.0, 0.3)
        grad = kernel_grad(RELU, hyper, state_trajectory(RELU, [1.0, 0.2], [0.3, -0.5], hyper))
        fd = kernel_grad_fd(RELU, hyper, [1.0, 0.2], [0.3, -0.5])
        assert np.abs(grad - fd).max() / np.abs(fd).max() <= 1e-4


def test_hyper_validation():
    with pytest.raises(ValueError):
        NetworkHyper(0, (1.0,), (0.0,))
    with pytest.raises(ValueError):
        NetworkHyper(2, (1.0, 1.0), (0.0, 0.0))  # needs depth + 1 pairs
    with pytest.raises(ValueError):
        NetworkHyper.shared(2, -1.0, 0.0)
