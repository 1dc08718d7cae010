import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnkernels.data import (DISC_FUNCTION_NAMES, Dataset, disc_function,
                            disc_grid, disc_task, load_csv, split,
                            standardize)


@pytest.fixture
def three_row_csv(tmp_path):
    p = tmp_path / "tiny.csv"
    p.write_text("a,b,target\n1.0,2.0,3.0\n4.0,5.0,6.0\n7.0,8.0,9.0\n")
    return p


class TestLoadCsv:
    def test_three_row_fixture(self, three_row_csv):
        ds = load_csv(three_row_csv, "target")
        assert ds.n == 3 and ds.d == 2
        assert np.allclose(ds.y, [3.0, 6.0, 9.0])
        assert np.allclose(ds.X[:, 0], [1.0, 4.0, 7.0])

    def test_index_target_and_headerless(self, tmp_path):
        p = tmp_path / "raw.csv"
        p.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        ds = load_csv(p, -1)
        assert np.allclose(ds.y, [3.0, 6.0])
        assert ds.d == 2

    def test_missing_value_names_cell(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0\n3.0,NA\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            load_csv(p, -1)

    def test_parse_error_names_cell(self, tmp_path):
        p = tmp_path / "bad2.csv"
        p.write_text("1.0,2.0\nx,4.0\n")
        with pytest.raises(ValueError, match="row 2, column 1"):
            load_csv(p, -1)

    def test_yacht_format_shape(self, tmp_path):
        # 308 x 7 numeric table in the hydrodynamics-benchmark layout
        rng = np.random.Generator(np.random.Philox(key=1))
        rows = rng.random((308, 7))
        p = tmp_path / "yacht_like.csv"
        p.write_text("\n".join(",".join(f"{v:.6f}" for v in r) for r in rows) + "\n")
        ds = load_csv(p, -1)
        assert (ds.n, ds.d) == (308, 6)

    def test_named_target_requires_header(self, tmp_path):
        p = tmp_path / "raw.csv"
        p.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(p, "target")


class TestStandardize:
    def test_moments(self):
        rng = np.random.Generator(np.random.Philox(key=2))
        ds = Dataset(5 + 3 * rng.standard_normal((40, 3)), rng.standard_normal(40) * 7)
        out, stats = standardize(ds)
        assert np.abs(out.X.mean(axis=0)).max() <= 1e-10
        assert np.abs(out.X.var(axis=0) - 1).max() <= 1e-10
        assert abs(out.y.mean()) <= 1e-10
        assert abs(out.y.var() - 1) <= 1e-10

    def test_idempotent(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        ds = Dataset(rng.standard_normal((10, 2)), rng.standard_normal(10))
        once, _ = standardize(ds)
        twice, _ = standardize(once)
        assert np.allclose(once.X, twice.X, atol=1e-12)
        assert np.allclose(once.y, twice.y, atol=1e-12)

    def test_constant_column_rejected(self):
        ds = Dataset(np.column_stack([np.ones(5), np.arange(5.0)]), np.arange(5.0))
        with pytest.raises(ValueError, match="constant"):
            standardize(ds)


class TestSplit:
    def test_deterministic(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        ds = Dataset(rng.standard_normal((20, 2)), rng.standard_normal(20))
        a = split(ds, 0.8, seed=7)
        b = split(ds, 0.8, seed=7)
        assert np.array_equal(a[0].indices, b[0].indices)
        assert np.array_equal(a[1].indices, b[1].indices)

    def test_conserves_and_disjoint(self):
        rng = np.random.Generator(np.random.Philox(key=6))
        ds = Dataset(rng.standard_normal((37, 2)), rng.standard_normal(37))
        tr, te = split(ds, 0.8, seed=1)
        assert tr.n + te.n == 37
        assert len(set(tr.indices) & set(te.indices)) == 0

    def test_five_seeds_pairwise_distinct(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        ds = Dataset(rng.standard_normal((1000, 2)), rng.standard_normal(1000))
        tests = [tuple(split(ds, 0.8, seed=s)[1].indices) for s in range(5)]
        assert len(set(tests)) == 5

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 60), frac=st.floats(0.2, 0.9), seed=st.integers(0, 100))
    def test_partition_property(self, n, frac, seed):
        ds = Dataset(np.arange(2 * n, dtype=float).reshape(n, 2), np.arange(n, dtype=float))
        tr, te = split(ds, frac, seed)
        merged = np.sort(np.concatenate([tr.indices, te.indices]))
        assert np.array_equal(merged, np.arange(n))


class TestDiscTask:
    def test_noiseless_sin(self):
        ds = disc_task("sin", 50, 0.0, seed=3)
        gamma = np.arctan2(ds.X[:, 1], ds.X[:, 0]) % (2 * np.pi)
        assert np.abs(np.sin(gamma) - ds.y).max() <= 1e-12

    def test_unit_norm_rows(self):
        ds = disc_task("saw", 128, 0.1, seed=4)
        assert np.abs(np.linalg.norm(ds.X, axis=1) - 1.0).max() <= 1e-12

    def test_cubic_at_zero_heading(self):
        assert disc_function("cubic")(0.0) == pytest.approx(-4.0)

    def test_tan_clipped(self):
        g = np.linspace(0, 2 * np.pi, 10_001)
        assert np.abs(disc_function("tan")(g)).max() <= 50.0

    def test_sinc_zero_limit(self):
        assert disc_function("sinc")(0.0) == pytest.approx(1.0)

    def test_determinism(self):
        a = disc_task("sin", 30, 0.1, seed=9)
        b = disc_task("sin", 30, 0.1, seed=9)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_unknown_function(self):
        with pytest.raises(ValueError, match="unknown disc function"):
            disc_task("cos", 10, 0.1, 0)

    def test_grid_deterministic_and_noise_free(self):
        g = disc_grid("sin", 100)
        assert g.n == 100
        assert np.abs(np.linalg.norm(g.X, axis=1) - 1.0).max() <= 1e-12
        assert g.y[0] == pytest.approx(0.0, abs=1e-12)

    def test_all_names_run(self):
        for name in DISC_FUNCTION_NAMES:
            ds = disc_task(name, 5, 0.1, seed=0)
            assert np.isfinite(ds.y).all()
