from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from projforest import (
    ProjectionSpec,
    distortion_check,
    generate,
    jl_min_dimension,
    pca_projection,
    project,
    stream,
    to_dense,
)
from projforest.projection import _sylvester_rows
from projforest.tree import variance_sum

from support import pattern_label_matrix


def random_sparse_labels(n, d, density, seed):
    gen = np.random.default_rng(seed)
    Y = (gen.random((n, d)) < density).astype(np.float64)
    return sp.csr_matrix(Y)


class TestSpec:
    @pytest.mark.parametrize("kind", ["bogus", "Gaussian", None])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ValueError, match="unknown projection kind"):
            ProjectionSpec(kind, 2)

    @pytest.mark.parametrize("value", [0, -1, 2.5, 2.0, True, "2", None])
    def test_m_must_be_a_positive_integer(self, value):
        with pytest.raises(ValueError, match="^m must be"):
            ProjectionSpec("gaussian", value)

    @pytest.mark.parametrize("kind", ["rademacher", "gaussian"])
    @pytest.mark.parametrize("value", ["2", "x", None, True, np.bool_(True),
                                       float("inf"), -float("inf"), float("nan")])
    def test_s_must_be_a_finite_real_number(self, kind, value):
        with pytest.raises(ValueError, match="^s must be a finite real number"):
            ProjectionSpec(kind, 3, s=value)

    @pytest.mark.parametrize("value", [3, np.int64(3), np.float32(3.0), np.sqrt(10.0)])
    def test_real_s_accepted(self, value):
        assert ProjectionSpec("rademacher", 3, s=value).s == value

    def test_numpy_integer_m_accepted(self):
        phi = generate(ProjectionSpec("gaussian", np.int64(3)), 5, stream(0, 0))
        assert phi.shape == (3, 5)


class TestGenerate:
    def test_rademacher_s1_entries(self):
        phi = generate(ProjectionSpec("rademacher", 4, s=1.0), 8, stream(0, 0))
        assert set(np.unique(phi)) == {-0.5, 0.5}

    def test_identity_is_exact(self):
        phi = generate(ProjectionSpec("identity", 6), 6, stream(0, 0))
        assert sp.issparse(phi)
        np.testing.assert_array_equal(to_dense(phi), np.eye(6))

    def test_identity_requires_m_equals_d(self):
        with pytest.raises(ValueError):
            generate(ProjectionSpec("identity", 3), 6, stream(0, 0))

    def test_rademacher_s3_zero_fraction(self):
        phi = generate(ProjectionSpec("rademacher", 100, s=3.0), 100, stream(1, 0))
        assert isinstance(phi, np.ndarray)
        zero_fraction = np.mean(phi == 0.0)
        assert abs(zero_fraction - 2.0 / 3.0) <= 0.02
        scale = np.sqrt(3.0 / 100.0)
        assert set(np.unique(phi)) <= {-scale, 0.0, scale}

    def test_rademacher_invalid_s(self):
        with pytest.raises(ValueError):
            ProjectionSpec("rademacher", 4, s=0.5)

    def test_subsample_kinds_require_m_le_d(self):
        for kind in ("hadamard_subsample", "identity_subsample"):
            with pytest.raises(ValueError):
                generate(ProjectionSpec(kind, 9), 8, stream(0, 0))

    def test_pca_not_generable_without_data(self):
        with pytest.raises(ValueError):
            generate(ProjectionSpec("pca", 2), 8, stream(0, 0))

    @pytest.mark.parametrize("spec, d, message", [
        (ProjectionSpec("gaussian", 2), 0, "output dimension d must be >= 1"),
        # A spec-like object that skipped ProjectionSpec's validation.
        (SimpleNamespace(kind="bogus", m=2, s=1.0), 4, "unknown projection kind"),
    ], ids=["zero-d", "unvalidated-kind"])
    def test_bad_arguments_rejected(self, spec, d, message):
        with pytest.raises(ValueError, match=message):
            generate(spec, d, stream(0, 0))

    def test_gaussian_entry_variance(self):
        m, d = 20, 600
        phi = generate(ProjectionSpec("gaussian", m), d, stream(2, 0))
        var = phi.var()
        assert abs(var - 1.0 / m) <= 0.05 / m

    def test_deterministic_under_stream(self):
        a = generate(ProjectionSpec("gaussian", 5), 40, stream(3, 7))
        b = generate(ProjectionSpec("gaussian", 5), 40, stream(3, 7))
        np.testing.assert_array_equal(a, b)

    def test_identity_subsample_rows_are_unit_vectors(self):
        phi = generate(ProjectionSpec("identity_subsample", 5), 12, stream(4, 0))
        assert sp.issparse(phi)
        dense = to_dense(phi)
        assert dense.shape == (5, 12)
        np.testing.assert_array_equal(dense.sum(axis=1), np.ones(5))
        assert set(np.unique(dense)) == {0.0, 1.0}
        # rows are distinct axes: no column selected twice
        assert dense.sum(axis=0).max() == 1.0


class TestHadamard:
    def test_rows_match_scipy_hadamard(self):
        order = 16
        H = scipy.linalg.hadamard(order)
        rows = np.arange(order)
        np.testing.assert_array_equal(_sylvester_rows(rows, order), H)

    def test_rows_orthogonal_before_truncation(self):
        order = 32
        rows = np.array([3, 11, 17, 30])
        R = _sylvester_rows(rows, order)
        np.testing.assert_array_equal(R @ R.T, order * np.eye(4))

    def test_entries_after_scaling(self):
        phi = generate(ProjectionSpec("hadamard_subsample", 6), 20, stream(5, 0))
        assert isinstance(phi, np.ndarray) and phi.shape == (6, 20)
        expected = 1.0 / np.sqrt(6)
        assert set(np.unique(np.abs(phi))) == {expected}


class TestProject:
    def test_identity_reproduces_dense_labels(self):
        Y = random_sparse_labels(15, 9, 0.3, 0)
        phi = generate(ProjectionSpec("identity", 9), 9, stream(0, 0))
        np.testing.assert_array_equal(project(phi, Y), to_dense(Y))

    def test_zero_map_gives_zeros(self):
        Y = random_sparse_labels(10, 6, 0.4, 1)
        phi = np.zeros((3, 6))
        np.testing.assert_array_equal(project(phi, Y), np.zeros((10, 3)))

    def test_matches_naive_triple_loop(self):
        Y = random_sparse_labels(12, 8, 0.35, 2)
        phi = generate(ProjectionSpec("gaussian", 4), 8, stream(6, 0))
        Z = project(phi, Y)
        Yd = to_dense(Y)
        naive = np.zeros((12, 4))
        for i in range(12):
            for a in range(4):
                acc = 0.0
                for j in range(8):
                    acc += phi[a, j] * Yd[i, j]
                naive[i, a] = acc
        err = np.abs(Z - naive).max()
        assert err <= 1e-12 * max(1.0, np.abs(naive).max())

    def test_dimension_mismatch(self):
        Y = random_sparse_labels(5, 7, 0.3, 3)
        phi = generate(ProjectionSpec("gaussian", 2), 6, stream(0, 0))
        with pytest.raises(ValueError):
            project(phi, Y)

    def test_linearity(self):
        gen = np.random.default_rng(4)
        Y1 = gen.random((9, 11))
        Y2 = gen.random((9, 11))
        phi = generate(ProjectionSpec("gaussian", 5), 11, stream(7, 0))
        lhs = project(phi, 2.5 * Y1 - 1.25 * Y2)
        rhs = 2.5 * project(phi, Y1) - 1.25 * project(phi, Y2)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


class TestJlMinDimension:
    def test_worked_values(self):
        assert jl_min_dimension(1.0, 3) == 9
        assert jl_min_dimension(0.5, 100) == 148
        assert jl_min_dimension(0.5, 50) == 126

    def test_floors_at_one(self):
        assert jl_min_dimension(100.0, 10) == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            jl_min_dimension(0.0, 10)
        with pytest.raises(ValueError):
            jl_min_dimension(0.5, 1)


class TestPca:
    def test_single_active_column(self):
        Y = np.zeros((20, 6))
        Y[::2, 3] = 1.0
        phi = pca_projection(sp.csr_matrix(Y), 1)
        row = phi[0]
        np.testing.assert_allclose(np.abs(row), np.eye(6)[3], atol=1e-12)
        assert row[3] > 0  # sign convention

    def test_rank_one_correlated_labels(self):
        Y = np.zeros((30, 2))
        Y[:15] = [1.0, 1.0]
        Y = sp.csr_matrix(Y)
        phi = pca_projection(Y, 2)
        eig = project(phi, Y).var(axis=0)
        assert eig[0] > 0
        assert abs(eig[1]) <= 1e-12
        assert eig[0] / eig.sum() == pytest.approx(1.0, abs=1e-12)

    def test_eigenvalues_match_brute_force(self):
        gen = np.random.default_rng(5)
        Y = (gen.random((50, 10)) < 0.4).astype(float)
        phi = pca_projection(sp.csr_matrix(Y), 10)
        # brute-force covariance: explicit loops over column pairs
        mean = Y.mean(axis=0)
        cov = np.zeros((10, 10))
        for a in range(10):
            for b in range(10):
                cov[a, b] = np.mean((Y[:, a] - mean[a]) * (Y[:, b] - mean[b]))
        expected = np.sort(np.linalg.eigvalsh(cov))[::-1]
        # The variance of the labels along each component is its eigenvalue.
        np.testing.assert_allclose(project(phi, Y).var(axis=0), expected, atol=1e-8)

    def test_rows_orthonormal(self):
        gen = np.random.default_rng(6)
        Y = (gen.random((40, 7)) < 0.5).astype(float)
        phi = pca_projection(sp.csr_matrix(Y), 7)
        G = phi @ phi.T
        np.testing.assert_allclose(G, np.eye(7), atol=1e-10)

    def test_m_too_large(self):
        Y = sp.csr_matrix(np.eye(4))
        with pytest.raises(ValueError):
            pca_projection(Y, 5)

    def test_too_many_labels(self):
        with pytest.raises(ValueError, match="d <= 5000"):
            pca_projection(sp.csr_matrix((3, 5001)), 1)


def labels_with(value, seed=1):
    """Real-valued outputs holding one ``value``, dense and as CSR."""
    Y = np.random.default_rng(seed).random((60, 8))
    Y[5, 2] = value
    return [Y, sp.csr_matrix(Y)]


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
class TestNonFiniteLabels:
    def test_pca_rejects(self, value):
        for Y in labels_with(value):
            with pytest.raises(ValueError, match="Y contains non-finite values"):
                pca_projection(Y, 3)

    def test_project_rejects(self, value):
        phi = generate(ProjectionSpec("gaussian", 3), 8, stream(4, 0))
        for Y in labels_with(value):
            with pytest.raises(ValueError, match="Y contains non-finite values"):
                project(phi, Y)


class TestDistortion:
    def test_identity_never_violates(self):
        Y = random_sparse_labels(20, 12, 0.3, 7)
        phi = generate(ProjectionSpec("identity", 12), 12, stream(0, 0))
        for eps in (0.0, 0.1, 1.0):
            rep = distortion_check(phi, Y, eps)
            assert rep.violations == 0
            assert rep.max_ratio_error <= 1e-12

    def test_needs_two_rows(self):
        phi = generate(ProjectionSpec("gaussian", 2), 3, stream(8, 0))
        with pytest.raises(ValueError, match="at least two rows"):
            distortion_check(phi, sp.csr_matrix(np.ones((1, 3))), 0.1)

    def test_duplicate_rows_are_skipped(self):
        Y = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        phi = generate(ProjectionSpec("gaussian", 2), 2, stream(8, 0))
        rep = distortion_check(phi, Y, 10.0)
        assert rep.pairs == 2  # the identical pair is excluded

    def test_single_dimension_negative_control(self):
        # Projecting 50 well-spread points to one dimension cannot preserve
        # all pairwise distances within 10%.
        for seed in range(20):
            gen = np.random.default_rng(seed)
            Y = sp.csr_matrix((gen.random((50, 30)) < 0.4).astype(float))
            phi = generate(ProjectionSpec("gaussian", 1), 30, stream(seed, 3))
            rep = distortion_check(phi, Y, 0.1)
            assert rep.violations > 0

    def test_variance_transfer_when_premise_holds(self):
        # Whenever every pairwise ratio is within (1 +- eps), the variance of
        # the projected sample must be within (1 +- eps) of the original.
        eps = 0.5
        n = 30
        m = jl_min_dimension(eps, n)
        premise_held = 0
        for seed in range(50):
            Y = pattern_label_matrix(n, 80, 10, 6, stream(60, 2 * seed))
            phi = generate(ProjectionSpec("gaussian", m), 80, stream(60, 2 * seed + 1))
            rep = distortion_check(phi, Y, eps)
            if rep.violations == 0:
                premise_held += 1
                vo = variance_sum(Y)
                vp = variance_sum(project(phi, Y))
                assert (1 - eps) * vo - 1e-12 * vo <= vp <= (1 + eps) * vo + 1e-12 * vo
        assert premise_held > 25  # the premise holds in most seeded trials
