import numpy as np
import pytest
import scipy.sparse as sp

from projforest import DataSet, as_feature_matrix, as_label_matrix, to_dense


def small_dataset():
    X = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    Y = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    return DataSet(X, Y)


class TestDataSet:
    def test_identity_slice_matches_parent(self):
        ds = small_dataset()
        view = ds.row_slice(np.arange(3))
        assert view.n_samples == 3
        np.testing.assert_array_equal(view.X_rows(), ds.X_rows())
        np.testing.assert_array_equal(
            to_dense(view.Y_rows()), to_dense(ds.Y_rows())
        )

    def test_empty_slice(self):
        view = small_dataset().row_slice([])
        assert view.n_samples == 0
        assert view.n_features == 2
        assert view.n_labels == 2

    def test_duplicate_rows_match_manual_copy(self):
        ds = small_dataset()
        view = ds.row_slice([2, 2])
        expected = np.vstack([to_dense(ds.X)[2], to_dense(ds.X)[2]])
        np.testing.assert_array_equal(view.X_rows(), expected)
        np.testing.assert_array_equal(
            to_dense(view.Y_rows()), np.array([[1.0, 1.0], [1.0, 1.0]])
        )

    def test_out_of_bounds(self):
        ds = small_dataset()
        with pytest.raises(IndexError):
            ds.row_slice([3])
        with pytest.raises(IndexError):
            ds.row_slice([-1])

    def test_view_of_view_composes(self):
        ds = small_dataset()
        view = ds.row_slice([2, 0, 1]).row_slice([1, 0])
        np.testing.assert_array_equal(view.rows(), [0, 2])
        # bounds are checked against the view, not the backing storage
        with pytest.raises(IndexError):
            ds.row_slice([0, 1]).row_slice([2])

    def test_views_share_storage(self):
        ds = small_dataset()
        view = ds.row_slice([0, 2])
        assert view.X is ds.X
        assert view.Y is ds.Y

    def test_materialize_detaches(self):
        ds = small_dataset()
        copy = ds.row_slice([1, 2]).materialize()
        assert copy.X is not ds.X
        assert copy.n_samples == 2

    def test_dense_backing_is_read_only(self):
        ds = small_dataset()
        with pytest.raises(ValueError):
            ds.X[0, 0] = 99.0

    def test_rejects_non_binary_labels(self):
        X = np.zeros((2, 2))
        with pytest.raises(ValueError):
            DataSet(X, np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError):
            DataSet(np.zeros((3, 2)), np.eye(2))

    def test_rejects_non_finite(self):
        Y = np.eye(2)
        with pytest.raises(ValueError):
            DataSet(np.array([[np.nan, 0.0], [0.0, 1.0]]), Y)

    @pytest.mark.parametrize("X, Y, message", [
        (np.zeros((3, 0)), np.eye(3), "at least one feature"),
        (np.zeros((3, 2)), np.zeros((3, 0)), "at least one feature"),
        (np.zeros((3, 2)), np.zeros(3), "label matrix must be 2-dimensional"),
        (np.zeros((3, 2)), np.zeros((3, 2, 1)), "label matrix must be 2-dimensional"),
    ], ids=["no-features", "no-labels", "1-D-labels", "3-D-labels"])
    def test_rejects_bad_shapes(self, X, Y, message):
        with pytest.raises(ValueError, match=message):
            DataSet(X, Y)

    def test_row_indices_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            small_dataset().row_slice([[0, 1]])

    def test_repr(self):
        assert repr(small_dataset().row_slice([0, 0])) == "DataSet(n=2, p=2, d=2)"


class TestConversions:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("storage", ["dense", "csr", "coo"])
    def test_non_finite_features_rejected(self, storage, value):
        A = np.eye(3)
        A[1, 2] = value
        wrap = {"dense": np.asarray, "csr": sp.csr_matrix, "coo": sp.coo_matrix}[storage]
        with pytest.raises(ValueError, match="feature matrix contains non-finite values"):
            as_feature_matrix(wrap(A))

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 1)])
    def test_feature_matrix_must_be_2d(self, shape):
        with pytest.raises(ValueError, match="2-dimensional"):
            as_feature_matrix(np.zeros(shape))

    def test_round_trip_is_lossless(self):
        gen = np.random.default_rng(0)
        A = gen.random((7, 5))
        A[A < 0.5] = 0.0
        back = to_dense(as_feature_matrix(sp.csr_matrix(A)))
        np.testing.assert_array_equal(back, A)
        again = to_dense(as_feature_matrix(sp.csr_matrix(back)))
        np.testing.assert_array_equal(again, A)

    def test_explicit_zeros_dropped(self):
        A = sp.csr_matrix((np.array([0.0, 1.0]), (np.array([0, 1]), np.array([0, 1]))),
                          shape=(2, 2))
        assert A.nnz == 2
        assert as_feature_matrix(A).nnz == 1
        assert as_label_matrix(A).nnz == 1
