"""Dataset container and dense/sparse conversions shared by all other modules."""

import numpy as np
import scipy.sparse as sp


def check_integer(name, value, minimum):
    """Reject a config value that is not an integer (numpy integers are
    accepted, ``bool`` is not) or is below ``minimum``, naming the field."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError("{} must be an integer, got {!r}".format(name, value))
    if value < minimum:
        raise ValueError("{} must be >= {}, got {}".format(name, minimum, value))


def as_indices(name, idx):
    """``idx`` as a one-dimensional int64 array, rejecting entries that are
    not integers (floats are not truncated, a boolean mask is not read as
    0/1 indices) with a ``ValueError`` naming ``name``.  An empty list is
    an empty index."""
    arr = np.asarray(idx)
    if arr.ndim != 1:
        raise ValueError("{} must be one-dimensional".format(name))
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError("{} must be integers, got dtype {}".format(name, arr.dtype))
    return np.asarray(arr, dtype=np.int64)


def check_document(doc, what, required=(), allowed=None):
    """Reject a parsed JSON ``doc`` that is not an object, lacks a key of
    ``required`` or, given ``allowed``, holds a key outside it, with a
    ``ValueError`` naming ``what`` and the key."""
    if not isinstance(doc, dict):
        raise ValueError("{} must be a JSON object, got {}".format(what, type(doc).__name__))
    for key in required:
        if key not in doc:
            raise ValueError("{} has no field {!r}".format(what, key))
    if allowed is not None:
        for key in doc:
            if key not in allowed:
                raise ValueError("{} has an unknown field {!r}".format(what, key))


def check_finite(A, message):
    """Raise ``ValueError(message)`` if a dense or sparse A holds a non-finite
    value (a sparse matrix is checked by its stored entries)."""
    if not np.isfinite(A.tocsr().data if sp.issparse(A) else A).all():
        raise ValueError(message)


def as_feature_matrix(X):
    """Canonicalize an input matrix to float64, dense ndarray or CSR.

    Dense inputs are returned as a read-only float64 view/copy; sparse inputs
    are converted to CSR with sorted indices and no explicit zeros.
    """
    if sp.issparse(X):
        X = X.tocsr().astype(np.float64)
        X.sum_duplicates()
        X.eliminate_zeros()
        check_finite(X, "feature matrix contains non-finite values")
        return X
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("feature matrix must be 2-dimensional")
    check_finite(X, "feature matrix contains non-finite values")
    X = X.view()
    X.setflags(write=False)
    return X


def as_label_matrix(Y):
    """Canonicalize a binary label matrix to CSR storing only the 1 entries.

    Accepts a dense 0/1 array or any scipy sparse matrix.  Stored values must
    all be exactly 1 (label presence).
    """
    if sp.issparse(Y):
        Y = Y.tocsr().astype(np.float64)
        Y.sum_duplicates()
        Y.eliminate_zeros()
    else:
        Y = np.asarray(Y)
        if Y.ndim != 2:
            raise ValueError("label matrix must be 2-dimensional")
        Y = sp.csr_matrix(Y, dtype=np.float64)
        Y.eliminate_zeros()
    if Y.data.size and not np.all(Y.data == 1.0):
        raise ValueError("label matrix entries must be 0 or 1")
    Y.sort_indices()
    return Y


def to_dense(A):
    """Dense float64 ndarray from a dense or sparse matrix."""
    if sp.issparse(A):
        return np.asarray(A.todense(), dtype=np.float64)
    return np.asarray(A, dtype=np.float64)


class DataSet:
    """Paired input matrix and binary label matrix with zero-copy row views.

    ``X`` is ``(n, p)`` float64, dense or CSR; ``Y`` is ``(n, d)`` CSR whose
    stored values are all exactly 1.  :meth:`row_slice` returns a view that
    shares the backing storage of its parent and remaps rows through an index
    array (duplicates allowed, order preserved).  Backing matrices are treated
    as immutable: never mutate a parent while views of it are alive.
    """

    def __init__(self, X, Y, _indices=None, _validate=True):
        if _validate:
            X = as_feature_matrix(X)
            Y = as_label_matrix(Y)
            if X.shape[0] != Y.shape[0]:
                raise ValueError(
                    "X has {} rows but Y has {}".format(X.shape[0], Y.shape[0])
                )
            if Y.shape[1] < 1 or X.shape[1] < 1:
                raise ValueError("need at least one feature and one label")
        self.X = X
        self.Y = Y
        self._indices = _indices  # None means all backing rows, in order

    @property
    def n_samples(self):
        if self._indices is None:
            return self.X.shape[0]
        return self._indices.size

    @property
    def n_features(self):
        return self.X.shape[1]

    @property
    def n_labels(self):
        return self.Y.shape[1]

    def rows(self):
        """Absolute backing-row ids for this view, in view order."""
        if self._indices is None:
            return np.arange(self.X.shape[0], dtype=np.int64)
        return self._indices

    def row_slice(self, idx):
        """Zero-copy view selecting rows ``idx`` (duplicates allowed)."""
        idx = as_indices("row indices", idx)
        n = self.n_samples
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise IndexError(
                "row index out of bounds for view of {} samples".format(n)
            )
        if self._indices is None:
            new = idx.copy()
        else:
            new = self._indices[idx]
        return DataSet(self.X, self.Y, _indices=new, _validate=False)

    def materialize(self):
        """Standalone copy of this view (fresh backing storage)."""
        rows = self.rows()
        X = self.X[rows] if not sp.issparse(self.X) else self.X[rows].copy()
        Y = self.Y[rows].copy()
        return DataSet(X, Y)

    def X_rows(self):
        """The view's input rows as a concrete matrix (copies for true views)."""
        if self._indices is None:
            return self.X
        return self.X[self._indices]

    def Y_rows(self):
        """The view's label rows as a concrete CSR matrix."""
        if self._indices is None:
            return self.Y
        return self.Y[self._indices]

    def __repr__(self):
        return "DataSet(n={}, p={}, d={})".format(
            self.n_samples, self.n_features, self.n_labels
        )
