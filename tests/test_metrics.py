import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from projforest import lrap
from projforest import metrics

from support import lrap_oracle


def labels(rows):
    return sp.csr_matrix(np.asarray(rows, dtype=np.float64))


class TestWorkedExamples:
    def test_perfect_scores(self):
        Y = labels([[1, 0, 1], [0, 1, 0]])
        scores = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        assert lrap(scores, Y) == 1.0
        assert lrap_oracle(scores, Y) == 1.0

    def test_three_label_example(self):
        Y = labels([[1, 0, 1]])
        scores = np.array([[0.8, 0.9, 0.7]])
        expected = (1.0 / 2.0 + 2.0 / 3.0) / 2.0  # 7/12
        assert abs(lrap(scores, Y) - expected) <= 1e-12
        assert abs(lrap_oracle(scores, Y) - expected) <= 1e-12
        assert abs(expected - 7.0 / 12.0) <= 1e-12

    def test_all_ties(self):
        Y = labels([[1, 0, 1]])
        scores = np.full((1, 3), 0.4)
        assert abs(lrap(scores, Y) - 2.0 / 3.0) <= 1e-12

    def test_single_relevant_ranked_last(self):
        Y = labels([[0, 0, 0, 1]])
        scores = np.array([[0.9, 0.8, 0.7, 0.1]])
        assert abs(lrap(scores, Y) - 0.25) <= 1e-12


class TestOracleEquivalence:
    def test_random_instances_with_heavy_ties(self):
        gen = np.random.default_rng(0)
        for _ in range(200):
            n = int(gen.integers(1, 21))
            d = int(gen.integers(2, 11))
            # scores drawn from a small value set force many exact ties
            scores = gen.choice([0.0, 0.25, 0.5, 0.75], size=(n, d))
            Y = (gen.random((n, d)) < 0.4).astype(float)
            if not Y.any():
                Y[0, 0] = 1.0
            a = lrap(scores, labels(Y))
            b = lrap_oracle(scores, labels(Y))
            assert abs(a - b) <= 1e-12


class TestProperties:
    def test_monotone_transform_invariance(self):
        gen = np.random.default_rng(1)
        scores = gen.random((15, 8))
        Y = labels((gen.random((15, 8)) < 0.3).astype(float) + 0.0)
        base = lrap(scores, Y)
        for g in (lambda s: 3.0 * s + 1.0, np.exp, lambda s: s**3):
            assert abs(lrap(g(scores), Y) - base) <= 1e-12

    def test_row_permutation_invariance(self):
        gen = np.random.default_rng(2)
        scores = gen.random((12, 6))
        Y = (gen.random((12, 6)) < 0.4).astype(float)
        perm = gen.permutation(12)
        a = lrap(scores, labels(Y))
        b = lrap(scores[perm], labels(Y[perm]))
        assert abs(a - b) <= 1e-12

    def test_range(self):
        gen = np.random.default_rng(3)
        for _ in range(20):
            scores = gen.random((10, 7))
            Y = (gen.random((10, 7)) < 0.3).astype(float)
            if not Y.any():
                Y[0, 0] = 1.0
            value = lrap(scores, labels(Y))
            assert 0.0 < value <= 1.0

    def test_empty_rows_dropped_with_retained_count(self):
        Y = labels([[1, 0], [0, 0], [0, 1]])
        scores = np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])
        value, retained = lrap(scores, Y, return_retained=True)
        assert retained == 2
        assert value == 1.0

    def test_all_rows_empty_errors(self):
        Y = labels([[0, 0], [0, 0]])
        scores = np.zeros((2, 2))
        with pytest.raises(ValueError):
            lrap(scores, Y)
        with pytest.raises(ValueError):
            lrap_oracle(scores, Y)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lrap(np.zeros((2, 3)), labels([[1, 0], [0, 1]]))

    @pytest.mark.parametrize("shape", [(3,), (), (2, 3, 1)])
    def test_scores_must_be_a_matrix(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            lrap(np.zeros(shape), np.ones((2, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, value):
        scores = np.array([[value, 0.5, 0.1], [0.2, 0.8, 0.4]])
        with pytest.raises(ValueError, match="scores must be finite"):
            lrap(scores, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_labels_rejected(self, value):
        scores = np.random.default_rng(4).random((2, 3))
        Y = np.array([[value, 0.0, 0.0], [1.0, 0.0, 0.0]])
        for given_labels in (Y, Y.tolist(), sp.csr_matrix(Y)):
            with pytest.raises(ValueError, match="labels must be finite"):
                lrap(scores, given_labels)

    def test_stored_zeros_are_not_relevant(self):
        scores = np.array([[0.9, 0.5, 0.1], [0.2, 0.8, 0.4]])
        dense = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        stored = sp.csr_matrix(
            (np.array([0.0, 1.0, 1.0]), np.array([0, 1, 1]), np.array([0, 2, 3])),
            shape=(2, 3),
        )
        assert stored.nnz == 3
        assert lrap(scores, dense) == 0.75
        assert lrap(scores, stored) == 0.75
        assert lrap_oracle(scores, stored) == 0.75

    def test_dense_labels_accepted(self):
        scores = np.array([[0.8, 0.9, 0.7]])
        assert abs(lrap(scores, np.array([[1.0, 0.0, 1.0]])) - 7.0 / 12.0) <= 1e-12

    def test_sparse_scores_rejected(self):
        scores = sp.csr_matrix(np.array([[0.8, 0.9, 0.7]]))
        with pytest.raises(ValueError, match="^scores must be a dense matrix"):
            lrap(scores, np.array([[1.0, 0.0, 1.0]]))

    def test_object_labels_rejected(self):
        Y = np.array([[1.0, None, 0.0]], dtype=object)
        with pytest.raises(ValueError, match="^labels must be numeric, got dtype object"):
            lrap(np.array([[0.8, 0.9, 0.7]]), Y)

    def test_label_column_permutation_invariance(self):
        # Permuting the labels reorders the labels within every tie group.
        gen = np.random.default_rng(5)
        scores = gen.choice([0.0, 0.25, 0.5], size=(30, 40))
        Y = (gen.random((30, 40)) < 0.3).astype(float)
        perm = gen.permutation(40)
        for given in (Y, labels(Y)):
            a = lrap(scores, given)
            b = lrap(scores[:, perm], given[:, perm])
            assert abs(a - b) <= 1e-12

    def test_non_canonical_labels_left_unchanged(self):
        gen = np.random.default_rng(6)
        Y = messy_csr((gen.random((20, 15)) < 0.3).astype(float), gen)
        assert not Y.has_canonical_format
        before = [a.copy() for a in (Y.data, Y.indices, Y.indptr)]
        lrap(gen.random((20, 15)), Y)
        for old, new in zip(before, (Y.data, Y.indices, Y.indptr)):
            assert old.dtype == new.dtype and np.array_equal(old, new)


def messy_csr(Y, gen):
    """CSR holding the relevance of dense ``Y`` with every relevant entry
    split into two stored duplicates, stored zeros and pairs of duplicates
    that cancel to zero scattered in, rows left unsorted."""
    n, d = Y.shape
    indptr = [0]
    indices = []
    data = []
    for i in range(n):
        row = []
        for j in np.flatnonzero(Y[i]):
            row += [(j, 0.5 * Y[i, j]), (j, 0.5 * Y[i, j])]
        for j in np.flatnonzero(Y[i] == 0):
            kind = gen.integers(0, 3)
            if kind == 1:
                row.append((j, 0.0))
            elif kind == 2:
                row += [(j, 1.0), (j, -1.0)]
        gen.shuffle(row)
        indices += [j for j, _ in row]
        data += [v for _, v in row]
        indptr.append(len(indices))
    return sp.csr_matrix((np.array(data), np.array(indices, dtype=np.int64),
                          np.array(indptr)), shape=(n, d))


@st.composite
def lrap_problems(draw):
    """(scores, dense labels): small matrices with heavily tied small-integer
    or continuous scores and rows that may have no relevant label, or a
    d=1000 block with about three distinct scores per row, as a forest's
    predictions on wide labels have."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        gen = np.random.default_rng(seed)
        n = draw(st.integers(1, 4))
        levels = gen.random((n, 3))
        scores = levels[np.arange(n)[:, None], gen.integers(0, 3, size=(n, 1000))]
        Y = (gen.random((n, 1000)) < 0.01).astype(float)
        return scores, Y, seed
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 12))
    if draw(st.booleans()):
        scores = draw(arrays(np.float64, (n, d), elements=st.integers(0, 3).map(float)))
    else:
        scores = draw(arrays(np.float64, (n, d), elements=st.floats(-1e6, 1e6)))
    Y = draw(arrays(np.float64, (n, d), elements=st.sampled_from([0.0, 0.0, 1.0, 2.0])))
    return scores, Y, seed


@settings(max_examples=150, deadline=None)
@given(lrap_problems())
def test_lrap_matches_the_oracle(problem):
    scores, Y, seed = problem
    n, d = scores.shape
    relevant_rows = int(np.count_nonzero(Y.any(axis=1)))
    for labels in (Y, messy_csr(Y, np.random.default_rng(seed))):
        for chunk in (metrics.LRAP_CHUNK, d, 2 * d, n * d):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(metrics, "LRAP_CHUNK", chunk)
                if relevant_rows == 0:
                    with pytest.raises(ValueError, match="empty label set"):
                        lrap(scores, labels)
                    continue
                value, retained = lrap(scores, labels, return_retained=True)
            assert retained == relevant_rows
            assert abs(value - lrap_oracle(scores, labels)) <= 1e-12
