import numpy as np
import pytest
import scipy.sparse as sp

from projforest import lrap

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
