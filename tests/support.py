"""Shared helpers for the test suite: oracles and data generators."""

import numpy as np
import scipy.sparse as sp

from projforest import to_dense
from projforest.tree import variance_sum


def pattern_label_matrix(n, d, n_patterns, labels_per_row, rng):
    """Binary label rows drawn from a small pool of sparse patterns.

    Mimics real multi-label data, where a handful of label combinations
    repeats across samples.
    """
    gen = rng.generator
    pats = np.zeros((n_patterns, d))
    for c in range(n_patterns):
        pats[c, gen.choice(d, size=labels_per_row, replace=False)] = 1.0
    rows = pats[gen.integers(0, n_patterns, size=n)]
    return sp.csr_matrix(rows)


def brute_force_splits(X, Y, samples, features):
    """Enumerate every feature and midpoint; score via impurity recomputation.

    Independent of the incremental scan: each candidate's gain comes from
    three full variance computations.  Returns a list of (gain, feature,
    threshold) in feature order, then threshold order.  The threshold is the
    midpoint of two consecutive distinct values, or the lower value when the
    two are adjacent floats and no midpoint lies strictly between them.
    """
    samples = np.asarray(samples)
    q = samples.size
    parent = variance_sum(Y[samples])
    splits = []
    for f in features:
        v = X[samples, f]
        vs = np.unique(v)
        for a, b in zip(vs[:-1], vs[1:]):
            thr = (a + b) / 2.0
            if not (a < thr < b):
                thr = a
            left = samples[v <= thr]
            right = samples[v > thr]
            gain = (
                parent
                - left.size / q * variance_sum(Y[left])
                - right.size / q * variance_sum(Y[right])
            )
            splits.append((gain, int(f), float(thr)))
    return splits


def brute_force_best_split(X, Y, samples, features):
    """Best of :func:`brute_force_splits` as (gain, feature, threshold), ties
    broken toward the lowest feature then threshold, or None when no split
    has a positive gain."""
    best = None
    for split in brute_force_splits(X, Y, samples, features):
        if best is None or split[0] > best[0]:
            best = split
    if best is None or best[0] <= 0:
        return None
    return best


def aggregation_leaf_values(tree, X, Y, rows):
    """Leaf values and counts of a tree grown on the training rows ``rows``
    of (X, Y), bootstrap copies included, by a sparse aggregation product:
    a (leaves x n) matrix holding how often each leaf received each original
    row, times Y, divided by the leaf counts."""
    leaf = tree.apply(X)[rows]
    agg = sp.csr_matrix(
        (np.ones(rows.size), (leaf, rows)), shape=(tree.n_leaves, X.shape[0])
    )
    counts = np.bincount(leaf, minlength=tree.n_leaves)
    return to_dense(agg @ Y) / counts[:, None], counts


def node_memberships(tree, X):
    """Map node id -> sorted row indices routed through it."""
    members = {i: [] for i in range(tree.n_nodes)}
    Xd = np.asarray(X, dtype=np.float64)
    for row in range(Xd.shape[0]):
        node = 0
        members[node].append(row)
        while tree.feature[node] >= 0:
            if Xd[row, tree.feature[node]] <= tree.threshold[node]:
                node = tree.children_left[node]
            else:
                node = tree.children_right[node]
            members[node].append(row)
    return {k: np.asarray(v) for k, v in members.items()}


def variance_sum_pairwise(Y_rows):
    """Same quantity as :func:`projforest.tree.variance_sum` via literal
    pairwise enumeration: (1 / 2 q^2) * sum_ij |y_i - y_j|^2.  Quadratic;
    used as a cross-check.
    """
    Y = to_dense(Y_rows)
    if Y.ndim == 1:
        Y = Y[None, :]
    q = Y.shape[0]
    if q == 0:
        raise ValueError("variance of an empty sample is undefined")
    diffs = Y[:, None, :] - Y[None, :, :]
    return float(np.einsum("ijk,ijk->", diffs, diffs) / (2.0 * q * q))


def lrap_oracle(scores, Y):
    """Literal double-loop evaluation of the same definition, O(n * d^2).

    An independent cross-check for the grouped :func:`projforest.lrap`.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n, d = scores.shape
    if Y.shape != (n, d):
        raise ValueError(
            "scores have shape {}, labels have {}".format(scores.shape, Y.shape)
        )
    Yd = to_dense(Y)
    total = 0.0
    retained = 0
    for i in range(n):
        rel = np.nonzero(Yd[i] != 0)[0]
        if rel.size == 0:
            continue
        retained += 1
        acc = 0.0
        for j in rel:
            at_or_above = scores[i] >= scores[i, j]
            numerator = int(np.count_nonzero(at_or_above & (Yd[i] != 0)))
            denominator = int(np.count_nonzero(at_or_above))
            acc += numerator / denominator
        total += acc / rel.size
    if retained == 0:
        raise ValueError("every sample has an empty label set; LRAP is undefined")
    return total / retained
