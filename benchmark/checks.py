"""Output checks made apart from the library.

Each reference here is written from the definition and shares no code with
``projforest``: LRAP by literal enumeration, predictions by walking each
tree's arrays one row at a time.  Every check returns a list of problems,
empty when the output is right.
"""

import numpy as np


def literal_lrap(scores, Y):
    """LRAP by its definition: for each relevant label j of a row, the share of
    labels scored at or above j that are relevant; averaged over the relevant
    labels of the row, then over rows that have any."""
    total = 0.0
    kept = 0
    for s, y in zip(scores, Y):
        relevant = np.flatnonzero(y)
        if relevant.size == 0:
            continue
        kept += 1
        acc = 0.0
        for j in relevant:
            at_or_above = s >= s[j]
            acc += np.count_nonzero(at_or_above & (y != 0)) / np.count_nonzero(at_or_above)
        total += acc / relevant.size
    return total / kept


def walk_predict(ensemble, X):
    """Average over trees of the leaf vector reached by each dense row of X."""
    out = np.zeros((X.shape[0], ensemble.trees[0].leaf_values.shape[1]))
    for tree in ensemble.trees:
        for i, x in enumerate(X):
            node = 0
            while tree.feature[node] >= 0:
                if x[tree.feature[node]] <= tree.threshold[node]:
                    node = tree.children_left[node]
                else:
                    node = tree.children_right[node]
            out[i] += tree.leaf_values[tree.leaf_id[node]]
    return out / len(ensemble.trees)


def check_lrap(value, scores, Y, rows, what):
    """The library's LRAP on ``rows`` equals the literal one."""
    ref = literal_lrap(scores[rows], Y[rows])
    if not abs(value - ref) <= 1e-12:
        return ["{}: library lrap {!r} != literal {!r}".format(what, value, ref)]
    return []


def check_predictions(ensemble, P, X_dense, rows, unit_range, what):
    """Predictions match a walk of the trees on ``rows``; optionally in [0, 1]."""
    problems = []
    ref = walk_predict(ensemble, X_dense[rows])
    if not np.allclose(P[rows], ref, rtol=0.0, atol=1e-12):
        gap = float(np.abs(P[rows] - ref).max())
        problems.append("{}: predict differs from the tree walk by {!r}".format(what, gap))
    if unit_range and not (P.min() >= 0.0 and P.max() <= 1.0):
        problems.append("{}: predictions leave [0, 1]: [{!r}, {!r}]".format(
            what, float(P.min()), float(P.max())))
    return problems


def check_trees(ensemble, n_samples, what, binary_labels=True):
    """Leaf counts sum to the training size; child indices are in range.  With
    binary labels every leaf value is a count of label hits over the leaf's
    samples, so value * count is a whole number."""
    problems = []
    for j, tree in enumerate(ensemble.trees):
        n = tree.feature.size
        internal = tree.feature >= 0
        kids = np.concatenate([tree.children_left[internal], tree.children_right[internal]])
        if kids.size and not (kids.min() > 0 and kids.max() < n):
            problems.append("{}: tree {} has a child index outside [1, {})".format(what, j, n))
        leaf_rows = tree.leaf_id[~internal]
        if not (leaf_rows.min() >= 0 and leaf_rows.max() < tree.leaf_counts.size):
            problems.append("{}: tree {} has a leaf id out of range".format(what, j))
        if int(tree.leaf_counts.sum()) != n_samples:
            problems.append("{}: tree {} leaf counts sum to {}, not {}".format(
                what, j, int(tree.leaf_counts.sum()), n_samples))
        hits = tree.leaf_values * tree.leaf_counts[:, None]
        if binary_labels and not np.allclose(hits, np.round(hits), rtol=0.0, atol=1e-9):
            problems.append("{}: tree {} leaf values are not label frequencies".format(what, j))
    return problems


def check_identical(first, again, what):
    """Same-seed repeats give bit-identical arrays."""
    if not np.array_equal(first, again):
        return ["{}: a same-seed repeat is not bit-identical".format(what)]
    return []


def check_same_trees(a, b, what):
    """Two same-seed fits grew identical trees."""
    for j, (ta, tb) in enumerate(zip(a.trees, b.trees)):
        for attr in ("feature", "threshold", "children_left", "children_right",
                     "leaf_id", "leaf_values", "leaf_counts"):
            if not np.array_equal(getattr(ta, attr), getattr(tb, attr)):
                return ["{}: same-seed fits differ in tree {} {}".format(what, j, attr)]
    if len(a.trees) != len(b.trees):
        return ["{}: same-seed fits grew different numbers of trees".format(what)]
    return []


def frequency_baseline_lrap(Y_train, Y_query):
    """Literal LRAP of scoring every row by the training label frequencies."""
    freq = np.asarray(Y_train.mean(axis=0)).ravel()
    return literal_lrap(np.broadcast_to(freq, Y_query.shape), Y_query)
