"""Shared helpers for the test suite: oracles and data generators."""

import gzip
import re

import numpy as np
import scipy.sparse as sp

from projforest import DataSet, SyntheticProblem, to_dense
from projforest.tree import variance_sum


def pattern_label_matrix(n, d, n_patterns, labels_per_row, gen):
    """Binary label rows drawn from a small pool of sparse patterns.

    Mimics real multi-label data, where a handful of label combinations
    repeats across samples.
    """
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


def trees_equal(a, b):
    """Exact structural and numerical equality of two trees."""
    return (
        a.n_features == b.n_features
        and np.array_equal(a.feature, b.feature)
        and np.array_equal(a.threshold, b.threshold)
        and np.array_equal(a.children_left, b.children_left)
        and np.array_equal(a.children_right, b.children_right)
        and np.array_equal(a.leaf_id, b.leaf_id)
        and np.array_equal(a.leaf_values, b.leaf_values)
        and np.array_equal(a.leaf_counts, b.leaf_counts)
    )


def tree_walk(tree, x):
    """Leaf vector of one row, by walking the tree one node at a time: the
    scalar oracle for the batch routing of ``Tree.apply``/``Tree.predict``."""
    node = 0
    while tree.feature[node] >= 0:
        if x[tree.feature[node]] <= tree.threshold[node]:
            node = tree.children_left[node]
        else:
            node = tree.children_right[node]
    return tree.leaf_values[tree.leaf_id[node]]


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


# The svmlight grammar the loader accepts, one token at a time.
_SEPARATORS = " \t\x0b\x0c"
_SPLIT = re.compile("[{}]+".format(_SEPARATORS))
_INT = re.compile(r"[+-]?[0-9]{1,18}")
_FLOAT = re.compile(
    r"[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)",
    re.IGNORECASE,
)
_DIM_TOKEN = re.compile("#([dp])=([0-9]+)")


def _open_text(path, mode="rt"):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode)
    return open(path, mode)


def reference_load(path):
    """Line-by-line reference for ``load_svmlight_multilabel``.

    The loader as it was before it parsed in bulk, with three changes: pins
    apply to the whole file (a second pin of another value is an error),
    only ``#d=``/``#p=`` in a comment pin (not a bare ``d=``), and tokens
    follow the ASCII grammar of the module docstring (checked here by
    regular expression per token) instead of Python's ``int``/``float``.
    """
    with _open_text(path) as fh:
        lines = [raw.rstrip("\n") for raw in fh]
    pins = {}
    conflicts = {}
    for lineno, line in enumerate(lines, start=1):
        if line.startswith("#"):
            for key, value in _DIM_TOKEN.findall(line):
                value = int(value)
                if pins.setdefault(key, value) != value:
                    conflicts.setdefault(lineno, (
                        "line {}: header pins {}={}, but an earlier header pinned {}={}"
                        .format(lineno, key, value, key, pins[key])
                    ))
    pinned_d, pinned_p = pins.get("d"), pins.get("p")

    label_rows = []
    feature_rows = []
    max_label = -1
    max_feature = -1
    for lineno, line in enumerate(lines, start=1):
        if lineno in conflicts:
            raise ValueError(conflicts[lineno])
        if line.startswith("#") or not line.strip(_SEPARATORS):
            continue
        if line[0] in _SEPARATORS:
            label_part, feature_part = "", line.strip(_SEPARATORS)
        else:
            parts = _SPLIT.split(line, maxsplit=1)
            if ":" in parts[0]:
                label_part, feature_part = "", line.strip(_SEPARATORS)
            else:
                label_part = parts[0]
                feature_part = parts[1].strip(_SEPARATORS) if len(parts) > 1 else ""

        labels = []
        if label_part:
            for tok in label_part.split(","):
                if not _INT.fullmatch(tok):
                    raise ValueError("line {}: bad label index {!r}".format(lineno, tok))
                lab = int(tok)
                if lab < 0:
                    raise ValueError("line {}: negative label index {}".format(lineno, lab))
                if pinned_d is not None and lab >= pinned_d:
                    raise ValueError(
                        "line {}: label index {} >= pinned d={}".format(
                            lineno, lab, pinned_d
                        )
                    )
                labels.append(lab)
        labels = sorted(set(labels))
        if labels:
            max_label = max(max_label, labels[-1])

        feats = []
        prev_idx = 0
        if feature_part:
            for tok in _SPLIT.split(feature_part):
                idx_str, sep, val_str = tok.partition(":")
                if not (sep and _INT.fullmatch(idx_str) and _FLOAT.fullmatch(val_str)):
                    raise ValueError("line {}: bad feature token {!r}".format(lineno, tok))
                idx = int(idx_str)
                val = float(val_str)
                if idx < 1:
                    raise ValueError(
                        "line {}: feature indices are 1-based, got {}".format(lineno, idx)
                    )
                if idx <= prev_idx:
                    raise ValueError(
                        "line {}: feature indices must be strictly increasing"
                        " ({} after {})".format(lineno, idx, prev_idx)
                    )
                if not np.isfinite(val):
                    raise ValueError(
                        "line {}: non-finite feature value {!r}".format(lineno, val_str)
                    )
                prev_idx = idx
                if val != 0.0:
                    feats.append((idx - 1, val))
            if pinned_p is not None and prev_idx > pinned_p:
                raise ValueError(
                    "line {}: feature index {} > pinned p={}".format(
                        lineno, prev_idx, pinned_p
                    )
                )
            max_feature = max(max_feature, prev_idx - 1)
        label_rows.append(labels)
        feature_rows.append(feats)

    n = len(label_rows)
    if n == 0:
        raise ValueError("file contains no samples: {}".format(path))
    d = pinned_d if pinned_d is not None else max_label + 1
    p = pinned_p if pinned_p is not None else max_feature + 1
    if d < 1:
        raise ValueError(
            "cannot infer the label count (no labels present); add a '#d=...' header"
        )
    if p < 1:
        raise ValueError(
            "cannot infer the feature count (no features present); add a '#p=...' header"
        )
    xi = [i for i, feats in enumerate(feature_rows) for _ in feats]
    xj = [j for feats in feature_rows for j, _ in feats]
    xv = [v for feats in feature_rows for _, v in feats]
    X = sp.csr_matrix(
        (np.array(xv, dtype=np.float64),
         (np.array(xi, dtype=np.int64), np.array(xj, dtype=np.int64))),
        shape=(n, p),
    )
    yi = [i for i, labels in enumerate(label_rows) for _ in labels]
    yj = [lab for labels in label_rows for lab in labels]
    Y = sp.csr_matrix(
        (np.ones(len(yj)), (np.array(yi, dtype=np.int64), np.array(yj, dtype=np.int64))),
        shape=(n, d),
    )
    return DataSet(X, Y)


def reference_dump(ds, path, header=True):
    """The writer as it was before it wrote in bulk: one row at a time,
    formatting one value at a time."""
    X = sp.csr_matrix(ds.X_rows())
    Y = ds.Y_rows().tocsr()
    n = ds.n_samples
    with _open_text(path, "wt") as fh:
        if header:
            fh.write("#d={} #p={}\n".format(ds.n_labels, ds.n_features))
        for i in range(n):
            labels = Y.indices[Y.indptr[i] : Y.indptr[i + 1]]
            cols = X.indices[X.indptr[i] : X.indptr[i + 1]]
            vals = X.data[X.indptr[i] : X.indptr[i + 1]]
            order = np.argsort(cols)
            feats = " ".join(
                "{}:{}".format(int(cols[j]) + 1, repr(float(vals[j])))
                for j in order
                if vals[j] != 0.0
            )
            labels = ",".join(str(int(lab)) for lab in sorted(labels))
            fh.write("{} {}\n".format(labels, feats))


def assert_same_dataset(a, b):
    """Bit-identical matrices: shapes, and the dtype and bytes of every
    CSR array."""
    for A, B in ((a.X, b.X), (a.Y, b.Y)):
        assert A.shape == B.shape
        for name in ("data", "indices", "indptr"):
            x, y = getattr(A, name), getattr(B, name)
            assert x.dtype == y.dtype, name
            assert x.tobytes() == y.tobytes(), name


def deterministic_grid_problem(repeats=4):
    """Noise-free outputs on a fully enumerated 2x2 input grid.

    Every learning sample covers the whole grid, so with a deterministic
    fitter every term of the decomposition is exactly zero.
    """
    grid = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])

    def sample_inputs(gen, n):
        return np.tile(grid, (repeats, 1))

    def conditional_mean(X):
        return np.column_stack([0.5 * (X[:, 0] + X[:, 1]), X[:, 0] * X[:, 1]])

    def sample_outputs(gen, mean):
        return mean.copy()

    def residual_variance(X):
        return np.zeros(X.shape[0])

    return SyntheticProblem(
        n_train=4 * repeats,
        n_features=2,
        n_outputs=2,
        sample_inputs=sample_inputs,
        conditional_mean=conditional_mean,
        sample_outputs=sample_outputs,
        residual_variance=residual_variance,
        probes=grid.copy(),
    )
