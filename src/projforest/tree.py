"""Multi-output regression trees grown on (possibly projected) output vectors.

The tree structure is chosen by variance reduction computed on a compressed
output matrix Z, while leaf predictions are always component-wise means of the
original outputs, so no decoding step is ever needed at prediction time.  The
exhaustive split scan scores every threshold of all k candidate features of a
node in one vectorized pass over running per-dimension sums, in blocks of at
most ``SCAN_BLOCK_BYTES``, so its cost per node is O(k * q * m) for q samples
and m output dimensions with no per-feature Python step: shrinking m shrinks
training time proportionally.  Equal gains go to the lowest feature index,
then the lowest threshold.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import to_dense
from .projection import check_finite_labels, project

SPLITTERS = ("exhaustive", "random_threshold")

# A node whose projected variance falls at or below this is treated as pure.
PURE_NODE_TOL = 1e-12

# The exhaustive scan holds at most this many bytes of prefix sums at once.
SCAN_BLOCK_BYTES = 1 << 24

# Blocks whose (features x outputs) row slab holds at least this many
# entries take their prefix sums slab by slab rather than by ``np.cumsum``.
SLAB_RECURRENCE_MIN = 256


@dataclass(frozen=True)
class TreeConfig:
    """Growth parameters.

    ``k`` features are examined per split (drawn without replacement, fresh at
    every node).  A split is attempted at nodes holding at least ``n_min``
    samples (and never below 2).  The ``exhaustive`` splitter tries every
    midpoint between consecutive distinct sorted values; ``random_threshold``
    draws one uniform cut per candidate feature.  ``bootstrap`` resamples the
    training rows with replacement before growing.
    """

    k: int
    n_min: int = 1
    splitter: str = "exhaustive"
    bootstrap: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n_min < 1:
            raise ValueError("n_min must be >= 1")
        if self.splitter not in SPLITTERS:
            raise ValueError("unknown splitter: {!r}".format(self.splitter))


@dataclass(frozen=True)
class SplitRecord:
    feature: int
    threshold: float
    impurity_reduction: float


def variance_sum(Y_rows):
    """Sum over output dimensions of the per-dimension (population) variance.

    Computed in centered form: mean over rows of the squared distance to the
    row mean.  Equals the mean pairwise squared distance divided by two.
    """
    Y = to_dense(Y_rows)
    if Y.ndim == 1:
        Y = Y[None, :]
    q = Y.shape[0]
    if q == 0:
        raise ValueError("variance of an empty sample is undefined")
    centered = Y - Y.mean(axis=0)
    return float(np.einsum("ij,ij->", centered, centered) / q)


def _prefix_sums(C):
    """Running sums along axis 1 of a (kb, q, m) block, in place.

    ``np.cumsum`` along that axis adds one column of a slab at a time, which
    is slow once the (kb, m) slab of one row position is wide; such blocks
    add each slab to the one before it instead.  Both add the same numbers in
    the same order, so the sums are identical either way.
    """
    kb, q, m = C.shape
    if kb * m < SLAB_RECURRENCE_MIN:
        np.cumsum(C, axis=1, out=C)
        return
    for i in range(1, q):
        np.add(C[:, i - 1], C[:, i], out=C[:, i])


def _scan_exhaustive(X, Zs, M, M2, samples, features):
    """Best midpoint split over the given (sorted) features; None when no
    gain > 0.

    All k features are scored together: one stable sort of the (k, q) value
    block, then, block by block, the prefix sums of Z in each feature's
    order as a (kb, q, m) array, from which every boundary between distinct
    consecutive values is scored.  The work is O(k q log q + k q m) per node
    with no per-feature Python step.  A block holds at most
    ``SCAN_BLOCK_BYTES`` of prefix sums (always at least one feature), which
    bounds the scan's memory at large q * m.

    Each feature's prefix sums are a contiguous (q, m) array multiplied with
    all q rows, as a one-feature scan would do, because BLAS results depend
    on the row count and stride: the gains, and so the trees, do not depend
    on k or on the block size.  Ties are broken toward the lowest feature
    index, then the lowest threshold.
    """
    q = samples.size
    m = Zs.shape[1]
    V = X[:, features][samples].T
    order = np.argsort(V, axis=1, kind="stable")
    Vs = V[np.arange(features.size)[:, None], order]
    is_cut = Vs[:, 1:] > Vs[:, :-1]
    nl = np.arange(1, q, dtype=np.float64)
    block = max(1, SCAN_BLOCK_BYTES // (8 * q * m))
    best_gain = 0.0
    best = None
    for start in range(0, features.size, block):
        rows = order[start : start + block]
        C = Zs[rows]
        _prefix_sums(C)
        c2 = np.einsum("fij,fij->fi", C, C)[:, :-1]
        cm = (C @ M)[:, :-1]
        score = c2 / nl + (M2 - 2.0 * cm + c2) / (q - nl)
        score = np.where(is_cut[start : start + block], score, -np.inf)
        cut = np.argmax(score, axis=1)
        gains = (score.max(axis=1) - M2 / q) / q
        j = int(np.argmax(gains))
        if gains[j] > best_gain:
            best_gain = float(gains[j])
            best = (start + j, int(cut[j]))
    if best is None:
        return None
    f, i = best
    lo, hi = Vs[f, i], Vs[f, i + 1]
    thr = 0.5 * (lo + hi)
    if not (lo < thr < hi):
        # adjacent floats leave no strictly-between midpoint
        thr = lo
    return (
        SplitRecord(int(features[f]), float(thr), best_gain),
        samples[order[f, : i + 1]],
        samples[order[f, i + 1 :]],
    )


def _scan_random_threshold(X, Zs, M, M2, samples, features, gen):
    """One uniform cut in (min, max) per feature; keep the best-scoring one."""
    q = samples.size
    best_gain = 0.0
    best = None
    for f in features:
        v = X[:, f][samples]
        lo = float(v.min())
        hi = float(v.max())
        if lo == hi:
            continue
        thr = float(gen.uniform(lo, hi))
        mask = v <= thr
        nl = int(np.count_nonzero(mask))
        if nl == 0 or nl == q:
            continue
        ML = Zs[mask].sum(axis=0)
        MR = M - ML
        gain = (
            float(ML @ ML) / nl + float(MR @ MR) / (q - nl) - M2 / q
        ) / q
        if gain > best_gain:
            best_gain = gain
            best = (int(f), thr, mask)
    if best is None:
        return None
    f, thr, mask = best
    return SplitRecord(f, thr, best_gain), samples[mask], samples[~mask]


def _best_split(scan, X, Z, samples, features, *gen):
    """Validate a one-shot node search, then run ``scan`` over the node."""
    samples = np.asarray(samples, dtype=np.int64)
    features = np.sort(np.asarray(features, dtype=np.int64))
    if samples.size < 2:
        raise ValueError("need at least two samples to split")
    if features.size == 0:
        raise ValueError("feature subset must be non-empty")
    Zs = np.asarray(Z, dtype=np.float64)[samples]
    M = Zs.sum(axis=0)
    found = scan(to_dense(X), Zs, M, float(M @ M), samples, features, *gen)
    return None if found is None else found[0]


def best_split_exhaustive(X, Z, samples, features):
    """Public one-shot exhaustive split search over a node."""
    return _best_split(_scan_exhaustive, X, Z, samples, features)


def best_split_random_threshold(X, Z, samples, features, rng):
    """Public one-shot random-threshold split search over a node."""
    return _best_split(_scan_random_threshold, X, Z, samples, features, rng.generator)


class Tree:
    """Array-encoded binary tree with leaf vectors in the original label space.

    Internal nodes store (feature, threshold, children);
    leaves index into ``leaf_values`` (leaf_count x d) and ``leaf_counts``.
    Routing sends a sample left iff its feature value is <= the threshold.
    """

    FORMAT = "projforest-tree"
    VERSION = 2

    def __init__(
        self,
        feature,
        threshold,
        children_left,
        children_right,
        leaf_id,
        leaf_values,
        leaf_counts,
        n_features,
    ):
        self.feature = feature
        self.threshold = threshold
        self.children_left = children_left
        self.children_right = children_right
        self.leaf_id = leaf_id
        self.leaf_values = leaf_values
        self.leaf_counts = leaf_counts
        self.n_features = int(n_features)

    @property
    def n_nodes(self):
        return self.feature.size

    @property
    def n_leaves(self):
        return self.leaf_values.shape[0]

    @property
    def n_outputs(self):
        return self.leaf_values.shape[1]

    def check_rows(self, X):
        """X (dense or sparse) as a dense float64 array, after checking that
        it is a matrix of this tree's width with only finite values."""
        X = to_dense(X)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                "X has shape {}, tree expects (n, {})".format(
                    X.shape, self.n_features
                )
            )
        if not np.isfinite(X).all():
            raise ValueError("X contains non-finite values")
        return X

    def apply(self, X, *, checked=False):
        """Leaf index reached by every row of X (dense or sparse).  Rows of
        the wrong width or with a non-finite value are rejected.

        With ``checked`` the caller passes an X that :meth:`check_rows`
        returned, so a forest checks its input once for all trees.
        """
        if not checked:
            X = self.check_rows(X)
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            f = self.feature[node]
            active = f >= 0
            if not active.any():
                return self.leaf_id[node]
            idx = np.nonzero(active)[0]
            nd = node[idx]
            go_left = X[idx, f[idx]] <= self.threshold[nd]
            node[idx] = np.where(
                go_left, self.children_left[nd], self.children_right[nd]
            )

    def predict(self, X, *, checked=False):
        """Leaf vector (length d) for every row of X, as an (n, d) array;
        ``checked`` as in :meth:`apply`."""
        return self.leaf_values[self.apply(X, checked=checked)]

    def to_dict(self):
        """Plain-serializable document; see README for the schema."""
        return {
            "format": self.FORMAT,
            "version": self.VERSION,
            "n_features": self.n_features,
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "children_left": self.children_left.tolist(),
            "children_right": self.children_right.tolist(),
            "leaf_id": self.leaf_id.tolist(),
            "leaf_values": self.leaf_values.tolist(),
            "leaf_counts": self.leaf_counts.tolist(),
        }

    @classmethod
    def from_dict(cls, doc):
        if doc.get("format") != cls.FORMAT:
            raise ValueError("not a serialized tree document")
        if doc.get("version") != cls.VERSION:
            raise ValueError(
                "unsupported tree document version: {!r}".format(doc.get("version"))
            )
        tree = cls(
            feature=np.asarray(doc["feature"], dtype=np.int64),
            threshold=np.asarray(doc["threshold"], dtype=np.float64),
            children_left=np.asarray(doc["children_left"], dtype=np.int64),
            children_right=np.asarray(doc["children_right"], dtype=np.int64),
            leaf_id=np.asarray(doc["leaf_id"], dtype=np.int64),
            leaf_values=np.asarray(doc["leaf_values"], dtype=np.float64).reshape(
                len(doc["leaf_counts"]), -1
            ),
            leaf_counts=np.asarray(doc["leaf_counts"], dtype=np.int64),
            n_features=doc["n_features"],
        )
        tree._check_structure()
        return tree

    def _check_structure(self):
        """Reject arrays that do not encode one binary tree, so that routing
        always ends at a leaf and every leaf has its own ``leaf_values`` row."""
        n = self.n_nodes
        per_node = (self.threshold, self.children_left, self.children_right,
                    self.leaf_id)
        if any(a.shape != (n,) for a in per_node):
            raise ValueError("tree document: node arrays differ in length")
        split = self.feature >= 0
        parent = np.tile(np.nonzero(split)[0], 2)
        children = np.concatenate([self.children_left[split], self.children_right[split]])
        if (children <= parent).any() or (children >= n).any():
            raise ValueError("tree document: a child index is out of range "
                             "or not above its parent's")
        if not np.array_equal(np.sort(children), np.arange(1, n)):
            raise ValueError("tree document: a non-root node has no parent or two")
        if (self.feature >= self.n_features).any():
            raise ValueError("tree document: a split feature is out of range")
        if not np.array_equal(np.sort(self.leaf_id[~split]), np.arange(self.n_leaves)):
            raise ValueError("tree document: leaf_id is not one-to-one onto "
                             "the leaf_values rows")


def _leaf_sums(Y, leaf_of_row, multiplicity, n_leaves):
    """Per-leaf sums of the original output rows, an (n_leaves, d) array.

    Every copy of an original row reaches the same leaf, so each row present
    in the sample adds ``multiplicity * y_row`` to its leaf's sum once, rows
    in ascending order.  These are the products, added in the same order, of
    the sparse aggregation product (leaf x row multiplicities) @ Y, so the
    sums agree with it to the last bit; adding a duplicated row once per copy,
    or a ``reduceat`` over each leaf's rows, rounds differently.  CSR ``Y`` is
    added by its stored entries and never made dense.
    """
    sums = np.zeros((n_leaves, Y.shape[1]))
    if sp.issparse(Y):
        Y = Y.tocsr()
        entry_row = np.repeat(np.arange(Y.shape[0]), np.diff(Y.indptr))
        keep = multiplicity[entry_row] > 0
        entry_row = entry_row[keep]
        values = multiplicity[entry_row] * np.asarray(Y.data[keep], dtype=np.float64)
        np.add.at(sums, (leaf_of_row[entry_row], Y.indices[keep]), values)
    else:
        present = np.flatnonzero(multiplicity)
        Y = np.asarray(Y, dtype=np.float64)
        np.add.at(sums, leaf_of_row[present], multiplicity[present, None] * Y[present])
    return sums


def check_finite(X, Y):
    """Reject a dense X or a dense or sparse Y holding a non-finite value."""
    if not np.isfinite(X).all():
        raise ValueError("X contains non-finite values")
    check_finite_labels(Y)


def grow_arrays(X, Y, phi, cfg, rng, Z=None):
    """Grow one tree from raw matrices.

    The structure is fitted on Z = project(phi, Y) (or on Y itself when
    ``phi`` is None); leaves are labeled with means of the original Y rows
    reaching them, bootstrap multiplicities included.  ``X`` is (n, p) dense or CSR (densified; dense float64 is not copied),
    ``Y`` is (n, d) dense or CSR; a non-finite value in either is rejected.
    ``Z`` may carry a precomputed projection of Y (used to time projection
    separately from growth); otherwise it is computed here.
    """
    n, p = X.shape
    d = Y.shape[1]
    if Y.shape[0] != n:
        raise ValueError("X and Y row counts differ")
    if phi is not None and phi.d != d:
        raise ValueError(
            "projection expects {} label columns, Y has {}".format(phi.d, d)
        )
    if cfg.k > p:
        raise ValueError("k={} exceeds the {} available features".format(cfg.k, p))
    if n == 0:
        raise ValueError("cannot grow a tree on an empty sample")
    X = to_dense(X)
    check_finite(X, Y)

    if Z is None:
        Z = project(phi, Y) if phi is not None else to_dense(Y)
    gen = rng.generator

    if cfg.bootstrap:
        rows = gen.integers(0, n, size=n)
        Xt, Zt = X[rows], Z[rows]
    else:
        rows = np.arange(n, dtype=np.int64)
        Xt, Zt = X, Z

    znorm2 = np.einsum("ij,ij->i", Zt, Zt)
    n_t = rows.size
    min_split = max(2, cfg.n_min)
    random_splitter = cfg.splitter == "random_threshold"

    # Every leaf holds at least one sample, so a tree has at most n_t leaves
    # and 2 * n_t - 1 nodes; the arrays are trimmed to the grown size below.
    size = 2 * n_t - 1
    feature = np.full(size, -1, dtype=np.int64)
    threshold = np.zeros(size)
    children_left = np.full(size, -1, dtype=np.int64)
    children_right = np.full(size, -1, dtype=np.int64)
    leaf_of = np.full(size, -1, dtype=np.int64)
    counts = np.empty(n_t, dtype=np.int64)
    leaf_of_row = np.empty(n, dtype=np.int64)
    n_nodes = 1
    n_leaves = 0

    stack = [(np.arange(n_t, dtype=np.int64), 0)]
    while stack:
        samples, node = stack.pop()
        q = samples.size
        found = None
        if q >= min_split:
            Zs = Zt[samples]
            M = Zs.sum(axis=0)
            M2 = float(M @ M)
            impurity = float(znorm2[samples].sum()) / q - M2 / (q * q)
            if impurity > PURE_NODE_TOL:
                chosen = gen.choice(p, size=cfg.k, replace=False)
                chosen.sort()
                if random_splitter:
                    found = _scan_random_threshold(
                        Xt, Zs, M, M2, samples, chosen, gen
                    )
                else:
                    found = _scan_exhaustive(Xt, Zs, M, M2, samples, chosen)
        if found is None:
            leaf_of[node] = n_leaves
            counts[n_leaves] = q
            leaf_of_row[rows[samples]] = n_leaves
            n_leaves += 1
            continue
        rec, left_samples, right_samples = found
        feature[node] = rec.feature
        threshold[node] = rec.threshold
        children_left[node] = n_nodes
        children_right[node] = n_nodes + 1
        stack.append((right_samples, n_nodes + 1))
        stack.append((left_samples, n_nodes))
        n_nodes += 2

    counts = counts[:n_leaves].copy()
    return Tree(
        feature=feature[:n_nodes].copy(),
        threshold=threshold[:n_nodes].copy(),
        children_left=children_left[:n_nodes].copy(),
        children_right=children_right[:n_nodes].copy(),
        leaf_id=leaf_of[:n_nodes].copy(),
        leaf_values=_leaf_sums(Y, leaf_of_row, np.bincount(rows, minlength=n),
                               n_leaves) / counts[:, None],
        leaf_counts=counts,
        n_features=p,
    )
