"""Multi-output regression trees grown on (possibly projected) output vectors.

The tree structure is chosen by variance reduction computed on a compressed
output matrix Z, while leaf predictions are always component-wise means of the
original outputs, so no decoding step is ever needed at prediction time.

Exhaustive trees grow one depth at a time.  The split scan scores every
threshold of the k candidate features of every open node of a depth in one
vectorized pass over running per-dimension sums, taken in blocks of whole
nodes holding at most ``SCAN_BLOCK_BYTES`` of them (a larger node alone, a
block of features at a time), so its cost per node is O(k * q * m) for q
samples and m output dimensions with no per-feature and little per-node
Python work: shrinking m shrinks training time proportionally.  A tree with
no more scan rows than outputs (n_t <= m, so q <= m at every node) reads
the same sums from the Gram matrix G = Z Z^T of its rows instead, at
O(k * q^2) per node plus one O(n_t^2 * m) product per tree.  A node's split
does not depend on the other nodes scanned with it.  Each depth draws the
features of all its splittable nodes in one call, in node order.
Random-threshold trees grow breadth first too, one node at a time, each
node drawing its features (the same way, the k smallest of p uniform keys)
and cuts when it is reached: their trees are small (a depth of a Monte
Carlo harness tree holds 1-4 nodes), so a level scan would batch little
there.  Both splitters number nodes depth by depth, left to right, so the
j-th split node's children are nodes 2j+1 and 2j+2 and leaves are numbered
in node order.  Equal gains go to the lowest feature index, then the lowest
threshold.

A bootstrap sample of n rows holds only about 63% of them (1 - 1/e) once.
Exhaustive trees grow on each distinct row once, weighted by its bootstrap
multiplicity, as if its copies were present: the scan adds Z rows scaled by
their weights, and a node's weight (its sample count, copies included)
drives the ``n_min`` test, its impurity, its split gains and its leaf
count, while its entry count (distinct rows) lays out its segments.  With
unit weights, as without bootstrap, every number is the unweighted one.
Random-threshold trees keep every copy as a row of its own.

Routing moves all rows of a batch one depth per step, through a step table
that each call builds from the children arrays (a leaf steps to itself),
until no row is on a split node.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import as_indices, check_document, check_finite, check_integer, to_dense

SPLITTERS = ("exhaustive", "random_threshold")

# A node whose projected variance falls at or below this is treated as pure.
PURE_NODE_TOL = 1e-12

# The exhaustive scan holds at most this many bytes of prefix sums (or Gram
# row sums) at once, unless one feature (row) of one node needs more, and
# sorts and scores chunks of whole nodes whose per-entry arrays hold at most
# this many bytes each.
SCAN_BLOCK_BYTES = 1 << 20

# Blocks whose (features x outputs) row slab holds at least this many
# entries take their prefix sums slab by slab rather than by
# ``np.add.accumulate``.
SLAB_RECURRENCE_MIN = 256


@dataclass(frozen=True)
class TreeConfig:
    """Growth parameters.

    A split is attempted at nodes holding at least ``n_min`` samples (and
    never below 2) whose outputs are not all equal, over ``k`` features drawn
    without replacement for each such node: by the ``exhaustive`` splitter
    for all of a depth's nodes in one call, by ``random_threshold`` when the
    node is reached.  The ``exhaustive`` splitter tries every midpoint
    between consecutive distinct sorted values; ``random_threshold`` draws
    one uniform cut per candidate feature.  ``bootstrap`` resamples the
    training rows with replacement before growing; the ``exhaustive``
    splitter then holds each distinct row once, weighted by its
    multiplicity, and a row drawn w times counts as w samples towards
    ``n_min``.  ``k`` and ``n_min`` must be integers and ``bootstrap`` a
    bool.
    """

    k: int
    n_min: int = 1
    splitter: str = "exhaustive"
    bootstrap: bool = False

    def __post_init__(self):
        check_integer("k", self.k, 1)
        check_integer("n_min", self.n_min, 1)
        if not isinstance(self.bootstrap, (bool, np.bool_)):
            raise ValueError("bootstrap must be a bool, got {!r}".format(self.bootstrap))
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

    ``np.add.accumulate`` along that axis adds one column of a slab at a
    time, which is slow once the (kb, m) slab of one row position is wide;
    such blocks add each slab to the one before it instead.  Both add the
    same numbers in the same order, so the sums are identical either way.
    """
    kb, q, m = C.shape
    if kb * m < SLAB_RECURRENCE_MIN:
        np.add.accumulate(C, axis=1, out=C)
        return
    slabs = list(C.swapaxes(0, 1))
    for prev, cur in zip(slabs, slabs[1:]):
        np.add(prev, cur, out=cur)


def _scan_level(X, Z, weight, samples, sizes, W, M, M2, features, G):
    """Best midpoint split of every node of a level, all nodes scanned together.

    Row r of X and Z stands for ``weight[r]`` samples, and row r of Z is
    already scaled by ``weight[r]``.  Node i holds the next ``sizes[i]``
    entries of ``samples`` (rows of X and Z), of total weight ``W[i]``, has
    output sums ``M[i]`` with ``M2[i] = M[i] @ M[i]``, and examines the
    sorted features ``features[i]`` (an (s, k) array).  Returns, per node,
    the best gain (not positive when no split gains), its feature, threshold
    and left-child entry count, plus ``samples`` with each node's entries
    stably sorted by that feature, so that a split node's children are its
    first ``n_left`` entries and the rest.  With unit weights every number is
    the one an unweighted scan computes; ``G`` is :func:`_gram` of Z.

    Nodes are sorted and scored in chunks of whole nodes holding at most
    ``SCAN_BLOCK_BYTES / 8`` (node, feature, sample) entries, and never more
    than 2^20, which keeps a chunk's sort keys within int64 (a single node
    overflows them only past 3e9 entries, 24 GB of feature values); a bigger
    node is a chunk alone.  Every number a node's choice rests on is
    computed from that node's entries alone, in the same order whatever
    shares its chunk or its block of prefix sums, so a level scan chooses
    exactly what one-node scans would.
    """
    s, k = features.shape
    bounds = np.zeros(s + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    per_node = [np.empty(s), np.empty(s, dtype=np.int64), np.empty(s),
                np.empty(s, dtype=np.int64)]
    ordered = np.empty_like(samples)
    for a, b in _runs(k * sizes, min(SCAN_BLOCK_BYTES // 8, 1 << 20)):
        found = _scan_chunk(X, Z, weight, samples[bounds[a]:bounds[b]], sizes[a:b],
                            W[a:b], M[a:b], M2[a:b], features[a:b], G)
        for dest, part in zip(per_node, found):
            dest[a:b] = part
        ordered[bounds[a]:bounds[b]] = found[-1]
    return (*per_node, ordered)


def _runs(weights, budget):
    """Consecutive runs [a, b) of items whose weights add up to at most
    ``budget``; an item heavier than that is a run alone."""
    ends = np.zeros(weights.size + 1, dtype=np.int64)
    np.cumsum(weights, out=ends[1:])
    a = 0
    while a < weights.size:
        b = max(a + 1, int(np.searchsorted(ends, ends[a] + budget, "right")) - 1)
        yield a, b
        a = b


def _scan_chunk(X, Z, weight, samples, sizes, W, M, M2, features, G):
    """:func:`_scan_level` on one chunk of nodes.

    The (node, feature) value segments are sorted in one pass, which leaves
    them node by node, feature by feature, each in ascending order with ties
    in sample order.  Each node's prefix sums of Z in that order are a
    contiguous (k, q, m) array (or (kb, q, m) per block of features, see
    :func:`_prefix_blocks`) summed by :func:`_prefix_sums` and multiplied
    with ``M`` as one (q, m) matrix per feature, as a one-node scan does,
    because BLAS results depend on the row count and stride.  With ``G``,
    :func:`_gram_sums` takes the same sums from G instead.  Every boundary
    between distinct consecutive values is then scored at once, and each
    node keeps its best segment (lowest feature on equal gains), cut at its
    first best boundary (lowest threshold).
    """
    s, k = features.shape
    q_all = samples.size
    m = Z.shape[1]
    starts = np.zeros(s, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    node_of = np.repeat(np.arange(s), sizes)
    V = np.take(X, features[node_of].T + samples * X.shape[1]).ravel()
    n_el = V.size
    # Dense value ranks (equal values share one), then one sort of unique
    # keys (segment, rank, position in the node): the order that a stable
    # sort by value and then by segment gives, but without a stable sort of
    # floats, which took twice as long.
    by_value = np.argsort(V)
    sorted_values = V[by_value]
    new_value = np.empty(n_el, dtype=np.int64)
    new_value[0] = 0
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=new_value[1:])
    rank = np.empty(n_el, dtype=np.int64)
    rank[by_value] = np.cumsum(new_value)
    q_max = int(sizes.max())
    key_span = (int(rank[by_value[-1]]) + 1) * q_max
    key = np.add.outer(np.arange(k), node_of * k) * key_span
    key += rank.reshape(k, q_all) * q_max
    at_node = np.arange(q_all) - starts[node_of]
    key += at_node
    order = np.argsort(key, axis=None)
    rows = np.tile(samples, k)[order]
    Vs = V[order]

    seg_size = np.repeat(sizes, k)
    seg_start = np.zeros(s * k, dtype=np.int64)
    np.cumsum(seg_size[:-1], out=seg_start[1:])
    c2 = np.empty(n_el)
    cm = np.empty(n_el)
    if G is not None:
        _gram_sums(G, samples, sizes, at_node[order % q_all], cm, c2)
    else:
        for a, b, f0, f1 in _prefix_blocks(sizes, k, m):
            kb = f1 - f0
            lo = k * starts[a] + f0 * sizes[a]
            hi = lo + kb * int(sizes[a:b].sum())
            C = np.take(Z, rows[lo:hi], axis=0)
            at = 0
            for q, M_i in zip(sizes[a:b].tolist(), M[a:b]):
                C_i = C[at:at + kb * q].reshape(kb, q, m)
                _prefix_sums(C_i)
                np.matmul(C_i, M_i, out=cm[lo + at:lo + at + kb * q].reshape(kb, q))
                at += kb * q
            np.einsum("ij,ij->i", C, C, out=c2[lo:hi])

    # Boundary after entry e of a segment: the weight of entries 0..e goes
    # left.  Weights are integers, so these running sums are exact.
    n_left = np.take(weight, rows)
    np.cumsum(n_left, out=n_left)
    before = np.zeros(s * k)
    before[1:] = n_left[seg_start[1:] - 1]
    n_left -= np.repeat(before, seg_size)
    seg_weight = np.repeat(W, k)
    n_right = np.repeat(seg_weight, seg_size)
    n_right -= n_left
    np.maximum(n_right, 1.0, out=n_right)
    is_cut = np.empty(n_el, dtype=bool)
    np.greater(Vs[1:], Vs[:-1], out=is_cut[:-1])
    is_cut[seg_start + seg_size - 1] = False
    right = np.repeat(M2, k * sizes)
    right -= 2.0 * cm
    right += c2
    right /= n_right
    score = c2 / n_left
    score += right
    score = np.where(is_cut, score, -np.inf)

    seg_max = np.maximum.reduceat(score, seg_start)
    gains = (seg_max - np.repeat(M2 / W, k)) / seg_weight
    best_f = gains.reshape(s, k).argmax(axis=1)
    best = np.arange(s) * k + best_f
    hits = np.flatnonzero(score == np.repeat(seg_max, seg_size))
    cut = hits[np.searchsorted(hits, seg_start[best])]
    lo, hi = Vs[cut], Vs[cut + 1]
    thr = 0.5 * (lo + hi)
    # adjacent floats leave no strictly-between midpoint
    thr = np.where((lo < thr) & (thr < hi), thr, lo)
    ordered = rows[np.repeat(seg_start[best] - starts, sizes) + np.arange(q_all)]
    return (gains[best], features[np.arange(s), best_f], thr,
            cut - seg_start[best] + 1, ordered)


def _gram_sums(G, samples, sizes, local, cm, c2):
    """``cm`` and ``c2`` of a chunk of :func:`_scan_chunk`, from the Gram
    matrix ``G`` of the scan rows instead of prefix sums of Z; ``local``
    holds each sorted entry's index within its node's ``samples``.

    For the rows z_0..z_e of a segment, C_e . M = sum_i<=e r_i, where r_i
    sums row i of the node's block of G, and |C_e|^2 = sum_i<=e (G_ii +
    2 L_i), where L_i sums G_ij over the rows j sorted before i.  Both sums
    run over the node's rows in ``samples`` order, whatever the feature, a
    block of rows at a time whose (k, rows, q) arrays hold at most
    ``SCAN_BLOCK_BYTES`` (at least one row)."""
    k = local.size // samples.size
    at = 0
    for q in sizes.tolist():
        node, seg = samples[at:at + q], slice(k * at, k * (at + q))
        loc = local[seg].reshape(k, q)
        pos = np.argsort(loc, axis=1).astype(np.int32)  # compares 4x faster
        r, inner = np.empty(q), np.empty((k, q))
        step = max(1, SCAN_BLOCK_BYTES // (8 * k * q))
        for j in range(0, q, step):
            J = slice(j, j + step)
            G_J = np.take(G, node[J, None] * G.shape[0] + node)
            r[J] = G_J.sum(axis=1)
            before = pos[:, None, None, :] < pos[:, J, None, None]
            inner[:, J] = np.matmul(before, G_J[..., None])[..., 0, 0]
        inner = 2.0 * inner + G[node, node]
        np.cumsum(r[loc], axis=1, out=cm[seg].reshape(k, q))
        np.cumsum(np.take_along_axis(inner, loc, axis=1), axis=1, out=c2[seg].reshape(k, q))
        at += q


def _prefix_blocks(sizes, k, m):
    """The blocks in which a chunk takes its prefix sums, as (first node, end
    node, first feature, end feature): runs of whole nodes holding at most
    ``SCAN_BLOCK_BYTES`` of prefix sums, and each bigger node alone, as many
    of its features at a time as fit (at least one)."""
    blocks = []
    for a, b in _runs(8 * k * m * sizes, SCAN_BLOCK_BYTES):
        per_feature = 8 * m * int(sizes[a])
        if k * per_feature > SCAN_BLOCK_BYTES:
            width = max(1, SCAN_BLOCK_BYTES // per_feature)
            blocks += [(a, b, f, min(k, f + width)) for f in range(0, k, width)]
        else:
            blocks.append((a, b, 0, k))
    return blocks


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


def _check_node(X, samples, features):
    """Validated (samples, sorted features) of a one-shot node search over
    the rows and columns of X."""
    samples = as_indices("samples", samples)
    features = np.sort(as_indices("features", features))
    if samples.size < 2:
        raise ValueError("need at least two samples to split")
    if features.size == 0:
        raise ValueError("feature subset must be non-empty")
    for name, idx, size in (("samples", samples, X.shape[0]), ("features", features, X.shape[1])):
        if idx.min() < 0 or idx.max() >= size:
            raise ValueError("{} must lie in [0, {}), got values from {} to {}".format(
                name, size, idx.min(), idx.max()))
    return samples, features


def _node_sums(Z, weight, samples, sizes):
    """Bounds, weights W, output sums M (s, m) and ``M2 = |M|^2`` of
    consecutive nodes holding ``sizes`` entries of ``samples`` each.

    W and M are sparse (node x row) products with ``weight`` and Z, which
    add each node's rows one after another in ``samples`` order, apart from
    every other node.  ``np.add.reduceat`` over the gathered rows would sum
    each output column pairwise instead, which rounds differently in the
    last bits, and walks each column with a stride of m: at m=1000 it took
    4-10 ms a depth against about 1 ms for the product.
    """
    bounds = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    member = sp.csr_matrix((np.ones(samples.size), samples, bounds),
                           shape=(sizes.size, Z.shape[0]))
    M = member @ Z
    return bounds, member @ weight, M, np.einsum("ij,ij->i", M, M)


def _gram(Z):
    """Z Z^T if Z has no more rows than columns, else None: every node then
    has q <= m, so its Gram work k q^2 is at most its prefix work k q m."""
    return Z @ Z.T if Z.shape[0] <= Z.shape[1] else None


def best_split_exhaustive(X, Z, samples, features):
    """Public one-shot exhaustive split search over a node: the level scan
    that grows trees, run on the node's own rows (so the Gram rule applies
    to the node), each entry weighing one, a repeated sample once per copy."""
    samples, features = _check_node(X, samples, features)
    Z = np.asarray(Z, dtype=np.float64)[samples]
    rows, weight, sizes = np.arange(samples.size), np.ones(samples.size), np.array([samples.size])
    _, W, M, M2 = _node_sums(Z, weight, rows, sizes)
    gain, feature, threshold, _, _ = _scan_level(
        to_dense(X)[samples], Z, weight, rows, sizes, W, M, M2, features[None, :], _gram(Z)
    )
    if not gain[0] > 0.0:
        return None
    return SplitRecord(int(feature[0]), float(threshold[0]), float(gain[0]))


def best_split_random_threshold(X, Z, samples, features, gen):
    """Public one-shot random-threshold split search over a node, drawing
    its cuts from the numpy Generator ``gen``."""
    samples, features = _check_node(X, samples, features)
    Zs = np.asarray(Z, dtype=np.float64)[samples]
    M = Zs.sum(axis=0)
    found = _scan_random_threshold(
        to_dense(X), Zs, M, float(M @ M), samples, features, gen
    )
    return None if found is None else found[0]


# The array fields of a tree document, in document order: integer ("i") or
# real ("if").
_DOC_ARRAYS = {"feature": "i", "threshold": "if", "leaf_values": "if", "leaf_counts": "i"}


class Tree:
    """Array-encoded binary tree with leaf vectors in the original label space.

    Nodes are numbered depth by depth, left to right, as both growers number
    them: ``feature`` holds each node's split feature (negative on a leaf)
    and ``threshold`` its cut, and the rows of ``leaf_values`` (leaf_count x
    d) and ``leaf_counts`` follow the leaves in node order.  The j-th split
    node's children are nodes 2j+1 and 2j+2, so ``children_left``,
    ``children_right`` (-1 on a leaf) and ``leaf_id`` (-1 on a split node)
    are derived here, once, and never given.  Arrays that do not encode one
    such tree are rejected.  Routing sends a sample left iff its feature
    value is <= the threshold.
    """

    FORMAT = "projforest-tree"
    VERSION = 3

    def __init__(self, feature, threshold, leaf_values, leaf_counts, n_features):
        # Node i > 0 is a child of the ceil(i / 2)-th split node, which must
        # come before it: at least i / 2 of nodes 0..i-1 split.  Then every
        # child id is above its parent's and routing ends at a leaf.
        split = feature >= 0
        rank = np.cumsum(split)
        n_split = int(rank[-1]) if rank.size else 0
        if (feature.shape != (2 * n_split + 1,) or threshold.shape != feature.shape
                or leaf_values.shape[0] != n_split + 1
                or not (2 * rank[:-1] > np.arange(feature.size - 1)).all()):
            raise ValueError(
                "feature does not encode one binary tree in level order: {} nodes, {} of "
                "them split nodes, with {} thresholds and {} leaf_values rows".format(
                    feature.size, n_split, threshold.size, leaf_values.shape[0]))
        self.feature = feature
        self.threshold = threshold
        self.children_left = np.where(split, 2 * rank - 1, -1)
        self.children_right = self.children_left + split
        self.leaf_id = np.where(split, -1, np.arange(split.size) - rank)
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
        """X (dense or sparse) as a C-contiguous dense float64 array, after
        checking that it is a matrix of this tree's width with only finite
        values.  A C-contiguous float64 X is returned as it is."""
        X = to_dense(X)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                "X has shape {}, tree expects (n, {})".format(
                    X.shape, self.n_features
                )
            )
        check_finite(X, "X contains non-finite values")
        return np.ascontiguousarray(X)

    def apply(self, X, *, checked=False):
        """Leaf index reached by every row of X (dense or sparse).  Rows of
        the wrong width or with a non-finite value are rejected.

        With ``checked`` the caller passes an X that :meth:`check_rows`
        returned, so a forest checks its input once for all trees.

        Every row takes one step per depth, all rows at once, through a
        table built per call: entry ``2 * node + 1`` is the node a row at
        ``node`` moves to when its value exceeds the threshold, entry
        ``2 * node`` the one it moves to otherwise, and a leaf steps to
        itself.  A row reads its value as ``Xflat[row * p + feature]``; on a
        leaf (feature < 0) that index is clipped into range and the value
        is ignored.  Routing stops once no row is on a split node.  For the
        finite values checked here, "x > threshold goes right" is exactly
        "x <= threshold goes left".  A tree is shallower than its node
        count, so that many steps take every row to its leaf.
        """
        if not checked:
            X = self.check_rows(X)
        n, p = X.shape
        split = self.feature >= 0
        step = np.where(split, np.stack([self.children_left, self.children_right]),
                        np.arange(split.size)).T.ravel()
        Xflat = X.ravel()
        row_start = np.arange(0, n * p, p)
        node = np.zeros(n, dtype=np.int64)
        for _ in range(split.size):
            f = self.feature.take(node)
            if not n or f.max() < 0:
                break
            x = Xflat.take(row_start + f, mode="clip")
            node = step.take(2 * node + (x > self.threshold.take(node)))
        return self.leaf_id.take(node)

    def predict(self, X, *, checked=False):
        """Leaf vector (length d) for every row of X, as an (n, d) array;
        ``checked`` as in :meth:`apply`."""
        return self.leaf_values[self.apply(X, checked=checked)]

    def to_dict(self):
        """Plain-serializable document; see README for the schema."""
        return {"format": self.FORMAT, "version": self.VERSION, "n_features": self.n_features,
                **{name: getattr(self, name).tolist() for name in _DOC_ARRAYS}}

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict) or doc.get("format") != cls.FORMAT:
            raise ValueError("not a serialized tree document")
        if doc.get("version") != cls.VERSION:
            raise ValueError(
                "unsupported tree document version: {!r}".format(doc.get("version"))
            )
        check_document(doc, "tree document", ("n_features", *_DOC_ARRAYS),
                       ("format", "version", "n_features", *_DOC_ARRAYS))
        check_integer("tree document: n_features", doc["n_features"], 1)
        tree = cls(n_features=doc["n_features"], **{
            name: _doc_numbers(doc, name, kinds) for name, kinds in _DOC_ARRAYS.items()})
        # What the constructor leaves to a document: a leaf without a count
        # of at least one sample, a split feature X has no column for, and
        # a non-finite threshold or leaf value, which would route or
        # predict silently wrong.
        if tree.leaf_counts.shape != (tree.n_leaves,) or (tree.leaf_counts < 1).any():
            raise ValueError("tree document: leaf_counts must hold a count of at "
                             "least 1 per leaf_values row")
        if (tree.feature >= tree.n_features).any():
            raise ValueError("tree document: a split feature is out of range")
        check_finite(tree.threshold, "tree document: a threshold is not finite")
        check_finite(tree.leaf_values, "tree document: a leaf value is not finite")
        return tree


def _doc_numbers(doc, name, kinds):
    """Field ``name`` of a tree document as an int64 (``kinds`` "i") or
    float64 ("if") array, from a list (a list of equal-length rows for
    ``leaf_values``).  A field of another shape, or holding a string, a
    bool, or (for "i") a float or an integer outside int64, is rejected,
    naming the field, rather than converted."""
    values = doc[name]
    ndim = 2 if name == "leaf_values" else 1
    try:
        a = np.asarray(values)
    except ValueError:  # rows of different lengths
        a = None
    if a is None or a.ndim != ndim or a.dtype.kind not in kinds or any(
            bool in map(type, row) for row in (values if ndim == 2 else [values])):
        raise ValueError("tree document: {} must hold {}{}".format(
            name, "equal-length rows of " if ndim == 2 else "",
            "integers" if kinds == "i" else "numbers"))
    return a.astype(np.int64 if kinds == "i" else np.float64)


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


def grow_arrays(X, Y, Z, cfg, gen):
    """Grow one tree from raw matrices.

    The structure is fitted on the split targets ``Z``, an (n, m) matrix
    such as a projection ``project(phi, Y)`` or Y itself; leaves are labeled
    with means of the original Y rows reaching them, bootstrap multiplicities
    included.  ``X`` is (n, p), ``Y`` is (n, d) and ``Z`` is (n, m), each
    dense or CSR (X and Z are densified; dense float64 is not copied); a
    non-finite value in any of them is rejected.  Every draw comes from the
    numpy Generator ``gen``.

    With ``cfg.bootstrap`` the tree draws n rows with replacement from
    ``gen``.  The exhaustive splitter grows on the distinct rows drawn, each
    weighted by its multiplicity (a copy of their Z rows scaled in place by
    it); ``random_threshold`` grows on all n drawn rows, copies included.
    """
    n, p = X.shape
    if Y.shape[0] != n:
        raise ValueError("X and Y row counts differ")
    if Z.shape[0] != n:
        raise ValueError("X and Z row counts differ")
    if cfg.k > p:
        raise ValueError("k={} exceeds the {} available features".format(cfg.k, p))
    if n == 0:
        raise ValueError("cannot grow a tree on an empty sample")
    X = to_dense(X)
    check_finite(X, "X contains non-finite values")
    check_finite(Y, "Y contains non-finite values")
    check_finite(Z, "Z contains non-finite values")
    Z = to_dense(Z)
    min_split = max(2, cfg.n_min)

    rows = gen.integers(0, n, size=n) if cfg.bootstrap else np.arange(n, dtype=np.int64)
    multiplicity = np.bincount(rows, minlength=n)
    if cfg.splitter == "exhaustive":
        # Each distinct row once, weighted by its multiplicity.
        rows = np.flatnonzero(multiplicity)
    Xt, Zt = (X[rows], Z[rows]) if cfg.bootstrap else (X, Z)
    leaf_of_row = np.empty(n, dtype=np.int64)
    if cfg.splitter == "random_threshold":
        feature, threshold, counts = _grow_breadth_first(
            Xt, Zt, rows, min_split, cfg.k, gen, leaf_of_row)
    else:
        weight = multiplicity[rows].astype(np.float64)
        if cfg.bootstrap:
            Zt *= weight[:, None]
        feature, threshold, counts = _grow_by_depth(
            Xt, Zt, weight, rows, min_split, cfg.k, gen, leaf_of_row)
    leaf_values = _leaf_sums(Y, leaf_of_row, multiplicity, counts.size) / counts[:, None]
    return Tree(feature, threshold, leaf_values, counts, p)


def _grow_breadth_first(Xt, Zt, rows, min_split, k, gen, leaf_of_row):
    """Random-threshold growth, one node at a time in node order (breadth
    first, left to right).  Each node draws its k features with
    :func:`_draw_features`, as an exhaustive depth does, then its cuts,
    from ``gen`` when it is reached.  Returns every node's split feature
    (-1 on a leaf) and threshold, and every leaf's sample count, and sets
    ``leaf_of_row`` of the rows reaching each leaf to its leaf number."""
    p = Xt.shape[1]
    znorm2 = np.einsum("ij,ij->i", Zt, Zt)
    feature, threshold, counts = [], [], []
    queue = deque([np.arange(rows.size, dtype=np.int64)])
    while queue:
        samples = queue.popleft()
        q = samples.size
        found = None
        if q >= min_split:
            Zs = Zt[samples]
            M = Zs.sum(axis=0)
            M2 = float(M @ M)
            impurity = float(znorm2[samples].sum()) / q - M2 / (q * q)
            if impurity > PURE_NODE_TOL:
                chosen = _draw_features(gen, 1, p, k)[0]
                found = _scan_random_threshold(Xt, Zs, M, M2, samples, chosen, gen)
        if found is None:
            leaf_of_row[rows[samples]] = len(counts)
            counts.append(q)
            feature.append(-1)
            threshold.append(0.0)
            continue
        rec, left_samples, right_samples = found
        feature.append(rec.feature)
        threshold.append(rec.threshold)
        queue.extend((left_samples, right_samples))
    return (np.array(feature, dtype=np.int64), np.array(threshold),
            np.array(counts, dtype=np.int64))


def _draw_features(gen, s, p, k):
    """Sorted k-of-p feature draws for s nodes, an (s, k) array: the k
    smallest of p uniform keys per node, all drawn by one ``gen.random``
    call.  Every node drawn for holds at least two rows of the tree's X, so
    the keys take at most half its bytes."""
    chosen = np.argpartition(gen.random((s, p)), k - 1, axis=1)[:, :k]
    chosen.sort(axis=1)
    return chosen


def _grow_by_depth(Xt, Zt, weight, rows, min_split, k, gen, leaf_of_row):
    """Exhaustive growth one depth at a time, on rows of ``Xt`` and ``Zt``
    that stand for ``weight[r]`` samples each (``Zt`` scaled by it).  Each
    depth draws the features of all its splittable nodes in one call, then
    scans them together with :func:`_scan_level`, and split nodes hand
    their children, in order, to the next depth.  Returns and fills what
    :func:`_grow_breadth_first` does, in the same node order."""
    p = Xt.shape[1]
    znorm2 = np.einsum("ij,ij->i", Zt, Zt) / weight
    G = _gram(Zt)
    samples = np.arange(rows.size, dtype=np.int64)
    sizes = np.array([rows.size])
    features, thresholds, counts = [], [], []
    n_leaves = 0
    while True:
        bounds, W, M, M2 = _node_sums(Zt, weight, samples, sizes)
        impurity = np.add.reduceat(znorm2[samples], bounds[:-1]) / W - M2 / (W * W)
        # A node of one distinct row has nothing to split, whatever rounding
        # leaves of its impurity once its row is scaled by its weight.
        open_ = (sizes >= 2) & (W >= min_split) & (impurity > PURE_NODE_TOL)
        scan = np.flatnonzero(open_)
        level_feature = np.full(sizes.size, -1, dtype=np.int64)
        level_threshold = np.zeros(sizes.size)
        if scan.size:
            gain, feature, threshold, n_left, ordered = _scan_level(
                Xt, Zt, weight, samples[np.repeat(open_, sizes)], sizes[scan], W[scan],
                M[scan], M2[scan], _draw_features(gen, scan.size, p, k), G,
            )
            ok = gain > 0.0
            level_feature[scan[ok]] = feature[ok]
            level_threshold[scan[ok]] = threshold[ok]
        features.append(level_feature)
        thresholds.append(level_threshold)

        leaves = level_feature < 0
        counts.append(W[leaves].astype(np.int64))
        leaf_ids = n_leaves + np.arange(counts[-1].size)
        leaf_of_row[rows[samples[np.repeat(leaves, sizes)]]] = np.repeat(leaf_ids, sizes[leaves])
        n_leaves += leaf_ids.size
        if leaves.all():
            break
        samples = ordered[np.repeat(ok, sizes[scan])]
        n_left = n_left[ok]
        sizes = np.column_stack([n_left, sizes[scan][ok] - n_left]).ravel()
    return np.concatenate(features), np.concatenate(thresholds), np.concatenate(counts)
