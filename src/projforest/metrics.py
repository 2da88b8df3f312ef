"""Label Ranking Average Precision for multi-label score matrices.

For each test sample and each of its relevant labels j, the score is the
fraction of labels ranked at or above j (score >= score_j, so exact ties
count on both sides) that are themselves relevant; these fractions are
averaged over the relevant labels of a sample and then over samples.
Samples without any relevant label are discarded before averaging.

Rows are scored in chunks of at most ``LRAP_CHUNK`` (row, label) entries,
each in one vectorized pass with no per-row Python step, so memory stays
bounded at any n.  A chunk costs one value sort per row; everything else
touches only the relevant labels, O(nnz log d) for nnz of them.
"""

import numpy as np
import scipy.sparse as sp

from .data import check_finite

# Most (row, label) entries scored in one vectorized pass.
LRAP_CHUNK = 1 << 18


def _relevant(Y, a, b):
    """Row (counted from ``a``) and label of every relevant entry of rows
    a:b of a dense or CSR ``Y``, in (row, label) order.

    A CSR entry is relevant when its stored duplicates sum to a nonzero
    value.  Duplicates are summed in stored order, as ``toarray`` adds them,
    into new arrays; the caller's matrix is only read.
    """
    if not sp.issparse(Y):
        return np.nonzero(Y[a:b])
    d = Y.shape[1]
    lo, hi = Y.indptr[a], Y.indptr[b]
    row = np.repeat(np.arange(b - a), np.diff(Y.indptr[a:b + 1]))
    key = row * d + Y.indices[lo:hi]
    value = Y.data[lo:hi]
    if np.any(key[1:] <= key[:-1]):
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        summed = np.zeros(np.count_nonzero(first), dtype=value.dtype)
        np.add.at(summed, np.cumsum(first) - 1, value[order])
        key, value = key[first], summed
    return np.divmod(key[value != 0], d)


def _chunk_precisions(S, row, label):
    """Per row of a chunk: the summed precision at its relevant labels and
    their count.

    ``S`` is an (r, d) score block and ``row``, ``label`` its relevant
    entries in (row, label) order.  Each row's scores are sorted (values
    only), and a bisection over its own sorted row gives every relevant
    score s the count ``below`` of scores strictly less than s, so d - below
    labels are ranked at or above it.  Sorting the keys ``row * d + below``
    puts the relevant entries in (row, score) order; equal scores share a
    key, and the relevant labels ranked at or above an entry are those from
    its key group's start to its row's end in that order.  Each precision is
    an integer over an integer, and they are added per row in ascending
    score order, as a stable sort of each row visits them (tied entries
    hold equal precisions, so their order cannot change the sum).
    """
    r, d = S.shape
    ranked = np.sort(S, axis=1).ravel()
    s = S[row, label]
    base = row * d - 1
    below = np.zeros(len(row), dtype=np.int64)
    step = 1 << (d.bit_length() - 1)
    while step:
        probe = below + step
        below += step * ((probe <= d) & (ranked[base + np.minimum(probe, d)] < s))
        step >>= 1
    key = np.sort(row * d + below)
    row, below = np.divmod(key, d)
    new_group = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new_group[1:])
    start = np.maximum.accumulate(np.where(new_group, np.arange(len(key)), 0))
    count = np.bincount(row, minlength=r)
    precision = (np.cumsum(count)[row] - start) / (d - below)
    return np.bincount(row, weights=precision, minlength=r), count


def lrap(scores, Y, return_retained=False):
    """Label ranking average precision of a score matrix against labels.

    ``scores`` is a dense (n, d) matrix of finite values; ``Y`` is an (n, d)
    numeric dense or sparse matrix of finite values whose nonzero entries are
    the relevant labels (a sparse matrix's duplicate entries are summed and
    its stored zeros are not relevant).  Rows are scored in chunks of at most
    ``LRAP_CHUNK`` entries, each with one value sort per row and exact tie
    groups, so the value matches a literal enumeration of the definition up
    to the rounding of the final sums.  Raises when every sample is empty
    (the metric is undefined).  With ``return_retained`` also reports how
    many samples entered the average.
    """
    if sp.issparse(scores):
        raise ValueError("scores must be a dense matrix, got a sparse one")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(
            "scores must be a 2-D (n, d) matrix, got shape {}".format(scores.shape)
        )
    n, d = scores.shape
    sparse = sp.issparse(Y)
    if not sparse:
        Y = np.asarray(Y)
        if Y.dtype.kind not in "biufc":
            raise ValueError("labels must be numeric, got dtype {}".format(Y.dtype))
    if Y.shape != (n, d):
        raise ValueError(
            "scores have shape {}, labels have {}".format(scores.shape, Y.shape)
        )
    check_finite(scores, "scores must be finite")
    if sparse:
        Y = Y.tocsr()
    check_finite(Y, "labels must be finite")
    total = 0.0
    retained = 0
    step = max(1, LRAP_CHUNK // max(d, 1))
    # Without labels no row has a relevant one, so none is scored.
    for a in range(0, n if d else 0, step):
        b = min(n, a + step)
        sums, n_rel = _chunk_precisions(scores[a:b], *_relevant(Y, a, b))
        kept = n_rel > 0
        total += float((sums[kept] / n_rel[kept]).sum())
        retained += int(np.count_nonzero(kept))
    if retained == 0:
        raise ValueError("every sample has an empty label set; LRAP is undefined")
    value = total / retained
    if return_retained:
        return value, retained
    return value
