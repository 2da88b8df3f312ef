"""Label Ranking Average Precision for multi-label score matrices.

For each test sample and each of its relevant labels j, the score is the
fraction of labels ranked at or above j (score >= score_j, so exact ties
count on both sides) that are themselves relevant; these fractions are
averaged over the relevant labels of a sample and then over samples.
Samples without any relevant label are discarded before averaging.

Rows are scored in chunks of at most ``LRAP_CHUNK`` (row, label) entries,
each in one vectorized pass with no per-row Python step, so memory stays
bounded at any n and the cost is that of one 2-D sort per chunk.
"""

import numpy as np
import scipy.sparse as sp

from .data import check_finite

# Most (row, label) entries scored in one vectorized pass.
LRAP_CHUNK = 1 << 18


def _chunk_precisions(S, R):
    """Per row of a chunk: the summed precision at its relevant labels and
    their count.

    ``S`` is an (r, d) score block and ``R`` its relevant-label mask.  Each
    row is sorted ascending (one stable 2-D argsort) and the chunk is then
    read as one flat array of r * d positions, row after row.  A tie group
    starts wherever a score differs from its left neighbour or a row begins;
    the labels ranked at or above a relevant position are exactly those from
    its group's start to its row's end, so both the total and the relevant
    count at or above follow from where the group starts and where the
    (sorted) relevant positions fall, found by ``searchsorted``.
    """
    r, d = S.shape
    order = np.argsort(S, axis=1, kind="stable")
    order += np.arange(0, r * d, d)[:, None]
    flat = order.ravel()
    Ss = S.ravel()[flat]
    rel = np.flatnonzero(R.ravel()[flat])
    new_group = np.empty(r * d, dtype=bool)
    new_group[:1] = True
    np.not_equal(Ss[1:], Ss[:-1], out=new_group[1:])
    new_group[::d] = True
    starts = np.flatnonzero(new_group)
    start = starts[np.searchsorted(starts, rel, side="right") - 1]
    row = rel // d
    end = (row + 1) * d
    rel_at_or_above = np.searchsorted(rel, end) - np.searchsorted(rel, start)
    precision = rel_at_or_above / (end - start)
    return (
        np.bincount(row, weights=precision, minlength=r),
        np.bincount(row, minlength=r),
    )


def lrap(scores, Y, return_retained=False):
    """Label ranking average precision of a score matrix against labels.

    ``scores`` is an (n, d) matrix of finite values; ``Y`` is an (n, d) dense
    or sparse matrix of finite values whose nonzero entries are the relevant
    labels (a sparse matrix's duplicate entries are summed and its stored
    zeros are not relevant).  Rows are scored in chunks of at most
    ``LRAP_CHUNK`` entries, each with one stable sort per row and exact tie
    groups, so the value matches a literal enumeration of the definition up
    to the rounding of the final sums.  Raises when every sample is empty
    (the metric is undefined).  With ``return_retained`` also reports how
    many samples entered the average.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(
            "scores must be a 2-D (n, d) matrix, got shape {}".format(scores.shape)
        )
    n, d = scores.shape
    sparse = sp.issparse(Y)
    if not sparse:
        Y = np.asarray(Y)
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
        R = (Y[a:b].toarray() if sparse else Y[a:b]) != 0
        sums, n_rel = _chunk_precisions(scores[a:b], R)
        kept = n_rel > 0
        total += float((sums[kept] / n_rel[kept]).sum())
        retained += int(np.count_nonzero(kept))
    if retained == 0:
        raise ValueError("every sample has an empty label set; LRAP is undefined")
    value = total / retained
    if return_retained:
        return value, retained
    return value
