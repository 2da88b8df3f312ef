"""Label Ranking Average Precision for multi-label score matrices.

For each test sample and each of its relevant labels j, the score is the
fraction of labels ranked at or above j (score >= score_j, so exact ties
count on both sides) that are themselves relevant; these fractions are
averaged over the relevant labels of a sample and then over samples.
Samples without any relevant label are discarded before averaging.
"""

import numpy as np
import scipy.sparse as sp


def _relevant_mask_rows(Y, n, d):
    """Per row, which labels are relevant: the nonzero entries, whether Y is
    dense or sparse (explicitly stored zeros are not relevant)."""
    if sp.issparse(Y):
        Yc = Y.tocsr()
        if not Yc.has_canonical_format or not Yc.data.all():
            Yc = Yc.copy()
            Yc.sum_duplicates()
            Yc.eliminate_zeros()
        for i in range(n):
            mask = np.zeros(d, dtype=bool)
            mask[Yc.indices[Yc.indptr[i] : Yc.indptr[i + 1]]] = True
            yield mask
    else:
        Yd = np.asarray(Y)
        for i in range(n):
            yield Yd[i] != 0


def lrap(scores, Y, return_retained=False):
    """Label ranking average precision of a score matrix against binary labels.

    Sorts each row once (O(d log d)) and resolves score ties by grouping, so
    it matches a literal enumeration of the definition exactly.
    Raises when every sample is empty (the metric is undefined).  With
    ``return_retained`` also reports how many samples entered the average.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n, d = scores.shape
    if Y.shape != (n, d):
        raise ValueError(
            "scores have shape {}, labels have {}".format(scores.shape, Y.shape)
        )
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    total = 0.0
    retained = 0
    for i, rel in enumerate(_relevant_mask_rows(Y, n, d)):
        n_rel = int(rel.sum())
        if n_rel == 0:
            continue
        retained += 1
        order = np.argsort(-scores[i], kind="stable")
        ss = scores[i][order]
        rel_sorted = rel[order]
        # Tie groups share one cutoff: every member of a group has the same
        # "ranked at or above" sets.
        group_end = np.nonzero(np.append(ss[1:] < ss[:-1], True))[0]
        cum_rel = np.cumsum(rel_sorted)
        rel_at_or_above = cum_rel[group_end]
        total_at_or_above = group_end + 1.0
        rel_in_group = np.diff(np.concatenate(([0], rel_at_or_above)))
        total += float(
            (rel_in_group * (rel_at_or_above / total_at_or_above)).sum() / n_rel
        )
    if retained == 0:
        raise ValueError("every sample has an empty label set; LRAP is undefined")
    value = total / retained
    if return_retained:
        return value, retained
    return value
