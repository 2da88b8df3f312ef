"""Random linear maps that compress label vectors before split scoring.

A projection is a plain (m, d) matrix, a dense ndarray or (for the
``identity`` and ``identity_subsample`` maps) a CSR matrix, that maps
d-dimensional label vectors to m dimensions.  Split scores computed on the
compressed vectors approximate the original scores whenever the map
approximately preserves pairwise squared distances of the training outputs
(the Johnson-Lindenstrauss regime), which is what :func:`distortion_check`
measures.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import check_finite, check_integer, to_dense

KINDS = (
    "gaussian",
    "rademacher",
    "hadamard_subsample",
    "identity_subsample",
    "pca",
    "identity",
)


@dataclass(frozen=True)
class ProjectionSpec:
    """Generator parameters for a projection matrix.

    ``m`` is the target dimension.  ``s`` only applies to ``rademacher``:
    entries are drawn from {-sqrt(s/m), 0, +sqrt(s/m)} with probabilities
    {1/(2s), 1 - 1/s, 1/(2s)}, so 1/s is the expected fraction of nonzeros
    per entry and must lie in (0, 1].  ``s`` must be a finite real number
    (not a bool) whatever the kind.
    """

    kind: str
    m: int
    s: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown projection kind: {!r}".format(self.kind))
        check_integer("m", self.m, 1)
        s = self.s
        if isinstance(s, (bool, np.bool_)) or not isinstance(s, numbers.Real) \
                or not math.isfinite(s):
            raise ValueError("s must be a finite real number, got {!r}".format(s))
        if self.kind == "rademacher" and not s >= 1.0:
            raise ValueError("rademacher sparsity s must satisfy 1/s in (0, 1]")


def _sylvester_rows(row_ids, n_cols):
    """Rows of the order-N Sylvester Hadamard matrix, truncated to n_cols.

    Entry (r, c) is (-1)**popcount(r & c).  Only the requested rows are
    materialized, so a few rows of a large matrix stay cheap.
    """
    r = np.asarray(row_ids, dtype=np.uint64).reshape(-1, 1)
    c = np.arange(n_cols, dtype=np.uint64).reshape(1, -1)
    v = r & c
    # XOR-fold to the lowest bit: parity of the popcount.
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> np.uint64(shift)
    parity = (v & np.uint64(1)).astype(np.int64)
    return 1.0 - 2.0 * parity


def generate(spec, d, gen):
    """Realize an (m, d) projection matrix of the requested kind: a dense
    ndarray, or a CSR matrix for ``identity`` and ``identity_subsample``.

    Entries are drawn from the numpy Generator ``gen``, so a map is
    deterministic under a fixed stream.  ``hadamard_subsample`` and
    ``identity_subsample`` sample rows without replacement and therefore
    require m <= d.  ``pca`` is data-dependent and must be built with
    :func:`pca_projection` instead.
    """
    m = spec.m
    if d < 1:
        raise ValueError("output dimension d must be >= 1")

    if spec.kind == "gaussian":
        return gen.standard_normal((m, d)) / math.sqrt(m)

    if spec.kind == "rademacher":
        s = float(spec.s)
        u = gen.random((m, d))
        scale = math.sqrt(s / m)
        return np.where(u < 0.5 / s, -scale, np.where(u >= 1.0 - 0.5 / s, scale, 0.0))

    if spec.kind == "hadamard_subsample":
        if m > d:
            raise ValueError("hadamard_subsample requires m <= d")
        order = 1 << max(0, (d - 1).bit_length())
        rows = gen.choice(order, size=m, replace=False)
        return _sylvester_rows(rows, d) / math.sqrt(m)

    if spec.kind == "identity_subsample":
        if m > d:
            raise ValueError("identity_subsample requires m <= d")
        cols = gen.choice(d, size=m, replace=False)
        return sp.csr_matrix(
            (np.ones(m), (np.arange(m), cols)), shape=(m, d), dtype=np.float64
        )

    if spec.kind == "identity":
        if m != d:
            raise ValueError("identity projection requires m == d")
        return sp.identity(d, dtype=np.float64, format="csr")

    if spec.kind == "pca":
        raise ValueError("pca projections are data-dependent; use pca_projection")

    raise ValueError("unknown projection kind: {!r}".format(spec.kind))


def project(phi, Y):
    """Apply the map row-wise: returns the dense n x m matrix with rows Phi @ y_i.

    ``Y`` may be sparse (the usual case for labels) or dense; sparsity is
    exploited, so the cost is proportional to nnz(Y) * m for dense maps.
    A non-finite value in ``Y`` is rejected.
    """
    if Y.shape[1] != phi.shape[1]:
        raise ValueError("Y has {} columns but projection expects {}".format(
            Y.shape[1], phi.shape[1]))
    check_finite(Y, "Y contains non-finite values")
    return to_dense(Y @ phi.T)


def jl_min_dimension(epsilon, n):
    """Smallest projection dimension ceil(8 * ln(n) / epsilon^2), floored at 1.

    At or above this dimension a random map preserves all pairwise squared
    distances of n points within a (1 +- epsilon) factor with good probability.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if n < 2:
        raise ValueError("need at least two points")
    return max(1, math.ceil(8.0 * math.log(n) / (epsilon * epsilon)))


def pca_projection(Y, m):
    """Top-m principal directions of the centered label matrix, as the (m, d)
    array of components.

    Rows are ordered by decreasing eigenvalue of the (population) covariance.
    Deterministic: exact eigenvalue ties are broken by the lowest index of the
    largest-magnitude coordinate, and each row is signed so its
    largest-magnitude coordinate is positive.  A non-finite value in ``Y``
    is rejected.
    """
    n, d = Y.shape
    check_finite(Y, "Y contains non-finite values")
    if d > 5000:
        raise ValueError("pca_projection is intended for d <= 5000")
    if m > min(n, d):
        raise ValueError("m must be <= min(n_samples, n_labels) for pca")
    Yd = to_dense(Y)
    mean = Yd.mean(axis=0)
    centered = Yd - mean
    cov = centered.T @ centered / n
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending
    comps = eigvecs.T[::-1]
    eigvals = eigvals[::-1]
    anchors = np.argmax(np.abs(comps), axis=1)
    # Stable order: decreasing eigenvalue, then lowest anchor coordinate.
    order = np.lexsort((anchors, -eigvals))
    comps = comps[order][:m].copy()
    anchors = anchors[order][:m]
    signs = np.sign(comps[np.arange(m), anchors])
    signs[signs == 0] = 1.0
    comps *= signs[:, None]
    return comps


@dataclass
class DistortionReport:
    """Outcome of the exhaustive pairwise distance-preservation check."""

    violations: int
    pairs: int
    max_ratio_error: float


def distortion_check(phi, Y, epsilon):
    """Check (1-eps) <= |Phi yi - Phi yj|^2 / |yi - yj|^2 <= (1+eps) for all pairs.

    Every pair of distinct rows is tested; pairs at zero original distance are
    skipped (both bounds are trivially tight there).  Returns the number of
    violating pairs, the number of pairs checked, and the largest |ratio - 1|.
    """
    n = Y.shape[0]
    if n < 2:
        raise ValueError("need at least two rows")
    Yd = to_dense(Y)
    Z = project(phi, Y)

    def _pair_sq_dists(A):
        sq = np.einsum("ij,ij->i", A, A)
        D = sq[:, None] + sq[None, :] - 2.0 * (A @ A.T)
        iu = np.triu_indices(n, k=1)
        return np.maximum(D[iu], 0.0)

    d_orig = _pair_sq_dists(Yd)
    d_proj = _pair_sq_dists(Z)
    nonzero = d_orig > 0.0
    ratios = d_proj[nonzero] / d_orig[nonzero]
    pairs = int(nonzero.sum())
    if pairs == 0:
        return DistortionReport(0, 0, 0.0)
    bad = (ratios < 1.0 - epsilon) | (ratios > 1.0 + epsilon)
    return DistortionReport(int(bad.sum()), pairs, float(np.abs(ratios - 1.0).max()))
