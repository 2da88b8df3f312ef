"""Print one SHA-256 digest per fit over a fixed grid of configurations.

Each digest covers every tree of the fitted ensemble (the arrays that
routing and prediction read: ``feature``, ``threshold``, both children
arrays, ``leaf_id``, ``leaf_values``, ``leaf_counts`` and ``n_features``) and
the ensemble's predictions on a held-out batch given both dense and as CSR.  Running the script against two source trees and diffing the output
shows whether a change keeps fits and predictions bit-identical:

    PYTHONPATH=src python tools/fit_digest.py > new.txt
    PYTHONPATH=../other-checkout/src python tools/fit_digest.py > old.txt
    diff old.txt new.txt

The narrow grid (10 labels, m=3) crosses every policy (and the PCA map
under both projecting policies) with both splitters, bootstrap on and off,
and dense and CSR training features; its subsampling maps (rows of a
Hadamard matrix, a dense map, and a subset of the labels, a CSR one) are
fitted per tree with the exhaustive splitter only.  The wide grid (40
labels) fits the exhaustive splitter at a split width of 16 and 40, where
BLAS takes a different kernel than at m=3 and results can change in the
last bits when the row count or stride of a product changes.  Its
``wide-m64`` lines fit a gaussian map at m=64, so that, like ``no_projection`` at m=40 and unlike
m=16, the scan's prefix sums run slab by slab under a projection too (k=8
features times m outputs reach ``tree.SLAB_RECURRENCE_MIN``).  The ``yeast``
line fits a yeast-shaped set (1000 bootstrap rows, 103 features, 14 labels,
k=10, m=3, t=2), whose deep levels hold many nodes in one scan chunk.
The ``predict-layouts`` line digests one fit's predictions on the same rows
given C-ordered, Fortran-ordered, as a strided column view and as CSR.

The real-valued grid fits on continuous outputs (negative values and zeros
included), given dense and as CSR, with both splitters and bootstrap on and
off.  Binary labels make every leaf sum an exact integer in any order, so
only this grid shows a change in the order in which leaf sums are added.
The ``real-wide`` lines fit continuous outputs (40 wide, dense and CSR)
under a sparse rademacher map at s = sqrt(d), m=16, so that a change in
how the projection adds its terms shows.
The ``gram`` lines fit 120 rows on 120 outputs, binary labels and
continuous ones, each given dense and as CSR, with no projection and with a
gaussian map at m = d, bootstrap on and off: every tree holds no more
distinct rows than outputs, so the exhaustive scan scores its splits from
the Gram matrix of its split targets.
The ``tall`` lines fit one tree on 1100 rows and 1000 labels at m = 1000,
with no projection and with a gaussian map: with more distinct rows than
outputs the scan takes its prefix sums slab by slab, and a node of more than
65 rows one feature at a time.
The decomposition lines digest ``estimate_ensemble`` estimates for a shared
and a per-tree subspace config, as the Monte Carlo harness runs them, and for
single trees (t=1) with no projection and with an identity map, under both
splitters; the ``decomposition variance curve`` line digests an
``ensemble_variance_curve`` over two ensemble sizes.  The ``io`` lines digest the bytes ``dump_svmlight_multilabel``
writes for a yeast-shaped set (103 features, 14 labels), plain, gzipped and
without a header, and the CSR arrays ``load_svmlight_multilabel`` reads back
from each file and from a hand-written one (CRLF and lone CR newlines,
comments, blank lines, explicit zeros, unlabeled and label-only rows).  A
gzipped file is digested decompressed, since its header holds the time of
writing.  The ``cli`` lines run the command line on a written file: the trees
``projforest fit`` saves for a holdout config, the non-timing columns of a
2-point ``projforest grid`` and a small ``projforest decompose`` report.
The ``lrap`` lines print ``float.hex`` of ``lrap`` on a d = 1000 block with
about three distinct scores per row, as a forest's predictions on wide labels
have (labels as CSR, and again with ``LRAP_CHUNK`` set to d and to 2d), on
the same block against non-canonical CSR labels (split duplicates, stored
zeros, pairs that cancel, unsorted labels) and against dense labels, and on
continuous scores with no ties.  The script takes a few seconds.
"""

import contextlib
import gzip
import hashlib
import io
import itertools
import math
import os
import tempfile

import numpy as np
import scipy.sparse as sp

from projforest import (
    DataSet,
    Ensemble,
    EnsembleConfig,
    ProjectionSpec,
    TreeConfig,
    dump_svmlight_multilabel,
    ensemble_variance_curve,
    estimate_ensemble,
    fit,
    load_svmlight_multilabel,
    lrap,
    make_synthetic_multilabel,
    metrics,
    two_feature_problem,
)
from projforest.bench import CSV_COLUMNS, TIMING_COLUMNS
from projforest.cli import main as cli_main
from projforest.decomposition import TERMS
from projforest.ensemble import _fit_arrays

POLICIES = (
    ("shared_subspace", "gaussian"),
    ("shared_subspace", "pca"),
    ("per_tree_subspace", "gaussian"),
    ("per_tree_subspace", "rademacher"),
    ("per_tree_subspace", "pca"),
    ("no_projection", None),
)

WIDE_POLICIES = (
    ("per_tree_subspace", "gaussian"),
    ("no_projection", None),
)

SUBSAMPLE_POLICIES = (
    ("per_tree_subspace", "hadamard_subsample"),
    ("per_tree_subspace", "identity_subsample"),
)


def sparse_features(n, p, d, seed):
    """Clustered data whose features are about half zeros, so CSR storage
    holds a real sparsity pattern."""
    ds = make_synthetic_multilabel(n, p, d, n_clusters=6, seed=seed)
    X = np.array(ds.X)
    X[X < 0.0] = 0.0
    return X, ds.Y


TREE_ARRAYS = ("feature", "threshold", "children_left", "children_right",
               "leaf_id", "leaf_values", "leaf_counts")


def digest(ensemble, query):
    """SHA-256 over every tree's routing and leaf arrays and the predictions
    on ``query`` given dense and as CSR."""
    h = hashlib.sha256()
    for tree in ensemble.trees:
        for name in TREE_ARRAYS:
            a = getattr(tree, name)
            h.update(repr((name, a.shape, a.dtype.str)).encode())
            h.update(a.tobytes())
        h.update(repr(("n_features", tree.n_features)).encode())
    h.update(ensemble.predict(query).tobytes())
    h.update(ensemble.predict(sp.csr_matrix(query)).tobytes())
    return h.hexdigest()


def grid_config(policy, kind, m, k, splitter, bootstrap):
    return EnsembleConfig(
        t=5,
        tree=TreeConfig(k=k, n_min=2, splitter=splitter, bootstrap=bootstrap),
        projection=None if kind is None else ProjectionSpec(kind, m),
        policy=policy,
        master_seed=17,
    )


def run_grid(name, X, Y, m, k, policies, splitters):
    train_X, train_Y = X[:200], Y[:200]
    query = X[200:]
    for (policy, kind), splitter, bootstrap, storage in itertools.product(
        policies, splitters, (False, True), ("dense", "csr")
    ):
        cfg = grid_config(policy, kind, m, k, splitter, bootstrap)
        Xs = sp.csr_matrix(train_X) if storage == "csr" else train_X
        ensemble = fit(DataSet(Xs, train_Y), cfg)
        print(name, policy, kind, splitter,
              "bootstrap" if bootstrap else "no-bootstrap", storage,
              digest(ensemble, query))


def run_real_grid(X, Y, m, k):
    """Continuous outputs, with the training outputs given dense and as CSR
    (``DataSet`` holds binary labels only, so this fits on raw matrices)."""
    train_X, train_Y = X[:200], Y[:200]
    query = X[200:]
    for (policy, kind), splitter, bootstrap, storage in itertools.product(
        WIDE_POLICIES, ("exhaustive", "random_threshold"), (False, True),
        ("dense", "csr")
    ):
        cfg = grid_config(policy, kind, m, k, splitter, bootstrap)
        Ys = sp.csr_matrix(train_Y) if storage == "csr" else train_Y
        ensemble, _ = _fit_arrays(train_X, Ys, cfg, cfg.master_seed, cfg.master_seed)
        print("real", policy, kind, splitter,
              "bootstrap" if bootstrap else "no-bootstrap", storage,
              digest(ensemble, query))


def real_outputs(X, d, seed):
    """Continuous outputs of mixed sign from X, about a third of them zero."""
    gen = np.random.default_rng(seed)
    Y = X @ gen.standard_normal((X.shape[1], d)) + gen.standard_normal((X.shape[0], d))
    Y[gen.random(Y.shape) < 0.33] = 0.0
    return Y


def run_rademacher(X, Y):
    """Continuous outputs under a sparse rademacher map (s = sqrt(d)), with
    the training outputs given dense and as CSR, so that a change in the
    order in which the projection adds its terms shows."""
    train_X, train_Y = X[:200], Y[:200]
    query = X[200:]
    cfg = EnsembleConfig(
        t=5,
        tree=TreeConfig(k=8, n_min=2),
        projection=ProjectionSpec("rademacher", 16, s=math.sqrt(Y.shape[1])),
        policy="per_tree_subspace",
        master_seed=17,
    )
    for storage in ("dense", "csr"):
        Ys = sp.csr_matrix(train_Y) if storage == "csr" else train_Y
        ensemble, _ = _fit_arrays(train_X, Ys, cfg, cfg.master_seed, cfg.master_seed)
        print("real-wide per_tree_subspace rademacher-sqrt_d exhaustive no-bootstrap",
              storage, digest(ensemble, query))


def run_gram(X, Y):
    """Exhaustive fits whose trees hold no more distinct rows than outputs."""
    train_X, query = X[:120], X[120:]
    for (outputs, train_Y), (policy, kind), bootstrap, storage in itertools.product(
        (("binary", Y[:120]), ("real", real_outputs(X, Y.shape[1], seed=23)[:120])),
        WIDE_POLICIES, (False, True), ("dense", "csr")
    ):
        cfg = grid_config(policy, kind, Y.shape[1], 4, "exhaustive", bootstrap)
        Ys = sp.csr_matrix(train_Y) if storage == "csr" else train_Y
        ensemble, _ = _fit_arrays(train_X, Ys, cfg, cfg.master_seed, cfg.master_seed)
        print("gram", outputs, policy, kind, "exhaustive",
              "bootstrap" if bootstrap else "no-bootstrap", storage,
              digest(ensemble, query))


def run_tall():
    """Exhaustive single-tree fits with more distinct rows than outputs at
    m = d = 1000, with no projection and with a gaussian map: their nodes
    take prefix sums slab by slab, a feature at a time once a node's
    (k, q, m) block outgrows ``tree.SCAN_BLOCK_BYTES``."""
    X, Y = sparse_features(1200, 12, 1000, seed=27)
    train_X, train_Y = X[:1100], Y[:1100]
    for policy, kind in WIDE_POLICIES:
        cfg = EnsembleConfig(
            t=1,
            tree=TreeConfig(k=2, n_min=2),
            projection=None if kind is None else ProjectionSpec(kind, 1000),
            policy=policy,
            master_seed=17,
        )
        ensemble = fit(DataSet(train_X, train_Y), cfg)
        print("tall", policy, kind, "exhaustive no-bootstrap", digest(ensemble, X[1100:]))


def run_yeast():
    """A yeast-shaped exhaustive fit, digested over a 200-row query batch."""
    ds = make_synthetic_multilabel(1200, 103, 14, n_clusters=32, labels_per_cluster=4,
                                   noise=1.0, flip=0.005, seed=19)
    cfg = EnsembleConfig(
        t=2,
        tree=TreeConfig(k=10, splitter="exhaustive", bootstrap=True),
        projection=ProjectionSpec("gaussian", 3),
        policy="per_tree_subspace",
        master_seed=17,
    )
    ensemble = fit(ds.row_slice(np.arange(1000)), cfg)
    query = np.asarray(ds.X)[1000:]
    print("yeast per_tree_subspace gaussian exhaustive bootstrap", digest(ensemble, query))


def run_predict_layouts():
    """One fit's predictions on the same rows given C-ordered,
    Fortran-ordered, as a strided column view of a wider array and as CSR,
    digested together."""
    X, Y = sparse_features(260, 12, 10, seed=25)
    cfg = grid_config("per_tree_subspace", "gaussian", 3, 4, "exhaustive", True)
    ensemble = fit(DataSet(X[:200], Y[:200]), cfg)
    query = X[200:]
    wide = np.zeros((query.shape[0], 2 * query.shape[1]))
    wide[:, ::2] = query
    h = hashlib.sha256()
    for rows in (query, np.asfortranarray(query), wide[:, ::2], sp.csr_matrix(query)):
        h.update(ensemble.predict(rows).tobytes())
    print("predict-layouts C F strided csr", h.hexdigest())


def report_digest(report):
    """SHA-256 over the estimates and standard errors of every term."""
    h = hashlib.sha256()
    for term in TERMS:
        h.update(report.estimates[term].tobytes())
        h.update(report.se[term].tobytes())
    return h.hexdigest()


def run_decomposition():
    """One digest of the estimates per ensemble policy, then single-tree
    estimates with no projection and with an identity map, per splitter."""
    problem = two_feature_problem(n_train=60, noise_sd=0.1)
    for policy in ("shared_subspace", "per_tree_subspace"):
        cfg = EnsembleConfig(
            t=4,
            tree=TreeConfig(k=2, n_min=10, splitter="random_threshold"),
            projection=ProjectionSpec("gaussian", 1),
            policy=policy,
        )
        report = estimate_ensemble(problem, cfg, n_ls=3, n_phi=3, n_eps=3, seed=23)
        print("decomposition", policy, report_digest(report))
    for (policy, kind), splitter in itertools.product(
        (("no_projection", None), ("per_tree_subspace", "identity")),
        ("exhaustive", "random_threshold"),
    ):
        cfg = EnsembleConfig(
            t=1,
            tree=TreeConfig(k=2, n_min=10, splitter=splitter),
            projection=None if kind is None else ProjectionSpec(kind, 2),
            policy=policy,
        )
        report = estimate_ensemble(problem, cfg, n_ls=3, n_phi=3, n_eps=3, seed=29)
        print("decomposition t=1", policy, kind, splitter, report_digest(report))
    curve = ensemble_variance_curve(
        problem,
        lambda t: EnsembleConfig(
            t=t,
            tree=TreeConfig(k=2, n_min=10, splitter="random_threshold"),
            projection=ProjectionSpec("gaussian", 1),
            policy="per_tree_subspace",
        ),
        [1, 3],
        reps=4,
        seed=31,
    )
    h = hashlib.sha256(curve.t_values.tobytes() + curve.variances.tobytes())
    h.update(repr((curve.intercept, curve.slope, curve.r_squared)).encode())
    print("decomposition variance curve", h.hexdigest())


HANDWRITTEN = (
    b"# a hand-written file\r\n#d=5 #p=6\r\n"
    b"0,3 1:1.5 2:0 4:-0.0 6:2.5e-3\r\n"
    b"\r\n"
    b" 2:-7 3:.5 5:1E+2\r"
    b"4,4,1\n"
    b"2\t1:5e-324 3:1.7976931348623157e308\n"
    b"1 2:+3. 6:-0.125"
)


def csr_digest(ds):
    """SHA-256 over the shape, dtype and bytes of every CSR array of X and Y."""
    h = hashlib.sha256()
    for M in (ds.X, ds.Y):
        h.update(repr(M.shape).encode())
        for a in (M.data, M.indices, M.indptr):
            h.update(a.dtype.str.encode())
            h.update(a.tobytes())
    return h.hexdigest()


def run_io():
    """Digests of files written and read back, and of a hand-written file."""
    ds = make_synthetic_multilabel(300, 103, 14, n_clusters=32, labels_per_cluster=4,
                                   noise=1.0, flip=0.005, seed=11)
    with tempfile.TemporaryDirectory() as tmp:
        for name, header in (("yeast.svm", True), ("yeast.svm.gz", True),
                             ("no-header.svm", False)):
            path = os.path.join(tmp, name)
            dump_svmlight_multilabel(ds, path, header=header)
            with (gzip.open if name.endswith(".gz") else open)(path, "rb") as fh:
                print("io dump", name, hashlib.sha256(fh.read()).hexdigest())
            print("io load", name, csr_digest(load_svmlight_multilabel(path)))
        path = os.path.join(tmp, "handwritten.svm")
        with open(path, "wb") as fh:
            fh.write(HANDWRITTEN)
        print("io load handwritten.svm", csr_digest(load_svmlight_multilabel(path)))


CLI_FIT = "split = fixed_holdout\ntrain_size = 150\ntest_size = 50\nm = 3\nt = 4\nk = 4\n"
CLI_GRID = ("split = shuffled_repeats\ntrain_size = 150\ntest_size = 50\n"
            "repeats = 2\nm = 1, d\nt = 3\nk = 4\n")
CLI_DECOMPOSE = "n_ls = 3\nn_phi = 2\nn_eps = 2\nt = 3\nn_min = 20\n"


def run_cli(tmp, command, config, *extra):
    """Run one ``projforest`` command on ``config``, its output discarded."""
    path = os.path.join(tmp, command + ".cfg")
    with open(path, "w") as fh:
        fh.write(config)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main([command, "--config", path, "--seed", "5", *extra])
    if code != 0:
        raise RuntimeError("projforest {} failed".format(command))


def run_cli_lines():
    """Digests of what ``fit``, ``grid`` and ``decompose`` write."""
    ds = make_synthetic_multilabel(260, 12, 10, n_clusters=6, seed=13)
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data.svm")
        dump_svmlight_multilabel(ds, data)
        model = os.path.join(tmp, "model.json")
        run_cli(tmp, "fit", CLI_FIT, "--data", data, "--out", model)
        print("cli fit holdout", digest(Ensemble.load(model), np.asarray(ds.X)[:60]))
        rows = os.path.join(tmp, "rows.csv")
        run_cli(tmp, "grid", CLI_GRID, "--data", data, "--out", rows)
        h = hashlib.sha256()
        with open(rows) as fh:
            for line in fh:
                cells = line.rstrip("\n").split(",")
                if len(cells) == len(CSV_COLUMNS):
                    for column in TIMING_COLUMNS:
                        cells[CSV_COLUMNS.index(column)] = "-"
                h.update(",".join(cells).encode() + b"\n")
        print("cli grid 2 points", h.hexdigest())
        report = os.path.join(tmp, "report.csv")
        run_cli(tmp, "decompose", CLI_DECOMPOSE, "--out", report)
        with open(report, "rb") as fh:
            print("cli decompose", hashlib.sha256(fh.read()).hexdigest())


def messy_labels(Y, gen):
    """CSR relevance of a dense binary ``Y`` stored non-canonically: every
    relevant entry as two halves, stored zeros and pairs of entries that
    cancel among the others, each row's labels in random order."""
    i, j = np.nonzero(Y)
    zi, zj = np.nonzero(Y == 0)
    kind = gen.integers(0, 3, len(zi))
    zero, pair = kind == 1, kind == 2
    rows = np.concatenate([i, i, zi[zero], zi[pair], zi[pair]])
    cols = np.concatenate([j, j, zj[zero], zj[pair], zj[pair]])
    half = 0.5 * Y[i, j]
    data = np.concatenate([half, half, np.zeros(zero.sum()), np.ones(pair.sum()),
                           -np.ones(pair.sum())])
    order = np.lexsort((gen.random(len(rows)), rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=Y.shape[0]))])
    return sp.csr_matrix((data[order], cols[order], indptr), shape=Y.shape)


def run_lrap():
    """``float.hex`` of ``lrap`` on tied and untied scores, against CSR,
    non-canonical CSR and dense labels, and at two small chunk sizes."""
    gen = np.random.default_rng(33)
    n, d = 600, 1000
    levels = gen.random((n, 3))
    tied = levels[np.arange(n)[:, None], gen.integers(0, 3, size=(n, d))]
    Y = (gen.random((n, d)) < 0.012).astype(float)
    Y[gen.random(n) < 0.05] = 0.0  # rows with no relevant label
    print("lrap ties-d1000 csr", lrap(tied, sp.csr_matrix(Y)).hex())
    print("lrap ties-d1000 messy-csr", lrap(tied, messy_labels(Y, gen)).hex())
    print("lrap ties-d1000 dense", lrap(tied, Y).hex())
    print("lrap continuous-d1000 csr",
          lrap(gen.standard_normal((n, d)), sp.csr_matrix(Y)).hex())
    default = metrics.LRAP_CHUNK
    try:
        for chunk in (d, 2 * d):
            metrics.LRAP_CHUNK = chunk
            print("lrap ties-d1000 csr chunk", chunk, lrap(tied, sp.csr_matrix(Y)).hex())
    finally:
        metrics.LRAP_CHUNK = default


def main():
    X, Y = sparse_features(260, 12, 10, seed=3)
    run_grid("narrow", X, Y, 3, 4, POLICIES, ("exhaustive", "random_threshold"))
    run_grid("narrow", X, Y, 3, 4, SUBSAMPLE_POLICIES, ("exhaustive",))
    X, Y = sparse_features(260, 12, 40, seed=5)
    run_grid("wide", X, Y, 16, 8, WIDE_POLICIES, ("exhaustive",))
    run_grid("wide-m64", X, Y, 64, 8, WIDE_POLICIES[:1], ("exhaustive",))
    X, _ = sparse_features(260, 12, 10, seed=7)
    run_real_grid(X, real_outputs(X, 10, seed=7), 3, 4)
    X, _ = sparse_features(260, 12, 40, seed=9)
    run_rademacher(X, real_outputs(X, 40, seed=9))
    X, Y = sparse_features(180, 12, 120, seed=21)
    run_gram(X, Y.toarray())
    run_tall()
    run_yeast()
    run_predict_layouts()
    run_decomposition()
    run_io()
    run_cli_lines()
    run_lrap()


if __name__ == "__main__":
    main()
