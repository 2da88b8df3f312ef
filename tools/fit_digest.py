"""Print one SHA-256 digest per fit over a fixed grid of configurations.

Each digest covers every tree of the fitted ensemble (its serialized arrays)
and the ensemble's predictions on a held-out batch given both dense and as
CSR.  Running the script against two source trees and diffing the output
shows whether a change keeps fits and predictions bit-identical:

    PYTHONPATH=src python tools/fit_digest.py > new.txt
    PYTHONPATH=../other-checkout/src python tools/fit_digest.py > old.txt
    diff old.txt new.txt

The narrow grid (10 labels, m=3) crosses every policy (and the PCA map
under both projecting policies) with both splitters, bootstrap on and off,
and dense and CSR training features.  The wide grid (40 labels) fits the
exhaustive splitter at a split width of 16 and 40, where BLAS takes a
different kernel than at m=3 and results can change in the last bits when
the row count or stride of a product changes.  It takes a few seconds.
"""

import hashlib
import itertools
import json

import numpy as np
import scipy.sparse as sp

from projforest import (
    DataSet,
    EnsembleConfig,
    ProjectionSpec,
    TreeConfig,
    fit,
    make_synthetic_multilabel,
)

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


def sparse_features(n, p, d, seed):
    """Clustered data whose features are about half zeros, so CSR storage
    holds a real sparsity pattern."""
    ds = make_synthetic_multilabel(n, p, d, n_clusters=6, seed=seed)
    X = np.array(ds.X)
    X[X < 0.0] = 0.0
    return X, ds.Y


def digest(ensemble, query):
    """SHA-256 over every tree's arrays and the predictions on ``query``
    given dense and as CSR."""
    h = hashlib.sha256()
    for tree in ensemble.trees:
        h.update(json.dumps(tree.to_dict(), sort_keys=True).encode())
    h.update(ensemble.predict(query).tobytes())
    h.update(ensemble.predict(sp.csr_matrix(query)).tobytes())
    return h.hexdigest()


def run_grid(name, X, Y, m, k, policies, splitters):
    train_X, train_Y = X[:200], Y[:200]
    query = X[200:]
    for (policy, kind), splitter, bootstrap, storage in itertools.product(
        policies, splitters, (False, True), ("dense", "csr")
    ):
        cfg = EnsembleConfig(
            t=5,
            tree=TreeConfig(k=k, n_min=2, splitter=splitter, bootstrap=bootstrap),
            projection=None if kind is None else ProjectionSpec(kind, m),
            policy=policy,
            master_seed=17,
        )
        Xs = sp.csr_matrix(train_X) if storage == "csr" else train_X
        ensemble = fit(DataSet(Xs, train_Y), cfg)
        print(name, policy, kind, splitter,
              "bootstrap" if bootstrap else "no-bootstrap", storage,
              digest(ensemble, query))


def main():
    X, Y = sparse_features(260, 12, 10, seed=3)
    run_grid("narrow", X, Y, 3, 4, POLICIES, ("exhaustive", "random_threshold"))
    X, Y = sparse_features(260, 12, 40, seed=5)
    run_grid("wide", X, Y, 16, 8, WIDE_POLICIES, ("exhaustive",))


if __name__ == "__main__":
    main()
