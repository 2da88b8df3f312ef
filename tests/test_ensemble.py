import json
import os
import tempfile
import time
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from projforest import (
    DataSet,
    EnsembleConfig,
    Ensemble,
    ProjectionSpec,
    Tree,
    TreeConfig,
    fit,
    fit_timed,
    generate,
    grow_arrays,
    make_synthetic_multilabel,
    pca_projection,
    project,
    stream,
    to_dense,
)
from projforest.ensemble import _fit_arrays

from support import tree_walk, trees_equal


def small_data(seed=0, n=60, p=4, d=8):
    return make_synthetic_multilabel(n, p, d, n_clusters=5, seed=seed)


def config(policy, kind="gaussian", m=3, t=4, seed=11, **tree_kwargs):
    tree = TreeConfig(k=2, n_min=2, bootstrap=True, **tree_kwargs)
    projection = None if policy == "no_projection" else ProjectionSpec(kind, m)
    return EnsembleConfig(
        t=t, tree=tree, projection=projection, policy=policy, master_seed=seed
    )


class TestPolicies:
    def test_single_tree_policies_coincide(self):
        ds = small_data()
        a = fit(ds, config("shared_subspace", t=1))
        b = fit(ds, config("per_tree_subspace", t=1))
        assert trees_equal(a.trees[0], b.trees[0])
        X = ds.X_rows()
        np.testing.assert_array_equal(a.predict(X), b.predict(X))

    def test_no_projection_equals_shared_identity(self):
        ds = small_data(seed=1)
        a = fit(ds, config("shared_subspace", kind="identity", m=8))
        b = fit(ds, config("no_projection"))
        for ta, tb in zip(a.trees, b.trees):
            assert trees_equal(ta, tb)

    def test_per_tree_maps_are_distinct(self):
        ds = small_data(seed=2)
        cfg = config("per_tree_subspace", t=3)
        phis = [generate(cfg.projection, 8, stream(cfg.master_seed, j))
                for j in range(3)]
        mats = [to_dense(phi) for phi in phis]
        assert not np.array_equal(mats[0], mats[1])
        assert not np.array_equal(mats[0], mats[2])
        assert not np.array_equal(mats[1], mats[2])
        assert_trees_follow_seed_discipline(ds, cfg, phis)

    def test_shared_policy_stores_one_map(self):
        # Every tree is grown on the one map drawn from projection stream 0.
        ds = small_data(seed=3)
        cfg = config("shared_subspace", t=3)
        phi = generate(cfg.projection, 8, stream(cfg.master_seed, 0))
        assert_trees_follow_seed_discipline(ds, cfg, [phi] * 3)
        assert_trees_follow_seed_discipline(ds, config("no_projection", t=2), [None] * 2)

    def test_pca_policy(self):
        ds = small_data(seed=4)
        cfg = config("per_tree_subspace", kind="pca", m=2, t=2)
        phi = pca_projection(ds.Y_rows(), 2)
        assert phi.shape == (2, 8)
        ens = assert_trees_follow_seed_discipline(ds, cfg, [phi] * 2)
        preds = ens.predict(ds.X_rows())
        assert preds.shape == (60, 8)


def assert_trees_follow_seed_discipline(ds, cfg, phis):
    """Tree j of the fit equals a tree grown on map ``phis[j]`` with tree
    stream ``t + j``; returns the fitted ensemble."""
    ens = fit(ds, cfg)
    assert ens.t == len(phis)
    Y = ds.Y_rows()
    for j, (tree, phi) in enumerate(zip(ens.trees, phis)):
        Z = Y if phi is None else project(phi, Y)
        expected = grow_arrays(ds.X_rows(), Y, Z, cfg.tree,
                               stream(cfg.master_seed, cfg.t + j))
        assert trees_equal(tree, expected)
    return ens


class TestPredict:
    def test_average_matches_per_tree_oracle(self):
        ds = small_data(seed=5)
        ens = fit(ds, config("per_tree_subspace", t=3))
        X = ds.X_rows()
        acc = ens.trees[0].predict(X).copy()
        for tree in ens.trees[1:]:
            acc += tree.predict(X)
        expected = acc / 3
        assert np.abs(ens.predict(X) - expected).max() <= 1e-15

    def test_rows_checked_once_for_all_trees(self, monkeypatch):
        ds = small_data(seed=5)
        ens = fit(ds, config("per_tree_subspace", t=3))
        X = ds.X_rows()
        expected = ens.predict(X)
        calls = []
        check_rows = Tree.check_rows

        def counting(self, rows):
            calls.append(rows.shape)
            return check_rows(self, rows)

        monkeypatch.setattr(Tree, "check_rows", counting)
        for rows in (X, sp.csr_matrix(X)):
            calls.clear()
            np.testing.assert_array_equal(ens.predict(rows), expected)
            assert calls == [X.shape]
            np.testing.assert_array_equal(
                ens.trees[1].predict(to_dense(rows), checked=True),
                ens.trees[1].predict(rows),
            )

    def test_single_leaf_trees_average_global_means(self):
        ds = small_data(seed=6)
        cfg = config("per_tree_subspace", t=3)
        cfg = EnsembleConfig(
            t=3,
            tree=TreeConfig(k=1, n_min=1000, bootstrap=True),
            projection=cfg.projection,
            policy=cfg.policy,
            master_seed=cfg.master_seed,
        )
        ens = fit(ds, cfg)
        means = np.vstack([t.leaf_values[0] for t in ens.trees]).mean(axis=0)
        pred = ens.predict(ds.X_rows()[:5])
        np.testing.assert_allclose(pred, np.tile(means, (5, 1)), atol=1e-15)

    def test_predictions_within_unit_interval(self):
        ds = small_data(seed=7)
        ens = fit(ds, config("per_tree_subspace"))
        pred = ens.predict(ds.X_rows())
        assert pred.min() >= 0.0 and pred.max() <= 1.0

    def test_shape_mismatch(self):
        ds = small_data(seed=8)
        ens = fit(ds, config("no_projection"))
        for rows in (np.zeros((3, 7)), sp.csr_matrix((3, 7)), np.zeros(ens.n_features),
                     np.zeros((3, ens.n_features, 1))):
            with pytest.raises(ValueError, match="tree expects"):
                ens.predict(rows)

    def test_non_finite_rows_rejected(self):
        ds = small_data(seed=8)
        ens = fit(ds, config("no_projection"))
        for bad in (np.nan, np.inf, -np.inf):
            X = np.array(ds.X_rows()[:3])
            X[1, 0] = bad
            for rows in (X, sp.csr_matrix(X)):
                with pytest.raises(ValueError, match="non-finite"):
                    ens.predict(rows)
                with pytest.raises(ValueError, match="non-finite"):
                    ens.trees[0].apply(rows)
                with pytest.raises(ValueError, match="non-finite"):
                    ens.trees[0].predict(rows)


@lru_cache(maxsize=None)
def property_forest(seed):
    return fit(small_data(seed=20), config("per_tree_subspace", t=4, seed=seed))


def chain_tree(p, d, cuts):
    """A tree with a leaf at every depth: depth i splits on feature i % p at
    ``cuts[i]`` and goes on to the right at even depths, to the left at odd
    ones.  Leaf j predicts j in every output."""
    n = 2 * len(cuts) + 1
    feature = np.full(n, -1)
    threshold = np.zeros(n)
    node = 0
    for depth, cut in enumerate(cuts):
        # In level order the split at this depth has children 2 * depth + 1
        # (left) and 2 * depth + 2 (right).
        feature[node], threshold[node] = depth % p, cut
        node = 2 * depth + 2 if depth % 2 == 0 else 2 * depth + 1
    leaf_values = np.repeat(np.arange(len(cuts) + 1.0)[:, None], d, axis=1)
    return Tree(feature, threshold, leaf_values, np.ones(len(cuts) + 1, dtype=np.int64), p)


@lru_cache(maxsize=None)
def hand_built_forest():
    """A single-leaf tree (its rows take no step) and a six-deep chain tree,
    as wide as ``small_data``."""
    p, d = 4, 8
    single_leaf = Tree(np.array([-1]), np.zeros(1), np.full((1, d), 0.25), np.array([1]), p)
    return Ensemble([single_leaf, chain_tree(p, d, [-3.0, 3.0, -2.0, 2.0, -1.0, 1.0])],
                    config=None)


def row_layouts(X):
    """The same rows as a C-ordered, a Fortran-ordered and a strided column
    view of a wider array, and as CSR."""
    wide = np.zeros((X.shape[0], 2 * X.shape[1]))
    wide[:, ::2] = X
    return {"C": X, "F": np.asfortranarray(X), "strided": wide[:, ::2],
            "csr": sp.csr_matrix(X)}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_predict_on_csr_and_dense_rows_is_the_mean_of_tree_walks(data):
    which = data.draw(st.integers(0, 4))
    ens = hand_built_forest() if which == 4 else property_forest(which)
    # Values exactly at a threshold exercise the "<= goes left" boundary.
    cuts = sorted({float(v) for tree in ens.trees for v in tree.threshold[tree.feature >= 0]})
    value = st.floats(-6.0, 6.0) | st.sampled_from(cuts) | st.just(0.0)
    n_rows = data.draw(st.integers(0, 6))
    X = data.draw(arrays(np.float64, (n_rows, ens.n_features), elements=value))
    walks = np.array([[tree_walk(tree, x) for x in X] for tree in ens.trees])
    walks = walks.reshape(ens.t, n_rows, ens.n_outputs)
    for layout, rows in row_layouts(X).items():
        for tree, walk in zip(ens.trees, walks):
            np.testing.assert_array_equal(tree.predict(rows), walk, err_msg=layout)
        np.testing.assert_array_equal(ens.predict(rows), walks.sum(axis=0) / ens.t,
                                      err_msg=layout)


class TestDeterminism:
    def test_repeated_fit_is_bit_identical(self):
        ds = small_data(seed=9)
        cfg = config("per_tree_subspace")
        a = fit(ds, cfg)
        b = fit(ds, cfg)
        for ta, tb in zip(a.trees, b.trees):
            assert trees_equal(ta, tb)
        X = ds.X_rows()
        np.testing.assert_array_equal(a.predict(X), b.predict(X))


class TestAverageModelEquality:
    def test_policies_share_the_average_model(self):
        # Both policies average the same single-tree distribution, so their
        # mean predictions over many independent fits must agree.
        ds = small_data(seed=12, n=40, p=2, d=4)
        X_probe = ds.X_rows()[:5]
        reps = 200
        preds = {}
        for name, policy in (("shared", "shared_subspace"), ("per", "per_tree_subspace")):
            out = np.empty((reps, 5, 4))
            for r in range(reps):
                cfg = config(policy, m=1, t=3, seed=50_000 * (name == "per") + r)
                out[r] = fit(ds, cfg).predict(X_probe)
            preds[name] = out
        diff = preds["shared"].mean(axis=0) - preds["per"].mean(axis=0)
        se = np.sqrt(
            preds["shared"].var(axis=0, ddof=1) / reps
            + preds["per"].var(axis=0, ddof=1) / reps
        )
        assert (np.abs(diff) <= 3.0 * se + 1e-12).all()


class TestSaveLoad:
    def test_round_trip_preserves_predictions(self, tmp_path):
        ds = small_data(seed=13)
        ens = fit(ds, config("per_tree_subspace"))
        path = tmp_path / "model.json"
        ens.save(path)
        back = Ensemble.load(path)
        X = ds.X_rows()
        np.testing.assert_array_equal(back.predict(X), ens.predict(X))
        assert back.config == ens.config

    def test_bad_document_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            Ensemble.load(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        fit(small_data(seed=13), config("per_tree_subspace", t=2)).save(path)
        doc = json.loads(path.read_text())
        doc["version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="^unsupported ensemble document version: 2$"):
            Ensemble.load(path)

    @pytest.mark.parametrize("mutate, message", [
        (lambda doc: doc["trees"][1]["threshold"].__setitem__(0, float("nan")),
         "threshold is not finite"),
        (lambda doc: doc["trees"][0]["leaf_values"][0].__setitem__(0, float("inf")),
         "leaf value is not finite"),
        (lambda doc: doc.update(t=5), "t=5"),
        (lambda doc: doc["trees"][1].update(n_features=doc["trees"][1]["n_features"] + 1),
         "feature or label count"),
        (lambda doc: doc["trees"][1].update(
            leaf_values=[row[:-1] for row in doc["trees"][1]["leaf_values"]]),
         "feature or label count"),
        # Each document below is malformed rather than a wrong tree.
        (lambda doc: doc["tree"].pop("k"), "^ensemble document: tree has no field 'k'$"),
        (lambda doc: doc["tree"].update(depth=3),
         "^ensemble document: tree has an unknown field 'depth'$"),
        (lambda doc: doc.update(extra=1), "^ensemble document has an unknown field 'extra'$"),
        (lambda doc: doc.pop("projection"),
         "^ensemble document has no field 'projection'$"),
        (lambda doc: doc["projection"].update(seed=1),
         "^ensemble document: projection has an unknown field 'seed'$"),
        (lambda doc: doc["trees"][1].pop("n_features"),
         "^tree document has no field 'n_features'$"),
        (lambda doc: doc["trees"][0].pop("threshold"),
         "^tree document has no field 'threshold'$"),
        (lambda doc: doc["trees"].__setitem__(1, list(doc["trees"][1].values())),
         "^not a serialized tree document$"),
        (lambda doc: doc.update(tree=[2, 1]),
         "^ensemble document: tree must be a JSON object, got list$"),
        (lambda doc: doc.update(trees=2), "^ensemble document: trees must be a list$"),
        (lambda doc: doc["trees"][0]["leaf_values"][-1].pop(),
         "^tree document: leaf_values must hold equal-length rows of numbers$"),
        (lambda doc: doc["trees"][0]["leaf_counts"].__setitem__(0, 0),
         "^tree document: leaf_counts must hold a count of at least 1"),
        (lambda doc: doc["trees"][1]["leaf_counts"].__setitem__(-1, -3),
         "^tree document: leaf_counts must hold a count of at least 1"),
    ], ids=["nan-threshold", "inf-leaf-value", "t-mismatch", "n-features-mismatch",
            "label-count-mismatch", "missing-tree-k", "unknown-tree-field",
            "unknown-top-level-field", "missing-projection",
            "unknown-projection-field", "tree-without-n-features", "tree-without-threshold",
            "tree-as-list", "tree-config-as-list", "trees-as-number", "ragged-leaf-values",
            "zero-leaf-count", "negative-leaf-count"])
    def test_corrupt_model_rejected(self, tmp_path, mutate, message):
        ens = fit(small_data(seed=13), config("per_tree_subspace", t=2))
        path = tmp_path / "model.json"
        ens.save(path)
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            Ensemble.load(path)


@settings(max_examples=100, deadline=None)
@given(splitter=st.sampled_from(["exhaustive", "random_threshold"]),
       bootstrap=st.booleans(), t=st.integers(1, 3), csr=st.booleans(),
       policy=st.sampled_from(["shared_subspace", "per_tree_subspace", "no_projection"]),
       n=st.integers(5, 40), p=st.integers(1, 4), d=st.integers(1, 6),
       seed=st.integers(0, 2**16))
def test_save_load_predict_round_trip(splitter, bootstrap, t, csr, policy, n, p, d, seed):
    ds = make_synthetic_multilabel(n, p, d, n_clusters=3, seed=seed)
    X = sp.csr_matrix(ds.X) if csr else ds.X
    cfg = EnsembleConfig(
        t=t, tree=TreeConfig(k=p, n_min=2, splitter=splitter, bootstrap=bootstrap),
        projection=None if policy == "no_projection" else ProjectionSpec("gaussian", 2),
        policy=policy, master_seed=seed,
    )
    ens = fit(DataSet(X, ds.Y), cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        ens.save(path)
        back = Ensemble.load(path)
    assert back.config == ens.config
    assert back.t == t and all(trees_equal(a, b) for a, b in zip(ens.trees, back.trees))
    query = np.random.default_rng(seed).normal(scale=2.0, size=(7, p))
    for rows in (X, query, sp.csr_matrix(query)):
        np.testing.assert_array_equal(back.predict(rows), ens.predict(rows))


class TestFitTimed:
    def test_accounting_identity(self):
        ds = small_data(seed=14)
        tic = time.perf_counter()
        _, timing = fit_timed(ds, config("per_tree_subspace"))
        elapsed = time.perf_counter() - tic
        assert timing.generate_project_seconds >= 0.0
        assert timing.grow_seconds >= 0.0
        assert timing.generate_project_seconds + timing.grow_seconds <= elapsed

    def test_projection_time_scales_down_with_m(self):
        ds = make_synthetic_multilabel(300, 10, 200, n_clusters=12, seed=15)
        _, slim = fit_timed(ds, config("per_tree_subspace", m=2, t=2))
        _, wide = fit_timed(ds, config("per_tree_subspace", m=200, t=2))
        assert slim.grow_seconds < wide.grow_seconds


class TestValidation:
    def test_policy_requires_projection(self):
        with pytest.raises(ValueError):
            EnsembleConfig(t=2, tree=TreeConfig(k=1), projection=None,
                           policy="shared_subspace")

    def test_no_projection_takes_no_projection_spec(self):
        with pytest.raises(ValueError, match="^policy 'no_projection' takes no projection spec"):
            EnsembleConfig(t=2, tree=TreeConfig(k=1), projection=ProjectionSpec("gaussian", 3),
                           policy="no_projection")

    @pytest.mark.parametrize("value", ["k=3", None, {"k": 3}, 3,
                                       ProjectionSpec("gaussian", 2)])
    def test_tree_must_be_a_tree_config(self, value):
        with pytest.raises(ValueError, match="^tree must be a TreeConfig"):
            EnsembleConfig(t=2, tree=value, policy="no_projection")

    @pytest.mark.parametrize("policy", ["shared_subspace", "no_projection"])
    @pytest.mark.parametrize("value", ["gaussian", ("gaussian", 2), 2, TreeConfig(k=1)])
    def test_projection_must_be_a_projection_spec_or_none(self, policy, value):
        with pytest.raises(ValueError, match="^projection must be a ProjectionSpec"):
            EnsembleConfig(t=2, tree=TreeConfig(k=1), projection=value, policy=policy)

    def test_bad_policy(self):
        with pytest.raises(ValueError):
            EnsembleConfig(t=2, tree=TreeConfig(k=1), projection=None,
                           policy="sometimes_shared")

    @pytest.mark.parametrize("policy,kind", [
        ("shared_subspace", "gaussian"), ("per_tree_subspace", "gaussian"),
        ("per_tree_subspace", "pca"), ("no_projection", None)])
    def test_non_finite_fit_input_rejected(self, policy, kind):
        ds = make_synthetic_multilabel(60, 4, 8, seed=1)
        X = np.array(ds.X)
        Y = ds.Y.toarray()
        projection = None if kind is None else ProjectionSpec(kind, 2)
        cfg = EnsembleConfig(t=2, tree=TreeConfig(k=2), policy=policy,
                             projection=projection)
        X[3, 1] = np.nan
        with pytest.raises(ValueError, match="X contains non-finite"):
            _fit_arrays(X, Y, cfg, 0, 0)
        X[3, 1] = 0.0
        Y[5, 2] = np.inf
        for labels in (Y, sp.csr_matrix(Y)):
            with pytest.raises(ValueError, match="Y contains non-finite"):
                _fit_arrays(X, labels, cfg, 0, 0)

    @pytest.mark.parametrize("value", [0, -2, 2.5, 3.0, True, "3", None])
    def test_t_must_be_a_positive_integer(self, value):
        with pytest.raises(ValueError, match="^t must be"):
            EnsembleConfig(t=value, tree=TreeConfig(k=1), policy="no_projection")

    @pytest.mark.parametrize("value", [-1, 1.5, 1.0, True, "7", None])
    def test_master_seed_must_be_a_non_negative_integer(self, value):
        with pytest.raises(ValueError, match="^master_seed must be"):
            EnsembleConfig(t=2, tree=TreeConfig(k=1), policy="no_projection",
                           master_seed=value)

    def test_numpy_integers_accepted_and_saved(self, tmp_path):
        cfg = EnsembleConfig(t=np.int64(2), tree=TreeConfig(k=np.int32(2)),
                             projection=ProjectionSpec("gaussian", np.int64(3)),
                             master_seed=np.uint32(9))
        ensemble = fit(small_data(seed=17), cfg)
        ensemble.save(tmp_path / "model.json")
        back = Ensemble.load(tmp_path / "model.json")
        assert back.config == cfg
        assert all(trees_equal(a, b) for a, b in zip(back.trees, ensemble.trees))

    def test_identity_kind_with_wrong_m_fails_at_fit(self):
        ds = small_data(seed=16)
        with pytest.raises(ValueError):
            fit(ds, config("shared_subspace", kind="identity", m=3))
