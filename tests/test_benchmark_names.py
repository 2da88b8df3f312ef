"""The library names that the benchmark under ``benchmark/`` looks up still
exist, so a refactor that renames one fails here rather than in a benchmark
run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import projforest.ensemble as ensemble
from projforest import (
    EnsembleConfig,
    ProjectionSpec,
    TreeConfig,
    estimate_ensemble,
    fit,
    make_synthetic_multilabel,
    two_feature_problem,
)

from test_ensemble import hand_built_forest

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def load_benchmark(name):
    """The module ``benchmark/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location("benchmark_" + name,
                                                  BENCHMARK / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_benchmark("spans")


def count_calls(monkeypatch, layer):
    """Patch the name that the benchmark's span ``layer`` wraps with a call
    counter, as its tracer does; returns the list of recorded calls."""
    (module_name, attr, cls_name), = [
        entry[1:] for entry in load_spans().ENTRY_POINTS if entry[0] == layer
    ]
    owner = importlib.import_module(module_name)
    if cls_name is not None:
        owner = getattr(owner, cls_name)
    original = getattr(owner, attr)
    calls = []

    def counter(*args, **kwargs):
        calls.append(layer)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counter)
    return calls


def test_every_entry_point_resolves():
    for layer, module_name, attr, cls_name in load_spans().ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        assert callable(getattr(owner, attr, None)), (layer, module_name, cls_name, attr)


def test_fit_arrays_returns_an_ensemble_and_its_timing():
    ds = make_synthetic_multilabel(40, 3, 5, seed=1)
    cfg = EnsembleConfig(t=2, tree=TreeConfig(k=2), projection=ProjectionSpec("gaussian", 2))
    result = ensemble._fit_arrays(ds.X_rows(), ds.Y_rows(), cfg, 0, 0)
    assert len(result) == 2
    assert isinstance(result[0], ensemble.Ensemble)
    assert isinstance(result[1], ensemble.FitTiming)


def test_forest_predict_calls_tree_predict_once_per_tree(monkeypatch):
    ds = make_synthetic_multilabel(40, 3, 5, seed=1)
    cfg = EnsembleConfig(t=3, tree=TreeConfig(k=2), projection=ProjectionSpec("gaussian", 2))
    forest = fit(ds, cfg)
    calls = count_calls(monkeypatch, "tree.predict")
    forest.predict(ds.X_rows())
    assert len(calls) == 3


def test_fits_grow_every_tree_through_the_traced_name(monkeypatch):
    calls = count_calls(monkeypatch, "tree.grow")
    ds = make_synthetic_multilabel(40, 3, 5, seed=1)
    for policy in ("shared_subspace", "per_tree_subspace", "no_projection"):
        spec = None if policy == "no_projection" else ProjectionSpec("gaussian", 2)
        cfg = EnsembleConfig(t=3, tree=TreeConfig(k=2), policy=policy, projection=spec)
        del calls[:]
        fit(ds, cfg)
        assert len(calls) == 3, policy
    cfg = EnsembleConfig(t=2, tree=TreeConfig(k=2, n_min=10),
                         projection=ProjectionSpec("gaussian", 1))
    del calls[:]
    estimate_ensemble(two_feature_problem(n_train=30), cfg, n_ls=2, n_phi=2, n_eps=3)
    assert len(calls) == 2 * 2 * 2 * 3  # t trees per fit, n_ls * n_phi * n_eps fits


def fitted_forest():
    ds = make_synthetic_multilabel(40, 3, 5, seed=1)
    cfg = EnsembleConfig(t=3, tree=TreeConfig(k=2), projection=ProjectionSpec("gaussian", 2))
    return fit(ds, cfg), ds


def test_benchmark_checks_read_fitted_and_hand_built_trees():
    checks, spans = load_benchmark("checks"), load_spans()
    forest, ds = fitted_forest()
    X = ds.X_rows()
    assert checks.check_trees(forest, ds.n_samples, "fit") == []
    np.testing.assert_array_equal(checks.walk_predict(forest, X), forest.predict(X))
    hand_built = hand_built_forest()
    for tree in hand_built.trees:
        alone = ensemble.Ensemble([tree], config=None)
        assert checks.check_trees(alone, int(tree.leaf_counts.sum()), "hand-built",
                                  binary_labels=False) == []
    X = np.random.default_rng(5).normal(scale=3.0, size=(50, hand_built.trees[0].n_features))
    np.testing.assert_array_equal(checks.walk_predict(hand_built, X), hand_built.predict(X))
    for tree in forest.trees + hand_built.trees:
        counts = spans.tree_counts(tree)
        assert counts["nodes"] == 2 * counts["leaves"] - 1


def test_benchmark_tree_check_sees_an_in_place_write():
    checks = load_benchmark("checks")
    forest, ds = fitted_forest()
    tree = forest.trees[0]
    assert tree.feature[0] >= 0
    tree.children_left[0] = tree.feature.size
    assert checks.check_trees(forest, ds.n_samples, "fit")
