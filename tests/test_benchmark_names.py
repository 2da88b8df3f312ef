"""The library names that the benchmark under ``benchmark/`` looks up still
exist, so a refactor that renames one fails here rather than in a benchmark
run."""

import importlib
import importlib.util
from pathlib import Path

import projforest.ensemble as ensemble
from projforest import EnsembleConfig, ProjectionSpec, TreeConfig, make_synthetic_multilabel

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
