"""Spans recorded around the library's entry points, and the per-layer
metrics derived from them.

The tracer wraps names from outside the library: module attributes that the
library's own modules look up at call time (``projforest.ensemble.generate``
is the name ``_fit_arrays`` calls) and methods on the public classes.  Spans
are kept in memory and written out once the run ends.  A span's self time is
its duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.
"""

import contextlib
import functools
import importlib
import json
import time

import numpy as np

# (layer name, module path, attribute, class name or None).  The attribute is
# looked up on the module, or on the class inside the module.
ENTRY_POINTS = (
    ("datasets.load", "projforest.datasets", "load_svmlight_multilabel", None),
    ("ensemble.fit", "projforest.ensemble", "fit", None),
    ("ensemble.fit", "projforest.decomposition", "_fit_arrays", None),
    ("projection.generate", "projforest.ensemble", "generate", None),
    ("projection.project", "projforest.ensemble", "project", None),
    ("projection.pca", "projforest.ensemble", "pca_projection", None),
    ("tree.grow", "projforest.ensemble", "grow_arrays", None),
    ("ensemble.predict", "projforest.ensemble", "predict", "Ensemble"),
    ("tree.predict", "projforest.tree", "predict", "Tree"),
    ("metrics.lrap", "projforest.metrics", "lrap", None),
    ("decomposition.estimate", "projforest.decomposition", "estimate_ensemble", None),
)

PROJECTION_LAYERS = ("projection.generate", "projection.project", "projection.pca")


class Tracer:
    """In-memory span recorder that patches the entry points while active."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._patched = []
        self._round = None
        self._clock0 = time.perf_counter()

    def start_round(self, index):
        """Patch every entry point; spans recorded from now on carry ``index``."""
        self._round = index
        self.missing = []
        for layer, module_name, attr, cls_name in ENTRY_POINTS:
            try:
                owner = importlib.import_module(module_name)
                if cls_name is not None:
                    owner = getattr(owner, cls_name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(".".join(filter(None, (module_name, cls_name, attr))))
                continue
            setattr(owner, attr, self._wrapper(layer, original))
            self._patched.append((owner, attr, original))

    def end_round(self):
        """Restore every patched name."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []
        self._round = None

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the body; yields its record."""
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "round": self._round,
            "name": name,
        }
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = time.perf_counter() - self._clock0
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._clock0
            self._stack.pop()

    def _wrapper(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer) as record:
                result = fn(*args, **kwargs)
            if layer == "tree.grow":
                record["tree"] = result  # counted, then dropped, by layer_metrics
            return result

        return wrapper

    def write(self, path):
        """Spans as JSON."""
        keep = ("id", "parent", "round", "name", "start", "end")
        doc = {
            "missing": self.missing,
            "spans": [{k: s[k] for k in keep} for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def tree_counts(tree):
    """Nodes, leaves, depth and scan rows of one fitted tree, from its arrays.

    Scan rows are the sum over internal nodes of the samples they held,
    bootstrap multiplicities included: every leaf's count is scanned once at
    each of its ancestors, so the total is sum(leaf count * leaf depth).
    """
    feature = tree.feature
    depth = np.zeros(feature.size, dtype=np.int64)
    for node in np.flatnonzero(feature >= 0):  # children have larger ids
        depth[tree.children_left[node]] = depth[node] + 1
        depth[tree.children_right[node]] = depth[node] + 1
    leaves = np.flatnonzero(feature < 0)
    counts = tree.leaf_counts[tree.leaf_id[leaves]]
    return {
        "nodes": int(feature.size),
        "leaves": int(leaves.size),
        "max_depth": int(depth.max()),
        "scan_rows": int((counts * depth[leaves]).sum()),
    }


def _durations(spans):
    dur = {}
    child = {}
    for s in spans:
        dur[s["id"]] = s["end"] - s["start"]
        child.setdefault(s["id"], 0.0)
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    return dur, {i: dur[i] - child.get(i, 0.0) for i in dur}


def _op_of(spans):
    """The top-level span (a benchmark operation) above each span."""
    by_id = {s["id"]: s for s in spans}
    top = {}
    for s in spans:
        node = s
        while node["parent"] is not None:
            node = by_id[node["parent"]]
        top[s["id"]] = node
    return top


def _grow_per_op(grows, dur, op, op_name):
    """Growth time under the operations named ``op_name``, per operation."""
    under = [s for s in grows if op[s["id"]]["name"] == op_name]
    n_ops = len({op[s["id"]]["id"] for s in under})
    return sum(dur[s["id"]] for s in under) / n_ops if n_ops else 0.0


def layer_metrics(spans, load_bytes, m1_op, md_op, side_ops=()):
    """Per-layer metrics of one traced round.

    ``load_bytes`` is the size of the file each load reads; ``m1_op`` and
    ``md_op`` name the benchmark operations that fit at m=1 and m=d.  A round
    may run these a different number of times, so ``tree.md_over_m1`` compares
    growth time per operation.  Spans under the operations named in
    ``side_ops`` count only towards the ``decomposition.*`` metrics.  Layers
    with no span in the round are left out.
    """
    dur, self_s = _durations(spans)
    op = _op_of(spans)
    names = {}
    all_names = {}
    for s in spans:
        all_names.setdefault(s["name"], []).append(s)
        if op[s["id"]]["name"] not in side_ops:
            names.setdefault(s["name"], []).append(s)

    def total(name, measure):
        return sum(measure[s["id"]] for s in names.get(name, ()))

    out = {}
    if "datasets.load" in names:
        load_s = total("datasets.load", dur)
        out["datasets.load_s"] = load_s
        out["datasets.load_mb_per_s"] = len(names["datasets.load"]) * load_bytes / 1e6 / load_s
    proj = [s for layer in PROJECTION_LAYERS for s in names.get(layer, ())]
    if proj:
        out["projection.s"] = sum(dur[s["id"]] for s in proj)
        out["projection.calls"] = len(proj)
    trees = {s["id"]: s.pop("tree") for s in all_names.get("tree.grow", ())}
    grows = names.get("tree.grow", ())
    if grows:
        counts = [tree_counts(trees[s["id"]]) for s in grows]
        grow_s = total("tree.grow", dur)
        nodes = sum(c["nodes"] for c in counts)
        out["tree.grow_s"] = grow_s
        out["tree.grow_us_per_node"] = grow_s / nodes * 1e6
        grow_m1 = _grow_per_op(grows, dur, op, m1_op)
        grow_md = _grow_per_op(grows, dur, op, md_op)
        if grow_m1 > 0 and grow_md > 0:
            out["tree.md_over_m1"] = grow_md / grow_m1
        out["tree.nodes"] = nodes
        out["tree.leaves"] = sum(c["leaves"] for c in counts)
        out["tree.max_depth"] = max(c["max_depth"] for c in counts)
        out["tree.scan_rows"] = sum(c["scan_rows"] for c in counts)
    if "ensemble.fit" in names:
        out["ensemble.fit_other_s"] = total("ensemble.fit", self_s)
    if "tree.predict" in names:
        out["tree.predict_s"] = total("tree.predict", dur)
    if "ensemble.predict" in names:
        out["ensemble.predict_self_s"] = total("ensemble.predict", self_s)
    if "metrics.lrap" in names:
        out["metrics.lrap_s"] = total("metrics.lrap", dur)
    if "decomposition.estimate" in all_names:
        estimates = all_names["decomposition.estimate"]
        out["decomposition.self_s"] = sum(self_s[s["id"]] for s in estimates)
        estimate_ids = {s["id"] for s in estimates}
        out["decomposition.fits"] = sum(
            1 for s in all_names.get("ensemble.fit", ()) if s["parent"] in estimate_ids
        )
    return out
