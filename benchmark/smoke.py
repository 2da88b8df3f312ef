"""Smoke run of the benchmark at tiny sizes; finishes in seconds.

    python3 benchmark/smoke.py

Runs every workload untraced and traced, so every output check runs on real
library outputs, and shows that each check reports a deliberately broken
output and that a vanished entry point is reported as missing.  Exits 0 when
all of that holds.
"""

import os
import sys

import run  # sets the BLAS thread count before numpy is imported

sys.path.insert(0, run.SRC)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import projforest.ensemble as ensemble  # noqa: E402
from workloads import SIZES, WORKLOADS, _Untimed  # noqa: E402


def run_workloads(out_dir):
    for name in WORKLOADS:
        result, details = run.run(name, seed=3, seconds=0.1, trace=0, size="tiny",
                                  out_dir=out_dir)
        assert result["correct"], details["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 2 * 5
        assert set(result["metrics"]) == set(run.END_TO_END_UNITS), name
        assert all(m["value"] > 0 for m in result["metrics"].values()), result
        result, details = run.run(name, seed=3, seconds=0.1, trace=1, size="tiny",
                                  out_dir=out_dir)
        assert result["correct"], details["problems"]
        expected = set(run.PER_LAYER_UNITS)
        assert set(result["metrics"]) == expected, (name, expected ^ set(result["metrics"]))
        times = [k for k, m in result["metrics"].items()
                 if m["unit"] in ("s", "us", "MB/s", "ratio") and k != "trace.overhead_s"]
        assert all(result["metrics"][k]["value"] > 0 for k in times), (name, result)
        assert details["missing"] == []
        assert os.path.exists(os.path.join(out_dir, "spans-{}-3.json".format(name)))
        print("smoke: {} ok".format(name))


def broken_outputs_are_reported(out_dir):
    rng = np.random.default_rng(0)
    Y = (rng.random((20, 6)) < 0.3).astype(float)
    Y[:, 0] = 1.0
    scores = rng.random((20, 6))
    rows = np.arange(20)
    ref = checks.literal_lrap(scores, Y)
    assert checks.check_lrap(ref, scores, Y, rows, "x") == []
    assert checks.check_lrap(ref + 1e-9, scores, Y, rows, "x")
    # Every row ranks its one relevant label first, or exactly last.
    eye = np.eye(4)
    assert checks.literal_lrap(eye, eye) == 1.0
    assert checks.literal_lrap(1.0 - eye, eye) == 0.25

    wl = WORKLOADS["wide_labels"](3, SIZES["tiny"]["wide_labels"], out_dir)
    wl.setup()
    wl.cleanup()
    ens = ensemble.fit(wl.train, wl.config(2))
    P = ens.predict(wl.Xq_dense)
    rows = np.arange(5)
    assert checks.check_predictions(ens, P, wl.Xq_dense, rows, True, "x") == []
    bad = P.copy()
    bad[2, 1] += 1e-6
    assert checks.check_predictions(ens, bad, wl.Xq_dense, rows, True, "x")
    assert checks.check_predictions(ens, P + 1.5, wl.Xq_dense, rows, False, "x")
    assert checks.check_identical(P, bad, "x") and not checks.check_identical(P, P.copy(), "x")
    n = wl.size["n_train"]
    assert checks.check_trees(ens, n, "x") == []
    assert checks.check_trees(ens, n + 1, "x")
    tree = ens.trees[0]
    saved = tree.children_left.copy()
    tree.children_left[0] = tree.feature.size
    assert checks.check_trees(ens, n, "x")
    tree.children_left[:] = saved
    tree.leaf_values[0, 0] += 0.5 / tree.leaf_counts[0]
    assert checks.check_trees(ens, n, "x")

    report = wl.harness(_Untimed())
    assert wl.check_estimates({"harness": report}) == []
    est = report.estimates
    est["additivity_gap"] = est["additivity_gap"] + 1e-6
    est["residual_variance"] = est["residual_variance"] * (1.0 + 1e-9)
    assert len(wl.check_estimates({"harness": report})) == 2

    counts = spans.tree_counts(tree)
    assert counts["nodes"] == counts["leaves"] * 2 - 1
    assert counts["scan_rows"] >= n

    # A round that fits twice at m=1 (1 s of growth each) and once at m=d
    # (3 s) grows three times as long per m=d fit.
    timeline = [("op.fit_m1", 0.0, 1.5, 0.25), ("op.fit_m1", 2.0, 3.5, 2.25),
                ("op.fit_md", 4.0, 8.0, 4.5)]
    records = []
    for op, start, end, grow_start in timeline:
        grow_end = grow_start + (3.0 if op == "op.fit_md" else 1.0)
        top = {"id": len(records), "parent": None, "name": op, "start": start, "end": end}
        records += [top, {"id": len(records) + 1, "parent": top["id"], "name": "tree.grow",
                          "start": grow_start, "end": grow_end, "tree": tree}]
    layers = spans.layer_metrics(records, 0, "op.fit_m1", "op.fit_md")
    assert layers["tree.md_over_m1"] == 3.0, layers["tree.md_over_m1"]

    # A side operation's fit counts towards the decomposition layer only.
    records = [dict(r, tree=tree) if r["name"] == "tree.grow" else dict(r) for r in records]
    base = len(records)
    records += [
        {"id": base, "parent": None, "name": "op.harness", "start": 9.0, "end": 10.0},
        {"id": base + 1, "parent": base, "name": "decomposition.estimate",
         "start": 9.0, "end": 10.0},
        {"id": base + 2, "parent": base + 1, "name": "ensemble.fit", "start": 9.1, "end": 9.9},
        {"id": base + 3, "parent": base + 2, "name": "tree.grow", "start": 9.2, "end": 9.7,
         "tree": tree},
    ]
    layers = spans.layer_metrics(records, 0, "op.fit_m1", "op.fit_md", ["op.harness"])
    assert layers["tree.grow_s"] == 5.0 and layers["tree.nodes"] == 3 * counts["nodes"], layers
    assert "ensemble.fit_other_s" not in layers, layers
    assert layers["decomposition.fits"] == 1, layers
    assert abs(layers["decomposition.self_s"] - 0.2) < 1e-12, layers
    print("smoke: checks report broken outputs")


def failed_round_is_incorrect(out_dir):
    cls = WORKLOADS["wide_labels"]
    saved = cls.round
    cls.round = lambda self, clock: clock.op("fit", lambda: 1 / 0)
    try:
        result, details = run.run("wide_labels", seed=3, seconds=0.1, trace=0,
                                  size="tiny", out_dir=out_dir)
    finally:
        cls.round = saved
    assert not result["correct"] and result["failed"] == result["attempted"] >= 2, result
    assert details["problems"][0].startswith("round 0 raised ZeroDivisionError")
    print("smoke: a round that raises makes the run incorrect")


def missing_entry_point_is_reported(out_dir):
    # The workloads never build a pca map, so the run itself needs no
    # pca_projection; only the tracer notices that the name is gone.
    saved = ensemble.pca_projection
    del ensemble.pca_projection
    try:
        result, details = run.run("wide_labels", seed=3, seconds=0.1, trace=1,
                                  size="tiny", out_dir=out_dir)
    finally:
        ensemble.pca_projection = saved
    assert result["correct"], details["problems"]
    assert details["missing"] == ["projforest.ensemble.pca_projection"], details["missing"]
    assert not hasattr(ensemble.fit, "__wrapped__")
    print("smoke: a vanished entry point is reported missing")


def main():
    out_dir = os.path.join(run.OUT_DIR, "smoke")
    run_workloads(out_dir)
    broken_outputs_are_reported(out_dir)
    failed_round_is_incorrect(out_dir)
    missing_entry_point_is_reported(out_dir)
    print("smoke: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
