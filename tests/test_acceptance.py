"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
of every criterion.  Criterion 5 needs real benchmark datasets on disk (see
the README: set PROJFOREST_DATA or place files under ./data) and is skipped
when they are absent.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from projforest import (
    EnsembleConfig,
    ExperimentConfig,
    ProjectionSpec,
    SplitPlan,
    TreeConfig,
    distortion_check,
    ensemble_variance_curve,
    estimate_ensemble,
    fit,
    fit_timed,
    generate,
    jl_min_dimension,
    load_svmlight_multilabel,
    lrap,
    make_splits,
    make_synthetic_multilabel,
    project,
    run_grid,
    stream,
    two_feature_problem,
    variance_sum,
    write_grid_csv,
)
from projforest.bench import CSV_COLUMNS, TIMING_COLUMNS, fit_point
from projforest.tree import grow_arrays

from support import (
    lrap_oracle,
    pattern_label_matrix,
    trees_equal,
    variance_sum_pairwise,
)


def _verdict(number, name, ok, detail=""):
    print("ACCEPTANCE {} {}: {} {}".format(number, name, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion {} ({}) failed: {}".format(number, name, detail)


def test_criterion_1_variance_identity():
    """Centered and pairwise variance forms agree to 1e-10 relative."""
    start = time.perf_counter()
    gen = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        n = int(gen.integers(1, 31))
        d = int(gen.integers(1, 21))
        Y = gen.standard_normal((n, d)) * gen.uniform(0.1, 5.0)
        a = variance_sum(Y)
        b = variance_sum_pairwise(Y)
        worst = max(worst, abs(a - b) / max(1.0, b))
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "variance identity",
        worst <= 1e-10 and elapsed < 5.0,
        "max rel diff {:.2e} in {:.1f}s".format(worst, elapsed),
    )


def test_criterion_2_variance_transfer():
    """Distance preservation implies variance preservation, trial by trial."""
    start = time.perf_counter()
    eps = 0.5
    n, d = 50, 500
    m = jl_min_dimension(eps, n)
    assert m == 126
    premise_held = 0
    implication_violations = 0
    for trial in range(100):
        Y = pattern_label_matrix(n, d, 12, 8, stream(0, 2 * trial))
        phi = generate(ProjectionSpec("gaussian", m), d, stream(0, 2 * trial + 1))
        report = distortion_check(phi, Y, eps)
        if report.violations == 0:
            premise_held += 1
            vo = variance_sum(Y)
            vp = variance_sum(project(phi, Y))
            tol = 1e-12 * vo
            if not ((1 - eps) * vo - tol <= vp <= (1 + eps) * vo + tol):
                implication_violations += 1
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        "variance transfer",
        implication_violations == 0 and premise_held >= 95 and elapsed < 60.0,
        "premise {}/100, implication violations {}, {:.1f}s".format(
            premise_held, implication_violations, elapsed
        ),
    )


def test_criterion_3_identity_equivalence():
    """Identity-map and no-projection paths build bit-identical models."""
    start = time.perf_counter()
    ok = True
    for trial in range(20):
        ds = make_synthetic_multilabel(
            60, 5, 8, n_clusters=4 + trial % 3, seed=300 + trial
        )
        tree_cfg = TreeConfig(k=2, n_min=2, bootstrap=True)
        phi = generate(ProjectionSpec("identity", 8), 8, stream(trial, 0))
        a = grow_arrays(ds.X, ds.Y, project(phi, ds.Y), tree_cfg, stream(trial, 1))
        b = grow_arrays(ds.X, ds.Y, ds.Y, tree_cfg, stream(trial, 1))
        ok = ok and trees_equal(a, b)

        shared = fit(
            ds,
            EnsembleConfig(
                t=3,
                tree=tree_cfg,
                projection=ProjectionSpec("identity", 8),
                policy="shared_subspace",
                master_seed=trial,
            ),
        )
        plain = fit(
            ds,
            EnsembleConfig(
                t=3, tree=tree_cfg, projection=None,
                policy="no_projection", master_seed=trial,
            ),
        )
        ok = ok and all(
            trees_equal(ta, tb) for ta, tb in zip(shared.trees, plain.trees)
        )
        X = ds.X_rows()
        ok = ok and np.array_equal(shared.predict(X), plain.predict(X))
    elapsed = time.perf_counter() - start
    _verdict(3, "identity equivalence", ok and elapsed < 30.0,
             "20 datasets in {:.1f}s".format(elapsed))


def test_criterion_4_lrap_oracle():
    """Grouped LRAP equals literal enumeration, ties included."""
    start = time.perf_counter()
    gen = np.random.default_rng(104)
    worst = 0.0
    for _ in range(200):
        n = int(gen.integers(1, 25))
        d = int(gen.integers(2, 12))
        scores = gen.choice([0.0, 0.2, 0.4, 0.6, 0.8], size=(n, d))
        Y = (gen.random((n, d)) < 0.35).astype(float)
        if not Y.any():
            Y[0, 0] = 1.0
        worst = max(worst, abs(lrap(scores, Y) - lrap_oracle(scores, Y)))
    worked = lrap(np.array([[0.8, 0.9, 0.7]]), np.array([[1.0, 0.0, 1.0]]))
    elapsed = time.perf_counter() - start
    _verdict(
        4,
        "lrap oracle equivalence",
        worst <= 1e-12 and abs(worked - 7.0 / 12.0) <= 1e-12 and elapsed < 10.0,
        "max |diff| {:.2e}, worked example {:.12f}, {:.1f}s".format(
            worst, worked, elapsed
        ),
    )


def _find_dataset(name):
    candidates = []
    env = os.environ.get("PROJFOREST_DATA")
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    for directory in candidates:
        for suffix in (".svm", ".svm.gz", ".txt"):
            path = directory / (name + suffix)
            if path.exists():
                return path
    return None


# The plain forest of criterion 5 as a grid point: k = sqrt(p), 100 fully
# grown exhaustive trees on bootstrap samples.
FOREST_POINT = {"m": "d", "k": "sqrt_p", "t": "100", "n_min": "1", "policy": "no_projection",
                "kind": "gaussian", "splitter": "exhaustive", "bootstrap": "true", "s": "1"}


def _mean_lrap(ds, plan, point):
    """Mean and std over the plan's repeats of the test LRAP of the grid
    ``point``, each repeat fitted as a grid run with seed 1 fits it."""
    values = [fit_point(point, train, test, 1, repeat)[1]["lrap"]
              for repeat, (train, test) in enumerate(make_splits(ds, plan))]
    return float(np.mean(values)), float(np.std(values))


def test_criterion_5_benchmark_reproduction():
    """Mean LRAP on emotions/yeast matches the published desk-scale numbers."""
    emotions_path = _find_dataset("emotions")
    yeast_path = _find_dataset("yeast")
    if emotions_path is None or yeast_path is None:
        pytest.skip(
            "benchmark files not found: place emotions.svm and yeast.svm under "
            "./data or $PROJFOREST_DATA (see README for the format)"
        )
    start = time.perf_counter()

    emotions = load_svmlight_multilabel(emotions_path)
    plan = SplitPlan("shuffled_repeats", n_train=391, n_test=202, count=10, seed=5)
    em_plain, em_std = _mean_lrap(emotions, plan, FOREST_POINT)
    # A gaussian map at m = d, drawn afresh for every tree.
    em_proj, _ = _mean_lrap(emotions, plan, dict(FOREST_POINT, policy="per_tree_subspace"))

    yeast = load_svmlight_multilabel(yeast_path)
    plan_y = SplitPlan("shuffled_repeats", n_train=1500, n_test=917, count=10, seed=5)
    ye_plain, ye_std = _mean_lrap(yeast, plan_y, FOREST_POINT)

    elapsed = time.perf_counter() - start
    ok = (
        abs(em_plain - 0.800) <= 0.03
        and abs(ye_plain - 0.759) <= 0.03
        and abs(em_proj - 0.810) <= 0.03
        and elapsed < 600.0
    )
    _verdict(
        5,
        "benchmark reproduction",
        ok,
        "emotions {:.3f}+-{:.3f} (target 0.800), yeast {:.3f}+-{:.3f} (target 0.759), "
        "emotions m=d {:.3f} (target 0.810), {:.0f}s".format(
            em_plain, em_std, ye_plain, ye_std, em_proj, elapsed
        ),
    )


def _decomposition_cfg(policy, t):
    return EnsembleConfig(
        t=t,
        tree=TreeConfig(k=2, n_min=25, splitter="random_threshold", bootstrap=False),
        projection=ProjectionSpec("gaussian", 1),
        policy=policy,
    )


def test_criterion_6_algorithm_ordering():
    """Per-tree subspaces are no worse than a shared one; terms add up."""
    start = time.perf_counter()
    problem = two_feature_problem(n_train=100, noise_sd=0.1)
    counts = dict(n_ls=30, n_phi=20, n_eps=20)
    shared = estimate_ensemble(problem, _decomposition_cfg("shared_subspace", 10),
                               seed=601, **counts)
    per_tree = estimate_ensemble(problem, _decomposition_cfg("per_tree_subspace", 10),
                                 seed=602, **counts)

    err_shared = shared.mean_estimate["total_direct"]
    err_per = per_tree.mean_estimate["total_direct"]
    se_order = float(np.hypot(shared.mean_se["total_direct"],
                              per_tree.mean_se["total_direct"]))
    ordering_ok = err_per <= err_shared + 3.0 * se_order

    additivity_ok = True
    for report in (shared, per_tree):
        gap = abs(report.mean_estimate["additivity_gap"])
        se_gap = report.mean_se["additivity_gap"]
        scale = max(1.0, report.mean_estimate["total_direct"])
        additivity_ok = additivity_ok and gap <= max(3.0 * se_gap, 1e-12 * scale)

    elapsed = time.perf_counter() - start
    _verdict(
        6,
        "algorithm ordering",
        ordering_ok and additivity_ok and elapsed < 600.0,
        "err per-tree {:.4f} vs shared {:.4f} (se {:.4f}), {:.0f}s".format(
            err_per, err_shared, se_order, elapsed
        ),
    )


def test_criterion_7_one_over_t_variance():
    """Per-tree-subspace ensemble variance follows a + b/t."""
    start = time.perf_counter()
    problem = two_feature_problem(n_train=100, noise_sd=0.1)
    curve = ensemble_variance_curve(
        problem,
        lambda t: _decomposition_cfg("per_tree_subspace", t),
        [1, 2, 5, 10, 25],
        reps=300,
        seed=701,
    )
    elapsed = time.perf_counter() - start
    _verdict(
        7,
        "1/t variance law",
        curve.r_squared >= 0.95,
        "R^2 {:.4f}, variances {} in {:.0f}s".format(
            curve.r_squared, np.round(curve.variances, 5).tolist(), elapsed
        ),
    )


def test_criterion_8_timing_direction():
    """Slim projections cut growth time; projecting itself is negligible."""
    ds = make_synthetic_multilabel(
        2000, 50, 1000, n_clusters=32, labels_per_cluster=12, seed=801
    )

    def timing_for(m):
        cfg = EnsembleConfig(
            t=2,
            tree=TreeConfig(k=7, n_min=1, splitter="exhaustive", bootstrap=True),
            projection=ProjectionSpec("gaussian", m),
            policy="per_tree_subspace",
            master_seed=8,
        )
        return fit_timed(ds, cfg)[1]

    slim = timing_for(1)
    mid = timing_for(7)  # nearest integer to ln(1000)
    wide = timing_for(1000)
    ratio = wide.grow_seconds / slim.grow_seconds
    share = mid.generate_project_seconds / mid.grow_seconds
    _verdict(
        8,
        "timing direction",
        ratio >= 3.0 and share < 0.05,
        "grow m=d/m=1 ratio {:.1f}, projection share at m=7 {:.3%}".format(
            ratio, share
        ),
    )


def test_criterion_9_grid_determinism(tmp_path):
    """Repeated grid runs byte-reproduce every non-timing CSV column."""
    ds = make_synthetic_multilabel(80, 6, 10, n_clusters=6, seed=901)
    cfg = ExperimentConfig(
        data="<in-memory>",
        plan=SplitPlan("shuffled_repeats", n_train=50, n_test=30, count=3, seed=2),
        grid={"m": ["1", "ln_d", "d"], "t": ["3"], "policy": ["per_tree_subspace"]},
        seed=9,
    )
    paths = []
    for run in range(2):
        rows = run_grid(cfg, ds=ds)
        path = tmp_path / "run{}.csv".format(run)
        write_grid_csv(rows, path)
        paths.append(path)

    def strip_timing(path):
        out = []
        for line in path.read_text().splitlines():
            if line.startswith("#") or line.startswith(CSV_COLUMNS[0] + ","):
                out.append(line)
                continue
            cells = line.split(",")
            for column in TIMING_COLUMNS:
                cells[CSV_COLUMNS.index(column)] = "-"
            out.append(",".join(cells))
        return out

    same = strip_timing(paths[0]) == strip_timing(paths[1])
    _verdict(9, "grid determinism", same,
             "{} lines compared".format(len(strip_timing(paths[0]))))
