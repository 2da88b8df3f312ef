import itertools
import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from projforest import (
    ProjectionSpec,
    TreeConfig,
    best_split_exhaustive,
    best_split_random_threshold,
    distortion_check,
    generate,
    grow_arrays,
    jl_min_dimension,
    project,
    stream,
    to_dense,
    variance_sum,
)
from projforest import tree as tree_module
from projforest.tree import Tree

from support import (
    aggregation_leaf_values,
    brute_force_best_split,
    brute_force_splits,
    node_memberships,
    pattern_label_matrix,
    tree_walk,
    trees_equal,
    variance_sum_pairwise,
)

TOY_X = np.array([[0.0], [1.0], [10.0], [11.0]])
TOY_Z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])


class TestVarianceSum:
    def test_two_point_example(self):
        rows = np.array([[0.0, 0.0], [2.0, 2.0]])
        assert variance_sum(rows) == 2.0
        # pairwise form: (1 / (2 * 4)) * (2 * |(2,2)|^2) = 16 / 8
        assert variance_sum_pairwise(rows) == 2.0

    def test_identical_rows(self):
        rows = np.tile([1.5, -2.0, 3.0], (6, 1))
        assert variance_sum(rows) == 0.0

    def test_single_row(self):
        assert variance_sum(np.array([[3.0, 4.0]])) == 0.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            variance_sum(np.empty((0, 3)))
        with pytest.raises(ValueError):
            variance_sum_pairwise(np.empty((0, 3)))

    def test_centered_equals_pairwise(self):
        gen = np.random.default_rng(0)
        for _ in range(100):
            n = int(gen.integers(1, 31))
            d = int(gen.integers(1, 21))
            Y = gen.standard_normal((n, d)) * gen.uniform(0.1, 10)
            a = variance_sum(Y)
            b = variance_sum_pairwise(Y)
            assert abs(a - b) <= 1e-10 * max(1.0, b)

    def test_scale_transfer(self):
        gen = np.random.default_rng(1)
        Y = gen.random((12, 5))
        for c in (0.5, 3.0, -2.0):
            lhs = variance_sum(c * Y)
            rhs = c * c * variance_sum(Y)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)

    def test_accepts_sparse(self):
        Y = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert variance_sum(Y) == 0.5


class TestExhaustiveSplit:
    def test_toy_example(self):
        rec = best_split_exhaustive(TOY_X, TOY_Z, np.arange(4), [0])
        assert rec.feature == 0
        assert rec.threshold == 5.5
        assert rec.impurity_reduction == 0.5

    def test_pure_node_gives_none(self):
        Z = np.ones((4, 2))
        assert best_split_exhaustive(TOY_X, Z, np.arange(4), [0]) is None

    def test_constant_feature_gives_none(self):
        X = np.ones((4, 1))
        assert best_split_exhaustive(X, TOY_Z, np.arange(4), [0]) is None

    def test_zero_gain_split_rejected(self):
        # both candidate partitions leave children with the parent's impurity
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        Z = np.array([[0.0], [1.0], [0.0], [1.0]])
        assert best_split_exhaustive(X, Z, np.arange(4), [0]) is None

    def test_matches_brute_force_enumeration(self):
        gen = np.random.default_rng(2)
        for trial in range(30):
            n = int(gen.integers(5, 40))
            p = int(gen.integers(1, 5))
            d = int(gen.integers(1, 6))
            X = gen.random((n, p))
            Z = gen.random((n, d))
            rec = best_split_exhaustive(X, Z, np.arange(n), np.arange(p))
            expected = brute_force_best_split(X, Z, np.arange(n), range(p))
            assert (rec is None) == (expected is None)
            if rec is not None:
                gain, feature, threshold = expected
                assert rec.feature == feature
                assert rec.threshold == threshold
                assert abs(rec.impurity_reduction - gain) <= 1e-10 * max(1.0, gain)

    def test_tie_breaks_to_lowest_feature_then_threshold(self):
        # two identical features realize the same splits; the first must win
        X = np.column_stack([TOY_X.ravel(), TOY_X.ravel()])
        rec = best_split_exhaustive(X, TOY_Z, np.arange(4), [0, 1])
        assert rec.feature == 0

    def test_block_size_does_not_change_the_split(self, monkeypatch):
        # Column 1 is the informative one and column 2 its copy, so with two
        # features a block the tie between them spans a block boundary.
        gen = np.random.default_rng(13)
        q, m = 30, 16
        X = gen.random((q, 5))
        X[:, 1] = np.repeat([0.0, 1.0, 2.0], 10)
        X[:, 2] = X[:, 1]
        Z = gen.random((q, m)) + X[:, [1]]
        per_feature = 8 * q * m
        records = []
        for block_bytes in (0, 2 * per_feature, 1 << 40):
            monkeypatch.setattr(tree_module, "SCAN_BLOCK_BYTES", block_bytes)
            records.append(best_split_exhaustive(X, Z, np.arange(q), range(5)))
        assert records[0].feature == 1
        assert records[1] == records[0] and records[2] == records[0]

    def test_block_size_does_not_change_the_tree(self, monkeypatch):
        gen = np.random.default_rng(14)
        X = np.floor(gen.random((60, 6)) * 4.0)
        X[:, 3] = X[:, 2]
        Y = gen.random((60, 20))
        cfg = TreeConfig(k=5, n_min=2, bootstrap=True)
        trees = []
        for block_bytes in (0, 1 << 14, 1 << 40):
            monkeypatch.setattr(tree_module, "SCAN_BLOCK_BYTES", block_bytes)
            trees.append(grow_arrays(X, Y, Y, cfg, stream(4, 0)))
        assert trees[0].n_nodes > 10
        assert trees_equal(trees[1], trees[0]) and trees_equal(trees[2], trees[0])

    def test_slab_recurrence_does_not_change_the_split(self, monkeypatch):
        # With a minimum of 1 every block sums slab by slab, with a huge one
        # every block uses np.cumsum; column 2 duplicates the informative
        # column 1, so the tie between them must still go to column 1.
        gen = np.random.default_rng(15)
        q, m = 40, 24
        X = gen.random((q, 6))
        X[:, 1] = np.repeat([0.0, 1.0, 2.0, 3.0], 10)
        X[:, 2] = X[:, 1]
        Z = gen.standard_normal((q, m)) + X[:, [1]]
        records = []
        for minimum in (1, 1 << 40):
            monkeypatch.setattr(tree_module, "SLAB_RECURRENCE_MIN", minimum)
            for block_bytes in (0, 1 << 40):
                monkeypatch.setattr(tree_module, "SCAN_BLOCK_BYTES", block_bytes)
                records.append(best_split_exhaustive(X, Z, np.arange(q), range(6)))
        assert records[0].feature == 1
        assert all(rec == records[0] for rec in records)

    def test_slab_recurrence_does_not_change_the_tree(self, monkeypatch):
        gen = np.random.default_rng(16)
        X = np.floor(gen.random((80, 6)) * 5.0)
        X[:, 4] = X[:, 1]
        Y = gen.standard_normal((80, 40))
        phi = generate(ProjectionSpec("gaussian", 64), 40, stream(5, 0))
        cfg = TreeConfig(k=5, n_min=2, bootstrap=True)
        for Z in (Y, project(phi, Y)):
            trees = []
            for minimum in (1, 1 << 40):
                monkeypatch.setattr(tree_module, "SLAB_RECURRENCE_MIN", minimum)
                trees.append(grow_arrays(X, Y, Z, cfg, stream(6, 0)))
            assert trees[0].n_nodes > 20
            assert trees_equal(trees[1], trees[0])


@st.composite
def split_problems(draw):
    """A level of 1-4 nodes over shared rows: up to 30 samples each, drawn
    from heavily tied integer features, runs of adjacent floats (where no
    midpoint lies strictly between two values) or continuous ones, with
    some columns duplicated; binary or continuous outputs up to 20 wide, or
    at least as wide as the rows are many (up to 40), where trees score
    from the Gram matrix; every node examines its own k features.  Each row
    weighs one, or 1-4 as a bootstrap multiplicity would.  Also a scan
    budget in bytes: 0 scans one feature of one node (or one row of one
    node's Gram block) at a time, the default whole nodes."""
    n = draw(st.integers(2, 30))
    p = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["ties", "adjacent", "continuous"]))
    if kind == "ties":
        value = st.integers(0, 3).map(float)
    elif kind == "adjacent":
        run = [draw(st.floats(-1e3, 1e3))]
        for _ in range(4):
            run.append(float(np.nextafter(run[-1], np.inf)))
        value = st.sampled_from(run)
    else:
        value = st.floats(-10.0, 10.0)
    X = draw(arrays(np.float64, (n, p), elements=value, fill=st.nothing()))
    for j in range(1, p):
        if draw(st.booleans()):
            X[:, j] = X[:, draw(st.integers(0, j - 1))]
    m = draw(st.integers(1, 20) | st.integers(n, 40))
    zgen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        Z = zgen.integers(0, 2, size=(n, m)).astype(np.float64)
    else:
        Z = zgen.uniform(-3.0, 3.0, size=(n, m))
    weight = np.ones(n)
    if draw(st.booleans()):
        weight = zgen.integers(1, 5, size=n).astype(np.float64)
    k = draw(st.integers(1, min(p, 8)))
    nodes = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            samples = np.arange(n)
        else:
            samples = np.array(
                draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n))
            )
        features = draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k, unique=True))
        nodes.append((samples, sorted(features)))
    budget = draw(st.sampled_from([0, 8 * m * n, tree_module.SCAN_BLOCK_BYTES]))
    return X, Z, weight, nodes, budget


def scan_level(X, Z, weight, nodes, gram):
    """Per node of ``nodes`` (a list of (samples, features)), the gain,
    feature, threshold, left entry count and sorted samples that one call
    of the level scan returns for all of them together, row r of X and Z
    weighing ``weight[r]``, scored from the Gram matrix if ``gram``."""
    sizes = np.array([samples.size for samples, _ in nodes])
    samples = np.concatenate([samples for samples, _ in nodes])
    features = np.array([features for _, features in nodes])
    Zw = Z * weight[:, None]
    bounds, W, M, M2 = tree_module._node_sums(Zw, weight, samples, sizes)
    *per_node, ordered = tree_module._scan_level(
        X, Zw, weight, samples, sizes, W, M, M2, features, Zw @ Zw.T if gram else None
    )
    return [
        tuple(a[i] for a in per_node) + (ordered[bounds[i]:bounds[i + 1]].tolist(),)
        for i in range(len(nodes))
    ]


@settings(max_examples=150, deadline=None)
@given(split_problems())
def test_exhaustive_split_matches_brute_force(problem):
    X, Z, weight, nodes, budget = problem
    levels = []
    for gram in (False, True):
        default_budget = tree_module.SCAN_BLOCK_BYTES
        tree_module.SCAN_BLOCK_BYTES = budget
        try:
            levels.append(scan_level(X, Z, weight, nodes, gram))
        finally:
            tree_module.SCAN_BLOCK_BYTES = default_budget
        for (samples, features), found in zip(nodes, levels[-1]):
            # A node's scan does not depend on its neighbours or on the budget.
            assert found == scan_level(X, Z, weight, [(samples, features)], gram)[0]
            gain, feature, threshold = found[:3]
            # The one-shot search is the scan of the node's own rows, scored
            # from their G exactly when they are no more than the outputs.
            q = samples.size
            if (weight == 1.0).all() and gram == (q <= Z.shape[1]):
                rec = best_split_exhaustive(X, Z, samples, features)
                own = scan_level(X[samples], Z[samples], np.ones(q),
                                 [(np.arange(q), features)], gram)[0][:3]
                if rec is None:
                    assert not own[0] > 0.0
                else:
                    assert (rec.impurity_reduction, rec.feature, rec.threshold) == own
                check_against_brute_force(X, Z, samples, features, *own)
            # A row of weight w splits as w copies of it would.
            copies = np.repeat(samples, weight[samples].astype(np.int64))
            check_against_brute_force(X, Z, copies, features, gain, feature, threshold)
    # Both scans score the same splits, to rounding, and choose differently
    # only between choices that tie within the oracle's tolerance.
    for (samples, features), prefix, gram in zip(nodes, *levels):
        copies = np.repeat(samples, weight[samples].astype(np.int64))
        scale = max(1.0, variance_sum(Z[copies]))
        assert prefix[0] == gram[0] or abs(prefix[0] - gram[0]) <= 1e-12 * scale
        if prefix[1:] != gram[1:] and (prefix[0] > 0.0 or gram[0] > 0.0):
            assert check_against_brute_force(X, Z, copies, features, *prefix[:3]) > 1


def check_against_brute_force(X, Z, samples, features, gain, feature, threshold):
    """Check a scan's choice against every split of ``samples``.  Returns
    how many choices tie with the best within the tolerance: distinct
    splits (duplicated columns counting once), plus not splitting when no
    split gains more than the tolerance."""
    splits = brute_force_splits(X, Z, samples, features)
    best = max(splits, key=lambda split: split[0], default=(0.0,))
    # The scan and the oracle sum in different orders, so gains agree to a
    # tolerance, and splits whose gains tie within it may be chosen either way.
    tol = 1e-9 * max(1.0, variance_sum(Z[samples]))
    top = best[0]
    near = [(f, thr) for g, f, thr in splits if g >= top - tol]
    distinct = len({(X[samples, f].tobytes(), thr) for f, thr in near})
    ties = distinct + (top <= tol)
    if not gain > 0.0:
        assert top <= tol
        return ties
    assert abs(gain - top) <= tol
    assert (feature, threshold) in near
    # Duplicated columns tie exactly, and the lowest feature wins.
    twins = [f for f in features if np.array_equal(X[samples, f], X[samples, feature])]
    assert feature == twins[0]
    # When the best split is unique up to duplicated columns, the scan
    # returns exactly the oracle's choice.
    if distinct == 1:
        assert (feature, threshold) == best[1:]
    return ties


def node_depths(tree):
    depth = np.zeros(tree.n_nodes, dtype=np.int64)
    for node in range(tree.n_nodes):
        if tree.feature[node] >= 0:
            depth[tree.children_left[node]] = depth[node] + 1
            depth[tree.children_right[node]] = depth[node] + 1
    return depth


class TestGrowthOrder:
    X = np.floor(np.random.default_rng(20).random((120, 5)) * 6.0)
    Y = (np.random.default_rng(21).random((120, 6)) < 0.4).astype(float)

    def check_numbers_each_depth_before_the_next(self, splitter):
        tree = grow_arrays(self.X, self.Y, self.Y,
                           TreeConfig(k=3, n_min=2, splitter=splitter), stream(3, 0))
        depth = node_depths(tree)
        assert depth.max() >= 4
        assert (np.diff(depth) >= 0).all()
        # Split nodes hand out child ids in id order: 1-2, 3-4, ...
        split = np.flatnonzero(tree.feature >= 0)
        np.testing.assert_array_equal(tree.children_left[split], 2 * np.arange(split.size) + 1)
        np.testing.assert_array_equal(tree.children_right[split], tree.children_left[split] + 1)
        # Leaves are numbered in node order.
        np.testing.assert_array_equal(tree.leaf_id[tree.feature < 0], np.arange(tree.n_leaves))

    def test_exhaustive_numbers_each_depth_before_the_next(self):
        self.check_numbers_each_depth_before_the_next("exhaustive")

    def test_random_threshold_numbers_each_depth_before_the_next(self):
        self.check_numbers_each_depth_before_the_next("random_threshold")

    def test_exhaustive_draws_every_depth_in_one_call(self):
        # Replays the documented draws: per depth, one k-of-p draw for all
        # splittable nodes (at least n_min samples, not pure) in id order.
        cfg = TreeConfig(k=2, n_min=3)
        tree = grow_arrays(self.X, self.Y, self.Y, cfg, stream(4, 0))
        members = node_memberships(tree, self.X)
        depth = node_depths(tree)
        gen = stream(4, 0)
        for d in range(depth.max() + 1):
            level = np.flatnonzero(depth == d)
            open_ = [node for node in level if members[node].size >= cfg.n_min
                     and variance_sum(self.Y[members[node]]) > tree_module.PURE_NODE_TOL]
            split = [node for node in level if tree.feature[node] >= 0]
            assert set(split) <= set(open_)
            if not open_:
                continue
            drawn = tree_module._draw_features(gen, len(open_), self.X.shape[1], cfg.k)
            for node, features in zip(open_, drawn):
                if tree.feature[node] >= 0:
                    assert tree.feature[node] in features

    def test_random_threshold_draws_each_node_when_reached(self):
        # Replays the documented draws: nodes in id order; each open node
        # draws k of p features, then one uniform cut per feature whose
        # values in the node are not all equal, and splits on one of them.
        cfg = TreeConfig(k=2, n_min=3, splitter="random_threshold")
        tree = grow_arrays(self.X, self.Y, self.Y, cfg, stream(4, 0))
        members = node_memberships(tree, self.X)
        gen = stream(4, 0)
        n_split = 0
        for node in range(tree.n_nodes):
            rows = members[node]
            if rows.size < cfg.n_min or not variance_sum(self.Y[rows]) > tree_module.PURE_NODE_TOL:
                assert tree.feature[node] < 0
                continue
            cuts = {}
            for f in tree_module._draw_features(gen, 1, self.X.shape[1], cfg.k)[0]:
                v = self.X[rows, f]
                if v.min() < v.max():
                    cuts[f] = gen.uniform(v.min(), v.max())
            if tree.feature[node] >= 0:
                assert tree.threshold[node] == cuts[tree.feature[node]]
                n_split += 1
        assert n_split == np.count_nonzero(tree.feature >= 0) >= 5

    def test_draw_is_the_k_smallest_of_p_uniform_keys(self):
        keys = stream(5, 0).random((7, 9))
        drawn = tree_module._draw_features(stream(5, 0), 7, 9, 4)
        np.testing.assert_array_equal(drawn, np.sort(np.argsort(keys, axis=1)[:, :4], axis=1))

    @pytest.mark.parametrize("bootstrap", [False, True])
    def test_both_splitters_draw_features_the_same_way(self, bootstrap):
        # With k=1 a node's one candidate is its split feature, and both
        # splitters draw the root's from the same point of the stream (after
        # the bootstrap rows) by the same rule.
        X = np.random.default_rng(22).random((120, 5))
        roots = set()
        for seed in range(8):
            found = [grow_arrays(X, self.Y, self.Y, TreeConfig(
                k=1, n_min=2, splitter=splitter, bootstrap=bootstrap), stream(seed, 0)).feature[0]
                for splitter in tree_module.SPLITTERS]
            assert min(found) >= 0
            assert found[0] == found[1]
            roots.add(found[0])
        assert len(roots) > 1

    def test_scan_block_bytes_bound_chunks_and_prefix_sums(self, monkeypatch):
        # A chunk holds at most SCAN_BLOCK_BYTES / 8 entries (or one node);
        # a block of prefix sums at most SCAN_BLOCK_BYTES (or one feature of
        # one node), and the blocks cover every (node, feature) once, in order.
        # With 120 rows and 128 outputs the scan takes no prefix sums, and a
        # (features, rows, q) block of its Gram row sums holds at most
        # SCAN_BLOCK_BYTES (or one row of one node).
        gen = np.random.default_rng(22)
        cfg = TreeConfig(k=4, n_min=2)
        chunk_sizes, views, gram_blocks = [], [], []
        scan_chunk, prefix_sums = tree_module._scan_chunk, tree_module._prefix_sums
        matmul = np.matmul

        def spy_chunk(X, Z, weight, samples, sizes, W, M, M2, features, G):
            chunk_sizes.append(sizes.copy())
            return scan_chunk(X, Z, weight, samples, sizes, W, M, M2, features, G)

        def spy_prefix_sums(C):
            views.append(C.shape)
            prefix_sums(C)

        def spy_matmul(a, b, **kwargs):
            if a.ndim == 4:  # the Gram row sums' (features, rows, 1, q) masks
                gram_blocks.append(a.shape[:2] + a.shape[3:])
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(tree_module, "_scan_chunk", spy_chunk)
        monkeypatch.setattr(tree_module, "_prefix_sums", spy_prefix_sums)
        monkeypatch.setattr(np, "matmul", spy_matmul)
        for m in (8, 128):
            Y = gen.standard_normal((120, m))
            for budget in (0, 1 << 12, 1 << 40):
                monkeypatch.setattr(tree_module, "SCAN_BLOCK_BYTES", budget)
                chunk_sizes.clear()
                views.clear()
                gram_blocks.clear()
                grow_arrays(self.X, Y, Y, cfg, stream(5, 0))
                assert max(sizes.size for sizes in chunk_sizes) > 1 or budget == 0
                for sizes in chunk_sizes:
                    assert sizes.size == 1 or 8 * cfg.k * sizes.sum() <= budget
                if m > 120:
                    assert not views
                    for k, rows, q in gram_blocks:
                        assert k == cfg.k and (rows == 1 or 8 * k * rows * q <= budget)
                    # The root's 120 rows come in one block only when they fit.
                    most = max(rows for _, rows, _ in gram_blocks)
                    assert most == 120 if budget == 1 << 40 else 1 <= most < 120
                else:
                    assert not gram_blocks
                    for sizes in chunk_sizes:
                        covered = []
                        for a, b, f0, f1 in tree_module._prefix_blocks(sizes, cfg.k, m):
                            if (f0, f1) == (0, cfg.k):
                                assert b - a == 1 or 8 * cfg.k * m * sizes[a:b].sum() <= budget
                            else:
                                assert b - a == 1 and (
                                    f1 - f0 == 1 or 8 * (f1 - f0) * m * sizes[a] <= budget)
                            covered += [(i, f) for i in range(a, b) for f in range(f0, f1)]
                        assert covered == [(i, f) for i in range(sizes.size)
                                           for f in range(cfg.k)]
                    assert max(kb for kb, _, _ in views) == (1 if budget == 0 else cfg.k)

    @pytest.mark.parametrize("bootstrap", [False, True])
    def test_gram_path_iff_no_more_distinct_rows_than_outputs(self, monkeypatch, bootstrap):
        # A tree scores from G = Zt Zt^T exactly when its n_t scan rows (the
        # distinct rows of a bootstrap sample) are no more than its m outputs.
        n = 60
        n_t = np.unique(stream(7, 0).integers(0, n, size=n)).size if bootstrap else n
        seen = []
        scan_chunk = tree_module._scan_chunk

        def spy_chunk(*args):
            seen.append(None if args[-1] is None else args[-1].shape)
            return scan_chunk(*args)

        monkeypatch.setattr(tree_module, "_scan_chunk", spy_chunk)
        cfg = TreeConfig(k=3, n_min=2, bootstrap=bootstrap)
        for m, expected in ((n_t, (n_t, n_t)), (n_t - 1, None)):
            Z = np.random.default_rng(23).standard_normal((n, m))
            seen.clear()
            grow_arrays(self.X[:n], Z, Z, cfg, stream(7, 0))
            assert seen and set(seen) == {expected}

    def test_one_shot_search_decides_the_gram_path_on_the_node(self, monkeypatch):
        # The one-shot search scores from G exactly when the node's entries
        # (repeated samples counted each time) are no more than the outputs,
        # whatever the number of rows of Z.
        seen = []
        scan_chunk = tree_module._scan_chunk

        def spy_chunk(*args):
            seen.append(None if args[-1] is None else args[-1].shape)
            return scan_chunk(*args)

        monkeypatch.setattr(tree_module, "_scan_chunk", spy_chunk)
        tall = np.random.default_rng(24).standard_normal((60, 20))
        wide = tall[:10]
        for Z, samples, expected in ((tall, np.arange(20), (20, 20)),
                                     (tall, np.arange(21), None),
                                     (wide, np.arange(10), (10, 10)),
                                     (wide, np.tile(np.arange(10), 3), None)):
            seen.clear()
            best_split_exhaustive(self.X, Z, samples, [0, 1])
            assert seen == [expected]


class TestTreeConfig:
    @pytest.mark.parametrize("value", [0, -1, 1.5, 2.0, True, "2", None])
    def test_k_must_be_a_positive_integer(self, value):
        with pytest.raises(ValueError, match="^k must be"):
            TreeConfig(k=value)

    @pytest.mark.parametrize("value", [0, -3, 2.5, 1.0, False, "1", None])
    def test_n_min_must_be_a_positive_integer(self, value):
        with pytest.raises(ValueError, match="^n_min must be"):
            TreeConfig(k=1, n_min=value)

    @pytest.mark.parametrize("value", ["no", "False", 0, 1, None])
    def test_bootstrap_must_be_a_bool(self, value):
        with pytest.raises(ValueError, match="^bootstrap must be a bool"):
            TreeConfig(k=1, bootstrap=value)

    @pytest.mark.parametrize("value", ["bogus", "Exhaustive", None])
    def test_splitter_must_be_known(self, value):
        with pytest.raises(ValueError, match="^unknown splitter"):
            TreeConfig(k=1, splitter=value)

    def test_numpy_values_accepted(self):
        cfg = TreeConfig(k=np.int64(2), n_min=np.int32(3), bootstrap=np.bool_(True))
        tree = grow_arrays(TOY_X.repeat(2, axis=1), TOY_Z, TOY_Z, cfg, stream(0, 0))
        assert tree.leaf_counts.sum() == 4


@pytest.mark.parametrize("search", [
    best_split_exhaustive,
    lambda X, Z, samples, features: best_split_random_threshold(
        X, Z, samples, features, stream(0, 0)),
], ids=["exhaustive", "random_threshold"])
@pytest.mark.parametrize("samples, features, message", [
    ([2], [0], "at least two samples"),
    ([], [0], "at least two samples"),
    ([0, 3], [], "feature subset must be non-empty"),
    ([0, 1, 2, 3], [-1], "features must lie in"),
    ([0, 1, 2, 3], [1], "features must lie in"),
    ([0, 1, 2, 3], [0.0], "features must be integers"),
    ([0, 1.7, 2, 3], [0], "samples must be integers"),
    ([-1, 0, 1], [0], "samples must lie in"),
    ([0, 4], [0], "samples must lie in"),
])
def test_one_shot_search_rejects_bad_nodes(search, samples, features, message):
    with pytest.raises(ValueError, match=message):
        search(TOY_X, TOY_Z, samples, features)


class TestRandomThresholdSplit:
    def test_two_samples_forced_partition(self):
        X = np.array([[0.0], [1.0]])
        Z = np.array([[0.0], [1.0]])
        rec = best_split_random_threshold(X, Z, [0, 1], [0], stream(0, 0))
        assert rec is not None
        assert 0.0 <= rec.threshold < 1.0
        assert rec.impurity_reduction == 0.25

    def test_deterministic_under_seed(self):
        gen = np.random.default_rng(3)
        X = gen.random((20, 3))
        Z = gen.random((20, 2))
        a = best_split_random_threshold(X, Z, np.arange(20), np.arange(3), stream(5, 1))
        b = best_split_random_threshold(X, Z, np.arange(20), np.arange(3), stream(5, 1))
        assert a == b

    def test_separable_data_always_positive_gain(self):
        X = np.vstack([np.zeros((5, 2)), np.ones((5, 2))])
        Z = np.vstack([np.zeros((5, 1)), np.ones((5, 1))])
        for seed in range(100):
            rec = best_split_random_threshold(
                X, Z, np.arange(10), np.arange(2), stream(seed, 0)
            )
            assert rec is not None and rec.impurity_reduction > 0

    def test_constant_feature_skipped(self):
        X = np.column_stack([np.ones(4), [0.0, 1.0, 2.0, 3.0]])
        rec = best_split_random_threshold(X, TOY_Z, np.arange(4), [0, 1], stream(1, 0))
        assert rec.feature == 1


class TestGrow:
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("where", ["X", "Y", "Z"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, storage, where, value):
        gen = np.random.default_rng(8)
        inputs = {"X": gen.random((30, 3)),
                  "Y": (gen.random((30, 4)) < 0.4).astype(float),
                  "Z": gen.standard_normal((30, 2))}
        inputs[where][3, 1] = value
        wrap = sp.csr_matrix if storage == "csr" else np.asarray
        X, Y, Z = (wrap(inputs[name]) for name in "XYZ")
        with pytest.raises(ValueError, match=where + " contains non-finite"):
            grow_arrays(X, Y, Z, TreeConfig(k=2), stream(0, 1))

    def test_single_leaf_when_n_min_exceeds_n(self):
        cfg = TreeConfig(k=1, n_min=5)
        tree = grow_arrays(TOY_X, TOY_Z, TOY_Z, cfg, stream(0, 0))
        assert tree.n_leaves == 1
        np.testing.assert_array_equal(tree.predict([[7.0]]), [[0.5, 0.5]])

    def test_identity_projection_equals_no_projection(self):
        gen = np.random.default_rng(4)
        for trial in range(5):
            n, p, d = 40, 3, 6
            X = gen.random((n, p))
            Y = sp.csr_matrix((gen.random((n, d)) < 0.3).astype(float))
            cfg = TreeConfig(k=2, n_min=2, bootstrap=True)
            phi = generate(ProjectionSpec("identity", d), d, stream(trial, 0))
            a = grow_arrays(X, Y, project(phi, Y), cfg, stream(trial, 9))
            b = grow_arrays(X, Y, Y, cfg, stream(trial, 9))
            assert trees_equal(a, b)

    def test_toy_split_recovered_under_1d_gaussian_projection(self):
        cfg = TreeConfig(k=1, n_min=2)
        recovered = 0
        for seed in range(100):
            phi = generate(ProjectionSpec("gaussian", 1), 2, stream(seed, 0))
            tree = grow_arrays(TOY_X, TOY_Z, project(phi, TOY_Z), cfg, stream(seed, 1))
            if tree.n_nodes >= 3 and tree.threshold[0] == 5.5:
                recovered += 1
        assert recovered >= 95

    def test_leaf_vectors_in_unit_interval_and_original_space(self):
        gen = np.random.default_rng(5)
        X = gen.random((60, 4))
        Y = sp.csr_matrix((gen.random((60, 10)) < 0.25).astype(float))
        phi = generate(ProjectionSpec("gaussian", 2), 10, stream(0, 0))
        tree = grow_arrays(X, Y, project(phi, Y), TreeConfig(k=2, n_min=4), stream(0, 1))
        assert tree.leaf_values.shape[1] == 10  # original label space
        assert tree.leaf_values.min() >= 0.0
        assert tree.leaf_values.max() <= 1.0

    def test_every_sample_in_exactly_one_leaf(self):
        gen = np.random.default_rng(6)
        X = gen.random((50, 3))
        Y = sp.csr_matrix((gen.random((50, 5)) < 0.4).astype(float))
        tree = grow_arrays(X, Y, Y, TreeConfig(k=3, n_min=3), stream(2, 0))
        leaves = tree.apply(X)
        assert leaves.shape == (50,)
        counts = np.bincount(leaves, minlength=tree.n_leaves)
        np.testing.assert_array_equal(counts, tree.leaf_counts)
        assert tree.leaf_counts.sum() == 50

    def test_bootstrap_counts_sum_to_sample_count(self):
        gen = np.random.default_rng(7)
        X = gen.random((30, 2))
        Y = sp.csr_matrix((gen.random((30, 4)) < 0.5).astype(float))
        tree = grow_arrays(X, Y, Y, TreeConfig(k=2, bootstrap=True), stream(3, 0))
        assert tree.leaf_counts.sum() == 30

    def test_bootstrap_leaf_values_use_multiplicities(self):
        # two samples, bootstrap resample decides the leaf mean
        X = np.array([[0.0], [1.0]])
        Y = sp.csr_matrix(np.array([[1.0], [0.0]]))
        cfg = TreeConfig(k=1, n_min=5, bootstrap=True)  # single leaf
        tree = grow_arrays(X, Y, Y, cfg, stream(11, 0))
        rows = stream(11, 0).integers(0, 2, size=2)
        expected = to_dense(Y)[rows].mean(axis=0)
        np.testing.assert_array_equal(tree.leaf_values[0], expected)

    @pytest.mark.parametrize("splitter", ["exhaustive", "random_threshold"])
    def test_n_min_counts_bootstrap_copies(self, splitter):
        # Stream (9, 0) draws rows 1, 1, 0, 2, 0: three distinct rows of
        # multiplicities 2, 2 and 1, five samples in all, so the root is
        # split at n_min=5 and not at n_min=6.
        X = np.arange(5.0)[:, None]
        Y = np.eye(5)
        draw = stream(9, 0).integers(0, 5, size=5)
        np.testing.assert_array_equal(np.bincount(draw, minlength=5), [2, 2, 1, 0, 0])
        trees = {
            n_min: grow_arrays(X, Y, Y, TreeConfig(k=1, n_min=n_min, splitter=splitter,
                                                      bootstrap=True), stream(9, 0))
            for n_min in (5, 6)
        }
        assert trees[5].n_nodes == 3 and trees[5].leaf_counts.sum() == 5
        assert trees[6].n_nodes == 1 and trees[6].leaf_counts.tolist() == [5]

    def test_one_distinct_row_is_a_leaf(self):
        # Stream (11, 0) draws row 2 three times.  Scaled by its weight, the
        # row's impurity rounds to about 6e-8 instead of 0, yet a node of one
        # distinct row has no split to scan.
        Y = np.array([[1.0, 2.0], [3.0, 4.0], [10137.2, 13521.4]])
        tree = grow_arrays(np.arange(3.0)[:, None], Y, Y,
                           TreeConfig(k=1, bootstrap=True), stream(11, 0))
        assert tree.n_nodes == 1 and tree.leaf_counts.tolist() == [3]
        np.testing.assert_array_equal(tree.leaf_values[0], Y[2])

    def test_gain_nonnegative_on_all_internal_nodes(self):
        gen = np.random.default_rng(8)
        X = gen.random((80, 5))
        Y = sp.csr_matrix((gen.random((80, 8)) < 0.3).astype(float))
        tree = grow_arrays(X, Y, Y, TreeConfig(k=3, n_min=2), stream(4, 0))
        # No bootstrap, so every node holds the training rows routed to it.
        members = node_memberships(tree, X)
        Yd = to_dense(Y)
        internal = np.flatnonzero(tree.feature >= 0)
        assert internal.size > 0
        for node in internal:
            rows = members[node]
            left = members[tree.children_left[node]]
            right = members[tree.children_right[node]]
            gain = variance_sum(Yd[rows]) - (
                left.size * variance_sum(Yd[left])
                + right.size * variance_sum(Yd[right])
            ) / rows.size
            assert gain > 0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="X and Z row counts differ"):
            grow_arrays(TOY_X, TOY_Z, TOY_Z[:3], TreeConfig(k=1), stream(0, 0))

    def test_k_larger_than_p_raises(self):
        with pytest.raises(ValueError):
            grow_arrays(TOY_X, TOY_Z, TOY_Z, TreeConfig(k=2), stream(0, 0))

    @pytest.mark.parametrize("X, Z, message", [
        (TOY_X, TOY_Z[:3], "row counts differ"),
        (TOY_X[:0], TOY_Z[:0], "empty sample"),
    ], ids=["row-mismatch", "empty"])
    def test_bad_sample_rejected(self, X, Z, message):
        with pytest.raises(ValueError, match=message):
            grow_arrays(X, Z, Z, TreeConfig(k=1), stream(0, 0))

    def test_sparse_inputs_match_dense(self):
        gen = np.random.default_rng(9)
        X = gen.random((40, 6))
        X[X < 0.5] = 0.0
        Y = sp.csr_matrix((gen.random((40, 5)) < 0.4).astype(float))
        for splitter in ("exhaustive", "random_threshold"):
            for bootstrap in (False, True):
                cfg = TreeConfig(k=3, n_min=3, splitter=splitter, bootstrap=bootstrap)
                a = grow_arrays(X, Y, Y, cfg, stream(5, 0))
                b = grow_arrays(sp.csr_matrix(X), Y, Y, cfg, stream(5, 0))
                assert trees_equal(a, b)

    @pytest.mark.parametrize("splitter", ["exhaustive", "random_threshold"])
    def test_leaf_values_equal_the_aggregation_product(self, splitter):
        # Few rows, so a bootstrap draw repeats many of them; outputs of
        # mixed magnitude, and leaves of many rows (large n_min), make leaf
        # sums depend on the order and the form of each addition.
        gen = np.random.default_rng(13)
        for (n, seed), n_min in itertools.product(
            ((6, 0), (12, 1), (40, 2), (40, 3)), (2, 10, 100)
        ):
            X = gen.random((n, 3))
            binary = (gen.random((n, 5)) < 0.4).astype(float)
            continuous = gen.standard_normal((n, 5)) * 10.0 ** gen.integers(-3, 4, (n, 5))
            continuous[gen.random((n, 5)) < 0.3] = 0.0
            for Y in (binary, continuous, sp.csr_matrix(binary), sp.csr_matrix(continuous)):
                for bootstrap in (True, False):
                    cfg = TreeConfig(
                        k=2, n_min=n_min, splitter=splitter, bootstrap=bootstrap
                    )
                    tree = grow_arrays(X, Y, Y, cfg, stream(seed, 0))
                    if bootstrap:
                        rows = stream(seed, 0).integers(0, n, size=n)
                    else:
                        rows = np.arange(n)
                    values, counts = aggregation_leaf_values(tree, X, Y, rows)
                    assert tree.leaf_values.tobytes() == values.tobytes()
                    np.testing.assert_array_equal(tree.leaf_counts, counts)

    def test_continuous_outputs_supported(self):
        gen = np.random.default_rng(10)
        X = gen.random((25, 2))
        Y = gen.standard_normal((25, 3))
        tree = grow_arrays(X, Y, Y, TreeConfig(k=2, n_min=5), stream(6, 0))
        assert tree.leaf_values.shape[1] == 3
        assert np.isfinite(tree.leaf_values).all()


class TestPredict:
    def test_routing_traced_by_hand(self):
        tree = grow_arrays(TOY_X, TOY_Z, TOY_Z, TreeConfig(k=1, n_min=2), stream(0, 0))
        np.testing.assert_array_equal(tree.predict([[0.2], [10.4]]), [[1.0, 0.0], [0.0, 1.0]])

    def test_boundary_routes_left(self):
        tree = grow_arrays(TOY_X, TOY_Z, TOY_Z, TreeConfig(k=1, n_min=2), stream(0, 0))
        assert tree.threshold[0] == 5.5
        np.testing.assert_array_equal(tree.predict([[5.5]]), [[1.0, 0.0]])

    def test_feature_count_mismatch(self):
        tree = grow_arrays(TOY_X, TOY_Z, TOY_Z, TreeConfig(k=1, n_min=2), stream(0, 0))
        with pytest.raises(ValueError):
            tree.apply(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            tree.predict(np.zeros((3, 2)))

    def test_batch_matches_single(self):
        gen = np.random.default_rng(11)
        X = gen.random((50, 4))
        Y = sp.csr_matrix((gen.random((50, 6)) < 0.3).astype(float))
        tree = grow_arrays(X, Y, Y, TreeConfig(k=2, n_min=3), stream(7, 0))
        Xp = gen.random((30, 4))
        batch = tree.predict(Xp)
        single = np.vstack([tree_walk(tree, x) for x in Xp])
        np.testing.assert_array_equal(batch, single)

    def test_sparse_prediction_matches_dense(self):
        gen = np.random.default_rng(12)
        X = gen.random((40, 5))
        X[X < 0.6] = 0.0
        Y = sp.csr_matrix((gen.random((40, 4)) < 0.4).astype(float))
        tree = grow_arrays(X, Y, Y, TreeConfig(k=2, n_min=3), stream(8, 0))
        np.testing.assert_array_equal(
            tree.predict(sp.csr_matrix(X)), tree.predict(X)
        )

    @pytest.mark.parametrize("feature, threshold, n_leaves", [
        ([0, 0, 0], [0.5, 0.5, 0.5], 2),
        ([-1, 0, -1], [0.0, 0.5, 0.0], 2),
        ([0, -1, -1], [0.5, 0.0, 0.0], 1),
        ([0, -1, -1], [0.5, 0.0], 2),
    ], ids=["too-few-nodes", "split-node-without-parent", "one-leaf-row-for-two-leaves",
            "short-threshold"])
    def test_arrays_that_are_not_one_level_order_tree_rejected(self, feature, threshold,
                                                               n_leaves):
        with pytest.raises(ValueError, match="^feature does not encode one binary tree in "
                                             "level order"):
            Tree(np.array(feature), np.array(threshold), np.ones((n_leaves, 1)),
                 np.ones(n_leaves, dtype=np.int64), 1)


class TestVarianceTransferInTrees:
    def test_node_level_transfer_and_split_score_bracket(self):
        eps = 0.5
        n, d = 40, 120
        m = jl_min_dimension(eps, n)
        gen = np.random.default_rng(13)
        X = gen.random((n, 3))
        Y = pattern_label_matrix(n, d, 10, 7, stream(70, 0))
        phi = generate(ProjectionSpec("gaussian", m), d, stream(70, 1))
        rep = distortion_check(phi, Y, eps)
        assert rep.violations == 0  # premise holds for this frozen seed

        Z = project(phi, Y)
        tree = grow_arrays(X, Y, Z, TreeConfig(k=3, n_min=6), stream(70, 2))
        members = node_memberships(tree, X)
        Yd = to_dense(Y)
        for node in range(tree.n_nodes):
            rows = members[node]
            vo = variance_sum(Yd[rows])
            vp = variance_sum(Z[rows])
            tol = 1e-12 * max(1.0, vo)
            assert (1 - eps) * vo - tol <= vp <= (1 + eps) * vo + tol
            if tree.feature[node] >= 0:
                left = members[tree.children_left[node]]
                right = members[tree.children_right[node]]
                q = rows.size
                child_orig = (
                    left.size / q * variance_sum(Yd[left])
                    + right.size / q * variance_sum(Yd[right])
                )
                gain_proj = vp - (
                    left.size / q * variance_sum(Z[left])
                    + right.size / q * variance_sum(Z[right])
                )
                lo = (1 - eps) * vo - (1 + eps) * child_orig
                hi = (1 + eps) * vo - (1 - eps) * child_orig
                assert lo - tol <= gain_proj <= hi + tol


class TestPermutationCovariance:
    def test_permuted_labels_with_permuted_map(self):
        gen = np.random.default_rng(14)
        n, d = 45, 9
        X = gen.random((n, 3))
        Y = (gen.random((n, d)) < 0.35).astype(float)
        perm = gen.permutation(d)
        for kind, m in (("identity", d), ("identity_subsample", 4)):
            phi = generate(ProjectionSpec(kind, m), d, stream(15, 0))
            # phi_perm acts on permuted labels exactly as phi does on originals
            phi_perm = phi[:, perm]
            cfg = TreeConfig(k=2, n_min=4)
            Ys, Ys_perm = sp.csr_matrix(Y), sp.csr_matrix(Y[:, perm])
            base = grow_arrays(X, Ys, project(phi, Ys), cfg, stream(15, 1))
            permuted = grow_arrays(
                X, Ys_perm, project(phi_perm, Ys_perm), cfg, stream(15, 1)
            )
            np.testing.assert_array_equal(
                permuted.predict(X)[:, np.argsort(perm)], base.predict(X)
            )


class TestSerialization:
    def test_round_trip(self):
        gen = np.random.default_rng(16)
        X = gen.random((30, 3))
        Y = sp.csr_matrix((gen.random((30, 5)) < 0.4).astype(float))
        tree = grow_arrays(X, Y, Y, TreeConfig(k=2, n_min=3), stream(9, 0))
        doc = json.loads(json.dumps(tree.to_dict()))
        back = Tree.from_dict(doc)
        assert trees_equal(tree, back)

    def test_version_check(self):
        doc = {"format": Tree.FORMAT, "version": 999}
        with pytest.raises(ValueError):
            Tree.from_dict(doc)

    # A stump as version 2 saved it, with its children and leaf ids.
    VERSION_2_STUMP = {
        "format": "projforest-tree", "version": 2, "n_features": 1,
        "feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "children_left": [1, -1, -1],
        "children_right": [2, -1, -1], "leaf_id": [-1, 0, 1],
        "leaf_values": [[1.0], [2.0]], "leaf_counts": [1, 1],
    }

    def test_version_2_document_rejected_by_version(self):
        with pytest.raises(ValueError, match="^unsupported tree document version: 2$"):
            Tree.from_dict(dict(self.VERSION_2_STUMP))

    def test_version_2_document_relabelled_rejected_by_field(self):
        with pytest.raises(ValueError,
                           match="^tree document has an unknown field 'children_left'$"):
            Tree.from_dict(dict(self.VERSION_2_STUMP, version=Tree.VERSION))

    @pytest.mark.parametrize("mutate, message", [
        (lambda doc: doc.update(format="projforest-ensemble"), "not a serialized tree"),
        (lambda doc: doc["threshold"].pop(),
         "feature does not encode one binary tree in level order"),
        (lambda doc: doc["feature"].__setitem__(0, doc["n_features"]),
         "split feature is out of range"),
        (lambda doc: doc["threshold"].__setitem__(0, np.nan), "threshold is not finite"),
        (lambda doc: doc["threshold"].__setitem__(0, -np.inf), "threshold is not finite"),
        (lambda doc: doc["leaf_values"][0].__setitem__(1, np.inf),
         "leaf value is not finite"),
        (lambda doc: doc["leaf_values"][-1].__setitem__(0, np.nan),
         "leaf value is not finite"),
        # Each value below is one that a cast would turn into a valid tree.
        (lambda doc: doc["feature"].__setitem__(0, doc["feature"][0] + 0.9),
         "feature must hold integers"),
        (lambda doc: doc["feature"].__setitem__(0, True), "feature must hold integers"),
        (lambda doc: doc["threshold"].__setitem__(0, repr(doc["threshold"][0])),
         "threshold must hold numbers"),
        (lambda doc: doc.update(n_features=3.7), "n_features must be an integer"),
        (lambda doc: doc.update(n_features="3"), "n_features must be an integer"),
        (lambda doc: doc["leaf_counts"].__setitem__(0, doc["leaf_counts"][0] + 0.5),
         "leaf_counts must hold integers"),
        (lambda doc: doc.pop("n_features"), "tree document has no field 'n_features'"),
        (lambda doc: doc.pop("threshold"), "tree document has no field 'threshold'"),
        (lambda doc: doc.update(threshold=0.5), "threshold must hold numbers"),
        (lambda doc: doc["leaf_values"][0].pop(),
         "leaf_values must hold equal-length rows of numbers"),
        (lambda doc: doc.update(leaf_values=sum(doc["leaf_values"], [])),
         "leaf_values must hold equal-length rows of numbers"),
        (lambda doc: doc["leaf_counts"].__setitem__(0, 0), "leaf_counts must hold a count"),
        (lambda doc: doc["leaf_counts"].__setitem__(-1, -3), "leaf_counts must hold a count"),
        (lambda doc: doc["leaf_counts"].pop(), "leaf_counts must hold a count"),
        (lambda doc: doc.update(depth=3), "^tree document has an unknown field 'depth'$"),
    ], ids=["format", "node-array-length", "feature-out-of-range", "nan-threshold",
            "inf-threshold", "inf-leaf-value", "nan-leaf-value", "fractional-feature",
            "bool-feature", "string-threshold", "fractional-n-features", "string-n-features",
            "fractional-leaf-count", "missing-n-features", "missing-threshold",
            "scalar-threshold", "ragged-leaf-values", "flat-leaf-values", "zero-leaf-count",
            "negative-leaf-count", "short-leaf-counts", "unknown-field"])
    def test_corrupt_document_rejected(self, mutate, message):
        gen = np.random.default_rng(16)
        X = gen.random((30, 3))
        Y = sp.csr_matrix((gen.random((30, 5)) < 0.4).astype(float))
        tree = grow_arrays(X, Y, Y, TreeConfig(k=2, n_min=3), stream(9, 0))
        assert tree.feature[0] >= 0
        doc = json.loads(json.dumps(tree.to_dict()))
        mutate(doc)
        with pytest.raises(ValueError, match=message):
            Tree.from_dict(json.loads(json.dumps(doc)))


class TestAgainstSklearn:
    def test_single_feature_trees_match_sklearn(self):
        sklearn_tree = pytest.importorskip("sklearn.tree")
        gen = np.random.default_rng(17)
        for trial in range(10):
            X = gen.random((100, 1)).astype(np.float32).astype(np.float64)
            Y = gen.random((100, 4))
            for n_min in (2, 5):
                cfg = TreeConfig(k=1, n_min=n_min)
                mine = grow_arrays(X, Y, Y, cfg, stream(trial, 0))
                sk = sklearn_tree.DecisionTreeRegressor(
                    criterion="squared_error", min_samples_split=n_min, random_state=0
                )
                sk.fit(X, Y)
                Xp = gen.random((200, 1)).astype(np.float32).astype(np.float64)
                assert np.abs(mine.predict(Xp) - sk.predict(Xp)).max() <= 1e-12
