import numpy as np
import pytest

from projforest import (
    EnsembleConfig,
    ProjectionSpec,
    TreeConfig,
    ensemble_variance_curve,
    estimate_ensemble,
    two_feature_problem,
)
from projforest import decomposition
from projforest.decomposition import TERMS

from support import deterministic_grid_problem

ET = dict(splitter="random_threshold", bootstrap=False)


def gaussian_cfg(policy, t, m=1, **tree_kwargs):
    kwargs = dict(ET)
    kwargs.update(tree_kwargs)
    return EnsembleConfig(
        t=t,
        tree=TreeConfig(k=2, n_min=25, **kwargs),
        projection=ProjectionSpec("gaussian", m),
        policy=policy,
    )


def one_tree(tree, projection):
    """A single tree grown on its own draw of the projection."""
    return EnsembleConfig(t=1, tree=tree, projection=projection, policy="per_tree_subspace")


class TestDeterministicProblem:
    def test_all_terms_vanish(self):
        problem = deterministic_grid_problem()
        cfg = TreeConfig(k=2, n_min=1, splitter="exhaustive", bootstrap=False)
        report = estimate_ensemble(
            problem, one_tree(cfg, ProjectionSpec("identity", 2)), n_ls=3, n_phi=2, n_eps=2
        )
        for term in ("residual_variance", "bias_sq", "var_learning_sample",
                     "var_algorithm", "var_projection", "total_direct"):
            assert np.abs(report.estimates[term]).max() <= 1e-12, term
            assert np.abs(report.se[term]).max() <= 1e-12, term


class TestEstimatorStructure:
    def test_identity_projection_kills_projection_variance(self):
        problem = two_feature_problem()
        report = estimate_ensemble(
            problem,
            one_tree(TreeConfig(k=2, n_min=25, **ET), ProjectionSpec("identity", 2)),
            n_ls=20,
            n_phi=8,
            n_eps=8,
            seed=0,
        )
        est = report.mean_estimate["var_projection"]
        se = report.mean_se["var_projection"]
        assert abs(est) <= 3.0 * se + 1e-12

    def test_additivity_is_exact(self):
        # The nested estimators telescope: decomposed total equals the direct
        # estimate identically, not just within Monte Carlo error.
        problem = two_feature_problem()
        report = estimate_ensemble(
            problem,
            one_tree(TreeConfig(k=2, n_min=25, **ET), ProjectionSpec("gaussian", 1)),
            n_ls=6,
            n_phi=5,
            n_eps=5,
            seed=2,
        )
        gap = report.estimates["additivity_gap"]
        scale = max(1.0, np.abs(report.estimates["total_direct"]).max())
        assert np.abs(gap).max() <= 1e-12 * scale

    def test_terms_do_not_dip_far_below_zero(self):
        problem = two_feature_problem()
        report = estimate_ensemble(
            problem,
            one_tree(TreeConfig(k=2, n_min=25, **ET), ProjectionSpec("gaussian", 1)),
            n_ls=8,
            n_phi=6,
            n_eps=6,
            seed=3,
        )
        for term in ("bias_sq", "var_learning_sample", "var_algorithm",
                     "var_projection"):
            est = report.estimates[term]
            se = report.se[term]
            assert (est >= -3.0 * se - 1e-12).all(), term

    def test_counts_must_be_at_least_two(self):
        problem = two_feature_problem()
        with pytest.raises(ValueError):
            estimate_ensemble(
                problem,
                one_tree(TreeConfig(k=2, n_min=25, **ET), ProjectionSpec("gaussian", 1)),
                n_ls=1, n_phi=3, n_eps=3,
            )

    @pytest.mark.parametrize("value", [2.5, 1, True])
    @pytest.mark.parametrize("name", ["n_ls", "n_phi", "n_eps"])
    def test_counts_must_be_integers_naming_the_field(self, name, value):
        counts = dict(n_ls=3, n_phi=3, n_eps=3)
        counts[name] = value
        with pytest.raises(ValueError, match="^{} must be".format(name)):
            estimate_ensemble(two_feature_problem(), gaussian_cfg("per_tree_subspace", t=2),
                              **counts)

    def test_problem_needs_a_probe(self):
        with pytest.raises(ValueError, match="at least one probe point"):
            two_feature_problem(n_probes=0)

    @pytest.mark.parametrize("n_ls", [2, 6, 30])
    def test_bootstrap_pass_equals_one_resample_at_a_time(self, n_ls):
        # Reference: each replicate drawn alone, in order, from the same
        # generator, and estimated as the point estimate of its resampled
        # learning samples.
        problem = two_feature_problem()
        P = np.random.default_rng(n_ls).random((n_ls, 3, 4, 5, 2))
        report = decomposition._report_from_predictions(
            problem, P, np.random.default_rng(7), n_bootstrap=40)
        master = np.random.default_rng(7)
        replicates = [
            decomposition._report_from_predictions(
                problem, P[master.integers(0, n_ls, size=n_ls)],
                np.random.default_rng(0), n_bootstrap=2).estimates
            for _ in range(40)
        ]
        for term in TERMS:
            boot = np.array([r[term] for r in replicates])
            np.testing.assert_array_equal(report.se[term], boot.std(axis=0, ddof=1))
            assert report.mean_se[term] == boot.mean(axis=1).std(ddof=1)

    def test_csv_export(self, tmp_path):
        problem = two_feature_problem(n_probes=2)
        report = estimate_ensemble(
            problem,
            one_tree(TreeConfig(k=2, n_min=30, **ET), ProjectionSpec("gaussian", 1)),
            n_ls=3,
            n_phi=2,
            n_eps=2,
            seed=4,
        )
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "probe,term,estimate,se"
        # 2 probes + the probe-mean block, 8 terms each
        assert len(lines) == 1 + 8 * 3


class TestEnsembleDecomposition:
    def test_single_tree_ensemble_matches_single_tree(self):
        # At t=1 both policies draw projection stream 0 and tree stream 1, so
        # the shared and per-tree estimates are the same numbers.
        problem = two_feature_problem()
        counts = dict(n_ls=10, n_phi=8, n_eps=8, seed=5)
        shared = estimate_ensemble(problem, gaussian_cfg("shared_subspace", t=1), **counts)
        per_tree = estimate_ensemble(problem, gaussian_cfg("per_tree_subspace", t=1), **counts)
        for term in TERMS:
            np.testing.assert_array_equal(shared.estimates[term], per_tree.estimates[term])
            np.testing.assert_array_equal(shared.se[term], per_tree.se[term])
            assert shared.mean_estimate[term] == per_tree.mean_estimate[term]
            assert shared.mean_se[term] == per_tree.mean_se[term]

    def test_per_tree_policy_divides_projection_variance_by_t(self):
        problem = two_feature_problem()
        counts = dict(n_ls=10, n_phi=8, n_eps=8)
        shared = estimate_ensemble(
            problem, gaussian_cfg("shared_subspace", t=10), seed=7, **counts
        )
        per_tree = estimate_ensemble(
            problem, gaussian_cfg("per_tree_subspace", t=10), seed=8, **counts
        )
        vp_shared = shared.mean_estimate["var_projection"]
        vp_per = per_tree.mean_estimate["var_projection"]
        se = np.hypot(shared.mean_se["var_projection"] / 10.0,
                      per_tree.mean_se["var_projection"])
        assert abs(vp_per - vp_shared / 10.0) <= 4.0 * se
        # and the shared policy keeps the full projection variance
        assert vp_shared > 5.0 * vp_per

    def test_per_tree_no_worse_than_shared(self):
        problem = two_feature_problem()
        counts = dict(n_ls=10, n_phi=8, n_eps=8)
        shared = estimate_ensemble(
            problem, gaussian_cfg("shared_subspace", t=10), seed=9, **counts
        )
        per_tree = estimate_ensemble(
            problem, gaussian_cfg("per_tree_subspace", t=10), seed=10, **counts
        )
        se = np.hypot(shared.mean_se["total_direct"], per_tree.mean_se["total_direct"])
        assert (
            per_tree.mean_estimate["total_direct"]
            <= shared.mean_estimate["total_direct"] + 3.0 * se
        )


class TestVarianceCurve:
    def test_one_over_t_fit(self):
        problem = two_feature_problem()
        curve = ensemble_variance_curve(
            problem,
            lambda t: gaussian_cfg("per_tree_subspace", t=t),
            [1, 2, 5, 10],
            reps=120,
            seed=11,
        )
        assert curve.r_squared >= 0.9
        assert curve.slope > 0
        assert (np.diff(curve.variances) < 0).all()  # variance shrinks with t

    @pytest.mark.parametrize("reps", [1, 0, 2.5])
    def test_reps_must_be_at_least_two(self, reps):
        with pytest.raises(ValueError, match="^reps must be"):
            ensemble_variance_curve(two_feature_problem(),
                                    lambda t: gaussian_cfg("per_tree_subspace", t=t),
                                    [1, 2], reps=reps)

    @pytest.mark.parametrize("t_values", [[2.5, 3], [1, 3.0], [True, 3]],
                             ids=["fraction", "float", "bool"])
    def test_ensemble_sizes_must_be_integers(self, t_values):
        # 2.5 used to be truncated to an ensemble of 2 trees.
        with pytest.raises(ValueError, match="^t must be"):
            ensemble_variance_curve(two_feature_problem(),
                                    lambda t: gaussian_cfg("per_tree_subspace", t=t),
                                    t_values, reps=2)

    @pytest.mark.parametrize("t_values", [[3], [], [2, 2]], ids=["one", "none", "repeated"])
    def test_needs_two_distinct_ensemble_sizes(self, t_values):
        with pytest.raises(ValueError, match="two distinct ensemble sizes"):
            ensemble_variance_curve(two_feature_problem(),
                                    lambda t: gaussian_cfg("per_tree_subspace", t=t),
                                    t_values, reps=2)
