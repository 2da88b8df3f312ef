"""Where the error of a projected-output forest comes from.

On a synthetic regression problem whose true conditional mean is known
exactly, nested Monte Carlo splits the expected squared error at probe points
into irreducible noise, squared bias, and three variance sources: the
learning-sample draw, the tree randomness, and the projection draw.  Ensemble
averaging divides the tree-randomness term by t in both policies; only the
per-tree-subspace policy also divides the projection term by t, which is why
it can never lose to the shared policy on average.
"""

from projforest import (
    EnsembleConfig,
    ProjectionSpec,
    TreeConfig,
    ensemble_variance_curve,
    estimate_ensemble,
    two_feature_problem,
)

problem = two_feature_problem(n_train=100, noise_sd=0.1)
tree_cfg = TreeConfig(k=2, n_min=25, splitter="random_threshold", bootstrap=False)
spec = ProjectionSpec("gaussian", 1)
counts = dict(n_ls=15, n_phi=10, n_eps=10)
TERMS = ("residual_variance", "bias_sq", "var_learning_sample",
         "var_algorithm", "var_projection", "total_direct")


def show(title, report):
    print(title)
    for term in TERMS:
        print(f"   {term:<22} {report.mean_estimate[term]:+.5f}"
              f"  (se {report.mean_se[term]:.5f})")
    print()


# A single tree is the t=1 ensemble; at t=1 both policies grow the same tree.
single = EnsembleConfig(t=1, tree=tree_cfg, projection=spec, policy="per_tree_subspace")
show(
    "single tree, labels projected to m=1:",
    estimate_ensemble(problem, single, seed=1, **counts),
)

t = 10
for policy in ("shared_subspace", "per_tree_subspace"):
    cfg = EnsembleConfig(t=t, tree=tree_cfg, projection=spec, policy=policy)
    show(
        f"{policy} ensemble, t={t}:",
        estimate_ensemble(problem, cfg, seed=2, **counts),
    )

print("total prediction variance of the per-tree policy vs ensemble size:")
curve = ensemble_variance_curve(
    problem,
    lambda t: EnsembleConfig(t=t, tree=tree_cfg, projection=spec,
                             policy="per_tree_subspace"),
    [1, 2, 5, 10, 25],
    reps=200,
    seed=3,
)
for t, v in zip(curve.t_values, curve.variances):
    print(f"   t={t:>3}: variance {v:.5f}")
print(
    f"   fit a + b/t: a={curve.intercept:.5f}, b={curve.slope:.5f}, "
    f"R^2={curve.r_squared:.4f}"
)
print(
    "\nThe shared policy keeps the full projection variance no matter how many\n"
    "trees it grows; the per-tree policy drives it down like 1/t."
)
