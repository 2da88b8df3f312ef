"""The three workloads: inputs made from the seed, one round of timed
operations, and the checks on that round's outputs.

A round runs the same operations in the same order every time, on the same
inputs and fit seeds, so every round of a run repeats the same work and its
outputs must be bit-identical to the first round's.

Library calls go through module attributes (``ensemble.fit``, not a name
imported once), so the tracer's wrappers are seen when they are installed.
"""

import os

import numpy as np
import scipy.sparse as sp

import projforest.datasets as datasets
import projforest.decomposition as decomposition
import projforest.ensemble as ensemble
import projforest.metrics as metrics
from projforest.data import DataSet
from projforest.projection import ProjectionSpec
from projforest.tree import TreeConfig

import checks

# "full" is what the benchmark measures; "tiny" keeps every code path and
# check and runs in well under a second per round.
SIZES = {
    "full": {
        "yeast_file": dict(n_file=1500, n_train=1000, n_query=5000, p=103, d=14,
                           t=20, k=10, m=3, repeats=dict(predict=3, lrap=3)),
        "wide_labels": dict(n_train=1500, n_query=2000, p=50, d=1000, t=3, k=7, m=7,
                            repeats=dict(fit=2, fit_m1=2, predict=6, lrap=4)),
        "decomposition": dict(n_train=100, n_ls=6, n_phi=4, n_eps=4, n_query=10000,
                              t=10, repeats=dict(predict=10, lrap=2)),
    },
    "tiny": {
        "yeast_file": dict(n_file=200, n_train=150, n_query=60, p=20, d=14, t=3, k=3, m=2,
                           repeats=dict(predict=2)),
        "wide_labels": dict(n_train=100, n_query=50, p=8, d=40, t=2, k=3, m=3,
                            repeats=dict(fit=2, fit_m1=2, lrap=2)),
        "decomposition": dict(n_train=100, n_ls=2, n_phi=2, n_eps=2, n_query=100, t=3,
                              repeats=dict(predict=2)),
    },
}

# The small decomposition estimate that ``yeast_file`` and ``wide_labels`` run
# once a round as their ``harness`` operation, so that their traced runs
# measure the decomposition layer too.  Its spans count only towards the
# ``decomposition.*`` metrics there (see ``side_ops``).
HARNESS = dict(n_ls=2, n_phi=2, n_eps=2, t=10)
NOISE_SD = 0.1

# Rows of the query batch that the literal references recompute.
LRAP_CHECK_ROWS = 200
WALK_CHECK_ROWS = 25


def _check_rows(n, count):
    return np.unique(np.linspace(0, n - 1, min(n, count)).astype(np.int64))


def repeated(clock, size, problems, same, name, fn, *args, **kwargs):
    """Run an operation as many times per round as the size asks (short
    operations repeat so that a run holds enough samples of them).  Returns
    the first result; ``same`` compares each repeat with it."""
    first = clock.op(name, fn, *args, **kwargs)
    for _ in range(size["repeats"].get(name, 1) - 1):
        problems += same(first, clock.op(name, fn, *args, **kwargs), name)
    return first


def harness_config(policy, m, t):
    """The configuration of acceptance criterion 6: k=2, n_min=25, random
    thresholds, gaussian maps.  k=2 matters: with k=1 and two features the
    projection never changes which split wins, and both policies give
    identical estimates."""
    return ensemble.EnsembleConfig(
        t=t,
        tree=TreeConfig(k=2, n_min=25, splitter="random_threshold", bootstrap=False),
        projection=ProjectionSpec("gaussian", m),
        policy=policy,
    )


def _one_hot_argmax(values):
    Y = np.zeros_like(values)
    Y[np.arange(values.shape[0]), np.argmax(values, axis=1)] = 1.0
    return Y


class Workload:
    """Inputs from a seed, and the checks on predictions and LRAP over the
    query batch that every workload shares."""

    load_bytes = 0
    # Operations whose spans count only towards their own layer's metrics.
    side_ops = ()
    first_reports = None

    def __init__(self, seed, size, out_dir):
        self.seed = seed
        self.size = size
        self.out_dir = out_dir
        self.first = None

    def dump(self, ds, kind):
        """Write ``ds`` to this process's data file; it is loaded every round."""
        self.path = os.path.join(self.out_dir, "{}-{}-{}.svm".format(kind, self.seed,
                                                                   os.getpid()))
        datasets.dump_svmlight_multilabel(ds, self.path)
        self.load_bytes = os.path.getsize(self.path)
        X = ds.X_rows()
        self.X_file = X.toarray() if sp.issparse(X) else np.asarray(X)
        self.Y_file = ds.Y_rows().toarray()

    def check_loaded(self, loaded):
        if not (sp.issparse(loaded.X)
                and np.array_equal(loaded.X.toarray(), self.X_file)
                and np.array_equal(loaded.Y.toarray(), self.Y_file)):
            return ["the loaded file differs from the generated matrices"]
        return []

    def check_estimates(self, reports):
        """Every estimate adds up, its residual variance is the problem's 2σ²
        at every probe, and later rounds repeat it bit for bit."""
        problems = []
        sigma2 = 2.0 * NOISE_SD ** 2
        for op, report in reports.items():
            est = report.estimates
            scale = np.maximum(1.0, np.abs(est["total_direct"]))
            if not np.all(np.abs(est["additivity_gap"]) <= 1e-12 * scale):
                problems.append("{}: additivity gap {!r}".format(op, est["additivity_gap"]))
            if not np.allclose(est["residual_variance"], sigma2, rtol=1e-12, atol=0.0):
                problems.append("{}: residual variance {!r} != {!r}".format(
                    op, est["residual_variance"], sigma2))
            if self.first_reports is not None:
                for term, values in est.items():
                    problems += checks.check_identical(
                        self.first_reports[op].estimates[term], values, op + " " + term)
        if self.first_reports is None:
            self.first_reports = reports
        return problems

    def check_query(self, out, predictor, unit_range, Y_train):
        """LRAP and predictions against the references, the label-frequency
        baseline once, and bit-identity with the first round after that."""
        P = out["P"]
        rows = _check_rows(self.Xq.shape[0], LRAP_CHECK_ROWS)
        problems = checks.check_lrap(metrics.lrap(P[rows], self.Yq[rows]), P,
                                     self.Yq_dense, rows, "lrap")
        rows = _check_rows(self.Xq.shape[0], WALK_CHECK_ROWS)
        problems += checks.check_predictions(predictor, P, self.Xq_dense, rows, unit_range,
                                             "predict")
        if self.first is None:
            self.first = {"P": P, "lrap": out["lrap"]}
            base = checks.frequency_baseline_lrap(Y_train, self.Yq_dense)
            if not out["lrap"] > base:
                problems.append("lrap {!r} is not above the label-frequency ranking {!r}"
                                .format(out["lrap"], base))
        else:
            problems += checks.check_identical(self.first["P"], P, "predict")
            problems += checks.check_identical(self.first["lrap"], out["lrap"], "lrap")
        return problems

    def cleanup(self):
        os.remove(self.path)


class LabelWorkload(Workload):
    """Loads the workload's file, fits at the workload's m, at m=1 and at m=d,
    then predict and LRAP over a held-out query batch, and a small
    decomposition estimate.  Subclasses supply the training data."""

    side_ops = ("harness",)

    def __init__(self, seed, size, out_dir):
        super().__init__(seed, size, out_dir)
        self.problem = decomposition.two_feature_problem(n_train=100, noise_sd=NOISE_SD)

    def config(self, m, t=None):
        s = self.size
        return ensemble.EnsembleConfig(
            t=t or s["t"],
            tree=TreeConfig(k=s["k"], splitter="exhaustive", bootstrap=True),
            projection=ProjectionSpec("gaussian", m),
            policy="per_tree_subspace",
            master_seed=self.seed,
        )

    def fit_ops(self):
        return (("fit", self.size["m"]), ("fit_m1", 1), ("fit_md", self.size["d"]))

    def _make_query(self, ds, start):
        rows = np.arange(start, ds.n_samples)
        self.Xq = ds.X[rows]
        self.Yq = ds.Y[rows]
        self.Xq_dense = self.Xq.toarray() if sp.issparse(self.Xq) else self.Xq
        self.Yq_dense = self.Yq.toarray()

    def harness(self, clock):
        return clock.op("harness", decomposition.estimate_ensemble, self.problem,
                        harness_config("per_tree_subspace", 1, HARNESS["t"]),
                        n_ls=HARNESS["n_ls"], n_phi=HARNESS["n_phi"], n_eps=HARNESS["n_eps"], seed=self.seed)

    def warm_up(self, train):
        ens = ensemble.fit(train, self.config(1, t=1))
        metrics.lrap(ens.predict(self.Xq), self.Yq)
        datasets.load_svmlight_multilabel(self.path)
        self.harness(_Untimed())

    def fit_predict_lrap(self, clock, train):
        problems = []
        fitted = {op: repeated(clock, self.size, problems, checks.check_same_trees, op,
                               ensemble.fit, train, self.config(m))
                  for op, m in self.fit_ops()}
        P = repeated(clock, self.size, problems, checks.check_identical, "predict",
                     fitted["fit"].predict, self.Xq)
        value = repeated(clock, self.size, problems, checks.check_identical, "lrap",
                         metrics.lrap, P, self.Yq)
        return {"fitted": fitted, "P": P, "lrap": value, "train": train,
                "harness": self.harness(clock), "problems": problems}

    def check(self, out):
        problems = out["problems"] + self.check_loaded(out["loaded"])
        for op, ens in out["fitted"].items():
            problems += checks.check_trees(ens, self.size["n_train"], op)
        problems += self.check_query(out, out["fitted"]["fit"], True, out["train"].Y_rows())
        problems += self.check_estimates({"harness": out["harness"]})
        return problems


class YeastFile(LabelWorkload):
    """Yeast-sized clustered data read from an svmlight file, split and fitted
    along the path the ``projforest fit`` command takes."""

    name = "yeast_file"

    def setup(self):
        s = self.size
        ds = datasets.make_synthetic_multilabel(
            s["n_file"] + s["n_query"], s["p"], s["d"], n_clusters=32,
            labels_per_cluster=4, noise=1.0, flip=0.005, seed=self.seed,
        )
        self.dump(ds.row_slice(np.arange(s["n_file"])).materialize(), "yeast")
        # The query batch is held out and sparse, like rows read from a file.
        self._make_query(ds, s["n_file"])
        self.Xq = sp.csr_matrix(self.Xq)
        self.plan = datasets.SplitPlan("fixed_holdout", n_train=s["n_train"], seed=self.seed)
        loaded = datasets.load_svmlight_multilabel(self.path)
        self.warm_up(datasets.make_splits(loaded, self.plan)[0][0])

    def round(self, clock):
        ds = clock.op("load", datasets.load_svmlight_multilabel, self.path)
        train = clock.op("split", datasets.make_splits, ds, self.plan)[0][0]
        out = self.fit_predict_lrap(clock, train)
        out["loaded"] = ds
        return out


class WideLabels(LabelWorkload):
    """Dense features and 1000 labels: the paper's m-versus-d claim.  The
    training set is also written to a file and loaded every round, but fitted
    from the dense matrices, so the fits take the dense-feature path."""

    name = "wide_labels"

    def setup(self):
        s = self.size
        ds = datasets.make_synthetic_multilabel(
            s["n_train"] + s["n_query"], s["p"], s["d"], n_clusters=16,
            labels_per_cluster=10, noise=1.0, flip=0.002, seed=self.seed,
        )
        self.train = ds.row_slice(np.arange(s["n_train"])).materialize()
        self.dump(self.train, "wide")
        self._make_query(ds, s["n_train"])
        self.warm_up(self.train)

    def round(self, clock):
        loaded = clock.op("load", datasets.load_svmlight_multilabel, self.path)
        out = self.fit_predict_lrap(clock, self.train)
        out["loaded"] = loaded
        return out


class Decomposition(Workload):
    """The Monte Carlo bias/variance harness on the two-feature problem, with
    the configuration of acceptance criterion 6 at reduced repetition counts.

    ``fit`` is the shared-subspace estimate, ``fit_m1`` the per-tree estimate
    at m=1 and ``fit_md`` the per-tree estimate at m=d=2.  Predict and LRAP
    use one per-tree ensemble fitted in set-up, on a query batch whose
    relevant label is the output with the larger true mean.  The query batch
    is also written to a file and loaded every round.
    """

    name = "decomposition"

    def config(self, policy, m):
        return harness_config(policy, m, self.size["t"])

    def setup(self):
        s = self.size
        self.problem = decomposition.two_feature_problem(
            n_train=s["n_train"], noise_sd=NOISE_SD
        )
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))
        X, Y = self.problem.draw_learning_sample(gen)
        self.Xq = self.Xq_dense = self.problem.sample_inputs(gen, s["n_query"])
        self.Yq_dense = _one_hot_argmax(self.problem.conditional_mean(self.Xq))
        self.Yq = sp.csr_matrix(self.Yq_dense)
        self.dump(DataSet(self.Xq, self.Yq), "decomposition")
        self.Y_train = _one_hot_argmax(self.problem.conditional_mean(X))
        cfg = self.config("per_tree_subspace", 1)
        self.predictor, _ = ensemble._fit_arrays(X, Y, cfg, self.seed, self.seed)
        decomposition.estimate_ensemble(self.problem, cfg, n_ls=2, n_phi=2, n_eps=2,
                                        seed=self.seed)
        metrics.lrap(self.predictor.predict(self.Xq), self.Yq)
        datasets.load_svmlight_multilabel(self.path)

    def round(self, clock):
        s = self.size
        loaded = clock.op("load", datasets.load_svmlight_multilabel, self.path)
        counts = dict(n_ls=s["n_ls"], n_phi=s["n_phi"], n_eps=s["n_eps"], seed=self.seed)
        reports = {}
        for op, policy, m in (("fit", "shared_subspace", 1),
                              ("fit_m1", "per_tree_subspace", 1),
                              ("fit_md", "per_tree_subspace", 2)):
            reports[op] = clock.op(op, decomposition.estimate_ensemble, self.problem,
                                   self.config(policy, m), **counts)
        problems = []
        P = repeated(clock, s, problems, checks.check_identical, "predict",
                     self.predictor.predict, self.Xq)
        value = repeated(clock, s, problems, checks.check_identical, "lrap",
                         metrics.lrap, P, self.Yq)
        return {"reports": reports, "P": P, "lrap": value, "loaded": loaded,
                "problems": problems}

    def check(self, out):
        problems = out["problems"] + self.check_loaded(out["loaded"])
        problems += self.check_estimates(out["reports"])
        shared, per_tree = out["reports"]["fit"], out["reports"]["fit_m1"]
        if np.array_equal(shared.estimates["total_direct"], per_tree.estimates["total_direct"]):
            problems.append("shared and per-tree estimates are identical")
        problems += checks.check_trees(self.predictor, self.size["n_train"], "predictor",
                                       binary_labels=False)
        problems += self.check_query(out, self.predictor, False, self.Y_train)
        return problems


class _Untimed:
    """Stands in for the clock where an operation runs outside the timing."""

    @staticmethod
    def op(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


WORKLOADS = {cls.name: cls for cls in (YeastFile, WideLabels, Decomposition)}
