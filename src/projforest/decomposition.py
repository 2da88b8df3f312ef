"""Monte Carlo decomposition of prediction error into noise, bias and
variances attributable to the learning sample, the tree randomness, and the
projection randomness.

The estimator nests three loops: learning samples (outer), projections
(middle), tree randomness (inner).  Conditional variances are estimated with
Bessel-corrected sample variances; the middle and outer variances subtract
the leakage of the inner ones (variance of a mean of R draws contributes
1/R of the inner variance), so every term is unbiased and may fluctuate
slightly below zero.  Standard errors come from a bootstrap over the outer
learning-sample axis, which dominates the estimator's uncertainty.

One engine, ``_collect_predictions``, draws the learning-sample, projection
and tree seeds from ``stream(seed)`` (one call per kind), fits and predicts;
the variance curve runs it once per ensemble size with n_phi = n_eps = 1.
"""

import csv
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .data import check_integer
from .ensemble import _fit_arrays
from .rng import stream

TERMS = (
    "residual_variance",
    "bias_sq",
    "var_learning_sample",
    "var_algorithm",
    "var_projection",
    "total_decomposed",
    "total_direct",
    "additivity_gap",
)

_SEED_BOUND = 2**63


@dataclass
class SyntheticProblem:
    """A fully known data-generating process for decomposition studies.

    ``conditional_mean`` must be the exact regression function and
    ``residual_variance(x)`` the exact expected squared noise norm at x, so
    neither needs Monte Carlo.  Probe points are where the decomposition is
    evaluated.
    """

    n_train: int
    n_features: int
    n_outputs: int
    sample_inputs: callable
    conditional_mean: callable
    sample_outputs: callable
    residual_variance: callable
    probes: np.ndarray

    def __post_init__(self):
        if np.shape(self.probes)[0] < 1:
            raise ValueError("a problem needs at least one probe point")

    def draw_learning_sample(self, gen):
        X = self.sample_inputs(gen, self.n_train)
        mean = self.conditional_mean(X)
        return X, self.sample_outputs(gen, mean)


def two_feature_problem(n_train=100, noise_sd=0.1, n_probes=5):
    """Smooth 2-feature, 2-output regression problem with gaussian noise.
    ``n_train`` and ``n_probes`` must be integers of at least 1 (no probe
    at all is left to the problem's own check) and ``noise_sd`` a finite
    number of at least 0."""
    check_integer("n_train", n_train, 1)
    check_integer("n_probes", n_probes, 0)
    if isinstance(noise_sd, (bool, np.bool_)) or not isinstance(noise_sd, numbers.Real) \
            or not 0.0 <= noise_sd < math.inf:
        raise ValueError("noise_sd must be a finite number >= 0, got {!r}".format(noise_sd))

    def sample_inputs(gen, n):
        return gen.random((n, 2))

    def conditional_mean(X):
        return np.column_stack([X[:, 0] ** 2, 0.5 * (X[:, 0] + X[:, 1])])

    def sample_outputs(gen, mean):
        return mean + gen.standard_normal(mean.shape) * noise_sd

    def residual_variance(X):
        return np.full(X.shape[0], 2.0 * noise_sd * noise_sd)

    probes = np.linspace(0.1, 0.9, n_probes)
    probes = np.column_stack([probes, probes[::-1]])
    return SyntheticProblem(
        n_train=n_train,
        n_features=2,
        n_outputs=2,
        sample_inputs=sample_inputs,
        conditional_mean=conditional_mean,
        sample_outputs=sample_outputs,
        residual_variance=residual_variance,
        probes=probes,
    )


@dataclass
class DecompositionReport:
    """Per-probe estimates, standard errors, and probe-averaged summaries."""

    probes: np.ndarray
    n_ls: int
    n_phi: int
    n_eps: int
    estimates: dict = field(default_factory=dict)  # term -> (q,) array
    se: dict = field(default_factory=dict)
    mean_estimate: dict = field(default_factory=dict)  # term -> float
    mean_se: dict = field(default_factory=dict)

    def to_csv(self, path):
        """Flat CSV: one row per (probe point, term) plus probe-mean rows."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["probe", "term", "estimate", "se"])
            for qi in range(self.probes.shape[0]):
                for term in TERMS:
                    writer.writerow([qi, term, self.estimates[term][qi], self.se[term][qi]])
            for term in TERMS:
                writer.writerow(["mean", term, self.mean_estimate[term], self.mean_se[term]])


def _collect_predictions(problem, cfg, n_ls, n_phi, n_eps, seed):
    """Prediction tensor P[ls, phi, eps, probe, output] and ``stream(seed)``
    after drawing its seeds; the bootstrap draws from it next."""
    master = stream(seed)
    ls_seeds = master.integers(_SEED_BOUND, size=n_ls)
    phi_seeds = master.integers(_SEED_BOUND, size=(n_ls, n_phi))
    eps_seeds = master.integers(_SEED_BOUND, size=(n_ls, n_phi, n_eps))
    q = problem.probes.shape[0]
    P = np.empty((n_ls, n_phi, n_eps, q, problem.n_outputs))
    for i in range(n_ls):
        X, Y = problem.draw_learning_sample(stream(int(ls_seeds[i])))
        for j in range(n_phi):
            for l in range(n_eps):
                ens, _ = _fit_arrays(
                    X, Y, cfg, int(phi_seeds[i, j]), int(eps_seeds[i, j, l])
                )
                P[i, j, l] = ens.predict(problem.probes)
    return P, master


def _terms_from_stats(h_ls, valgo_ls, vproj_ls, a_ls, fb, sigma2, n_phi, n_eps, idx):
    """Every term from the learning samples ``idx`` (last axis) of the
    per-sample statistics; leading axes of ``idx`` carry through, one set of
    terms per index row."""
    k = idx.shape[-1]
    v_algo = valgo_ls[idx].mean(axis=-2)
    v_proj = vproj_ls[idx].mean(axis=-2)
    h = h_ls[idx]
    fbar = h.mean(axis=-3)
    dev = h - fbar[..., None, :, :]
    vls_raw = np.einsum("...iqd,...iqd->...q", dev, dev) / (k - 1)
    v_ls = vls_raw - (v_proj + v_algo / n_eps) / n_phi
    # The plug-in bias ||fbar - f_B||^2 overshoots by Var(fbar); vls_raw / k
    # estimates exactly that, so subtracting it debiases the term.
    bias_sq = np.einsum("...qd,...qd->...q", fbar - fb, fbar - fb) - vls_raw / k
    total_direct = sigma2 + a_ls[idx].mean(axis=-2)
    total_decomposed = sigma2 + bias_sq + v_ls + v_algo + v_proj
    return {
        "residual_variance": sigma2,
        "bias_sq": bias_sq,
        "var_learning_sample": v_ls,
        "var_algorithm": v_algo,
        "var_projection": v_proj,
        "total_decomposed": total_decomposed,
        "total_direct": total_direct,
        "additivity_gap": total_decomposed - total_direct,
    }


def _report_from_predictions(problem, P, master, n_bootstrap=200):
    """Point estimates and bootstrap standard errors from the prediction
    tensor.  The ``n_bootstrap`` resamples of the learning samples are drawn
    from ``master`` in one call and scored in one array pass, which holds
    (n_bootstrap, n_ls, q, d) arrays: 0.5 MB at n_ls=30, q=5, d=2."""
    n_ls, n_phi, n_eps, q, d = P.shape
    fb = problem.conditional_mean(problem.probes)
    sigma2 = problem.residual_variance(problem.probes)

    mean_eps = P.mean(axis=2)
    dev_eps = P - mean_eps[:, :, None]
    valgo_per_phi = np.einsum("ijlqd,ijlqd->ijq", dev_eps, dev_eps) / (n_eps - 1)
    valgo_ls = valgo_per_phi.mean(axis=1)
    h_ls = mean_eps.mean(axis=1)
    dev_phi = mean_eps - h_ls[:, None]
    vphi_raw = np.einsum("ijqd,ijqd->iq", dev_phi, dev_phi) / (n_phi - 1)
    vproj_ls = vphi_raw - valgo_ls / n_eps
    dev_fb = P - fb
    a_ls = np.einsum("ijlqd,ijlqd->iq", dev_fb, dev_fb) / (n_phi * n_eps)

    stats = (h_ls, valgo_ls, vproj_ls, a_ls, fb, sigma2, n_phi, n_eps)
    point = _terms_from_stats(*stats, np.arange(n_ls))
    boot = _terms_from_stats(*stats, master.integers(0, n_ls, size=(n_bootstrap, n_ls)))

    report = DecompositionReport(
        probes=problem.probes, n_ls=n_ls, n_phi=n_phi, n_eps=n_eps
    )
    for term in TERMS:
        # The residual variance is known, so one (q,) row serves every replicate.
        replicates = boot[term] + np.zeros((n_bootstrap, q))
        report.estimates[term] = np.asarray(point[term], dtype=np.float64) + np.zeros(q)
        report.se[term] = replicates.std(axis=0, ddof=1)
        report.mean_estimate[term] = float(np.mean(point[term]))
        report.mean_se[term] = float(replicates.mean(axis=1).std(ddof=1))
    return report


def estimate_ensemble(problem, cfg, n_ls=30, n_phi=20, n_eps=20, seed=0):
    """Decompose the error of a whole ensemble (any policy) at the probes.

    The middle loop redraws all projection randomness and the inner loop all
    tree randomness, so for the shared-subspace policy the projection slot
    measures the full projection variance while the per-tree policy shows it
    suppressed by 1/t.  Each repetition count must be an integer >= 2.
    """
    for name, value in (("n_ls", n_ls), ("n_phi", n_phi), ("n_eps", n_eps)):
        check_integer(name, value, 2)
    P, master = _collect_predictions(problem, cfg, n_ls, n_phi, n_eps, seed)
    return _report_from_predictions(problem, P, master)


@dataclass
class VarianceCurve:
    """Total prediction variance as a function of ensemble size."""

    t_values: np.ndarray
    variances: np.ndarray
    intercept: float
    slope: float
    r_squared: float


def ensemble_variance_curve(problem, make_config, t_values, reps=400, seed=0):
    """Flat Monte Carlo estimate of total prediction variance versus t.

    Each t value runs ``_collect_predictions`` at its own seed, drawn with
    the others in one call from ``stream(seed)``: ``reps`` learning samples,
    each with one projection and one tree draw, so the variance includes
    every source.  Fits variance ~ a + b/t and reports the fit quality, so
    it needs ``reps >= 2`` and at least two distinct t values, each an
    integer of at least 1.
    """
    check_integer("reps", reps, 2)
    t_values = list(t_values)
    for t in t_values:
        check_integer("t", t, 1)
    t_values = np.asarray(t_values, dtype=np.int64)
    if np.unique(t_values).size < 2:
        raise ValueError("t_values needs at least two distinct ensemble sizes")
    seeds = stream(seed).integers(_SEED_BOUND, size=t_values.size)
    variances = np.empty(t_values.size)
    q = problem.probes.shape[0]
    for ti, t in enumerate(t_values):
        P, _ = _collect_predictions(problem, make_config(int(t)), reps, 1, 1, int(seeds[ti]))
        preds = P[:, 0, 0]
        dev = preds - preds.mean(axis=0)
        variances[ti] = float(np.einsum("rqd,rqd->", dev, dev) / ((reps - 1) * q))
    design = np.column_stack([np.ones(t_values.size), 1.0 / t_values])
    coef, _, _, _ = np.linalg.lstsq(design, variances, rcond=None)
    fitted = design @ coef
    ss_res = float(((variances - fitted) ** 2).sum())
    ss_tot = float(((variances - variances.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return VarianceCurve(t_values, variances, float(coef[0]), float(coef[1]), r2)
