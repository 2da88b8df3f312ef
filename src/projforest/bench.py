"""Benchmark harness: run ensemble configurations over a grid, emit CSV.

A grid is the cartesian product of the list-valued axes (m, k, t, n_min,
policy, kind, splitter, bootstrap, s) crossed with the split repeats of the
chosen plan.  Symbolic sizes are resolved against the loaded dataset:

* ``m``: ``1``, integers, ``ln_d`` (nearest integer to ln d), ``2ln_d``, ``d``
* ``k``: integers, ``sqrt_p`` (floor of the square root), ``p``
* ``s``: numbers or ``sqrt_d``

Rows are keyed by the symbolic values so different datasets group the same
way.  The master seed of a fit depends only on (experiment seed, repeat id),
never on the grid point, so configurations that are mathematically equivalent
(identity projection vs no projection) produce identical models.
"""

import csv
import itertools
import logging
import math
import re
import time
from dataclasses import dataclass, field

from .data import check_integer
from .datasets import SplitPlan, load_svmlight_multilabel, make_splits
from .ensemble import EnsembleConfig, fit_timed
from .metrics import lrap
from .projection import ProjectionSpec
from .tree import TreeConfig

logger = logging.getLogger(__name__)

CSV_SCHEMA_COMMENT = "# projforest-grid-csv-v1"
GRID_AXES = ("m", "k", "t", "n_min", "policy", "kind", "splitter", "bootstrap", "s")
CSV_COLUMNS = GRID_AXES + (
    "m_resolved",
    "k_resolved",
    "s_resolved",
    "repeat",
    "lrap",
    "fit_seconds",
    "project_seconds",
)
TIMING_COLUMNS = ("fit_seconds", "project_seconds")
# Scalar keys of an experiment config besides the grid axes.
CONFIG_KEYS = ("data", "split", "train_size", "test_size", "repeats", "folds",
               "split_seed", "seed", "fit_repeats")

_AXIS_DEFAULTS = {
    "m": "d",
    "k": "sqrt_p",
    "t": "100",
    "n_min": "1",
    "policy": "per_tree_subspace",
    "kind": "gaussian",
    "splitter": "exhaustive",
    "bootstrap": "true",
    "s": "1",
}


def resolve_m(symbol, d):
    """Resolve a symbolic projection size against the label count."""
    if symbol == "d":
        return d
    if symbol == "ln_d":
        return max(1, int(math.floor(0.5 + math.log(d))))
    if symbol == "2ln_d":
        return max(1, int(math.floor(0.5 + 2.0 * math.log(d))))
    value = int(symbol)
    if value < 1:
        raise ValueError("m must be >= 1, got {}".format(value))
    return value


def resolve_k(symbol, p):
    """Resolve a symbolic feature-subset size against the feature count."""
    if symbol == "p":
        return p
    if symbol == "sqrt_p":
        return max(1, int(math.isqrt(p)))
    value = int(symbol)
    if value < 1:
        raise ValueError("k must be >= 1, got {}".format(value))
    return value


def resolve_s(symbol, d):
    if symbol == "sqrt_d":
        return math.sqrt(d)
    return float(symbol)


def _parse_bool(symbol):
    low = symbol.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError("expected a boolean, got {!r}".format(symbol))


def parse_config_text(text):
    """Parse the flat ``key = value[, value...]`` config grammar.

    Full-line ``#`` comments, trailing comments (a ``#`` after whitespace)
    and blank lines are ignored.  Values are kept as strings;
    comma-separated values become lists.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"\s#", raw, maxsplit=1)[0].strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError("config line {}: expected 'key = value'".format(lineno))
        key = key.strip()
        values = [v.strip() for v in value.split(",")]
        if any(not v for v in values):
            raise ValueError("config line {}: empty value".format(lineno))
        out[key] = values
    return out


def _scalar(raw, key, default=None):
    values = raw.get(key)
    if values is None:
        return default
    if len(values) != 1:
        raise ValueError("config key {!r} must be a single value".format(key))
    return values[0]


@dataclass
class ExperimentConfig:
    """A dataset, a split plan, and a grid of ensemble configurations.

    ``fit_repeats`` refits every grid point that many times per split with
    fresh master seeds: repeated randomized runs on one fixed split
    (``fixed_holdout`` plus ``fit_repeats = 10``) and fresh-split repetitions
    (``shuffled_repeats``) are both expressible.  ``seed`` must be an
    integer >= 0 and ``fit_repeats`` one >= 1.  ``grid`` is copied, not
    changed, and an axis given as anything but a list or tuple of values (one
    string, say) is rejected.
    """

    data: str
    plan: SplitPlan
    grid: dict = field(default_factory=dict)  # axis -> list of symbolic values
    seed: int = 0
    fit_repeats: int = 1

    def __post_init__(self):
        self.grid = dict(self.grid)
        for axis, values in self.grid.items():
            if axis not in GRID_AXES:
                raise ValueError("unknown grid axis: {!r}".format(axis))
            if not isinstance(values, (list, tuple)):
                raise ValueError("grid axis {!r} must be a list of values, got "
                                 "{!r}".format(axis, values))
        for axis, default in _AXIS_DEFAULTS.items():
            self.grid.setdefault(axis, [default])
        if any(len(v) == 0 for v in self.grid.values()):
            raise ValueError("grid axes must be non-empty")
        check_integer("seed", self.seed, 0)
        check_integer("fit_repeats", self.fit_repeats, 1)


def experiment_from_config(text, data=None, seed=None):
    """Build an :class:`ExperimentConfig` from config text plus CLI overrides."""
    raw = parse_config_text(text)
    unknown = sorted(set(raw) - set(GRID_AXES) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError("unknown config key(s): {}".format(", ".join(unknown)))
    grid = {axis: raw[axis] for axis in GRID_AXES if axis in raw}

    mode = _scalar(raw, "split", "shuffled_repeats")
    n_train = _scalar(raw, "train_size")
    n_test = _scalar(raw, "test_size")
    plan = SplitPlan(
        mode=mode,
        n_train=None if n_train is None else int(n_train),
        n_test=None if n_test is None else int(n_test),
        count=int(_scalar(raw, "repeats", "10")),
        folds=int(_scalar(raw, "folds", "10")),
        seed=int(_scalar(raw, "split_seed", "0")),
    )
    cfg_seed = seed if seed is not None else int(_scalar(raw, "seed", "0"))
    cfg_data = data if data is not None else _scalar(raw, "data")
    if cfg_data is None:
        raise ValueError("no dataset path: pass --data or set 'data' in the config")
    return ExperimentConfig(
        data=cfg_data,
        plan=plan,
        grid=grid,
        seed=cfg_seed,
        fit_repeats=int(_scalar(raw, "fit_repeats", "1")),
    )


def make_ensemble_config(point, d, p, master_seed):
    """Translate one symbolic grid point into a concrete ensemble config."""
    m = resolve_m(point["m"], d)
    k = resolve_k(point["k"], p)
    s = resolve_s(point["s"], d)
    tree = TreeConfig(
        k=k,
        n_min=int(point["n_min"]),
        splitter=point["splitter"],
        bootstrap=_parse_bool(point["bootstrap"]),
    )
    policy = point["policy"]
    projection = (
        None if policy == "no_projection" else ProjectionSpec(point["kind"], m, s)
    )
    cfg = EnsembleConfig(t=int(point["t"]), tree=tree, projection=projection,
                         policy=policy, master_seed=master_seed)
    return cfg, m, k, s


def load_logged(path):
    """Load an svmlight dataset and log its shape and load time."""
    tic = time.perf_counter()
    ds = load_svmlight_multilabel(path)
    logger.info(
        "loaded %s (n=%d, p=%d, d=%d) in %.3f s",
        path, ds.n_samples, ds.n_features, ds.n_labels,
        time.perf_counter() - tic,
    )
    return ds


def first_split(ds, plan):
    """The (train, test) views of grid repeat 0, or all rows and no test view
    when the plan is a holdout or shuffled plan without a train size."""
    if plan.mode != "kfold" and plan.n_train is None:
        return ds, None
    return make_splits(ds, plan)[0]


def fit_point(point, train, test, seed, repeat):
    """Fit one symbolic grid point on the ``train`` view and time the fit;
    given a ``test`` view, also score it.  The fit's master seed is
    ``seed * 1_000_003 + repeat``, a function of the experiment seed and
    the repeat id alone.  Returns the ensemble and the point's row: its axis
    values, resolved sizes and timing columns, plus ``lrap`` and
    ``retained`` (the test rows scored) with a test view.  Errors propagate
    to the caller."""
    ens_cfg, m, k, s = make_ensemble_config(
        point, train.n_labels, train.n_features, seed * 1_000_003 + repeat
    )
    tic = time.perf_counter()
    ensemble, timing = fit_timed(train, ens_cfg)
    row = dict(point, m_resolved=m, k_resolved=k, s_resolved=s,
               fit_seconds=time.perf_counter() - tic,
               project_seconds=timing.generate_project_seconds)
    if test is not None:
        row["lrap"], row["retained"] = lrap(
            ensemble.predict(test.X_rows()), test.Y_rows(), return_retained=True
        )
    return ensemble, row


def run_grid(cfg, ds=None):
    """Fit and score every (grid point, split repeat); returns CSV row dicts.

    A grid point that fails on any repeat is logged and skipped: none of its
    rows are kept, and the run continues.  Everything except the two
    wall-clock columns is deterministic under the seed.
    """
    if ds is None:
        ds = load_logged(cfg.data)
    splits = make_splits(ds, cfg.plan)
    rows = []
    axes = [cfg.grid[axis] for axis in GRID_AXES]
    for values in itertools.product(*axes):
        point = dict(zip(GRID_AXES, values))
        point_rows = []
        try:
            for split_id, (train, test) in enumerate(splits):
                for fit_id in range(cfg.fit_repeats):
                    repeat = split_id * cfg.fit_repeats + fit_id
                    _, row = fit_point(point, train, test, cfg.seed, repeat)
                    row["repeat"] = repeat
                    point_rows.append(row)
        except Exception as exc:  # noqa: BLE001 - abort point, keep the run
            logger.warning("grid point %r aborted: %s", point, exc)
        else:
            rows += point_rows
    return rows


def write_grid_csv(rows, path):
    with open(path, "w", newline="") as fh:
        fh.write(CSV_SCHEMA_COMMENT + "\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([row[c] for c in CSV_COLUMNS])


def read_grid_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def summarize(rows, baseline=None):
    """Group rows by grid point; report the mean and std of ``lrap`` and a
    deviation flag.

    ``baseline`` names one grid point by a subset of axis values (for example
    ``{"policy": "no_projection"}``); any group whose mean deviates from the
    baseline mean by more than one baseline standard deviation is flagged.
    The std uses the population convention, so a single repeat gives 0 and
    means are then compared directly.
    """
    if not rows:
        raise ValueError("no rows to summarize")
    groups = {}
    for row in rows:
        key = tuple(str(row[a]) for a in GRID_AXES)
        groups.setdefault(key, []).append(float(row["lrap"]))

    def moments(values):
        n = len(values)
        mean = sum(values) / n
        var = sum((v - mean) ** 2 for v in values) / n
        return mean, math.sqrt(var), n

    base_mean = base_std = None
    if baseline is not None:
        for axis in baseline:
            if axis not in GRID_AXES:
                raise ValueError("unknown baseline axis: {!r}".format(axis))
        matches = [
            key
            for key in groups
            if all(key[GRID_AXES.index(a)] == str(v) for a, v in baseline.items())
        ]
        if not matches:
            raise ValueError("baseline {!r} matches no grid point".format(baseline))
        if len(matches) > 1:
            raise ValueError(
                "baseline {!r} is ambiguous: {} grid points match".format(
                    baseline, len(matches)
                )
            )
        base_mean, base_std, _ = moments(groups[matches[0]])

    table = []
    for key in sorted(groups):
        mean, std, n = moments(groups[key])
        entry = dict(zip(GRID_AXES, key))
        entry.update(mean=mean, std=std, n=n)
        if base_mean is None:
            entry["flagged"] = ""
        else:
            entry["flagged"] = str(abs(mean - base_mean) > base_std).lower()
        table.append(entry)
    return table


def write_summary_csv(table, path):
    columns = GRID_AXES + ("mean", "std", "n", "flagged")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for entry in table:
            writer.writerow([entry[c] for c in columns])
