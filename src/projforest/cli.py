"""Command-line benchmark harness.

Subcommands::

    projforest fit       --data D.svm --config run.cfg [--seed N] [--out model.json]
    projforest grid      --data D.svm --config grid.cfg --out rows.csv
    projforest summarize --data rows.csv [--baseline policy=no_projection] [--out table.csv]
    projforest decompose [--config counts.cfg] [--seed N] [--out report.csv]

``fit`` and ``grid`` read the flat key/value config grammar documented in the
README; ``summarize`` consumes the CSV written by ``grid``.  Every experiment
step (config to ensemble, split, fit, score) is :mod:`projforest.bench`'s;
this module parses arguments, prints and saves.  Exit status is 0 on success
and 1 with a diagnostic on stderr otherwise.  Each command takes only the
flags listed for it; argparse rejects any other with exit status 2.
"""

import argparse
import logging
import sys

from .bench import (
    GRID_AXES,
    _scalar,
    experiment_from_config,
    first_split,
    fit_point,
    load_logged,
    make_ensemble_config,
    parse_config_text,
    read_grid_csv,
    run_grid,
    summarize,
    write_grid_csv,
    write_summary_csv,
)
from .decomposition import estimate_ensemble, two_feature_problem


def _read_text(path):
    with open(path) as fh:
        return fh.read()


def _cmd_fit(args):
    text = _read_text(args.config) if args.config else "split = fixed_holdout"
    cfg = experiment_from_config(text, data=args.data, seed=args.seed)
    listed = [axis for axis, values in cfg.grid.items() if len(values) != 1]
    if listed:
        raise ValueError("fit needs a scalar config; axes with several values: "
                         + ", ".join(listed))
    point = {axis: values[0] for axis, values in cfg.grid.items()}
    train, test = first_split(load_logged(cfg.data), cfg.plan)
    ensemble, row = fit_point(point, train, test, cfg.seed, 0)
    print("fitted t={t} policy={policy} m={m_resolved} k={k_resolved} in "
          "{fit_seconds:.3f}s (projection {project_seconds:.3f}s)".format(**row))
    if test is not None:
        print("test lrap = {lrap:.4f} over {retained} samples".format(**row))
    if args.out:
        ensemble.save(args.out)
        print("model written to {}".format(args.out))
    return 0


def _cmd_grid(args):
    if not args.config:
        raise ValueError("grid requires --config")
    if not args.out:
        raise ValueError("grid requires --out")
    cfg = experiment_from_config(
        _read_text(args.config), data=args.data, seed=args.seed
    )
    rows = run_grid(cfg)
    write_grid_csv(rows, args.out)
    print("{} rows written to {}".format(len(rows), args.out))
    return 0


def _parse_baseline(text):
    baseline = {}
    for part in text.split(","):
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError("baseline entries look like axis=value")
        baseline[key.strip()] = value.strip()
    return baseline


def _cmd_summarize(args):
    if not args.data:
        raise ValueError("summarize requires --data (a grid CSV)")
    rows = read_grid_csv(args.data)
    baseline = _parse_baseline(args.baseline) if args.baseline else None
    table = summarize(rows, baseline=baseline)
    if args.out:
        write_summary_csv(table, args.out)
        print("{} grid points written to {}".format(len(table), args.out))
    else:
        for entry in table:
            print(entry)
    return 0


# Keys of a ``decompose`` config and their defaults.
DECOMPOSE_DEFAULTS = {
    "n_train": "100", "noise_sd": "0.1", "k": "2", "n_min": "25",
    "splitter": "random_threshold", "bootstrap": "false",
    "policy": "per_tree_subspace", "kind": "gaussian", "m": "1", "t": "10",
    "n_ls": "30", "n_phi": "20", "n_eps": "20", "seed": "0",
}


def _cmd_decompose(args):
    raw = parse_config_text(_read_text(args.config)) if args.config else {}
    unknown = sorted(set(raw) - set(DECOMPOSE_DEFAULTS))
    if unknown:
        raise ValueError("unknown config key(s): {}".format(", ".join(unknown)))

    def get(key):
        return _scalar(raw, key, DECOMPOSE_DEFAULTS[key])

    problem = two_feature_problem(
        n_train=int(get("n_train")), noise_sd=float(get("noise_sd"))
    )
    point = {axis: "1" if axis == "s" else get(axis) for axis in GRID_AXES}
    cfg = make_ensemble_config(point, problem.n_outputs, problem.n_features, 0)[0]
    report = estimate_ensemble(
        problem,
        cfg,
        n_ls=int(get("n_ls")),
        n_phi=int(get("n_phi")),
        n_eps=int(get("n_eps")),
        seed=args.seed if args.seed is not None else int(get("seed")),
    )
    for term in ("residual_variance", "bias_sq", "var_learning_sample",
                 "var_algorithm", "var_projection", "total_direct"):
        print(
            "{:>20}: {:.6f} (se {:.6f})".format(
                term, report.mean_estimate[term], report.mean_se[term]
            )
        )
    if args.out:
        report.to_csv(args.out)
        print("report written to {}".format(args.out))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="projforest",
        description="Benchmark harness for label-space-projected tree ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "data": dict(help="dataset path (or input CSV for summarize)"),
        "config": dict(help="flat key/value config file"),
        "seed": dict(type=int, default=None),
        "out": dict(help="output path"),
        "baseline": dict(
            help="axis=value[,axis=value...] naming the baseline grid point"
        ),
    }
    for name, func, names in (
        ("fit", _cmd_fit, ("data", "config", "seed", "out")),
        ("grid", _cmd_grid, ("data", "config", "seed", "out")),
        ("summarize", _cmd_summarize, ("data", "baseline", "out")),
        ("decompose", _cmd_decompose, ("config", "seed", "out")),
    ):
        cmd = sub.add_parser(name)
        for flag in names:
            cmd.add_argument("--" + flag, **flags[flag])
        cmd.set_defaults(func=func)
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - diagnostics, nonzero exit
        print("error: {}".format(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
