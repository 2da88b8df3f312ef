import logging
import math
from pathlib import Path

import numpy as np
import pytest

from projforest import (
    ExperimentConfig,
    SplitPlan,
    make_synthetic_multilabel,
    read_grid_csv,
    run_grid,
    summarize,
    write_grid_csv,
)
from projforest.bench import (
    CSV_COLUMNS,
    TIMING_COLUMNS,
    experiment_from_config,
    make_ensemble_config,
    parse_config_text,
    resolve_k,
    resolve_m,
    resolve_s,
)


class TestConfigParsing:
    def test_grammar(self):
        raw = parse_config_text(
            "# comment\n"
            "data = some/path.svm\n"
            "m = 1, ln_d, d\n"
            "t = 5\n"
            "\n"
        )
        assert raw["data"] == ["some/path.svm"]
        assert raw["m"] == ["1", "ln_d", "d"]
        assert raw["t"] == ["5"]

    def test_bad_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config_text("just words\n")

    def test_empty_value(self):
        with pytest.raises(ValueError):
            parse_config_text("m = 1,,2\n")

    def test_experiment_from_config(self):
        cfg = experiment_from_config(
            "data = x.svm\nsplit = kfold\nfolds = 5\nm = 1, d\nseed = 3\n"
        )
        assert cfg.data == "x.svm"
        assert cfg.plan.mode == "kfold"
        assert cfg.plan.folds == 5
        assert cfg.grid["m"] == ["1", "d"]
        assert cfg.grid["k"] == ["sqrt_p"]  # default
        assert cfg.seed == 3

    def test_trailing_comments_stripped(self):
        raw = parse_config_text(
            "split = kfold   # fixed_holdout | kfold\n"
            "m = 1, d\t# two values\n"
            "  # an indented comment line\n"
            "data = runs/a#b.svm\n"
        )
        assert raw == {"split": ["kfold"], "m": ["1", "d"], "data": ["runs/a#b.svm"]}

    def test_readme_example_config_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("### Config file grammar")[1].split("```")[1]
        cfg = experiment_from_config(example)
        assert cfg.data == "data/emotions.svm"
        assert cfg.plan.mode == "shuffled_repeats"
        assert (cfg.plan.n_train, cfg.plan.n_test) == (391, 202)
        assert cfg.seed == 7
        assert cfg.grid["m"] == ["1", "ln_d", "d"]

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="threads, trees"):
            experiment_from_config("data = x.svm\nthreads = 2\ntrees = 5\nm = 1\n")

    def test_overrides_win(self):
        cfg = experiment_from_config("data = x.svm\nseed = 3\n", data="y.svm", seed=9)
        assert cfg.data == "y.svm"
        assert cfg.seed == 9

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                data="x", plan=SplitPlan("kfold"), grid={"depth": ["3"]}
            )

    def test_empty_grid_axis_rejected(self):
        with pytest.raises(ValueError, match="grid axes must be non-empty"):
            ExperimentConfig(data="x", plan=SplitPlan("kfold"), grid={"m": []})

    def test_grid_is_copied_not_changed(self):
        grid = {"m": ["1"]}
        cfg = ExperimentConfig(data="x", plan=SplitPlan("kfold"), grid=grid)
        assert grid == {"m": ["1"]}
        assert cfg.grid["m"] == ["1"] and cfg.grid["k"] == ["sqrt_p"]

    def test_string_axis_rejected(self):
        # A bare "12" would run the points m="1" and m="2".
        with pytest.raises(ValueError, match="^grid axis 'm' must be a list of values"):
            ExperimentConfig(data="x", plan=SplitPlan("kfold"), grid={"m": "12"})

    @pytest.mark.parametrize("values", [12, None, 1.5, {1: 2}])
    def test_axis_that_is_not_a_list_rejected(self, values):
        with pytest.raises(ValueError, match="^grid axis 'm' must be a list of values"):
            ExperimentConfig(data="x", plan=SplitPlan("kfold"), grid={"m": values})

    def test_dataset_path_required(self):
        with pytest.raises(ValueError, match="^no dataset path: pass --data"):
            experiment_from_config("m = 1\n")

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", -1), ("seed", True), ("seed", "0"),
        ("fit_repeats", 2.5), ("fit_repeats", 0), ("fit_repeats", True),
        ("fit_repeats", None),
    ])
    def test_fields_must_be_integers_in_range(self, field, value):
        with pytest.raises(ValueError, match="^{} must be".format(field)):
            ExperimentConfig(data="x", plan=SplitPlan("kfold"), **{field: value})


class TestSymbolResolution:
    def test_m_symbols(self):
        assert resolve_m("1", 983) == 1
        assert resolve_m("d", 983) == 983
        # nearest-integer rounding of ln d
        assert resolve_m("ln_d", 6) == 2
        assert resolve_m("ln_d", 983) == 7
        assert resolve_m("ln_d", 3993) == 8
        assert resolve_m("2ln_d", 1000) == 14
        with pytest.raises(ValueError):
            resolve_m("0", 10)

    def test_k_symbols(self):
        assert resolve_k("p", 72) == 72
        assert resolve_k("sqrt_p", 72) == 8
        assert resolve_k("sqrt_p", 2407) == 49
        assert resolve_k("5", 72) == 5

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="^k must be >= 1, got 0$"):
            resolve_k("0", 72)

    def test_bootstrap_must_be_a_boolean(self):
        point = {"m": "1", "k": "2", "t": "3", "n_min": "1", "policy": "per_tree_subspace",
                 "kind": "gaussian", "splitter": "exhaustive", "bootstrap": "maybe",
                 "s": "1"}
        with pytest.raises(ValueError, match="^expected a boolean, got 'maybe'$"):
            make_ensemble_config(point, 8, 5, 0)

    def test_s_symbols(self):
        assert resolve_s("3", 100) == 3.0
        assert resolve_s("sqrt_d", 100) == 10.0


def quick_experiment(grid, seed=5, repeats=2):
    ds = make_synthetic_multilabel(60, 5, 8, n_clusters=5, seed=21)
    cfg = ExperimentConfig(
        data="<in-memory>",
        plan=SplitPlan("shuffled_repeats", n_train=40, n_test=20, count=repeats, seed=1),
        grid=grid,
        seed=seed,
    )
    return ds, cfg


class TestRunGrid:
    def test_identity_equals_no_projection_per_repeat(self):
        ds, cfg = quick_experiment(
            {
                "m": ["d"],
                "t": ["3"],
                "policy": ["shared_subspace", "no_projection"],
                "kind": ["identity"],
            }
        )
        rows = run_grid(cfg, ds=ds)
        by_policy = {}
        for row in rows:
            by_policy.setdefault(row["policy"], {})[row["repeat"]] = row["lrap"]
        assert by_policy["shared_subspace"] == by_policy["no_projection"]

    def test_deterministic_rows(self):
        ds, cfg = quick_experiment({"m": ["1", "2"], "t": ["2"]})
        a = run_grid(cfg, ds=ds)
        b = run_grid(cfg, ds=ds)
        keep = [c for c in CSV_COLUMNS if c not in TIMING_COLUMNS]
        assert [{c: r[c] for c in keep} for r in a] == [
            {c: r[c] for c in keep} for r in b
        ]

    def test_failing_point_logged_and_skipped(self, caplog):
        ds, cfg = quick_experiment(
            {"m": ["1", "d"], "t": ["2"], "kind": ["identity"]}
        )
        with caplog.at_level(logging.WARNING):
            rows = run_grid(cfg, ds=ds)
        # identity with m=1 != d aborts; identity with m=d survives
        assert {row["m"] for row in rows} == {"d"}
        assert any("aborted" in rec.message for rec in caplog.records)

    def test_fit_repeats_on_a_single_split(self):
        # repeated randomized runs over one fixed split: fresh seeds, same data
        ds = make_synthetic_multilabel(60, 5, 8, n_clusters=5, seed=21)
        cfg = ExperimentConfig(
            data="<in-memory>",
            plan=SplitPlan("fixed_holdout", n_train=40, n_test=20, seed=1),
            grid={"m": ["1"], "t": ["2"]},
            seed=5,
            fit_repeats=4,
        )
        rows = run_grid(cfg, ds=ds)
        assert [row["repeat"] for row in rows] == [0, 1, 2, 3]
        # distinct master seeds give generally distinct randomized scores
        assert len({row["lrap"] for row in rows}) > 1

    def test_csv_round_trip(self, tmp_path):
        ds, cfg = quick_experiment({"m": ["2"], "t": ["2"]})
        rows = run_grid(cfg, ds=ds)
        path = tmp_path / "rows.csv"
        write_grid_csv(rows, path)
        assert path.read_text().startswith("#")
        back = read_grid_csv(path)
        assert len(back) == len(rows)
        for orig, parsed in zip(rows, back):
            assert parsed["m"] == str(orig["m"])
            assert float(parsed["lrap"]) == orig["lrap"]

    def test_csv_writes_numbers_as_python_does(self, tmp_path):
        # Floats, numpy's included, as repr(float(x)); numpy ints as ints.
        row = dict.fromkeys(CSV_COLUMNS, "1")
        row.update(m_resolved=np.int64(3), s_resolved=1.0, repeat=0,
                   lrap=np.float64(0.1) + 0.2, fit_seconds=np.float64(2.0 ** 53),
                   project_seconds=np.float64(-0.0))
        path = tmp_path / "rows.csv"
        write_grid_csv([row], path)
        cells = dict(zip(CSV_COLUMNS, path.read_text().splitlines()[2].split(",")))
        assert [cells[c] for c in ("m_resolved", "s_resolved", "repeat", "lrap",
                                   "fit_seconds", "project_seconds")] == [
            "3", "1.0", "0", repr(0.1 + 0.2), "9007199254740992.0", "-0.0"]


class TestSummarize:
    def synthetic_rows(self):
        rows = []
        for policy, values in (
            ("no_projection", [0.80, 0.82, 0.84]),
            ("per_tree_subspace", [0.70, 0.72, 0.74]),  # deviates by > 1 std
            ("shared_subspace", [0.81, 0.82, 0.83]),  # within 1 std
        ):
            for repeat, value in enumerate(values):
                row = {a: "x" for a in ("m", "k", "t", "n_min", "kind",
                                        "splitter", "bootstrap", "s")}
                row.update(policy=policy, repeat=repeat, lrap=value)
                rows.append(row)
        return rows

    def test_group_means_exact(self):
        table = summarize(self.synthetic_rows())
        by_policy = {entry["policy"]: entry for entry in table}
        assert by_policy["no_projection"]["mean"] == pytest.approx(0.82)
        assert by_policy["no_projection"]["std"] == pytest.approx(
            math.sqrt(((0.02) ** 2 * 2) / 3)
        )
        assert by_policy["no_projection"]["n"] == 3

    def test_baseline_flagging(self):
        table = summarize(
            self.synthetic_rows(), baseline={"policy": "no_projection"}
        )
        by_policy = {entry["policy"]: entry for entry in table}
        assert by_policy["no_projection"]["flagged"] == "false"  # never vs itself
        assert by_policy["per_tree_subspace"]["flagged"] == "true"
        assert by_policy["shared_subspace"]["flagged"] == "false"

    def test_single_repeat_std_zero(self):
        rows = self.synthetic_rows()[:1]
        table = summarize(rows, baseline={"policy": "no_projection"})
        assert table[0]["std"] == 0.0
        assert table[0]["flagged"] == "false"

    def test_ambiguous_baseline(self):
        with pytest.raises(ValueError, match="ambiguous"):
            summarize(self.synthetic_rows(), baseline={"m": "x"})

    def test_unknown_baseline_axis(self):
        with pytest.raises(ValueError, match="^unknown baseline axis: 'depth'$"):
            summarize(self.synthetic_rows(), baseline={"depth": "3"})

    def test_unknown_baseline(self):
        with pytest.raises(ValueError, match="matches no"):
            summarize(self.synthetic_rows(), baseline={"policy": "nope"})

    def test_empty_input(self):
        with pytest.raises(ValueError):
            summarize([])
