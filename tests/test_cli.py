import subprocess
import sys

import numpy as np
import pytest

from projforest import (
    Ensemble,
    dump_svmlight_multilabel,
    experiment_from_config,
    load_svmlight_multilabel,
    lrap,
    make_splits,
    make_synthetic_multilabel,
    read_grid_csv,
)
from projforest.cli import main


def write_dataset(tmp_path, n=60):
    ds = make_synthetic_multilabel(n, 5, 8, n_clusters=5, seed=33)
    path = tmp_path / "data.svm"
    dump_svmlight_multilabel(ds, path)
    return path


GRID_CFG = """
split = shuffled_repeats
train_size = 40
test_size = 20
repeats = 2
m = 1, d
t = 2
k = sqrt_p
"""

FIT_CFG = """
split = fixed_holdout
train_size = 40
test_size = 20
m = 2
t = 3
"""


KFOLD_CFG = """
split = kfold
folds = 3
m = 2
t = 3
"""


class TestGridCommand:
    def test_end_to_end(self, tmp_path, capsys):
        data = write_dataset(tmp_path)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(GRID_CFG)
        out = tmp_path / "rows.csv"
        code = main(["grid", "--data", str(data), "--config", str(cfg),
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        rows = read_grid_csv(out)
        assert len(rows) == 4  # 2 grid points x 2 repeats
        assert all(0.0 < float(r["lrap"]) <= 1.0 for r in rows)

    def test_missing_config_fails(self, tmp_path, capsys):
        data = write_dataset(tmp_path)
        code = main(["grid", "--data", str(data), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_out_fails(self, tmp_path, capsys):
        data = write_dataset(tmp_path)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(GRID_CFG)
        assert main(["grid", "--data", str(data), "--config", str(cfg)]) == 1
        assert "error: grid requires --out" in capsys.readouterr().err


class TestFitCommand:
    def test_fit_and_save(self, tmp_path, capsys):
        data = write_dataset(tmp_path)
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(FIT_CFG)
        model = tmp_path / "model.json"
        code = main(["fit", "--data", str(data), "--config", str(cfg),
                     "--seed", "1", "--out", str(model)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "test lrap" in captured
        loaded = Ensemble.load(model)
        assert loaded.t == 3

    def test_kfold_plan_scores_fold_zero(self, tmp_path, capsys):
        data = write_dataset(tmp_path)
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(KFOLD_CFG)
        rows_path = tmp_path / "rows.csv"
        assert main(["fit", "--data", str(data), "--config", str(cfg),
                     "--seed", "2"]) == 0
        printed = capsys.readouterr().out
        assert main(["grid", "--data", str(data), "--config", str(cfg),
                     "--seed", "2", "--out", str(rows_path)]) == 0
        row = read_grid_csv(rows_path)[0]
        assert "test lrap = {:.4f} over".format(float(row["lrap"])) in printed

    def test_holdout_without_train_size_fits_every_row(self, tmp_path, capsys):
        data = write_dataset(tmp_path)
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("split = fixed_holdout\nm = 1\nt = 2\n")
        model = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--config", str(cfg),
                     "--out", str(model)]) == 0
        assert "test lrap" not in capsys.readouterr().out
        assert [tree.leaf_counts.sum() for tree in Ensemble.load(model).trees] == [60, 60]

    @pytest.mark.parametrize("text", [FIT_CFG, KFOLD_CFG], ids=["holdout", "kfold"])
    def test_saved_model_scores_like_grid_row_zero(self, tmp_path, capsys, text):
        data = write_dataset(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        model = tmp_path / "model.json"
        rows_path = tmp_path / "rows.csv"
        assert main(["fit", "--data", str(data), "--config", str(cfg),
                     "--seed", "4", "--out", str(model)]) == 0
        assert main(["grid", "--data", str(data), "--config", str(cfg),
                     "--seed", "4", "--out", str(rows_path)]) == 0
        plan = experiment_from_config(text, data=str(data)).plan
        _, test = make_splits(load_svmlight_multilabel(data), plan)[0]
        value = lrap(Ensemble.load(model).predict(test.X_rows()), test.Y_rows())
        assert value == float(read_grid_csv(rows_path)[0]["lrap"])

    def test_fit_rejects_grid_config(self, tmp_path, capsys):
        data = write_dataset(tmp_path)
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("m = 1, 2\n")
        assert main(["fit", "--data", str(data), "--config", str(cfg)]) == 1


class TestSummarizeCommand:
    def test_summarize_grid_output(self, tmp_path, capsys):
        data = write_dataset(tmp_path)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(GRID_CFG + "policy = per_tree_subspace, no_projection\n")
        rows_path = tmp_path / "rows.csv"
        assert main(["grid", "--data", str(data), "--config", str(cfg),
                     "--seed", "3", "--out", str(rows_path)]) == 0
        table = tmp_path / "table.csv"
        code = main(["summarize", "--data", str(rows_path),
                     "--baseline", "policy=no_projection,m=1",
                     "--out", str(table)])
        assert code == 0
        text = table.read_text().splitlines()
        assert text[0].endswith("mean,std,n,flagged")
        assert len(text) == 1 + 4  # 4 grid points

    def test_requires_input(self, capsys):
        assert main(["summarize"]) == 1

    def test_bad_baseline_entry_rejected(self, tmp_path, capsys):
        rows_path = tmp_path / "rows.csv"
        rows_path.write_text("m,lrap\n")
        assert main(["summarize", "--data", str(rows_path), "--baseline", "policy"]) == 1
        assert "error: baseline entries look like axis=value" in capsys.readouterr().err


class TestDecomposeCommand:
    def test_small_run(self, tmp_path, capsys):
        cfg = tmp_path / "dec.cfg"
        cfg.write_text("n_ls = 3\nn_phi = 2\nn_eps = 2\nt = 2\nn_min = 30\n")
        out = tmp_path / "report.csv"
        code = main(["decompose", "--config", str(cfg), "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        assert "var_projection" in capsys.readouterr().out
        assert out.read_text().startswith("probe,term,estimate,se")

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "dec.cfg"
        cfg.write_text("n_ls = 3\nn_phy = 50\n")
        assert main(["decompose", "--config", str(cfg)]) == 1
        assert "unknown config key(s): n_phy" in capsys.readouterr().err

    def test_list_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "dec.cfg"
        cfg.write_text("t = 2, 30\n")
        assert main(["decompose", "--config", str(cfg)]) == 1
        assert "'t' must be a single value" in capsys.readouterr().err

    def test_policies_differ_under_the_defaults(self, tmp_path, capsys):
        totals = {}
        for policy in ("shared_subspace", "per_tree_subspace"):
            cfg = tmp_path / "{}.cfg".format(policy)
            cfg.write_text("n_ls = 6\nn_phi = 4\nn_eps = 4\npolicy = {}\n".format(policy))
            out = tmp_path / "{}.csv".format(policy)
            assert main(["decompose", "--config", str(cfg), "--seed", "7",
                         "--out", str(out)]) == 0
            rows = [line.split(",") for line in out.read_text().splitlines()]
            totals[policy] = [float(r[2]) for r in rows if r[1] == "total_direct"]
        assert totals["shared_subspace"] != totals["per_tree_subspace"]


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        data = write_dataset(tmp_path, n=40)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("split = fixed_holdout\ntrain_size = 30\nm = 1\nt = 2\n")
        out = tmp_path / "rows.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "projforest", "grid", "--data", str(data),
             "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_nonzero_exit_on_bad_data(self):
        proc = subprocess.run(
            [sys.executable, "-m", "projforest", "grid", "--data", "/no/such.svm",
             "--config", "/no/such.cfg", "--out", "/tmp/x.csv"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "error" in proc.stderr
