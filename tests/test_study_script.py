"""The generalization study script, from its run loop to its report, with
training stubbed out."""

import csv
import importlib.util
from pathlib import Path

import pytest

from smap.errors import ConfigError

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_generalization_study.py"


def _load_study():
    spec = importlib.util.spec_from_file_location("run_generalization_study", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_study_reports_one_row_per_env_and_agent(tmp_path, monkeypatch, fake_train, capsys):
    study = _load_study()
    monkeypatch.setattr(study, "train", fake_train)
    study.main(["--out", str(tmp_path), "--seeds", "0,1", "--timesteps", "4096"])

    with open(tmp_path / "study_report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["env"], r["kind"], r["seed_count"]) for r in rows] == [
        ("DodgeGrid", "attention", "2"), ("DodgeGrid", "sparse_masked", "2"),
        ("MazeGrid", "attention", "2"), ("MazeGrid", "sparse_masked", "2")]
    # each row averages its own env's seeds: 10 + {0, 1} on DodgeGrid, 1 + {0, 1} on MazeGrid
    assert [float(r["test_return"]) for r in rows] == [10.5, 10.5, 1.5, 1.5]
    assert all(float(r["gap"]) == 1.0 for r in rows)
    out = capsys.readouterr().out
    assert "DodgeGrid: sparse - dense test return = +0.000" in out
    assert "MazeGrid: sparse - dense test return = +0.000" in out

    # finished runs are reused at their own config and never at another
    monkeypatch.setattr(study, "train", None)
    for run_dir in tmp_path.iterdir():
        if run_dir.is_dir():
            (run_dir / "checkpoint.smap").touch()
    with pytest.raises(ConfigError, match="DodgeGrid_sparse_masked_0.05_0"):
        study.run_study(tmp_path, [0, 1], quiet=True)
    run_dirs = study.run_study(tmp_path, [0, 1], total_timesteps=4096, quiet=True)
    assert sorted(run_dirs) == [(env, agent) for env in ("DodgeGrid", "MazeGrid")
                                for agent in ("attention", "sparse_masked")]
    assert all(len(dirs) == 2 for dirs in run_dirs.values())
