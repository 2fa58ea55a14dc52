from __future__ import annotations

import csv
import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dynzone
from dynzone.cli import main
from dynzone.datafiles import data_text, load_layout
from dynzone.errors import DeadlockDetected
from dynzone.zoning import partition_from_json, validate_partition


@pytest.fixture
def toy_scenario(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "name": "toy",
                "parts": [
                    {"type": "X", "route": [1, 2, 3], "qty": 4},
                    {"type": "Y", "route": [5, 4, 6], "qty": 4},
                ],
                "release": "simultaneous",
            }
        )
    )
    return str(path)


@pytest.fixture
def empty_scenario(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(
        json.dumps(
            {"schema_version": 1, "name": "none", "parts": [], "release": "simultaneous"}
        )
    )
    return str(path)


# ── optimize ─────────────────────────────────────────────────────────


def test_optimize_single_zone_trivial(tmp_path, toy_scenario):
    out = tmp_path / "p.json"
    code = main(
        ["optimize", "--layout", "dumbbell", "--scenario", toy_scenario,
         "--method", "sa", "--nz", "1", "--seed", "0", "--out", str(out)]
    )
    assert code == 0
    partition = partition_from_json(load_layout("dumbbell"), json.loads(out.read_text()))
    assert partition.nz == 1
    assert sorted(partition.zones[0].workstations) == [1, 2, 3, 4, 5, 6]
    assert validate_partition(partition) == []


@pytest.mark.parametrize("method", ["sa", "ga"])
def test_optimize_deterministic(tmp_path, toy_scenario, method):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        code = main(
            ["optimize", "--layout", "dumbbell", "--scenario", toy_scenario,
             "--method", method, "--nz", "2", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
    assert a.read_text() == b.read_text()


def test_optimize_progress_csv_non_increasing(tmp_path, toy_scenario):
    out = tmp_path / "p.json"
    assert main(
        ["optimize", "--layout", "dumbbell", "--scenario", toy_scenario,
         "--method", "ga", "--nz", "2", "--seed", "3", "--out", str(out)]
    ) == 0
    with (tmp_path / "p_progress.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    best = [float(r["best_objective"]) for r in rows]
    assert best and best == sorted(best, reverse=True)


def test_optimize_infeasible_exit_3(tmp_path, toy_scenario):
    code = main(
        ["optimize", "--layout", "dumbbell", "--scenario", toy_scenario,
         "--method", "sa", "--nz", "7", "--seed", "0",
         "--out", str(tmp_path / "p.json")]
    )
    assert code == 3


def test_unknown_input_exit_2(tmp_path):
    code = main(
        ["optimize", "--layout", "no-such-layout", "--scenario", "scenario100",
         "--method", "sa", "--nz", "2", "--seed", "0",
         "--out", str(tmp_path / "p.json")]
    )
    assert code == 2


@pytest.mark.parametrize("method", ["sa", "ga"])
def test_optimize_and_repairs_share_one_search_call(tmp_path, toy_scenario, monkeypatch, method):
    """`dynzone optimize` and a simulation's SA/GA repair both reach the one
    SimConfig.centralized_search, which passes the config's schedule,
    sa.iterations and ga values on."""
    from dynzone import simengine
    from dynzone.simengine import SimConfig, Simulation

    config = json.loads(data_text("config_default"))
    config["schedule"] = {"t_initial": 3.0, "t_freeze": 0.3, "reductions": 7, "k": 2.0}
    config["sa"] = {"iterations": 9}
    config["ga"] = {"population": 4, "generations": 2, "crossover": 0.5,
                    "mutation": 0.3, "elitism": 1}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    cfg = SimConfig.from_json(config, method, 0)

    searches, calls = [], []
    search = SimConfig.centralized_search
    monkeypatch.setattr(
        SimConfig, "centralized_search",
        lambda self, *a, **kw: searches.append(self.method) or search(self, *a, **kw),
    )
    for name in ("sa_optimize", "ga_optimize"):
        real = getattr(simengine, name)

        def spy(*args, real=real, **kwargs):
            calls.append((real.__name__, inspect.signature(real).bind(*args, **kwargs).arguments))
            return real(*args, **kwargs)

        monkeypatch.setattr(simengine, name, spy)

    assert main(
        ["optimize", "--layout", "dumbbell", "--scenario", toy_scenario,
         "--config", str(config_path), "--method", method, "--nz", "2",
         "--out", str(tmp_path / "p.json")]
    ) == 0
    sim = Simulation(load_layout("dumbbell"), [], cfg)
    start = sim.partition
    sim._start_repair(1)
    assert searches == [method, method]
    assert [name for name, _ in calls] == [f"{method}_optimize"] * 2
    for (_, bound), nz in zip(calls, (2, cfg.n_robots)):
        assert bound["nz"] == nz
        if method == "sa":
            assert bound["schedule"] == cfg.schedule != SimConfig().schedule
            assert bound["iterations"] == 9
        else:
            assert bound["config"] == cfg.ga != SimConfig().ga
            # GA ignores the simulation's design: it evolves from the initial one.
            assert set(bound) == {"graph", "window", "nz", "config", "rng", "velocity", "handling"}
    if method == "sa":
        assert calls[0][1].get("start") is None and calls[1][1]["start"] is start


# ── simulate ─────────────────────────────────────────────────────────


def test_simulate_empty_scenario_zero_summary(tmp_path, empty_scenario, capsys):
    run = tmp_path / "run"
    code = main(
        ["simulate", "--layout", "dumbbell", "--scenario", empty_scenario,
         "--method", "sa", "--seed", "0", "--out", str(run)]
    )
    assert code == 0
    assert "completed=0/0" in capsys.readouterr().out
    metrics = json.loads((run / "metrics.json").read_text())
    assert metrics["time_to_complete_minutes"] == 0.0


def test_simulate_writes_artifacts_and_digests(tmp_path, toy_scenario):
    run = tmp_path / "run"
    code = main(
        ["simulate", "--layout", "dumbbell", "--scenario", toy_scenario,
         "--method", "ddz", "--seed", "2", "--out", str(run)]
    )
    assert code == 0
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["method"] == "ddz" and manifest["seed"] == 2
    layout_text = data_text("dumbbell")
    assert manifest["layout_digest"] == hashlib.sha256(layout_text.encode()).hexdigest()
    scenario_bytes = open(toy_scenario, "rb").read()
    assert manifest["scenario_digest"] == hashlib.sha256(scenario_bytes).hexdigest()
    assert (run / "events.jsonl").is_file()
    metrics = json.loads((run / "metrics.json").read_text())
    assert metrics["completed"] == 8
    assert metrics["balance_not_comparable"] is True


def test_simulate_scenario_layout_mismatch_exit_2(tmp_path):
    code = main(
        ["simulate", "--layout", "dumbbell", "--scenario", "scenario100",
         "--method", "sa", "--seed", "0", "--out", str(tmp_path / "run")]
    )
    assert code == 2


def test_simulate_rejects_bad_config_before_writing(tmp_path, toy_scenario, capsys):
    config = json.loads(data_text("config_default"))
    config["consensus"]["eps"] = 0.0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    run = tmp_path / "run"
    code = main(
        ["simulate", "--layout", "dumbbell", "--scenario", toy_scenario, "--config", str(path),
         "--method", "ddz", "--seed", "0", "--out", str(run)]
    )
    assert code == 2
    assert "consensus_eps" in capsys.readouterr().err
    assert not (run / "manifest.json").exists()


def test_simulate_with_trained_partition(tmp_path, toy_scenario):
    part = tmp_path / "p.json"
    assert main(
        ["optimize", "--layout", "dumbbell", "--scenario", toy_scenario,
         "--method", "sa", "--nz", "2", "--seed", "1", "--out", str(part)]
    ) == 0
    run = tmp_path / "run"
    code = main(
        ["simulate", "--layout", "dumbbell", "--scenario", toy_scenario,
         "--method", "sa", "--seed", "1", "--out", str(run),
         "--partition", str(part)]
    )
    assert code == 0
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["initial_partition"] == str(part)


def test_simulate_partition_of_another_layout_exits_2(tmp_path, capsys):
    from dynzone.baselines import initial_partition
    from dynzone.zoning import partition_to_json

    part = tmp_path / "dumbbell-design.json"
    part.write_text(json.dumps(partition_to_json(initial_partition(load_layout("dumbbell"), 2))))
    run = tmp_path / "run"
    code = main(
        ["simulate", "--layout", "layout18", "--scenario", "scenario100",
         "--method", "sa", "--seed", "1", "--out", str(run), "--partition", str(part)]
    )
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error:")] == [
        f"error: {part}: invalid partition:"
    ]
    assert "  zone 1 references unknown segment W1|W2" in err
    assert not (run / "manifest.json").exists()


class Boom:
    """A simulation that deadlocks after its first event."""

    def __init__(self, *a, **kw):
        self.events = [{"t": 0.0, "kind": "arrival", "part": 1}]

    def run(self):
        raise DeadlockDetected("stuck")


def _deadlocked_run(tmp_path, toy_scenario, monkeypatch):
    import dynzone.cli as cli_mod

    monkeypatch.setattr(cli_mod, "Simulation", Boom)
    run = tmp_path / "run"
    code = main(
        ["simulate", "--layout", "dumbbell", "--scenario", toy_scenario,
         "--method", "sa", "--seed", "0", "--out", str(run)]
    )
    assert code == 4
    return run


def test_simulate_deadlock_exit_4(tmp_path, toy_scenario, monkeypatch, capsys):
    run = _deadlocked_run(tmp_path, toy_scenario, monkeypatch)
    err = capsys.readouterr().err
    assert str(run / "events.jsonl") in err
    assert (run / "events.jsonl").read_text().strip()


@pytest.mark.parametrize(
    "command", [["report"], ["simulate", "--replay"]], ids=["report", "replay"]
)
def test_deadlocked_run_is_refused_on_one_line(
    tmp_path, toy_scenario, monkeypatch, capsys, command
):
    """A deadlocked run leaves a manifest and a partial event log but no
    metrics; report and replay name the missing file and exit 2."""
    run = _deadlocked_run(tmp_path, toy_scenario, monkeypatch)
    assert (run / "manifest.json").is_file() and not (run / "metrics.json").exists()
    capsys.readouterr()
    assert main(command + [str(run)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: cannot read {run / 'metrics.json'}: No such file or directory"
    ]


def test_unreadable_run_files_are_named(tmp_path, toy_scenario, capsys):
    run = tmp_path / "run"
    assert main(
        ["simulate", "--layout", "dumbbell", "--scenario", toy_scenario,
         "--method", "sa", "--seed", "4", "--out", str(run)]
    ) == 0
    (run / "events.jsonl").write_text("{not json\n")
    capsys.readouterr()
    assert main(["report", str(run)]) == 0  # report reads no events
    capsys.readouterr()
    assert main(["simulate", "--replay", str(run)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot read {run / 'events.jsonl'}: ")
    (run / "manifest.json").unlink()
    for command in (["report"], ["simulate", "--replay"]):
        assert main(command + [str(run)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot read {run / 'manifest.json'}: No such file or directory"
        ]


@pytest.mark.parametrize(
    "command", [["report"], ["simulate", "--replay"]], ids=["report", "replay"]
)
def test_manifest_without_a_key_is_refused_on_one_line(tmp_path, toy_scenario, capsys, command):
    run = tmp_path / "run"
    assert main(
        ["simulate", "--layout", "dumbbell", "--scenario", toy_scenario,
         "--method", "sa", "--seed", "4", "--out", str(run)]
    ) == 0
    (run / "manifest.json").write_text("{}")
    capsys.readouterr()
    assert main(command + [str(run)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: cannot read {run / 'manifest.json'}: KeyError: 'scenario_digest'"
    ]


# ── replay ───────────────────────────────────────────────────────────


def test_replay_matches_stored_metrics(tmp_path, toy_scenario, capsys):
    run = tmp_path / "run"
    assert main(
        ["simulate", "--layout", "dumbbell", "--scenario", toy_scenario,
         "--method", "ddz", "--seed", "4", "--out", str(run)]
    ) == 0
    capsys.readouterr()
    assert main(["simulate", "--replay", str(run)]) == 0
    assert "replay ok" in capsys.readouterr().out


def test_replay_detects_tampered_metrics(tmp_path, toy_scenario):
    run = tmp_path / "run"
    assert main(
        ["simulate", "--layout", "dumbbell", "--scenario", toy_scenario,
         "--method", "sa", "--seed", "4", "--out", str(run)]
    ) == 0
    metrics = json.loads((run / "metrics.json").read_text())
    metrics["avg_travel_feet"] += 1.0
    (run / "metrics.json").write_text(json.dumps(metrics))
    assert main(["simulate", "--replay", str(run)]) == 2


# ── matrix ───────────────────────────────────────────────────────────


def test_matrix_fans_out_runs(tmp_path, toy_scenario):
    out = tmp_path / "mx"
    code = main(
        ["simulate", "--layout", "dumbbell", "--scenario", toy_scenario,
         "--matrix", "1,2,3", "--out", str(out)]
    )
    assert code == 0
    manifests = sorted(out.glob("*/manifest.json"))
    assert len(manifests) == 9  # 3 seeds x 3 methods
    with (out / "comparison.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    assert all(r["completed"] == "8" for r in rows)
    ddz_rows = [r for r in rows if r["method"] == "ddz"]
    assert all(r["pct_time_in_balance"] == "NA" for r in ddz_rows)


def test_matrix_rejects_bad_seed_list(tmp_path, toy_scenario):
    code = main(
        ["simulate", "--layout", "dumbbell", "--scenario", toy_scenario,
         "--matrix", "1,x", "--out", str(tmp_path / "mx")]
    )
    assert code == 2


# ── report ───────────────────────────────────────────────────────────


def _one_run(tmp_path, scenario, method, seed, name):
    run = tmp_path / name
    assert main(
        ["simulate", "--layout", "dumbbell", "--scenario", scenario,
         "--method", method, "--seed", str(seed), "--out", str(run)]
    ) == 0
    return run


def test_report_single_run_table(tmp_path, toy_scenario, capsys):
    run = _one_run(tmp_path, toy_scenario, "sa", 1, "r1")
    capsys.readouterr()
    assert main(["report", str(run)]) == 0
    out = capsys.readouterr().out
    assert "sa" in out and "sigma travel" in out


def test_report_honors_balance_na_flag(tmp_path, toy_scenario, capsys):
    run = _one_run(tmp_path, toy_scenario, "ddz", 1, "r1")
    capsys.readouterr()
    assert main(["report", str(run)]) == 0
    assert "NA" in capsys.readouterr().out


def test_report_throughput_csv(tmp_path, toy_scenario):
    run = _one_run(tmp_path, toy_scenario, "sa", 1, "r1")
    csv_path = tmp_path / "tp.csv"
    assert main(["report", str(run), "--throughput-csv", str(csv_path)]) == 0
    with csv_path.open() as fh:
        rows = list(csv.DictReader(fh))
    counts = [int(r["parts_completed"]) for r in rows]
    assert counts == sorted(counts) and counts[-1] == 8


def test_report_refuses_mixed_scenarios(tmp_path, toy_scenario, empty_scenario):
    r1 = _one_run(tmp_path, toy_scenario, "sa", 1, "r1")
    r2 = _one_run(tmp_path, empty_scenario, "sa", 1, "r2")
    assert main(["report", str(r1), str(r2)]) == 2


# ── import cost ──────────────────────────────────────────────────────


def test_import_loads_neither_numpy_nor_a_process_pool():
    """A plain `dynzone simulate` imports only what it runs: numpy and the
    process pool behind --matrix stay unloaded."""
    src = str(Path(dynzone.__file__).resolve().parents[1])
    code = (
        "import sys, dynzone.cli, dynzone.simengine; "
        "print(sorted(m for m in ('numpy', 'concurrent.futures.process') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.strip() == "[]"


def test_unknown_log_level_exits_2_with_one_line():
    """An unknown DYNZONE_LOG level is a validation failure, reported on one
    line before any argument is parsed."""
    src = str(Path(dynzone.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "DYNZONE_LOG": "verbose"}
    out = subprocess.run(
        [sys.executable, "-m", "dynzone.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.splitlines() == ["error: DYNZONE_LOG=verbose is not a logging level"]
