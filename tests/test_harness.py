import hashlib
import json
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from robridge import harness
from robridge.cli import main as cli_main
from robridge.harness import (
    ConfigError,
    cmd_collect,
    cmd_dagger,
    cmd_eval,
    cmd_replay,
    config_from_dict,
    load_config,
)
from robridge.loop import ExpertAsPolicy, FaultConfig, LoopConfig, run_episode


def small_config(tmp_path, **over):
    doc = {
        "schema_version": 1,
        "tasks": ["press-button", "open-drawer"],
        "suites": ["nominal"],
        "seeds": {"base": 0, "episodes": 2},
        "demos_per_task": 2,
        "gea": {"epochs": 2, "lr": 1e-3},
        "dagger": {"n_eval": 2, "iterations": 2},
        "loop": {"max_ticks": 300},
        "out_dir": str(tmp_path / "out"),
    }
    doc.update(over)
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_config_unknown_task(tmp_path):
    path = small_config(tmp_path, tasks=["no-such-task"])
    with pytest.raises(ConfigError, match="unknown task"):
        load_config(path)


def test_config_unknown_suite(tmp_path):
    path = small_config(tmp_path, suites=["weird"])
    with pytest.raises(ConfigError, match="unknown suite"):
        load_config(path)


@pytest.mark.parametrize("over,field", [
    ({"seeds": {"base": "0"}}, "seeds.base"),
    ({"seeds": [1]}, "seeds"),
    ({"demos_per_task": 0}, "demos_per_task"),
    ({"gea": {"batch_size": 0}}, "gea.batch_size"),
    ({"gea": {"epochs": 1.5}}, "gea.epochs"),
    ({"gea": {"lr": float("nan")}}, "gea.lr"),
    ({"dagger": {"n_eval": True}}, "dagger.n_eval"),
    ({"dagger": {"iterations": 0}}, "dagger.iterations"),
    ({"dagger": {"sample_budget": 0}}, "dagger.sample_budget"),
    ({"dagger": {"sample_budget": "100"}}, "dagger.sample_budget"),
    ({"dagger": {"f": {"values": [1.0]}}}, "dagger.f"),
    ({"expert_randomization": {"tilt": 1}}, "expert_randomization"),
    ({"augment": {"warp_mag": "big"}}, "warp_mag"),
])
def test_config_bad_numbers_name_the_field(over, field):
    with pytest.raises(ConfigError, match=field):
        config_from_dict({"tasks": ["press-button"], **over})


def test_config_number_fields_cast():
    cfg = config_from_dict({"tasks": ["press-button"], "seeds": {"episodes": 3.0},
                            "dagger": {"sample_budget": 500}})
    assert (cfg.episodes_per_cell, cfg.dagger_sample_budget) == (3, 500)
    assert type(cfg.episodes_per_cell) is int
    assert config_from_dict({"tasks": ["press-button"]}).dagger_sample_budget is None


def test_config_schema_version(tmp_path):
    path = small_config(tmp_path, schema_version=99)
    from robridge.util import SchemaVersionError
    with pytest.raises(SchemaVersionError):
        load_config(path)


def test_collect_counts_and_rerun_identical(tmp_path):
    cfg = load_config(small_config(tmp_path))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    ma = cmd_collect(cfg, out_a)
    mb = cmd_collect(cfg, out_b)
    assert ma == mb
    for tid in cfg.tasks:
        assert ma["tasks"][tid]["count"] == 2
    assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()
    for tid in cfg.tasks:
        for name in ma["tasks"][tid]["files"]:
            fa = out_a / "stores" / tid / name
            fb = out_b / "stores" / tid / name
            assert fa.read_bytes() == fb.read_bytes()


def test_dagger_produces_checkpoints_and_report(tmp_path):
    cfg = load_config(small_config(tmp_path))
    out = tmp_path / "run"
    cmd_collect(cfg, out)
    result = cmd_dagger(cfg, out)
    for it in range(2):
        d = out / "dagger" / f"iter_{it:02d}"
        assert (d / "checkpoint.bin").exists()
        state = json.loads((d / "state.json").read_text())
        assert all(np.isfinite(v) and v > 0 for v in state["weights"].values())
    report = (out / "dagger" / "report.txt").read_text()
    assert "weights per iteration" in report
    assert Path(result["checkpoint"]).exists()


def test_dagger_requires_stores(tmp_path):
    cfg = load_config(small_config(tmp_path))
    with pytest.raises(ConfigError, match="collect"):
        cmd_dagger(cfg, tmp_path / "nostores")


def test_dagger_names_corrupt_file(tmp_path):
    cfg = load_config(small_config(tmp_path))
    out = tmp_path / "run"
    cmd_collect(cfg, out)
    victim = next((out / "stores" / "press-button").glob("*.traj"))
    victim.write_bytes(b'{"schema_version": 1, "task_id": "press-button", "seed": 0, '
                       b'"success": true, "final_tick": 1, "steps": 5}\n\x01\x02')
    with pytest.raises(RuntimeError, match=str(victim.name)):
        cmd_dagger(cfg, out)


def test_eval_expert_and_zero_tables(tmp_path):
    cfg = load_config(small_config(tmp_path))
    out = tmp_path / "eval"
    doc = cmd_eval(cfg, "expert", out)
    for tid in cfg.tasks:
        assert doc["table"][tid]["nominal"] >= 0.95
        assert doc["table"][tid]["Mean"] == doc["table"][tid]["nominal"]
    doc0 = cmd_eval(cfg, "zero", tmp_path / "eval0")
    for tid in cfg.tasks:
        assert doc0["table"][tid]["nominal"] <= 0.05
    text = (out / "table.txt").read_text()
    assert "not comparable" in text
    assert "press-button" in text


def test_eval_deterministic(tmp_path):
    cfg = load_config(small_config(tmp_path))
    a = cmd_eval(cfg, "expert", tmp_path / "e1")
    b = cmd_eval(cfg, "expert", tmp_path / "e2")
    assert a == b
    assert (tmp_path / "e1" / "table.txt").read_bytes() == (tmp_path / "e2" / "table.txt").read_bytes()


def test_eval_parallel_matches_serial(tmp_path):
    cfg = load_config(small_config(tmp_path))
    a = cmd_eval(cfg, "expert", tmp_path / "s1", jobs=1)
    b = cmd_eval(cfg, "expert", tmp_path / "s2", jobs=4)
    assert a == b


def test_eval_runs_on_calling_thread(tmp_path, monkeypatch):
    calls = []

    def fake_episode(task, policy, cfg, suite="nominal", seed=0):
        calls.append((threading.get_ident(), (task, suite, seed)))
        return SimpleNamespace(success=seed % 2 == 0)

    monkeypatch.setattr(harness, "run_episode", fake_episode)
    cfg = load_config(small_config(tmp_path, suites=["nominal", "unseen_camera"]))
    doc = cmd_eval(cfg, "zero", tmp_path / "e", jobs=2)
    assert {ident for ident, _ in calls} == {threading.get_ident()}
    assert [cell for _, cell in calls] == [
        (tid, suite, k) for tid in ("press-button", "open-drawer")
        for suite in ("nominal", "unseen_camera") for k in (0, 1)]
    assert doc["table"]["press-button"] == {"nominal": 0.5, "unseen_camera": 0.5, "Mean": 0.5}


def test_eval_stage_table(tmp_path):
    cfg = load_config(small_config(tmp_path, tasks=["pick-insert"],
                                   seeds={"base": 0, "episodes": 2}))
    out = tmp_path / "lh"
    doc = cmd_eval(cfg, "expert", out)
    assert doc["stages"]["pick-insert"]["avg_len"] == 4.0
    assert "Avg. Len." in (out / "stages.txt").read_text()


def test_replay_roundtrip(tmp_path):
    log = tmp_path / "ep.jsonl"
    res = run_episode("press-button", ExpertAsPolicy(),
                      LoopConfig(log_path=str(log)), seed=4)
    out = tmp_path / "replay"
    info = cmd_replay(log, out)
    assert info["frames"] == res.ticks
    assert info["final_digest"] == res.final_digest
    frames = sorted((out / "frames").glob("*.ppm"))
    assert len(frames) == res.ticks
    head = frames[0].read_bytes()[:15]
    assert head.startswith(b"P6\n128 128\n255")
    assert (out / "timeline.txt").read_text().count("\n") == res.ticks
    # no fault fired, so the log carries no fault records and its bytes are pinned
    assert hashlib.sha256(log.read_bytes()).hexdigest() == (
        "7db54d1eeec5a88dec986d9709cfcb8c5da3852e0ba57682b33e5a2bd32278c2")


def test_replay_roundtrip_with_fault(tmp_path):
    log = tmp_path / "ep.jsonl"
    res = run_episode("pick-place", ExpertAsPolicy(),
                      LoopConfig(fault=FaultConfig(), log_path=str(log)), seed=1)
    assert res.success
    records = [json.loads(ln) for ln in log.read_text().splitlines()[1:-1]]
    fired = [r["fault"] for r in records if "fault" in r]
    assert len(fired) == FaultConfig().max_fires
    assert set(fired[0]) == {"entity", "pose"} and len(fired[0]["pose"]) == 4
    info = cmd_replay(log, tmp_path / "replay")
    assert info["final_digest"] == res.final_digest
    assert info["frames"] == res.ticks


def test_replay_rejects_empty_log(tmp_path):
    log = tmp_path / "empty.jsonl"
    log.write_text("")
    with pytest.raises(ValueError, match="empty"):
        cmd_replay(log, tmp_path / "r")


def test_replay_rejects_bad_schema(tmp_path):
    log = tmp_path / "ep.jsonl"
    run_episode("press-button", ExpertAsPolicy(), LoopConfig(log_path=str(log)), seed=4)
    text = log.read_text().replace('"schema_version": 1', '"schema_version": 3', 1)
    log.write_text(text)
    from robridge.util import SchemaVersionError
    with pytest.raises(SchemaVersionError):
        cmd_replay(log, tmp_path / "r")


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    cfg_path = small_config(tmp_path)
    bad = small_config(tmp_path / "bad", tasks=["nope"])
    assert cli_main(["collect", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    for i, loop in enumerate([{"status_period": 0}, {"max_ticks": 0},
                              {"primitive_timeout": 0}, {"retry_budget": -1}]):
        bad = small_config(tmp_path / f"bad_loop{i}", loop=loop)
        assert cli_main(["eval", "--config", str(bad), "--checkpoint", "expert",
                         "--out", str(tmp_path / "x")]) == 2
        assert f"loop.{next(iter(loop))}" in capsys.readouterr().err
    # values of the wrong type, and bad augment sections, are config errors too
    for i, (over, field) in enumerate([
            ({"loop": {"status_period": "x"}}, "loop.status_period"),
            ({"seeds": {"base": 0, "episodes": "3"}}, "seeds.episodes"),
            ({"augment": {"seed": 1, "no_such_field": 1}}, "no_such_field"),
            ({"augment": {"hole_rate": 2}}, "hole_rate")]):
        bad = small_config(tmp_path / f"bad_type{i}", **over)
        assert cli_main(["eval", "--config", str(bad), "--checkpoint", "expert",
                         "--out", str(tmp_path / "x")]) == 2
        assert field in capsys.readouterr().err
    assert cli_main(["collect", "--config", str(cfg_path), "--out", str(tmp_path / "ok")]) == 0
    assert (tmp_path / "ok" / "manifest.json").exists()
    # ROBRIDGE_OUT fallback
    monkeypatch.setenv("ROBRIDGE_OUT", str(tmp_path / "envout"))
    assert cli_main(["eval", "--config", str(cfg_path), "--checkpoint", "zero"]) == 0
    assert (tmp_path / "envout" / "table.txt").exists()
    assert cli_main(["replay", "--log", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "r")]) == 3
