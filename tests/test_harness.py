import hashlib
import json
import logging
import threading
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robridge import harness
from robridge.augment import training_augment
from robridge.cli import main as cli_main
from robridge.dagger import DemoStore
from robridge.experts import ExpertError, Trajectory, TrajectoryStep
from robridge.harness import (
    ConfigError,
    cmd_bc,
    cmd_collect,
    cmd_dagger,
    cmd_eval,
    cmd_replay,
    config_from_dict,
    load_config,
)
from robridge.hcp import GroundingNoise, StatusNoise
from robridge.loop import ExpertAsPolicy, FaultConfig, LoopConfig, run_episode
from robridge.observation import TENSOR_BYTES


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
    ({"augment": {"stage": "gea"}}, "stage"),
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


def failing_expert(fail_task):
    """rollout_expert stand-in: stub demos for every task but fail_task,
    whose rollouts never succeed."""
    def rollout(tid, seed, randomization=None):
        step = TrajectoryStep(b"\0" * TENSOR_BYTES, np.zeros(4, np.float32), 0.0)
        return Trajectory(tid, seed, [step] * 3, tid != fail_task, 3)
    return rollout


def test_collect_names_failing_task_and_keeps_partial_manifest(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "rollout_expert", failing_expert("open-drawer"))
    path = small_config(tmp_path)
    with pytest.raises(ExpertError, match="open-drawer"):
        cmd_collect(load_config(path), tmp_path / "run")
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert {tid: (d["count"], d["samples"]) for tid, d in manifest["tasks"].items()} == {
        "press-button": (2, 6), "open-drawer": (0, 0)}
    assert cli_main(["collect", "--config", str(path), "--out", str(tmp_path / "cli")]) == 3


# Recorded by running the same scale through the former experiments module
# (collect_stores, train_bc with 2 epochs, train_dagger with 1 epoch and one
# iteration, success_rate), before the scripts moved onto the harness.
GOLDEN_DEMOS = {
    "pick-place": {"00000.traj": "84b93e356d0edffe34a43b8d7c213ae56d1c52f14075a07f3ec4a9e2c358ab22"},
    "press-button": {"00000.traj": "be1bf966de723f0c8657c0e88f9c7b0c9864c057dd92b8c5776a035d8f6d9636"},
}
GOLDEN_RELABEL = "d921cf50147a87b3c6dfd92d79cc06466cc2522f79614661b35fd9b841de2a68"
GOLDEN_BC_SHA256 = "dc16178180230cfafd7d7155dbccb33816432355d856a8122acd9d27617e9408"
GOLDEN_DAGGER_SHA256 = "506292f6f48dcb3b604d7bfa8bba871b70f4d1db4dbea89985886e1457f3954f"


def test_training_path_reproduces_recorded_artifacts(tmp_path):
    base = {"tasks": ["press-button", "pick-place"], "seeds": {"base": 0, "episodes": 1},
            "demos_per_task": 1, "augment": asdict(training_augment()),
            "loop": {"max_ticks": 60}}
    bc_cfg = config_from_dict({**base, "gea": {"epochs": 2, "lr": 1e-3}})
    dg_cfg = config_from_dict({**base, "gea": {"epochs": 1, "lr": 1e-3},
                               "dagger": {"n_eval": 2, "iterations": 1, "sample_budget": 200}})
    out = tmp_path / "run"
    manifest = cmd_collect(bc_cfg, out)
    assert {tid: d["files"] for tid, d in manifest["tasks"].items()} == GOLDEN_DEMOS
    # the budget admits one relabel: 148 stored steps before it, 208 after
    assert sum(d["samples"] for d in manifest["tasks"].values()) == 148

    bc = cmd_bc(bc_cfg, out)["checkpoint"]
    assert hashlib.sha256(Path(bc).read_bytes()).hexdigest() == GOLDEN_BC_SHA256
    dagger = cmd_dagger(dg_cfg, out)
    assert dagger["iterations"][0]["relabeled"] == {"pick-place": 0, "press-button": 1}
    stores = out / "dagger" / "stores"
    assert {tid: DemoStore(stores, tid).file_digests() for tid in dg_cfg.tasks} == {
        "pick-place": GOLDEN_DEMOS["pick-place"],
        "press-button": {**GOLDEN_DEMOS["press-button"], "00001.traj": GOLDEN_RELABEL}}
    dg = dagger["checkpoint"]
    assert hashlib.sha256(Path(dg).read_bytes()).hexdigest() == GOLDEN_DAGGER_SHA256

    for checkpoint, rate in ((bc, 0.0), (dg, 0.0), ("expert", 0.5)):
        table = cmd_eval(dg_cfg, checkpoint, tmp_path / "eval")["table"]
        assert np.mean([row["nominal"] for row in table.values()]) == rate


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
    with pytest.raises(RuntimeError, match=str(victim.name)):
        cmd_bc(cfg, out)
    # the files are decoded once, by training, before any checkpoint is written
    assert not list(out.rglob("checkpoint.bin"))


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


def test_eval_stage_table(tmp_path, caplog):
    cfg = load_config(small_config(tmp_path, tasks=["pick-insert"],
                                   seeds={"base": 0, "episodes": 2}))
    out = tmp_path / "lh"
    with caplog.at_level(logging.WARNING, logger="robridge.harness"):
        doc = cmd_eval(cfg, "expert", out)
    assert doc["stages"]["pick-insert"]["avg_len"] == 4.0
    line = (out / "stages.txt").read_text().splitlines()[-1]
    assert line.split()[:2] == ["pick-insert", "nominal"] and "Avg. Len." in line
    # nominal is the staged suite, so no configured suite is skipped
    assert not caplog.records


def test_eval_staged_task_names_skipped_suites(tmp_path, caplog):
    cfg = load_config(small_config(tmp_path, tasks=["pick-insert"],
                                   suites=["nominal", "unseen_camera", "unseen_light"],
                                   seeds={"base": 0, "episodes": 1}))
    with caplog.at_level(logging.WARNING, logger="robridge.harness"):
        doc = cmd_eval(cfg, "expert", tmp_path / "lh")
    [record] = caplog.records
    assert "pick-insert" in record.getMessage()
    assert "unseen_camera, unseen_light" in record.getMessage()
    # the table keeps its keys: the suite is named in stages.txt and the log only
    assert set(doc["stages"]["pick-insert"]) == {"histogram", "avg_len"}


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
    # every record carries its tick's frame digest, so this pin also checks
    # that per-tick frames follow the fault's in-place edit of the world
    assert hashlib.sha256(log.read_bytes()).hexdigest() == (
        "f37fc01552d7deb41c56e5aa3f613e233bc5f0c72437e82006cc5606d450bdfa")


faults = st.one_of(st.none(), st.builds(
    FaultConfig, displacement=st.floats(0.02, 0.10), hold_ticks=st.integers(1, 20),
    fire_on_hold_event=st.integers(1, 2), max_fires=st.integers(1, 3)))
status_noises = st.one_of(st.none(), st.builds(
    StatusNoise, rate=st.floats(0.0, 0.5), seed=st.integers(0, 2**16)))
grounding_noises = st.one_of(st.none(), st.builds(
    GroundingNoise, flip_p=st.floats(0.0, 0.5), dilate_px=st.integers(0, 2),
    erode_px=st.integers(0, 1), seed=st.integers(0, 2**16)))


@settings(max_examples=6, deadline=None)
@given(task=st.sampled_from(["pick-place", "place-in-slot", "bin-pick", "open-drawer"]),
       suite=st.sampled_from(["nominal", "unseen_camera"]), seed=st.integers(0, 50),
       fault=faults, status_noise=status_noises, grounding_noise=grounding_noises,
       status_period=st.integers(10, 25), retry_budget=st.integers(0, 2))
def test_replay_roundtrip_under_random_faults_and_noise(
        tmp_path_factory, task, suite, seed, fault, status_noise, grounding_noise,
        status_period, retry_budget):
    tmp = tmp_path_factory.mktemp("replay")
    log = tmp / "ep.jsonl"
    res = run_episode(task, ExpertAsPolicy(), LoopConfig(
        status_period=status_period, retry_budget=retry_budget, max_ticks=200,
        fault=fault, status_noise=status_noise, grounding_noise=grounding_noise,
        log_path=str(log)), suite=suite, seed=seed)
    # replay checks every record's frame digest on its way to the final one
    info = cmd_replay(log, tmp / "out")
    assert info["final_digest"] == res.final_digest
    assert info["frames"] == res.ticks == len(list((tmp / "out" / "frames").glob("*.ppm")))


def test_replay_names_the_first_tick_whose_frame_differs(tmp_path):
    log = tmp_path / "ep.jsonl"
    run_episode("press-button", ExpertAsPolicy(), LoopConfig(log_path=str(log)), seed=4)
    lines = log.read_text().splitlines()
    rec = json.loads(lines[5])
    rec["digest"] = "0" * len(rec["digest"])
    lines[5] = json.dumps(rec, sort_keys=True)
    log.write_text("\n".join(lines) + "\n")
    with pytest.raises(RuntimeError, match=f"replay mismatch at tick {rec['tick']}:"):
        cmd_replay(log, tmp_path / "r")


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
    for command in (["collect"], ["eval", "--checkpoint", "expert"]):
        assert cli_main([*command, "--config", str(cfg_path), "--suite", "bogus",
                         "--out", str(tmp_path / "x")]) == 2
        assert "unknown suite 'bogus'" in capsys.readouterr().err
    assert cli_main(["collect", "--config", str(cfg_path), "--out", str(tmp_path / "ok")]) == 0
    assert (tmp_path / "ok" / "manifest.json").exists()
    # ROBRIDGE_OUT fallback
    monkeypatch.setenv("ROBRIDGE_OUT", str(tmp_path / "envout"))
    assert cli_main(["eval", "--config", str(cfg_path), "--checkpoint", "zero"]) == 0
    assert (tmp_path / "envout" / "table.txt").exists()
    assert cli_main(["replay", "--log", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "r")]) == 3
    # replay reads its suite and seed from the log header, so it refuses
    # the flags that would override them elsewhere
    for flag in (["--suite", "bogus"], ["--seed-base", "3"]):
        with pytest.raises(SystemExit) as exc:
            cli_main(["replay", "--log", str(tmp_path / "missing.jsonl"), *flag])
        assert exc.value.code == 2
