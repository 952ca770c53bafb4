import copy
import hashlib
import json

import numpy as np
import pytest

import robridge.loop as looplib
from conftest import states_equal
from robridge.hcp import StatusNoise
from robridge.loop import (
    Episode,
    ExpertAsPolicy,
    FaultConfig,
    LoopConfig,
    NetPolicy,
    ZeroPolicy,
    run_episode,
)
from robridge.policy import _SHAPES, PolicyParams


def test_expert_episode_advances_primitives():
    res = run_episode("press-button", ExpertAsPolicy(), LoopConfig(), seed=3)
    assert res.success
    assert res.outcome == "done"
    types = [p["type"] for p in res.primitive_log]
    assert types == ["reach", "press"]
    assert all(p["verdict"] == "success" for p in res.primitive_log)


def test_zero_policy_fails():
    res = run_episode("pick-place", ZeroPolicy(), LoopConfig(max_ticks=300), seed=3)
    assert not res.success


def test_net_policy_zero_params_acts_like_zero():
    zeros = PolicyParams({name: np.zeros(shape, np.float32) for name, shape in _SHAPES})
    res = run_episode("press-button", NetPolicy(zeros), LoopConfig(max_ticks=120), seed=1)
    assert not res.success


def test_frequency_contract():
    cfg = LoopConfig(status_period=25)
    res = run_episode("press-button", ExpertAsPolicy(), cfg, seed=5)
    # the terminating check happens after the render but before a step, so
    # a check-terminated episode ends at tick 25k - 1
    assert res.track_calls == res.ticks + 1
    assert res.status_calls == (res.ticks + 1) // 25
    for ev in res.status_events:
        assert ev["tick"] % 25 == 24


def test_fault_recovery_with_retries():
    cfg = LoopConfig(retry_budget=2, fault=FaultConfig())
    res = run_episode("pick-place", ExpertAsPolicy(), cfg, seed=11)
    assert res.success
    wrongs = [e for e in res.status_events if e["verdict"] == "wrong"]
    assert wrongs, "the injected fault should be noticed"


def test_fault_without_retries_fails():
    cfg = LoopConfig(retry_budget=0, fault=FaultConfig())
    res = run_episode("pick-place", ExpertAsPolicy(), cfg, seed=11)
    assert not res.success
    assert res.outcome == "failed"
    assert "retries exhausted" in res.reason


def test_recovery_rate_improves_with_budget():
    ok2 = ok0 = 0
    for s in range(12):
        ok2 += run_episode("pick-place", ExpertAsPolicy(),
                           LoopConfig(retry_budget=2, fault=FaultConfig()), seed=s).success
        ok0 += run_episode("pick-place", ExpertAsPolicy(),
                           LoopConfig(retry_budget=0, fault=FaultConfig()), seed=s).success
    assert ok2 > ok0


def test_status_noise_can_derail():
    clean = run_episode("press-button", ExpertAsPolicy(), LoopConfig(), seed=2)
    noisy = run_episode("press-button", ExpertAsPolicy(),
                        LoopConfig(status_noise=StatusNoise(rate=1.0, seed=3),
                                   retry_budget=0),
                        seed=2)
    assert clean.success
    assert noisy.status_events != clean.status_events


def test_status_noise_keyed_per_episode():
    def verdicts(seed, noise):
        cfg = LoopConfig(status_noise=noise, status_period=5, retry_budget=50, max_ticks=120)
        res = run_episode("press-button", ExpertAsPolicy(), cfg, seed=seed)
        return [(e["tick"], e["verdict"]) for e in res.status_events]

    # without noise the two seeds check at the same ticks with the same verdicts,
    # so any difference under noise comes from the per-episode noise key
    assert verdicts(0, None) == verdicts(1, None)
    noise = StatusNoise(rate=0.5, seed=0)
    first = verdicts(0, noise)
    assert first != verdicts(1, noise)
    assert first == verdicts(0, noise)


def test_long_horizon_expert_completes_all_stages():
    res = run_episode("pick-insert", ExpertAsPolicy(), LoopConfig(), seed=1)
    assert res.stages_completed == 4


def test_long_horizon_zero_policy_zero_stages():
    res = run_episode("pick-insert", ZeroPolicy(), LoopConfig(max_ticks=200), seed=1)
    assert res.stages_completed == 0


def test_long_horizon_sabotage_after_stage_two():
    # a persistent fault breaks every grip on the second object before the
    # sustained-hold stage can register, capping progress at two stages
    cfg = LoopConfig(retry_budget=0, max_ticks=600,
                     fault=FaultConfig(fire_on_hold_event=2, hold_ticks=3, max_fires=999))
    res = run_episode("pick-insert", ExpertAsPolicy(), cfg, seed=1)
    assert res.stages_completed == 2


def test_unstaged_task_completes_no_stages():
    res = run_episode("press-button", ExpertAsPolicy(), LoopConfig(), seed=0)
    assert res.success and res.stages_completed == 0


def test_episode_log_structure(tmp_path):
    log = tmp_path / "ep.jsonl"
    res = run_episode("press-button", ExpertAsPolicy(), LoopConfig(log_path=str(log)), seed=7)
    lines = [json.loads(l) for l in log.read_text().splitlines()]
    header, records, footer = lines[0], lines[1:-1], lines[-1]
    assert header["schema_version"] == 1
    assert header["task_id"] == "press-button"
    assert len(records) == res.ticks
    assert footer["final"] and footer["success"] == res.success
    assert footer["final_digest"] == res.final_digest
    assert [r["tick"] for r in records] == list(range(1, res.ticks + 1))


def test_planning_failure_outcome(monkeypatch):
    import robridge.tasks as tasklib
    cat = tasklib.load_catalog()
    task = cat.task("press-button")
    monkeypatch.setattr(type(task), "instruction",
                        property(lambda self: "frobnicate the table"))
    res = run_episode("press-button", ExpertAsPolicy(), LoopConfig(), seed=0)
    assert res.outcome == "failed"
    assert "planning" in res.reason


# (task, suite, seed, ticks, success, final_digest) of scripted-expert episodes.
# Perception changes must leave these bits alone; a deliberate change of
# rendering or float rounding re-records them and says so.
GOLDEN_EPISODES = [
    ("pick-place", "nominal", 3, 99, True, "0a86cfd9a3d410c8"),
    ("open-drawer", "unseen_camera", 3, 49, True, "d56537333c012dda"),
    ("reach-target", "unseen_camera", 7, 24, True, "0c8189cc03fca451"),
    ("turn-dial", "nominal", 11, 49, True, "d602913834aff4bb"),
]


@pytest.mark.parametrize("task,suite,seed,ticks,success,digest", GOLDEN_EPISODES)
def test_expert_episode_golden_digest(task, suite, seed, ticks, success, digest):
    res = run_episode(task, ExpertAsPolicy(), LoopConfig(), suite=suite, seed=seed)
    assert (res.ticks, res.success, res.final_digest) == (ticks, success, digest)


def _steps_digest(steps) -> str:
    h = hashlib.sha256()
    for s in steps:
        h.update(s.tensor_bytes)
        h.update(np.asarray(s.action, dtype="<f4").tobytes())
        h.update(repr(float(s.reward)).encode())
    return h.hexdigest()


def _visited_digest(visited) -> str:
    h = hashlib.sha256()
    for v in visited:
        w = v.world
        h.update(v.tensor.to_bytes())
        h.update(v.primitive.type.encode())
        h.update(str(w.tick).encode())
        h.update(np.asarray(w.gripper.pose, dtype="<f8").tobytes())
        h.update(repr((float(w.gripper.aperture), w.gripper.holding)).encode())
        for e in w.entities:
            h.update(np.asarray(e.pose, dtype="<f8").tobytes())
            if e.articulation is not None:
                h.update(repr(float(e.articulation.coordinate)).encode())
    return h.hexdigest()


def test_recorded_and_visited_episodes_golden():
    # reach ticks skip the tensor only when nothing keeps it: recording and
    # keep_visited must still see a tensor for every tick, bit for bit
    res = run_episode("pick-place", ExpertAsPolicy(), LoopConfig(record=True), seed=3)
    assert (res.ticks, res.final_digest, len(res.recorded_steps)) == (99, "0a86cfd9a3d410c8", 99)
    assert _steps_digest(res.recorded_steps) == (
        "d681c737ba92fc63ff323ddb3fdf57c9a16efffc3e09ad4b9797c9fea415426a")
    res = run_episode("pick-place", ExpertAsPolicy(), LoopConfig(keep_visited=True), seed=3)
    assert (res.ticks, res.final_digest, len(res.visited)) == (99, "0a86cfd9a3d410c8", 99)
    assert _visited_digest(res.visited) == (
        "fcaefa3c4f4b6a5ee2c3aa37cd2aee0d68db772b9e5f4c8b1726766bb7d3b47d")
    # a grasp fault edits the world in place; the recorded tensors follow it
    # (test_replay_roundtrip_with_fault pins the per-tick frame digests)
    res = run_episode("pick-place", ExpertAsPolicy(),
                      LoopConfig(record=True, fault=FaultConfig()), seed=3)
    assert (res.ticks, res.final_digest, len(res.recorded_steps)) == (174, "ecd0c7c102c52446", 174)
    assert _steps_digest(res.recorded_steps) == (
        "d0dd3ab557abce723849647f046942feadb2a3877beb2b57f9e3de345c78d4a4")
    # a rotated and shifted third camera: every recorded tensor, bit for bit
    res = run_episode("open-drawer", ExpertAsPolicy(), LoopConfig(record=True),
                      suite="unseen_camera", seed=3)
    assert (res.ticks, res.final_digest, len(res.recorded_steps)) == (49, "d56537333c012dda", 49)
    assert _steps_digest(res.recorded_steps) == (
        "2bd4d4fe2004a05560b4b588bb55e0d84fc33b0e8aa2d78be5425498baac5ab1")


@pytest.mark.parametrize("task,over,seed", [
    ("pick-place", {"fault": FaultConfig()}, 11),
    ("pick-insert", {}, 1),
])
def test_episode_stepped_by_hand_matches_run_episode(tmp_path, task, over, seed):
    ref_log, log = tmp_path / "ref.jsonl", tmp_path / "ep.jsonl"
    ref = run_episode(task, ExpertAsPolicy(), LoopConfig(log_path=str(ref_log), **over),
                      seed=seed)
    expert = ExpertAsPolicy()
    ep = Episode(task, LoopConfig(log_path=str(log), **over), "nominal", seed, None)
    while ep.running:
        ep.observe()
        if not ep.running:
            break
        if ep.follower is not None:
            ep.advance(ep.follower.act(ep.world))
        else:
            ep.advance(expert.act(ep))
    assert ep.result == ref
    assert log.read_bytes() == ref_log.read_bytes()
    if over:   # the fault fired and a Wrong verdict recovered from it
        assert '"fault"' in log.read_text()
        assert any(e["verdict"] == "wrong" for e in ref.status_events) and ref.success
    else:
        assert ref.stages_completed == 4


def test_visited_worlds_stay_as_they_were_stored():
    # advance keeps the pre-step world itself, not a copy: neither step nor
    # the fault (which fires here) may write it afterwards
    expert = ExpertAsPolicy()
    ep = Episode("pick-place", LoopConfig(keep_visited=True, fault=FaultConfig()),
                 "nominal", 11, None)
    snapshots = []
    while ep.running:
        ep.observe()
        if not ep.running:
            break
        snapshots.append(copy.deepcopy(ep.world))
        ep.advance(ep.follower.act(ep.world) if ep.follower is not None
                   else expert.act(ep))
    visited = ep.result.visited
    assert len(visited) == len(snapshots) == ep.result.ticks
    for snap, v in zip(snapshots, visited):
        assert states_equal(snap, v.world)
        assert np.array_equal(snap.held_offset, v.world.held_offset)


def _calls(monkeypatch, name):
    """Arguments of every call the loop makes through ``loop.<name>``."""
    calls, real = [], getattr(looplib, name)

    def recorded(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(looplib, name, recorded)
    return calls


def _zero_net_policy():
    return NetPolicy(PolicyParams({name: np.zeros(shape, np.float32) for name, shape in _SHAPES}))


RESULT_FIELDS = ("outcome", "reason", "ticks", "reward", "stages_completed", "final_digest",
                 "status_events", "primitive_log")


@pytest.mark.parametrize("task,over,seed", [
    ("pick-place", {"fault": FaultConfig(), "status_noise": StatusNoise(rate=0.2, seed=1)}, 11),
    ("pick-insert", {}, 1),
    ("open-drawer", {"status_period": 10}, 3),
])
def test_expert_episode_builds_no_tensor_and_reading_it_changes_nothing(
        monkeypatch, task, over, seed):
    built = _calls(monkeypatch, "to_tensor")
    ref = run_episode(task, ExpertAsPolicy(), LoopConfig(**over), seed=seed)
    assert built == []
    # the same episode, reading the tensor (twice) on every tick before acting
    expert = ExpertAsPolicy()
    ep = Episode(task, LoopConfig(**over), "nominal", seed, None)
    while ep.running:
        ep.observe()
        if not ep.running:
            break
        assert ep.tensor is ep.tensor
        ep.advance(ep.follower.act(ep.world) if ep.follower is not None else expert.act(ep))
    for name in RESULT_FIELDS:
        assert getattr(ep.result, name) == getattr(ref, name), name
    assert [frame.tick for _, frame in built] == list(range(ref.ticks))


def test_net_policy_builds_one_tensor_per_policy_tick(monkeypatch):
    built = _calls(monkeypatch, "to_tensor")
    forwards = _calls(monkeypatch, "forward")
    res = run_episode("press-button", _zero_net_policy(), LoopConfig(max_ticks=120), seed=1)
    # reach ticks belong to the waypoint follower and build nothing
    assert 0 < len(forwards) < res.ticks
    ticks = [frame.tick for _, frame in built]
    assert len(ticks) == len(set(ticks)) == len(forwards)


@pytest.mark.parametrize("over", [
    {"record": True}, {"keep_visited": True}, {"record": True, "keep_visited": True}])
@pytest.mark.parametrize("net", [False, True])
def test_recording_or_keeping_builds_one_tensor_per_tick(monkeypatch, over, net):
    built = _calls(monkeypatch, "to_tensor")
    policy = _zero_net_policy() if net else ExpertAsPolicy()
    res = run_episode("pick-place", policy, LoopConfig(max_ticks=120, **over), seed=3)
    assert [frame.tick for _, frame in built] == list(range(res.ticks))
    assert len(res.recorded_steps or res.visited) == res.ticks
