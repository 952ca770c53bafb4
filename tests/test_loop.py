import copy
import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import robridge.loop as looplib
from conftest import states_equal
from robridge import hcp
from robridge.hcp import GroundingNoise, StatusNoise
from robridge.loop import (
    MEMO_SIZE,
    Episode,
    ExpertAsPolicy,
    FaultConfig,
    LoopConfig,
    NetPolicy,
    ZeroPolicy,
    run_episode,
)
from robridge.observation import to_tensor, tracked_observation
from robridge.policy import _SHAPES, PolicyParams, init_params
from robridge.policy import forward as policy_forward
from robridge.render import _maps, render
from robridge.world import GRASP_APERTURE


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


def test_frequency_contract(monkeypatch):
    tracked = _calls(monkeypatch, "track_update")
    checked = _calls(monkeypatch, "check_status", hcp)
    res = run_episode("press-button", ExpertAsPolicy(), LoopConfig(status_period=25), seed=5)
    # the terminating check happens after the render but before a step, so
    # a check-terminated episode ends at tick 25k - 1
    assert [frame.tick for _, frame in tracked] == list(range(res.ticks + 1))
    assert len(checked) == len(res.status_events) == (res.ticks + 1) // 25
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
        h.update(s.tensor.to_bytes())
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
    # reach ticks skip the tensor only when nothing keeps it: kept ticks
    # must still carry a tensor for every tick, bit for bit
    res = run_episode("pick-place", ExpertAsPolicy(), LoopConfig(keep_ticks=True), seed=3)
    assert (res.ticks, res.final_digest, len(res.kept)) == (99, "0a86cfd9a3d410c8", 99)
    assert _steps_digest(res.kept) == (
        "d681c737ba92fc63ff323ddb3fdf57c9a16efffc3e09ad4b9797c9fea415426a")
    assert _visited_digest(res.kept) == (
        "fcaefa3c4f4b6a5ee2c3aa37cd2aee0d68db772b9e5f4c8b1726766bb7d3b47d")
    # a grasp fault edits the world in place; the recorded tensors follow it
    # (test_replay_roundtrip_with_fault pins the per-tick frame digests)
    res = run_episode("pick-place", ExpertAsPolicy(),
                      LoopConfig(keep_ticks=True, fault=FaultConfig()), seed=3)
    assert (res.ticks, res.final_digest, len(res.kept)) == (174, "ecd0c7c102c52446", 174)
    assert _steps_digest(res.kept) == (
        "d0dd3ab557abce723849647f046942feadb2a3877beb2b57f9e3de345c78d4a4")
    # a rotated and shifted third camera: every recorded tensor, bit for bit
    res = run_episode("open-drawer", ExpertAsPolicy(), LoopConfig(keep_ticks=True),
                      suite="unseen_camera", seed=3)
    assert (res.ticks, res.final_digest, len(res.kept)) == (49, "d56537333c012dda", 49)
    assert _steps_digest(res.kept) == (
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
    assert ep.result.final_digest == ref.final_digest   # made on read, not compared by ==
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
    ep = Episode("pick-place", LoopConfig(keep_ticks=True, fault=FaultConfig()),
                 "nominal", 11, None)
    snapshots = []
    while ep.running:
        ep.observe()
        if not ep.running:
            break
        snapshots.append(copy.deepcopy(ep.world))
        ep.advance(ep.follower.act(ep.world) if ep.follower is not None
                   else expert.act(ep))
    visited = ep.result.kept
    assert len(visited) == len(snapshots) == ep.result.ticks
    for snap, v in zip(snapshots, visited):
        assert states_equal(snap, v.world)
        assert np.array_equal(snap.held_offset, v.world.held_offset)


def _calls(monkeypatch, name, module=looplib):
    """Positional arguments of every call the loop makes through
    ``module.<name>``."""
    calls, real = [], getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, recorded)
    return calls


def _tensor_ticks(monkeypatch):
    """The tick of every tensor the loop builds: that of the world rendered
    last before its ``to_tensor`` call, which is the frame it is made from."""
    rendered, ticks, real = _calls(monkeypatch, "render"), [], looplib.to_tensor

    def recorded(obs):
        ticks.append(rendered[-1][0].tick)
        return real(obs)
    monkeypatch.setattr(looplib, "to_tensor", recorded)
    return ticks


def _zero_net_policy():
    return NetPolicy(PolicyParams({name: np.zeros(shape, np.float32) for name, shape in _SHAPES}))


RESULT_FIELDS = ("outcome", "reason", "ticks", "reward", "stages_completed", "final_digest",
                 "status_events", "primitive_log")


def _memo_input(ep):
    """Everything a tracked tensor is made from: the frame's maps (its
    geometry key), the gripper's pose and open flag, the build's one-hot and
    direction, and each track's component in the frame's labelling."""
    frame, built = ep.frame, ep.built
    return (frame.geometry, frame.gripper.pose.tobytes(),
            frame.gripper.aperture >= GRASP_APERTURE, built.action_onehot.tobytes(),
            None if built.direction is None else built.direction.tobytes(),
            tuple((t3.component, t1.component) for t3, t1 in ep.tracker.tracks))


def _drive(ep, policy, read_on_reach=True):
    """Step an episode by hand as run_episode does, reading the tensor
    (twice) before acting on every policy tick, and on reach ticks too when
    read_on_reach. Returns one record per read: the tick, the tensor read,
    a fresh build of it (no memo), what the memo keys it on (None when a
    primitive started in the tick and the tensor is its build's), the
    action and, for a NetPolicy, a fresh forward of the fresh build. Also
    checks that every frame's maps equal a render with empty caches."""
    reads, worlds = [], []
    while ep.running:
        built_before = ep.built
        ep.observe()
        if not ep.running:
            break
        worlds.append((ep.world.copy(), ep.frame))
        reach = ep.follower is not None
        if read_on_reach or not reach:
            x = ep.tensor
            assert ep.tensor is x
            if ep.built is built_before:
                inputs = _memo_input(ep)
                fresh = to_tensor(tracked_observation(ep.tracker, ep.built, ep.frame))
            else:
                inputs, fresh = None, to_tensor(ep.built)
        action = ep.follower.act(ep.world) if reach else policy.act(ep)
        if read_on_reach or not reach:
            expected = (policy_forward(policy.params, fresh)
                        if isinstance(policy, NetPolicy) and not reach else None)
            reads.append((ep.world.tick, x, fresh, inputs, np.array(action), expected))
        ep.advance(action)
        if not reach:
            action[...] = np.nan   # a later repeat must not see this
    for world, frame in worlds:
        _maps.cache_clear()
        f = render(world, ep.cam3, ep.cam1)
        for name in ("instance3", "instance1", "depth1"):
            assert getattr(f, name).tobytes() == getattr(frame, name).tobytes(), name
    return reads


def _assert_fresh(reads):
    """Every tensor read is read-only and equals a fresh build bit for bit,
    and every action of a NetPolicy a fresh forward."""
    for _, x, fresh, _, action, expected in reads:
        assert x.grid.tobytes() == fresh.grid.tobytes()
        assert x.vec.tobytes() == fresh.vec.tobytes()
        for a in (x.grid, x.vec):
            with pytest.raises(ValueError):
                a[0] = 0
        if expected is not None:
            assert action.tobytes() == expected.tobytes()


def _assert_memoized(reads, built):
    """A tick builds at most one tensor, and none when its input is among
    the memo's MEMO_SIZE most recent ones."""
    assert built == sorted(set(built))
    recent = []
    for tick, *_, inputs, _, _ in reads:
        if inputs is None:
            continue
        if inputs in recent:
            assert tick not in built, tick
            recent.remove(inputs)
        recent.append(inputs)
        del recent[:-MEMO_SIZE]


@pytest.mark.parametrize("task,over,seed", [
    ("pick-place", {"fault": FaultConfig(), "status_noise": StatusNoise(rate=0.2, seed=1)}, 11),
    ("pick-insert", {}, 1),
    ("open-drawer", {"status_period": 10}, 3),
])
def test_expert_episode_builds_no_tensor_and_reading_it_changes_nothing(
        monkeypatch, task, over, seed):
    built = _tensor_ticks(monkeypatch)
    ref = run_episode(task, ExpertAsPolicy(), LoopConfig(**over), seed=seed)
    assert built == []
    # the same episode, reading the tensor on every tick before acting
    ep = Episode(task, LoopConfig(**over), "nominal", seed, None)
    reads = _drive(ep, ExpertAsPolicy())
    for name in RESULT_FIELDS:
        assert getattr(ep.result, name) == getattr(ref, name), name
    assert [r[0] for r in reads] == list(range(ref.ticks))
    _assert_fresh(reads)
    _assert_memoized(reads, built)
    # the expert idles while it waits for a status check, so ticks repeat
    assert 0 < len(built) < ref.ticks


def test_net_policy_builds_one_tensor_per_policy_tick(monkeypatch):
    # each policy tick reads one tensor, built at most once per input; a
    # repeated tensor reuses its action; reach ticks read nothing
    built = _tensor_ticks(monkeypatch)
    forwards = _calls(monkeypatch, "forward")
    cfg = LoopConfig(max_ticks=120)
    ref = run_episode("press-button", NetPolicy(init_params(0)), cfg, seed=0)
    built.clear()
    forwards.clear()
    ep = Episode("press-button", cfg, "nominal", 0, None)
    reads = _drive(ep, NetPolicy(init_params(0)), read_on_reach=False)
    for name in RESULT_FIELDS:
        assert getattr(ep.result, name) == getattr(ref, name), name
    assert any(e["verdict"] == "wrong" for e in ref.status_events)
    policy_ticks = [r[0] for r in reads]
    assert 0 < len(policy_ticks) < ref.ticks
    assert set(built) <= set(policy_ticks)
    _assert_fresh(reads)
    _assert_memoized(reads, built)
    tensors = {id(r[1]) for r in reads}
    assert len(built) <= len(tensors) <= len(forwards) < len(policy_ticks)


@pytest.mark.parametrize("over", [{"keep_ticks": True}])
@pytest.mark.parametrize("net", [False, True])
def test_recording_or_keeping_builds_one_tensor_per_tick(monkeypatch, over, net):
    # every kept tick holds one tensor, built at most once per input
    built = _tensor_ticks(monkeypatch)
    policy = _zero_net_policy() if net else ExpertAsPolicy()
    cfg = LoopConfig(max_ticks=120, **over)
    ref = run_episode("pick-place", policy, cfg, seed=3)
    assert len(ref.kept) == ref.ticks
    built.clear()
    ep = Episode("pick-place", cfg, "nominal", 3, None)
    reads = _drive(ep, policy)
    assert [r[0] for r in reads] == list(range(ref.ticks))
    assert all(k.tensor is r[1] for k, r in zip(ep.result.kept, reads, strict=True))
    for k, r in zip(ref.kept, reads):
        assert k.tensor.grid.tobytes() == r[1].grid.tobytes()
        assert k.tensor.vec.tobytes() == r[1].vec.tobytes()
    _assert_fresh(reads)
    _assert_memoized(reads, built)
    assert 0 < len(built) < ref.ticks


@settings(max_examples=25, deadline=None)
@given(task=st.sampled_from(["pick-place", "push-block", "open-drawer", "sweep-into",
                             "press-button"]),
       seed=st.integers(0, 50),
       net=st.booleans(),
       fault=st.one_of(st.none(), st.builds(FaultConfig, hold_ticks=st.integers(1, 30))),
       status=st.one_of(st.none(), st.builds(StatusNoise, rate=st.floats(0.0, 0.5),
                                             seed=st.integers(0, 9))),
       grounding=st.one_of(st.none(), st.builds(GroundingNoise, flip_p=st.floats(0.0, 0.3),
                                                seed=st.integers(0, 9))),
       period=st.integers(5, 25))
# a geometry that repeats with a track on another component
@example(task="push-block", seed=0, net=False, fault=None, status=None, grounding=None,
         period=12)
def test_memoized_tensors_and_actions_equal_fresh_ones(task, seed, net, fault, status,
                                                       grounding, period):
    # every tick reads its tensor, as keeping ticks does, so reach ticks,
    # lost and re-found tracks and restarted primitives are all covered
    cfg = LoopConfig(max_ticks=150, status_period=period, fault=fault, status_noise=status,
                     grounding_noise=grounding)
    ep = Episode(task, cfg, "nominal", seed, None)
    _assert_fresh(_drive(ep, NetPolicy(init_params(seed % 3)) if net else ExpertAsPolicy()))


def test_primitive_start_hands_the_labellings_to_the_new_tracker():
    ep = Episode("pick-place", LoopConfig(), "nominal", 3, None)
    expert, starts = ExpertAsPolicy(), 0
    while ep.running:
        cursor = ep.plan.cursor
        ep.observe()
        if not ep.running:
            break
        if ep.plan.cursor != cursor:
            # the new tracker keeps this frame's labellings for its first update
            starts += 1
            assert np.array_equal(ep.tracker.view3.foreground, ep.frame.instance3 != 0)
            assert np.array_equal(ep.tracker.view1.foreground, ep.frame.instance1 != 0)
        ep.advance(ep.follower.act(ep.world) if ep.follower is not None else expert.act(ep))
    assert starts == len(ep.result.primitive_log) - 1 > 0


@pytest.mark.parametrize("task,policy,over,seed", [
    ("pick-place", ExpertAsPolicy(), {"fault": FaultConfig()}, 11),
    ("pick-place", ExpertAsPolicy(),
     {"status_noise": StatusNoise(rate=0.3, seed=1), "status_period": 5, "retry_budget": 50}, 3),
    ("sweep-into", ExpertAsPolicy(),
     {"grounding_noise": GroundingNoise(flip_p=0.5, dilate_px=2, erode_px=1, seed=4),
      "status_noise": StatusNoise(rate=0.3, seed=2), "status_period": 10,
      "retry_budget": 50}, 0),
    ("open-drawer", ZeroPolicy(), {"primitive_timeout": 40, "max_ticks": 300,
                                   "retry_budget": 50}, 1),
])
def test_recovery_keeps_the_plan_and_grounds_once_per_start(monkeypatch, task, policy, over,
                                                            seed):
    plans = _calls(monkeypatch, "plan", hcp)
    grounds = _calls(monkeypatch, "ground", hcp)
    res = run_episode(task, policy, LoopConfig(**over), seed=seed)
    wrongs = sum(e["verdict"] == "wrong" for e in res.status_events)
    recoveries = wrongs - ("retries exhausted" in res.reason)
    assert recoveries > 0
    assert len(plans) == 1
    # a primitive starts at setup, after each success that leaves the plan
    # unfinished and at each recovery; each start grounds exactly once
    successes = len(res.primitive_log) - (res.outcome == "done")
    assert len(grounds) == 1 + successes + recoveries
