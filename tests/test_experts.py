import re

import numpy as np
import pytest

from conftest import gripper_to, zero_steps
from robridge.dagger import DemoStore
from robridge.experts import (
    STEP_RECORD,
    MotionPlanError,
    Trajectory,
    WaypointFollower,
    expert_action,
    load_trajectory,
    motion_plan_reach,
    rollout_expert,
    save_trajectory,
)
from robridge.hcp import PrimitiveAction, approach_pose
from robridge.tasks import ExpertRandomization, load_catalog, reward
from robridge.util import SchemaVersionError
from robridge.world import entity_top, step


def test_motion_plan_three_waypoints(world):
    target = np.array([0.5, 0.5, 0.10])
    wps = motion_plan_reach(world, target)
    assert len(wps) == 3
    assert wps[0][2] == wps[1][2]          # lift then translate at one plane
    assert np.allclose(wps[1][:2], target[:2])
    assert np.allclose(wps[2], target)


def test_motion_plan_identity_target(world):
    wps = motion_plan_reach(world, world.gripper.pose[:3])
    assert len(wps) == 1
    assert np.allclose(wps[0], world.gripper.pose[:3])


def test_motion_plan_outside_workspace(world):
    with pytest.raises(MotionPlanError):
        motion_plan_reach(world, np.array([2.0, 0.3, 0.1]))


def test_motion_plan_detours_over_blockers(world):
    # fly low across the drawer: the plane must rise above its top
    drawer = world.find("drawer")
    w = gripper_to(world, 0.30, drawer.pose[1], 0.02)
    target = np.array([drawer.pose[0] + 0.10, drawer.pose[1], 0.02])
    wps = motion_plan_reach(w, target)
    assert wps[0][2] > entity_top(drawer)


def test_waypoint_follower_reaches_target(world):
    target = np.array([0.5, 0.5, 0.10])
    follower = WaypointFollower(motion_plan_reach(world, target))
    w = world
    for _ in range(120):
        if follower.done:
            break
        w = step(w, follower.act(w))
    assert float(np.linalg.norm(w.gripper.pose[:3] - target)) < 0.01


def test_grasp_rule_centered_descends_and_closes(world):
    cube = world.find("cube")
    w = gripper_to(world, cube.pose[0], cube.pose[1], entity_top(cube) + 0.005)
    a = expert_action(PrimitiveAction("grasp", "cube"), w)
    assert a[3] == -1.0
    assert -0.3 <= a[2] <= 0.0
    assert abs(a[0]) < 0.1 and abs(a[1]) < 0.1


def test_place_rule_descends_then_opens(world):
    cube = world.find("cube")
    slot = world.find("slot")
    w = world.copy()
    w.gripper.holding = cube.id
    w.gripper.aperture = 0.0
    w.held_offset = np.array([0.0, 0.0, -0.041, 0.0])
    w.gripper.pose[:3] = (slot.pose[0], slot.pose[1], 0.15)
    cube.pose[:] = w.gripper.pose + w.held_offset
    a = expert_action(PrimitiveAction("place", "cube", "slot"), w)
    assert a[2] < 0 and a[3] == -1.0      # descend, stay closed
    w.gripper.pose[2] = entity_top(slot) + 0.055
    cube.pose[:] = w.gripper.pose + w.held_offset
    a = expert_action(PrimitiveAction("place", "cube", "slot"), w)
    assert a[3] == 1.0                     # at release height: open


def test_push_rule_zero_at_goal(world):
    w = world.copy()
    w.find("cube").pose[:2] = w.find("slot").pose[:2]
    a = expert_action(PrimitiveAction("push", "cube", "slot"), w)
    assert np.allclose(a[:3], 0.0)


def test_expert_missing_target(world):
    from robridge.experts import ExpertError
    with pytest.raises(ExpertError):
        expert_action(PrimitiveAction("grasp", "ghost"), world)


def test_actions_always_clamped(world):
    rng = np.random.default_rng(0)
    prims = [PrimitiveAction("grasp", "cube"), PrimitiveAction("open", "drawer"),
             PrimitiveAction("push", "cube", "slot"), PrimitiveAction("reach", "cylinder")]
    w = world
    for i in range(50):
        w2 = w.copy()
        w2.gripper.pose[:3] = rng.uniform([0.05, 0.05, 0.0], [0.6, 0.6, 0.3])
        for prim in prims:
            a = expert_action(prim, w2)
            assert (np.abs(a) <= 1.0).all()


def test_rollout_deterministic():
    a = rollout_expert("press-button", seed=4)
    b = rollout_expert("press-button", seed=4)
    assert a.success and b.success
    assert a.steps.tobytes() == b.steps.tobytes()


def test_rollout_press_button_quick():
    traj = rollout_expert("press-button", seed=9)
    assert traj.success
    assert traj.final_tick <= 200
    assert ((0.0 <= traj.steps["reward"]) & (traj.steps["reward"] <= 1.0)).all()


def test_reward_non_decreasing_at_primitive_boundaries():
    cat = load_catalog()
    for tid in ("pick-place", "open-drawer", "push-block"):
        from robridge.loop import ExpertAsPolicy, LoopConfig, run_episode
        res = run_episode(tid, ExpertAsPolicy(), LoopConfig(keep_ticks=True), seed=2)
        assert res.success
        task = cat.task(tid)
        boundary_rewards = [0.0]
        for log in res.primitive_log:
            idx = min(log["ended"], len(res.kept) - 1)
            boundary_rewards.append(reward(task, res.kept[idx].world))
        assert all(b >= a - 1e-9 for a, b in zip(boundary_rewards, boundary_rewards[1:])), \
            f"{tid}: {boundary_rewards}"


def test_randomized_rollouts_succeed():
    er = ExpertRandomization()
    ok = sum(rollout_expert(t, 3000 + s, er).success
             for t in ("pick-place", "turn-dial", "open-drawer") for s in range(5))
    assert ok >= 14


def test_trajectory_serialization_roundtrip(tmp_path):
    traj = rollout_expert("press-button", seed=1)
    path = tmp_path / "t.traj"
    save_trajectory(traj, path)
    back = load_trajectory(path)
    assert back.task_id == traj.task_id
    assert back.seed == traj.seed
    assert back.success == traj.success
    assert back.final_tick == traj.final_tick
    assert back.steps.dtype == traj.steps.dtype == STEP_RECORD
    assert back.steps.tobytes() == traj.steps.tobytes()


def test_trajectory_rejects_bad_schema(tmp_path):
    traj = Trajectory("x", 0, zero_steps(1), True, 1)
    path = tmp_path / "t.traj"
    save_trajectory(traj, path)
    raw = path.read_bytes().replace(b'"schema_version": 1', b'"schema_version": 9')
    path.write_bytes(raw)
    with pytest.raises(SchemaVersionError):
        load_trajectory(path)


@pytest.mark.parametrize("damage", ["truncated", "size_field", "negative_count"])
def test_trajectory_rejects_damaged_records(tmp_path, damage):
    store = DemoStore(tmp_path, "x")
    path = store.append(Trajectory("x", 0, zero_steps(2), True, 2))
    raw = bytearray(path.read_bytes())
    if damage == "truncated":
        del raw[-1]
    elif damage == "size_field":   # the first record's, with the file's length intact
        raw[raw.index(b"\n") + 1] += 1
    else:
        raw = raw.replace(b'"steps": 2', b'"steps": -1')
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_trajectory(path)
    with pytest.raises(RuntimeError, match="corrupt trajectory file"):
        store.trajectories()
