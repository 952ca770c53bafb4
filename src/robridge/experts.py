"""Scripted privileged-state experts, the reach motion planner, and
expert rollout collection.

Each primitive gets a deterministic feedback rule over ground-truth
state. The rules are stand-ins for per-task trained experts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .hcp import ConstraintError, PrimitiveAction, approach_pose, direction_constraint
from .observation import GRID, GRID_CHANNELS, VEC_DIM
from .tasks import ExpertRandomization, TaskSpec, load_catalog
from .util import SCHEMA_VERSION, check_schema_version
from .world import (
    GRASP_APERTURE,
    GRIPPER_RADIUS,
    MAX_STEP_M,
    WorldState,
    effective_pose,
    entity_top,
    footprint_contains,
    footprint_radius,
    handle_point,
)

WAYPOINT_TOL = 0.005
COLLISION_RES = 0.01     # m, straight-segment sampling step

# thresholds of the scripted feedback rules
XY_TOL = 0.006
Z_TOL = 0.002
CLOSE_GAP = 0.02         # start closing this far above the grasp height
GRASP_CLEARANCE = 0.0    # descend until the tip meets the top plane
TURN_STEP_RAD = 0.2
SLOW_GAP = 0.03          # descend slowly within this gap above the stop height
SLOW_CAP = 0.4           # the vertical command's bound while slow
HANDLE_REACH = 0.015     # the fingertip holds a handle within this distance


class MotionPlanError(ValueError):
    pass


class ExpertError(ValueError):
    pass


def _clamp_to_action(delta: np.ndarray, g: float) -> np.ndarray:
    a = np.zeros(4)
    a[:3] = np.clip(delta / MAX_STEP_M, -1.0, 1.0)
    a[3] = g
    return np.clip(a, -1.0, 1.0)


def _soft_descend(dz: float, gap: float) -> float:
    """Slow the vertical approach near the stop height so the profile has
    intermediate speeds an imitator can latch onto."""
    cmd = np.clip(dz / MAX_STEP_M, -1.0, 1.0)
    if gap < SLOW_GAP:
        cmd = float(np.clip(cmd, -SLOW_CAP, SLOW_CAP))
    return cmd


def motion_plan_reach(world: WorldState, target) -> list[np.ndarray]:
    """Lift-translate-descend waypoints to the target point.

    The translate segment is collision-checked at 1 cm resolution against
    entity footprints; when blocked, the clearance plane is raised above
    the tallest blocker.
    """
    target = np.asarray(target, dtype=np.float64)[:3]
    ws = world.workspace
    for i in range(3):
        if not ws[i, 0] - 1e-9 <= target[i] <= ws[i, 1] + 1e-9:
            raise MotionPlanError(f"target {target} outside workspace axis {i}")
    pos = world.gripper.pose[:3].copy()
    if float(np.linalg.norm(target - pos)) < 1e-9:
        return [pos.copy()]

    hang = 0.0
    if world.gripper.holding is not None and world.held_offset is not None:
        hang = max(0.0, -float(world.held_offset[2]))

    z_plane = max(pos[2], target[2])
    for _ in range(8):
        blocker_top = _segment_blocked(world, pos[:2], target[:2], z_plane - hang)
        if blocker_top is None:
            break
        z_plane = blocker_top + hang + 0.01
        if z_plane > ws[2, 1] + 1e-9:
            raise MotionPlanError("no collision-free clearance plane inside the workspace")
    else:
        raise MotionPlanError("clearance search did not converge")

    return [np.array([pos[0], pos[1], z_plane]),
            np.array([target[0], target[1], z_plane]),
            target.copy()]


def _segment_blocked(world: WorldState, a: np.ndarray, b: np.ndarray,
                     z: float) -> float | None:
    """Top height of the tallest entity hit along the segment, else None."""
    length = float(np.hypot(*(b - a)))
    steps = max(2, int(math.ceil(length / COLLISION_RES)) + 1)
    ts = np.linspace(0.0, 1.0, steps)
    worst = None
    for e in world.entities:
        if not e.solid or e.id == world.gripper.holding:
            continue
        top = entity_top(e)
        if top <= z + 1e-6:
            continue
        p = effective_pose(e)
        r = footprint_radius(e) + GRIPPER_RADIUS
        for t in ts:
            x, y = a + (b - a) * t
            if (x - p[0]) ** 2 + (y - p[1]) ** 2 <= r * r:
                worst = top if worst is None else max(worst, top)
                break
    return worst


class WaypointFollower:
    """Emits actions that walk the gripper through a waypoint list."""

    def __init__(self, waypoints: list[np.ndarray]):
        self.waypoints = waypoints
        self.idx = 0

    @property
    def done(self) -> bool:
        return self.idx >= len(self.waypoints)

    def act(self, world: WorldState) -> np.ndarray:
        g = -1.0 if world.gripper.holding is not None else 1.0
        while not self.done:
            wp = self.waypoints[self.idx]
            delta = wp - world.gripper.pose[:3]
            if float(np.linalg.norm(delta)) <= WAYPOINT_TOL:
                self.idx += 1
                continue
            return _clamp_to_action(delta, g)
        return _clamp_to_action(np.zeros(3), g)


def expert_action(primitive: PrimitiveAction, world: WorldState) -> np.ndarray:
    """Deterministic expert command for the primitive in this state."""
    t = primitive.type
    try:
        ent = world.find(primitive.obj)
    except KeyError as e:
        raise ExpertError(str(e))
    if t == "reach":
        goal = approach_pose(world, primitive.obj)
        return _clamp_to_action(goal - world.gripper.pose[:3], -1.0 if world.gripper.holding else 1.0)
    if t == "grasp":
        return _grasp_rule(world, ent)
    if t == "place":
        if world.gripper.holding != ent.id:
            from .hcp import primitive_succeeded
            if primitive_succeeded(primitive, world):
                return _clamp_to_action(np.zeros(3), 1.0)   # placed: stay put
            return _grasp_rule(world, ent)   # dropped elsewhere: go re-fetch it
        return _place_rule(world, world.find(primitive.des))
    if t == "press":
        return _press_rule(world, ent)
    if t in ("open", "close", "pull") or (t == "push" and ent.articulation is not None):
        return _slide_rule(world, primitive, ent)
    if t == "turn":
        return _turn_rule(world, ent)
    if t == "push":
        return _push_rule(world, primitive, ent)
    raise ExpertError(f"no expert rule for primitive {t!r}")


def _grasp_rule(world: WorldState, ent) -> np.ndarray:
    # descend onto the top plane, closing the fingers during the final
    # stretch; engagement fires on proximity, so closing early costs nothing
    # and the imitator inherits a boundary-free profile
    g = world.gripper.pose[:3]
    if world.gripper.holding == ent.id:
        return _clamp_to_action(np.zeros(3), -1.0)
    ep = effective_pose(ent)
    grasp_z = entity_top(ent) + GRASP_CLEARANCE
    dxy = np.array([ep[0] - g[0], ep[1] - g[1]])
    if float(np.hypot(*dxy)) > XY_TOL:
        return _clamp_to_action(np.array([dxy[0], dxy[1], 0.0]), 1.0)
    gap = g[2] - grasp_z
    a = _clamp_to_action(np.array([dxy[0], dxy[1], 0.0]),
                         1.0 if gap > CLOSE_GAP else -1.0)
    a[2] = _soft_descend(grasp_z - g[2], gap)
    return a


RELEASE_CLEARANCE = 0.06   # gripper height above the destination top at release


def _place_rule(world: WorldState, des) -> np.ndarray:
    # release at a fixed height above the destination (independent of the
    # held object's size) so the open decision is a clean function of the
    # observable gripper pose
    g = world.gripper.pose[:3]
    dp = effective_pose(des)
    release_z = entity_top(des) + RELEASE_CLEARANCE
    dxy = np.array([dp[0] - g[0], dp[1] - g[1]])
    if float(np.hypot(*dxy)) > XY_TOL + 0.002:
        return _clamp_to_action(np.array([dxy[0], dxy[1], 0.0]), -1.0)
    if g[2] > release_z + Z_TOL:
        a = _clamp_to_action(np.array([dxy[0], dxy[1], 0.0]), -1.0)
        a[2] = _soft_descend(release_z - g[2], g[2] - release_z)
        return a
    return _clamp_to_action(np.zeros(3), 1.0)   # open and let it settle


def _press_rule(world: WorldState, ent) -> np.ndarray:
    g = world.gripper.pose[:3]
    art = ent.articulation
    if art is None:
        raise ExpertError(f"press target {ent.name!r} is not articulated")
    if art.coordinate >= art.hi - 1e-9:
        return _clamp_to_action(np.zeros(3), -1.0)
    hp = handle_point(ent)
    dxy = np.array([hp[0] - g[0], hp[1] - g[1]])
    if float(np.hypot(*dxy)) > XY_TOL:
        return _clamp_to_action(np.array([dxy[0], dxy[1], 0.0]), -1.0)
    return _clamp_to_action(np.array([dxy[0], dxy[1], (hp[2] - 0.004) - g[2]]), -1.0)


def _engaged(world: WorldState, ent) -> bool:
    hp = handle_point(ent)
    return (float(np.linalg.norm(world.gripper.pose[:3] - hp)) <= HANDLE_REACH
            and world.gripper.aperture < GRASP_APERTURE)


def _approach_handle(hp: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Before engaging a handle at hp: centre over it open, descend onto it,
    then close."""
    dxy = np.array([hp[0] - g[0], hp[1] - g[1]])
    if float(np.hypot(*dxy)) > XY_TOL:
        return _clamp_to_action(np.array([dxy[0], dxy[1], 0.0]), 1.0)
    if g[2] > hp[2] + Z_TOL:
        return _clamp_to_action(np.array([dxy[0], dxy[1], hp[2] - g[2]]), 1.0)
    return _clamp_to_action(np.zeros(3), -1.0)


def _slide_rule(world: WorldState, primitive, ent) -> np.ndarray:
    art = ent.articulation
    if art is None:
        raise ExpertError(f"{primitive.type!r} target {ent.name!r} is not articulated")
    d = direction_constraint(primitive, world)
    end = art.hi if primitive.type != "close" else art.lo
    if abs(art.coordinate - end) < 1e-9:
        return _clamp_to_action(np.zeros(3), -1.0)
    hp = handle_point(ent)
    g = world.gripper.pose[:3]
    if not _engaged(world, ent):
        return _approach_handle(hp, g)
    remaining = abs(end - art.coordinate)
    step = min(MAX_STEP_M, remaining)
    return _clamp_to_action(hp + d * step - g, -1.0)


def _turn_rule(world: WorldState, ent) -> np.ndarray:
    art = ent.articulation
    if art is None or art.mode != "rotary":
        raise ExpertError(f"turn target {ent.name!r} is not a rotary fixture")
    if art.coordinate >= art.hi - 1e-9:
        return _clamp_to_action(np.zeros(3), -1.0)
    hp = handle_point(ent)
    g = world.gripper.pose[:3]
    if not _engaged(world, ent):
        return _approach_handle(hp, g)
    center = effective_pose(ent)[:2]
    step = min(TURN_STEP_RAD, art.hi - art.coordinate + 0.02)
    c, s = math.cos(step), math.sin(step)
    radial = hp[:2] - center
    target_xy = center + np.array([c * radial[0] - s * radial[1],
                                   s * radial[0] + c * radial[1]])
    return _clamp_to_action(np.array([target_xy[0] - g[0], target_xy[1] - g[1], hp[2] - g[2]]), -1.0)


def _push_rule(world: WorldState, primitive, ent) -> np.ndarray:
    if primitive.des is None:
        raise ConstraintError("push without destination or articulation")
    des = world.find(primitive.des)
    g = world.gripper.pose[:3]
    ep = effective_pose(ent)
    if world.gripper.holding == ent.id:
        return _clamp_to_action(np.zeros(3), 1.0)   # pushing, not carrying: let go
    if footprint_contains(des, ep[0], ep[1]):
        return _clamp_to_action(np.zeros(3), -1.0)
    d = direction_constraint(primitive, world)
    behind = ep[:2] - d[:2] * (footprint_radius(ent) + GRIPPER_RADIUS + 0.004)
    push_z = ep[2] + ent.height * 0.4
    travel_z = entity_top(ent) + 0.03
    dxy = np.array([behind[0] - g[0], behind[1] - g[1]])
    if float(np.hypot(*dxy)) > 0.01:
        if (g[2] < travel_z - Z_TOL
                and float(np.hypot(*dxy)) < footprint_radius(ent) + GRIPPER_RADIUS + 0.05):
            return _clamp_to_action(np.array([0.0, 0.0, travel_z - g[2]]), -1.0)
        return _clamp_to_action(np.array([dxy[0], dxy[1], 0.0]), -1.0)
    if g[2] > push_z + Z_TOL:
        return _clamp_to_action(np.array([dxy[0], dxy[1], push_z - g[2]]), -1.0)
    return _clamp_to_action(np.array([d[0] * MAX_STEP_M, d[1] * MAX_STEP_M, 0.0]), -1.0)


# ---------------------------------------------------------------------------
# trajectories

# One stored tick, little-endian: a size field counting the bytes after it,
# the observation tensor, the clipped action and the post-step reward.
STEP_RECORD = np.dtype([("size", "<u4"), ("grid", "<f4", (GRID_CHANNELS, GRID, GRID)),
                        ("vec", "<f4", (VEC_DIM,)), ("action", "<f4", (4,)),
                        ("reward", "<f4")])
STEP_SIZE = STEP_RECORD.itemsize - STEP_RECORD["size"].itemsize


def pack_steps(ticks) -> np.ndarray:
    """STEP_RECORD array of ticks (anything with .tensor, .action and
    .reward), rounded to float32."""
    steps = np.zeros(len(ticks), STEP_RECORD)
    steps["size"] = STEP_SIZE
    for rec, t in zip(steps, ticks):
        rec["grid"], rec["vec"] = t.tensor.grid, t.tensor.vec
        rec["action"], rec["reward"] = t.action, t.reward
    return steps


@dataclass
class Trajectory:
    task_id: str
    seed: int
    steps: np.ndarray            # STEP_RECORD array
    success: bool = False
    final_tick: int = 0


def save_trajectory(traj: Trajectory, path) -> None:
    """The step records after a one-line JSON header."""
    header = {
        "schema_version": SCHEMA_VERSION,
        "task_id": traj.task_id,
        "seed": int(traj.seed),
        "success": bool(traj.success),
        "final_tick": int(traj.final_tick),
        "steps": len(traj.steps),
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        f.write(traj.steps.tobytes())


def load_trajectory(path) -> Trajectory:
    """Read a trajectory file; a bad record count, a short body or a record
    whose size field is not STEP_SIZE raises a ValueError naming the file."""
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode("utf-8"))
        check_schema_version(header, f"trajectory {path}")
        body = f.read()
    n = header["steps"]
    if n < 0 or len(body) < n * STEP_RECORD.itemsize:
        raise ValueError(f"trajectory {path} declares {n} records in {len(body)} bytes")
    steps = np.frombuffer(body, STEP_RECORD, count=n)
    if (steps["size"] != STEP_SIZE).any():
        raise ValueError(f"bad record size in trajectory {path}: expected {STEP_SIZE}")
    return Trajectory(task_id=header["task_id"], seed=header["seed"], steps=steps,
                      success=header["success"], final_tick=header["final_tick"])


def rollout_expert(task: TaskSpec | str, seed: int,
                   randomization: ExpertRandomization | None = None) -> Trajectory:
    """Run the closed loop on the nominal suite with the scripted expert as
    the policy and record (tensor, action, reward) per tick."""
    from .loop import ExpertAsPolicy, LoopConfig, run_episode

    if isinstance(task, str):
        task = load_catalog().task(task)
    result = run_episode(task, ExpertAsPolicy(), LoopConfig(keep_ticks=True),
                         seed=seed, expert_rand=randomization)
    return Trajectory(task_id=task.id, seed=int(seed), steps=pack_steps(result.kept),
                      success=result.success, final_tick=result.ticks)
