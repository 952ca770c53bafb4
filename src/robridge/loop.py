"""Dual-frequency closed-loop execution.

Every tick: render, tracker refresh, tensor conversion, one action (policy
forward, or waypoint following while the current primitive is "reach"),
one world step; reach ticks skip the tensor unless the episode records
steps or keeps visited states. Every K ticks: a status check; Success
advances the plan cursor and rebuilds the observation for the next
primitive, Wrong regenerates it (re-ground, rebuild, fast-forward past
already-satisfied primitives, full replan if grounding is gone) and
consumes a retry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import hcp, tasks as tasklib
from .experts import (
    ExpertPolicy,
    MotionPlanError,
    TrajectoryStep,
    WaypointFollower,
    expert_action,
    motion_plan_reach,
)
from .hcp import (
    ConstraintError,
    GroundingError,
    GroundingNoise,
    Plan,
    PlanningError,
    PrimitiveAction,
    Status,
    StatusNoise,
    approach_pose,
)
from .observation import BuildError, ObsTensor, build, init_tracker, to_tensor, track_update
from .policy import PolicyParams, forward, zero_params
from .render import frame_digest, render
from .tasks import ExpertRandomization, TaskSpec
from .util import SCHEMA_VERSION, rng_for
from .world import WorldState, step, support_height


class NetPolicy:
    """Adapter: trained policy parameters driving the loop."""

    def __init__(self, params: PolicyParams):
        self.params = params

    def act(self, tensor: ObsTensor, primitive: PrimitiveAction, world: WorldState) -> np.ndarray:
        return forward(self.params, tensor)


class ExpertAsPolicy:
    """Adapter: scripted privileged expert driving the loop."""

    def __init__(self, params: ExpertPolicy | None = None):
        self.params = params or ExpertPolicy()

    def act(self, tensor: ObsTensor, primitive: PrimitiveAction, world: WorldState) -> np.ndarray:
        return expert_action(primitive, world, self.params)


class ZeroPolicy:
    def act(self, tensor, primitive, world) -> np.ndarray:
        return np.zeros(4)


@dataclass
class FaultConfig:
    """Transient grasp fault: after the gripper has held an object for
    hold_ticks consecutive ticks, the object is knocked loose and lands
    displacement meters away. The default fires once, mid-transport."""
    kind: str = "grasp_drop"
    displacement: float = 0.06
    hold_ticks: int = 30
    fire_on_hold_event: int = 1    # fires from the k-th successful hold onward
    max_fires: int = 1


HOLD_STAGE_TICKS = 5   # a "hold" stage needs this many consecutive held ticks


@dataclass
class LoopConfig:
    status_period: int = 25        # K: ticks between status checks
    retry_budget: int = 2
    max_ticks: int = 1000
    primitive_timeout: int = 200
    record: bool = False
    keep_visited: bool = False
    grounding_noise: GroundingNoise | None = None
    status_noise: StatusNoise | None = None
    fault: FaultConfig | None = None
    external_planner: hcp.ExternalPlannerClient | None = None
    log_path: str | None = None


@dataclass
class LoopState:
    plan: Plan
    tracker: object
    obs: object
    tick: int = 0
    retries_used: dict = field(default_factory=dict)
    outcome: str = "running"       # running | done | failed


@dataclass
class VisitedState:
    tensor: ObsTensor
    primitive: PrimitiveAction
    world: WorldState


@dataclass
class EpisodeResult:
    success: bool
    reward: float
    ticks: int
    outcome: str
    reason: str = ""
    primitive_log: list = field(default_factory=list)
    status_events: list = field(default_factory=list)
    recorded_steps: list = field(default_factory=list)
    visited: list = field(default_factory=list)
    stages_completed: int = 0
    track_calls: int = 0
    status_calls: int = 0
    final_digest: str = ""


class _EpisodeFailed(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def _fire_fault(world: WorldState, fault: FaultConfig, seed: int) -> dict:
    """Where the fault knocks the held object to, as an event for
    ``apply_fault`` and the episode log."""
    ent = world.entity(world.gripper.holding)
    rng = rng_for(seed, "fault", ent.id, world.tick)
    base = float(rng.uniform(0.0, 2.0 * np.pi))
    fixtures = [e for e in world.entities if not e.graspable]
    best, best_score = None, -1.0
    for k in range(8):
        ang = base + k * np.pi / 4.0
        x = ent.pose[0] + fault.displacement * np.cos(ang)
        y = ent.pose[1] + fault.displacement * np.sin(ang)
        if not (world.workspace[0, 0] + 0.03 <= x <= world.workspace[0, 1] - 0.03
                and world.workspace[1, 0] + 0.03 <= y <= world.workspace[1, 1] - 0.03):
            continue
        score = min((np.hypot(x - f.pose[0], y - f.pose[1]) for f in fixtures), default=1.0)
        if score > best_score:
            best, best_score = (x, y), score
    if best is None:
        best = (ent.pose[0], ent.pose[1])
    pose = ent.pose.copy()
    pose[0], pose[1] = best
    pose[2] = support_height(world, replace(ent, pose=pose))
    return {"entity": ent.id, "pose": [float(v) for v in pose]}


def apply_fault(world: WorldState, event: dict) -> None:
    """Make a fault firing (see ``_fire_fault``): release the grip and put
    the entity at its landing pose. The live episode and ``cmd_replay``
    both call this after the tick's step."""
    world.gripper.holding = None
    world.held_offset = None
    world.entity(event["entity"]).pose[:] = event["pose"]


def _episode_noise(noise: GroundingNoise | StatusNoise | None, task_id: str,
                   seed: int) -> GroundingNoise | StatusNoise | None:
    """A copy of a noise config keyed on the episode, so that tasks and
    seeds do not all see flips at the same ticks."""
    if noise is None:
        return None
    key = rng_for(noise.seed, task_id, int(seed), "noise").integers(1 << 31)
    return replace(noise, seed=int(key))


def _begin_primitive(plan: Plan, world: WorldState, frame, cfg: LoopConfig):
    """Ground the current primitive and build its observation bundle."""
    action = plan.current
    table = world.symbol_table()
    shapes = {e.id: e.kind for e in world.entities}
    grounding = hcp.ground(action, frame, table, cfg.grounding_noise, shapes)
    direction = None
    if action.type in ("open", "close", "pull", "turn", "push"):
        direction = hcp.direction_constraint(action, world)
    obs = build(action, frame, grounding, direction)
    tracker = init_tracker(obs, frame)
    follower = None
    if action.type == "reach":
        goal = approach_pose(world, action.obj)
        follower = WaypointFollower(motion_plan_reach(world, goal))
    return obs, tracker, follower


def _fast_forward(plan: Plan, world: WorldState) -> int:
    """First primitive whose completion predicate does not already hold."""
    for i, action in enumerate(plan.actions):
        try:
            if not hcp.primitive_succeeded(action, world):
                return i
        except KeyError:
            return i
    return len(plan.actions)


def run_episode(task: TaskSpec | str, policy, cfg: LoopConfig | None = None,
                suite: str = "nominal", seed: int = 0,
                expert_rand: ExpertRandomization | None = None) -> EpisodeResult:
    cfg = cfg or LoopConfig()
    cat = tasklib.load_catalog()
    if isinstance(task, str):
        task = cat.task(task)
    cfg = replace(cfg, status_noise=_episode_noise(cfg.status_noise, task.id, seed),
                  grounding_noise=_episode_noise(cfg.grounding_noise, task.id, seed))
    world, instruction, cams = tasklib.instantiate(task.id, suite, seed, expert_rand)
    cam3, cam1 = cams

    result = EpisodeResult(success=False, reward=0.0, ticks=0, outcome="running")
    log_lines = []
    if cfg.log_path:
        log_lines.append(json.dumps({
            "schema_version": SCHEMA_VERSION, "task_id": task.id, "suite": suite,
            "seed": int(seed), "instruction": instruction,
            "status_period": cfg.status_period, "retry_budget": cfg.retry_budget,
            "max_ticks": cfg.max_ticks,
            "camera_offset": list(cam3.offset),
            "expert_rand": expert_rand is not None,
        }, sort_keys=True))

    frame = render(world, cam3, cam1)
    state = None
    stage_idx = 0
    stage_hold_run = 0

    def fail(reason: str) -> EpisodeResult:
        result.outcome = "failed"
        result.reason = reason
        return _finish(result, task, world, frame, cfg, log_lines, stage_idx)

    try:
        plan = hcp.plan(instruction, frame, cfg.external_planner,
                        sorted(world.symbol_table()))
    except PlanningError as e:
        result.ticks = 0
        return fail(f"planning: {e}")

    deadline = cfg.primitive_timeout
    try:
        obs, tracker, follower = _begin_primitive(plan, world, frame, cfg)
    except (GroundingError, BuildError, ConstraintError, MotionPlanError) as e:
        return fail(f"setup: {e}")
    state = LoopState(plan=plan, tracker=tracker, obs=obs)
    prim_started = 0
    fault_state = {"fires": 0, "hold_run": 0, "events": 0, "was_holding": False}

    for i in range(1, cfg.max_ticks + 1):
        state.tracker, state.obs = track_update(state.tracker, state.obs, frame)
        result.track_calls += 1

        if i % cfg.status_period == 0:
            result.status_calls += 1
            lost = bool(state.tracker.lost_channels())
            verdict = hcp.check_status(plan.current, frame, world, deadline,
                                       lost=lost, noise=cfg.status_noise)
            result.status_events.append({"tick": world.tick, "cursor": plan.cursor,
                                         "verdict": verdict.value})
            if verdict is Status.SUCCESS:
                result.primitive_log.append({
                    "index": plan.cursor, "type": plan.current.type,
                    "obj": plan.current.obj, "started": prim_started,
                    "ended": world.tick, "verdict": "success",
                })
                plan.cursor += 1
                if plan.done:
                    result.outcome = "done"
                    break
                prim_started = world.tick
                deadline = world.tick + cfg.primitive_timeout
                try:
                    state.obs, state.tracker, follower = _begin_primitive(plan, world, frame, cfg)
                except (GroundingError, BuildError, ConstraintError, MotionPlanError) as e:
                    return fail(f"advance: {e}")
            elif verdict is Status.WRONG:
                used = state.retries_used.get(plan.cursor, 0) + 1
                state.retries_used[plan.cursor] = used
                if used > cfg.retry_budget:
                    return fail(f"retries exhausted at primitive {plan.cursor} "
                                f"({plan.current.type} {plan.current.obj})")
                try:
                    plan, state, follower, deadline = _recover(
                        plan, state, world, frame, cfg, instruction)
                    prim_started = world.tick
                except _EpisodeFailed as e:
                    return fail(e.reason)

        reach = follower is not None and plan.current.type == "reach"
        # the waypoint follower ignores the tensor; build it only if kept
        tensor = None
        if not reach or cfg.record or cfg.keep_visited:
            tensor = to_tensor(state.obs, frame)
        if reach:
            action = follower.act(world)
        else:
            action = policy.act(tensor, plan.current, world)
        action = np.clip(np.asarray(action, dtype=np.float64), -1.0, 1.0)

        if cfg.keep_visited:
            result.visited.append(VisitedState(tensor, plan.current, world.copy()))

        world = step(world, action)

        fired = None
        if cfg.fault is not None:
            fired = _update_fault(world, cfg.fault, fault_state, seed)

        r = tasklib.reward(task, world)
        if cfg.record:
            result.recorded_steps.append(TrajectoryStep(
                tensor.to_bytes(), np.asarray(action, dtype=np.float32), r,
                frame_digest(frame)))
        if cfg.log_path:
            rec = {
                "tick": world.tick, "cursor": plan.cursor,
                "primitive": plan.current.type, "obj": plan.current.obj,
                "action": [float(a) for a in action],
                "digest": frame_digest(frame), "reward": r,
            }
            if fired is not None:
                rec["fault"] = fired
            log_lines.append(json.dumps(rec, sort_keys=True))

        while task.stages and stage_idx < len(task.stages):
            stage = task.stages[stage_idx]
            if stage[0] == "hold":
                stage_hold_run = stage_hold_run + 1 if tasklib.stage_satisfied(world, stage) else 0
                if stage_hold_run < HOLD_STAGE_TICKS:
                    break
                stage_hold_run = 0
            elif not tasklib.stage_satisfied(world, stage):
                break
            stage_idx += 1

        frame = render(world, cam3, cam1)

    if result.outcome == "running":
        result.outcome = "max_ticks"
    return _finish(result, task, world, frame, cfg, log_lines, stage_idx)


def _update_fault(world: WorldState, fault: FaultConfig, fs: dict, seed: int) -> dict | None:
    """Advance the fault's hold counters; returns the firing, if one happened."""
    fired = None
    holding = world.gripper.holding is not None
    if holding and not fs["was_holding"]:
        fs["events"] += 1
        fs["hold_run"] = 0
    if holding:
        fs["hold_run"] += 1
        if (fs["fires"] < fault.max_fires
                and fs["events"] >= fault.fire_on_hold_event
                and fs["hold_run"] >= fault.hold_ticks):
            fired = _fire_fault(world, fault, seed)
            apply_fault(world, fired)
            fs["fires"] += 1
    fs["was_holding"] = world.gripper.holding is not None
    return fired


def _recover(plan: Plan, state: LoopState, world: WorldState, frame, cfg: LoopConfig,
             instruction: str):
    """Wrong verdict: regenerate the observation; replan if grounding is gone."""
    try:
        try:
            hcp.ground(plan.current, frame, world.symbol_table(), cfg.grounding_noise,
                       {e.id: e.kind for e in world.entities})
        except GroundingError:
            plan = hcp.plan(instruction, frame, cfg.external_planner,
                            sorted(world.symbol_table()))
        plan.cursor = _fast_forward(plan, world)
        if plan.done:
            plan.cursor = len(plan.actions) - 1
        obs, tracker, follower = _begin_primitive(plan, world, frame, cfg)
    except (PlanningError, GroundingError, BuildError, ConstraintError, MotionPlanError) as e:
        raise _EpisodeFailed(f"regeneration: {e}")
    state.plan = plan
    state.obs = obs
    state.tracker = tracker
    deadline = world.tick + cfg.primitive_timeout
    return plan, state, follower, deadline


def _finish(result: EpisodeResult, task: TaskSpec, world: WorldState, frame,
            cfg: LoopConfig, log_lines: list, stage_idx: int) -> EpisodeResult:
    # episode success comes from the task oracle, independent of checker noise
    result.success = tasklib.is_success(task, world)
    result.reward = tasklib.reward(task, world)
    result.ticks = world.tick
    result.stages_completed = stage_idx
    result.final_digest = frame_digest(frame)
    if cfg.log_path:
        log_lines.append(json.dumps({
            "final": True, "success": result.success, "reward": result.reward,
            "ticks": result.ticks, "outcome": result.outcome,
            "final_digest": result.final_digest,
        }, sort_keys=True))
        with open(cfg.log_path, "w", encoding="utf-8") as f:
            f.write("\n".join(log_lines) + "\n")
    return result

