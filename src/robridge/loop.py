"""Dual-frequency closed-loop execution.

An ``Episode`` owns one episode's state. Per tick, ``observe()`` refreshes
the tracker's association and runs the status check every K ticks;
``advance(action)`` clips the action, steps the world, lets a fault act,
keeps and logs the tick, advances the stages and renders. Success advances
the plan cursor; Wrong consumes a retry and regenerates the observation:
the cursor fast-forwards past primitives that already hold, and the
primitive it lands on is grounded and built afresh. The plan itself is
kept. The tick's observation tensor (masks, depth crops, ``to_tensor``) is
built on the first read of ``Episode.tensor`` in that tick: by a learned
policy or by keeping ticks (``LoopConfig.keep_ticks``). The scripted expert
and the waypoint follower never read it. ``run_episode`` drives an Episode:
the waypoint follower acts on reach ticks, the policy on all others.

A retry revisits states: the motion-planned reach brings the gripper back
to the same approach pose, and a deterministic policy then repeats its
ticks. So an episode memoizes its tracked tensors on their inputs (the
frame's geometry, the gripper, the build's one-hot and direction, the
tracks' components) and hands out the same read-only tensor for a repeated
input, and ``NetPolicy`` reuses the action of a tensor it has seen. Both
memos are small and bounded. The tick's reward and the final frame's digest
are made only where something reads them: a kept or logged tick, the log's
footer, or a caller of ``EpisodeResult.final_digest``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import hcp, tasks as tasklib
from .experts import (
    MotionPlanError,
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
from .observation import (
    BuildError,
    ObsTensor,
    build,
    init_tracker,
    to_tensor,
    track_update,
    tracked_observation,
)
from .policy import PolicyParams, forward
from .render import frame_digest, render
from .tasks import ExpertRandomization, TaskSpec
from .util import SCHEMA_VERSION, clip_unit, rng_for
from .world import GRASP_APERTURE, Frame, WorldState, step, support_height

# entries of each memo: an episode's tracked tensors, a NetPolicy's actions
MEMO_SIZE = 64


def _remember(memo: dict, key, value) -> None:
    """Put key last in a bounded memo, dropping the oldest entry when full."""
    memo[key] = value
    if len(memo) > MEMO_SIZE:
        del memo[next(iter(memo))]


class NetPolicy:
    """Adapter: trained policy parameters driving the loop. Reads the
    episode's observation tensor.

    An episode hands out one read-only tensor object for a repeated input,
    so the policy keeps the actions of its last MEMO_SIZE tensors and a
    repeat skips the forward. Each call returns its own action array.
    """

    def __init__(self, params: PolicyParams):
        self.params = params
        self._actions: dict[ObsTensor, np.ndarray] = {}

    def act(self, ep: Episode) -> np.ndarray:
        x = ep.tensor
        action = self._actions.pop(x, None)
        if action is None:
            action = forward(self.params, x)
        _remember(self._actions, x, action)
        return action.copy()


class ExpertAsPolicy:
    """Adapter: scripted privileged expert driving the loop. Reads the
    current primitive and the world, never the tensor."""

    def act(self, ep: Episode) -> np.ndarray:
        return expert_action(ep.plan.current, ep.world)


class ZeroPolicy:
    def act(self, ep: Episode) -> np.ndarray:
        return np.zeros(4)


@dataclass
class FaultConfig:
    """Transient grasp fault: after the gripper has held an object for
    hold_ticks consecutive ticks, the object is knocked loose and lands
    displacement meters away. The default fires once, mid-transport."""
    displacement: float = 0.06
    hold_ticks: int = 30
    fire_on_hold_event: int = 1    # fires from the k-th successful hold onward
    max_fires: int = 1


HOLD_STAGE_TICKS = 5   # a "hold" stage needs this many consecutive held ticks

# what starting a primitive can raise; each ends the episode as failed
_PRIMITIVE_ERRORS = (GroundingError, BuildError, ConstraintError, MotionPlanError)


@dataclass
class LoopConfig:
    status_period: int = 25        # K: ticks between status checks
    retry_budget: int = 2
    max_ticks: int = 1000
    primitive_timeout: int = 200
    keep_ticks: bool = False       # keep every tick in EpisodeResult.kept
    grounding_noise: GroundingNoise | None = None
    status_noise: StatusNoise | None = None
    fault: FaultConfig | None = None
    external_planner: hcp.ExternalPlannerClient | None = None
    log_path: str | None = None


@dataclass(frozen=True)
class KeptTick:
    """One tick as training reads it: the observation tensor, the primitive
    and the pre-step world it was acted in, the clipped action and the
    reward after the step."""
    tensor: ObsTensor
    primitive: PrimitiveAction
    world: WorldState
    action: np.ndarray             # (4,) float64
    reward: float


@dataclass
class EpisodeResult:
    success: bool
    reward: float
    ticks: int
    outcome: str
    reason: str = ""
    primitive_log: list = field(default_factory=list)
    status_events: list = field(default_factory=list)
    kept: list[KeptTick] = field(default_factory=list)
    stages_completed: int = 0
    # the frame the episode ended on, for final_digest
    final_frame: Frame | None = field(default=None, repr=False, compare=False)

    @property
    def final_digest(self) -> str:
        """``frame_digest`` of the frame the episode ended on, "" before it
        ends. Made on read: it paints the RGB view, which nothing else in
        an evaluation reads."""
        return "" if self.final_frame is None else frame_digest(self.final_frame)


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


def _fast_forward(plan: Plan, world: WorldState) -> int:
    """First primitive whose completion predicate does not already hold."""
    for i, action in enumerate(plan.actions):
        try:
            if not hcp.primitive_succeeded(action, world):
                return i
        except KeyError:
            return i
    return len(plan.actions)


class Episode:
    """One closed-loop episode, stepped by its caller.

    Construction does the setup: per-episode noise, the scene, the log
    header, the first render, the plan and the first primitive. While
    ``running``, each tick is ``observe()`` then ``advance(action)``;
    between the two, ``tensor`` is the tick's observation tensor. Once it
    stops, ``result`` is final and the log (if any) is written.
    """

    def __init__(self, task: TaskSpec | str, cfg: LoopConfig | None = None,
                 suite: str = "nominal", seed: int = 0,
                 expert_rand: ExpertRandomization | None = None):
        cfg = cfg or LoopConfig()
        if isinstance(task, str):
            task = tasklib.load_catalog().task(task)
        self.task, self.seed = task, seed
        self.cfg = cfg = replace(
            cfg, status_noise=_episode_noise(cfg.status_noise, task.id, seed),
            grounding_noise=_episode_noise(cfg.grounding_noise, task.id, seed))
        self.world, self.instruction, (self.cam3, self.cam1) = tasklib.instantiate(
            task.id, suite, seed, expert_rand)
        self.result = EpisodeResult(success=False, reward=0.0, ticks=0, outcome="running")
        self.running = True
        self.log_lines = []
        if cfg.log_path:
            self.log_lines.append(json.dumps({
                "schema_version": SCHEMA_VERSION, "task_id": task.id, "suite": suite,
                "seed": int(seed), "instruction": self.instruction,
                "status_period": cfg.status_period, "retry_budget": cfg.retry_budget,
                "max_ticks": cfg.max_ticks,
                "camera_offset": list(self.cam3.offset),
                # the randomization's fields, so replay rebuilds the same scene
                "expert_rand": False if expert_rand is None else asdict(expert_rand),
            }, sort_keys=True))
        self.frame = render(self.world, self.cam3, self.cam1)
        self.stage_idx = self.stage_hold_run = 0
        self.retries_used: dict[int, int] = {}
        # fault bookkeeping: grips so far, ticks the current grip has held, firings
        self.hold_events = self.hold_run = self.fault_fires = 0
        self.was_holding = False
        # this tick's fresh build, if a primitive started in it, and its
        # tensor once read: see ``tensor``
        self._obs = self._tensor = None
        self._tensors: dict[tuple, ObsTensor] = {}   # tracked tensors by input
        self.tracker = None
        try:
            self.plan = hcp.plan(self.instruction, self.frame, cfg.external_planner,
                                 sorted(self.world.symbol_table()))
            self._begin_primitive()
        except PlanningError as e:
            self._end("failed", f"planning: {e}")
        except _PRIMITIVE_ERRORS as e:
            self._end("failed", f"setup: {e}")

    def observe(self) -> None:
        """Refresh the tracker's association and run the status check every
        K ticks. A check can end the episode, or start a primitive whose
        fresh build is then this tick's observation."""
        cfg, res = self.cfg, self.result
        self.tracker = track_update(self.tracker, self.frame)
        self._obs = self._tensor = None
        if (self.world.tick + 1) % cfg.status_period == 0:
            plan, world = self.plan, self.world
            verdict = hcp.check_status(plan.current, self.frame, world, self.deadline,
                                       lost=bool(self.tracker.lost_channels()),
                                       noise=cfg.status_noise)
            res.status_events.append({"tick": world.tick, "cursor": plan.cursor,
                                      "verdict": verdict.value})
            if verdict is Status.SUCCESS:
                res.primitive_log.append({
                    "index": plan.cursor, "type": plan.current.type,
                    "obj": plan.current.obj, "started": self.started,
                    "ended": world.tick, "verdict": "success",
                })
                plan.cursor += 1
                if plan.done:
                    self._end("done")
                else:
                    try:
                        self._begin_primitive()
                    except _PRIMITIVE_ERRORS as e:
                        self._end("failed", f"advance: {e}")
            elif verdict is Status.WRONG:
                used = self.retries_used[plan.cursor] = self.retries_used.get(plan.cursor, 0) + 1
                if used > cfg.retry_budget:
                    self._end("failed", f"retries exhausted at primitive {plan.cursor} "
                                        f"({plan.current.type} {plan.current.obj})")
                else:
                    self._recover()

    @property
    def tensor(self) -> ObsTensor:
        """This tick's observation tensor, read-only, made on the first read
        after ``observe()``: from the tracker's association or, if the
        status check started a primitive, from its build. A tracked tensor
        comes from the episode's memo when an earlier tick had the same
        inputs."""
        if self._tensor is None:
            if self._obs is None:
                self._tensor = self._tracked_tensor()
            else:
                self._tensor = _read_only(to_tensor(self._obs))
        return self._tensor

    def _tracked_tensor(self) -> ObsTensor:
        """The tracked tensor of this tick, keyed on everything
        ``tracked_observation`` reads: the frame's maps (its geometry),
        the gripper's pose and open flag, the build's one-hot and direction,
        and each track's component in the frame's labelling, which is a
        function of the maps."""
        frame, built, gripper = self.frame, self.built, self.frame.gripper
        key = (frame.geometry, gripper.pose.tobytes(), gripper.aperture >= GRASP_APERTURE,
               built.action_onehot.tobytes(),
               None if built.direction is None else built.direction.tobytes(),
               tuple((t3.component, t1.component) for t3, t1 in self.tracker.tracks))
        tensor = self._tensors.pop(key, None)
        if tensor is None:
            tensor = _read_only(to_tensor(tracked_observation(self.tracker, built, frame)))
        _remember(self._tensors, key, tensor)
        return tensor

    def advance(self, action) -> None:
        """Clip and apply one action: step the world, let the fault act,
        keep and log the tick, advance the stages and render. Ends the
        episode at max_ticks."""
        cfg, res, current = self.cfg, self.result, self.plan.current
        action = clip_unit(np.asarray(action, dtype=np.float64))
        prior = self.world
        self.world = world = step(prior, action)
        fired = self._update_fault() if cfg.fault is not None else None
        if cfg.keep_ticks or cfg.log_path:
            r = tasklib.reward(self.task, world)
        if cfg.keep_ticks:
            # the tensor is still the pre-step frame's; step returned a new
            # world and the fault acted on it, so prior is never written again
            res.kept.append(KeptTick(self.tensor, current, prior, action, r))
        if cfg.log_path:
            rec = {
                "tick": world.tick, "cursor": self.plan.cursor,
                "primitive": current.type, "obj": current.obj,
                "action": [float(a) for a in action],
                "digest": frame_digest(self.frame), "reward": r,
            }
            if fired is not None:
                rec["fault"] = fired
            self.log_lines.append(json.dumps(rec, sort_keys=True))
        stages = self.task.stages
        while self.stage_idx < len(stages):
            stage = stages[self.stage_idx]
            if stage[0] == "hold":
                held = tasklib.stage_satisfied(world, stage)
                self.stage_hold_run = self.stage_hold_run + 1 if held else 0
                if self.stage_hold_run < HOLD_STAGE_TICKS:
                    break
                self.stage_hold_run = 0
            elif not tasklib.stage_satisfied(world, stage):
                break
            self.stage_idx += 1
        self.frame = render(world, self.cam3, self.cam1)
        if world.tick >= cfg.max_ticks:
            self._end("max_ticks")

    def _begin_primitive(self) -> None:
        """Ground the current primitive, build its observation bundle and
        start its clock."""
        action, world, frame = self.plan.current, self.world, self.frame
        grounding = hcp.ground(action, frame, world, self.cfg.grounding_noise)
        self._obs = self.built = build(action, frame, grounding,
                                       hcp.direction_constraint(action, world))
        self.tracker = init_tracker(self.built, frame, self.tracker)
        self.follower = None
        if action.type == "reach":
            goal = approach_pose(world, action.obj)
            self.follower = WaypointFollower(motion_plan_reach(world, goal))
        self.started = world.tick
        self.deadline = world.tick + self.cfg.primitive_timeout

    def _recover(self) -> None:
        """Wrong verdict: regenerate the observation. The cursor skips the
        primitives that already hold (staying on the last one if all do)
        and that primitive starts afresh. The plan is kept, since the
        scene's entities and their names are fixed for the episode."""
        plan = self.plan
        plan.cursor = min(_fast_forward(plan, self.world), len(plan.actions) - 1)
        try:
            self._begin_primitive()
        except _PRIMITIVE_ERRORS as e:
            self._end("failed", f"regeneration: {e}")

    def _update_fault(self) -> dict | None:
        """Advance the fault's hold counters; returns the firing, if one happened."""
        world, fault = self.world, self.cfg.fault
        fired = None
        holding = world.gripper.holding is not None
        if holding and not self.was_holding:
            self.hold_events += 1
            self.hold_run = 0
        if holding:
            self.hold_run += 1
            if (self.fault_fires < fault.max_fires
                    and self.hold_events >= fault.fire_on_hold_event
                    and self.hold_run >= fault.hold_ticks):
                fired = _fire_fault(world, fault, self.seed)
                apply_fault(world, fired)
                self.fault_fires += 1
        self.was_holding = world.gripper.holding is not None
        return fired

    def _end(self, outcome: str, reason: str = "") -> None:
        res = self.result
        res.outcome, res.reason = outcome, reason
        # episode success comes from the task oracle, independent of checker noise
        res.success = tasklib.is_success(self.task, self.world)
        res.reward = tasklib.reward(self.task, self.world)
        res.ticks = self.world.tick
        res.stages_completed = self.stage_idx
        res.final_frame = self.frame
        self.running = False
        if self.cfg.log_path:
            self.log_lines.append(json.dumps({
                "final": True, "success": res.success, "reward": res.reward,
                "ticks": res.ticks, "outcome": res.outcome,
                "final_digest": res.final_digest,
            }, sort_keys=True))
            with open(self.cfg.log_path, "w", encoding="utf-8") as f:
                f.write("\n".join(self.log_lines) + "\n")


def _read_only(tensor: ObsTensor) -> ObsTensor:
    """The tensor, its arrays made read-only: it may be handed out again."""
    tensor.grid.flags.writeable = False
    tensor.vec.flags.writeable = False
    return tensor


def run_episode(task: TaskSpec | str, policy, cfg: LoopConfig | None = None,
                suite: str = "nominal", seed: int = 0,
                expert_rand: ExpertRandomization | None = None) -> EpisodeResult:
    """Drive one episode: the waypoint follower acts on reach ticks, the
    policy on every other tick."""
    ep = Episode(task, cfg, suite, seed, expert_rand)
    while ep.running:
        ep.observe()
        if ep.running:
            ep.advance(ep.follower.act(ep.world) if ep.follower is not None
                       else policy.act(ep))
    return ep.result
