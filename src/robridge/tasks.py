"""Task catalog, shaped rewards, success predicates, and generalization suites.

Suites perturb appearance only (background, light, colors, camera); entity
geometry for a fixed seed is identical across every suite, which is what
makes the downstream mask/depth observation invariant by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np

from .hcp import HOVER
from .scenes import SceneSpec, load_packaged_scene
from .util import check_schema_version, rng_for
from .world import (
    CameraConfig,
    WorldState,
    create_world,
    effective_pose,
    entity_top,
    first_camera,
    placed_on,
    pushed_into,
    third_camera,
)

SUITE_NAMES = ("nominal", "unseen_background", "unseen_light", "unseen_color", "unseen_camera")

DIST_NORM = 0.30        # workspace-scale distance normalizer for shaped rewards
REACH_TOL = 0.02        # task-level tolerance for reach-target


class UnknownTaskError(KeyError):
    pass


@dataclass
class TaskSpec:
    id: str
    family: str                     # pick_place | articulated | push | reach | multi
    instruction_template: str
    scene_spec: SceneSpec
    obj: str
    des: str | None
    oracle_plan: list[tuple[str, str, str | None]]
    held_out: bool = False
    goal_end: str | None = None     # articulated: "hi" or "lo"
    success_coord: float | None = None
    stages: list[list[str]] = field(default_factory=list)

    @property
    def instruction(self) -> str:
        return self.instruction_template.format(obj=self.obj, des=self.des)


@dataclass
class RandomizationSuite:
    name: str
    background_textures: list = field(default_factory=list)   # list of [color_a, color_b]
    background_cells: list = field(default_factory=list)
    light_gain: list = field(default_factory=list)            # list of [lo, hi] ranges
    color_palette: list = field(default_factory=list)
    color_jitter: float = 0.0
    camera_theta: tuple[float, float] = (0.0, 0.0)            # degrees, magnitude range
    camera_shift: tuple[float, float] = (0.0, 0.0)            # pixels, magnitude range


@dataclass
class ExpertRandomization:
    """Scene-level randomization used while collecting expert data."""
    dims_frac: float = 0.20        # +-20% object dimensions
    base_offset: float = 0.05      # +-5 cm arm placement
    camera_deg: float = 10.0       # +-10 degree third-camera tilt
    camera_px: float = 10.0        # +-10 px third-camera shift


def _load_json(name: str) -> dict:
    ref = resources.files("robridge").joinpath(f"data/{name}")
    return json.loads(ref.read_text(encoding="utf-8"))


class Catalog:
    """Immutable task catalog loaded from the packaged data files."""

    def __init__(self, tasks: dict[str, TaskSpec], suites: dict[str, RandomizationSuite],
                 train_palette: dict):
        self.tasks = tasks
        self.suites = suites
        self.train_palette = train_palette

    def task(self, task_id: str) -> TaskSpec:
        try:
            return self.tasks[task_id]
        except KeyError:
            raise UnknownTaskError(f"unknown task id {task_id!r}")

    def suite(self, name: str) -> RandomizationSuite:
        if name not in self.suites:
            raise KeyError(f"unknown suite {name!r} (have {sorted(self.suites)})")
        return self.suites[name]

    def training_ids(self) -> list[str]:
        return [t.id for t in self.tasks.values() if not t.held_out]


_CATALOG: Catalog | None = None


def load_catalog() -> Catalog:
    global _CATALOG
    if _CATALOG is not None:
        return _CATALOG
    tdoc = _load_json("tasks.json")
    check_schema_version(tdoc, "task catalog")
    tasks: dict[str, TaskSpec] = {}
    for t in tdoc["tasks"]:
        spec = TaskSpec(
            id=t["id"], family=t["family"],
            instruction_template=t["instruction_template"],
            scene_spec=load_packaged_scene(t["scene"]),
            obj=t["obj"], des=t.get("des"),
            oracle_plan=[tuple(p) for p in t["oracle_plan"]],
            held_out=bool(t.get("held_out", False)),
            goal_end=t.get("goal_end"), success_coord=t.get("success_coord"),
            stages=t.get("stages", []),
        )
        tasks[spec.id] = spec

    sdoc = _load_json("suites.json")
    check_schema_version(sdoc, "suite definitions")
    suites: dict[str, RandomizationSuite] = {}
    for name in SUITE_NAMES:
        raw = sdoc["suites"][name]
        suites[name] = RandomizationSuite(
            name=name,
            background_textures=raw.get("background_palette", []),
            background_cells=raw.get("cells", []),
            light_gain=raw.get("gain_ranges", []),
            color_palette=raw.get("palette", []),
            color_jitter=float(raw.get("jitter", 0.0)),
            camera_theta=tuple(raw.get("theta_deg", (0.0, 0.0))),
            camera_shift=tuple(raw.get("shift_px", (0.0, 0.0))),
        )
    _CATALOG = Catalog(tasks, suites, sdoc["train_palette"])
    return _CATALOG


def instantiate(task_id: str, suite: RandomizationSuite | str, seed: int,
                expert_rand: ExpertRandomization | None = None,
                ) -> tuple[WorldState, str, tuple[CameraConfig, CameraConfig]]:
    """Build the episode start for (task, suite, seed).

    Geometry depends on (task, seed) and optionally on expert_rand; the
    suite touches colors, background, light gain, and the third camera
    only, so success predicates see identical geometry across suites.
    """
    cat = load_catalog()
    task = cat.task(task_id)
    if isinstance(suite, str):
        suite = cat.suite(suite)
    scene = task.scene_spec.copy()

    cam_extra = np.zeros(3)
    if expert_rand is not None:
        erng = rng_for(seed, task_id, "expert-rand")
        for es in scene.entities:
            if es.graspable:
                f = 1.0 + erng.uniform(-expert_rand.dims_frac, expert_rand.dims_frac)
                es.dims = tuple(d * f for d in es.dims)
        base = erng.uniform(-expert_rand.base_offset, expert_rand.base_offset, size=2)
        gp = list(scene.gripper_pose)
        gp[0] += float(base[0])
        gp[1] += float(base[1])
        scene.gripper_pose = tuple(gp)
        cam_extra = np.array([
            erng.uniform(-expert_rand.camera_px, expert_rand.camera_px),
            erng.uniform(-expert_rand.camera_px, expert_rand.camera_px),
            math.radians(erng.uniform(-expert_rand.camera_deg, expert_rand.camera_deg)),
        ])

    arng = rng_for(seed, task_id, suite.name, "appearance")
    if suite.color_palette:
        palette = [np.array(c, dtype=np.float64) for c in suite.color_palette]
        order = arng.permutation(len(palette))
        for i, es in enumerate(scene.entities):
            c = palette[order[i % len(palette)]].copy()
            c += arng.uniform(-suite.color_jitter, suite.color_jitter, size=3)
            es.color = tuple(np.clip(c, 0.0, 1.0))

    world = create_world(scene, seed)

    # the episode's appearance, set here once and never written again
    look = {}
    if suite.background_textures:
        pick = int(arng.integers(len(suite.background_textures)))
        look["checker"] = tuple(tuple(float(v) for v in c)
                                for c in suite.background_textures[pick])
        look["cell"] = int(suite.background_cells[int(arng.integers(len(suite.background_cells)))])
    if suite.light_gain:
        gain = []
        for _ in range(3):
            lo, hi = suite.light_gain[int(arng.integers(len(suite.light_gain)))]
            gain.append(float(arng.uniform(lo, hi)))
        look["light_gain"] = tuple(gain)
    world.appearance = replace(world.appearance, **look)

    cam_off = cam_extra.copy()
    if suite.camera_theta[1] > 0.0:
        sgn = lambda: 1.0 if arng.random() < 0.5 else -1.0
        cam_off[0] += sgn() * arng.uniform(*suite.camera_shift)
        cam_off[1] += sgn() * arng.uniform(*suite.camera_shift)
        cam_off[2] += sgn() * math.radians(arng.uniform(*suite.camera_theta))

    cams = (third_camera(tuple(cam_off)), first_camera())
    return world, task.instruction, cams


def _xy_dist(a, b) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _reach_goal(world: WorldState, name: str) -> np.ndarray:
    """Where reach-target wants the fingertip: hovering above the target's top."""
    target = world.find(name)
    p = effective_pose(target)
    return np.array([p[0], p[1], entity_top(target) + HOVER])


def is_success(task: TaskSpec, world: WorldState) -> bool:
    if task.family == "pick_place":
        return placed_on(world, task.obj, task.des)
    if task.family == "articulated":
        coord = world.find(task.obj).articulation.coordinate
        if task.goal_end == "hi":
            return bool(coord >= task.success_coord)
        return bool(coord <= task.success_coord)
    if task.family == "push":
        return pushed_into(world, task.obj, task.des)
    if task.family == "reach":
        goal = _reach_goal(world, task.obj)
        return bool(float(np.linalg.norm(world.gripper.pose[:3] - goal)) <= REACH_TOL)
    if task.family == "multi":
        return all(stage_satisfied(world, s) for s in task.stages if s[0] == "placed")
    raise ValueError(f"unknown task family {task.family!r}")


def stage_satisfied(world: WorldState, stage: list[str]) -> bool:
    kind = stage[0]
    if kind == "hold":
        return world.gripper.holding == world.find(stage[1]).id
    if kind == "placed":
        return placed_on(world, stage[1], stage[2])
    raise ValueError(f"unknown stage kind {kind!r}")


def reward(task: TaskSpec, world: WorldState) -> float:
    """Shaped reward in [0, 1]; exactly 1.0 iff the success predicate holds."""
    if is_success(task, world):
        return 1.0
    g = world.gripper
    if task.family == "pick_place":
        obj = world.find(task.obj)
        des = world.find(task.des)
        po, pd = effective_pose(obj), effective_pose(des)
        if g.holding == obj.id:
            r = 0.4 + 0.5 * (1.0 - min(_xy_dist(po, pd) / DIST_NORM, 1.0))
        else:
            d = float(np.linalg.norm(g.pose[:3] - np.array([po[0], po[1], entity_top(obj)])))
            r = 0.4 * (1.0 - min(d / DIST_NORM, 1.0))
    elif task.family == "articulated":
        art = world.find(task.obj).articulation
        start = art.lo if task.goal_end == "hi" else art.hi
        goal = art.hi if task.goal_end == "hi" else art.lo
        r = abs(art.coordinate - start) / abs(goal - start)
    elif task.family == "push":
        obj = world.find(task.obj)
        des = world.find(task.des)
        po, pd = effective_pose(obj), effective_pose(des)
        dg = float(np.linalg.norm(g.pose[:3] - np.array([po[0], po[1], entity_top(obj)])))
        r = (0.3 * (1.0 - min(dg / DIST_NORM, 1.0))
             + 0.7 * (1.0 - min(_xy_dist(po, pd) / DIST_NORM, 1.0)))
    elif task.family == "reach":
        d = float(np.linalg.norm(g.pose[:3] - _reach_goal(world, task.obj)))
        r = 1.0 - min(d / DIST_NORM, 1.0)
    elif task.family == "multi":
        placed = sum(1 for s in task.stages if s[0] == "placed" and stage_satisfied(world, s))
        holding = any(stage_satisfied(world, s) for s in task.stages if s[0] == "hold")
        r = 0.5 * placed + (0.25 if holding else 0.0)
    else:
        raise ValueError(f"unknown task family {task.family!r}")
    return float(np.clip(r, 0.0, 0.999))
