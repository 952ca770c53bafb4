"""Deterministic 2.5-D tabletop kinematics.

The world is a set of rigid bodies on a table plus a yaw-fixed gripper.
Physics is rule-based: grasping engages by proximity when the fingers
close, pushing separates overlapping footprints along the motion
direction, and articulated fixtures (drawers, buttons, dials, levers)
integrate the gripper displacement projected onto their axis. There is
no dynamics engine; identical inputs give bit-identical states.

Conventions:
  - entity pose is (x, y, z, yaw) with z the BOTTOM face height;
  - an articulated entity's pose is its base pose, the displaced pose is
    ``effective_pose``;
  - the gripper occupies a small box footprint from z to z + GRIPPER_HEIGHT.

Appearance (the background checkerboard, the light gain and each body's
colour) is fixed when an episode is instantiated and never written again:
``Appearance`` is frozen and colours are tuples, so ``step`` and
``WorldState.copy`` share them and copy only the poses, the gripper and
the articulations that ``step`` writes.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .scenes import SceneError, SceneSpec
from .util import clip_unit, rng_for

BACKGROUND_ID = 0
GRIPPER_ID = 1

MAX_STEP_M = 0.02          # per-tick end-effector displacement at |command| = 1
APERTURE_RATE = 0.6        # aperture change per tick at |g| = 1
GRASP_APERTURE = 0.5       # holding requires aperture below this
GRASP_RADIUS = 0.01        # tip-to-object engagement distance
ENGAGE_RADIUS = 0.02       # handle engagement distance for fixtures
INTERPEN_TOL = 1e-3        # allowed footprint interpenetration for solids
PLACEMENT_MARGIN = 0.01    # sampling keeps this gap between footprints
PLACED_TOL = 2e-3          # a placed object rests no higher than this above the top

GRIPPER_FOOT = 0.024       # square footprint side
GRIPPER_RADIUS = GRIPPER_FOOT * math.sqrt(2.0) / 2.0   # the footprint's half-diagonal
GRIPPER_HEIGHT = 0.05
GRIPPER_COLOR = (0.16, 0.16, 0.20)


@dataclass
class Articulation:
    mode: str                  # "linear" | "rotary"
    axis: np.ndarray           # unit 3-vector
    lo: float
    hi: float
    coordinate: float
    handle: np.ndarray         # entity-local offset of the grab/press point
    engage: str                # "grasp" | "press"

    def copy(self) -> "Articulation":
        # step writes only the coordinate; axis and handle are read-only
        return Articulation(self.mode, self.axis, self.lo, self.hi,
                            self.coordinate, self.handle, self.engage)


@dataclass
class Entity:
    id: int
    name: str
    kind: str                  # "box" | "cylinder"
    dims: tuple[float, ...]    # box (sx, sy, sz); cylinder (radius, height)
    color: tuple[float, float, float]   # rgb in [0, 1]
    pose: np.ndarray           # (x, y, z_bottom, yaw) base pose
    graspable: bool
    solid: bool = True
    articulation: Articulation | None = None

    def copy(self) -> "Entity":
        return Entity(self.id, self.name, self.kind, self.dims, self.color,
                      self.pose.copy(), self.graspable, self.solid,
                      self.articulation.copy() if self.articulation else None)

    @property
    def height(self) -> float:
        return self.dims[2] if self.kind == "box" else self.dims[1]


@dataclass
class GripperState:
    pose: np.ndarray           # (x, y, z, yaw); z is the fingertip height
    aperture: float            # 0 closed .. 1 open
    holding: int | None = None

    def copy(self) -> "GripperState":
        return GripperState(self.pose.copy(), self.aperture, self.holding)


@dataclass(frozen=True)
class Appearance:
    """Scene-level look knobs; never read by geometry or depth code. The
    background is a checkerboard of two RGB colours in cells of ``cell``
    pixels."""
    checker: tuple[tuple[float, float, float], tuple[float, float, float]] = (
        (0.36, 0.36, 0.38), (0.42, 0.42, 0.44))
    cell: int = 16
    light_gain: tuple[float, float, float] = (1.0, 1.0, 1.0)


@dataclass
class WorldState:
    entities: list[Entity]
    gripper: GripperState
    workspace: np.ndarray      # (3, 2): [[xlo, xhi], [ylo, yhi], [zlo, zhi]]
    tick: int
    appearance: Appearance
    held_offset: np.ndarray | None = None   # (4,) held-entity pose minus gripper pose

    def copy(self) -> "WorldState":
        """A copy that ``step`` can write: entities and gripper are copied;
        the read-only workspace, the appearance and the held offset (which
        is rebound, never written in place) are shared."""
        return WorldState([e.copy() for e in self.entities], self.gripper.copy(),
                          self.workspace, self.tick, self.appearance, self.held_offset)

    def entity(self, eid: int) -> Entity:
        for e in self.entities:
            if e.id == eid:
                return e
        raise KeyError(f"no entity with id {eid}")

    def find(self, name: str) -> Entity:
        for e in self.entities:
            if e.name == name:
                return e
        raise KeyError(f"no entity named {name!r}")

    def symbol_table(self) -> dict[str, int]:
        return {e.name: e.id for e in self.entities}


@dataclass(frozen=True)
class CameraConfig:
    """A camera, checked once when built. Frozen and hashable, so the
    renderer keys its caches on the camera itself."""
    view: str                          # "third" | "first"
    offset: tuple[float, float, float] = (0.0, 0.0, 0.0)   # (dx px, dy px, dtheta rad)
    resolution: tuple[int, int] = (128, 128)
    scale: float = 0.005               # meters per pixel

    def __post_init__(self) -> None:
        # a list (as JSON gives) becomes a tuple, so the camera hashes
        object.__setattr__(self, "offset", tuple(self.offset))
        object.__setattr__(self, "resolution", tuple(self.resolution))
        h, w = self.resolution
        if h < 32 or w < 32:
            raise ValueError(f"camera resolution must be >= 32x32, got {self.resolution}")
        if self.scale <= 0:
            raise ValueError("camera scale must be positive")


THIRD_RES = (128, 128)
THIRD_SCALE = 0.005
FIRST_RES = (64, 64)
FIRST_SCALE = 0.0025


def third_camera(offset=(0.0, 0.0, 0.0)) -> CameraConfig:
    return CameraConfig("third", tuple(float(v) for v in offset), THIRD_RES, THIRD_SCALE)


def first_camera() -> CameraConfig:
    return CameraConfig("first", (0.0, 0.0, 0.0), FIRST_RES, FIRST_SCALE)


@dataclass
class Frame:
    """One render of both views. The maps may be shared with other frames
    of the same geometry, so they are read-only."""
    depth1: np.ndarray         # (h, w) float64 meters, first view height field
    instance3: np.ndarray      # (H, W) int32 entity ids, 0 = background
    instance1: np.ndarray      # (h, w) int32
    gripper: GripperState
    tick: int
    # builds the third-view RGB image from what the renderer captured at
    # render time; called once, on the first read of rgb3
    paint_rgb3: Callable[[], np.ndarray] = field(repr=False, compare=False)
    # what the maps are a function of, hashable: the bodies, both cameras
    # and both view centres (see ``render.render``); equal means equal maps
    geometry: tuple | None = field(default=None, repr=False, compare=False)
    _rgb3: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def rgb3(self) -> np.ndarray:
        """(H, W, 3) uint8 third view, built on first read."""
        if self._rgb3 is None:
            self._rgb3 = self.paint_rgb3()
        return self._rgb3


def clamp_action(action) -> np.ndarray:
    a = np.asarray(action, dtype=np.float64)
    if a.shape != (4,):
        raise ValueError(f"action must have shape (4,), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("action components must be finite")
    return clip_unit(a)


def effective_pose(e: Entity) -> np.ndarray:
    """Pose after applying the articulation displacement, (x, y, z, yaw)."""
    p = e.pose.copy()
    art = e.articulation
    if art is not None:
        if art.mode == "linear":
            p[:3] += art.axis * art.coordinate
        else:
            p[3] += art.coordinate
    return p


def entity_top(e: Entity) -> float:
    return effective_pose(e)[2] + e.height


def footprint_radius(e) -> float:
    """Circumradius of a footprint; reads only ``kind`` and ``dims``."""
    if e.kind == "cylinder":
        return e.dims[0]
    return math.hypot(e.dims[0], e.dims[1]) / 2.0


def in_footprint(kind: str, dims, cx, cy, yaw, x, y):
    """The footprint test: whether (x, y) lies in a ``kind`` footprint of
    these dims at (cx, cy, yaw). x and y are scalars or same-shape arrays."""
    dx, dy = x - cx, y - cy
    if kind == "cylinder":
        return dx * dx + dy * dy <= dims[0] ** 2
    c, s = math.cos(-yaw), math.sin(-yaw)
    lx = c * dx - s * dy
    ly = s * dx + c * dy
    return (abs(lx) <= dims[0] / 2.0) & (abs(ly) <= dims[1] / 2.0)


def footprint_contains(e: Entity, x: float, y: float) -> bool:
    p = effective_pose(e)
    return in_footprint(e.kind, e.dims, p[0], p[1], p[3], x, y)


def placed_on(world: WorldState, obj_name: str, des_name: str) -> bool:
    """The object rests, released, on the destination's footprint and no
    higher than just above its top."""
    obj = world.find(obj_name)
    if world.gripper.holding == obj.id:
        return False
    des = world.find(des_name)
    p = effective_pose(obj)
    return bool(footprint_contains(des, p[0], p[1]) and p[2] <= entity_top(des) + PLACED_TOL)


def pushed_into(world: WorldState, obj_name: str, des_name: str) -> bool:
    """The object, released, has its centre inside the destination's
    footprint; its height does not matter."""
    obj = world.find(obj_name)
    if world.gripper.holding == obj.id:
        return False
    p = effective_pose(obj)
    return bool(footprint_contains(world.find(des_name), p[0], p[1]))


def handle_point(e: Entity) -> np.ndarray:
    """World-space grab/press point of an articulated fixture."""
    art = e.articulation
    if art is None:
        raise ValueError(f"{e.name} is not articulated")
    p = effective_pose(e)
    c, s = math.cos(p[3]), math.sin(p[3])
    hx, hy, hz = art.handle
    return np.array([p[0] + c * hx - s * hy, p[1] + s * hx + c * hy, p[2] + hz])


def _footprints_overlap(a: Entity, b: Entity) -> bool:
    pa, pb = effective_pose(a), effective_pose(b)
    d = math.hypot(pa[0] - pb[0], pa[1] - pb[1])
    return d < footprint_radius(a) + footprint_radius(b) + PLACEMENT_MARGIN


def _z_overlap(a: Entity, b: Entity) -> float:
    za, zb = effective_pose(a)[2], effective_pose(b)[2]
    return min(za + a.height, zb + b.height) - max(za, zb)


def interpenetration_violation(world: WorldState) -> tuple[Entity, Entity] | None:
    """First pair of non-held solid entities overlapping beyond tolerance."""
    solids = [e for e in world.entities if e.solid and e.id != world.gripper.holding]
    for i, a in enumerate(solids):
        for b in solids[i + 1:]:
            if _z_overlap(a, b) <= INTERPEN_TOL:
                continue
            pa, pb = effective_pose(a), effective_pose(b)
            d = math.hypot(pa[0] - pb[0], pa[1] - pb[1])
            if d < footprint_radius(a) + footprint_radius(b) - INTERPEN_TOL:
                return a, b
    return None


def create_world(scene: SceneSpec, seed: int) -> WorldState:
    """Build a world from a scene spec; identical (spec, seed) is bit-identical."""
    rng = rng_for(seed, scene.name, "geometry")
    ws = _read_only(scene.workspace)
    entities: list[Entity] = []
    for idx, es in enumerate(scene.entities):
        art = None
        if es.articulation is not None:
            a = es.articulation
            art = Articulation(a.mode, _read_only(a.axis), a.range[0], a.range[1],
                               a.coordinate, _read_only(a.handle), a.engage)
        ent = Entity(
            id=idx + 2,   # 0 background, 1 gripper
            name=es.name, kind=es.kind, dims=tuple(es.dims),
            color=tuple(float(c) for c in es.color),
            pose=np.zeros(4), graspable=es.graspable, solid=es.solid,
            articulation=art,
        )
        z = float(es.place.get("z", 0.0))
        yaw = float(es.place.get("yaw", 0.0))
        if "xy" in es.place:
            x, y = (float(v) for v in es.place["xy"])
            ent.pose[:] = (x, y, z, yaw)
            if _placement_blocked(ent, entities, ws):
                raise SceneError(f"overlapping initial placements: {es.name!r} at ({x:.3f}, {y:.3f})")
        else:
            (xlo, xhi), (ylo, yhi) = es.place["region"]
            placed = False
            for _ in range(60):
                x = float(rng.uniform(xlo, xhi))
                y = float(rng.uniform(ylo, yhi))
                ent.pose[:] = (x, y, z, yaw)
                if not _placement_blocked(ent, entities, ws):
                    placed = True
                    break
            if not placed:
                raise SceneError(f"could not place {es.name!r} without overlap after 60 draws")
        entities.append(ent)

    gp = np.array(scene.gripper_pose, dtype=np.float64)
    gp[0] = min(max(gp[0], ws[0, 0]), ws[0, 1])
    gp[1] = min(max(gp[1], ws[1, 0]), ws[1, 1])
    gp[2] = min(max(gp[2], ws[2, 0]), ws[2, 1])
    world = WorldState(
        entities=entities,
        gripper=GripperState(pose=gp, aperture=scene.gripper_aperture),
        workspace=ws, tick=0, appearance=Appearance(),
    )
    bad = interpenetration_violation(world)
    if bad is not None:
        raise SceneError(f"overlapping initial placements: {bad[0].name!r} and {bad[1].name!r}")
    return world


def _read_only(values) -> np.ndarray:
    """A float64 array that copies of the world share, so nothing may write it."""
    a = np.array(values, dtype=np.float64)
    a.flags.writeable = False
    return a


def _placement_blocked(ent: Entity, placed: list[Entity], ws: np.ndarray) -> bool:
    p = effective_pose(ent)
    r = footprint_radius(ent)
    if (p[0] - r < ws[0, 0] or p[0] + r > ws[0, 1]
            or p[1] - r < ws[1, 0] or p[1] + r > ws[1, 1]):
        return True
    if not ent.solid:
        return False
    for other in placed:
        if not other.solid:
            continue
        if _z_overlap(ent, other) > INTERPEN_TOL and _footprints_overlap(ent, other):
            return True
    return False


def _gripper_tip(g: GripperState) -> np.ndarray:
    return g.pose[:3]


def _articulation_step(world: WorldState, old_pos: np.ndarray, new_pos: np.ndarray,
                       aperture: float) -> None:
    disp = new_pos - old_pos
    for e in world.entities:
        art = e.articulation
        if art is None:
            continue
        hp = handle_point(e)
        if aperture >= GRASP_APERTURE:
            continue   # fixtures are driven with closed fingers
        if art.engage == "press":
            if (math.hypot(old_pos[0] - hp[0], old_pos[1] - hp[1]) > ENGAGE_RADIUS
                    or abs(old_pos[2] - hp[2]) > 0.012):
                continue
        else:
            if float(np.linalg.norm(old_pos - hp)) > ENGAGE_RADIUS:
                continue
        if art.mode == "linear":
            dcoord = float(disp @ art.axis)
        else:
            p = effective_pose(e)
            radial = hp[:2] - p[:2]
            r = float(np.hypot(radial[0], radial[1]))
            if r < 1e-9:
                continue
            tangent = np.array([-radial[1], radial[0]]) / r
            dcoord = float(disp[:2] @ tangent) / r
        art.coordinate = float(min(max(art.coordinate + dcoord, art.lo), art.hi))


def _resolve_push(world: WorldState, move_dir: np.ndarray) -> None:
    g = world.gripper
    gz_lo, gz_hi = g.pose[2], g.pose[2] + GRIPPER_HEIGHT
    move_mag = float(np.hypot(move_dir[0], move_dir[1]))
    pushed: list[Entity] = []
    for e in world.entities:
        if not e.graspable or not e.solid or e.id == g.holding or e.articulation is not None:
            continue
        p = effective_pose(e)
        if min(gz_hi, p[2] + e.height) - max(gz_lo, p[2]) <= 0:
            continue
        dvec = p[:2] - g.pose[:2]
        dist = float(np.hypot(dvec[0], dvec[1]))
        overlap = GRIPPER_RADIUS + footprint_radius(e) - dist
        if overlap <= 0:
            continue
        if move_mag > 1e-9:
            push = move_dir[:2] / move_mag
        elif dist > 1e-9:
            push = dvec / dist
        else:
            push = np.array([1.0, 0.0])
        # quasi-static: the object travels no farther than the pusher did
        amount = min(overlap, move_mag * 1.5 + 1e-3)
        e.pose[0] += push[0] * amount
        e.pose[1] += push[1] * amount
        _clamp_entity(e, world.workspace)
        pushed.append(e)
    # one secondary pass so a pushed body shoves its neighbour instead of
    # ending the tick interpenetrated
    for e in pushed:
        for other in world.entities:
            if other.id == e.id or not other.solid or other.id == g.holding:
                continue
            if other.articulation is not None or not other.graspable:
                continue
            if _z_overlap(e, other) <= 0:
                continue
            pe, po = effective_pose(e), effective_pose(other)
            dvec = po[:2] - pe[:2]
            dist = float(np.hypot(dvec[0], dvec[1]))
            overlap = footprint_radius(e) + footprint_radius(other) - dist
            if overlap > 0 and dist > 1e-9:
                other.pose[0] += dvec[0] / dist * overlap
                other.pose[1] += dvec[1] / dist * overlap
                _clamp_entity(other, world.workspace)


def _clamp_entity(e: Entity, ws: np.ndarray) -> None:
    r = footprint_radius(e)
    e.pose[0] = float(min(max(e.pose[0], ws[0, 0] + r), ws[0, 1] - r))
    e.pose[1] = float(min(max(e.pose[1], ws[1, 0] + r), ws[1, 1] - r))


def support_height(world: WorldState, ent: Entity) -> float:
    """Top of the tallest solid body under the entity's center; table is 0."""
    p = effective_pose(ent)
    best = 0.0
    for other in world.entities:
        if other.id == ent.id or not other.solid or other.id == world.gripper.holding:
            continue
        if entity_top(other) <= p[2] + 1e-9 and footprint_contains(other, p[0], p[1]):
            best = max(best, entity_top(other))
    return best


def _settle(world: WorldState, ent: Entity) -> None:
    ent.pose[2] = support_height(world, ent)
    for other in world.entities:
        if other.id == ent.id or not other.solid:
            continue
        if _z_overlap(ent, other) <= INTERPEN_TOL:
            continue
        pe, po = effective_pose(ent), effective_pose(other)
        dvec = pe[:2] - po[:2]
        dist = float(np.hypot(dvec[0], dvec[1]))
        overlap = footprint_radius(ent) + footprint_radius(other) - dist
        if overlap > 0:
            push = dvec / dist if dist > 1e-9 else np.array([1.0, 0.0])
            ent.pose[0] += push[0] * overlap
            ent.pose[1] += push[1] * overlap
            _clamp_entity(ent, world.workspace)
            ent.pose[2] = support_height(world, ent)


def step(world: WorldState, action) -> WorldState:
    """Advance one tick. Returns a new WorldState; the input is untouched."""
    a = clamp_action(action)
    w = world.copy()
    g = w.gripper

    new_aperture = float(min(max(g.aperture + a[3] * APERTURE_RATE, 0.0), 1.0))
    old_pos = g.pose[:3].copy()
    new_pos = old_pos + a[:3] * MAX_STEP_M
    for i in range(3):
        new_pos[i] = float(min(max(new_pos[i], w.workspace[i, 0]), w.workspace[i, 1]))

    _articulation_step(w, old_pos, new_pos, new_aperture)

    # a descending tip rests on solid tops instead of passing through;
    # lateral entry below a top keeps ghosting (open fingers straddle)
    for e in w.entities:
        if not e.solid or e.id == g.holding:
            continue
        if not footprint_contains(e, new_pos[0], new_pos[1]):
            continue
        top = entity_top(e)
        if old_pos[2] >= top - 1e-9 and new_pos[2] < top:
            new_pos[2] = top

    g.pose[:3] = new_pos

    if g.holding is not None:
        held = w.entity(g.holding)
        held.pose[:] = g.pose + w.held_offset

    # grasp transitions resolve before pushing so a centered close engages
    # instead of shoving the object away
    if g.holding is not None and new_aperture >= GRASP_APERTURE:
        released = w.entity(g.holding)
        g.holding = None
        w.held_offset = None
        _settle(w, released)
    elif g.holding is None and new_aperture < GRASP_APERTURE:
        tip = _gripper_tip(g)
        best, best_d = None, GRASP_RADIUS + 1e-12
        for e in w.entities:
            if not e.graspable:
                continue
            p = effective_pose(e)
            top = np.array([p[0], p[1], p[2] + e.height])
            d = float(np.linalg.norm(tip - top))
            if d < best_d:
                best, best_d = e, d
        if best is not None:
            g.holding = best.id
            w.held_offset = best.pose - g.pose

    # closed fingers act as a pusher; an open gripper straddles objects
    if new_aperture < GRASP_APERTURE:
        _resolve_push(w, new_pos - old_pos)

    g.aperture = new_aperture
    w.tick += 1
    return w
