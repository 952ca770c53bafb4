"""Scene description files: schema, validation, and loading.

A scene spec is a JSON document (key/value with nested lists) carrying a
``schema_version`` field. It lists the workspace box, the gripper spawn,
and the entities with either fixed placements or sampling regions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np

from .util import check_schema_version

VALID_SHAPES = ("box", "cylinder")
VALID_ART_MODES = ("linear", "rotary")
VALID_ENGAGE = ("grasp", "press")


class SceneError(ValueError):
    """Malformed or physically inconsistent scene description."""


@dataclass
class ArticulationSpec:
    mode: str                      # "linear" | "rotary"
    axis: tuple[float, float, float]
    range: tuple[float, float]     # [lo, hi], meters or radians
    coordinate: float              # initial value, defaults to lo
    handle: tuple[float, float, float]   # grab/press point, entity-local offset
    engage: str                    # "grasp" | "press"


@dataclass
class EntitySpec:
    name: str
    kind: str                      # "box" | "cylinder"
    dims: tuple[float, ...]        # box: (sx, sy, sz); cylinder: (radius, height)
    color: tuple[float, float, float]
    place: dict                    # {"xy":[x,y]} or {"region":[[xlo,xhi],[ylo,yhi]]}, plus "z","yaw"
    graspable: bool
    solid: bool = True
    articulation: ArticulationSpec | None = None


@dataclass
class SceneSpec:
    name: str
    workspace: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]
    gripper_pose: tuple[float, float, float, float]
    gripper_aperture: float
    entities: list[EntitySpec] = field(default_factory=list)

    def copy(self) -> "SceneSpec":
        """A copy whose fields, and its entities' fields, can be rebound
        without reaching this spec; nothing writes the values in place."""
        return replace(self, entities=[replace(e) for e in self.entities])


def _as_floats(x, n, what) -> tuple:
    try:
        vals = tuple(float(v) for v in x)
    except (TypeError, ValueError):
        raise SceneError(f"{what}: expected {n} numbers, got {x!r}")
    if len(vals) != n:
        raise SceneError(f"{what}: expected {n} numbers, got {len(vals)}")
    return vals


def _parse_articulation(doc: dict, name: str) -> ArticulationSpec:
    mode = doc.get("mode", "linear")
    if mode not in VALID_ART_MODES:
        raise SceneError(f"{name}: articulation mode {mode!r} not in {VALID_ART_MODES}")
    axis = np.array(_as_floats(doc["axis"], 3, f"{name}: articulation axis"))
    norm = float(np.linalg.norm(axis))
    if abs(norm - 1.0) > 1e-6:
        raise SceneError(f"{name}: articulation axis must be unit length, |axis| = {norm:.6f}")
    lo, hi = _as_floats(doc["range"], 2, f"{name}: articulation range")
    if not lo < hi:
        raise SceneError(f"{name}: articulation range must satisfy lo < hi")
    coord = float(doc.get("coordinate", lo))
    if not lo <= coord <= hi:
        raise SceneError(f"{name}: articulation coordinate {coord} outside [{lo}, {hi}]")
    handle = _as_floats(doc.get("handle", (0.0, 0.0, 0.0)), 3, f"{name}: handle offset")
    engage = doc.get("engage", "grasp")
    if engage not in VALID_ENGAGE:
        raise SceneError(f"{name}: engage {engage!r} not in {VALID_ENGAGE}")
    return ArticulationSpec(mode=mode, axis=tuple(axis), range=(lo, hi),
                            coordinate=coord, handle=handle, engage=engage)


def _parse_entity(doc: dict) -> EntitySpec:
    name = doc.get("name")
    if not name or not isinstance(name, str):
        raise SceneError(f"entity missing a name: {doc!r}")
    shape = doc.get("shape", {})
    kind = shape.get("kind")
    if kind not in VALID_SHAPES:
        raise SceneError(f"{name}: shape kind {kind!r} not in {VALID_SHAPES}")
    if kind == "box":
        dims = _as_floats(shape.get("dims", ()), 3, f"{name}: box dims")
    else:
        dims = (float(shape.get("radius", 0.0)), float(shape.get("height", 0.0)))
    if any(d <= 0 for d in dims):
        raise SceneError(f"{name}: all dimensions must be positive, got {dims}")
    color = _as_floats(doc.get("color", ()), 3, f"{name}: color")
    if any(not 0.0 <= c <= 1.0 for c in color):
        raise SceneError(f"{name}: color channels must lie in [0, 1]")
    place = doc.get("place")
    if not isinstance(place, dict) or ("xy" not in place and "region" not in place):
        raise SceneError(f"{name}: place must give 'xy' or 'region'")
    art = None
    if "articulation" in doc and doc["articulation"] is not None:
        art = _parse_articulation(doc["articulation"], name)
    return EntitySpec(
        name=name, kind=kind, dims=dims, color=color, place=dict(place),
        graspable=bool(doc.get("graspable", False)),
        solid=bool(doc.get("solid", True)),
        articulation=art,
    )


def parse_scene(doc: dict) -> SceneSpec:
    check_schema_version(doc, "scene spec")
    try:
        ws = doc["workspace"]
        wx = _as_floats(ws["x"], 2, "workspace x")
        wy = _as_floats(ws["y"], 2, "workspace y")
        wz = _as_floats(ws["z"], 2, "workspace z")
    except KeyError as e:
        raise SceneError(f"workspace missing key {e}")
    for lo, hi in (wx, wy, wz):
        if not lo < hi:
            raise SceneError("workspace bounds must satisfy lo < hi")
    g = doc.get("gripper", {})
    pose = _as_floats(g.get("pose", ()), 4, "gripper pose")
    aperture = float(g.get("aperture", 1.0))
    if not 0.0 <= aperture <= 1.0:
        raise SceneError(f"gripper aperture {aperture} outside [0, 1]")
    entities = [_parse_entity(e) for e in doc.get("entities", [])]
    names = [e.name for e in entities]
    if len(set(names)) != len(names):
        raise SceneError(f"entity names must be unique, got {names}")
    return SceneSpec(
        name=str(doc.get("name", "scene")),
        workspace=(wx, wy, wz),
        gripper_pose=pose,
        gripper_aperture=aperture,
        entities=entities,
    )


def load_packaged_scene(name: str) -> SceneSpec:
    """Load a scene shipped in robridge/data/scenes/<name>.json."""
    ref = resources.files("robridge").joinpath(f"data/scenes/{name}.json")
    return parse_scene(json.loads(ref.read_text(encoding="utf-8")))
