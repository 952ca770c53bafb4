"""High-level planner tier: instruction decomposition, grounding, direction
constraints, and the low-frequency status check.

The default planner is a template grammar over the task catalog's
instruction patterns; an external planner can be plugged in over a small
wire protocol (see ExternalPlannerClient). Grounding and status checking
default to ground-truth oracles with optional injected noise so the rest
of the system can be stress-tested against bad groundings and verdicts.
"""

from __future__ import annotations

import json
import logging
import re
import shlex
import socket
import subprocess
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .util import rng_for
from .world import (
    Entity,
    Frame,
    WorldState,
    effective_pose,
    entity_top,
    handle_point,
    placed_on,
    pushed_into,
)

log = logging.getLogger("robridge.planner")

PRIMITIVE_TYPES = ("grasp", "place", "press", "push", "pull", "open", "close", "turn", "reach")
DES_TYPES = ("place", "push")          # types whose destination slot is meaningful
HI_END_TYPES = ("press", "push", "pull", "open", "turn")
LO_END_TYPES = ("close",)

HOVER = 0.04           # approach height above a target's top or handle
REACH_OK = 0.01        # reach-primitive completion distance
PRIM_COORD_FRAC = 0.01  # articulation travel considered complete within 1% of range


class PlanningError(ValueError):
    pass


class GroundingError(ValueError):
    pass


class ConstraintError(ValueError):
    pass


@dataclass(frozen=True)
class PrimitiveAction:
    type: str
    obj: str
    des: str | None = None

    def __post_init__(self):
        if self.type not in PRIMITIVE_TYPES:
            raise ValueError(f"unknown primitive type {self.type!r}")
        if self.des is not None and self.type not in DES_TYPES:
            raise ValueError(f"{self.type!r} does not take a destination")


@dataclass
class Plan:
    actions: list[PrimitiveAction]
    cursor: int = 0

    def __post_init__(self):
        if not self.actions:
            raise PlanningError("a plan must contain at least one action")
        if not 0 <= self.cursor <= len(self.actions):
            raise ValueError("plan cursor out of range")

    @property
    def current(self) -> PrimitiveAction:
        return self.actions[self.cursor]

    @property
    def done(self) -> bool:
        return self.cursor >= len(self.actions)


@dataclass
class Grounding:
    obj_id: int
    des_id: int | None
    obj_mask3: np.ndarray
    des_mask3: np.ndarray | None


class Status(Enum):
    SUCCESS = "success"
    WRONG = "wrong"
    NORMAL = "normal"


@dataclass
class GroundingNoise:
    """Grounding corruption for robustness testing."""
    flip_p: float = 0.0        # probability of selecting a same-shape distractor
    dilate_px: int = 0
    erode_px: int = 0
    seed: int = 0


@dataclass
class StatusNoise:
    """Random false verdicts from the status checker."""
    rate: float = 0.0
    seed: int = 0


# templates are (type, which-slot-is-the-object, whether-des-is-carried)
_FETCH = [("reach", "o"), ("grasp", "o"), ("reach", "d"), ("place", "o+d")]

_GRAMMAR = [
    (re.compile(r"^put (?:the )?(.+?) (?:in|into|on) (?:the )?(.+)$"), _FETCH),
    (re.compile(r"^press (?:the )?(.+)$"), [("reach", "o"), ("press", "o")]),
    (re.compile(r"^open (?:the )?(.+)$"), [("reach", "o"), ("open", "o")]),
    (re.compile(r"^close (?:the )?(.+)$"), [("reach", "o"), ("close", "o")]),
    (re.compile(r"^push (?:the )?(.+?) (?:to|into) (?:the )?(.+)$"),
     [("reach", "o"), ("push", "o+d")]),
    (re.compile(r"^sweep (?:the )?(.+?) (?:to|into) (?:the )?(.+)$"),
     [("reach", "o"), ("push", "o+d")]),
    (re.compile(r"^pull (?:the )?(.+)$"), [("reach", "o"), ("pull", "o")]),
    (re.compile(r"^turn (?:the )?(.+)$"), [("reach", "o"), ("turn", "o")]),
    (re.compile(r"^reach (?:the )?(.+)$"), [("reach", "o")]),
]

# elliptical continuation after "put ... and the X in the Y"
_CONTINUATION = re.compile(r"^(?:the )?(.+?) (?:in|into|on) (?:the )?(.+)$")


def _expand(template, obj: str, des: str | None) -> list[PrimitiveAction]:
    out = []
    for verb, slot in template:
        if slot == "o":
            out.append(PrimitiveAction(verb, obj))
        elif slot == "d":
            out.append(PrimitiveAction(verb, des))
        else:
            out.append(PrimitiveAction(verb, obj, des))
    return out


def plan(instruction: str, frame: Frame,
         external: "ExternalPlannerClient | None" = None,
         object_names: list[str] | None = None) -> Plan:
    """Decompose an instruction into primitive actions.

    Tries the external planner first when one is configured; its reply is
    validated against the primitive-action schema before acceptance.
    """
    if external is not None:
        return Plan(external.plan(instruction, frame, object_names or []))
    text = instruction.strip().lower().rstrip(".")
    actions: list[PrimitiveAction] = []
    last_fetch = False
    for clause in text.split(" and "):
        clause = clause.strip()
        matched = False
        for pattern, template in _GRAMMAR:
            m = pattern.match(clause)
            if m:
                groups = m.groups()
                obj = groups[0].strip()
                des = groups[1].strip() if len(groups) > 1 else None
                actions.extend(_expand(template, obj, des))
                last_fetch = template is _FETCH
                matched = True
                break
        if not matched and last_fetch:
            m = _CONTINUATION.match(clause)
            if m:
                actions.extend(_expand(_FETCH, m.group(1).strip(), m.group(2).strip()))
                matched = True
        if not matched:
            raise PlanningError(f"cannot parse instruction clause {clause!r}")
    return Plan(actions)


def _resolve(name: str, table: dict[str, int]) -> int:
    if name not in table:
        raise GroundingError(f"no scene entity named {name!r}")
    return table[name]


def _square(mask: np.ndarray, r: int, op) -> np.ndarray:
    """``op`` (np.logical_or or np.logical_and) over each pixel's
    (2r+1)-square window, with the image surrounded by False: a dilation,
    or an erosion that clears every pixel within r of the border, as scipy's
    binary_dilation and binary_erosion do with their default border_value 0.
    The square is separable, so columns are folded first, then rows."""
    h, w = mask.shape
    padded = np.zeros((h + 2 * r, w + 2 * r), dtype=bool)
    padded[r:r + h, r:r + w] = mask
    cols = padded[:h].copy()
    for k in range(1, 2 * r + 1):
        op(cols, padded[k:k + h], out=cols)
    out = cols[:, :w].copy()
    for k in range(1, 2 * r + 1):
        op(out, cols[:, k:k + w], out=out)
    return out


def _morph(mask: np.ndarray, noise: GroundingNoise, rng) -> np.ndarray:
    """Grounding-noise morphology: a dilation, then an erosion, each by a
    square of a drawn radius (0 leaves the mask as it is)."""
    if noise.dilate_px > 0:
        r = int(rng.integers(0, noise.dilate_px + 1))
        if r:
            mask = _square(mask, r, np.logical_or)
    if noise.erode_px > 0:
        r = int(rng.integers(0, noise.erode_px + 1))
        if r:
            mask = _square(mask, r, np.logical_and)
    return mask


def ground(action: PrimitiveAction, frame: Frame, world: WorldState,
           noise: GroundingNoise | None = None) -> Grounding:
    """Oracle grounding: resolve names through the world's symbol table and
    read exact masks from ``frame``'s instance map; noise can flip the
    selection to a distractor of the same kind (box, cylinder) or distort
    the masks."""
    table = world.symbol_table()
    obj_id = _resolve(action.obj, table)
    rng = rng_for(noise.seed, frame.tick, "ground") if noise else None
    if noise and noise.flip_p > 0.0 and rng.random() < noise.flip_p:
        kind = world.entity(obj_id).kind
        same = [i for _, i in sorted(table.items())
                if i != obj_id and world.entity(i).kind == kind]
        if same:
            obj_id = same[int(rng.integers(len(same)))]
    obj_mask = frame.instance3 == obj_id
    des_id = None
    des_mask = None
    if action.des is not None:
        des_id = _resolve(action.des, table)
        des_mask = frame.instance3 == des_id
    if noise is not None:
        obj_mask = _morph(obj_mask, noise, rng)
        if des_mask is not None:
            des_mask = _morph(des_mask, noise, rng)
    return Grounding(obj_id=obj_id, des_id=des_id, obj_mask3=obj_mask, des_mask3=des_mask)


def direction_constraint(action: PrimitiveAction, world: WorldState) -> np.ndarray | None:
    """Unit motion direction for directional primitives, None for the rest."""
    if action.type in ("grasp", "place", "press", "reach"):
        return None
    ent = world.find(action.obj)
    art = ent.articulation
    if art is not None:
        sign = 1.0 if action.type in HI_END_TYPES else -1.0
        d = sign * art.axis
    elif action.type == "push" and action.des is not None:
        po = effective_pose(ent)
        pd = effective_pose(world.find(action.des))
        d = np.array([pd[0] - po[0], pd[1] - po[1], 0.0])
    else:
        raise ConstraintError(
            f"{action.type!r} on {action.obj!r}: target is not articulated and no destination given")
    n = float(np.linalg.norm(d))
    if n < 1e-12:
        raise ConstraintError(f"degenerate direction for {action.type!r} on {action.obj!r}")
    return d / n


def approach_pose(world: WorldState, name: str) -> np.ndarray:
    """Where "reach" should bring the fingertip for this target: hovering
    above the top surface, or above the handle for articulated fixtures."""
    ent = world.find(name)
    if ent.articulation is not None:
        hp = handle_point(ent)
        return np.array([hp[0], hp[1], hp[2] + HOVER])
    p = effective_pose(ent)
    z = entity_top(ent) + HOVER
    if world.gripper.holding is not None:
        z += world.entity(world.gripper.holding).height
    return np.array([p[0], p[1], z])


def _coord_done(ent: Entity, end: str) -> bool:
    art = ent.articulation
    if art is None:
        return False
    tol = PRIM_COORD_FRAC * (art.hi - art.lo)
    if end == "hi":
        return art.coordinate >= art.hi - tol
    return art.coordinate <= art.lo + tol


def primitive_succeeded(action: PrimitiveAction, world: WorldState) -> bool:
    """Ground-truth per-primitive completion predicate."""
    t = action.type
    if t == "reach":
        goal = approach_pose(world, action.obj)
        return float(np.linalg.norm(world.gripper.pose[:3] - goal)) <= REACH_OK
    if t == "grasp":
        return world.gripper.holding == world.find(action.obj).id
    if t == "place":
        return action.des is not None and placed_on(world, action.obj, action.des)
    if t == "push":
        ent = world.find(action.obj)
        if ent.articulation is not None:
            return _coord_done(ent, "hi")
        return action.des is not None and pushed_into(world, action.obj, action.des)
    if t in HI_END_TYPES:
        return _coord_done(world.find(action.obj), "hi")
    if t in LO_END_TYPES:
        return _coord_done(world.find(action.obj), "lo")
    raise ValueError(f"unknown primitive type {t!r}")


def check_status(action: PrimitiveAction, frame: Frame, world: WorldState,
                 timeout: int, lost: bool = False,
                 noise: StatusNoise | None = None) -> Status:
    """Low-frequency verdict for the current primitive.

    ``timeout`` is the absolute deadline tick for this primitive. ``lost``
    reports that the tracker has lost a required channel, which counts as
    a grounding failure.
    """
    if primitive_succeeded(action, world):
        verdict = Status.SUCCESS
    elif frame.tick > timeout or lost:
        verdict = Status.WRONG
    elif action.type == "place" and world.gripper.holding is None:
        # the object got dropped somewhere that is not the destination
        verdict = Status.WRONG
    else:
        verdict = Status.NORMAL
    if noise is not None and noise.rate > 0.0:
        rng = rng_for(noise.seed, frame.tick, "status")
        if rng.random() < noise.rate:
            others = [s for s in Status if s != verdict]
            verdict = others[int(rng.integers(len(others)))]
    return verdict


@dataclass
class ExternalPlannerClient:
    """Wire-protocol client for an out-of-process planner.

    Transport is "tcp:<host>:<port>" or "pipe:<command>". The request is a
    single JSON document {instruction, object_names, image_digest}; the
    reply must be a JSON document {"actions": [{type, obj, des}, ...]}.
    Malformed replies are logged verbatim and rejected.
    """
    transport: str
    deadline_s: float = 5.0

    def plan(self, instruction: str, frame: Frame, object_names: list[str]) -> list[PrimitiveAction]:
        from .render import frame_digest
        request = json.dumps({
            "schema_version": 1,
            "instruction": instruction,
            "object_names": list(object_names),
            "image_digest": frame_digest(frame),
        })
        raw = self._exchange(request)
        return self._parse_reply(raw)

    def _exchange(self, request: str) -> str:
        if self.transport.startswith("tcp:"):
            _, host, port = self.transport.split(":")
            with socket.create_connection((host, int(port)), timeout=self.deadline_s) as s:
                s.settimeout(self.deadline_s)
                s.sendall(request.encode("utf-8") + b"\n")
                chunks = []
                while True:
                    b = s.recv(4096)
                    if not b:
                        break
                    chunks.append(b)
                    if b.endswith(b"\n"):
                        break
                return b"".join(chunks).decode("utf-8")
        if self.transport.startswith("pipe:"):
            cmd = shlex.split(self.transport[len("pipe:"):])
            proc = subprocess.run(cmd, input=request.encode("utf-8"),
                                  capture_output=True, timeout=self.deadline_s)
            return proc.stdout.decode("utf-8")
        raise PlanningError(f"unknown planner transport {self.transport!r}")

    def _parse_reply(self, raw: str) -> list[PrimitiveAction]:
        try:
            doc = json.loads(raw)
            records = doc["actions"]
            actions = []
            for r in records:
                t, o = r["type"], r["obj"]
                d = r.get("des")
                if t not in PRIMITIVE_TYPES or not isinstance(o, str) or not o:
                    raise ValueError(f"bad record {r!r}")
                if d is not None and (not isinstance(d, str) or t not in DES_TYPES):
                    raise ValueError(f"bad destination in {r!r}")
                actions.append(PrimitiveAction(t, o, d))
            if not actions:
                raise ValueError("empty action list")
            return actions
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
            log.error("external planner reply rejected (%s); raw reply: %r", e, raw)
            raise PlanningError(f"schema-invalid external planner reply: {e}") from e
