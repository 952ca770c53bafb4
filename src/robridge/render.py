"""Orthographic top-down rasterization of a world into sensor frames.

Third view: full-workspace RGB plus an exact per-pixel instance map.
First view: a height map cropped around the gripper plus its instance map.
Pixel membership is evaluated at pixel centers, so an integer-pixel camera
translation shifts the rendered content by exactly that many pixels.
Footprint geometry is the world's (``world.in_footprint``), so the masks
and depths agree with the geometry that judges success.

The instance and height maps are rasterized eagerly. The third-view RGB
image is not: ``render`` captures what it needs (the instance map, each
body's colour and the world's ``Appearance``) and the frame builds the
image on the first read of ``Frame.rgb3``. The control loop reads it only
for digests, so an evaluation episode paints it once, not once per tick.
Colours and appearance are immutable values fixed per episode, so they
are captured by reference, and the checkerboard background image is
cached on the appearance's colours and cell size.

A body's pixel box and mask in a view depend only on its shape and pose,
the camera and the view centre. The third view's centre is fixed for a
whole episode, and the first view's is the gripper's xy. Both views take
their footprints from one small bounded cache, so a body is not rasterized
again while neither it nor the view centre moves in the plane: a vertical
move, a grasp or a press repaints both views from the cache. Only the
first view builds a height map; the third view needs its instance map alone.

One level up, the three maps are a function of the frame's geometry key
(the bodies, both cameras and both view centres), which the frame carries.
The maps of the last few keys are kept read-only, so a frame that redraws
a recent geometry (a still scene, or a retry back at an earlier pose)
shares its maps and rasterizes nothing; its tick and gripper are its own.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .util import digest_arrays
from .world import (
    BACKGROUND_ID,
    GRIPPER_COLOR,
    GRIPPER_FOOT,
    GRIPPER_HEIGHT,
    GRIPPER_ID,
    Appearance,
    CameraConfig,
    Frame,
    WorldState,
    effective_pose,
    footprint_radius,
    in_footprint,
)


@lru_cache(maxsize=4)
def _rotated_offsets(h: int, w: int, dx: float, dy: float, dth: float):
    """Pixel-center offsets from the view center, rotated by the camera yaw.

    They depend only on resolution and offset, so each camera computes them
    once. The arrays are shared and read-only.
    """
    jj, ii = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    u = jj + 0.5 - w / 2.0 + dx
    v = ii + 0.5 - h / 2.0 + dy
    c, s = math.cos(dth), math.sin(dth)
    ru = c * u - s * v
    rv = s * u + c * v
    ru.flags.writeable = False
    rv.flags.writeable = False
    return ru, rv


def world_to_pixel(cam: CameraConfig, center_xy, x: float, y: float) -> tuple[float, float]:
    """Inverse of the pixel-center mapping; returns fractional (row, col)."""
    h, w = cam.resolution
    dx, dy, dth = cam.offset
    rx = (x - center_xy[0]) / cam.scale
    ry = (y - center_xy[1]) / cam.scale
    c, s = math.cos(-dth), math.sin(-dth)
    u = c * rx - s * ry
    v = s * rx + c * ry
    col = u - dx + w / 2.0 - 0.5
    row = v - dy + h / 2.0 - 0.5
    return row, col


class _Body(NamedTuple):
    """Flat-topped rasterizable body (entity footprint or the gripper)."""
    ident: int | None
    kind: str
    cx: float
    cy: float
    yaw: float
    dims: tuple
    top: float | None
    color: tuple | None


def _bodies(world: WorldState) -> list[_Body]:
    out = []
    for e in world.entities:
        p = effective_pose(e)
        out.append(_Body(e.id, e.kind, p[0], p[1], p[3],
                         e.dims, p[2] + e.height, e.color))
    g = world.gripper
    out.append(_Body(GRIPPER_ID, "box", g.pose[0], g.pose[1], g.pose[3],
                     (GRIPPER_FOOT, GRIPPER_FOOT, GRIPPER_HEIGHT),
                     g.pose[2] + GRIPPER_HEIGHT, GRIPPER_COLOR))
    # paint in ascending top order so the highest surface wins each pixel
    out.sort(key=lambda b: (b.top, b.ident))
    return out


def _footprint(body: _Body, cam: CameraConfig, center_xy):
    """Pixel box (i0, i1, j0, j1) of a body in a view, and the body's mask
    over that box; None when the box misses the view."""
    h, w = cam.resolution
    r = footprint_radius(body) + cam.scale
    r0, c0 = world_to_pixel(cam, center_xy, body.cx, body.cy)
    # conservative pixel bounding box around the footprint
    pr = r / cam.scale + 1.0
    i0 = max(0, int(math.floor(r0 - pr)))
    i1 = min(h, int(math.ceil(r0 + pr)) + 1)
    j0 = max(0, int(math.floor(c0 - pr)))
    j1 = min(w, int(math.ceil(c0 + pr)) + 1)
    if i0 >= i1 or j0 >= j1:
        return None
    # world (x, y) of the pixel centers in the box
    ru, rv = _rotated_offsets(h, w, *cam.offset)
    x = center_xy[0] + cam.scale * ru[i0:i1, j0:j1]
    y = center_xy[1] + cam.scale * rv[i0:i1, j0:j1]
    return i0, i1, j0, j1, in_footprint(body.kind, body.dims, body.cx, body.cy, body.yaw,
                                        x, y)


# a packaged scene has at most five bodies (four entities and the gripper),
# so one tick looks up at most ten footprints over both views
@lru_cache(maxsize=16)
def _cached_footprint(kind, cx, cy, yaw, dims, view, offset, resolution, scale,
                      center_x, center_y):
    """_footprint of a body, keyed by everything it depends on; the mask
    is shared, so read-only."""
    body = _Body(None, kind, cx, cy, yaw, dims, None, None)
    fp = _footprint(body, CameraConfig(view, offset, resolution, scale), (center_x, center_y))
    if fp is not None:
        fp[4].flags.writeable = False
    return fp


def _memoized_footprint(body: _Body, cam: CameraConfig, center_xy):
    """_footprint from the cache: computed once while the body, the camera
    and the view centre keep their planar poses. The top is not part of
    the key, so a body moving only in height is a hit."""
    return _cached_footprint(body.kind, body.cx, body.cy, body.yaw, tuple(body.dims),
                             cam.view, tuple(cam.offset), tuple(cam.resolution),
                             cam.scale, center_xy[0], center_xy[1])


def _rasterize(bodies: list[_Body], cam: CameraConfig, center_xy,
               height: np.ndarray | None = None) -> np.ndarray:
    """Instance map of the bodies painted in order; each body's top is
    painted into ``height`` too, when it is given."""
    inst = np.full(cam.resolution, BACKGROUND_ID, dtype=np.int32)
    for b in bodies:
        fp = _memoized_footprint(b, cam, center_xy)
        if fp is None:
            continue
        i0, i1, j0, j1, m = fp
        inst[i0:i1, j0:j1][m] = b.ident
        if height is not None:
            height[i0:i1, j0:j1][m] = b.top
    return inst


@lru_cache(maxsize=2)
def _background_rgb(checker: tuple, cell: int, h: int, w: int) -> np.ndarray:
    """Checkerboard of two colours in cell-pixel squares; shared, read-only."""
    img = np.empty((h, w, 3), dtype=np.float64)
    ii, jj = np.meshgrid(np.arange(h) // cell, np.arange(w) // cell, indexing="ij")
    parity = ((ii + jj) % 2).astype(bool)
    img[~parity] = checker[0]
    img[parity] = checker[1]
    img.flags.writeable = False
    return img


def _paint_rgb(inst3: np.ndarray, colors: list, look: Appearance) -> np.ndarray:
    h, w = inst3.shape
    rgb = _background_rgb(look.checker, look.cell, h, w).copy()
    for ident, color in colors:
        rgb[inst3 == ident] = color
    rgb = np.clip(rgb * np.array(look.light_gain, dtype=np.float64), 0.0, 1.0)
    return np.round(rgb * 255.0).astype(np.uint8)


def _camera_key(cam: CameraConfig) -> tuple:
    return cam.view, tuple(cam.offset), tuple(cam.resolution), cam.scale


# the maps of the last few geometries rendered, about 112 KB each; within
# an episode the cameras are fixed, so these are its most recent ticks'
@lru_cache(maxsize=4)
def _maps(key: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Third-view instance map, first-view instance map and first-view
    height map of a geometry key (see ``render``); shared, so read-only."""
    bodies, cam3, cam1, center3, center1 = key
    inst3 = _rasterize(bodies, CameraConfig(*cam3), center3)
    height1 = np.zeros(cam1[2], dtype=np.float64)
    inst1 = _rasterize(bodies, CameraConfig(*cam1), center1, height1)
    for a in (inst3, inst1, height1):
        a.flags.writeable = False
    return inst3, inst1, height1


def render(world: WorldState, cam3: CameraConfig, cam1: CameraConfig) -> Frame:
    """Render both views; deterministic given (world, cameras).

    The maps are a function of the frame's geometry key: the bodies, both
    cameras and both view centres. A key seen a few renders ago (a still
    scene, or a retry back at the same pose) takes its maps from a small
    cache; the frame's tick and gripper are its own.
    """
    cam3.validate()
    cam1.validate()
    if cam3.view != "third" or cam1.view != "first":
        raise ValueError("render expects a third-view and a first-view camera")

    bodies = tuple(_bodies(world))
    center3 = ((world.workspace[0, 0] + world.workspace[0, 1]) / 2.0,
               (world.workspace[1, 0] + world.workspace[1, 1]) / 2.0)
    center1 = (world.gripper.pose[0], world.gripper.pose[1])
    key = (bodies, _camera_key(cam3), _camera_key(cam1), center3, center1)
    inst3, inst1, height1 = _maps(key)

    # colours and appearance are immutable, so later edits to the world
    # rebind them and cannot reach the image
    colors = sorted((b.ident, b.color) for b in bodies)
    paint = partial(_paint_rgb, inst3, colors, world.appearance)
    return Frame(depth1=height1, instance3=inst3, instance1=inst1,
                 gripper=world.gripper.copy(), tick=world.tick, paint_rgb3=paint,
                 geometry=key)


def frame_digest(frame: Frame) -> str:
    return digest_arrays(
        [frame.rgb3, frame.depth1, frame.instance3, frame.instance1,
         frame.gripper.pose, np.array([frame.gripper.aperture])],
        extra=f"tick={frame.tick};holding={frame.gripper.holding}",
    )
