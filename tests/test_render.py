import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import simple_scene_doc
from robridge.render import (
    _bodies,
    _cached_footprint,
    _maps,
    _rotated_offsets,
    frame_digest,
    render,
    world_to_pixel,
)
from robridge.scenes import parse_scene
from robridge.world import (
    GRIPPER_COLOR,
    GRIPPER_ID,
    Appearance,
    create_world,
    effective_pose,
    first_camera,
    in_footprint,
    third_camera,
)


def empty_scene_world():
    doc = simple_scene_doc()
    doc["entities"] = []
    doc["gripper"]["pose"] = [0.32, 0.32, 0.30, 0.0]
    return create_world(parse_scene(doc), seed=0)


def test_empty_scene_background(cams):
    w = empty_scene_world()
    f = render(w, *cams)
    ids = set(np.unique(f.instance3))
    assert ids == {0, GRIPPER_ID}


def test_render_deterministic(world, cams):
    a = render(world, *cams)
    b = render(world, *cams)
    assert a.rgb3.tobytes() == b.rgb3.tobytes()
    assert a.depth1.tobytes() == b.depth1.tobytes()
    assert a.instance3.tobytes() == b.instance3.tobytes()
    assert frame_digest(a) == frame_digest(b)


def test_cube_blob_pixel_count():
    # 4 cm cube at 5 mm/px covers an 8x8 pixel square, up to edge effects
    doc = simple_scene_doc()
    doc["entities"] = [{
        "name": "cube", "shape": {"kind": "box", "dims": [0.04, 0.04, 0.04]},
        "color": [0.8, 0.1, 0.1], "place": {"xy": [0.30, 0.34], "z": 0.0},
        "graspable": True}]
    doc["gripper"]["pose"] = [0.10, 0.10, 0.30, 0.0]
    w = create_world(parse_scene(doc), seed=0)
    f = render(w, third_camera(), first_camera())
    count = int((f.instance3 == w.find("cube").id).sum())
    assert 49 <= count <= 81
    assert count == 64   # aligned placement: exactly 8x8


def test_instance_centroid_matches_ground_truth(world, cams):
    f = render(world, *cams)
    cam3 = cams[0]
    center = np.array([0.32, 0.32])
    for e in world.entities:
        mask = f.instance3 == e.id
        if not mask.any():
            continue
        rows, cols = np.nonzero(mask)
        p = effective_pose(e)
        r_exp, c_exp = world_to_pixel(cam3, center, p[0], p[1])
        # gripper occlusion can bias a centroid; skip partially hidden bodies
        if e.name == "cube":
            assert abs(rows.mean() - r_exp) <= 1.0
            assert abs(cols.mean() - c_exp) <= 1.0


def test_depth_is_top_surface_height(world, cams):
    cube = world.find("cube")
    w = world.copy()
    w.gripper.pose[:2] = cube.pose[:2]
    w.gripper.pose[2] = 0.25
    f = render(w, *cams)
    on_cube = f.instance1 == cube.id
    assert on_cube.any()
    assert np.allclose(f.depth1[on_cube], 0.04)
    assert (f.depth1[f.instance1 == 0] == 0.0).all()


def test_camera_translation_shifts_content():
    doc = simple_scene_doc()
    w = create_world(parse_scene(doc), seed=2)
    f0 = render(w, third_camera(), first_camera())
    f1 = render(w, third_camera(offset=(8.0, -4.0, 0.0)), first_camera())
    # camera pans by (dx, dy) px; content shifts by (-dy, -dx) in (row, col)
    shifted = np.roll(f0.instance3, shift=(4, -8), axis=(0, 1))
    interior = np.s_[12:116, 12:116]
    assert np.array_equal(shifted[interior], f1.instance3[interior])
    assert np.array_equal(f0.instance1, f1.instance1)
    assert np.array_equal(f0.depth1, f1.depth1)


def test_camera_rotation_moves_offcenter_content():
    doc = simple_scene_doc()
    w = create_world(parse_scene(doc), seed=2)
    f0 = render(w, third_camera(), first_camera())
    f1 = render(w, third_camera(offset=(0.0, 0.0, 0.2)), first_camera())
    assert not np.array_equal(f0.instance3, f1.instance3)
    assert np.array_equal(f0.depth1, f1.depth1)


def test_appearance_changes_rgb_only(world, cams):
    f0 = render(world, *cams)
    w2 = world.copy()
    w2.appearance = Appearance(checker=((0.1, 0.5, 0.2), (0.3, 0.1, 0.4)), cell=8,
                               light_gain=(0.6, 1.3, 0.8))
    f1 = render(w2, *cams)
    assert not np.array_equal(f0.rgb3, f1.rgb3)
    assert np.array_equal(f0.instance3, f1.instance3)
    assert np.array_equal(f0.instance1, f1.instance1)
    assert np.array_equal(f0.depth1, f1.depth1)


def test_occlusion_topmost_wins(world, cams):
    cube = world.find("cube")
    w = world.copy()
    w.gripper.pose[:2] = cube.pose[:2]
    w.gripper.pose[2] = 0.10
    f = render(w, *cams)
    # gripper hovers over the cube center: the cube keeps only a ring
    full = render(world, *cams)
    assert (f.instance3 == cube.id).sum() < (full.instance3 == cube.id).sum()
    assert (f.instance3 == GRIPPER_ID).sum() > 0


def test_camera_validation():
    from robridge.world import CameraConfig
    with pytest.raises(ValueError):
        CameraConfig("third", resolution=(16, 16)).validate()
    with pytest.raises(ValueError):
        CameraConfig("third", scale=0.0).validate()


def eager_rgb(world, instance3):
    """Reference third-view RGB: the image painted directly from the world."""
    h, w = instance3.shape
    look = world.appearance
    img = np.empty((h, w, 3), dtype=np.float64)
    cell = look.cell
    ii, jj = np.meshgrid(np.arange(h) // cell, np.arange(w) // cell, indexing="ij")
    parity = ((ii + jj) % 2).astype(bool)
    img[~parity] = np.array(look.checker[0], dtype=np.float64)
    img[parity] = np.array(look.checker[1], dtype=np.float64)
    colors = {e.id: e.color for e in world.entities}
    colors[GRIPPER_ID] = np.array(GRIPPER_COLOR)
    for ident, color in sorted(colors.items()):
        img[instance3 == ident] = color
    img = np.clip(img * np.array(world.appearance.light_gain, dtype=np.float64), 0.0, 1.0)
    return np.round(img * 255.0).astype(np.uint8)


def test_lazy_rgb_matches_eager_and_ignores_later_world_edits(world, cams):
    world.appearance = replace(world.appearance, light_gain=(0.9, 1.1, 1.05))
    expected = eager_rgb(world, render(world, *cams).instance3)
    f = render(world, *cams)
    # edits after render, as a grasp fault makes, must not reach the image;
    # colours and appearance cannot be written in place, only rebound
    cube = world.find("cube")
    cube.pose[:2] += 0.05
    cube.color = (0.0, 1.0, 0.0)
    world.gripper.pose[:2] = (0.5, 0.5)
    with pytest.raises(FrozenInstanceError):
        world.appearance.light_gain = (0.5, 0.5, 0.5)
    (r, g, b), second = world.appearance.checker
    world.appearance = replace(world.appearance, checker=((0.9, g, b), second),
                               light_gain=(0.5, 0.5, 0.5))
    assert f.rgb3.tobytes() == expected.tobytes()
    assert f.rgb3 is f.rgb3   # built once


def test_background_cache_keys_on_colors(world, cams):
    a = world.copy()
    b = world.copy()
    b.appearance = replace(b.appearance, checker=((0.36, 0.36, 0.38), (0.50, 0.42, 0.44)))
    # a background that differs only in its cell size
    c = world.copy()
    c.appearance = replace(c.appearance, cell=8)
    fa = render(a, *cams)
    assert fa.rgb3.tobytes() == eager_rgb(a, fa.instance3).tobytes()
    fb = render(b, *cams)
    assert fb.rgb3.tobytes() == eager_rgb(b, fb.instance3).tobytes()
    assert not np.array_equal(fa.rgb3, fb.rgb3)
    fc = render(c, *cams)
    assert fc.rgb3.tobytes() == eager_rgb(c, fc.instance3).tobytes()
    assert not np.array_equal(fa.rgb3, fc.rgb3)


def test_pixel_world_coordinates_match_full_grid_formula():
    # the rasterizer evaluates world coordinates on cached, rotated offsets;
    # they must equal the direct per-camera computation bit for bit
    for cam in (third_camera(offset=(3.0, -7.0, 0.3)), first_camera()):
        h, w = cam.resolution
        dx, dy, dth = cam.offset
        jj, ii = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
        u = jj + 0.5 - w / 2.0 + dx
        v = ii + 0.5 - h / 2.0 + dy
        c, s = math.cos(dth), math.sin(dth)
        center = np.array([0.31, 0.27])
        x = center[0] + cam.scale * (c * u - s * v)
        y = center[1] + cam.scale * (s * u + c * v)
        ru, rv = _rotated_offsets(h, w, dx, dy, dth)
        win = np.s_[5:20, 9:31]
        assert (center[0] + cam.scale * ru[win]).tobytes() == x[win].tobytes()
        assert (center[1] + cam.scale * rv[win]).tobytes() == y[win].tobytes()
        with pytest.raises(ValueError):
            ru[0, 0] = 1.0


def full_grid_instance3(world, cam):
    """Third-view instance map with every body tested on every pixel, in
    painting order: no bounding boxes, no cache."""
    h, w = cam.resolution
    ru, rv = _rotated_offsets(h, w, *cam.offset)
    x = (world.workspace[0, 0] + world.workspace[0, 1]) / 2.0 + cam.scale * ru
    y = (world.workspace[1, 0] + world.workspace[1, 1]) / 2.0 + cam.scale * rv
    inst = np.zeros((h, w), dtype=np.int32)
    for b in _bodies(world):
        inst[in_footprint(b.kind, b.dims, b.cx, b.cy, b.yaw, x, y)] = b.ident
    return inst


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["cube", "cylinder", "drawer"]),
       move=st.tuples(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05), st.floats(-1.0, 1.0)),
       offset=st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0), st.floats(-0.3, 0.3)))
def test_memoized_third_view_matches_full_grid_rasterization(name, move, offset):
    # static bodies come from the footprint cache; the moved body misses it,
    # then hits its first entry again once moved back
    world = create_world(parse_scene(simple_scene_doc()), seed=5)
    cam3 = third_camera(offset=offset)
    _cached_footprint.cache_clear()
    body = world.find(name)
    home = body.pose.copy()
    for pose in (home, home + (*move[:2], 0.0, move[2]), home):
        body.pose[:] = pose
        misses = _cached_footprint.cache_info().misses
        f = render(world, cam3, first_camera())
        assert np.array_equal(f.instance3, full_grid_instance3(world, cam3))
    info = _cached_footprint.cache_info()
    assert info.misses == misses
    assert info.maxsize <= 16
    with pytest.raises(ValueError):
        _cached_footprint(body.kind, *home[:2], home[3], body.dims, "third",
                          cam3.offset, cam3.resolution, cam3.scale, 0.32, 0.32)[4][0, 0] = True


def full_grid_first_view(world, cam):
    """First-view instance and height maps with every body tested on every
    pixel, in painting order: no bounding boxes, no cache."""
    h, w = cam.resolution
    ru, rv = _rotated_offsets(h, w, *cam.offset)
    x = world.gripper.pose[0] + cam.scale * ru
    y = world.gripper.pose[1] + cam.scale * rv
    inst = np.zeros((h, w), dtype=np.int32)
    height = np.zeros((h, w))
    for b in _bodies(world):
        m = in_footprint(b.kind, b.dims, b.cx, b.cy, b.yaw, x, y)
        inst[m] = b.ident
        height[m] = b.top
    return inst, height


planar_moves = st.tuples(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)).filter(
    lambda d: abs(d[0]) + abs(d[1]) >= 1e-3)


@settings(max_examples=30, deadline=None)
@given(dz=st.floats(-0.1, 0.1), dxy=planar_moves)
def test_memoized_first_view_matches_full_grid_rasterization(dz, dxy):
    # a z-only gripper move repaints both views from the footprint cache;
    # an xy move re-centres the first view, so each body misses it there,
    # and the gripper misses it in the third view too; back home, all
    # three maps come from the map cache, and the frame's tick and gripper
    # are still its own
    world = create_world(parse_scene(simple_scene_doc()), seed=5)
    cams = third_camera(), first_camera()
    _maps.cache_clear()
    _cached_footprint.cache_clear()
    home = render(world, *cams)
    start = world.gripper.pose.copy()
    for move, misses in (((0.0, 0.0, dz), 0), ((*dxy, 0.0), 1 + len(_bodies(world)))):
        world.gripper.pose[:3] += move
        before = _cached_footprint.cache_info().misses
        f = render(world, *cams)
        assert _cached_footprint.cache_info().misses - before == misses
        inst, height = full_grid_first_view(world, cams[1])
        assert np.array_equal(f.instance1, inst)
        assert f.depth1.tobytes() == height.tobytes()
    world.gripper.pose[:] = start
    world.tick += 1
    before = _maps.cache_info()
    f = render(world, *cams)
    assert _maps.cache_info().hits == before.hits + 1
    assert _maps.cache_info().misses == before.misses
    assert f.instance3 is home.instance3 and f.depth1 is home.depth1
    inst, height = full_grid_first_view(world, cams[1])
    assert np.array_equal(f.instance1, inst)
    assert f.depth1.tobytes() == height.tobytes()
    assert np.array_equal(f.instance3, full_grid_instance3(world, cams[0]))
    assert f.tick == home.tick + 1
    assert f.gripper is not home.gripper and np.array_equal(f.gripper.pose, start)
    for a in (f.instance3, f.instance1, f.depth1):
        with pytest.raises(ValueError):
            a[0, 0] = 1
    assert _cached_footprint.cache_info().maxsize <= 16
    assert _maps.cache_info().maxsize <= 4
