from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import gripper_to, run_steps, simple_scene_doc, states_equal
from robridge.scenes import SceneError, parse_scene
from robridge.world import (
    GRASP_APERTURE,
    APERTURE_RATE,
    Appearance,
    create_world,
    effective_pose,
    entity_top,
    footprint_contains,
    footprint_radius,
    in_footprint,
    interpenetration_violation,
    step,
)


def test_create_world_deterministic(scene):
    a = create_world(scene, seed=7)
    b = create_world(scene, seed=7)
    assert states_equal(a, b)
    for ea, eb in zip(a.entities, b.entities):
        assert ea.pose.tobytes() == eb.pose.tobytes()


def test_create_world_negative_dimension_rejected():
    doc = simple_scene_doc()
    doc["entities"][1]["shape"]["radius"] = -0.1
    with pytest.raises(SceneError, match="positive"):
        parse_scene(doc)


def test_drawer_starts_at_closed_limit(scene):
    w = create_world(scene, seed=3)
    art = w.find("drawer").articulation
    assert art.coordinate == art.lo


def test_overlapping_fixed_placements_rejected():
    doc = simple_scene_doc()
    doc["entities"][1]["place"] = {"xy": [0.30, 0.34], "z": 0.0}  # on top of the cube
    with pytest.raises(SceneError, match="overlap"):
        create_world(parse_scene(doc), seed=0)


def test_zero_action_only_advances_tick(world):
    w2 = step(world, np.zeros(4))
    assert w2.tick == world.tick + 1
    w2.tick = world.tick
    assert states_equal(w2, world)


def test_nonfinite_action_rejected(world):
    with pytest.raises(ValueError, match="finite"):
        step(world, np.array([np.nan, 0, 0, 0]))


def test_grasp_engages_near_object_top(world):
    cube = world.find("cube")
    w = gripper_to(world, cube.pose[0], cube.pose[1], entity_top(cube) + 0.005)
    # hand-trace: aperture 1.0 -> 0.4 after one closing tick, which crosses
    # the 0.5 threshold with the cube top 0.5 cm from the tip
    w = step(w, np.array([0, 0, 0, -1.0]))
    assert w.gripper.aperture == pytest.approx(1.0 - APERTURE_RATE)
    assert w.gripper.aperture < GRASP_APERTURE
    assert w.gripper.holding == cube.id


def test_grasp_out_of_range_does_not_engage(world):
    cube = world.find("cube")
    w = gripper_to(world, cube.pose[0] + 0.05, cube.pose[1], entity_top(cube) + 0.005)
    w = run_steps(w, np.array([0, 0, 0, -1.0]), 3)
    assert w.gripper.holding is None


def test_workspace_clamp(world):
    w = world
    for _ in range(40):
        w = step(w, np.array([1.0, 0, 0, 0]))
    assert w.gripper.pose[0] == w.workspace[0, 1]


def test_rigid_attachment_while_held(world):
    cube = world.find("cube")
    w = gripper_to(world, cube.pose[0], cube.pose[1], entity_top(cube) + 0.005)
    w = step(w, np.array([0, 0, 0, -1.0]))
    assert w.gripper.holding == cube.id
    offset0 = w.entity(cube.id).pose - w.gripper.pose
    rng = np.random.default_rng(0)
    for _ in range(30):
        a = rng.uniform(-1, 1, 4)
        a[3] = -1.0
        w = step(w, a)
        offset = w.entity(cube.id).pose - w.gripper.pose
        assert np.allclose(offset, offset0, atol=1e-12)


def test_release_settles_on_support(world):
    cube = world.find("cube")
    slot = world.find("slot")
    w = gripper_to(world, cube.pose[0], cube.pose[1], entity_top(cube) + 0.005)
    w = step(w, np.array([0, 0, 0, -1.0]))
    assert w.gripper.holding == cube.id
    w.gripper.pose[:2] = slot.pose[:2]
    w.gripper.pose[2] = 0.15
    w.entity(cube.id).pose[:] = w.gripper.pose + w.held_offset
    w = step(w, np.array([0, 0, 0, 1.0]))
    assert w.gripper.holding is None
    assert w.entity(cube.id).pose[2] == pytest.approx(entity_top(slot))


def test_open_gripper_does_not_push(world):
    cube = world.find("cube")
    w = gripper_to(world, cube.pose[0] - 0.05, cube.pose[1], 0.01)
    before = cube.pose[:2].copy()
    for _ in range(6):
        w = step(w, np.array([1.0, 0, 0, 1.0]))   # sweep through with open fingers
    assert np.allclose(w.find("cube").pose[:2], before)


def test_closed_gripper_pushes(world):
    cube = world.find("cube")
    w = gripper_to(world, cube.pose[0] - 0.06, cube.pose[1], 0.01)
    w = run_steps(w, np.array([0, 0, 0, -1.0]), 2)   # close first
    before = cube.pose[0]
    for _ in range(5):
        w = step(w, np.array([1.0, 0, 0, -1.0]))
    assert w.find("cube").pose[0] > before + 0.02
    assert interpenetration_violation(w) is None


def test_articulation_drive_and_clamp(world):
    from robridge.world import handle_point
    drawer = world.find("drawer")
    hp = handle_point(drawer)
    w = gripper_to(world, hp[0], hp[1], hp[2])
    w = run_steps(w, np.array([0, 0, 0, -1.0]), 2)   # close on the handle
    for _ in range(12):
        w = step(w, np.array([-1.0, 0, 0, -1.0]))
        art = w.find("drawer").articulation
        assert art.lo <= art.coordinate <= art.hi
    assert w.find("drawer").articulation.coordinate == pytest.approx(0.104)


def test_press_engagement_requires_closed_fingers():
    doc = simple_scene_doc()
    doc["entities"].append({
        "name": "button", "shape": {"kind": "cylinder", "radius": 0.025, "height": 0.03},
        "color": [0.85, 0.13, 0.10], "place": {"xy": [0.20, 0.50], "z": 0.0},
        "articulation": {"mode": "linear", "axis": [0, 0, -1], "range": [0.0, 0.012],
                         "handle": [0.0, 0.0, 0.03], "engage": "press"}})
    w = create_world(parse_scene(doc), seed=0)
    btn = w.find("button")
    w = gripper_to(w, btn.pose[0], btn.pose[1], 0.035)
    w_open = run_steps(w.copy(), np.array([0, 0, -0.3, 1.0]), 4)
    assert w_open.find("button").articulation.coordinate == 0.0
    w_closed = run_steps(w, np.array([0, 0, -0.3, -1.0]), 4)
    assert w_closed.find("button").articulation.coordinate > 0.004


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 25))
def test_step_replay_bit_identical(seed, n):
    w0 = create_world(parse_scene(simple_scene_doc()), seed=seed)
    rng = np.random.default_rng(seed)
    actions = rng.uniform(-1, 1, (n, 4))
    wa = wb = w0
    for a in actions:
        wa = step(wa, a)
    for a in actions:
        wb = step(wb, a)
    assert states_equal(wa, wb)
    assert wa.gripper.pose.tobytes() == wb.gripper.pose.tobytes()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 60))
def test_invariants_under_random_actions(seed, n):
    w = create_world(parse_scene(simple_scene_doc()), seed=seed % 97)
    rng = np.random.default_rng(seed)
    for _ in range(n):
        w = step(w, rng.uniform(-1, 1, 4))
        ws = w.workspace
        assert (ws[:, 0] <= w.gripper.pose[:3]).all() and (w.gripper.pose[:3] <= ws[:, 1]).all()
        for e in w.entities:
            if e.articulation:
                assert e.articulation.lo <= e.articulation.coordinate <= e.articulation.hi
        if w.gripper.holding is not None:
            assert w.gripper.aperture < GRASP_APERTURE
        assert interpenetration_violation(w) is None


def test_effective_pose_linear_and_rotary():
    doc = simple_scene_doc()
    doc["entities"].append({
        "name": "dial", "shape": {"kind": "cylinder", "radius": 0.035, "height": 0.03},
        "color": [0.45, 0.45, 0.50], "place": {"xy": [0.20, 0.55], "z": 0.0},
        "articulation": {"mode": "rotary", "axis": [0, 0, 1], "range": [0.0, 1.5708],
                         "coordinate": 0.5, "handle": [0.03, 0.0, 0.025], "engage": "grasp"}})
    w = create_world(parse_scene(doc), seed=0)
    drawer = w.find("drawer")
    drawer.articulation.coordinate = 0.05
    p = effective_pose(drawer)
    assert p[0] == pytest.approx(drawer.pose[0] - 0.05)
    dial = w.find("dial")
    assert effective_pose(dial)[3] == pytest.approx(0.5)


def test_appearance_and_colours_are_shared_not_copied(world):
    # fixed per episode: step and copy share them instead of copying
    assert step(world, [0.3, -0.2, 0.1, -1.0]).appearance is world.appearance
    assert world.copy().entities[0].color is world.entities[0].color
    with pytest.raises(FrozenInstanceError):
        world.appearance.cell = 8
    with pytest.raises(FrozenInstanceError):
        Appearance().light_gain = (0.5, 0.5, 0.5)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["cube", "cylinder", "slot", "drawer"]),
       pose=st.tuples(st.floats(0.1, 0.5), st.floats(0.1, 0.5), st.floats(-4.0, 4.0)),
       seed=st.integers(0, 2**32 - 1))
def test_footprint_test_on_arrays_matches_footprint_contains(name, pose, seed):
    # the renderer calls in_footprint on pixel grids; it must agree point
    # by point with the scalar test that contact and success use
    e = create_world(parse_scene(simple_scene_doc()), seed=5).find(name)
    e.pose[[0, 1, 3]] = pose
    p = effective_pose(e)
    r = footprint_radius(e)
    xy = p[:2, None, None] + np.random.default_rng(seed).uniform(-1.5 * r, 1.5 * r, (2, 9, 9))
    xy[:, 0, 0] = p[:2]
    mask = in_footprint(e.kind, e.dims, p[0], p[1], p[3], xy[0], xy[1])
    assert mask.shape == (9, 9) and mask.dtype == bool and mask[0, 0]
    assert mask.tolist() == [[bool(footprint_contains(e, x, y)) for x, y in zip(*row)]
                             for row in zip(xy[0], xy[1])]
