import json
import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from conftest import gripper_to
from robridge import hcp
from robridge.hcp import (
    ConstraintError,
    ExternalPlannerClient,
    GroundingError,
    GroundingNoise,
    PlanningError,
    PrimitiveAction,
    Status,
    StatusNoise,
)
from robridge.render import render
from robridge.tasks import instantiate, load_catalog
from robridge.world import entity_top, first_camera, third_camera


def types_of(plan):
    return [(a.type, a.obj, a.des) for a in plan.actions]


@pytest.mark.parametrize("task_id", sorted(load_catalog().tasks))
def test_plan_reproduces_catalog_oracle_plan(task_id):
    task = load_catalog().task(task_id)
    world, instruction, cams = instantiate(task_id, "nominal", 0)
    assert instruction == task.instruction
    assert types_of(hcp.plan(task.instruction, render(world, *cams))) == task.oracle_plan


def test_plan_fetch_decomposition(frame):
    plan = hcp.plan("put the yellow cylinder in the round slot", frame)
    assert types_of(plan) == [
        ("reach", "yellow cylinder", None),
        ("grasp", "yellow cylinder", None),
        ("reach", "round slot", None),
        ("place", "yellow cylinder", "round slot"),
    ]


def test_plan_press_expansion(frame):
    plan = hcp.plan("press the red button", frame)
    assert types_of(plan) == [("reach", "red button", None), ("press", "red button", None)]


def test_plan_conjunction(frame):
    plan = hcp.plan("put the a in the b and the c in the d", frame)
    assert len(plan.actions) == 8
    assert plan.actions[3] == PrimitiveAction("place", "a", "b")
    assert plan.actions[7] == PrimitiveAction("place", "c", "d")


def test_plan_out_of_grammar(frame):
    with pytest.raises(PlanningError):
        hcp.plan("frobnicate the table", frame)


def test_plan_grasp_preceded_by_reach(frame):
    for instr in ("put the x in the y", "press the b", "open the d",
                  "push the p to the q", "turn the knob"):
        plan = hcp.plan(instr, frame)
        for i, a in enumerate(plan.actions):
            if a.type == "grasp":
                assert plan.actions[i - 1] == PrimitiveAction("reach", a.obj)
            assert a.type in hcp.PRIMITIVE_TYPES


def test_primitive_action_validation():
    with pytest.raises(ValueError):
        PrimitiveAction("fly", "x")
    with pytest.raises(ValueError):
        PrimitiveAction("grasp", "x", "y")   # grasp takes no destination
    PrimitiveAction("push", "x", "y")


def test_ground_oracle_exact_mask(world, frame):
    g = hcp.ground(PrimitiveAction("grasp", "cube"), frame, world)
    assert g.obj_id == world.find("cube").id
    assert np.array_equal(g.obj_mask3, frame.instance3 == g.obj_id)


def test_ground_unknown_name(world, frame):
    with pytest.raises(GroundingError):
        hcp.ground(PrimitiveAction("reach", "blue pyramid"), frame, world)


def test_ground_forced_flip_to_distractor(world, frame):
    noise = GroundingNoise(flip_p=1.0, seed=4)
    g = hcp.ground(PrimitiveAction("grasp", "cube"), frame, world, noise)
    # the only other box entity is the drawer
    assert g.obj_id == world.find("drawer").id


def test_direction_constraint_drawer_signs(world):
    d_open = hcp.direction_constraint(PrimitiveAction("open", "drawer"), world)
    assert np.allclose(d_open, [-1.0, 0.0, 0.0])
    d_close = hcp.direction_constraint(PrimitiveAction("close", "drawer"), world)
    assert np.allclose(d_close, [1.0, 0.0, 0.0])


def test_direction_constraint_none_for_press(world):
    w = world.copy()
    w.entities[0].articulation = None
    assert hcp.direction_constraint(PrimitiveAction("press", "cube"), w) is None
    assert hcp.direction_constraint(PrimitiveAction("grasp", "cube"), w) is None


def test_direction_constraint_push_toward_destination(world):
    d = hcp.direction_constraint(PrimitiveAction("push", "cube", "slot"), world)
    cube = world.find("cube")
    slot = world.find("slot")
    expect = np.array([slot.pose[0] - cube.pose[0], slot.pose[1] - cube.pose[1], 0.0])
    expect /= np.linalg.norm(expect)
    assert np.allclose(d, expect)


def test_direction_constraint_failure_on_free_target(world):
    with pytest.raises(ConstraintError):
        hcp.direction_constraint(PrimitiveAction("pull", "cube"), world)


@settings(max_examples=30, deadline=None)
@given(axis=st.tuples(*[st.floats(-1, 1) for _ in range(3)]))
def test_direction_constraint_unit_norm(axis):
    from conftest import simple_scene_doc
    from robridge.scenes import parse_scene
    from robridge.world import create_world
    n = float(np.linalg.norm(axis))
    if n < 1e-6:
        return
    w = create_world(parse_scene(simple_scene_doc()), seed=1)
    w.find("drawer").articulation.axis = np.array(axis) / n
    d = hcp.direction_constraint(PrimitiveAction("open", "drawer"), w)
    assert abs(float(np.linalg.norm(d)) - 1.0) < 1e-9


def test_check_status_grasp_success(world, frame, cams):
    cube = world.find("cube")
    w = gripper_to(world, cube.pose[0], cube.pose[1], entity_top(cube))
    w.gripper.holding = cube.id
    w.gripper.aperture = 0.0
    f = render(w, *cams)
    s = hcp.check_status(PrimitiveAction("grasp", "cube"), f, w, timeout=200)
    assert s is Status.SUCCESS


def test_check_status_timeout(world, frame):
    w = world.copy()
    w.tick = 300
    f2 = render(w, third_camera(), first_camera())
    s = hcp.check_status(PrimitiveAction("grasp", "cube"), f2, w, timeout=200)
    assert s is Status.WRONG


def test_check_status_normal_mid_transit(world, cams):
    cube = world.find("cube")
    w = world.copy()
    w.gripper.holding = cube.id
    w.gripper.aperture = 0.0
    cube.pose[:] = w.gripper.pose
    f = render(w, *cams)
    s = hcp.check_status(PrimitiveAction("place", "cube", "slot"), f, w, timeout=200)
    assert s is Status.NORMAL


def test_check_status_place_drop_is_wrong(world, cams):
    f = render(world, *cams)
    s = hcp.check_status(PrimitiveAction("place", "cube", "slot"), f, world, timeout=200)
    assert s is Status.WRONG


def test_check_status_lost_is_wrong(world, cams):
    f = render(world, *cams)
    s = hcp.check_status(PrimitiveAction("grasp", "cube"), f, world, timeout=200, lost=True)
    assert s is Status.WRONG


def test_status_noise_flips_verdicts(world, cams):
    f = render(world, *cams)
    noise = StatusNoise(rate=1.0, seed=9)
    s = hcp.check_status(PrimitiveAction("grasp", "cube"), f, world, timeout=200, noise=noise)
    assert s is not Status.NORMAL   # normal is the true verdict here


def _serve_once(payload: bytes, port_holder):
    srv = socket.create_server(("127.0.0.1", 0))
    port_holder.append(srv.getsockname()[1])
    conn, _ = srv.accept()
    conn.recv(65536)
    conn.sendall(payload)
    conn.close()
    srv.close()


def test_external_planner_tcp_roundtrip(frame):
    reply = json.dumps({"actions": [
        {"type": "reach", "obj": "red button"},
        {"type": "press", "obj": "red button", "des": None},
    ]}).encode() + b"\n"
    ports = []
    t = threading.Thread(target=_serve_once, args=(reply, ports))
    t.start()
    while not ports:
        pass
    client = ExternalPlannerClient(f"tcp:127.0.0.1:{ports[0]}", deadline_s=5.0)
    plan = hcp.plan("press the red button", frame, external=client,
                    object_names=["red button"])
    t.join()
    assert types_of(plan) == [("reach", "red button", None), ("press", "red button", None)]


def test_external_planner_rejects_bad_schema(frame):
    reply = json.dumps({"actions": [{"type": "levitate", "obj": "x"}]}).encode() + b"\n"
    ports = []
    t = threading.Thread(target=_serve_once, args=(reply, ports))
    t.start()
    while not ports:
        pass
    client = ExternalPlannerClient(f"tcp:127.0.0.1:{ports[0]}", deadline_s=5.0)
    with pytest.raises(PlanningError, match="schema-invalid"):
        hcp.plan("press the red button", frame, external=client, object_names=[])
    t.join()


def test_external_planner_pipe(tmp_path):
    reply = json.dumps({"actions": [{"type": "reach", "obj": "white marker"}]})
    script = tmp_path / "canned_planner.py"
    script.write_text("import sys\nsys.stdin.readline()\nprint(%r)\n" % reply)
    client = ExternalPlannerClient(f"pipe:python3 {script}", deadline_s=30.0)
    actions = client._parse_reply(client._exchange("{}"))
    assert actions == [PrimitiveAction("reach", "white marker")]


class Draws:
    """Stands in for the grounding rng: integers() returns the given
    values in turn, each inside the range asked for."""

    def __init__(self, *values):
        self.values = list(values)

    def integers(self, lo, hi):
        value = self.values.pop(0)
        assert lo <= value < hi
        return value


def border_masks():
    """Random masks of 1 to 24 pixels a side whose outermost rows and
    columns are set more often than the rest, so windows cross the border."""
    def paint(args):
        h, w, seed, density = args
        rng = np.random.default_rng(seed)
        mask = rng.random((h, w)) < density
        mask[[0, -1]] |= rng.random((2, w)) < 0.7
        mask[:, [0, -1]] |= rng.random((h, 2)) < 0.7
        return mask
    return st.tuples(st.integers(1, 24), st.integers(1, 24), st.integers(0, 2**32 - 1),
                     st.floats(0.0, 1.0)).map(paint)


@settings(max_examples=60, deadline=None)
@given(mask=border_masks(), dilate=st.integers(0, 3), erode=st.integers(0, 3))
def test_morph_matches_scipy_binary_morphology(mask, dilate, erode):
    noise = GroundingNoise(dilate_px=3, erode_px=3)
    ref = mask
    if dilate:
        ref = ndimage.binary_dilation(ref, structure=np.ones((2 * dilate + 1,) * 2, bool))
    if erode:
        ref = ndimage.binary_erosion(ref, structure=np.ones((2 * erode + 1,) * 2, bool))
    before = mask.copy()
    out = hcp._morph(mask, noise, Draws(dilate, erode))
    assert out.dtype == bool and np.array_equal(out, ref)
    assert np.array_equal(mask, before)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_morph_full_and_single_pixel_masks(r):
    square = np.ones((2 * r + 1,) * 2, bool)
    for mask in (np.ones((9, 7), bool), np.eye(1, dtype=bool), np.ones((1, 12), bool),
                 np.pad(np.ones((3, 3), bool), 4)):
        dilated = hcp._morph(mask, GroundingNoise(dilate_px=r), Draws(r))
        eroded = hcp._morph(mask, GroundingNoise(erode_px=r), Draws(r))
        assert np.array_equal(dilated, ndimage.binary_dilation(mask, structure=square))
        assert np.array_equal(eroded, ndimage.binary_erosion(mask, structure=square))
