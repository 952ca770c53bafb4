import numpy as np
import pytest

from robridge.augment import _blur_block
from robridge.experts import STEP_RECORD, STEP_SIZE
from robridge.render import render
from robridge.scenes import parse_scene
from robridge.world import create_world, first_camera, third_camera


def blur_one(img, sigma):
    """One image through augment._blur_block, which blurs a stack in place,
    each image with its own sigma; float64 out."""
    out = np.array(img, dtype=np.float64)[None]
    _blur_block(out, np.array([float(sigma)]))
    return out[0]


def simple_scene_doc(**overrides):
    """Small hand-positioned scene used across the unit tests: one cube,
    one cylinder, one slot pad, one drawer fixture."""
    doc = {
        "schema_version": 1,
        "name": "test_scene",
        "workspace": {"x": [0.0, 0.64], "y": [0.0, 0.64], "z": [0.0, 0.32]},
        "gripper": {"pose": [0.32, 0.14, 0.12, 0.0], "aperture": 1.0},
        "entities": [
            {"name": "cube", "shape": {"kind": "box", "dims": [0.04, 0.04, 0.04]},
             "color": [0.85, 0.13, 0.10], "place": {"xy": [0.30, 0.34], "z": 0.0},
             "graspable": True},
            {"name": "cylinder", "shape": {"kind": "cylinder", "radius": 0.022, "height": 0.036},
             "color": [0.90, 0.80, 0.12], "place": {"xy": [0.16, 0.22], "z": 0.0},
             "graspable": True},
            {"name": "slot", "shape": {"kind": "cylinder", "radius": 0.045, "height": 0.004},
             "color": [0.25, 0.25, 0.30], "place": {"xy": [0.48, 0.40], "z": 0.0}},
            {"name": "drawer", "shape": {"kind": "box", "dims": [0.12, 0.14, 0.05]},
             "color": [0.45, 0.45, 0.50], "place": {"xy": [0.50, 0.20], "z": 0.0},
             "articulation": {"mode": "linear", "axis": [-1, 0, 0], "range": [0.0, 0.104],
                              "handle": [-0.065, 0.0, 0.025], "engage": "grasp"}},
        ],
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def scene():
    return parse_scene(simple_scene_doc())


@pytest.fixture
def world(scene):
    return create_world(scene, seed=5)


@pytest.fixture
def cams():
    return third_camera(), first_camera()


@pytest.fixture
def frame(world, cams):
    return render(world, *cams)


def gripper_to(world, x, y, z):
    """Teleport the gripper (test helper, keeps everything else intact)."""
    w = world.copy()
    w.gripper.pose[:3] = (x, y, z)
    return w


def run_steps(world, action, n):
    from robridge.world import step
    for _ in range(n):
        world = step(world, action)
    return world


def states_equal(a, b) -> bool:
    if a.tick != b.tick or a.gripper.holding != b.gripper.holding:
        return False
    if not np.array_equal(a.gripper.pose, b.gripper.pose):
        return False
    if a.gripper.aperture != b.gripper.aperture:
        return False
    for ea, eb in zip(a.entities, b.entities):
        if not np.array_equal(ea.pose, eb.pose):
            return False
        if (ea.articulation is None) != (eb.articulation is None):
            return False
        if ea.articulation and ea.articulation.coordinate != eb.articulation.coordinate:
            return False
    return True


def zero_steps(n):
    """n all-zero trajectory records with a valid size field."""
    steps = np.zeros(n, STEP_RECORD)
    steps["size"] = STEP_SIZE
    return steps
