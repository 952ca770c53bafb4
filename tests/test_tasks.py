import math

import numpy as np
import pytest

from conftest import states_equal
from robridge.tasks import (
    SUITE_NAMES,
    ExpertRandomization,
    UnknownTaskError,
    instantiate,
    is_success,
    load_catalog,
    reward,
)
from robridge.world import effective_pose, entity_top


@pytest.fixture(scope="module")
def cat():
    return load_catalog()


def test_catalog_contents(cat):
    assert len(cat.training_ids()) == 10
    held_out = {t.id for t in cat.tasks.values() if t.held_out}
    assert held_out == {"bin-pick", "plate-slide", "press-handle", "pick-insert"}
    assert set(cat.suites) == set(SUITE_NAMES)


def test_unknown_task_rejected(cat):
    with pytest.raises(UnknownTaskError):
        cat.task("frobnicate")
    with pytest.raises(UnknownTaskError):
        instantiate("no-such-task", "nominal", 0)


def test_instruction_realized(cat):
    w, instruction, cams = instantiate("press-button", "nominal", 1)
    assert instruction == "press the red button"
    w, instruction, _ = instantiate("pick-place", "nominal", 1)
    assert instruction == "put the yellow cylinder in the round slot"


def test_instantiate_deterministic():
    a = instantiate("pick-place", "nominal", 11)
    b = instantiate("pick-place", "nominal", 11)
    assert states_equal(a[0], b[0])
    assert a[1] == b[1]
    assert a[2][0].offset == b[2][0].offset


@pytest.mark.parametrize("suite", ["unseen_background", "unseen_light", "unseen_color",
                                   "unseen_camera"])
def test_suites_preserve_geometry(suite):
    for seed in (0, 5, 31):
        wn, _, _ = instantiate("pick-place", "nominal", seed)
        ws, _, _ = instantiate("pick-place", suite, seed)
        for en, es in zip(wn.entities, ws.entities):
            assert en.pose.tobytes() == es.pose.tobytes()
            if en.articulation:
                assert en.articulation.coordinate == es.articulation.coordinate
        assert wn.gripper.pose.tobytes() == ws.gripper.pose.tobytes()


def test_unseen_color_changes_colors_only():
    wn, _, _ = instantiate("pick-place", "nominal", 5)
    wc, _, _ = instantiate("pick-place", "unseen_color", 5)
    changed = [not np.allclose(en.color, ec.color) for en, ec in zip(wn.entities, wc.entities)]
    assert all(changed)


def test_unseen_colors_disjoint_from_training_palette(cat):
    train = [np.array(c) for c in cat.train_palette.values()]
    for seed in range(12):
        wc, _, _ = instantiate("pick-place", "unseen_color", seed)
        for e in wc.entities:
            dmin = min(float(np.abs(e.color - t).max()) for t in train)
            assert dmin > 0.05, f"color {e.color} too close to the training palette"


def test_unseen_light_gain_outside_training_range():
    for seed in range(12):
        w, _, _ = instantiate("pick-place", "unseen_light", seed)
        for g in w.appearance.light_gain:
            assert 0.55 <= g <= 0.80 or 1.25 <= g <= 1.60


def test_unseen_camera_offsets_in_declared_ranges():
    for seed in range(12):
        _, _, (cam3, cam1) = instantiate("open-drawer", "unseen_camera", seed)
        dx, dy, dth = cam3.offset
        assert math.radians(5.0) <= abs(dth) <= math.radians(15.0)
        assert 6.0 <= abs(dx) <= 12.0 and 6.0 <= abs(dy) <= 12.0
        assert cam1.offset == (0.0, 0.0, 0.0)
    _, _, (cam3, _) = instantiate("open-drawer", "nominal", 3)
    assert cam3.offset == (0.0, 0.0, 0.0)


def test_expert_randomization_perturbs_scene():
    w0, _, (c0, _) = instantiate("pick-place", "nominal", 4)
    w1, _, (c1, _) = instantiate("pick-place", "nominal", 4, ExpertRandomization())
    cyl0 = w0.find("yellow cylinder")
    cyl1 = w1.find("yellow cylinder")
    assert cyl0.dims != cyl1.dims
    assert 0.8 * cyl0.dims[0] <= cyl1.dims[0] <= 1.2 * cyl0.dims[0]
    assert not np.allclose(w0.gripper.pose[:2], w1.gripper.pose[:2])
    assert c1.offset != (0.0, 0.0, 0.0)


def test_reward_success_is_one(cat):
    task = cat.task("open-drawer")
    w, _, _ = instantiate("open-drawer", "nominal", 2)
    art = w.find("drawer").articulation
    art.coordinate = art.hi
    assert is_success(task, w)
    assert reward(task, w) == 1.0


def test_reward_initial_press_button_zero(cat):
    task = cat.task("press-button")
    w, _, _ = instantiate("press-button", "nominal", 2)
    assert reward(task, w) == 0.0
    assert not is_success(task, w)


def test_reward_drawer_halfway(cat):
    task = cat.task("open-drawer")
    w, _, _ = instantiate("open-drawer", "nominal", 2)
    art = w.find("drawer").articulation
    art.coordinate = (art.lo + art.hi) / 2.0
    assert reward(task, w) == pytest.approx(0.5, abs=0.05)


def test_open_drawer_success_at_ten_centimeters(cat):
    task = cat.task("open-drawer")
    w, _, _ = instantiate("open-drawer", "nominal", 2)
    w.find("drawer").articulation.coordinate = 0.10
    assert is_success(task, w)
    w.find("drawer").articulation.coordinate = 0.08
    assert not is_success(task, w)


def test_pick_place_requires_release(cat):
    task = cat.task("pick-place")
    w, _, _ = instantiate("pick-place", "nominal", 2)
    cyl = w.find("yellow cylinder")
    slot = w.find("round slot")
    cyl.pose[:2] = slot.pose[:2]
    cyl.pose[2] = entity_top(slot)
    assert is_success(task, w)
    # hovering over the slot while held does not count
    w.gripper.holding = cyl.id
    w.gripper.aperture = 0.0
    cyl.pose[2] = 0.08
    assert not is_success(task, w)


def test_rewards_bounded(cat):
    rng = np.random.default_rng(0)
    for tid in cat.training_ids():
        task = cat.task(tid)
        w, _, _ = instantiate(tid, "nominal", 3)
        for _ in range(20):
            w.gripper.pose[:3] = rng.uniform(0.05, 0.3, 3)
            r = reward(task, w)
            assert 0.0 <= r <= 1.0
            assert is_success(task, w) == (r == 1.0)
