from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

import robridge.loop as looplib
import robridge.observation as obslib
from conftest import gripper_to
from robridge import hcp
from robridge.experts import pack_steps
from robridge.hcp import GroundingNoise, PrimitiveAction, StatusNoise
from robridge.loop import ExpertAsPolicy, FaultConfig, LoopConfig, run_episode
from robridge.observation import (
    GRID,
    GRID_CHANNELS,
    VEC_DIM,
    BuildError,
    _block_majority,
    _block_mean,
    _centroid,
    _components,
    build,
    init_tracker,
    to_tensor,
    track_update,
    tracked_observation,
)
from robridge.render import render
from robridge.tasks import load_catalog
from robridge.world import GRIPPER_ID, first_camera, step, third_camera


def grounded_obs(world, frame, action, noise=None):
    g = hcp.ground(action, frame, world, noise)
    return build(action, frame, g, hcp.direction_constraint(action, world))


def test_build_no_destination_channels_zero(world, frame):
    obs = grounded_obs(world, frame, PrimitiveAction("grasp", "cube"))
    assert obs.action_onehot[hcp.PRIMITIVE_TYPES.index("grasp")] == 1.0
    assert obs.action_onehot.sum() == 1.0
    assert not obs.masks3[2].any()
    assert not obs.depths1[2].any()
    assert not obs.has_destination


def test_build_empty_object_mask_fails(world, frame):
    # fully cover the cylinder with the gripper so its pixels vanish
    cyl = world.find("cylinder")
    w = gripper_to(world, cyl.pose[0], cyl.pose[1], 0.30)
    w.entities = [e for e in w.entities]
    # widen the gripper footprint effect by putting it directly overhead;
    # cylinder r=0.022 > gripper half-width, so shrink the cylinder instead
    cyl2 = w.find("cylinder")
    cyl2.dims = (0.008, cyl2.dims[1])
    f = render(w, third_camera(), first_camera())
    with pytest.raises(BuildError):
        grounded_obs(w, f, PrimitiveAction("grasp", "cylinder"))


def test_build_place_all_channels_nonempty(world, cams):
    # cylinder held above the slot: gripper, object ring, and slot ring all visible
    w = world.copy()
    cyl = w.find("cylinder")
    slot = w.find("slot")
    w.gripper.pose[:3] = (slot.pose[0], slot.pose[1], 0.10)
    w.gripper.aperture = 0.0
    w.gripper.holding = cyl.id
    w.held_offset = np.array([0.0, 0.0, -0.037, 0.0])
    cyl.pose[:] = w.gripper.pose + w.held_offset
    f = render(w, *cams)
    obs = grounded_obs(w, f, PrimitiveAction("place", "cylinder", "slot"))
    for c in range(3):
        assert obs.masks3[c].any(), f"mask channel {c} empty"
        assert obs.depths1[c].any(), f"depth channel {c} empty"


def test_masked_depth_zero_off_mask(world, frame):
    obs = grounded_obs(world, frame, PrimitiveAction("grasp", "cube"))
    on = frame.instance1 == world.find("cube").id
    assert np.array_equal(obs.depths1[1] > 0, on)


def test_tracker_static_scene_identity(world, frame):
    w2 = step(world, np.zeros(4))
    f2 = render(w2, third_camera(), first_camera())
    for action in (PrimitiveAction("grasp", "cube"), PrimitiveAction("push", "cube", "slot")):
        obs = grounded_obs(world, frame, action)
        tr2 = track_update(init_tracker(obs, frame), f2)
        obs2 = tracked_observation(tr2, obs, f2)
        # only the channels the primitive has are tracked; an untracked
        # destination stays as build left it, bit for bit
        assert len(tr2.tracks) == (2 if action.des else 1)
        assert not any(t3.lost for t3, _ in tr2.tracks)
        assert obs2.masks3.tobytes() == obs.masks3.tobytes()
        assert obs2.depths1.tobytes() == obs.depths1.tobytes()


def test_tracker_follows_small_motion(world, cams):
    obs = grounded_obs(world, render(world, *cams), PrimitiveAction("grasp", "cube"))
    tr = init_tracker(obs, render(world, *cams))
    w2 = world.copy()
    w2.find("cube").pose[0] += 0.015   # 3 px at 5 mm/px
    f2 = render(w2, *cams)
    tr2 = track_update(tr, f2)
    obs2 = tracked_observation(tr2, obs, f2)
    c_old = np.array(np.nonzero(obs.masks3[1])).mean(axis=1)
    c_new = np.array(np.nonzero(obs2.masks3[1])).mean(axis=1)
    assert abs((c_new - c_old)[1] - 3.0) <= 1.0
    assert abs((c_new - c_old)[0]) <= 1.0


def test_tracker_losing_and_recovering_object(world, cams):
    frame = render(world, *cams)
    obs = grounded_obs(world, frame, PrimitiveAction("grasp", "cube"))
    tr = init_tracker(obs, frame)
    w2 = world.copy()
    w2.find("cube").pose[0] += 0.08    # 16 px: outside the 8 px gate
    f2 = render(w2, *cams)
    tr2 = track_update(tr, f2)
    obs2 = tracked_observation(tr2, obs, f2)
    assert tr2.tracks[0][0].lost
    assert not obs2.masks3[1].any()
    assert "object" in tr2.lost_channels()


def test_tracker_iou_against_ground_truth(world, cams):
    frame = render(world, *cams)
    obs = grounded_obs(world, frame, PrimitiveAction("grasp", "cube"))
    tr = init_tracker(obs, frame)
    w = world
    rng = np.random.default_rng(3)
    for _ in range(20):
        w2 = w.copy()
        w2.find("cube").pose[:2] += rng.uniform(-0.008, 0.008, 2)
        f = render(w2, *cams)
        tr = track_update(tr, f)
        tracked = tracked_observation(tr, obs, f)
        truth = f.instance3 == w2.find("cube").id
        inter = (tracked.masks3[1] & truth).sum()
        union = (tracked.masks3[1] | truth).sum()
        assert inter / union >= 0.9
        w = w2


def test_to_tensor_shapes_and_ranges(world, frame):
    obs = grounded_obs(world, frame, PrimitiveAction("push", "cube", "slot"))
    t = to_tensor(obs)
    assert t.grid.shape == (GRID_CHANNELS, GRID, GRID)
    assert t.vec.shape == (VEC_DIM,)
    for c in range(3):
        assert set(np.unique(t.grid[c])).issubset({0.0, 1.0})
    assert (t.grid[3:6] >= 0).all() and (t.grid[3:6] <= 1).all()
    assert (t.vec >= -1).all() and (t.vec <= 1).all()
    assert np.linalg.norm(t.vec[13:16]) == pytest.approx(1.0, abs=1e-6)


def test_to_tensor_zero_and_full_channels(world, frame):
    obs = grounded_obs(world, frame, PrimitiveAction("grasp", "cube"))
    assert to_tensor(obs).grid[2].sum() == 0.0
    obs.masks3[1][:] = True
    t = to_tensor(obs)
    assert (t.grid[1] == 1.0).all()


def test_to_tensor_downsample_arithmetic(world, frame):
    obs = grounded_obs(world, frame, PrimitiveAction("grasp", "cube"))
    obs.masks3[1][:] = False
    obs.masks3[1][40:48, 60:68] = True   # aligned 8x8 blob
    t = to_tensor(obs)
    assert t.grid[1].sum() == 4.0
    assert (t.grid[1][10:12, 15:17] == 1.0).all()


def test_tensor_serialization_roundtrip(world, frame):
    obs = grounded_obs(world, frame, PrimitiveAction("grasp", "cube"))
    t = to_tensor(obs)
    # a trajectory record holds the tensor's bytes right after its size field
    steps = pack_steps([SimpleNamespace(tensor=t, action=np.zeros(4), reward=0.0)])
    raw = t.to_bytes()
    assert steps.tobytes()[4:4 + len(raw)] == raw
    assert np.array_equal(steps["grid"][0], t.grid)
    assert np.array_equal(steps["vec"][0], t.vec)


def test_gripper_channel_refreshes_from_proprioception(world, cams):
    frame = render(world, *cams)
    obs = grounded_obs(world, frame, PrimitiveAction("grasp", "cube"))
    tr = init_tracker(obs, frame)
    w = world
    for _ in range(8):
        w = step(w, np.array([0.8, 0.4, -0.2, 0.0]))
        f = render(w, *cams)
        tr = track_update(tr, f)
        tracked = tracked_observation(tr, obs, f)
        assert np.array_equal(tracked.masks3[0], f.instance3 == GRIPPER_ID)


def assert_same_labelling(kept, fresh):
    assert kept.n == fresh.n
    assert np.array_equal(kept.foreground, fresh.foreground)
    assert np.array_equal(kept.labels, fresh.labels)
    assert kept.centroids.tobytes() == fresh.centroids.tobytes()


@settings(max_examples=12, deadline=None)
@given(task=st.sampled_from(sorted(load_catalog().tasks)), seed=st.integers(0, 60),
       period=st.integers(1, 30),
       fault=st.sampled_from([None, FaultConfig(), FaultConfig(hold_ticks=4, max_fires=3)]),
       status_rate=st.sampled_from([0.0, 0.2]), flip_p=st.sampled_from([0.0, 0.5]),
       noise_seed=st.integers(0, 9))
def test_memoized_labelling_matches_fresh_components_every_tick(
        task, seed, period, fault, status_rate, flip_p, noise_seed):
    # every tick of a closed-loop episode: the update that may reuse the
    # kept labellings must equal one made from fresh _components calls
    updates = []

    def checked(tracker, frame):
        kept = obslib.track_update(tracker, frame)
        fresh = obslib.track_update(replace(tracker, view3=None, view1=None), frame)
        assert_same_labelling(kept.view3, fresh.view3)
        assert_same_labelling(kept.view1, fresh.view1)
        assert len(kept.tracks) == len(fresh.tracks)
        for pair, ref in zip(kept.tracks, fresh.tracks):
            for t, r in zip(pair, ref):
                assert (t.lost, t.component) == (r.lost, r.component)
                assert (t.centroid is None) == (r.centroid is None)
                if t.centroid is not None:
                    assert t.centroid.tobytes() == r.centroid.tobytes()
        assert kept.lost_channels() == fresh.lost_channels()
        updates.append(frame.tick)
        return kept

    cfg = LoopConfig(status_period=period, max_ticks=150, fault=fault,
                     status_noise=StatusNoise(rate=status_rate, seed=noise_seed),
                     grounding_noise=GroundingNoise(flip_p=flip_p, seed=noise_seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(looplib, "track_update", checked)
        res = run_episode(task, ExpertAsPolicy(), cfg, seed=seed)
    # every tick was checked: observe() runs before each step
    assert len(updates) >= res.ticks


def test_kept_labelling_arrays_are_read_only(world, cams):
    frame = render(world, *cams)
    obs = grounded_obs(world, frame, PrimitiveAction("grasp", "cube"))
    tr = track_update(init_tracker(obs, frame), frame)
    for view in (tr.view3, tr.view1):
        for a in (view.foreground, view.labels, view.centroids):
            with pytest.raises(ValueError):
                a[0] = a[0]


def test_vertical_expert_episode_reuses_labellings(monkeypatch):
    # press-button is mostly vertical motion: without the kept labellings
    # every tick would label both views afresh
    calls = []
    real = obslib._components

    def counting(foreground):
        calls.append(1)
        return real(foreground)

    monkeypatch.setattr(obslib, "_components", counting)
    res = run_episode("press-button", ExpertAsPolicy(), LoopConfig(), seed=0)
    assert res.success
    assert len(calls) < 2 * res.ticks


def foreground_images():
    return st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1),
                     st.floats(0.0, 1.0)).map(
        lambda a: np.random.default_rng(a[2]).random((a[0], a[1])) < a[3])


def assert_components_match_full_image_label(fg):
    found = _components(fg)
    labels, n, cents = found.labels, found.n, found.centroids
    ref_labels, ref_n = ndimage.label(fg)
    assert n == ref_n
    assert labels.dtype == np.int32
    assert np.array_equal(labels, ref_labels)
    if n == 0:
        assert cents.shape == (0, 2)
        return
    idx = np.arange(1, n + 1)
    rows = ndimage.sum_labels(np.broadcast_to(np.arange(fg.shape[0])[:, None], fg.shape),
                              ref_labels, idx)
    cols = ndimage.sum_labels(np.broadcast_to(np.arange(fg.shape[1])[None, :], fg.shape),
                              ref_labels, idx)
    counts = ndimage.sum_labels(np.ones_like(ref_labels), ref_labels, idx)
    ref = np.stack([rows / counts, cols / counts], axis=1)
    assert cents.tobytes() == ref.tobytes()


@settings(max_examples=60, deadline=None)
@given(fg=foreground_images())
def test_components_match_sum_labels_reference(fg):
    assert_components_match_full_image_label(fg)


def sparse_canvases():
    """A 128x128 canvas, empty but for up to four random blobs at random
    offsets, so the foreground's bounding box is a strict crop."""
    blob = st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(0, 127),
                     st.integers(0, 127), st.floats(0.2, 1.0))

    def paint(args):
        seed, blobs = args
        rng = np.random.default_rng(seed)
        fg = np.zeros((128, 128), dtype=bool)
        for h, w, r, c, density in blobs:
            patch = fg[r:r + h, c:c + w]
            patch |= rng.random(patch.shape) < density
        return fg

    return st.tuples(st.integers(0, 2**32 - 1), st.lists(blob, max_size=4)).map(paint)


@settings(max_examples=80, deadline=None)
@given(fg=sparse_canvases())
def test_components_on_sparse_canvas_match_full_image_label(fg):
    assert_components_match_full_image_label(fg)


def u_shape(h, w):
    fg = np.zeros((h, w), dtype=bool)
    fg[:, 0] = fg[:, -1] = fg[-1] = True
    return fg


def comb(teeth, h):
    # teeth hang from a spine on the bottom row: every tooth's run tree
    # only joins the others at the spine, which touches them all
    fg = np.zeros((h, 2 * teeth - 1), dtype=bool)
    fg[:, ::2] = True
    fg[-1] = True
    return fg


def inverted_comb(teeth, h):
    fg = comb(teeth, h)[::-1].copy()
    fg[-1, 1::2] = True   # a second spine: the first row of merges feeds the next
    return fg


def spiral(n):
    # a square spiral wall, one pixel wide with one-pixel gaps: a single
    # component whose runs merge over and over as it winds inwards
    fg = np.zeros((n, n), dtype=bool)
    r0, c0, r1, c1 = 0, 0, n - 1, n - 1
    while r0 <= r1 and c0 <= c1:
        fg[r0, c0:c1 + 1] = True
        fg[r0:r1 + 1, c1] = True
        fg[r1, c0:c1 + 1] = True
        fg[r0 + 2:r1 + 1, c0] = True
        r0, c0, r1, c1 = r0 + 2, c0 + 2, r1 - 2, c1 - 2
        if r0 <= r1:
            fg[r0 - 1, c0 - 2] = False
            fg[r0, c0 - 1] = True
    return fg


# one component whose third tree (first run at row 1) meets the second
# tree at row 4 and the first at row 9: its root is hooked to two smaller
# roots, so the merge takes a second round
TWO_BRIDGES = np.array([[c == "#" for c in row] for row in """\
#.#........
#.#...#####
#.#...#####
#.#...#####
#.#####...#
#.........#
#.........#
#.........#
#.........#
###########""".splitlines()])


# a 127-link chain of runs, the deepest pointer jumping a 128-row image
# needs, with a second component whose first run comes between the chain's
# root and its middle: a run left short of its root would take its label
COLUMN_BESIDE_A_DOT = np.zeros((128, 3), dtype=bool)
COLUMN_BESIDE_A_DOT[:, 0] = True
COLUMN_BESIDE_A_DOT[1, 2] = True


@pytest.mark.parametrize("fg", [
    u_shape(5, 4), u_shape(40, 3), u_shape(1, 1), u_shape(2, 2),
    comb(6, 5), comb(20, 1), inverted_comb(7, 4), spiral(9), spiral(31), spiral(64),
    TWO_BRIDGES, TWO_BRIDGES[::-1].copy(), TWO_BRIDGES[:, ::-1].copy(),
    np.ones((128, 1), dtype=bool), COLUMN_BESIDE_A_DOT,
    np.eye(128, dtype=bool),                # 128 one-pixel components, none touching
    np.ones((1, 40), dtype=bool), np.ones((40, 1), dtype=bool),
    np.arange(40)[None, :] % 3 == 0, np.arange(40)[:, None] % 3 == 0,
    np.zeros((0, 5), dtype=bool), np.zeros((5, 0), dtype=bool),
    np.zeros((0, 0), dtype=bool), np.zeros((7, 9), dtype=bool), np.ones((7, 9), dtype=bool),
], ids=lambda fg: f"{fg.shape[0]}x{fg.shape[1]}-{int(fg.sum())}")
def test_components_of_named_shapes_match_label(fg):
    assert_components_match_full_image_label(fg)


def test_named_shapes_exercise_the_merge_step():
    # the spiral and the combs are one component each, but only after roots merge
    for fg in (spiral(31), comb(6, 5), inverted_comb(7, 4), TWO_BRIDGES, u_shape(5, 4)):
        assert _components(fg).n == 1


def test_label_map_is_painted_once_on_read():
    fg = spiral(9)
    found = _components(fg)
    assert "labels" not in vars(found)
    first = found.labels
    assert found.labels is first and not first.flags.writeable
    assert fg.flags.writeable           # the caller's mask is left as it was


@settings(max_examples=60, deadline=None)
@given(fg=foreground_images())
def test_centroid_matches_nonzero_mean(fg):
    idx = np.nonzero(fg)
    c = _centroid(fg)
    if idx[0].size == 0:
        assert c is None
    else:
        assert c.tobytes() == np.array([idx[0].mean(), idx[1].mean()]).tobytes()


def numpy_block_mean(imgs, out_size):
    *lead, h, w = imgs.shape
    return imgs.reshape(*lead, out_size, h // out_size, out_size,
                        w // out_size).mean(axis=(-3, -1))


@settings(max_examples=60, deadline=None)
@given(block=st.tuples(st.integers(1, 5), st.integers(1, 5)), seed=st.integers(0, 2**32 - 1),
       density=st.floats(0.0, 1.0))
def test_block_majority_matches_thresholded_mean(block, seed, density):
    fh, fw = block
    mask = np.random.default_rng(seed).random((8 * fh, 8 * fw)) < density
    ref = numpy_block_mean(mask.astype(np.float64), 8) >= 0.5
    assert np.array_equal(_block_majority(mask, 8), ref)


@settings(max_examples=60, deadline=None)
@given(block=st.tuples(st.integers(1, 17), st.integers(1, 17)), depth=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1), density=st.floats(0.0, 1.0))
def test_stacked_block_majority_matches_each_channel(block, depth, seed, density):
    # block areas above 255 count in a wider type than uint8
    fh, fw = block
    masks = np.random.default_rng(seed).random((depth, 4 * fh, 4 * fw)) < density
    stacked = _block_majority(masks, 4)
    assert stacked.shape == (depth, 4, 4)
    for c in range(depth):
        assert np.array_equal(stacked[c], _block_majority(masks[c], 4))
        assert np.array_equal(stacked[c], numpy_block_mean(masks[c].astype(np.float64), 4) >= 0.5)


@settings(max_examples=100, deadline=None)
@given(block=st.tuples(st.integers(1, 4), st.integers(1, 4)), depth=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 1.0), spread=st.integers(0, 150))
def test_stacked_block_mean_matches_numpy_mean(block, depth, seed, zeros, spread):
    # signed values over up to 300 decades, with +0.0 and -0.0 mixed in
    fh, fw = block
    rng = np.random.default_rng(seed)
    shape = (depth, 6 * fh, 6 * fw)
    imgs = rng.standard_normal(shape) * 10.0 ** rng.integers(-spread, spread + 1, shape)
    imgs[rng.random(shape) < zeros] = 0.0
    imgs[rng.random(shape) < zeros / 2] = -0.0
    assert _block_mean(imgs, 6).tobytes() == numpy_block_mean(imgs, 6).tobytes()
