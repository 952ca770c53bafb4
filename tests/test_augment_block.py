"""The batched augmentation core against a one-image reference.

The reference below is the per-operator composition the suite is defined
by: mask_jitter -> depth_warp -> gaussian_blur -> random_holes, one tensor
at a time, written with the plain single-image formulas (2-D fancy-index
bilinear sampling, scipy's gaussian_filter, convolve1d, binary_dilation
and label, slice shifts and crops, a broadcast disc test). augment_grids
must reproduce it byte for byte. scipy is the tests' oracle here: the
program itself runs on numpy alone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from conftest import blur_one
from robridge.augment import (
    HOLE_RADIUS,
    AugmentConfig,
    _WARP_KERNEL,
    _pixel_grid,
    _separable,
    add_blob,
    apply_suite,
    augment_grids,
    delete_component,
    expected_hole_count,
)
from robridge.observation import GRID, GRID_CHANNELS, VEC_DIM, ObsTensor
from robridge.util import rng_for


def ref_bilinear(img, rows, cols):
    h, w = img.shape
    rows = np.clip(rows, 0.0, h - 1.0)
    cols = np.clip(cols, 0.0, w - 1.0)
    r0 = np.floor(rows).astype(np.int64)
    c0 = np.floor(cols).astype(np.int64)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = rows - r0
    fc = cols - c0
    return (img[r0, c0] * (1 - fr) * (1 - fc) + img[r1, c0] * fr * (1 - fc)
            + img[r0, c1] * (1 - fr) * fc + img[r1, c1] * fr * fc)


def ref_depth_warp(depth, mag, seed):
    if mag == 0.0:
        return depth.copy()
    h, w = depth.shape
    disp = rng_for(seed, "depth-warp").standard_normal((2, h, w))
    disp = ndimage.gaussian_filter(disp, sigma=(0.0, 2.0, 2.0), mode="reflect", truncate=2.0)
    std = disp.std()
    if std > 0:
        disp *= mag / std
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    return ref_bilinear(depth.astype(np.float64), rr + disp[0], cc + disp[1])


def ref_gaussian_blur(img, sigma):
    if sigma == 0.0:
        return img.copy()
    r = max(1, int(math.ceil(3.0 * sigma)))
    t = np.arange(-r, r + 1, dtype=np.float64)
    k = np.exp(-0.5 * (t / sigma) ** 2)
    k /= k.sum()
    out = ndimage.convolve1d(img, k, axis=0, mode="reflect")
    return ndimage.convolve1d(out, k, axis=1, mode="reflect")


def ref_delete_component(mask, seed):
    labels, n = ndimage.label(mask)
    if n == 0:
        return mask.copy()
    victim = int(rng_for(seed, "delete-component").integers(1, n + 1))
    out = mask.copy()
    out[labels == victim] = False
    return out


def ref_random_holes(img, rate, seed):
    if rate == 0.0:
        return img.copy()
    if rate >= 1.0:
        return np.zeros_like(img)
    h, w = img.shape
    n = expected_hole_count((h, w), rate)
    centers = rng_for(seed, "holes").integers(0, (h, w), size=(n, 2))
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    hit = (((rr[None] - centers[:, 0, None, None]) ** 2
            + (cc[None] - centers[:, 1, None, None]) ** 2) <= HOLE_RADIUS ** 2).any(axis=0)
    out = img.copy()
    out[hit] = 0
    return out


def ref_mask_jitter(mask, cfg, seed):
    m = mask.astype(bool)
    rng = rng_for(seed, "mask-jitter")
    r = int(rng.integers(0, cfg.dilate_radius + 1)) if cfg.dilate_radius else 0
    if r > 0:
        m = ndimage.binary_dilation(m, structure=np.ones((2 * r + 1, 2 * r + 1), dtype=bool))
    if cfg.shift_max:
        dr = int(rng.integers(-cfg.shift_max, cfg.shift_max + 1))
        dc = int(rng.integers(-cfg.shift_max, cfg.shift_max + 1))
        out = np.zeros_like(m)
        h, w = m.shape
        r0, r1 = max(0, dr), min(h, h + dr)
        c0, c1 = max(0, dc), min(w, w + dc)
        out[r0:r1, c0:c1] = m[r0 - dr:r1 - dr, c0 - dc:c1 - dc]
        m = out
    if cfg.crop_margin:
        t, b, l, rt = (int(v) for v in rng.integers(0, cfg.crop_margin + 1, size=4))
        if t:
            m[:t, :] = False
        if b:
            m[m.shape[0] - b:, :] = False
        if l:
            m[:, :l] = False
        if rt:
            m[:, m.shape[1] - rt:] = False
    if cfg.segment_add_delete_p and rng.random() < cfg.segment_add_delete_p:
        sub = int(rng.integers(1 << 30))
        m = add_blob(m, sub) if rng.random() < 0.5 else ref_delete_component(m, sub)
    return m


def ref_suite(grid, cfg, seed):
    grid = grid.copy()
    seeds = [int(s) for s in rng_for(seed, "suite").integers(1 << 62, size=12)]
    for c in range(3):
        grid[c] = ref_mask_jitter(grid[c] >= 0.5, cfg, seeds[c]).astype(np.float32)
    for c in range(3):
        d = grid[3 + c].astype(np.float64)
        d = ref_depth_warp(d, cfg.warp_mag, seeds[3 + c])
        d = ref_gaussian_blur(d, float(rng_for(seeds[6 + c], "sigma").uniform(0.0, cfg.blur_sigma)))
        d = ref_random_holes(d, cfg.hole_rate, seeds[9 + c])
        grid[3 + c] = np.clip(d, 0.0, None).astype(np.float32)
    return grid


def rand_grids(seed, b, shape=(GRID, GRID), blank=0.3):
    """Random grids in which a share `blank` of the depth images is zero:
    half of those all +0.0 (augment_grids skips them), the other half
    with scattered -0.0 pixels (which it must still corrupt)."""
    rng = np.random.default_rng(seed)
    grids = np.zeros((b, GRID_CHANNELS, *shape), dtype=np.float32)
    grids[:, :3] = rng.random((b, 3, *shape)) < rng.uniform(0.02, 0.4)
    grids[:, 3:6] = rng.random((b, 3, *shape)) * 0.4
    grids[:, 6] = rng.random((b, *shape))
    zero = rng.random((b, 3)) < blank
    grids[:, 3:6][zero] = 0.0
    signed = zero & (rng.random((b, 3)) < 0.5)
    grids[:, 3:6][signed] = np.where(rng.random((signed.sum(), *shape)) < 0.5, -0.0, 0.0)
    return grids


ZERO = dict(warp_mag=0.0, blur_sigma=0.0, hole_rate=0.0, dilate_radius=0, shift_max=0,
            crop_margin=0, segment_add_delete_p=0.0)
NAMED_CONFIGS = [
    AugmentConfig(),
    AugmentConfig(**ZERO),
    AugmentConfig(blur_sigma=0.0),
    AugmentConfig(hole_rate=0.0),
    AugmentConfig(hole_rate=1.0),
    AugmentConfig(dilate_radius=0),
    AugmentConfig(segment_add_delete_p=1.0),
]
configs = st.one_of(
    st.sampled_from(NAMED_CONFIGS),
    st.builds(AugmentConfig,
              warp_mag=st.sampled_from([0.0, 0.5, 2.0]),
              blur_sigma=st.sampled_from([0.0, 0.4, 1.5]),
              hole_rate=st.sampled_from([0.0, 0.1, 0.35, 1.0]),
              dilate_radius=st.integers(0, 3),
              shift_max=st.sampled_from([0, 1, 3, 6]),
              # margins past the image edge exercise the slice arithmetic
              crop_margin=st.sampled_from([0, 2, 20, 70]),
              segment_add_delete_p=st.sampled_from([0.0, 0.1, 1.0])))


@settings(max_examples=60, deadline=None)
@given(cfg=configs, b=st.integers(1, 9), grid_seed=st.integers(0, 10_000),
       seeds=st.lists(st.integers(0, (1 << 62) - 1), min_size=9, max_size=9),
       shape=st.sampled_from([(GRID, GRID), (GRID, GRID), (17, 24), (9, 7)]),
       blank=st.sampled_from([0.0, 0.3, 0.87, 1.0]))
def test_augment_grids_matches_one_image_reference(cfg, b, grid_seed, seeds, shape, blank):
    grids = rand_grids(grid_seed, b, shape, blank)
    before = grids.copy()
    out = augment_grids(grids, seeds[:b], cfg)
    assert out.dtype == grids.dtype and out.shape == grids.shape
    assert grids.tobytes() == before.tobytes()
    for i in range(b):
        assert out[i].tobytes() == ref_suite(grids[i], cfg, seeds[i]).tobytes(), i


@pytest.mark.parametrize("cfg", NAMED_CONFIGS)
def test_named_configs_match_reference(cfg):
    # every named edge case runs at least once, at a size that splits the
    # depth work into uneven passes, on blank (+0.0), signed-zero (-0.0)
    # and live depth images
    grids = rand_grids(7, 7)
    depth = grids[:, 3:6].reshape(21, -1)
    negative = np.signbit(depth).any(axis=1)
    assert 0 < negative.sum() < (depth == 0).all(axis=1).sum() < 21
    seeds = list(range(100, 107))
    out = augment_grids(grids, seeds, cfg)
    for i in range(7):
        assert out[i].tobytes() == ref_suite(grids[i], cfg, seeds[i]).tobytes(), i


@pytest.mark.parametrize("cfg", NAMED_CONFIGS)
def test_block_without_live_depth_images(cfg):
    # every depth image blank (+0.0): masks are still jittered, depth
    # passes through untouched
    grids = rand_grids(5, 4, blank=1.0)
    grids[:, 3:6] = 0.0
    out = augment_grids(grids, [1, 2, 3, 4], cfg)
    assert out[:, 3:].tobytes() == grids[:, 3:].tobytes()
    for i in range(4):
        assert out[i].tobytes() == ref_suite(grids[i], cfg, i + 1).tobytes(), i


def filter_images():
    """Random float64 images of 1 to 12 pixels a side, some scaled to
    extremes, with -0.0 pixels mixed in."""
    return st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1),
                     st.sampled_from([1.0, 1e-300, 1e300]), st.floats(0.0, 0.8)).map(
        lambda a: _signed_zeros(np.random.default_rng(a[2]), (a[0], a[1]), a[3], a[4]))


def _signed_zeros(rng, shape, scale, zeros):
    img = rng.standard_normal(shape) * scale
    img[rng.random(shape) < zeros] = -0.0
    img[rng.random(shape) < zeros / 2] = 0.0
    return img


@settings(max_examples=150, deadline=None)
@given(img=filter_images(), sigma=st.floats(0.01, 6.0))
def test_gaussian_blur_matches_convolve1d(img, sigma):
    # radii up to 18 on images of 1 to 12 pixels: the reflect border
    # repeats the image several times over
    assert blur_one(img, sigma).tobytes() == ref_gaussian_blur(img, sigma).tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), img=filter_images(), seed=st.integers(0, 2**32 - 1))
def test_warp_smoothing_matches_gaussian_filter(n, img, seed):
    h, w = img.shape
    rng = np.random.default_rng(seed)
    disp = _signed_zeros(rng, (n, 2, h, w), 1.0, 0.3)
    disp[0, 0] = img
    ref = ndimage.gaussian_filter(disp, sigma=(0.0, 0.0, 2.0, 2.0), mode="reflect", truncate=2.0)
    assert _separable(disp, _WARP_KERNEL).tobytes() == ref.tobytes()


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 3), (32, 32)])
def test_filters_on_tiny_images_match_scipy(shape):
    rng = np.random.default_rng(1)
    img = _signed_zeros(rng, shape, 1.0, 0.3)
    for sigma in (0.2, 1.0, 2.5, 7.0):
        assert blur_one(img, sigma).tobytes() == ref_gaussian_blur(img, sigma).tobytes()
    disp = _signed_zeros(rng, (3, 2, *shape), 1.0, 0.3)
    ref = ndimage.gaussian_filter(disp, sigma=(0.0, 0.0, 2.0, 2.0), mode="reflect", truncate=2.0)
    assert _separable(disp, _WARP_KERNEL).tobytes() == ref.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), density=st.floats(0.0, 1.0),
       shape=st.tuples(st.integers(1, 20), st.integers(1, 20)), edit=st.integers(0, 2**30))
def test_delete_component_matches_label(seed, density, shape, edit):
    mask = np.random.default_rng(seed).random(shape) < density
    assert np.array_equal(delete_component(mask, edit), ref_delete_component(mask, edit))


def test_apply_suite_is_one_row_of_the_block():
    grids = rand_grids(3, 5)
    cfg = AugmentConfig(segment_add_delete_p=0.5)
    seeds = [11, 12, 13, 14, 15]
    out = augment_grids(grids, seeds, cfg)
    vec = np.zeros(VEC_DIM, dtype=np.float32)
    for i, s in enumerate(seeds):
        t = apply_suite(ObsTensor(grid=grids[i], vec=vec), AugmentConfig(
            segment_add_delete_p=0.5, seed=s))
        assert t.grid.tobytes() == out[i].tobytes()


def test_augment_grids_rejects_bad_input():
    grids = rand_grids(0, 2)
    with pytest.raises(ValueError, match="seeds"):
        augment_grids(grids, [1], AugmentConfig())
    with pytest.raises(ValueError, match="hole_rate"):
        augment_grids(grids, [1, 2], AugmentConfig(hole_rate=1.5))


def test_pixel_grid_is_shared_and_read_only():
    rr, cc = _pixel_grid((GRID, GRID))
    assert _pixel_grid((GRID, GRID))[0] is rr
    for a in (rr, cc):
        with pytest.raises(ValueError):
            a[0, 0] = 5
    assert rr[0, 0] == 0 and cc[0, 0] == 0


def test_expected_hole_count_formula():
    disc = sum(1 for i in range(-HOLE_RADIUS, HOLE_RADIUS + 1)
               for j in range(-HOLE_RADIUS, HOLE_RADIUS + 1)
               if i * i + j * j <= HOLE_RADIUS ** 2)
    for rate in (0.05, 0.1, 0.3, 0.9):
        n = math.log(1.0 - rate) / math.log(1.0 - disc / (GRID * GRID))
        assert expected_hole_count((GRID, GRID), rate) == max(1, round(n))
    assert expected_hole_count((GRID, GRID), 0.0) == 0
    assert expected_hole_count((GRID, GRID), 1.0) == 0
