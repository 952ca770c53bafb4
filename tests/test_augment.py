import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import blur_one
from robridge.augment import (
    AugmentConfig,
    _hole_mask,
    add_blob,
    augment_grids,
    delete_component,
    expected_hole_count,
    apply_suite,
)
from robridge.hcp import _square
from robridge.observation import GRID, GRID_CHANNELS, VEC_DIM, ObsTensor
from robridge.util import rng_streams


def rand_depth(seed, shape=(64, 64)):
    return np.abs(np.random.default_rng(seed).normal(0.1, 0.05, shape))


def rand_tensor(seed):
    rng = np.random.default_rng(seed)
    grid = np.zeros((GRID_CHANNELS, GRID, GRID), dtype=np.float32)
    for c in range(3):
        grid[c] = (rng.random((GRID, GRID)) < 0.15).astype(np.float32)
    grid[3:6] = rng.random((3, GRID, GRID)).astype(np.float32) * 0.4
    grid[6] = rng.random((GRID, GRID)).astype(np.float32)
    vec = rng.uniform(-1, 1, VEC_DIM).astype(np.float32)
    return ObsTensor(grid=grid, vec=vec)


def only(**on):
    """An AugmentConfig with every corruption off except those in on."""
    zero = dict(warp_mag=0, blur_sigma=0, hole_rate=0, dilate_radius=0, shift_max=0,
                crop_margin=0, segment_add_delete_p=0)
    return AugmentConfig(**{**zero, **on})


DEPTH, MASKS = slice(3, 6), slice(0, 3)


def one_row(channels, image):
    """A one-row (1, 7, h, w) grid with image in each of the given channels."""
    grid = np.zeros((1, GRID_CHANNELS, *image.shape), dtype=np.float32)
    grid[0, channels] = image
    return grid


def warped(depth, mag, seed):
    """Depth channels after the warp alone, the image in every channel."""
    return augment_grids(one_row(DEPTH, depth), [seed], only(warp_mag=mag))[0, DEPTH]


def jittered(mask, seed, cfg):
    """Mask channels after the jitter alone, the mask in every channel."""
    return augment_grids(one_row(MASKS, mask), [seed], cfg)[0, MASKS]


def test_depth_warp_zero_identity():
    grid = one_row(DEPTH, rand_depth(0))
    assert np.array_equal(augment_grids(grid, [1], only(warp_mag=0.0)), grid)


def test_depth_warp_constant_image_unchanged():
    d = np.full((48, 48), 0.21)
    out = warped(d, 2.0, seed=5)
    assert np.allclose(out, np.float32(0.21), atol=1e-7)


def test_depth_warp_deterministic():
    d = rand_depth(2)
    a = warped(d, 2.0, seed=9)
    b = warped(d, 2.0, seed=9)
    assert np.array_equal(a, b)
    c = warped(d, 2.0, seed=10)
    assert not np.array_equal(a, c)


def test_gaussian_blur_zero_identity():
    d = rand_depth(3)
    assert np.array_equal(blur_one(d, 0.0), d)


def test_gaussian_blur_uniform_stays_uniform():
    d = np.full((32, 32), 0.7)
    assert np.allclose(blur_one(d, 1.5), 0.7, atol=1e-9)


def test_gaussian_blur_delta_is_kernel():
    d = np.zeros((33, 33))
    d[16, 16] = 1.0
    sigma = 1.0
    out = blur_one(d, sigma)
    r = int(np.ceil(3 * sigma))
    t = np.arange(-r, r + 1, dtype=np.float64)
    k = np.exp(-0.5 * (t / sigma) ** 2)
    k /= k.sum()
    expected = np.outer(k, k)
    assert np.allclose(out[16 - r:16 + r + 1, 16 - r:16 + r + 1], expected, atol=1e-12)


def test_gaussian_blur_preserves_mass():
    d = rand_depth(4)
    d /= d.sum()
    for sigma in (0.5, 1.0, 1.5):
        out = blur_one(d, sigma)
        assert abs(out.sum() - 1.0) < 1e-6


def test_random_holes_identity_and_total():
    # holes alone (every other magnitude zero): rate 0 keeps the depth
    # channels, rate 1 zeroes them
    grid = np.zeros((1, GRID_CHANNELS, GRID, GRID), dtype=np.float32)
    grid[0, 3:6] = np.stack([rand_depth(5 + c, (GRID, GRID)) for c in range(3)])
    for rate, expected in ((0.0, grid[0, 3:6]), (1.0, np.zeros((3, GRID, GRID)))):
        cfg = AugmentConfig(warp_mag=0, blur_sigma=0, hole_rate=rate, dilate_radius=0,
                            shift_max=0, crop_margin=0, segment_add_delete_p=0)
        out = augment_grids(grid, [3], cfg)
        assert np.array_equal(out[0, 3:6], expected)


def test_random_holes_coverage_monte_carlo():
    n = expected_hole_count((64, 64), 0.2)
    fractions = [_hole_mask(rng.integers(0, (64, 64), size=(1, n, 2)), (64, 64))[0].mean()
                 for rng in rng_streams((seed, "holes") for seed in range(1000))]
    mean = float(np.mean(fractions))
    assert abs(mean - 0.2) <= 0.05, f"mean covered fraction {mean:.4f}"


def test_mask_jitter_zero_config_identity():
    mask = np.random.default_rng(1).random((32, 32)) < 0.2
    grid = one_row(MASKS, mask)
    assert np.array_equal(augment_grids(grid, [7], only()), grid)


def test_mask_jitter_stays_binary():
    mask = np.random.default_rng(2).random((32, 32)) < 0.2
    d = AugmentConfig()
    cfg = only(dilate_radius=d.dilate_radius, shift_max=d.shift_max,
               crop_margin=d.crop_margin, segment_add_delete_p=d.segment_add_delete_p)
    for seed in range(20):
        out = jittered(mask, seed, cfg)
        assert np.isin(out, (0.0, 1.0)).all()


def test_dilate_morphology_arithmetic():
    mask = np.zeros((16, 16), dtype=bool)
    mask[6:8, 6:8] = True
    out = _square(mask, 1, np.logical_or)
    assert out.sum() == 16
    assert out[5:9, 5:9].all()


def test_delete_component_forced():
    mask = np.zeros((16, 16), dtype=bool)
    mask[4:7, 4:7] = True
    assert not delete_component(mask, seed=0).any()


def test_add_blob_adds_pixels():
    mask = np.zeros((32, 32), dtype=bool)
    out = add_blob(mask, seed=1)
    assert out.sum() > 0


def test_apply_suite_zero_identity_bit_exact():
    t = rand_tensor(0)
    cfg = AugmentConfig(warp_mag=0.0, blur_sigma=0.0, hole_rate=0.0, dilate_radius=0,
                        shift_max=0, crop_margin=0, segment_add_delete_p=0.0, seed=3)
    out = apply_suite(t, cfg)
    assert out.grid.tobytes() == t.grid.tobytes()
    assert out.vec.tobytes() == t.vec.tobytes()


def test_apply_suite_deterministic():
    t = rand_tensor(1)
    cfg = AugmentConfig(seed=11)
    a = apply_suite(t, cfg)
    b = apply_suite(t, cfg)
    assert a.grid.tobytes() == b.grid.tobytes()


def test_apply_suite_holes_reduce_depth_support():
    t = rand_tensor(3)
    t.grid[3:6] += 0.2   # make depth support dense
    cfg = AugmentConfig(warp_mag=0.0, blur_sigma=0.0, hole_rate=0.3, dilate_radius=0,
                        shift_max=0, crop_margin=0, segment_add_delete_p=0.0, seed=5)
    out = apply_suite(t, cfg)
    for c in range(3, 6):
        assert (out.grid[c] > 0).sum() < (t.grid[c] > 0).sum()


def test_apply_suite_leaves_vec_and_heatmap():
    t = rand_tensor(4)
    out = apply_suite(t, AugmentConfig(seed=2))
    assert np.array_equal(out.vec, t.vec)
    assert np.array_equal(out.grid[6], t.grid[6])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), mag=st.floats(0.5, 3.0))
def test_depth_warp_type_preservation(seed, mag):
    d = rand_depth(seed % 100, (32, 32))
    out = warped(d, mag, seed)
    assert (out >= 0).all()
    assert out.shape == (3, *d.shape)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_mask_ops_type_preservation(seed):
    mask = np.random.default_rng(seed % 1000).random((32, 32)) < 0.25
    out = jittered(mask, seed, AugmentConfig())
    assert np.isin(out, (0.0, 1.0)).all()
    assert out.shape == (3, *mask.shape)
