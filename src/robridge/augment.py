"""Domain randomization operators for policy-stage training.

Depth channels get warp -> blur -> holes; mask channels get morphological
and positional jitter. Every operator is a pure function of (input,
parameters, seed), and zero magnitude is a bit-exact identity. Scene-level
randomization for the expert stage (object shape, arm placement, camera)
lives in tasks.ExpertRandomization, not here.

The blur and the smoothing of the warp field are one separable
correlation (``_separable``) with reflect borders, summed in the order
scipy.ndimage.correlate1d sums a symmetric kernel: the centre pixel times
the centre weight, then (left + right) times their weight, pair by pair
from the farthest in. So they give the bits of scipy's convolve1d and
gaussian_filter without importing scipy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hcp import _square
from .observation import ObsTensor, _components
from .util import rng_for, rng_streams

HOLE_RADIUS = 3  # px
# depth images warped in one pass: 12 keep each (n, h, w) float64
# temporary under 100 KB
_DEPTH_CHUNK = 12
# (row, col) offsets of the pixels one hole covers around its centre
_DISC = np.array([(di, dj) for di in range(-HOLE_RADIUS, HOLE_RADIUS + 1)
                  for dj in range(-HOLE_RADIUS, HOLE_RADIUS + 1)
                  if di * di + dj * dj <= HOLE_RADIUS ** 2])


def _reflect(n: int, r: int) -> np.ndarray:
    """Source index of each position -r .. n + r - 1 of a line of n pixels
    under the reflect border (d c b a | a b c d | d c b a), which repeats
    with period 2n, so r may exceed n."""
    i = np.arange(-r, n + r) % (2 * n)
    return np.minimum(i, 2 * n - 1 - i)


def _separable(imgs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Correlate float64 images (..., h, w) with symmetric weights
    (..., 2r + 1), down the columns and then along the rows, with reflect
    borders. The weights' leading axes broadcast against the images', so
    each image can have its own kernel. Each pixel is summed as
    correlate1d sums it: centre times w[r], then for j = r .. 1,
    += (left_j + right_j) * w[r - j]."""
    r = weights.shape[-1] // 2
    out = imgs
    for axis in (-2, -1):
        n = out.shape[axis]
        ext = out.take(_reflect(n, r), axis=axis)
        tail = (slice(None),) * (-1 - axis)

        def tap(j):
            return ext[(..., slice(r + j, r + j + n), *tail)]

        out = tap(0) * weights[..., r, None, None]
        for j in range(r, 0, -1):
            out += (tap(-j) + tap(j)) * weights[..., r - j, None, None]
    return out


# the warp field's smoothing: gaussian_filter's kernel at sigma 2,
# truncated at 2 sigma (radius 4), computed as scipy computes it
_WARP_KERNEL = np.exp(-0.5 / (2.0 * 2.0) * np.arange(-4, 5) ** 2)
_WARP_KERNEL = _WARP_KERNEL / _WARP_KERNEL.sum()
_WARP_KERNEL.flags.writeable = False


@lru_cache(maxsize=4)
def _pixel_grid(shape: tuple[int, int]):
    """Row and column index grids of an image shape; shared, so read-only."""
    rr, cc = np.meshgrid(np.arange(shape[0]), np.arange(shape[1]), indexing="ij")
    rr.flags.writeable = False
    cc.flags.writeable = False
    return rr, cc


@dataclass
class AugmentConfig:
    warp_mag: float = 2.0              # px
    blur_sigma: float = 1.5            # px, upper bound of the drawn sigma
    hole_rate: float = 0.10
    dilate_radius: int = 2             # px
    shift_max: int = 3                 # px
    crop_margin: int = 2               # px
    segment_add_delete_p: float = 0.10
    # read only by apply_suite: training keys each row's corruption from
    # the run seed, epoch and row index instead
    seed: int = 0

    def validate(self) -> None:
        for name in ("dilate_radius", "shift_max", "crop_margin", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("warp_mag", "blur_sigma", "hole_rate", "dilate_radius",
                     "shift_max", "crop_margin", "segment_add_delete_p"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("hole_rate", "segment_add_delete_p"):
            if getattr(self, name) > 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


def training_augment(seed: int = 1234) -> AugmentConfig:
    """Policy-stage corruption magnitudes used by the training experiments.

    Milder than the AugmentConfig class defaults: retuned so replayed
    experts still succeed on corrupted inputs at this scale (depth noise
    stays well under the 1 cm grasp tolerance).
    """
    return AugmentConfig(warp_mag=0.5, blur_sigma=1.0, hole_rate=0.05,
                         dilate_radius=1, shift_max=2, crop_margin=1,
                         segment_add_delete_p=0.08, seed=seed)


def _bilinear(img: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sample each image of img (n, h, w) at its own (rows, cols), each
    (n, h, w) float64 and overwritten here."""
    n, h, w = img.shape
    np.clip(rows, 0.0, h - 1.0, out=rows)
    np.clip(cols, 0.0, w - 1.0, out=cols)
    r0 = np.floor(rows)
    c0 = np.floor(cols)
    fr = np.subtract(rows, r0, out=rows)
    fc = np.subtract(cols, c0, out=cols)
    gr = 1 - fr
    gc = 1 - fc
    # one replicated row and column past the edge stand in for the clamp of
    # r0 + 1 and c0 + 1 to the last pixel
    padded = np.empty((n, h + 1, w + 1))
    padded[:, :h, :w] = img
    padded[:, h, :w] = img[:, h - 1]
    padded[:, :, w] = padded[:, :, w - 1]
    flat = padded.reshape(-1)
    i00 = r0.astype(np.int64)
    i00 *= w + 1
    i00 += c0.astype(np.int64)
    i00 += (np.arange(n) * ((h + 1) * (w + 1)))[:, None, None]
    # same products and sums, in the same order, as
    # img[r0,c0]*(1-fr)*(1-fc) + img[r1,c0]*fr*(1-fc) + img[r0,c1]*(1-fr)*fc + img[r1,c1]*fr*fc
    out = flat.take(i00)
    out *= gr
    out *= gc
    for step, a, b in ((w + 1, fr, gc), (1, gr, fc), (w + 2, fr, fc)):
        v = flat.take(i00 + step)
        v *= a
        v *= b
        out += v
    return out


def _warp_block(depth: np.ndarray, disp: np.ndarray, mag: float) -> np.ndarray:
    """Resample each image of depth (n, h, w) float64 through its field in
    disp (n, 2, h, w): raw normals, which it smooths and scales to std mag."""
    n, h, w = depth.shape
    disp = _separable(disp, _WARP_KERNEL)
    std = disp.reshape(n, -1).std(axis=1)
    disp *= np.divide(mag, std, out=np.ones_like(std), where=std > 0)[:, None, None, None]
    rr, cc = _pixel_grid((h, w))
    return _bilinear(depth, rr + disp[:, 0], cc + disp[:, 1])


def _blur_block(depth: np.ndarray, sigmas: np.ndarray) -> None:
    """Blur each image of depth (n, h, w) float64 in place with a Gaussian
    of its own sigma, truncated at radius max(1, ceil(3 sigma)) and
    normalized to sum 1; a sigma of 0 leaves its image alone. Images that
    share a radius are blurred in one pass."""
    radius = np.maximum(1, np.ceil(3.0 * sigmas)).astype(np.int64)
    radius[sigmas == 0.0] = 0
    for r in np.unique(radius[radius > 0]).tolist():
        idx = np.flatnonzero(radius == r)
        t = np.arange(-r, r + 1, dtype=np.float64)
        k = np.exp(-0.5 * (t / sigmas[idx, None]) ** 2)
        k /= k.sum(axis=1, keepdims=True)
        depth[idx] = _separable(depth[idx], k)


@lru_cache(maxsize=16)
def expected_hole_count(shape: tuple[int, int], rate: float) -> int:
    """Disc count giving expected covered fraction ~= rate under overlap."""
    h, w = shape
    a = len(_DISC) / (h * w)
    if rate >= 1.0:
        return 0
    n = math.log(1.0 - rate) / math.log(1.0 - a)
    return max(1, round(n)) if rate > 0 else 0


def _hole_mask(centers: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Pixels within HOLE_RADIUS of any of each image's centers (n, k, 2),
    as a bool (n, h, w)."""
    n = len(centers)
    h, w = shape
    rows = centers[:, :, 0, None] + _DISC[:, 0]
    cols = centers[:, :, 1, None] + _DISC[:, 1]
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    flat = rows * w + cols + (np.arange(n) * (h * w))[:, None, None]
    hit = np.zeros(n * h * w, dtype=bool)
    hit[flat[inside]] = True
    return hit.reshape(n, h, w)


def _shift_zero_fill(masks: np.ndarray, dr: np.ndarray, dc: np.ndarray) -> np.ndarray:
    """Translate each mask (n, h, w) by its own (dr, dc), filling with zeros."""
    n, h, w = masks.shape
    # a shift of h rows or more empties the mask, as a shift of exactly h does
    ph = min(int(np.abs(dr).max(initial=0)), h)
    pw = min(int(np.abs(dc).max(initial=0)), w)
    padded = np.zeros((n, h + 2 * ph, w + 2 * pw), dtype=masks.dtype)
    padded[:, ph:ph + h, pw:pw + w] = masks
    windows = np.lib.stride_tricks.sliding_window_view(padded, (h, w), axis=(1, 2))
    return windows[np.arange(n), ph - np.clip(dr, -ph, ph), pw - np.clip(dc, -pw, pw)]


def _crop_borders(masks: np.ndarray, widths: np.ndarray) -> None:
    """Clear the top, bottom, left and right widths (n, 4) of each mask in
    place, as the slices m[:t], m[h - b:], m[:, :l], m[:, w - rt:] would."""
    n, h, w = masks.shape

    def tail_start(size, k):   # start of the slice [size - k:], 'size' when k == 0
        start = size - k
        return np.where(start < 0, np.maximum(start + size, 0), start)[:, None]

    rows, cols = np.arange(h), np.arange(w)
    keep_r = (rows >= widths[:, 0, None]) & (rows < tail_start(h, widths[:, 1]))
    keep_c = (cols >= widths[:, 2, None]) & (cols < tail_start(w, widths[:, 3]))
    masks &= keep_r[:, :, None] & keep_c[:, None, :]


def add_blob(mask: np.ndarray, seed: int) -> np.ndarray:
    rng = rng_for(seed, "add-blob")
    h, w = mask.shape
    ci, cj = int(rng.integers(0, h)), int(rng.integers(0, w))
    r = int(rng.integers(2, 5))
    rr, cc = _pixel_grid((h, w))
    out = mask.copy()
    out[(rr - ci) ** 2 + (cc - cj) ** 2 <= r * r] = True
    return out


def delete_component(mask: np.ndarray, seed: int) -> np.ndarray:
    """Clear one 4-connected component of the mask, drawn from the seed."""
    found = _components(mask)
    if found.n == 0:
        return mask.copy()
    rng = rng_for(seed, "delete-component")
    victim = int(rng.integers(1, found.n + 1))
    out = mask.copy()
    out[found.labels == victim] = False
    return out


def _draw_jitter(rng: np.random.Generator, cfg: AugmentConfig, params: np.ndarray):
    """Draw one mask's jitter parameters from its "mask-jitter" stream into
    params, a row of (radius, dr, dc, top, bottom, left, right); return the
    rare blob edit as (operator, seed), or None."""
    if cfg.dilate_radius:
        params[0] = rng.integers(0, cfg.dilate_radius + 1)
    if cfg.shift_max:
        params[1] = rng.integers(-cfg.shift_max, cfg.shift_max + 1)
        params[2] = rng.integers(-cfg.shift_max, cfg.shift_max + 1)
    if cfg.crop_margin:
        params[3:] = rng.integers(0, cfg.crop_margin + 1, size=4)
    if cfg.segment_add_delete_p and rng.random() < cfg.segment_add_delete_p:
        sub = int(rng.integers(1 << 30))
        return (add_blob if rng.random() < 0.5 else delete_component), sub
    return None


def _jitter_block(masks: np.ndarray, params: np.ndarray, edits) -> np.ndarray:
    """Jitter masks (n, h, w) bool, which it may overwrite, with each
    mask's drawn params (n, 7) and edit: dilate -> translate -> border
    crop -> occasional blob add/delete."""
    for r in np.unique(params[:, 0]).tolist():
        if r:
            grow = params[:, 0] == r
            masks[grow] = _square(masks[grow], r, np.logical_or)
    if params[:, 1:3].any():
        masks = _shift_zero_fill(masks, params[:, 1], params[:, 2])
    if params[:, 3:].any():
        _crop_borders(masks, params[:, 3:])
    for k, edit in enumerate(edits):
        if edit is not None:
            op, sub = edit
            masks[k] = op(masks[k], sub)
    return masks


def augment_grids(grids: np.ndarray, seeds, cfg: AugmentConfig) -> np.ndarray:
    """Corrupt a block of (B, 7, h, w) grids: row i comes out exactly as
    apply_suite corrupts it under cfg with seed seeds[i].

    Each row draws its own random streams, keyed on its seed, per channel
    and per corruption ("mask-jitter", "depth-warp", "sigma", "holes"),
    and the image work runs over many images at once: all 3B masks, the
    depth warp _DEPTH_CHUNK images at a time, which bounds its temporaries,
    and the blur over all live depth images, grouped by kernel radius,
    since each image draws its own sigma. The streams are seeded a stage
    at a time over the whole block (util.rng_streams), and each stage's
    draws come in image order.

    A depth image whose every bit is zero comes out of warp, blur, holes
    and clip as it went in, so it gets neither work nor streams; each
    stream has its own sub-seed, so skipping one moves no other draw.
    Blank means bits, not values: a -0.0 pixel can leave the clip as -0.0.
    """
    cfg.validate()
    out = np.array(grids, copy=True)
    b, _, h, w = out.shape
    if len(seeds) != b:
        raise ValueError(f"{len(seeds)} seeds for {b} grids")
    # sub[k][3*i + c]: the jitter (k=0), warp, sigma or holes (k=3) seed of
    # row i's channel c; each row draws its 12 in that order
    sub = np.array([rng.integers(1 << 62, size=12)
                    for rng in rng_streams((int(s), "suite") for s in seeds)],
                   dtype=np.int64).reshape(b, 4, 3).transpose(1, 0, 2).reshape(4, 3 * b)
    jitter = np.zeros((3 * b, 7), dtype=np.int64)
    edits = [_draw_jitter(rng, cfg, jitter[k]) for k, rng in enumerate(
        rng_streams((s, "mask-jitter") for s in sub[0].tolist()))]
    depth_in = out[:, 3:6].reshape(3 * b, h * w)
    live = np.flatnonzero(((depth_in != 0) | np.signbit(depth_in)).any(axis=1))
    warp_seeds, sigma_seeds, hole_seeds = sub[1:, live].tolist()
    sigmas = np.array([rng.uniform(0.0, cfg.blur_sigma)
                       for rng in rng_streams((s, "sigma") for s in sigma_seeds)])
    holes = 0.0 < cfg.hole_rate < 1.0
    if holes:
        n_holes = expected_hole_count((h, w), cfg.hole_rate)
        # shaped even when no depth image is live
        centers = np.array([rng.integers(0, (h, w), size=(n_holes, 2))
                            for rng in rng_streams((s, "holes") for s in hole_seeds)],
                           dtype=np.int64).reshape(len(live), n_holes, 2)
    # the warp normals are drawn pass by pass below
    warp = rng_streams((s, "depth-warp") for s in warp_seeds)

    masks = _jitter_block((out[:, :3] >= 0.5).reshape(3 * b, h, w), jitter, edits)
    out[:, :3] = masks.reshape(b, 3, h, w)
    rows, chans = np.divmod(live, 3)
    chans += 3
    depth = out[rows, chans].astype(np.float64)
    if cfg.warp_mag:
        for lo in range(0, len(live), _DEPTH_CHUNK):
            chunk = depth[lo:lo + _DEPTH_CHUNK]
            disp = np.empty((len(chunk), 2, h, w))
            for k in range(len(chunk)):
                next(warp).standard_normal(out=disp[k])
            chunk[:] = _warp_block(chunk, disp, cfg.warp_mag)
    _blur_block(depth, sigmas)
    if holes:
        depth[_hole_mask(centers, (h, w))] = 0
    elif cfg.hole_rate >= 1.0:
        depth[:] = 0
    out[rows, chans] = np.clip(depth, 0.0, None).astype(np.float32)
    return out


def apply_suite(tensor: ObsTensor, cfg: AugmentConfig) -> ObsTensor:
    """Corrupt one observation tensor. Mask channels 0-2 get jitter,
    depth channels 3-5 get warp -> blur -> holes; the gripper heatmap and
    the vector block pass through untouched."""
    grid = augment_grids(tensor.grid[None], [cfg.seed], cfg)[0]
    return ObsTensor(grid=grid, vec=tensor.vec.copy())
