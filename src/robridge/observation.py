"""The symbolic observation bridge between planner and policy.

For one primitive action it bundles: the action type one-hot, third-view
binary masks (gripper / object / destination), first-view masked depth
crops, and a constraint block (end-effector pose, optional motion
direction, gripper open flag). Everything is geometry-derived, so the
bundle is invariant to background, lighting, and color changes by
construction.

A lightweight geometric tracker follows the channels every tick on the
identity-erased foreground: each channel re-associates to the connected
component whose centroid is nearest its previous centroid. Components are
labelled on the bounding box of the foreground only, which keeps the raster
order and so the label numbers and centroids of a full-image labelling.
``track_update`` does the association alone (centroids and lost flags,
which the status check reads); ``tracked_observation`` turns a tick's
association into its masks and depth crops, for whoever reads the tensor.

``to_tensor`` downsamples each channel group in one pass over its stack: a
block majority over the three masks and a block mean over the three depth
crops, summed in the order numpy's ``mean`` sums, so the tensor bits are
those of per-channel ``mean`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .hcp import PRIMITIVE_TYPES, Grounding, PrimitiveAction
from .world import FIRST_SCALE, GRASP_APERTURE, GRIPPER_ID, Frame

GRID = 32
GRID_CHANNELS = 7          # Mg, Mo, Md, Dg, Do, Dd, gripper heatmap
VEC_DIM = 17               # 9 one-hot + 4 pose + 3 direction + 1 open flag
TRACK_RADIUS = 8.0         # px, centroid association gate
HEATMAP_SIGMA = 1.5        # grid cells
WORKSPACE_XY = 0.64        # normalization extents (matches packaged scenes)
WORKSPACE_Z = 0.32

TENSOR_BYTES = (GRID_CHANNELS * GRID * GRID + VEC_DIM) * 4

CHANNEL_NAMES = ("gripper", "object", "destination")


class BuildError(ValueError):
    """Observation cannot be assembled (e.g. empty object mask)."""


@dataclass
class Observation:
    action_onehot: np.ndarray          # (9,) float
    masks3: np.ndarray                 # (3, H, W) bool
    depths1: np.ndarray                # (3, h, w) float64, zero off-mask
    ee_pose: np.ndarray                # (4,)
    direction: np.ndarray | None       # unit 3-vector or None
    gripper_open: bool
    has_destination: bool


@dataclass(frozen=True)
class ChannelTrack:
    centroid: np.ndarray | None        # (row, col) or None
    lost: bool = False
    component: int = 0                 # label of the matched component; 0 for none


# the gripper channel is read from the robot's own body, never associated
_GRIPPER_TRACK = ChannelTrack(None)


@dataclass
class TrackerState:
    tracks3: list[ChannelTrack]
    tracks1: list[ChannelTrack]
    prev_gripper_xy: np.ndarray
    has_destination: bool
    # the component labelling of the last update's frame; None after init
    labels3: np.ndarray | None = None
    labels1: np.ndarray | None = None

    def lost_channels(self) -> list[str]:
        # the gripper channel is proprioceptive and never counts as lost
        out = []
        for name, t3, t1 in zip(CHANNEL_NAMES, self.tracks3, self.tracks1):
            if name == "gripper":
                continue
            if name == "destination" and not self.has_destination:
                continue
            if t3.lost or t1.lost:
                out.append(name)
        return out


@dataclass
class ObsTensor:
    grid: np.ndarray                   # (7, 32, 32) float32
    vec: np.ndarray                    # (17,) float32

    def to_bytes(self) -> bytes:
        g = np.ascontiguousarray(self.grid, dtype="<f4")
        v = np.ascontiguousarray(self.vec, dtype="<f4")
        return g.tobytes() + v.tobytes()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ObsTensor":
        if len(raw) != TENSOR_BYTES:
            raise ValueError(f"expected {TENSOR_BYTES} bytes, got {len(raw)}")
        n = GRID_CHANNELS * GRID * GRID
        flat = np.frombuffer(raw, dtype="<f4")
        return cls(grid=flat[:n].reshape(GRID_CHANNELS, GRID, GRID).copy(),
                   vec=flat[n:].copy())


def _pixel_indices(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat, row and column indices of a 2-D mask's set pixels, in raster order.

    Same values as np.nonzero(mask), which is far slower on 2-D arrays.
    """
    flat = np.flatnonzero(mask)
    rows, cols = np.divmod(flat, mask.shape[1])
    return flat, rows, cols


def _centroid(mask: np.ndarray) -> np.ndarray | None:
    _, rows, cols = _pixel_indices(mask)
    n = rows.size
    if n == 0:
        return None
    # integer sums are exact (far below 2**53), so these equal rows.mean()
    return np.array([rows.sum() / n, cols.sum() / n])


def type_index(t: str) -> int:
    return PRIMITIVE_TYPES.index(t)


def build(action: PrimitiveAction, frame: Frame, grounding: Grounding,
          direction: np.ndarray | None = None) -> Observation:
    """Assemble the observation for one primitive from a grounded frame."""
    onehot = np.zeros(len(PRIMITIVE_TYPES))
    onehot[type_index(action.type)] = 1.0

    h3, w3 = frame.instance3.shape
    masks3 = np.zeros((3, h3, w3), dtype=bool)
    masks3[0] = frame.instance3 == GRIPPER_ID
    masks3[1] = grounding.obj_mask3
    has_des = grounding.des_id is not None
    if has_des:
        masks3[2] = grounding.des_mask3
    if not masks3[1].any():
        raise BuildError(f"empty object mask for {action.obj!r}")

    h1, w1 = frame.instance1.shape
    depths1 = np.zeros((3, h1, w1), dtype=np.float64)
    depths1[0] = frame.depth1 * (frame.instance1 == GRIPPER_ID)
    depths1[1] = frame.depth1 * (frame.instance1 == grounding.obj_id)
    if has_des:
        depths1[2] = frame.depth1 * (frame.instance1 == grounding.des_id)

    return Observation(
        action_onehot=onehot, masks3=masks3, depths1=depths1,
        ee_pose=frame.gripper.pose.copy(), direction=direction,
        gripper_open=frame.gripper.aperture >= GRASP_APERTURE,
        has_destination=has_des,
    )


def init_tracker(obs: Observation, frame: Frame) -> TrackerState:
    tracks3, tracks1 = [_GRIPPER_TRACK], [_GRIPPER_TRACK]
    for c in (1, 2):
        tracks3.append(ChannelTrack(_centroid(obs.masks3[c])))
        tracks1.append(ChannelTrack(_centroid(obs.depths1[c] > 0.0)))
    return TrackerState(tracks3, tracks1, frame.gripper.pose[:2].copy(),
                        obs.has_destination)


def _associate(track: ChannelTrack, n: int, centroids: np.ndarray,
               shift: np.ndarray) -> ChannelTrack:
    """Match a channel to the nearest foreground component within the gate."""
    if track.centroid is None:
        return ChannelTrack(None, lost=True)
    if n == 0:
        return ChannelTrack(track.centroid, lost=True)
    expected = track.centroid + shift
    d = np.hypot(centroids[:, 0] - expected[0], centroids[:, 1] - expected[1])
    best = int(np.argmin(d))
    if d[best] > TRACK_RADIUS:
        return ChannelTrack(track.centroid, lost=True)
    return ChannelTrack(centroids[best].copy(), component=best + 1)


# 4-connectivity, ndimage.label's default, built once instead of per call
_CONNECTIVITY = ndimage.generate_binary_structure(2, 1)


def _components(foreground: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """Labels (4-connected, numbered as ndimage.label numbers them), count
    and (row, col) centroids of the foreground's connected components."""
    flat, rows, cols = _pixel_indices(foreground)
    labels = np.zeros(foreground.shape, dtype=np.int32)
    if flat.size == 0:
        return labels, 0, np.zeros((0, 2))
    # label only the foreground's bounding box: the crop keeps the raster
    # order of the foreground pixels, so every label number is unchanged
    r0, r1 = rows[0], rows[-1] + 1
    c0, c1 = cols.min(), cols.max() + 1
    box = labels[r0:r1, c0:c1]
    n = ndimage.label(foreground[r0:r1, c0:c1], structure=_CONNECTIVITY, output=box)
    # one pass over the foreground pixels; the per-label sums are sums of
    # integer coordinates, exact in float64, so summation order is irrelevant
    lab = labels.ravel()[flat]
    counts = np.bincount(lab, minlength=n + 1)[1:]
    row_sums = np.bincount(lab, weights=rows, minlength=n + 1)[1:]
    col_sums = np.bincount(lab, weights=cols, minlength=n + 1)[1:]
    return labels, n, np.stack([row_sums / counts, col_sums / counts], axis=1)


def track_update(tracker: TrackerState, frame: Frame) -> TrackerState:
    """High-frequency refresh of the association.

    Object and destination channels re-associate to the nearest foreground
    component and keep its label; a channel with no component within the
    gate is lost. Only centroids, lost flags and the labelling are made
    here: the masks are left to ``tracked_observation``.
    """
    labels3, n3, cents3 = _components(frame.instance3 != 0)
    zero_shift = np.zeros(2)
    # first-view crop recenters on the gripper; compensate the expected
    # centroid by the crop movement (world x -> columns, world y -> rows)
    delta = (frame.gripper.pose[:2] - tracker.prev_gripper_xy) / FIRST_SCALE
    shift1 = np.array([-delta[1], -delta[0]])
    labels1, n1, cents1 = _components(frame.instance1 != 0)

    tracks3, tracks1 = [_GRIPPER_TRACK], [_GRIPPER_TRACK]
    for c, name in enumerate(CHANNEL_NAMES[1:], start=1):
        if name == "destination" and not tracker.has_destination:
            # tracks are never written after construction: reuse them
            tracks3.append(tracker.tracks3[c])
            tracks1.append(tracker.tracks1[c])
        else:
            tracks3.append(_associate(tracker.tracks3[c], n3, cents3, zero_shift))
            tracks1.append(_associate(tracker.tracks1[c], n1, cents1, shift1))
    return TrackerState(tracks3, tracks1, frame.gripper.pose[:2].copy(),
                        tracker.has_destination, labels3, labels1)


def _component_mask(labels: np.ndarray, track: ChannelTrack) -> np.ndarray:
    """A track's mask in its frame's labelling: its component, or empty when lost."""
    if track.component:
        return labels == track.component
    return np.zeros(labels.shape, dtype=bool)


def tracked_observation(tracker: TrackerState, obs: Observation, frame: Frame) -> Observation:
    """The observation of ``frame``, the frame ``tracker`` was last updated
    on, for the primitive whose build is ``obs``.

    Each associated channel's mask is its component in the frame's
    labelling, and a lost channel's is empty. The gripper channel refreshes
    from the robot's own body (proprioception plus calibration, not scene
    appearance). A destination-less channel is carried over from ``obs``.
    The constraint block follows the live gripper state.
    """
    masks3 = np.empty_like(obs.masks3)
    depths1 = np.empty_like(obs.depths1)
    masks3[0] = frame.instance3 == GRIPPER_ID
    np.multiply(frame.depth1, frame.instance1 == GRIPPER_ID, out=depths1[0])
    for c in (1, 2):
        if c == 2 and not tracker.has_destination:
            masks3[c] = obs.masks3[c]
            depths1[c] = obs.depths1[c]
            continue
        masks3[c] = _component_mask(tracker.labels3, tracker.tracks3[c])
        np.multiply(frame.depth1, _component_mask(tracker.labels1, tracker.tracks1[c]),
                    out=depths1[c])
    return Observation(
        action_onehot=obs.action_onehot.copy(), masks3=masks3, depths1=depths1,
        ee_pose=frame.gripper.pose.copy(),
        direction=None if obs.direction is None else obs.direction.copy(),
        gripper_open=frame.gripper.aperture >= GRASP_APERTURE,
        has_destination=obs.has_destination,
    )


def _block_mean(imgs: np.ndarray, out_size: int) -> np.ndarray:
    """Block means of a stack of float64 images (..., h, w), bit for bit
    imgs.reshape(..., out_size, fh, out_size, fw).mean(axis=(-3, -1)).

    numpy's mean starts each block from +0.0, adds each block row summed
    left to right, top to bottom, and divides by the block area; this does
    the same. (That is its order while a block row holds fewer than 8
    pixels; from 8 on its pairwise summation unrolls.)
    """
    *lead, h, w = imgs.shape
    fh, fw = h // out_size, w // out_size
    blocks = imgs.reshape(*lead, out_size, fh, out_size, fw)
    total = np.zeros((*lead, out_size, out_size))
    for i in range(fh):
        row = blocks[..., i, :, 0]
        for j in range(1, fw):
            row = row + blocks[..., i, :, j]
        total += row
    total /= fh * fw
    return total


def _block_majority(masks: np.ndarray, out_size: int) -> np.ndarray:
    """Blocks at least half set, for a stack of masks (..., h, w):
    _block_mean(masks) >= 0.5, counted in integers.

    A block's mean is its integer count divided by its area, rounded once,
    so it reaches 0.5 exactly when the count reaches half the area.
    """
    *lead, h, w = masks.shape
    fh, fw = h // out_size, w // out_size
    # summing whole row bands, then column bands, beats one reduce over
    # the two strided block axes; counts accumulate in the narrowest
    # unsigned type that holds the block area
    bands = masks.reshape(*lead, out_size, fh, w).view(np.uint8)
    rows = bands[..., 0, :].astype(np.min_scalar_type(fh * fw))
    for k in range(1, fh):
        rows += bands[..., k, :]
    cols = rows.reshape(*lead, out_size, out_size, fw)
    counts = cols[..., 0].copy()
    for k in range(1, fw):
        counts += cols[..., k]
    return counts >= (fh * fw + 1) // 2


# heatmap cell centres, in grid cells; shared, so read-only
_CELL_CENTRES = np.arange(GRID) + 0.5
_CELL_CENTRES.flags.writeable = False


def to_tensor(obs: Observation, frame: Frame) -> ObsTensor:
    """Fixed-layout float32 tensor: 7 x 32 x 32 grid plus a 17-vector.

    Masks are area-downsampled then thresholded at 0.5; depths are
    area-downsampled and normalized by the workspace height; the extra
    channel is a Gaussian bump at the gripper's third-view position.
    """
    grid = np.zeros((GRID_CHANNELS, GRID, GRID), dtype=np.float32)
    grid[:3] = _block_majority(obs.masks3, GRID)
    d = _block_mean(obs.depths1, GRID)
    d /= WORKSPACE_Z
    grid[3:6] = np.clip(d, 0.0, 1.0, out=d)

    cg = _centroid(obs.masks3[0])
    if cg is not None:
        scale = obs.masks3.shape[1] / GRID
        cr, cc = cg[0] / scale, cg[1] / scale
        dr = (_CELL_CENTRES - cr) ** 2
        dc = (_CELL_CENTRES - cc) ** 2
        grid[6] = np.exp(-(dr[:, None] + dc) / (2.0 * HEATMAP_SIGMA ** 2))

    vec = np.zeros(VEC_DIM, dtype=np.float32)
    vec[:9] = obs.action_onehot
    x, y, z, yaw = obs.ee_pose
    vec[9] = 2.0 * x / WORKSPACE_XY - 1.0
    vec[10] = 2.0 * y / WORKSPACE_XY - 1.0
    vec[11] = 2.0 * z / WORKSPACE_Z - 1.0
    vec[12] = np.clip(yaw / np.pi, -1.0, 1.0)
    if obs.direction is not None:
        vec[13:16] = obs.direction
    vec[16] = 1.0 if obs.gripper_open else 0.0
    return ObsTensor(grid=grid, vec=np.clip(vec, -1.0, 1.0))
