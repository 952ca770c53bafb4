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
found from the foreground's row runs (run-based labelling, He, Chao &
Suzuki, IEEE TIP 2008): each run links to the first run it touches in the
row above, pointer jumping takes every run to its topmost ancestor, and
the roots are merged only where a run touches two or more runs above.
Components are numbered by their first pixel in raster order, as
``scipy.ndimage.label`` numbers them, and their centroids come from exact
integer run sums. The label map is painted from the runs on first read,
since only tensor builds read it. Each view's labelling is kept with the
foreground it was made from, and a tick whose foreground equals the kept
one reuses it: a vertical move, a grasp or a press changes depth and
paint order but not the top-down foreground. The association itself runs
every tick.
``track_update`` does the association alone (centroids and lost flags,
which the status check reads). ``build`` (from a grounding) and
``tracked_observation`` (from a tick's association, for whoever reads the
tensor) hand their channel masks to ``_observation``, which assembles both.

``to_tensor`` downsamples each channel group in one pass over its stack: a
block majority over the three masks and a block mean over the three depth
crops, summed in the order numpy's ``mean`` sums, so the tensor bits are
those of per-channel ``mean`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hcp import PRIMITIVE_TYPES, Grounding, PrimitiveAction
from .util import clip_unit
from .world import FIRST_SCALE, GRASP_APERTURE, GRIPPER_ID, Frame

GRID = 32
GRID_CHANNELS = 7          # Mg, Mo, Md, Dg, Do, Dd, gripper heatmap
VEC_DIM = 17               # 9 one-hot + 4 pose + 3 direction + 1 open flag
TRACK_RADIUS = 8.0         # px, centroid association gate
HEATMAP_SIGMA = 1.5        # grid cells
WORKSPACE_XY = 0.64        # normalization extents (matches packaged scenes)
WORKSPACE_Z = 0.32


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


@dataclass(frozen=True)
class Labelling:
    """A view's foreground and its 4-connected components, as ``_components``
    returns them. Kept across ticks and shared, so the arrays are read-only."""
    foreground: np.ndarray             # (h, w) bool
    n: int
    centroids: np.ndarray              # (n, 2) (row, col)
    run_labels: np.ndarray             # (k,) int32, label of each row run in raster order
    run_lengths: np.ndarray            # (k,) int64, pixels in each run

    @cached_property
    def labels(self) -> np.ndarray:
        """(h, w) int32 label map, 0 off the foreground, painted on first read."""
        labels = np.zeros(self.foreground.shape, dtype=np.int32)
        labels.ravel()[np.flatnonzero(self.foreground)] = np.repeat(
            self.run_labels, self.run_lengths)
        labels.flags.writeable = False
        return labels


@dataclass
class TrackerState:
    # (third view, first view) tracks of the object, then of the destination
    # if the primitive has one; the gripper channel is read from the robot's
    # own body, so it is never tracked and never lost
    tracks: list[tuple[ChannelTrack, ChannelTrack]]
    prev_gripper_xy: np.ndarray
    # each view's labelling of the last update's frame; None after init
    view3: Labelling | None = None
    view1: Labelling | None = None

    def lost_channels(self) -> list[str]:
        return [name for name, (t3, t1) in zip(("object", "destination"), self.tracks)
                if t3.lost or t1.lost]


# compared and hashed by identity: an episode hands out one read-only
# tensor per repeated input, and NetPolicy keys its actions on it
@dataclass(eq=False)
class ObsTensor:
    grid: np.ndarray                   # (7, 32, 32) float32
    vec: np.ndarray                    # (17,) float32

    def to_bytes(self) -> bytes:
        g = np.ascontiguousarray(self.grid, dtype="<f4")
        v = np.ascontiguousarray(self.vec, dtype="<f4")
        return g.tobytes() + v.tobytes()


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
    if not grounding.obj_mask3.any():
        raise BuildError(f"empty object mask for {action.obj!r}")
    onehot = np.zeros(len(PRIMITIVE_TYPES))
    onehot[type_index(action.type)] = 1.0
    channels = [(grounding.obj_mask3, frame.instance1 == grounding.obj_id)]
    if grounding.des_id is not None:
        channels.append((grounding.des_mask3, frame.instance1 == grounding.des_id))
    return _observation(onehot, direction, frame, channels)


def _observation(onehot: np.ndarray, direction: np.ndarray | None, frame: Frame,
                 channels: list[tuple[np.ndarray, np.ndarray]]) -> Observation:
    """The observation of ``frame`` whose object and, if present, destination
    channels are the given (third-view mask, first-view mask) pairs.

    The gripper channel comes from the robot's own body, which is
    proprioception plus calibration, not scene appearance, and the
    constraint block from the live gripper state.
    """
    masks3 = np.zeros((3, *frame.instance3.shape), dtype=bool)
    depths1 = np.zeros((3, *frame.instance1.shape), dtype=np.float64)
    masks3[0] = frame.instance3 == GRIPPER_ID
    np.multiply(frame.depth1, frame.instance1 == GRIPPER_ID, out=depths1[0])
    for c, (mask3, mask1) in enumerate(channels, start=1):
        masks3[c] = mask3
        np.multiply(frame.depth1, mask1, out=depths1[c])
    return Observation(
        action_onehot=onehot, masks3=masks3, depths1=depths1,
        ee_pose=frame.gripper.pose.copy(), direction=direction,
        gripper_open=frame.gripper.aperture >= GRASP_APERTURE,
        has_destination=len(channels) == 2,
    )


def init_tracker(obs: Observation, frame: Frame,
                 previous: TrackerState | None = None) -> TrackerState:
    """A tracker starting from a build's channels. It keeps the labellings
    of ``previous`` (the tracker it replaces), which its first update
    reuses if the foreground has not changed."""
    channels = (1, 2) if obs.has_destination else (1,)
    tracks = [(ChannelTrack(_centroid(obs.masks3[c])),
               ChannelTrack(_centroid(obs.depths1[c] > 0.0))) for c in channels]
    views = (previous.view3, previous.view1) if previous is not None else ()
    return TrackerState(tracks, frame.gripper.pose[:2].copy(), *views)


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


def _jump(parent: np.ndarray, times: int) -> np.ndarray:
    """Pointer jumping: after ``times`` rounds each entry has moved 2**times
    links up its chain of earlier runs, or stopped at its root."""
    for _ in range(times):
        parent = parent[parent]
    return parent


def _components(foreground: np.ndarray) -> Labelling:
    """The 4-connected components of a 2-D foreground, numbered and
    centred as ndimage.label and its label sums would give them."""
    h, w = foreground.shape
    # one False column closes each row, so no run crosses a row end; the
    # runs are the (start, end) pairs of edges in raster order, as
    # positions in a (h, w + 1) layout
    stride = w + 1
    line = np.zeros(h * stride + 1, dtype=bool)
    line[1:].reshape(h, stride)[:, :w] = foreground
    edges = np.flatnonzero(line[1:] != line[:-1])
    starts, ends = edges[0::2], edges[1::2]
    k = starts.size
    # the runs of the row above that touch a run are those that end after
    # it starts and start before it ends, once moved down a row
    first = np.searchsorted(ends, starts - stride, side="right")
    stop = np.searchsorted(starts, ends - stride, side="left")
    runs = np.arange(k)
    parent = np.where(first < stop, first, runs)
    # a chain of first links climbs one row a link
    rows = starts // stride
    depth = int(rows[-1] - rows[0]) if k else 0
    parent = _jump(parent, depth.bit_length())
    multi = np.flatnonzero(stop - first > 1)
    if multi.size:
        # a run touching several runs above joins their trees: hook each
        # larger root onto the smaller until every such pair shares a root
        extra = stop[multi] - first[multi] - 1
        a = np.repeat(first[multi], extra)
        b = a + 1 + np.arange(a.size) - np.repeat(np.cumsum(extra) - extra, extra)
        while True:
            ra, rb = parent[a], parent[b]
            if np.array_equal(ra, rb):
                break
            np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
            parent = _jump(parent, k.bit_length())
    # every root is its component's first run, so numbering the roots in
    # run order numbers the components by their first pixel
    root = parent == runs
    n = int(np.count_nonzero(root))
    run_labels = np.cumsum(root, dtype=np.int32)[parent]
    # per-run sums of integer coordinates, exact in float64
    length = ends - starts
    col0 = starts - rows * stride
    counts = np.bincount(run_labels, weights=length, minlength=n + 1)[1:]
    row_sums = np.bincount(run_labels, weights=rows * length, minlength=n + 1)[1:]
    col_sums = np.bincount(run_labels, weights=(2 * col0 + length - 1) * length // 2,
                           minlength=n + 1)[1:]
    centroids = np.stack([row_sums / counts, col_sums / counts], axis=1)
    for arr in (centroids, run_labels, length):
        arr.flags.writeable = False
    return Labelling(foreground, n, centroids, run_labels, length)


def _labelling(instance: np.ndarray, kept: Labelling | None) -> Labelling:
    """The labelling of an instance map's foreground: ``kept`` when that was
    made from an equal foreground, else ``_components`` of this one."""
    foreground = instance != 0
    if kept is not None and np.array_equal(foreground, kept.foreground):
        return kept
    foreground.flags.writeable = False
    return _components(foreground)


def track_update(tracker: TrackerState, frame: Frame) -> TrackerState:
    """High-frequency refresh of the association.

    Each tracked channel re-associates to the nearest foreground
    component and keeps its label; a channel with no component within the
    gate is lost. Only centroids, lost flags and the labelling are made
    here: the masks are left to ``tracked_observation``.
    """
    view3 = _labelling(frame.instance3, tracker.view3)
    zero_shift = np.zeros(2)
    # first-view crop recenters on the gripper; compensate the expected
    # centroid by the crop movement (world x -> columns, world y -> rows)
    delta = (frame.gripper.pose[:2] - tracker.prev_gripper_xy) / FIRST_SCALE
    shift1 = np.array([-delta[1], -delta[0]])
    view1 = _labelling(frame.instance1, tracker.view1)

    tracks = [(_associate(t3, view3.n, view3.centroids, zero_shift),
               _associate(t1, view1.n, view1.centroids, shift1))
              for t3, t1 in tracker.tracks]
    return TrackerState(tracks, frame.gripper.pose[:2].copy(), view3, view1)


def _component_mask(view: Labelling, track: ChannelTrack) -> np.ndarray:
    """A track's mask in its frame's labelling: its component, or empty when lost."""
    if track.component:
        return view.labels == track.component
    return np.zeros(view.labels.shape, dtype=bool)


def tracked_observation(tracker: TrackerState, obs: Observation, frame: Frame) -> Observation:
    """The observation of ``frame``, the frame ``tracker`` was last updated
    on, for the primitive whose build is ``obs``.

    Each associated channel's mask is its component in the frame's
    labelling, and a lost channel's is empty. An untracked destination
    channel stays empty, as ``build`` leaves it. The one-hot and direction
    arrays are the build's own, which nothing writes.
    """
    channels = [(_component_mask(tracker.view3, t3), _component_mask(tracker.view1, t1))
                for t3, t1 in tracker.tracks]
    return _observation(obs.action_onehot, obs.direction, frame, channels)


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


def to_tensor(obs: Observation) -> ObsTensor:
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
    vec[12] = min(max(yaw / np.pi, -1.0), 1.0)
    if obs.direction is not None:
        vec[13:16] = obs.direction
    vec[16] = 1.0 if obs.gripper_open else 0.0
    return ObsTensor(grid=grid, vec=clip_unit(vec))
