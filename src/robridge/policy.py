"""The guided low-level policy: a small two-branch MLP over the
observation tensor with analytically derived gradients.

The grid branch flattens the 7x32x32 channels through 256 -> 128 units;
the 17-vector branch goes through 32; the concatenation feeds 128 -> 4
with a tanh output, so commands always land in [-1, 1]. Hidden layers are
tanh as well, which keeps the finite-difference gradient audit smooth
everywhere. Training uses behavior cloning (mean squared action error)
with per-parameter first/second moment adaptive steps.

A training step gives the parameters every bit the plain formulas give,
while avoiding their slow spots: the first-layer weight gradient is built in column blocks with
the grid as the left operand (the heatmap channel's float32 subnormals
make the other layout slow in OpenBLAS), the update runs in place over
cache-sized slices, and an augmented minibatch seeds its row streams in
one util.rng_streams call. ``forward`` zeroes those subnormals in its own
copy of the grid row, which halves its cost and, on every row checked,
keeps every output bit.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .augment import augment_grids
from .observation import GRID, GRID_CHANNELS, VEC_DIM, ObsTensor, type_index
from .util import SCHEMA_VERSION, rng_for, rng_streams

GRID_IN = GRID_CHANNELS * GRID * GRID      # 7168
H_GRID1 = 256
H_GRID2 = 128
H_VEC = 32
H_JOINT = 128
ACTION_DIM = 4

ADAM_BETA1 = 0.9      # first-moment decay of the adaptive step
ADAM_BETA2 = 0.999    # second-moment decay
ADAM_EPS = 1e-8
# elements per slice of the in-place update, so its working set stays in cache
_ADAM_CHUNK = 1 << 15
# columns per block of the first-layer weight gradient
_GW1_BLOCK = 1024

_SHAPES = (
    ("w1", (H_GRID1, GRID_IN)), ("b1", (H_GRID1,)),
    ("w2", (H_GRID2, H_GRID1)), ("b2", (H_GRID2,)),
    ("wv", (H_VEC, VEC_DIM)), ("bv", (H_VEC,)),
    ("w3", (H_JOINT, H_GRID2 + H_VEC)), ("b3", (H_JOINT,)),
    ("w4", (ACTION_DIM, H_JOINT)), ("b4", (ACTION_DIM,)),
)

ARCH_FINGERPRINT = hashlib.sha256(repr(_SHAPES).encode()).hexdigest()[:16]


class CheckpointError(ValueError):
    pass


class TrainingError(RuntimeError):
    pass


@dataclass
class PolicyParams:
    tensors: dict[str, np.ndarray]

    def __getattr__(self, name):
        try:
            return self.tensors[name]
        except KeyError:
            raise AttributeError(name)

    @property
    def dtype(self):
        return self.tensors["w1"].dtype


def init_params(seed: int, dtype=np.float32) -> PolicyParams:
    rng = rng_for(seed, "policy-init")
    tensors = {}
    for name, shape in _SHAPES:
        if name.startswith("w"):
            fan_in = shape[1]
            tensors[name] = (rng.standard_normal(shape) / np.sqrt(fan_in)).astype(dtype)
        else:
            tensors[name] = np.zeros(shape, dtype=dtype)
    return PolicyParams(tensors)


def _forward_arrays(p: PolicyParams, xg: np.ndarray, xv: np.ndarray):
    z1 = xg @ p.w1.T + p.b1
    h1 = np.tanh(z1)
    z2 = h1 @ p.w2.T + p.b2
    h2 = np.tanh(z2)
    zv = xv @ p.wv.T + p.bv
    hv = np.tanh(zv)
    c = np.concatenate([h2, hv], axis=1)
    z3 = c @ p.w3.T + p.b3
    h3 = np.tanh(z3)
    z4 = h3 @ p.w4.T + p.b4
    y = np.tanh(z4)
    return y, (xg, xv, h1, h2, hv, c, h3)


def forward(params: PolicyParams, x: ObsTensor) -> np.ndarray:
    """Map one observation tensor to a 4-dim command in [-1, 1].

    The grid row is copied and its subnormals (the far tail of the heatmap
    channel) are zeroed in the copy: they make the first layer's matmul
    about twice as slow. Training and the stored tensors keep them. A
    product of one with a weight lies far below one ulp of a first-layer
    sum, and on every tensor checked the output keeps its bits; a tier-1
    test pins that for the installed OpenBLAS, whose sums can move by one
    ulp when a zero in the mask or depth channels becomes tiny instead.
    """
    dtype = params.dtype
    xg = x.grid.reshape(1, -1).astype(dtype)
    xg[np.abs(xg) < np.finfo(dtype).tiny] = 0.0
    xv = x.vec.reshape(1, -1).astype(dtype)
    if xg.shape[1] != GRID_IN or xv.shape[1] != VEC_DIM:
        raise ValueError(f"input shape mismatch: grid {x.grid.shape}, vec {x.vec.shape}")
    y, _ = _forward_arrays(params, xg, xv)
    return y[0].astype(np.float64)


def loss_and_grad_arrays(p: PolicyParams, xg, xv, y_true):
    """Mean over the batch of ||y - target||^2 / 4, with exact gradients."""
    n = xg.shape[0]
    y, (xg_, xv_, h1, h2, hv, c, h3) = _forward_arrays(p, xg, xv)
    diff = y - y_true
    loss = float((diff ** 2).sum() / (ACTION_DIM * n))

    dz4 = (2.0 / (ACTION_DIM * n)) * diff * (1.0 - y * y)
    gw4 = dz4.T @ h3
    gb4 = dz4.sum(axis=0)
    dh3 = dz4 @ p.w4
    dz3 = dh3 * (1.0 - h3 * h3)
    gw3 = dz3.T @ c
    gb3 = dz3.sum(axis=0)
    dc = dz3 @ p.w3
    dh2 = dc[:, :H_GRID2]
    dhv = dc[:, H_GRID2:]
    dz2 = dh2 * (1.0 - h2 * h2)
    gw2 = dz2.T @ h1
    gb2 = dz2.sum(axis=0)
    dh1 = dz2 @ p.w2
    dz1 = dh1 * (1.0 - h1 * h1)
    gw1 = _first_layer_grad(dz1, xg_)
    gb1 = dz1.sum(axis=0)
    dzv = dhv * (1.0 - hv * hv)
    gwv = dzv.T @ xv_
    gbv = dzv.sum(axis=0)

    grads = PolicyParams({
        "w1": gw1, "b1": gb1, "w2": gw2, "b2": gb2,
        "wv": gwv, "bv": gbv, "w3": gw3, "b3": gb3,
        "w4": gw4, "b4": gb4,
    })
    return loss, grads


def _first_layer_grad(dz1: np.ndarray, xg: np.ndarray) -> np.ndarray:
    """dz1.T @ xg, filled one column block at a time.

    With the grid (whose heatmap channel holds float32 subnormals) as the
    left operand OpenBLAS runs about 3x faster. The batch is one inner
    block, so each element is the same multiply-add chain either way and
    keeps its bits; only at batch sizes 2 and 3 can a zero whose products
    all underflow come out with the other sign, which _adam_step ignores.
    Blocks of _GW1_BLOCK columns keep the transposed copy back into C order
    cache-sized.
    """
    gw1 = np.empty((dz1.shape[1], xg.shape[1]), dtype=np.result_type(dz1, xg))
    for j in range(0, xg.shape[1], _GW1_BLOCK):
        cols = slice(j, j + _GW1_BLOCK)
        gw1[:, cols] = (xg[:, cols].T @ dz1).T
    return gw1


def training_steps(steps: np.ndarray) -> np.ndarray:
    """The step records a policy trains on, in order.

    Reach ticks are waypoint-follower output and the policy never
    executes reach (the loop motion-plans it), so they are excluded.
    """
    # not "<= 0.5": a NaN reach flag keeps its row
    return steps[~(steps["vec"][:, type_index("reach")] > 0.5)]


@dataclass
class Dataset:
    """Flat arrays of (grid, vec, action) training triples."""
    grid: np.ndarray      # (N, 7, 32, 32) float32
    vec: np.ndarray       # (N, 17) float32
    actions: np.ndarray   # (N, 4) float32

    def __post_init__(self):
        if len(self.grid) == 0:
            raise ValueError("dataset is empty")
        if not len(self.grid) == len(self.vec) == len(self.actions):
            raise ValueError("dataset arrays disagree on length")

    def __len__(self) -> int:
        return len(self.grid)

    @classmethod
    def from_trajectories(cls, trajectories) -> "Dataset":
        """The trajectories' training steps as triples (views of their fields)."""
        steps = training_steps(np.concatenate([traj.steps for traj in trajectories]))
        return cls(steps["grid"], steps["vec"], steps["action"])


def train(params: PolicyParams, dataset: Dataset, epochs: int, lr: float, seed: int,
          batch_size: int = 64, augment_cfg=None) -> tuple[PolicyParams, dict]:
    """Behavior cloning with adaptive per-parameter steps.

    Minibatch order is keyed to the seed; with augment_cfg set, each
    sample is corrupted with a seed derived from (seed, epoch, index) so
    every epoch sees a fresh corruption of the same demonstrations.

    Trains params in place and returns that same object, so every tensor
    must be writeable and C-contiguous (ValueError names one that is not).
    Parameter-sized buffers held at once: the parameters, their two
    moments and one step's gradients; each step's gradients and batch are
    dropped before the next batch is built. A non-finite loss raises
    TrainingError before its step updates anything, so params then hold
    the result of the last step whose loss was finite.
    """
    for k, x in params.tensors.items():
        if not (x.flags.writeable and x.flags.c_contiguous):
            raise ValueError(f"train updates {k} in place: it must be writeable "
                             f"and C-contiguous")
    m = {k: np.zeros_like(v) for k, v in params.tensors.items()}
    v = {k: np.zeros_like(vv) for k, vv in params.tensors.items()}
    # the update runs in place, a chunk at a time, through two scratch
    # buffers shared by all tensors
    scratch = tuple(np.empty(_ADAM_CHUNK, dtype=params.dtype) for _ in range(2))
    t = 0
    n = len(dataset)
    flat_grid = dataset.grid.reshape(n, -1)
    losses = []
    for epoch in range(epochs):
        order = rng_for(seed, "shuffle", epoch).permutation(n)
        epoch_loss = 0.0
        seen = 0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            if augment_cfg is not None:
                xg = _augment_block(dataset.grid[idx], augment_cfg, seed, epoch, idx)
            else:
                xg = flat_grid[idx]
            xv = dataset.vec[idx]
            y = dataset.actions[idx]
            loss, grads = loss_and_grad_arrays(params, xg, xv, y)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch offset {start}: {loss}")
            t += 1
            bc1 = 1.0 - ADAM_BETA1 ** t
            bc2 = 1.0 - ADAM_BETA2 ** t
            for k in params.tensors:
                _adam_step(params.tensors[k], grads.tensors[k], m[k], v[k], scratch,
                           lr, bc1, bc2)
            del grads, xg
            epoch_loss += loss * len(idx)
            seen += len(idx)
        losses.append(epoch_loss / seen)
    return params, {"loss": losses, "epochs": epochs, "samples": n}


def _adam_step(pk, gk, mk, vk, scratch, lr: float, bc1: float, bc2: float) -> None:
    """One in-place adaptive-moment update of a parameter tensor.

    Same operations in the same order as
        m = beta1*m + (1-beta1)*g
        v = beta2*v + (1-beta2)*g*g
        p = p - lr*(m/bc1) / (sqrt(v/bc2) + eps)
    so the result is bit-identical. Every operation is elementwise, so the
    flattened tensors are updated one scratch-sized slice at a time; pk, mk
    and vk must be C-contiguous, so that their flat views write through.
    scratch holds two flat buffers of one chunk each. The moments start at
    +0 and +0 + (-0) is +0, so the sign of a zero gradient never shows.
    """
    flat = [x.reshape(-1) for x in (pk, gk, mk, vk)]
    size = len(scratch[0])
    for lo in range(0, pk.size, size):
        p, g, m, v = (x[lo:lo + size] for x in flat)
        a, b = (buf[:len(p)] for buf in scratch)
        np.multiply(m, ADAM_BETA1, out=m)
        np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        np.add(m, a, out=m)
        np.multiply(v, ADAM_BETA2, out=v)
        np.multiply(g, 1.0 - ADAM_BETA2, out=a)
        np.multiply(a, g, out=a)
        np.add(v, a, out=v)
        np.divide(m, bc1, out=a)
        np.multiply(a, lr, out=a)
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        np.add(b, ADAM_EPS, out=b)
        np.divide(a, b, out=a)
        np.subtract(p, a, out=p)


def _augment_block(grid_block: np.ndarray, augment_cfg, seed: int, epoch: int,
                   idx: np.ndarray) -> np.ndarray:
    seeds = [int(rng.integers(1 << 62))
             for rng in rng_streams((seed, "aug", epoch, int(i)) for i in idx)]
    out = augment_grids(grid_block, seeds, augment_cfg)
    return out.reshape(len(idx), GRID_IN).astype(np.float32, copy=False)


_MAGIC = b"RBPOLICY"


def save_params(params: PolicyParams, path) -> None:
    """Little-endian float32 checkpoint guarded by an architecture fingerprint."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", SCHEMA_VERSION))
        f.write(ARCH_FINGERPRINT.encode("ascii"))
        for name, _ in _SHAPES:
            f.write(np.ascontiguousarray(params.tensors[name], dtype="<f4").tobytes())


def load_params(path) -> PolicyParams:
    """Read a save_params checkpoint, each tensor straight into its own
    array (no intermediate bytes object); CheckpointError on a wrong magic,
    a version field cut short or unsupported, a wrong fingerprint (whatever
    its bytes), or at the first tensor the file cuts short."""
    with open(path, "rb") as f:
        if f.read(len(_MAGIC)) != _MAGIC:
            raise CheckpointError(f"{path}: not a policy checkpoint")
        raw = f.read(4)
        if len(raw) != 4:
            raise CheckpointError(f"{path}: truncated checkpoint at version")
        (ver,) = struct.unpack("<I", raw)
        if ver != SCHEMA_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {ver}")
        fp = f.read(len(ARCH_FINGERPRINT)).decode("ascii", errors="backslashreplace")
        if fp != ARCH_FINGERPRINT:
            raise CheckpointError(
                f"{path}: architecture fingerprint {fp} != expected {ARCH_FINGERPRINT}")
        tensors = {}
        for name, shape in _SHAPES:
            arr = tensors[name] = np.empty(shape, dtype="<f4")
            if f.readinto(arr) != arr.nbytes:
                raise CheckpointError(f"{path}: truncated checkpoint at {name}")
    return PolicyParams(tensors)
