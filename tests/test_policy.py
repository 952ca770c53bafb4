import hashlib
import tracemalloc
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robridge.observation import GRID, GRID_CHANNELS, HEATMAP_SIGMA, VEC_DIM, ObsTensor
from robridge.policy import (
    _SHAPES,
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ARCH_FINGERPRINT,
    CheckpointError,
    Dataset,
    PolicyParams,
    _ADAM_CHUNK,
    _adam_step,
    _first_layer_grad,
    _forward_arrays,
    forward,
    init_params,
    load_params,
    loss_and_grad_arrays,
    save_params,
    train,
)
from robridge.util import rng_for


def rand_obs(seed):
    rng = np.random.default_rng(seed)
    grid = rng.random((GRID_CHANNELS, GRID, GRID)).astype(np.float32)
    vec = rng.uniform(-1, 1, VEC_DIM).astype(np.float32)
    return ObsTensor(grid=grid, vec=vec)


def rand_dataset(seed, n):
    rng = np.random.default_rng(seed)
    return Dataset(
        grid=rng.random((n, GRID_CHANNELS, GRID, GRID)).astype(np.float32),
        vec=rng.uniform(-1, 1, (n, VEC_DIM)).astype(np.float32),
        actions=rng.uniform(-1, 1, (n, 4)).astype(np.float32),
    )


def stacked(xs, targets):
    """Batch arrays (flat grids, vectors, targets) of observations and targets."""
    xg = np.stack([x.grid.reshape(-1) for x in xs]).astype(np.float32)
    xv = np.stack([x.vec for x in xs]).astype(np.float32)
    y = np.stack([np.asarray(t, dtype=np.float32) for t in targets])
    return xg, xv, y


def test_zero_params_zero_output():
    zeros = PolicyParams({name: np.zeros(shape, np.float32) for name, shape in _SHAPES})
    out = forward(zeros, rand_obs(0))
    assert np.array_equal(out, np.zeros(4))


def test_forward_deterministic_and_bounded():
    p = init_params(3)
    x = rand_obs(1)
    a = forward(p, x)
    b = forward(p, x)
    assert np.array_equal(a, b)
    for seed in range(30):
        out = forward(p, rand_obs(seed))
        assert (np.abs(out) <= 1.0).all()


def test_forward_shape_mismatch():
    p = init_params(0)
    bad = ObsTensor(grid=np.zeros((2, 8, 8), dtype=np.float32),
                    vec=np.zeros(VEC_DIM, dtype=np.float32))
    with pytest.raises(ValueError):
        forward(p, bad)


def test_loss_zero_when_targets_match():
    p = init_params(1)
    xs = [rand_obs(i) for i in range(4)]
    targets = [forward(p, x) for x in xs]
    # batched vs single-sample gemm differ by float32 rounding only
    loss, grads = loss_and_grad_arrays(p, *stacked(xs, targets))
    assert loss == pytest.approx(0.0, abs=1e-6)
    assert max(float(np.abs(g).max()) for g in grads.tensors.values()) < 1e-3


def test_loss_mean_invariant_to_duplication():
    p = init_params(2)
    x = rand_obs(5)
    t = np.array([0.2, -0.3, 0.5, 0.1])
    l1, _ = loss_and_grad_arrays(p, *stacked([x], [t]))
    l2, _ = loss_and_grad_arrays(p, *stacked([x, x, x], [t, t, t]))
    assert l1 == pytest.approx(l2, rel=1e-6)


def finite_difference_check(draw_seed, coords_per_tensor=5, h=1e-5):
    p = init_params(draw_seed, dtype=np.float64)
    rng = rng_for(draw_seed, "fdcheck")
    xg = rng.random((1, GRID_CHANNELS * GRID * GRID))
    xv = rng.uniform(-1, 1, (1, VEC_DIM))
    y = rng.uniform(-1, 1, (1, 4))
    _, grads = loss_and_grad_arrays(p, xg, xv, y)
    worst = 0.0
    for name, _ in _SHAPES:
        flat = p.tensors[name].reshape(-1)
        for i in rng.integers(0, flat.size, size=coords_per_tensor):
            old = flat[i]
            flat[i] = old + h
            lp, _ = loss_and_grad_arrays(p, xg, xv, y)
            flat[i] = old - h
            lm, _ = loss_and_grad_arrays(p, xg, xv, y)
            flat[i] = old
            fd = (lp - lm) / (2 * h)
            an = grads.tensors[name].reshape(-1)[i]
            worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-6))
    return worst


def test_gradients_match_finite_differences():
    worst = max(finite_difference_check(seed) for seed in range(5))
    assert worst < 1e-4


def test_train_lr_zero_leaves_params():
    p = init_params(4)
    before = {k: v.copy() for k, v in p.tensors.items()}
    ds = rand_dataset(0, 20)
    p2, _ = train(p, ds, epochs=3, lr=0.0, seed=0)
    assert p2 is p
    for k in before:
        assert np.array_equal(before[k], p.tensors[k])


def test_train_updates_the_given_params_in_place():
    p = init_params(5)
    arrays = dict(p.tensors)
    w1 = p.w1.copy()
    q, _ = train(p, rand_dataset(1, 30), epochs=1, lr=1e-3, seed=9)
    assert q is p
    assert all(p.tensors[k] is arrays[k] for k in arrays)
    assert not np.array_equal(p.w1, w1)


@pytest.mark.parametrize("spoil", ["read-only", "not C-contiguous"])
def test_train_refuses_a_tensor_it_cannot_update_in_place(spoil):
    p = init_params(6)
    if spoil == "read-only":
        p.w2.flags.writeable = False
    else:
        p.tensors["w2"] = np.asfortranarray(p.w2)
    with pytest.raises(ValueError, match="w2"):
        train(p, rand_dataset(2, 10), epochs=1, lr=1e-3, seed=0)
    assert np.array_equal(p.w1, init_params(6).w1)


@pytest.mark.parametrize("augment", [False, True])
def test_train_holds_one_set_of_parameter_sized_buffers(augment):
    # the parameters are the caller's; train adds two moments and one
    # step's gradients (the previous step's are dropped first), plus one
    # batch and its activations: under 4x the parameter bytes, over three steps
    from robridge.augment import AugmentConfig
    p = init_params(11)
    ds = rand_dataset(3, 40)
    param_bytes = sum(v.nbytes for v in p.tensors.values())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        train(p, ds, epochs=1, lr=1e-3, seed=0, batch_size=16,
              augment_cfg=AugmentConfig() if augment else None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / param_bytes < 4.0


def test_train_deterministic():
    ds = rand_dataset(1, 50)
    a, ma = train(init_params(5), ds, epochs=4, lr=1e-3, seed=9)
    b, mb = train(init_params(5), ds, epochs=4, lr=1e-3, seed=9)
    for k in a.tensors:
        assert a.tensors[k].tobytes() == b.tensors[k].tobytes()
    assert ma["loss"] == mb["loss"]


def test_train_memorizes_ten_samples():
    ds = rand_dataset(2, 10)
    _, metrics = train(init_params(6), ds, epochs=200, lr=1e-3, seed=0)
    assert metrics["loss"][-1] < 1e-3


def test_train_loss_trend_non_increasing():
    ds = rand_dataset(3, 10)
    _, metrics = train(init_params(7), ds, epochs=200, lr=1e-3, seed=0)
    losses = np.array(metrics["loss"])
    smooth = np.convolve(losses, np.ones(10) / 10, mode="valid")
    assert (np.diff(smooth) <= 1e-5).all()


def test_train_augmented_golden(tmp_path):
    # one expert demo (50 samples), batches of 24, 24 and 2: checkpoint and
    # losses of augmented training are pinned to the bit
    from robridge.augment import AugmentConfig
    from robridge.experts import rollout_expert
    ds = Dataset.from_trajectories([rollout_expert("pick-place", seed=3)])
    assert len(ds) == 50
    p, metrics = train(init_params(1), ds, epochs=2, lr=1e-3, seed=4,
                       batch_size=24, augment_cfg=AugmentConfig(seed=7))
    save_params(p, tmp_path / "policy.bin")
    digest = hashlib.sha256((tmp_path / "policy.bin").read_bytes()).hexdigest()
    assert digest == "8ef7113eb86958233aeff6b4312a197cfcb4f29ac659cf29b62f9876697b912e"
    assert metrics["loss"] == [0.19780520694330334, 0.11702315881848335]


def test_train_rejects_empty_dataset():
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, GRID_CHANNELS, GRID, GRID)), np.zeros((0, VEC_DIM)),
                np.zeros((0, 4)))


def test_checkpoint_roundtrip(tmp_path):
    p = init_params(8)
    path = tmp_path / "policy.bin"
    save_params(p, path)
    q = load_params(path)
    for k in p.tensors:
        assert np.array_equal(p.tensors[k], q.tensors[k])


def test_checkpoint_rerun_byte_identical(tmp_path):
    p = init_params(9)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_params(p, a)
    save_params(p, b)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_fingerprint_guard(tmp_path):
    p = init_params(10)
    path = tmp_path / "policy.bin"
    save_params(p, path)
    raw = bytearray(path.read_bytes())
    pos = len(b"RBPOLICY") + 4
    raw[pos:pos + 4] = b"dead"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="fingerprint"):
        load_params(path)
    assert len(ARCH_FINGERPRINT) == 16


@pytest.mark.parametrize("name", ["w1", "b1", "b4"])
def test_checkpoint_truncated_inside_a_tensor_names_it(tmp_path, name):
    path = tmp_path / "policy.bin"
    save_params(init_params(12), path)
    names = [k for k, _ in _SHAPES]
    offset = len(b"RBPOLICY") + 4 + len(ARCH_FINGERPRINT) + sum(
        4 * int(np.prod(shape)) for _, shape in _SHAPES[:names.index(name)])
    path.write_bytes(path.read_bytes()[:offset + 2])
    with pytest.raises(CheckpointError, match=f"truncated checkpoint at {name}$"):
        load_params(path)


@pytest.mark.parametrize("cut", [8, 9, 10, 11])
def test_checkpoint_truncated_inside_the_version_names_it(tmp_path, cut):
    path = tmp_path / "policy.bin"
    save_params(init_params(12), path)
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(CheckpointError, match="truncated checkpoint at version$"):
        load_params(path)


@pytest.mark.parametrize("fingerprint", [b"\xff" * 16, "pr\u00e9-v2-arch-x".encode()[:16], b"\xff"])
def test_checkpoint_fingerprint_of_any_bytes_is_a_checkpoint_error(tmp_path, fingerprint):
    # non-ASCII or cut short, the fingerprint is still just a wrong one
    path = tmp_path / "policy.bin"
    save_params(init_params(12), path)
    raw = path.read_bytes()
    pos = len(b"RBPOLICY") + 4
    path.write_bytes(raw[:pos] + fingerprint + (raw[pos + 16:] if len(fingerprint) == 16 else b""))
    with pytest.raises(CheckpointError, match="fingerprint"):
        load_params(path)


def test_dataset_from_trajectories_excludes_reach():
    t_interact = rand_obs(0)
    t_interact.vec[:9] = 0.0
    t_interact.vec[0] = 1.0   # grasp
    t_reach = rand_obs(1)
    t_reach.vec[:9] = 0.0
    t_reach.vec[8] = 1.0      # reach
    from robridge.experts import Trajectory, pack_steps
    ticks = [SimpleNamespace(tensor=t, action=np.zeros(4), reward=0.0)
             for t in (t_interact, t_reach)]
    traj = Trajectory("x", 0, pack_steps(ticks), True, 2)
    ds = Dataset.from_trajectories([traj])
    assert len(ds) == 1
    assert np.array_equal(ds.grid[0], t_interact.grid)
    assert np.array_equal(ds.vec[0], t_interact.vec)


def test_in_place_adam_step_matches_reference_formula():
    # a small tensor in one chunk or in uneven chunks, and a tensor of more
    # than two real chunks
    for shape, chunk in (((16, 9), 16 * 9 + 3), ((16, 9), 7), ((5, 13109), _ADAM_CHUNK)):
        adam_matches_reference_formula(shape, chunk)


def adam_matches_reference_formula(shape, chunk):
    rng = np.random.default_rng(3)
    p = rng.standard_normal(shape).astype(np.float32)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    ref_p, ref_m, ref_v = p.copy(), m.copy(), v.copy()
    scratch = (np.empty(chunk, dtype=p.dtype), np.empty(chunk, dtype=p.dtype))
    lr = 1e-3
    for t in range(1, 6):
        g = rng.standard_normal(p.shape).astype(np.float32)
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        ref_m = ADAM_BETA1 * ref_m + (1.0 - ADAM_BETA1) * g
        ref_v = ADAM_BETA2 * ref_v + (1.0 - ADAM_BETA2) * g * g
        ref_p = ref_p - (lr * (ref_m / bc1) / (np.sqrt(ref_v / bc2) + ADAM_EPS)).astype(p.dtype)
        _adam_step(p, g, m, v, scratch, lr, bc1, bc2)
        assert p.tobytes() == ref_p.tobytes()
        assert m.tobytes() == ref_m.tobytes()
        assert v.tobytes() == ref_v.tobytes()


def test_adam_step_ignores_the_sign_of_zero_gradients():
    # the first and second moments start at +0, and +0 + (-0) is +0, so
    # a gradient's zero sign never reaches the parameters or the moments
    rng = np.random.default_rng(4)
    p = rng.standard_normal(64).astype(np.float32)
    g = rng.standard_normal((3, 64)).astype(np.float32)
    g[:, ::3] = 0.0
    runs = []
    for zero in (0.0, -0.0):
        g[:, ::3] = zero
        q, m, v = p.copy(), np.zeros_like(p), np.zeros_like(p)
        scratch = (np.empty(64, dtype=p.dtype), np.empty(64, dtype=p.dtype))
        for t in range(1, 4):
            _adam_step(q, g[t - 1], m, v, scratch, 1e-3,
                       1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t)
        runs.append(b"".join(x.tobytes() for x in (q, m, v)))
    assert runs[0] == runs[1]


def heatmap_batch(n, seed):
    """Flat grids whose heatmap channel, as to_tensor builds it, holds
    subnormals, and a first-layer backward signal for them."""
    rng = np.random.default_rng(seed)
    grid = rng.random((n, GRID_CHANNELS, GRID, GRID)).astype(np.float32)
    grid[:, :3] = grid[:, :3] < 0.1
    cells = np.arange(GRID) + 0.5
    for row in grid:
        cr, cc = rng.uniform(-8.0, GRID + 8.0, size=2)
        d2 = (cells[:, None] - cr) ** 2 + (cells - cc) ** 2
        row[6] = np.exp(-d2 / (2.0 * HEATMAP_SIGMA ** 2))
    dz1 = (rng.standard_normal((n, 256)) * 1e-3).astype(np.float32)
    return grid.reshape(n, -1), dz1


@pytest.mark.parametrize("n", [1, 2, 3, 38, 64])
def test_blocked_first_layer_grad_is_the_plain_product(n):
    xg, dz1 = heatmap_batch(n, n)
    assert ((xg > 0) & (xg < np.finfo(np.float32).tiny)).any()
    got = _first_layer_grad(dz1, xg)
    want = dz1.T @ xg
    assert got.flags.c_contiguous and got.dtype == want.dtype
    if n in (2, 3):
        # at these batch sizes the two layouts may run different kernels,
        # which can disagree on the sign of a zero whose products all
        # underflow; the values agree, and the optimizer ignores zero signs
        assert np.array_equal(got, want)
    else:
        assert got.tobytes() == want.tobytes(), (
            "the column-blocked first-layer gradient differs from dz1.T @ xg: "
            "this pins a property of the installed OpenBLAS, that both operand "
            "layouts compute each element as the same multiply-add chain over "
            "the batch")


@lru_cache(maxsize=1)
def expert_rows():
    """The kept rows of a scripted-expert pick-place episode: their heatmap
    channel holds float32 subnormals, as every to_tensor grid does."""
    from robridge.experts import rollout_expert
    return rollout_expert("pick-place", 3).steps


@lru_cache(maxsize=2)
def policy_params(trained: bool) -> PolicyParams:
    params = init_params(0)
    if trained:
        steps = expert_rows()
        params, _ = train(params, Dataset(steps["grid"], steps["vec"], steps["action"]),
                          epochs=2, lr=1e-3, seed=0)
    return params


TINY = float(np.finfo(np.float32).tiny)
HEATMAP = slice(6 * GRID * GRID, 7 * GRID * GRID)   # channel 6 of a flat grid row
subnormals = st.floats(0.0, TINY, width=32, allow_subnormal=True, exclude_max=True)


@settings(max_examples=40, deadline=None)
@given(trained=st.booleans(), row=st.integers(0, 98),
       centre=st.tuples(st.floats(-8.0, GRID + 8.0), st.floats(-8.0, GRID + 8.0)),
       extra=st.lists(st.tuples(st.integers(0, GRID * GRID - 1), subnormals), max_size=64))
def test_forward_flushing_subnormals_keeps_every_bit(trained, row, centre, extra):
    # forward zeroes the subnormals of its own copy of the grid row; its
    # output is the plain formula's on the unflushed row, bit for bit. The
    # subnormals are where to_tensor makes them: the heatmap channel's tail,
    # here around any centre, plus more of them anywhere in that channel.
    # (Not a theorem: on this OpenBLAS a tiny value put where the mask and
    # depth channels hold zeros can move a first-layer sum by one ulp.)
    params, steps = policy_params(trained), expert_rows()
    grid = steps["grid"][row].copy()
    cells = np.arange(GRID) + 0.5
    d2 = (cells[:, None] - centre[0]) ** 2 + (cells - centre[1]) ** 2
    grid[6] = np.exp(-d2 / (2.0 * HEATMAP_SIGMA ** 2))
    flat = grid.reshape(-1)
    for i, v in extra:
        flat[HEATMAP][i] = v
    x = ObsTensor(grid, steps["vec"][row].copy())
    plain, _ = _forward_arrays(params, flat.reshape(1, -1), x.vec.reshape(1, -1))
    flushed = np.where(np.abs(grid) < TINY, np.float32(0.0), grid)
    got = forward(params, x)
    assert got.tobytes() == plain[0].astype(np.float64).tobytes()
    assert got.tobytes() == forward(params, ObsTensor(flushed, x.vec)).tobytes()


def test_expert_rows_hold_subnormals_only_in_the_heatmap():
    # what the property test above draws from
    flat = expert_rows()["grid"].reshape(len(expert_rows()), -1)
    sub = (flat != 0) & (np.abs(flat) < TINY)
    assert sub[:, HEATMAP].any(axis=1).all()
    assert not sub[:, :HEATMAP.start].any()


def test_forward_leaves_the_callers_tensor_untouched():
    steps = expert_rows()
    x = ObsTensor(steps["grid"][40].copy(), steps["vec"][40].copy())
    assert ((x.grid > 0) & (x.grid < TINY)).any()
    before = x.grid.tobytes() + x.vec.tobytes()
    forward(policy_params(False), x)
    assert x.grid.tobytes() + x.vec.tobytes() == before
    # and a read-only tensor, as an episode hands out, is only read
    x.grid.flags.writeable = x.vec.flags.writeable = False
    forward(policy_params(False), x)
    assert x.grid.tobytes() + x.vec.tobytes() == before
