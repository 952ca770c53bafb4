import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import zero_steps
from robridge import dagger
from robridge.dagger import (
    DemoStore,
    PiecewiseRewardMap,
    f_value,
    init,
    iterate,
    sample_tasks,
)
from robridge.experts import Trajectory
from robridge.harness import ExperimentConfig

F = PiecewiseRewardMap()


def stub_traj(task_id, steps=2, success=True):
    return Trajectory(task_id, 0, zero_steps(steps), success, steps)


def test_piecewise_map_validation():
    with pytest.raises(ValueError):
        PiecewiseRewardMap(thresholds=(0.7, 0.3), values=(3, 2, 1))
    with pytest.raises(ValueError):
        PiecewiseRewardMap(thresholds=(0.3, 0.7), values=(1, 2, 3))   # increasing
    with pytest.raises(ValueError):
        PiecewiseRewardMap(thresholds=(0.3,), values=(3, 2, 1))


def test_f_value_default_intervals():
    assert f_value(F, 0.1) == 3.0
    assert f_value(F, 1.0) == 1.0
    assert f_value(F, 0.3) == 3.0   # right-closed boundary
    assert f_value(F, 0.7) == 2.0
    assert f_value(F, 0.31) == 2.0


def test_f_value_rejects_out_of_range():
    with pytest.raises(ValueError):
        f_value(F, 1.2)
    with pytest.raises(ValueError):
        f_value(F, -0.1)


def test_sample_tasks_degenerate_weights():
    w = {"t1": 1.0, "t2": 1e-9, "t3": 1e-9}
    draws = sample_tasks(w, 100, seed=0)
    assert draws.count("t1") >= 99


def test_sample_tasks_equal_weights_balanced():
    w = {"a": 1.0, "b": 1.0, "c": 1.0}
    draws = sample_tasks(w, 3000, seed=1)
    for t in w:
        assert 900 <= draws.count(t) <= 1100


def test_sample_tasks_deterministic():
    w = {"a": 2.0, "b": 1.0}
    assert sample_tasks(w, 50, seed=7) == sample_tasks(w, 50, seed=7)


def stub_stores(root, task_ids, per_task):
    stores = {tid: DemoStore(root, tid) for tid in task_ids}
    for store in stores.values():
        for _ in range(per_task):
            store.append(stub_traj(store.task_id))
    return stores


def test_init_equal_weights_and_counts(tmp_path):
    state = init(stub_stores(tmp_path, ["a", "b", "c"], 5))
    assert state.weights == {"a": 1.0, "b": 1.0, "c": 1.0}
    assert state.dataset_sizes() == {"a": 5, "b": 5, "c": 5}


def test_training_keeps_one_copy_of_the_rows(tmp_path, monkeypatch):
    state = init(stub_stores(tmp_path, ["A", "B", "C"], 2))
    trained = []
    monkeypatch.setattr(dagger, "train_policy",
                        lambda params, ds, *args, **kwargs: trained.append(ds) or (params, {}))
    dagger._train_on_union(object(), state, ExperimentConfig(tasks=["A", "B", "C"]))
    [ds] = trained
    assert len(ds) == 12
    # every task's rows are now a view of the training set, not a second copy
    assert all(np.shares_memory(rows, ds.grid) for rows in state.rows.values())


def test_demo_store_append_only_and_roundtrip(tmp_path):
    store = DemoStore(tmp_path, "task-x")
    store.append(stub_traj("task-x", steps=3))
    store.append(stub_traj("task-x", steps=4))
    assert len(store) == 2
    assert store.sample_count() == 7
    trajs = store.trajectories()
    assert [len(t.steps) for t in trajs] == [3, 4]
    reopened = DemoStore(tmp_path, "task-x")
    assert len(reopened) == 2


SCRIPT = {
    0: [("A", 0.1, True), ("A", 0.9, True), ("B", 1.0, False), ("C", 0.2, True)],
    1: [("C", 1.0, False), ("C", 0.4, True), ("B", 0.3, True), ("B", 0.8, True)],
    2: [("A", 1.0, False)],
    3: [("A", 0.0, True), ("B", 1.0, False), ("C", 0.55, True)],
}

# hand-computed oracle trace for the scripted scenario above
EXPECTED_WEIGHTS = [
    {"A": 2.0, "B": 1.0, "C": 3.0},
    {"A": 2.0, "B": 2.0, "C": 1.5},
    {"A": 1.0, "B": 2.0, "C": 1.5},
    {"A": 3.0, "B": 1.0, "C": 2.0},
]
EXPECTED_SIZES = [
    {"A": 4, "B": 2, "C": 3},
    {"A": 4, "B": 4, "C": 4},
    {"A": 4, "B": 4, "C": 4},
    {"A": 5, "B": 4, "C": 5},
]


def fake_iterate_calls(monkeypatch, sampled, rollout, relabel):
    """Script what iterate samples, rolls out and relabels; training is a no-op."""
    monkeypatch.setattr(dagger, "sample_tasks", lambda weights, n, seed: list(sampled))
    monkeypatch.setattr(dagger, "_default_rollout", rollout)
    monkeypatch.setattr(dagger, "_default_relabel", relabel)
    monkeypatch.setattr(dagger, "_train_on_union", lambda params, state, config: (params, {}))


def run_scripted_iterations(tmp_path, monkeypatch, n_iter=4):
    state = init(stub_stores(tmp_path, ["A", "B", "C"], 2))
    config = ExperimentConfig(tasks=["A", "B", "C"], dagger_f=F, dagger_n_eval=4)
    policy = object()

    traces = []
    for it in range(n_iter):
        used = []

        def rollout(tid, seed, params, c):
            row = [r for r in SCRIPT[it] if r[0] == tid and r not in used]
            rec = row[0]
            used.append(rec)
            return rec[1], rec[2], ["visited"]

        fake_iterate_calls(monkeypatch, [tid for tid, _, _ in SCRIPT[it]], rollout,
                           lambda tid, visited: stub_traj(tid, steps=3, success=False))
        state, policy, metrics = iterate(state, policy, config)
        traces.append((dict(state.weights), state.dataset_sizes()))
    return traces


def test_iterate_trace_matches_hand_computed_oracle(tmp_path, monkeypatch):
    traces = run_scripted_iterations(tmp_path, monkeypatch)
    for it, (weights, sizes) in enumerate(traces):
        assert weights == EXPECTED_WEIGHTS[it], f"iteration {it} weights"
        assert sizes == EXPECTED_SIZES[it], f"iteration {it} sizes"


def test_iterate_all_successes_reset_weights(tmp_path, monkeypatch):
    state = init(stub_stores(tmp_path, ["A", "B"], 1))
    config = ExperimentConfig(tasks=["A", "B"], dagger_f=F, dagger_n_eval=2)
    state.weights = {"A": 2.5, "B": 0.5}
    fake_iterate_calls(monkeypatch, ["A", "B"],
                       rollout=lambda tid, seed, p, c: (1.0, False, []),
                       relabel=lambda tid, v: None)
    state, _, metrics = iterate(state, object(), config)
    assert state.weights == {"A": 1.0, "B": 1.0}
    assert metrics["relabeled"] == {"A": 0, "B": 0}


def test_iterate_no_failures_no_growth(tmp_path, monkeypatch):
    state = init(stub_stores(tmp_path, ["A"], 3))
    before = state.dataset_sizes()
    fake_iterate_calls(monkeypatch, ["A"],
                       rollout=lambda tid, seed, p, c: (1.0, False, []),
                       relabel=lambda tid, v: stub_traj(tid))
    state, _, _ = iterate(state, object(), ExperimentConfig(tasks=["A"], dagger_n_eval=1))
    assert state.dataset_sizes() == before


@settings(max_examples=25, deadline=None)
@given(
    rewards_a=st.lists(st.floats(0, 1), min_size=1, max_size=5),
    deltas=st.lists(st.floats(0, 1), min_size=5, max_size=5),
)
def test_weight_ordering_monotone(tmp_path_factory, rewards_a, deltas):
    # B's rewards pointwise >= A's on equal test counts -> w_A >= w_B
    rewards_b = [min(1.0, a + d) for a, d in zip(rewards_a, deltas)]
    wa = float(np.mean([f_value(F, r) for r in rewards_a]))
    wb = float(np.mean([f_value(F, r) for r in rewards_b]))
    assert wa >= wb


def test_dataset_sizes_never_decrease(tmp_path, monkeypatch):
    traces = run_scripted_iterations(tmp_path, monkeypatch)
    prev = {"A": 2, "B": 2, "C": 2}
    for _, sizes in traces:
        for t in prev:
            assert sizes[t] >= prev[t]
        prev = sizes
