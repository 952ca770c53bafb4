"""Adaptive-sampling offline DAgger.

Per-task sampling weights start equal, then follow a piecewise
reward-to-value map: hard tasks (low rewards) get larger weights and are
sampled more. Each iteration trains on the union of all task datasets,
evaluates the policy on weighted-sampled tasks, and appends
expert-relabeled corrections for the failures.

``init`` decodes each demo file once per run; relabels are appended to the
stores on disk and to the training rows the state keeps.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .experts import ExpertError, Trajectory, expert_action, pack_steps
from .experts import load_trajectory, save_trajectory
from .policy import Dataset, PolicyParams, training_steps
from .policy import train as train_policy
from .util import SCHEMA_VERSION, digest_file, rng_for

if TYPE_CHECKING:
    from .harness import ExperimentConfig

log = logging.getLogger("robridge.dagger")

RELABEL_MAX_STEPS = 300    # visited states relabeled per failed rollout, at most


@dataclass(frozen=True)
class PiecewiseRewardMap:
    """Right-closed piecewise-constant map from episode reward to weight value."""
    thresholds: tuple[float, ...] = (0.3, 0.7)
    values: tuple[float, ...] = (3.0, 2.0, 1.0)

    def __post_init__(self):
        if len(self.values) != len(self.thresholds) + 1:
            raise ValueError("need exactly one value per interval")
        if any(t2 <= t1 for t1, t2 in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError("thresholds must be strictly ascending")
        if any(not 0.0 < t < 1.0 for t in self.thresholds):
            raise ValueError("thresholds must lie inside (0, 1)")
        if any(v <= 0 for v in self.values):
            raise ValueError("values must be positive")
        if any(v2 > v1 for v1, v2 in zip(self.values, self.values[1:])):
            raise ValueError("values must be non-increasing in reward")


def f_value(f: PiecewiseRewardMap, reward: float) -> float:
    """Value of the interval containing the reward; intervals are right-closed."""
    if not 0.0 <= reward <= 1.0:
        raise ValueError(f"reward {reward} outside [0, 1]")
    for t, v in zip(f.thresholds, f.values):
        if reward <= t:
            return v
    return f.values[-1]


def sample_tasks(weights: dict[str, float], n: int, seed: int) -> list[str]:
    """Draw n task ids with replacement, probability proportional to weight."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ids = sorted(weights)
    w = np.array([weights[i] for i in ids], dtype=np.float64)
    p = w / w.sum()
    rng = rng_for(seed, "task-sample")
    draws = rng.choice(len(ids), size=n, replace=True, p=p)
    return [ids[int(k)] for k in draws]


class DemoStore:
    """Append-only set of trajectory files for one task, with an index."""

    def __init__(self, root: Path, task_id: str):
        self.task_id = task_id
        self.dir = Path(root) / task_id.replace("/", "_")
        self.dir.mkdir(parents=True, exist_ok=True)
        self.index_path = self.dir / "index.txt"
        if not self.index_path.exists():
            self.index_path.write_text("")

    def _entries(self) -> list[list[str]]:
        lines = self.index_path.read_text().splitlines()
        return [line.split("\t") for line in lines if line]

    def __len__(self) -> int:
        return len(self._entries())

    def sample_count(self) -> int:
        return sum(int(e[1]) for e in self._entries())

    def append(self, traj: Trajectory) -> Path:
        name = f"{len(self):05d}.traj"
        path = self.dir / name
        save_trajectory(traj, path)
        with open(self.index_path, "a", encoding="utf-8") as f:
            f.write(f"{name}\t{len(traj.steps)}\t{int(traj.success)}\t{digest_file(path)}\n")
        return path

    def trajectories(self) -> list[Trajectory]:
        """Every stored trajectory, decoded; a file that fails to decode
        raises a RuntimeError naming it."""
        trajs = []
        for e in self._entries():
            path = self.dir / e[0]
            try:
                trajs.append(load_trajectory(path))
            except Exception as err:
                raise RuntimeError(f"corrupt trajectory file {path}: {err}") from err
        return trajs

    def file_digests(self) -> dict[str, str]:
        return {e[0]: e[3] for e in self._entries()}


@dataclass
class DaggerState:
    weights: dict[str, float]
    stores: dict[str, DemoStore]
    # each task's training steps (policy.training_steps of its stored
    # trajectories, in store order); after a training, views of its union
    rows: dict[str, np.ndarray]
    iteration: int = 0

    def dataset_sizes(self) -> dict[str, int]:
        return {tid: len(s) for tid, s in sorted(self.stores.items())}


def init(stores: dict[str, DemoStore]) -> DaggerState:
    """Equal sampling weights over already-seeded demo stores, whose files
    are decoded here, once per run; a corrupt one raises a RuntimeError."""
    return DaggerState(weights={tid: 1.0 for tid in stores}, stores=stores, rows={
        tid: training_steps(np.concatenate([t.steps for t in s.trajectories()]))
        for tid, s in stores.items()})


def _default_rollout(task_id: str, seed: int, policy_params: PolicyParams,
                     config: ExperimentConfig):
    """Closed-loop evaluation returning (reward, failed, kept ticks)."""
    from .loop import NetPolicy, run_episode
    result = run_episode(task_id, NetPolicy(policy_params),
                         replace(config.loop, keep_ticks=True), seed=seed)
    return result.reward, not result.success, result.kept


def _default_relabel(task_id: str, visited) -> Trajectory | None:
    """Ask the expert for the correct action at every tick the learner
    visited; the relabeled ticks carry reward 0."""
    from .hcp import ConstraintError
    relabeled = []
    for v in visited[:RELABEL_MAX_STEPS]:
        try:
            a = expert_action(v.primitive, v.world)
        except (ExpertError, ConstraintError, KeyError) as e:
            log.warning("relabel skipped for %s: %s", task_id, e)
            return None
        relabeled.append(replace(v, action=a, reward=0.0))
    if not relabeled:
        return None
    return Trajectory(task_id=task_id, seed=-1, steps=pack_steps(relabeled), success=False,
                      final_tick=len(relabeled))


def _train_on_union(policy_params: PolicyParams, state: DaggerState,
                    config: ExperimentConfig):
    """Train on every task's rows, tasks in sorted order, seeded by the iteration."""
    tids = sorted(state.rows)
    union = np.concatenate([state.rows[t] for t in tids])
    # each task keeps views of the union, so training holds one copy of the rows
    ends = np.cumsum([len(state.rows[t]) for t in tids])
    state.rows.update(zip(tids, np.split(union, ends[:-1])))
    return train_policy(policy_params, Dataset(union["grid"], union["vec"], union["action"]),
                        config.train_epochs, config.train_lr,
                        seed=config.seed_base + state.iteration,
                        batch_size=config.batch_size, augment_cfg=config.augment)


def iterate(state: DaggerState, policy_params: PolicyParams,
            config: ExperimentConfig) -> tuple[DaggerState, PolicyParams, dict]:
    """One loop body: train, weighted-sample, test, reweight, relabel failures.

    Seeds, the training settings, ``dagger_n_eval``, ``dagger_f``,
    ``dagger_sample_budget`` and the rollout ``loop`` all come from config.
    """
    policy_params, train_metrics = _train_on_union(policy_params, state, config)

    sample_seed = int(rng_for(config.seed_base, "iter-sample", state.iteration).integers(1 << 31))
    sampled = sample_tasks(state.weights, config.dagger_n_eval, seed=sample_seed)
    tests: dict[str, list[float]] = {}
    failures: dict[str, list] = {}
    for k, tid in enumerate(sampled):
        ep_seed = int(rng_for(config.seed_base, "iter-eval", state.iteration, k).integers(1 << 31))
        reward, failed, visited = _default_rollout(tid, ep_seed, policy_params, config)
        tests.setdefault(tid, []).append(float(reward))
        if failed:
            failures.setdefault(tid, []).append(visited)

    new_weights = dict(state.weights)
    for tid, rewards in sorted(tests.items()):
        new_weights[tid] = float(np.mean([f_value(config.dagger_f, r) for r in rewards]))

    relabeled = {tid: 0 for tid in sorted(state.stores)}
    skipped = 0
    budget = config.dagger_sample_budget
    stored = sum(s.sample_count() for s in state.stores.values())
    for tid, visited in [(tid, v) for tid in sorted(failures) for v in failures[tid]]:
        if budget is not None and stored >= budget:
            break
        traj = _default_relabel(tid, visited)
        if traj is None:
            skipped += 1
            continue
        state.stores[tid].append(traj)
        state.rows[tid] = np.concatenate([state.rows[tid], training_steps(traj.steps)])
        stored += len(traj.steps)
        relabeled[tid] += 1

    new_state = replace(state, weights=new_weights, iteration=state.iteration + 1)
    metrics = {
        "iteration": state.iteration,
        "sampled": sampled,
        "tests": {k: list(v) for k, v in sorted(tests.items())},
        "successes": {k: sum(1 for r in v if r >= 1.0) for k, v in sorted(tests.items())},
        "weights": dict(sorted(new_weights.items())),
        "dataset_sizes": new_state.dataset_sizes(),
        "relabeled": relabeled,
        "relabel_skipped": skipped,
        "train_loss": train_metrics.get("loss", []),
    }
    return new_state, policy_params, metrics


def save_state(state: DaggerState, config: ExperimentConfig, path: Path) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "iteration": state.iteration,
        "n_eval": config.dagger_n_eval,
        "weights": dict(sorted(state.weights.items())),
        "f": {"thresholds": list(config.dagger_f.thresholds),
              "values": list(config.dagger_f.values)},
        "dataset_sizes": state.dataset_sizes(),
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
