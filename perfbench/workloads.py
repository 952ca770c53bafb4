"""The three benchmark workloads: configs generated from the seed, the set-up
each needs, one timed operation, and the artifacts whose digests are checked.

Every workload drives robridge only through ``harness.cmd_eval``,
``harness.cmd_collect`` and ``harness.cmd_dagger``; the program receives
only the generated config file (and, for ``policy_eval``, a checkpoint).
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

WORKLOADS = ("expert_eval", "policy_eval", "train_pipeline")
SCALES = ("full", "smoke")

ALL_TASKS = ["pick-place", "press-button", "open-drawer", "close-drawer", "push-block",
             "pull-handle", "turn-dial", "sweep-into", "place-in-slot", "reach-target",
             "bin-pick", "plate-slide", "press-handle", "pick-insert"]
TRAINING_TASKS = ALL_TASKS[:10]
# pick-insert is staged: cmd_eval runs it through run_long_horizon on the
# nominal suite only, whatever suites the config lists.
STAGED_TASKS = {"pick-insert"}

# Demonstrations behind the policy_eval checkpoint, and how long it trains.
CHECKPOINT_DEMO_TASKS = ["pick-place", "open-drawer"]
CHECKPOINT_EPOCHS = 2
CHECKPOINT_LR = 1e-3


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def eval_jobs(workload: str) -> int:
    return min(2, nproc()) if workload == "policy_eval" else 1


def make_config(workload: str, seed: int, scale: str = "full") -> dict:
    """The robridge experiment config for a workload, derived from the seed."""
    smoke = scale == "smoke"
    doc = {"schema_version": 1, "seeds": {"base": int(seed), "episodes": 1}}
    if workload == "expert_eval":
        doc["tasks"] = ["press-button", "pick-insert"] if smoke else list(ALL_TASKS)
        doc["suites"] = ["nominal", "unseen_camera"]
    elif workload == "policy_eval":
        doc["tasks"] = TRAINING_TASKS[:2] if smoke else list(TRAINING_TASKS)
        doc["suites"] = ["nominal"]
        doc["loop"] = {"max_ticks": 60 if smoke else 150}
    elif workload == "train_pipeline":
        doc["tasks"] = ["press-button"] if smoke else ["pick-place", "open-drawer", "turn-dial"]
        doc["demos_per_task"] = 1
        doc["gea"] = {"epochs": 1 if smoke else 3, "lr": 1e-3}
        doc["dagger"] = {"n_eval": 1 if smoke else 3, "iterations": 1 if smoke else 2}
        doc["augment"] = {"seed": int(seed)}
        doc["loop"] = {"max_ticks": 60}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return doc


def expected_episodes(doc: dict) -> int | None:
    """Episodes one cmd_eval runs for the config; None for train_pipeline,
    whose count depends on how many expert demos succeed."""
    if "dagger" in doc:
        return None
    eps = doc["seeds"]["episodes"]
    plain = [t for t in doc["tasks"] if t not in STAGED_TASKS]
    staged = [t for t in doc["tasks"] if t in STAGED_TASKS]
    return len(plain) * len(doc["suites"]) * eps + len(staged) * eps


def prepare(workload: str, seed: int, scale: str, out: Path) -> None:
    """Set-up: write the config and, for policy_eval, a learned checkpoint
    trained deterministically from the seed on a few expert demos."""
    from robridge import harness
    from robridge.experts import rollout_expert
    from robridge.policy import Dataset, init_params, save_params, train

    out.mkdir(parents=True, exist_ok=True)
    doc = make_config(workload, seed, scale)
    harness.config_from_dict(doc)    # validates against the catalog
    (out / "config.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    if workload == "policy_eval":
        demos = [rollout_expert(tid, seed * 7919 + k)
                 for k, tid in enumerate(CHECKPOINT_DEMO_TASKS[:1 if scale == "smoke" else None])]
        params, _ = train(init_params(seed), Dataset.from_trajectories(demos),
                          CHECKPOINT_EPOCHS, CHECKPOINT_LR, seed=seed)
        save_params(params, out / "checkpoint.bin")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_op(workload: str, prep: Path, out: Path) -> dict:
    """One operation of the workload; returns its phase walls in seconds and
    the digests of the artifacts it wrote. ``out`` is emptied first."""
    import time

    from robridge import harness

    if out.exists():
        shutil.rmtree(out)
    config = harness.load_config(prep / "config.json")
    if workload in ("expert_eval", "policy_eval"):
        # relative to the checkout root, so table.json does not depend on where it lives
        checkpoint = ("expert" if workload == "expert_eval"
                      else os.path.relpath(prep / "checkpoint.bin"))
        t0 = time.perf_counter()
        harness.cmd_eval(config, checkpoint, out, jobs=eval_jobs(workload))
        wall = time.perf_counter() - t0
        return {"wall_s": wall, "phases": {"eval_s": wall},
                "digests": {"table.json": sha256_file(out / "table.json")}}
    t0 = time.perf_counter()
    harness.cmd_collect(config, out)
    t1 = time.perf_counter()
    result = harness.cmd_dagger(config, out)
    t2 = time.perf_counter()
    digests = {"manifest.json": sha256_file(out / "manifest.json")}
    for it in range(config.dagger_iterations):
        name = f"dagger/iter_{it:02d}/metrics.json"
        digests[name] = sha256_file(out / name)
    digests["checkpoint.bin"] = sha256_file(Path(result["checkpoint"]))
    return {"wall_s": t2 - t0,
            "phases": {"collect_s": t1 - t0,
                       "iter_s": (t2 - t1) / config.dagger_iterations},
            "digests": digests}
