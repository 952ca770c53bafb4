#!/usr/bin/env python3
"""Two-stage domain randomization vs none, scored on the unseen-camera suite.

"Randomized": demos collected under scene randomization plus mask/depth
corruption during training. "Plain": fixed nominal scenes, no corruption.
Both arms run through robridge.harness, the code the CLI runs.

Writes to the workdir: rand/ and plain/ (stores, manifest.json,
bc/checkpoint.bin), and eval_rand/ and eval_plain/ (table.json, table.txt).
"""

import argparse
import tempfile
from dataclasses import asdict
from pathlib import Path

from robridge.augment import training_augment
from robridge.harness import cmd_bc, cmd_collect, cmd_eval, config_from_dict
from robridge.tasks import load_catalog

SUITES = ("nominal", "unseen_camera")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--episodes", type=int, default=20, help="eval episodes per task")
    ap.add_argument("--seed-base", type=int, default=60_000)
    ap.add_argument("--workdir", default=None)
    args = ap.parse_args()

    work = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp(prefix="ablation_rand_"))
    print(f"workdir: {work}")
    train = {"schema_version": 1, "tasks": load_catalog().training_ids(),
             "demos_per_task": 10, "gea": {"epochs": 120, "lr": 1e-3}}
    arms = {
        "rand": config_from_dict({**train, "augment": asdict(training_augment())}),
        "plain": config_from_dict({**train, "expert_randomization": None}),
    }
    eval_cfg = config_from_dict({**train, "suites": list(SUITES), "loop": {"max_ticks": 400},
                                 "seeds": {"base": args.seed_base, "episodes": args.episodes}})
    rates = {}
    for name, cfg in arms.items():
        cmd_collect(cfg, work / name)
        checkpoint = cmd_bc(cfg, work / name)["checkpoint"]
        table = cmd_eval(eval_cfg, checkpoint, work / f"eval_{name}")["table"]
        rates[name] = {s: sum(row[s] for row in table.values()) / len(table) for s in SUITES}
    for suite in SUITES:
        r, p = rates["rand"][suite], rates["plain"][suite]
        print(f"{suite:14s} randomized={r:.3f} plain={p:.3f} gap={100*(r-p):+.1f} pp")


if __name__ == "__main__":
    main()
