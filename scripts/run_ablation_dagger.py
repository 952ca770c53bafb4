#!/usr/bin/env python3
"""Adaptive-sampling DAgger vs plain behavior cloning at equal sample budgets.

Trains both policies from scratch through robridge.harness, the code the
CLI runs, then reports mean success over the five generalization suites.
The budget is the BC arm's stored steps, reach ticks included: the unit
DAgger checks before each relabel. Expect roughly half an hour.

Writes to the workdir: bc/ (stores, manifest.json, bc/checkpoint.bin),
dagger/ (stores, manifest.json, dagger/iter_NN/, dagger/report.txt), and
eval_bc/ and eval_dagger/ (table.json, table.txt).
"""

import argparse
import tempfile
from dataclasses import asdict
from pathlib import Path

from robridge.augment import training_augment
from robridge.harness import cmd_bc, cmd_collect, cmd_dagger, cmd_eval, config_from_dict
from robridge.tasks import SUITE_NAMES, load_catalog


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--episodes", type=int, default=20, help="eval episodes per (task, suite)")
    ap.add_argument("--seed-base", type=int, default=50_000)
    ap.add_argument("--workdir", default=None)
    args = ap.parse_args()

    work = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp(prefix="ablation_dagger_"))
    print(f"workdir: {work}")
    train = {"schema_version": 1, "tasks": load_catalog().training_ids(),
             "augment": asdict(training_augment()), "loop": {"max_ticks": 400}}

    bc_cfg = config_from_dict({**train, "demos_per_task": 10,
                               "gea": {"epochs": 120, "lr": 1e-3}})
    manifest = cmd_collect(bc_cfg, work / "bc")
    budget = sum(t["samples"] for t in manifest["tasks"].values())
    print(f"sample budget: {budget} stored steps")
    checkpoints = {"bc": cmd_bc(bc_cfg, work / "bc")["checkpoint"]}

    dg_cfg = config_from_dict({**train, "demos_per_task": 5,
                               "gea": {"epochs": 12, "lr": 1e-3},
                               "dagger": {"n_eval": 10, "iterations": 10,
                                          "sample_budget": budget}})
    cmd_collect(dg_cfg, work / "dagger")
    checkpoints["dagger"] = cmd_dagger(dg_cfg, work / "dagger")["checkpoint"]

    eval_cfg = config_from_dict({**train, "suites": list(SUITE_NAMES),
                                 "seeds": {"base": args.seed_base, "episodes": args.episodes}})
    means = {}
    for name, checkpoint in checkpoints.items():
        table = cmd_eval(eval_cfg, checkpoint, work / f"eval_{name}")["table"]
        rates = {s: sum(row[s] for row in table.values()) / len(table) for s in SUITE_NAMES}
        means[name] = sum(rates.values()) / len(rates)
        print(f"{name:7s} " + "  ".join(f"{s}={v:.3f}" for s, v in rates.items())
              + f"  mean={means[name]:.3f}")
    print(f"dagger - bc mean gap: {(means['dagger'] - means['bc'])*100:+.1f} percentage points")


if __name__ == "__main__":
    main()
