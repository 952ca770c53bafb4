#!/usr/bin/env python3
"""Evaluate a checkpoint (or the scripted expert) over tasks x suites.

Runs robridge.harness.cmd_eval, the code the CLI runs, and writes
table.json and table.txt (plus stages.txt for multi-stage tasks) to --out.

Example:
    python scripts/run_generalization_eval.py --checkpoint expert --episodes 20
    python scripts/run_generalization_eval.py --checkpoint out/dagger/iter_09/checkpoint.bin
"""

import argparse
from pathlib import Path

from robridge.harness import cmd_eval, config_from_dict


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--checkpoint", default="expert")
    ap.add_argument("--episodes", type=int, default=20)
    ap.add_argument("--seed-base", type=int, default=10_000)
    ap.add_argument("--suites", nargs="+",
                    default=["nominal", "unseen_background", "unseen_light",
                             "unseen_color", "unseen_camera"])
    ap.add_argument("--tasks", nargs="+", default=None)
    ap.add_argument("--out", default="out/eval")
    args = ap.parse_args()

    from robridge.tasks import load_catalog
    tasks = args.tasks or load_catalog().training_ids()
    cfg = config_from_dict({
        "schema_version": 1,
        "tasks": tasks,
        "suites": args.suites,
        "seeds": {"base": args.seed_base, "episodes": args.episodes},
        "loop": {"max_ticks": 400},
    })
    cmd_eval(cfg, args.checkpoint, Path(args.out))
    print((Path(args.out) / "table.txt").read_text())


if __name__ == "__main__":
    main()
