#!/usr/bin/env python3
"""Closed-loop recovery: one injected transient grasp fault per episode,
retry budgets compared over seeded episodes.

Runs the scripted expert through robridge.harness.cmd_eval, the code the
CLI runs, and writes retry_0/ and retry_2/ (table.json, table.txt) to a
fresh temporary directory, whose path it prints.
"""

import argparse
import tempfile
from pathlib import Path

from robridge.harness import cmd_eval, config_from_dict
from robridge.loop import FaultConfig
from robridge.tasks import load_catalog


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--episodes", type=int, default=100)
    single_stage = [t.id for t in load_catalog().tasks.values() if not t.stages]
    ap.add_argument("--task", default="pick-place", choices=single_stage)
    ap.add_argument("--seed-base", type=int, default=70_000)
    args = ap.parse_args()

    work = Path(tempfile.mkdtemp(prefix="recovery_"))
    print(f"workdir: {work}")
    rates = {}
    for budget in (0, 2):
        cfg = config_from_dict({
            "schema_version": 1, "tasks": [args.task],
            "seeds": {"base": args.seed_base, "episodes": args.episodes},
            "loop": {"retry_budget": budget, "max_ticks": 600},
        })
        cfg.loop.fault = FaultConfig()
        table = cmd_eval(cfg, "expert", work / f"retry_{budget}")["table"]
        rates[budget] = table[args.task]["nominal"]
        print(f"retry_budget={budget}: success {rates[budget]:.3f}")
    print(f"recovery gain: {100*(rates[2]-rates[0]):+.1f} pp")


if __name__ == "__main__":
    main()
