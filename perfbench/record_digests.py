"""Record the expected artifacts of full-scale operations into digests.json.

    python3 perfbench/record_digests.py --workload expert_eval --seeds 0 1 2

Runs set-up and one untimed operation per seed and stores its episode and
tick totals and artifact digests. run.py checks every operation of a seed
found here against them. Re-record only when a change alters artifacts on
purpose (for example a change of float rounding), and say so.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, import_program, one_op, work_dir  # noqa: E402
from tracing import EPISODE_SITES, Tracer  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()
    os.chdir(ROOT)
    import_program()
    path = HERE / "digests.json"
    doc = json.loads(path.read_text()) if path.is_file() else {}
    for seed in args.seeds:
        work = work_dir(args.workload, "full", seed)
        shutil.rmtree(work, ignore_errors=True)
        prepare(args.workload, seed, "full", work / "prep0")
        rec = one_op(args.workload, work / "prep0", work / "out", Tracer(EPISODE_SITES))
        shutil.rmtree(work)
        doc.setdefault(args.workload, {})[str(seed)] = {
            k: rec[k] for k in ("episodes", "ticks", "digests")}
        print(args.workload, seed, rec["episodes"], rec["ticks"], flush=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
