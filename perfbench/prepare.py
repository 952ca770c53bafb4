"""Benchmark set-up in a fresh interpreter, timed from before the first
robridge import: imports, catalog load, config and checkpoint generation.

    python3 perfbench/prepare.py --workload NAME --seed N --scale full --out DIR

Prints ``{"setup_s": ...}`` as its last line. run.py starts it several times
per run and reports the median, so set-up time includes what a user pays on
every start of the program.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import import_program  # noqa: E402
from workloads import SCALES, WORKLOADS, prepare  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full", choices=SCALES)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    import_program()
    from robridge.tasks import load_catalog
    load_catalog()
    prepare(args.workload, args.seed, args.scale, Path(args.out))
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
