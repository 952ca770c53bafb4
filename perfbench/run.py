"""robridge benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload expert_eval --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; robridge is imported from its
``src/`` directory and nowhere else. With ``--trace 0`` the run repeats the
workload's operation untraced until ``--seconds`` are used and reports the
end-to-end metrics as medians over operations. With ``--trace 1`` it runs
pairs of (untraced, traced) operations and reports the per-layer metrics and
the tracing overhead. Every operation's artifacts are checked against the
first operation's, and against the digests in digests.json when the seed has
them. The last line of standard output is the JSON result; lines before it
record the environment (``env``), phase timings (``detail``) and the digests
(``digests``). Work files go to ``.perfbench_runs/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
sys.path.insert(0, str(HERE))

from layers import layer_metrics  # noqa: E402
from tracing import EPISODE_SITES, Tracer  # noqa: E402
from workloads import SCALES, WORKLOADS, eval_jobs, expected_episodes, make_config, nproc, run_op  # noqa: E402

SETUP_REPEATS = 3
# per-layer metrics in these units must repeat exactly between operations
EXACT_UNITS = ("count", "B")
SETUP_TIMEOUT_S = 170
WARMUP_S = 2.0


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import robridge from this checkout's src/ only."""
    pkg = SRC / "robridge"
    if not (pkg / "__init__.py").is_file():
        raise ProgramMissing(f"no robridge sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import robridge
    if Path(robridge.__file__).resolve().parent != pkg.resolve():
        raise ProgramMissing(f"robridge imported from {robridge.__file__}, not {pkg}")
    return robridge


# ---------------------------------------------------------------------------
# environment

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    """BLAS library numpy was built against and its current thread count."""
    import ctypes

    import numpy as np
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (AttributeError, KeyError):
        pass
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return info
    libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower() and ".so" in ln})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = int(fn())
                return info
    return info


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(jobs: int) -> dict:
    import numpy
    import scipy
    blas = _blas()
    threads = jobs * (blas["threads"] or 1)
    return {
        "nproc": nproc(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas["name"], "blas_version": blas["version"],
        "blas_threads": blas["threads"], "jobs": jobs,
        "compute_threads": threads, "threads_exceed_cores": threads > nproc(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# set-up

def run_setups(workload: str, seed: int, scale: str, work: Path):
    """Run prepare.py SETUP_REPEATS times in fresh interpreters. Returns the
    set-up times, the directory to use, and the repeats whose outputs
    differ from the first one's."""
    times, dirs = [], []
    for k in range(SETUP_REPEATS):
        out = work / f"prep{k}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), "--workload", workload,
             "--seed", str(seed), "--scale", scale, "--out", str(out)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up exited with {proc.returncode}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        dirs.append(out)
    first = {p.name: p.read_bytes() for p in sorted(dirs[0].iterdir())}
    mismatched = [k for k, d in enumerate(dirs[1:], 1)
                  if {p.name: p.read_bytes() for p in sorted(d.iterdir())} != first]
    return times, dirs[0], mismatched


# ---------------------------------------------------------------------------
# operations

def one_op(workload: str, prep: Path, out: Path, tracer: Tracer) -> dict:
    """Run one operation under the given tracer (EPISODE_SITES for an
    untraced operation: one wrapper call per episode, to count ticks)."""
    with tracer.installed():
        rec = run_op(workload, prep, out)
    episodes = [s[6] for s in tracer.spans if s[0] == "loop.run_episode"]
    rec["episodes"] = len(episodes)
    rec["ticks"] = sum(e["ticks"] for e in episodes)
    return rec


def _check(rec: dict, ref: dict | None, recorded: dict | None, expected_eps: int | None) -> list:
    problems = []
    if expected_eps is not None and rec["episodes"] != expected_eps:
        problems.append(f"ran {rec['episodes']} episodes, expected {expected_eps}")
    for label, want in (("first operation", ref), ("recorded digests", recorded)):
        if want is None:
            continue
        for key in ("episodes", "ticks", "digests"):
            if rec[key] != want[key]:
                problems.append(f"{key} differ from the {label}: {rec[key]} != {want[key]}")
    return problems


def load_recorded(workload: str, seed: int, scale: str) -> dict | None:
    path = HERE / "digests.json"
    if scale != "full" or not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def work_dir(workload: str, scale: str, seed: int) -> Path:
    """Scratch directory of a run. Its path is the same for every run of a
    seed, traced or not, because table.json records the checkpoint path."""
    return RUNS / f"{workload}-{scale}-s{seed}.work"


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    """Set up, run operations for ``seconds``, check them; returns the result
    document (the printed JSON plus environment and details)."""
    work = work_dir(workload, scale, seed)
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        return _measure(workload, seed, seconds, trace, scale, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def warm_cpu(seconds: float = WARMUP_S) -> None:
    """Keep the CPU busy before anything is timed. On the 2-vCPU VM the
    benchmark was built on, the first ~2 s of work after an idle spell run
    at about half speed."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        sum(i * i for i in range(10_000))


def _measure(workload, seed, seconds, trace, scale, work):
    warm_cpu()
    setup_times, prep, setup_bad = run_setups(workload, seed, scale, work)
    problems = [f"set-up repeat {k} wrote different files than repeat 0" for k in setup_bad]
    attempted, failed = len(setup_times), len(setup_bad)

    recorded = load_recorded(workload, seed, scale)
    expected_eps = expected_episodes(make_config(workload, seed, scale))
    plain, traced = [], []
    ref = None
    ref_counts = None
    deadline = time.perf_counter() + seconds
    while True:
        pair_start = time.perf_counter()
        # a traced run alternates which side of the pair runs first
        kinds = ((False, True) if len(traced) % 2 == 0 else (True, False)) if trace else (False,)
        for with_trace in kinds:
            attempted += 1
            tracer = Tracer() if with_trace else Tracer(EPISODE_SITES)
            try:
                rec = one_op(workload, prep, work / "out", tracer)
            except Exception:
                traceback.print_exc()
                failed += 1
                problems.append("operation raised " + traceback.format_exc().splitlines()[-1])
                break
            bad = _check(rec, ref, recorded, expected_eps)
            ref = ref or rec
            if with_trace:
                rec["spans"] = tracer.spans
                rec["layers"] = layer_metrics(tracer.spans)
                counts = {k: v for k, (v, unit) in rec["layers"].items() if unit in EXACT_UNITS}
                if ref_counts is not None and counts != ref_counts:
                    bad.append("per-layer counts differ between traced operations")
                ref_counts = ref_counts or counts
                traced.append(rec)
            else:
                plain.append(rec)
            if bad:
                failed += 1
                problems.extend(bad)
        else:
            spent = time.perf_counter() - pair_start
            if time.perf_counter() + spent <= deadline:
                continue
        break

    if not plain or (trace and not traced):
        raise RuntimeError("no operation completed: " + "; ".join(problems))
    walls = [r["wall_s"] for r in plain]
    if trace:
        metrics = traced_metrics(plain, traced)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "eps_per_s": (statistics.median(r["episodes"] / r["wall_s"] for r in plain), "1/s"),
            "ms_per_tick": (statistics.median(r["wall_s"] * 1e3 / r["ticks"] for r in plain), "ms"),
            "op_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    detail = {
        "workload": workload, "seed": seed, "scale": scale, "operations": len(plain) + len(traced),
        "episodes": plain[0]["episodes"], "ticks": plain[0]["ticks"],
        "setup_s_each": setup_times, "op_s_each": walls,
        "phases": {k: statistics.median(r["phases"][k] for r in plain) for k in plain[0]["phases"]},
        "recorded_digests": recorded is not None,
    }
    return {
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
        "detail": detail, "problems": problems,
        "digests": {"episodes": plain[0]["episodes"], "ticks": plain[0]["ticks"],
                    "digests": plain[0]["digests"]},
        "spans": traced[0]["spans"] if traced else None,
    }


def traced_metrics(plain: list, traced: list) -> dict:
    """Per-layer metrics of the traced operations (counts from the first,
    which the checks require to repeat; times averaged) plus overhead."""
    metrics = {}
    for name, (value, unit) in traced[0]["layers"].items():
        if unit not in EXACT_UNITS:
            value = statistics.fmean(r["layers"][name][0] for r in traced)
        metrics[name] = (value, unit)
    untraced_ms = statistics.median(r["wall_s"] for r in plain) * 1e3
    traced_ms = statistics.median(r["wall_s"] for r in traced) * 1e3
    metrics["trace.untraced_op_ms"] = (untraced_ms, "ms")
    metrics["trace.traced_op_ms"] = (traced_ms, "ms")
    metrics["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")
    metrics["trace.overhead_pct"] = (100.0 * (traced_ms - untraced_ms) / untraced_ms, "%")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=SCALES, default="full",
                    help="smoke: smallest inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    os.chdir(ROOT)    # the checkpoint is passed to the program relative to the root
    try:
        import_program()
    except (ProgramMissing, ImportError) as e:
        print(f"perfbench: cannot import the program: {e}", file=sys.stderr)
        return 2

    doc = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    doc["env"] = environment(eval_jobs(args.workload))
    RUNS.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.scale}-s{args.seed}-t{args.trace}"
    if doc["spans"] is not None:
        (RUNS / f"{stem}.spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "id", "parent", "episode", "info"],
             "spans": doc.pop("spans")}, separators=(",", ":")))
    else:
        doc.pop("spans")
    (RUNS / f"{stem}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for problem in doc["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print("env " + json.dumps(doc["env"], sort_keys=True))
    print("detail " + json.dumps(doc["detail"], sort_keys=True))
    print("digests " + json.dumps(doc["digests"], sort_keys=True))
    print(json.dumps(doc["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
