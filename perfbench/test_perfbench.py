"""Self-tests of the benchmark, at the smallest scale.

    python3 -m pytest -q perfbench

Each test starts run.py the way the benchmark is driven: a separate process
from the checkout root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from run import EXACT_UNITS, RUNS  # noqa: E402
from tracing import Tracer, _covered, summarize  # noqa: E402
from workloads import WORKLOADS, eval_jobs  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def _result(workload: str, trace: int) -> dict:
    code, lines = _run(workload, trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _spans(workload: str) -> list[tuple]:
    doc = json.loads((RUNS / f"{workload}-smoke-s{SEED}-t1.spans.json").read_text())
    return [tuple(s) for s in doc["spans"]]


def test_benchmark_json_lists_what_the_benchmark_reports():
    assert BENCH["per_layer"] == [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER]
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    metrics = _result(workload, 0)["metrics"]
    assert list(metrics) == [m["name"] for m in BENCH["end_to_end"]]
    for m in BENCH["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_report_every_layer_and_repeat_counts(workload):
    runs = [_result(workload, 1)["metrics"] for _ in range(2)]
    for metrics in runs:
        assert list(metrics) == [m["name"] for m in BENCH["per_layer"]]
        for m in BENCH["per_layer"]:
            assert metrics[m["name"]]["unit"] == m["unit"]
    exact = [m["name"] for m in BENCH["per_layer"] if m["unit"] in EXACT_UNITS]
    assert {k: runs[0][k] for k in exact} == {k: runs[1][k] for k in exact}
    assert runs[0]["loop.ticks"]["value"] > 0

    # self times of every span inside the episodes add up to the episodes' wall
    spans = _spans(workload)
    episode_ids = {s[3] for s in spans if s[0] == "loop.run_episode"}
    inside = [s for s in spans if s[5] in episode_ids]
    self_ms = sum(v["self_ms"] for v in summarize(inside).values())
    episode_ms = sum((s[2] - s[1]) * 1e3 for s in spans if s[0] == "loop.run_episode")
    assert self_ms == pytest.approx(episode_ms, rel=1e-6)
    # episodes overlap only on the --jobs pool
    traced = runs[1]
    assert (traced["loop.run_episode.ms"]["value"]
            <= traced["trace.traced_op_ms"]["value"] * eval_jobs(workload))


def test_run_fails_without_the_program():
    bare = RUNS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    try:
        code, lines = _run("expert_eval", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_covered_merges_overlapping_children():
    assert _covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == 4.0
    assert _covered([(0.0, 2.0), (1.0, 3.0)], 1.5, 2.5) == 1.0
    assert _covered([], 0.0, 1.0) == 0.0


def _leaf(x):
    time.sleep(0.001)
    return x


def _outer(n):
    return [_leaf(i) for i in range(n)]


def test_tracer_is_thread_safe_and_restores_functions():
    mod = sys.modules[__name__]
    sites = [(__name__, "_outer", "outer", None), (__name__, "_leaf", "leaf", None)]
    tracer = Tracer(sites)
    original = mod._leaf
    with tracer.installed():
        threads = [threading.Thread(target=lambda: mod._outer(20)) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    assert mod._leaf is original
    by_parent = defaultdict(int)
    for name, _s, _e, sid, parent, _ep, _info in tracer.spans:
        if name == "leaf":
            by_parent[parent] += 1
    outers = [s[3] for s in tracer.spans if s[0] == "outer"]
    assert sorted(by_parent) == sorted(outers)
    assert all(by_parent[o] == 20 for o in outers)
    assert len({s[3] for s in tracer.spans}) == len(tracer.spans) == 84
