"""Per-layer metrics computed from the spans of one traced operation.

PER_LAYER lists every metric with its unit and which direction is better;
BENCHMARK.json's ``per_layer`` list is this list. A layer that a workload
does not exercise reports zero calls and zero time: those zeros are the
predictions README.md states (e.g. no ``policy.forward`` on expert_eval).
"""

from __future__ import annotations

from tracing import summarize

# (span name, with us_per_call, with self_ms)
TIMED = [
    ("loop.run_episode", False, True),
    ("render.render", True, False),
    ("render.frame_digest", False, False),
    ("observation.track_update", True, False),
    ("observation.to_tensor", True, False),
    ("observation.build", False, False),
    ("observation.init_tracker", False, False),
    ("observation.to_bytes", False, False),
    ("world.step", True, False),
    ("hcp.plan", False, False),
    ("hcp.ground", False, False),
    ("hcp.check_status", False, False),
    ("experts.expert_action", False, False),
    ("experts.motion_plan_reach", False, False),
    ("experts.rollout_expert", False, False),
    ("policy.forward", True, False),
    ("policy.train", False, True),
    ("policy.loss_and_grad_arrays", False, False),
    ("policy.Dataset.from_trajectories", False, False),
    ("augment.apply_suite", True, False),
    ("dagger.iterate", False, False),
]

DERIVED = [
    ("loop.ticks", "count", "lower"),
    ("loop.outcome.done", "count", "higher"),
    ("loop.outcome.failed", "count", "lower"),
    ("loop.outcome.max_ticks", "count", "lower"),
    ("loop.success_ratio", "ratio", "higher"),
    ("hcp.verdict.success", "count", "higher"),
    ("hcp.verdict.wrong", "count", "lower"),
    ("hcp.verdict.normal", "count", "lower"),
    ("experts.demo_success_ratio", "ratio", "higher"),
    ("policy.train.samples_per_s", "1/s", "higher"),
    ("dagger.rollout_ms", "ms", "lower"),
    ("dagger.relabel_ms", "ms", "lower"),
    ("dagger.failed_rollouts", "count", "lower"),
    ("dagger.relabeled", "count", "higher"),
    ("dagger.relabel_skipped", "count", "lower"),
    ("dagger.relabel_ratio", "ratio", "higher"),
    ("dagger.store_read.calls", "count", "lower"),
    ("dagger.store_read.bytes", "B", "lower"),
    ("dagger.store_read.ms", "ms", "lower"),
    ("dagger.store_write.calls", "count", "lower"),
    ("dagger.store_write.bytes", "B", "lower"),
    ("dagger.store_write.ms", "ms", "lower"),
    ("harness.cmd_eval.ms", "ms", "lower"),
    ("harness.concurrency", "ratio", "higher"),
    ("harness.cmd_collect.ms", "ms", "lower"),
    ("harness.cmd_dagger.iter_ms", "ms", "lower"),
    ("trace.untraced_op_ms", "ms", "lower"),
    ("trace.traced_op_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def _spec() -> list[tuple[str, str, str]]:
    out = []
    for name, per_call, self_time in TIMED:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.ms", "ms", "lower"))
        if per_call:
            out.append((f"{name}.us_per_call", "us", "lower"))
        if self_time:
            out.append((f"{name}.self_ms", "ms", "lower"))
    return out + DERIVED


PER_LAYER = _spec()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[tuple]) -> dict[str, tuple[float, str]]:
    """Every PER_LAYER metric except the trace.* ones, as (value, unit)."""
    s = summarize(spans)
    empty = {"calls": 0, "ms": 0.0, "self_ms": 0.0, "infos": []}

    def get(name: str) -> dict:
        return s.get(name, empty)

    m: dict[str, tuple[float, str]] = {}
    for name, per_call, self_time in TIMED:
        agg = get(name)
        m[f"{name}.calls"] = (agg["calls"], "count")
        m[f"{name}.ms"] = (agg["ms"], "ms")
        if per_call:
            m[f"{name}.us_per_call"] = (_ratio(agg["ms"] * 1e3, agg["calls"]), "us")
        if self_time:
            m[f"{name}.self_ms"] = (agg["self_ms"], "ms")

    episodes = get("loop.run_episode")["infos"]
    m["loop.ticks"] = (sum(e["ticks"] for e in episodes), "count")
    for outcome in ("done", "failed", "max_ticks"):
        m[f"loop.outcome.{outcome}"] = (sum(e["outcome"] == outcome for e in episodes), "count")
    m["loop.success_ratio"] = (_ratio(sum(e["success"] for e in episodes), len(episodes)), "ratio")

    verdicts = [i["verdict"] for i in get("hcp.check_status")["infos"]]
    for v in ("success", "wrong", "normal"):
        m[f"hcp.verdict.{v}"] = (verdicts.count(v), "count")

    demos = get("experts.rollout_expert")["infos"]
    m["experts.demo_success_ratio"] = (_ratio(sum(d["success"] for d in demos), len(demos)), "ratio")

    train = get("policy.train")
    samples = sum(i["samples"] for i in train["infos"])
    m["policy.train.samples_per_s"] = (_ratio(samples, train["ms"] / 1e3), "1/s")

    rollouts = get("dagger.rollout")
    relabels = get("dagger.relabel")
    failed = sum(i["failed"] for i in rollouts["infos"])
    relabeled = sum(i["relabeled"] for i in relabels["infos"])
    m["dagger.rollout_ms"] = (rollouts["ms"], "ms")
    m["dagger.relabel_ms"] = (relabels["ms"], "ms")
    m["dagger.failed_rollouts"] = (failed, "count")
    m["dagger.relabeled"] = (relabeled, "count")
    m["dagger.relabel_skipped"] = (relabels["calls"] - relabeled, "count")
    m["dagger.relabel_ratio"] = (_ratio(relabeled, failed), "ratio")
    for io in ("store_read", "store_write"):
        agg = get(f"dagger.{io}")
        m[f"dagger.{io}.calls"] = (agg["calls"], "count")
        m[f"dagger.{io}.bytes"] = (sum(i["bytes"] for i in agg["infos"]), "B")
        m[f"dagger.{io}.ms"] = (agg["ms"], "ms")

    cmd_eval = get("harness.cmd_eval")
    in_eval = {sp[3] for sp in spans if sp[0] == "harness.cmd_eval"}
    eval_episode_ms = sum((sp[2] - sp[1]) * 1e3 for sp in spans
                          if sp[0] == "loop.run_episode" and sp[4] in in_eval)
    m["harness.cmd_eval.ms"] = (cmd_eval["ms"], "ms")
    m["harness.concurrency"] = (_ratio(eval_episode_ms, cmd_eval["ms"]), "ratio")
    m["harness.cmd_collect.ms"] = (get("harness.cmd_collect")["ms"], "ms")
    dagger_cmd = get("harness.cmd_dagger")
    m["harness.cmd_dagger.iter_ms"] = (_ratio(dagger_cmd["ms"], get("dagger.iterate")["calls"]), "ms")
    return m
