"""Span tracing for the traced benchmark run, installed from outside the program.

The robridge modules import their collaborators by name (``loop`` does
``from .render import render``), so a function is wrapped at every module
attribute through which a caller looks it up, not only in its home module.
Wrappers are installed for the duration of a ``with tracer.installed():``
block and removed afterwards, so untraced operations in the same process run
the unmodified program.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


def _episode_info(args, kwargs, result):
    return {"ticks": int(result.ticks), "outcome": result.outcome,
            "success": bool(result.success)}


def _verdict_info(args, kwargs, result):
    return {"verdict": result.value}


def _rollout_expert_info(args, kwargs, result):
    return {"success": bool(result.success)}


def _train_info(args, kwargs, result):
    # train(params, dataset, epochs, ...): samples pushed through the step
    dataset = args[1] if len(args) > 1 else kwargs["dataset"]
    epochs = args[2] if len(args) > 2 else kwargs["epochs"]
    return {"samples": len(dataset) * int(epochs)}


def _dagger_rollout_info(args, kwargs, result):
    return {"failed": bool(result[1])}


def _relabel_info(args, kwargs, result):
    return {"relabeled": result is not None}


def _file_bytes_info(path_index):
    def info(args, kwargs, result):
        return {"bytes": os.path.getsize(args[path_index])}
    return info


# (module, attribute, span name, info function). Every lookup site the
# program uses for a traced function is listed; the span name is the
# function's home layer.
WRAP_SITES = [
    ("robridge.harness", "cmd_eval", "harness.cmd_eval", None),
    ("robridge.harness", "cmd_collect", "harness.cmd_collect", None),
    ("robridge.harness", "cmd_dagger", "harness.cmd_dagger", None),
    ("robridge.harness", "run_episode", "loop.run_episode", _episode_info),
    ("robridge.loop", "run_episode", "loop.run_episode", _episode_info),
    ("robridge.loop", "render", "render.render", None),
    ("robridge.loop", "frame_digest", "render.frame_digest", None),
    ("robridge.loop", "track_update", "observation.track_update", None),
    ("robridge.loop", "to_tensor", "observation.to_tensor", None),
    ("robridge.loop", "build", "observation.build", None),
    ("robridge.loop", "init_tracker", "observation.init_tracker", None),
    ("robridge.observation.ObsTensor", "to_bytes", "observation.to_bytes", None),
    ("robridge.loop", "step", "world.step", None),
    ("robridge.hcp", "plan", "hcp.plan", None),
    ("robridge.hcp", "ground", "hcp.ground", None),
    ("robridge.hcp", "check_status", "hcp.check_status", _verdict_info),
    ("robridge.loop", "expert_action", "experts.expert_action", None),
    ("robridge.dagger", "expert_action", "experts.expert_action", None),
    ("robridge.loop", "motion_plan_reach", "experts.motion_plan_reach", None),
    ("robridge.harness", "rollout_expert", "experts.rollout_expert", _rollout_expert_info),
    ("robridge.loop", "forward", "policy.forward", None),
    ("robridge.dagger", "train_policy", "policy.train", _train_info),
    ("robridge.policy", "loss_and_grad_arrays", "policy.loss_and_grad_arrays", None),
    ("robridge.policy.Dataset", "from_trajectories", "policy.Dataset.from_trajectories", None),
    ("robridge.augment", "apply_suite", "augment.apply_suite", None),
    ("robridge.dagger", "iterate", "dagger.iterate", None),
    ("robridge.dagger", "_default_rollout", "dagger.rollout", _dagger_rollout_info),
    ("robridge.dagger", "_default_relabel", "dagger.relabel", _relabel_info),
    ("robridge.dagger", "load_trajectory", "dagger.store_read", _file_bytes_info(0)),
    ("robridge.experts", "load_trajectory", "dagger.store_read", _file_bytes_info(0)),
    ("robridge.dagger", "save_trajectory", "dagger.store_write", _file_bytes_info(1)),
]

# Only the episode boundary: enough to count episodes and ticks in an
# untraced operation at one wrapper call per episode.
EPISODE_SITES = [s for s in WRAP_SITES if s[2] == "loop.run_episode"]


def _resolve(dotted: str):
    """Module or class object for a dotted path like robridge.policy.Dataset."""
    import importlib
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


class Tracer:
    """In-memory span recorder, safe to use from several threads at once.

    A span is ``(name, start, end, id, parent, episode, info)``. The parent
    is the innermost open span on the same thread; a thread that opens a
    span with nothing open on its own stack (a worker of the ``--jobs``
    pool) gets the outermost span open on any thread as its parent. The
    episode is the id of the enclosing ``loop.run_episode`` span, or 0.
    """

    def __init__(self, sites=WRAP_SITES):
        self.sites = sites
        self.spans: list[tuple] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._outer: list[int] = []

    def _wrap(self, fn, name, info_fn):
        tracer = self

        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.episode = 0
            with tracer._lock:
                sid = next(tracer._ids)
                if stack:
                    parent = stack[-1]
                else:
                    parent = tracer._outer[0] if tracer._outer else 0
                    tracer._outer.append(sid)
            outer_episode = local.episode
            episode = sid if name == "loop.run_episode" else outer_episode
            local.episode = episode
            stack.append(sid)
            info = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                end = time.perf_counter()
                if info_fn is not None:
                    info = info_fn(args, kwargs, result)
                return result
            except BaseException:
                # the loop catches grounding/build errors; their time still counts
                end = time.perf_counter()
                raise
            finally:
                stack.pop()
                local.episode = outer_episode
                with tracer._lock:
                    if not stack:
                        tracer._outer.remove(sid)
                    tracer.spans.append((name, start, end, sid, parent, episode, info))

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every site for the duration of the block, then restore it."""
        restore = []
        try:
            for owner_path, attr, name, info_fn in self.sites:
                owner = _resolve(owner_path)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, info_fn))
                else:
                    wrapped = self._wrap(raw, name, info_fn)
                setattr(owner, attr, wrapped)
                restore.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[tuple]) -> dict:
    """Per span name: calls, total ms, self ms (span minus the union of its
    children), plus the span infos needed for the layer counters."""
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append((s[1], s[2]))
    by_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0,
                                                    "infos": []})
    for name, start, end, sid, _parent, _episode, info in spans:
        agg = by_name[name]
        dur = end - start
        agg["calls"] += 1
        agg["ms"] += dur * 1e3
        agg["self_ms"] += (dur - _covered(children.get(sid, []), start, end)) * 1e3
        if info is not None:
            agg["infos"].append(info)
    return dict(by_name)
