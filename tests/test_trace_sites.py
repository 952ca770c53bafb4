"""Every lookup site the benchmark's span tracer wraps must exist, and the
program must call through it.

perfbench/tracing.py wraps functions at the module attributes through which
the program looks them up. A rename in the program silently breaks a traced
benchmark run; this test catches it by reading the site list from the file
and resolving each (module, attribute) pair.
"""

import ast
import importlib
from pathlib import Path

from robridge import dagger, experts, loop
from robridge.harness import ExperimentConfig
from robridge.policy import init_params

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _wrap_sites() -> list[tuple[str, str]]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "WRAP_SITES" for t in node.targets)):
            return [(el.elts[0].value, el.elts[1].value) for el in node.value.elts]
    raise AssertionError(f"no WRAP_SITES list in {TRACING}")


def _owner(dotted: str):
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


def test_every_wrap_site_resolves():
    sites = _wrap_sites()
    assert sites
    missing = [f"{owner}.{attr}" for owner, attr in sites
               if not callable(getattr(_owner(owner), attr, None))]
    assert not missing, f"tracer sites the program no longer has: {missing}"


def test_rollouts_look_up_run_episode_at_call_time(monkeypatch):
    # the benchmark counts untraced episodes and ticks by wrapping
    # robridge.loop.run_episode; demo collection and DAgger rollouts import
    # it inside the function, so each call goes through the wrapper
    real, calls = loop.run_episode, []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(loop, "run_episode", counted)
    experts.rollout_expert("press-button", 0)
    config = ExperimentConfig(tasks=["press-button"], loop=loop.LoopConfig(max_ticks=20))
    dagger._default_rollout("press-button", 0, init_params(0), config)
    assert len(calls) == 2
