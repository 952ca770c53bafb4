"""Every lookup site the benchmark's span tracer wraps must exist.

perfbench/tracing.py wraps functions at the module attributes through which
the program looks them up. A rename in the program silently breaks a traced
benchmark run; this test catches it by reading the site list from the file
and resolving each (module, attribute) pair.
"""

import ast
import importlib
from pathlib import Path

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
