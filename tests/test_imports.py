import ast
from pathlib import Path

import robridge

SRC = Path(robridge.__file__).parent


def unused_imports(path: Path) -> list[str]:
    """Top-level imported names the module never mentions; ``__future__``
    imports are directives, not names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_top_level_imports():
    # __init__.py imports names to re-export them
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert modules
    assert [u for p in modules for u in unused_imports(p)] == []


def unreferenced_private_defs(paths: list[Path]) -> list[str]:
    """Top-level ``_name`` functions and classes that no module of paths
    mentions, by name or as an attribute, outside their own definition."""
    defined, used = {}, set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defined[node.name] = f"{path.name}:{node.lineno} {node.name}"
        used |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return [where for name, where in defined.items() if name not in used]


def test_no_unused_private_helpers():
    # a helper only tests call is dead code in src/
    assert unreferenced_private_defs(sorted(SRC.glob("*.py"))) == []


def unused_parameters(path: Path) -> list[str]:
    """Parameters of the module's top-level functions that the body never
    names; defaults and annotations do not count as a use."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if p]
        named = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        found += [f"{path.stem}.{node.name}({p.arg})" for p in params if p.arg not in named]
    return found


def test_no_unused_parameters():
    # cmd_eval's jobs is ignored, but the benchmark's workloads still pass it
    allowed = {"harness.cmd_eval(jobs)"}
    found = [u for p in sorted(SRC.glob("*.py")) for u in unused_parameters(p)]
    assert [u for u in found if u not in allowed] == []
