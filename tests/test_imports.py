import ast
import os
import subprocess
import sys
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


def scipy_imports(path: Path) -> list[str]:
    """Every import of scipy in the module, at any depth."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] == "scipy"]
    return found


def test_program_does_not_import_scipy():
    # scipy is a test dependency: the program runs on numpy alone
    assert [i for p in sorted(SRC.rglob("*.py")) for i in scipy_imports(p)] == []


# Runs in a fresh interpreter: the harness import, a scripted-expert
# episode with grounding dilation and erosion, a learned-policy episode
# (tensor builds read the label map), and one augmented training step with
# every mask edit a blob add or delete. Prints the scipy modules loaded.
NUMPY_ONLY_RUN = """
import sys
import robridge.harness
from robridge.augment import AugmentConfig
from robridge.experts import rollout_expert
from robridge.hcp import GroundingNoise
from robridge.loop import ExpertAsPolicy, LoopConfig, NetPolicy, run_episode
from robridge.policy import Dataset, init_params, train

noisy = LoopConfig(grounding_noise=GroundingNoise(dilate_px=2, erode_px=2, seed=4))
assert run_episode("pick-place", ExpertAsPolicy(), noisy, seed=3).ticks > 0
assert run_episode("press-button", NetPolicy(init_params(0)), LoopConfig(max_ticks=30),
                   seed=0).ticks > 0
data = Dataset.from_trajectories([rollout_expert("press-button", 0)])
train(init_params(1), data, 1, 1e-3, seed=0, batch_size=len(data.grid),
      augment_cfg=AugmentConfig(segment_add_delete_p=1.0))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_running_the_program_loads_numpy_alone():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY_RUN], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
