"""Every script under scripts/ imports cleanly, so a stale import fails here
in seconds rather than partway through a long experiment; and the packaged
catalog is what scripts/gen_catalog.py writes."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)     # not __main__, so main() does not run
    return module


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_imports_without_running(path):
    assert callable(_load(path).main)


def test_gen_catalog_writes_the_packaged_data(tmp_path, monkeypatch):
    # the JSON under data/ is generated; a hand edit shows up here
    gen = _load(ROOT / "scripts" / "gen_catalog.py")
    monkeypatch.setattr(gen, "DATA", tmp_path)
    gen.main()
    packaged = ROOT / "src" / "robridge" / "data"
    written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    assert written == sorted(p.relative_to(packaged) for p in packaged.rglob("*")
                             if p.is_file())
    for rel in written:
        assert (tmp_path / rel).read_bytes() == (packaged / rel).read_bytes(), rel
