"""Every demo script imports, and the fast ones run: a renamed public name or
a runtime break fails here instead of on a user's first run. Demos 02 and 03
train GANs for tens of seconds, so only their import is checked."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
FAST = [p for p in DEMOS if p.stem[:2] in ("01", "04", "05", "06")]


def load(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demos_found():
    assert len(DEMOS) >= 6
    assert len(FAST) == 4


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports(path):
    assert callable(load(path).main)


@pytest.mark.parametrize("path", FAST, ids=[p.stem for p in FAST])
def test_fast_demo_runs(path, capsys):
    load(path).main()
    assert capsys.readouterr().out
