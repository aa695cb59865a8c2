"""Every name a fingan module imports is used in that module.

No linter runs with the tests, so this is the unused-import check: each
``src/fingan/*.py`` except ``__init__.py`` (which imports to re-export) is
parsed with ``ast``, and any imported name that no expression in the module
reads fails the test. An import statement marked ``# noqa: F401`` is exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fingan"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            statement = lines[node.lineno - 1:node.end_lineno]
            if any("# noqa: F401" in line for line in statement):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_finds_an_unused_import():
    source = "import json\nimport math\nfrom os import path, sep  # noqa: F401\n" \
             "from sys import argv\nprint(math.pi)\n"
    assert unused_imports(source) == [(1, "json"), (4, "argv")]
