"""Every name a module imports is used in that module.

Each module under ``src/`` and ``tests/`` is parsed with ``ast``.  A name
bound by ``import`` or ``from ... import`` must appear in the module as a
name (or the base of an attribute), or be listed in its ``__all__``.
Package ``__init__.py`` files re-export what they import, so they are
exempt, as are ``__future__`` imports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for folder in ("src", "tests") for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source):
    """Names ``source`` imports and never uses, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_check_sees_unused_and_used_imports():
    source = "import os, sys\nfrom a.b import c as d, e\nimport x.y\n__all__ = ['e']\nsys.argv\n"
    assert unused_imports(source) == ["os", "d", "x"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
