"""Every name a module imports is used in that module.

Each module under ``src/`` and ``tests/``, package ``__init__.py`` files
included, is parsed with ``ast``.  A name bound by ``import`` or ``from ...
import`` must appear in the module as a name (or the base of an attribute),
or be a string literal in the expression assigned to its ``__all__``.
``__future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src", "tests") for path in (ROOT / folder).rglob("*.py"))


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
            used.update(item.value for item in ast.walk(node.value)
                        if isinstance(item, ast.Constant) and isinstance(item.value, str))
    return [name for name in imported if name not in used]


def test_the_check_sees_unused_and_used_imports():
    source = "import os, sys\nfrom a.b import c as d, e\nimport x.y\n__all__ = ['e']\nsys.argv\n"
    assert unused_imports(source) == ["os", "d", "x"]
    source = "from a import b, c, d\nnames = ['x']\n__all__ = ['b', *names, *[d]]\n"
    assert unused_imports(source) == ["c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
