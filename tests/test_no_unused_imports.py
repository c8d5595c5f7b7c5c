"""Every name a module imports is used in that module.

Each module under ``src/`` and ``tests/``, package ``__init__.py`` files
included, is parsed with ``ast``.  A name bound by ``import`` or ``from ...
import`` must appear in the module as a name (or the base of an attribute),
or be a string literal in the expression assigned to its ``__all__``.
``__future__`` imports are exempt.

Every private module-level definition under ``src/`` is used too: a
function, class or name bound at the top level of a module, whose name
starts with one underscore, must be named (as a name, an attribute or an
imported name) by a top-level statement of some module under ``src/``
other than the one that defines it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src", "tests") for path in (ROOT / folder).rglob("*.py"))
SOURCES = sorted((ROOT / "src").rglob("*.py"))


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


def _private_names(statement):
    """The private names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = [node.id for target in targets for node in ast.walk(target)
                 if isinstance(node, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _named(statement):
    """Every name, attribute and imported name in a statement."""
    fields = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    return {getattr(node, fields[type(node)]) for node in ast.walk(statement)
            if type(node) in fields}


def unused_private_definitions(sources):
    """``"module:name"`` for each private top-level definition in ``sources``
    (module -> source) that no other top-level statement of them names."""
    statements = [(module, statement) for module, source in sources.items()
                  for statement in ast.parse(source).body]
    named = [_named(statement) for _, statement in statements]
    return [f"{module}:{name}"
            for k, (module, statement) in enumerate(statements)
            for name in _private_names(statement)
            if not any(name in names for j, names in enumerate(named) if j != k)]


def test_the_check_sees_unused_and_used_private_definitions():
    sources = {
        "a": ("def _dead():\n    return _dead()\n_SIZE, _LIMIT = 3, 4\nclass _Used:\n    pass\n"
              "def public():\n    return _Used\n__all__ = ['public']\n"),
        "b": "import a\nfrom a import _LIMIT\n\ndef f():\n    return a._SIZE + _LIMIT\n",
    }
    assert unused_private_definitions(sources) == ["a:_dead"]  # recursion is not a use
    sources["b"] = "import a\n_UNUSED: int = a._SIZE\n"
    assert unused_private_definitions(sources) == ["a:_dead", "a:_LIMIT", "b:_UNUSED"]


def test_every_private_definition_is_used():
    assert unused_private_definitions(
        {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8") for path in SOURCES}
    ) == []
