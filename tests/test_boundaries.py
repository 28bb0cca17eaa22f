"""Module boundaries: the package's modules talk through public APIs."""

import ast
from pathlib import Path

import taxsim

SOURCES = sorted(Path(taxsim.__file__).parent.glob("*.py"))


def _private_accesses(tree):
    """``x._name`` attribute accesses, dunders excepted, where ``x`` is not
    ``self`` or ``cls``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
            continue
        if node.attr.startswith("__") and node.attr.endswith("__"):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        yield node


def test_scanner_flags_only_cross_object_private_access():
    tree = ast.parse("t._ids[0]; self._ids; cls._make; self._t._idx(1); x.__len__()")
    assert [ast.unparse(n) for n in _private_accesses(tree)] == ["t._ids", "self._t._idx"]


def test_no_private_attribute_access_across_objects():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in SOURCES
        for node in _private_accesses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def _kept_globals(tree):
    """The names of modules ``tree`` imports whose top name is
    ``weakref``, and of module-level names starting with ``_last`` that it
    assigns or declares ``global``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.split(".")[0] == "weakref")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "weakref":
            yield node.module
        elif isinstance(node, ast.Global):
            yield from (n for n in node.names if n.startswith("_last"))
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])
        for target in targets:
            yield from (n.id for n in ast.walk(target)
                        if isinstance(n, ast.Name) and n.id.startswith("_last"))


def test_kept_state_scanner_flags_weakref_and_last_globals():
    tree = ast.parse("import weakref\nfrom weakref import ref\n_last: tuple = ()\n"
                     "_last_sweep, x = {}, 1\nlast = _last_y = 0\n"
                     "def f():\n    global _last_z\n    _last_local = 1\n")
    assert sorted(_kept_globals(tree)) == ["_last", "_last_sweep", "_last_y", "_last_z",
                                           "weakref", "weakref"]


def test_kept_state_lives_on_its_owners():
    # evaluate's and the weighted queries' kept slots live in vars() of the
    # model or taxonomy they are keyed by; a module-level slot would be
    # shared by every caller and need a weak reference to free its owner
    root = Path(taxsim.__file__).parent
    found = {name: list(_kept_globals(ast.parse((root / name).read_text(encoding="utf-8"))))
             for name in ("similarity.py", "evaluation.py")}
    assert found == {"similarity.py": [], "evaluation.py": []}


def _definitions(tree):
    """``(name, node)`` for each module-level imported name, ``__future__``
    features excepted, and each module-level ``_``-prefixed function,
    class or assigned name, dunders excepted."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                yield from ((a.asname or a.name.split(".")[0], node) for a in node.names)
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((n, node) for n in names
                    if n.startswith("_") and not (n.startswith("__") and n.endswith("__")))


def _reads(tree):
    """The names ``tree`` reads, as a name or an attribute, or lists as
    strings in ``__all__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            yield from (c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))


def _dead(trees):
    """``"module: name"`` for each definition (see :func:`_definitions`)
    in the ``{file name: tree}`` modules that its own module reads nowhere
    outside the defining statement and no module imports from it."""
    imported = {((node.module or "").rpartition(".")[2] + ".py", a.name)
                for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    found = []
    for module, tree in trees.items():
        reads = {top: set(_reads(top)) for top in tree.body}
        for name, node in _definitions(tree):
            if (module, name) not in imported and not any(
                    name in names for top, names in reads.items() if top is not node):
                found.append(f"{module}: {name}")
    return found


def test_dead_code_scanner_flags_unreferenced_imports_and_private_names():
    trees = {"a.py": ast.parse("from __future__ import annotations\nimport os, re as regex\n"
                               "from math import inf, nan\n_K = 1\n_used: int = 2\n"
                               "__all__ = ['inf']\ndef _f():\n    return os.sep, _f\n"
                               "class _C:\n    pass\ndef public():\n    return _used\n"),
             "b.py": ast.parse("from .a import _C\nfrom math import nan\nimport sys\n"
                               "print(sys.argv, nan, _C)\n")}
    assert _dead(trees) == ["a.py: regex", "a.py: nan", "a.py: _K", "a.py: _f"]


def test_no_dead_imports_or_private_names():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert _dead(trees) == []
