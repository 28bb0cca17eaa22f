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
