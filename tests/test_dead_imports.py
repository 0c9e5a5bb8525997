"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ellipcf"


def unused_imports(source: str) -> list[str]:
    """The names that source imports (at any depth, __future__ aside) and
    never reads: no Name node, and no string of __all__, carries them."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = ("from .specfun import gamma_fn, hyp0f1\nimport math as m\nimport os.path\n"
              "__all__ = ['hyp0f1']\n\ndef f():\n    from .quadrature import _moment_n\n"
              "    return os.path.join\n")
    assert unused_imports(source) == ["_moment_n", "gamma_fn", "m"]
