"""Every name a module of the package imports is used in that module, and
every private module-level name it defines is read somewhere in the package."""

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


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """The module-level names _x (dunders aside) that a module of sources
    (module name -> source) defines by def, class or assignment and never
    reads outside that definition: no Name or attribute in its own module
    carries them, and no other module imports them."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    imported = {(node.module.lstrip("."), alias.name)
                for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module
                for alias in node.names}
    dead = []
    for module, tree in trees.items():
        for statement in tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                names = [statement.name]
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            read = {node.id if isinstance(node, ast.Name) else node.attr
                    for other in tree.body if other is not statement
                    for node in ast.walk(other)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    or isinstance(node, ast.Attribute)}
            dead += [f"{module}.{name}" for name in names
                     if name.startswith("_") and not name.startswith("__")
                     and name not in read and (module, name) not in imported]
    return sorted(dead)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = ("from .specfun import gamma_fn, hyp0f1\nimport math as m\nimport os.path\n"
              "__all__ = ['hyp0f1']\n\ndef f():\n    from .quadrature import _moment_n\n"
              "    return os.path.join\n")
    assert unused_imports(source) == ["_moment_n", "gamma_fn", "m"]


def test_no_dead_private_helper():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert dead_helpers(sources) == []


def test_the_check_sees_a_dead_helper():
    sources = {
        "a": ("_LIMIT = 3\n_UNUSED: int = 4\n\ndef _loop(k):\n    return _loop(k - 1) if k else 0\n\n"
              "def _shared():\n    return _LIMIT\n\nclass _Kept:\n    pass\n\n"
              "def f(obj):\n    return obj._Kept\n"),
        "b": "from .a import _shared\n\ndef g():\n    return _shared()\n",
    }
    assert dead_helpers(sources) == ["a._UNUSED", "a._loop"]
