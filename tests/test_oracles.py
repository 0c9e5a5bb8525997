"""The oracles share no code with the package they check.

tests/oracles.py computes expected values from mpmath, numpy and the math
module alone; a helper that imported an ellipcf module would check the
package against itself.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def _imports(tree: ast.AST) -> list[str]:
    # every module an import statement names, relative ones with their dots,
    # and every string passed to __import__ or importlib.import_module
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if called in ("__import__", "import_module"):
                names += [arg.value for arg in node.args if isinstance(arg, ast.Constant)]
    return names


def test_oracles_import_no_ellipcf_module():
    names = _imports(ast.parse(ORACLES.read_text()))
    assert "mpmath" in names
    assert [n for n in names if n.split(".")[0] == "ellipcf" or n.startswith(".")] == []


def test_the_check_sees_an_ellipcf_import():
    for source in ("from ellipcf.specfun import bessel_k", "import ellipcf",
                   "from . import specfun", "import importlib\nimportlib.import_module('ellipcf')"):
        assert any(n.split(".")[0] == "ellipcf" or n.startswith(".")
                   for n in _imports(ast.parse(source)))
