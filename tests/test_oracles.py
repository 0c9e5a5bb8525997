"""The oracles share no code with the package they check, and every key of
the CLI's tables has one.

tests/oracles.py computes expected values from mpmath, numpy and the math
module alone; a helper that imported an ellipcf module would check the
package against itself.  Its docstring maps each family, kind and mixing
kind the CLI accepts to the test that holds it against an oracle.
"""

import ast
import re
from pathlib import Path

import oracles
from ellipcf import cli

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


def _oracle_map() -> dict:
    # (table, key) -> (test file, test function), from oracles.py's docstring
    rows = re.findall(r"^ {4}(family|kind|mixing) +(\w+) +(\S+)::(\w+)$", oracles.__doc__, re.M)
    return {(table, key): (path, test) for table, key, path, test in rows}


def test_every_cli_key_has_an_oracle_test():
    tables = {"family": cli._FAMILIES, "kind": cli._KINDS, "mixing": cli._MIXINGS}
    keys = {(table, key) for table, entries in tables.items() for key in entries}
    assert sorted(keys - set(_oracle_map())) == []  # a key with no row
    assert sorted(set(_oracle_map()) - keys) == []  # a row naming no key


def test_every_mapped_test_exists():
    for path, test in set(_oracle_map().values()):
        tree = ast.parse(Path(__file__).with_name(path).read_text())
        assert test in {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
