"""The oracles share no code with the package they check, and every key of
the CLI's tables has one.

tests/oracles.py computes expected values from mpmath, numpy and the math
module alone; a helper that imported an ellipcf module would check the
package against itself.  Its docstring maps each family, kind and mixing
kind the CLI accepts, and each special-function kernel, to the test that
holds it against an oracle.
"""

import ast
import re
from pathlib import Path

import oracles
from ellipcf import cli, specfun

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


# specfun's public functions that are another one's values on a thin layer:
# each and what it takes its values from
WRAPPERS = {
    "gamma_fn": "math.gamma", "log_gamma_fn": "math.lgamma",
    "norm_cdf_imag": "norm_cdf_imag_scaled",
}


def _oracle_map() -> dict:
    # (table, key) -> (test file, test path in it), from oracles.py's
    # docstring; a row whose key is long may put its test on the next line
    rows = re.findall(r"^ {4}(family|kind|mixing|kernel) +(\w+)\s+(\S+?)::(\S+)$",
                      oracles.__doc__, re.M)
    return {(table, key): (path, test) for table, key, path, test in rows}


def _unmapped(tables: dict) -> tuple[list, list]:
    # the keys of `tables` with no row, and the rows of those tables naming no key
    keys = {(table, key) for table, entries in tables.items() for key in entries}
    rows = {row for row in _oracle_map() if row[0] in tables}
    return sorted(keys - rows), sorted(rows - keys)


def test_every_cli_key_has_an_oracle_test():
    tables = {"family": cli._FAMILIES, "kind": cli._KINDS, "mixing": cli._MIXINGS}
    assert _unmapped(tables) == ([], [])


def test_every_kernel_has_an_oracle_test():
    assert sorted(set(WRAPPERS) - set(specfun.__all__)) == []  # a wrapper that is gone
    assert _unmapped({"kernel": set(specfun.__all__) - set(WRAPPERS)}) == ([], [])


def test_every_mapped_test_exists():
    for path, test in set(_oracle_map().values()):
        scope = ast.parse(Path(__file__).with_name(path).read_text())
        *classes, name = test.split("::")
        for cls in classes:
            scope = next(n for n in scope.body if isinstance(n, ast.ClassDef) and n.name == cls)
        assert name in {n.name for n in scope.body if isinstance(n, ast.FunctionDef)}
