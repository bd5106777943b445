"""The module layering: which package modules each module may import.

``dynamics`` decides every orbit fact once, the tie rule and the check of
a cited orbit among them, and states the cuts its search read, so
``rigidity`` and ``cli`` only combine its answers, and ``sphere`` and
``fock`` build on it without reaching sideways.  ``serialize`` owns every
document schema.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import holorigid

PACKAGE = Path(holorigid.__file__).resolve().parent
MULTISTART_CUTS = {"NEWTON_RESIDUAL", "ESCAPE_NORM", "DEDUP_RADIUS"}
LAYERS = {  # module: the package modules it may import
    "jets": {"errors"},
    "dynamics": {"errors", "jets"},
    "rigidity": {"dynamics", "errors"},
    "henon": {"dynamics", "errors", "rigidity"},
    "serialize": {"dynamics", "errors", "henon"},
    "sphere": {"dynamics", "errors"},
    "fock": {"dynamics", "errors", "jets"},
}


def tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def package_imports(module: str) -> set:
    """The package modules that ``module`` imports, at its top or in a body."""
    names = set()
    for node in ast.walk(tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module.split(".")[0]] if node.module
                         else (alias.name for alias in node.names))
    return names


def names_read(module: str) -> set:
    """The names ``module`` reads bare, as an attribute or by import."""
    names = set()
    for node in ast.walk(tree(module)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def binders(name: str) -> list:
    """The modules that bind ``name`` by def, class or assignment, once a binding."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(tree(path.stem)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [path.stem for b in bound if b == name]
    return found


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_module_imports_only_its_layers(module):
    assert package_imports(module) <= LAYERS[module]


def test_rigidity_reads_dynamics_and_errors():
    # equality, so that a walk which finds no import cannot pass; a
    # certificate is plain data, which cli encodes field by field
    assert package_imports("rigidity") == {"dynamics", "errors"}


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_no_package_import_inside_a_function(module):
    # every edge of the import graph shows at the top of its module
    inner = [node.lineno for fn in ast.walk(tree(module))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, ast.ImportFrom) and node.level]
    assert inner == []


def test_rigidity_walks_no_orbit():
    # dynamics is the one orbit walker
    assert "orbit_points" not in names_read("rigidity")


@pytest.mark.parametrize("name", ["first_near_best", "TIE_TOL"])
def test_tie_rule_is_defined_once(name):
    assert binders(name) == ["dynamics"]


def test_orbit_check_is_defined_once():
    assert binders("check_orbit") == ["dynamics"]


def test_cli_reads_no_multistart_cut():
    # the search states its cuts: dynamics reads them, cli only merges them
    assert MULTISTART_CUTS <= names_read("dynamics")
    assert not MULTISTART_CUTS & names_read("cli")


def test_cli_holds_no_search_key_format():
    strings = [node.value for node in ast.walk(tree("cli"))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert "certify" in strings and not [s for s in strings if "r=" in s]


def test_cli_imports_no_private_serialize_name():
    imported = [alias.name for node in ast.walk(tree("cli"))
                if isinstance(node, ast.ImportFrom) and node.module == "serialize"
                for alias in node.names]
    assert "read_json" in imported
    assert [name for name in imported if name.startswith("_")] == []
