"""The package surface: every name ``holorigid`` exports has a use.

A name that ``holorigid/__init__.py`` re-exports must be read by another
module of the package or be named in backticks in README.md; otherwise it
is code that only its own tests reach.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import holorigid

PACKAGE = Path(holorigid.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"


def exported_names() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def referenced_names() -> set:
    """Names the modules other than __init__.py read, bare (``make_orbit``)
    or as an attribute (``rigidity.INAPPLICABLE``)."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def documented_names() -> set:
    """Identifiers inside backtick spans and fenced blocks of README.md."""
    spans = re.findall(r"`+([^`]+)`+", README.read_text(encoding="utf-8"))
    return {word for span in spans for word in re.findall(r"\w+", span)}


def test_every_export_is_used_or_documented():
    exported, known = exported_names(), referenced_names() | documented_names()
    assert "certify_bounded" in exported and "make_orbit" in known
    assert [name for name in exported if name not in known] == []


def test_an_export_nothing_reads_is_caught(tmp_path, monkeypatch):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from .core import helper, lookup, used\n", encoding="utf-8")
    (package / "core.py").write_text(
        "def used():\n    pass\n\ndef helper():\n    pass\n\n"
        "def lookup(module):\n    return module.used\n", encoding="utf-8")
    (tmp_path / "README.md").write_text("Call `pkg.lookup(m)`.\n",
                                        encoding="utf-8")
    monkeypatch.setattr(sys.modules[__name__], "PACKAGE", package)
    monkeypatch.setattr(sys.modules[__name__], "README", tmp_path / "README.md")
    exported, known = exported_names(), referenced_names() | documented_names()
    assert [name for name in exported if name not in known] == ["helper"]
