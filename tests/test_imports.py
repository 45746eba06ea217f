"""Engine independence: which knightpaths modules each engine may not import.

Two engines that check each other must not share code, so each engine's
source is parsed and its imports are compared against the engines it is
checked against.  No engine imports the router (`engines`), and the CLI
reaches the engines through it.  The last test parses every module for a
private name that nothing else in the package reads.
"""

from __future__ import annotations

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

# module: the modules and packages it must not import
BANNED = {
    # the integer polynomials under the rows and the bands build on nothing
    "poly": {
        "asymptotics", "bijections", "cli", "closedforms", "counting", "engines",
        "fixtures", "laurent", "paths", "recurrences", "series", "transfer",
        "verification", "sympy", "mpmath",
    },
    # the O(n) rows check the DP, the nonneg row checks the kernel series and
    # the Laurent type, and the closed forms check the rows (verify checks 1
    # and 3)
    "recurrences": {
        "series", "laurent", "counting", "closedforms", "sympy", "mpmath", "engines",
    },
    # asym reads the rows alone; a from-import of the DP would also slip
    # past the monkeypatch in test_grand_reports_do_not_run_the_dp
    "asymptotics": {"counting", "series", "engines"},
    # the band engine is checked against the DP; it shares poly with the rows
    "transfer": {"series", "counting", "sympy", "mpmath", "engines"},
    # the DP, the closed forms and the Laurent type check the rows and the
    # bands, so they share none of poly's arithmetic either
    "closedforms": {"series", "counting", "recurrences", "transfer", "laurent", "poly", "engines"},
    "counting": {"series", "transfer", "recurrences", "closedforms", "laurent", "poly", "engines"},
    # the kernel series take only the certified small root from `recurrences`
    # (`small_root_coeffs`, checked against the kernel in verify check 5) and
    # check the arithmetic of the nonneg row built on it
    "series": {"engines"},
    # the Laurent type's own arithmetic checks the nonneg row, so it builds on
    # no other module of the package: not on poly, the rows or the root
    "laurent": {
        "asymptotics", "bijections", "cli", "closedforms", "counting", "engines",
        "fixtures", "paths", "poly", "recurrences", "series", "transfer",
        "verification",
    },
    "bijections": {"engines"},
    # the router alone decides which engine answers a query
    "cli": {"closedforms", "recurrences", "transfer"},
}


def _imports(module: str) -> set[str]:
    source = Path(importlib.import_module(f"knightpaths.{module}").__file__).read_text()
    seen = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            seen.update(part for a in node.names for part in a.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            seen.update((node.module or "").split("."))
            seen.update(a.name for a in node.names)
    return seen


@pytest.mark.parametrize("module", sorted(BANNED))
def test_module_imports_no_other_engine(module):
    assert not _imports(module) & BANNED[module]


def _private_definitions(tree: ast.Module):
    """(name, node) for each module-level def, class or assignment of a private name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if name[:1] == "_" and name[:2] != "__")


def _reads(node: ast.AST) -> Counter:
    """How often each name is read under node, as a bare name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def test_every_private_module_name_is_read_elsewhere_in_the_package():
    """A private helper or constant that only its own definition reads is dead code."""
    package = Path(importlib.import_module("knightpaths").__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    everywhere = sum((_reads(tree) for tree in trees.values()), Counter())
    unread = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree)
        if everywhere[name] <= _reads(node)[name]
    ]
    assert not unread
