"""Module layout: no module of the package imports a private name of another."""

import ast
from pathlib import Path

import ssfourier

PACKAGE = Path(ssfourier.__file__).resolve().parent


def private_imports(source: str) -> list[str]:
    """``module.name`` for each private name imported from a sibling module.

    A private name starts with an underscore and is not a dunder such as
    ``__version__``.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level > 0 or module.split(".")[0] == "ssfourier":
            found += [
                f"{module}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.endswith("__")
            ]
    return found


def test_no_private_cross_module_imports():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := private_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_guard_sees_private_imports():
    source = (
        "from .fourier import _scan_block, grid_scan\n"
        "from . import _x, __version__\n"
        "from ssfourier.sparse import _digit_expansion\n"
        "from numpy import _pytesttester\n"
    )
    assert private_imports(source) == [
        "fourier._scan_block", "._x", "ssfourier.sparse._digit_expansion",
    ]
