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
        "from .fourier import _product, grid_scan\n"
        "from . import _x, __version__\n"
        "from ssfourier.sparse import _digit_expansion\n"
        "from numpy import _pytesttester\n"
    )
    assert private_imports(source) == [
        "fourier._product", "._x", "ssfourier.sparse._digit_expansion",
    ]


def phi_calls(source: str) -> list[int]:
    """Line numbers of the calls ``phi(...)`` and ``<anything>.phi(...)``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and "phi" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )


def test_no_module_calls_phi():
    # phi is the tests' independent oracle for the product kernel; a call
    # in the package would be a second product loop growing back
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := phi_calls(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_guard_sees_phi_calls():
    source = (
        "out = out * phi(ifs, u)\n"
        "value = fourier.phi(ifs, 0.5)\n"
        "phi = np.empty(3)\n"
        "phi += term\n"
        "phis(u)\n"
    )
    assert phi_calls(source) == [1, 2]
