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


def looped_merge_callers(source: str) -> list[str]:
    """Functions that call a merge or a convolution step inside a loop.

    The calls counted are ``merge_atoms``, ``_merge_atoms``, ``convolve``
    and ``_convolve``.
    """
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        for loop in ast.walk(func):
            if isinstance(loop, loops) and any(
                isinstance(node, ast.Call)
                and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
                in ("merge_atoms", "_merge_atoms", "convolve", "_convolve")
                for node in ast.walk(loop)
            ):
                found.append(func.name)
                break
    return found


def test_one_tower_level_loop():
    # every tower is a walk of the one level loop; a second loop over
    # merges or convolution steps would be a copy of it growing back
    source = (PACKAGE / "measures.py").read_text(encoding="utf-8")
    assert looped_merge_callers(source) == ["tower_levels"]


def test_guard_sees_looped_merges():
    source = (
        "def tower(mu):\n"
        "    for _ in range(3):\n"
        "        mu = merge_atoms(mu, 0.0)\n"
        "def tree(mu):\n"
        "    while True:\n"
        "        mu, first = measures._merge_atoms(mu, 1e-12)\n"
        "def convolve(mu, nu):\n"
        "    return merge_atoms(mu, 0.0)\n"
        "def many(mus):\n"
        "    return [merge_atoms(mu, 0.0) for mu in mus]\n"
        "def walk(mu, steps):\n"
        "    for nu in steps:\n"
        "        mu, first = _convolve(mu, nu, 0.0, None)\n"
        "def power(mu, n):\n"
        "    while n:\n"
        "        mu, n = measures.convolve(mu, mu), n - 1\n"
    )
    assert looped_merge_callers(source) == ["tower", "tree", "many", "walk", "power"]
