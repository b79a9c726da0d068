"""Module layout: what the package exports, imports and loops over."""

import ast
from pathlib import Path

import ssfourier

PACKAGE = Path(ssfourier.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


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
    # phi, the tests' independent oracle for the product kernel, lives in
    # tests/test_fourier.py; a call in the package would be a second
    # product loop growing back
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


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(source: str) -> dict[str, list[frozenset]]:
    """For each name of a Name or Attribute node, the enclosing definitions.

    Maps the name to one set per node: the names of the functions and
    classes the node lies in.  A Name that an enclosing function binds
    itself (an argument or an assignment target) is a local, not the
    module-level name, and is left out.
    """
    found = {}

    def visit(node, defs, local):
        if isinstance(node, _DEFS):
            defs = defs | {node.name}
            if not isinstance(node, ast.ClassDef):
                local = local | {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
                local |= {n.id for n in ast.walk(node)
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        if isinstance(node, ast.Name) and node.id not in local:
            found.setdefault(node.id, []).append(defs)
        elif isinstance(node, ast.Attribute):
            found.setdefault(node.attr, []).append(defs)
        for child in ast.iter_child_nodes(node):
            visit(child, defs, local)

    visit(ast.parse(source), frozenset(), frozenset())
    return found


def unreached_exports(init_source: str, sources: list[str]) -> list[str]:
    """Names ``__init__`` exports that none of ``sources`` reaches.

    A name is reached when some source references it outside its own
    definition and outside the definition of an unreached name, so a name
    used only by other unreached code is unreached too.
    """
    exported = {alias.asname or alias.name
                for node in ast.parse(init_source).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    sites = {}
    for source in sources:
        for name, defs in references(source).items():
            sites.setdefault(name, []).extend(defs)
    unreached = set()
    while True:
        found = {name for name in exported
                 if all(defs & (unreached | {name}) for defs in sites.get(name, []))}
        if found == unreached:
            return sorted(found)
        unreached = found


def test_every_export_is_reached():
    # an export stays in src/ while code outside its own definition uses
    # it: a src/ module, the benchmark or an acceptance criterion; test
    # oracles and paper checks live in tests/
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    sources = [path.read_text(encoding="utf-8") for path in paths]
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert unreached_exports(init, sources) == []


def test_guard_sees_unreached_exports():
    init = (
        "from .a import Report, check, helper, used, kernel\n"
        "from .b import caller\n"
    )
    a = (
        "class Report:\n"
        "    pass\n"
        "def check(x):\n"
        "    return Report(helper(x))\n"
        "def helper(x):\n"
        "    return helper(x - 1) if x else 0\n"
        "def used(x):\n"
        "    return x\n"
        "def kernel(x):\n"
        "    used = x * 2\n"
        "    return used\n"
    )
    b = "def caller(ifs):\n    return a.kernel(ifs)\n"
    bench = "print(b.caller(1))\n"
    assert unreached_exports(init, [a, b, bench]) == ["Report", "check", "helper", "used"]
