"""Module layout: what the package exports, imports and loops over."""

import argparse
import ast
from pathlib import Path

import ssfourier
from ssfourier import cli

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


_BINNING_CALLS = ("bincount", "unique", "histogram", "histogram2d", "histogramdd")


def binning_functions(source: str) -> list[str]:
    """Functions that add masses into cells or take distinct cell keys.

    Counted are the calls ``bincount``, ``unique`` and the ``histogram``
    family, bare or as an attribute.
    """
    found = []
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, ast.FunctionDef) and any(
            isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
            in _BINNING_CALLS
            for node in ast.walk(func)
        ):
            found.append(func.name)
    return found


def test_one_binning_routine():
    # every dyadic level of every anchor is binned by _dyadic_masses; a
    # per-level binning such as the complex-key _dyadic_cells, or a ball
    # or cell counter in pushforward, growing back would be a second routine
    source = (PACKAGE / "dimensions.py").read_text(encoding="utf-8")
    assert binning_functions(source) == ["_dyadic_masses"]
    assert binning_functions((PACKAGE / "pushforward.py").read_text(encoding="utf-8")) == []
    defined = {node.name for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.FunctionDef)}
    assert "_dyadic_cells" not in defined


def test_guard_sees_binning():
    source = (
        "def cells(mu, n):\n"
        "    return np.unique(keys, return_inverse=True)\n"
        "def masses(labels, w):\n"
        "    return np.bincount(labels, weights=w)\n"
        "def grid(x, y):\n"
        "    return histogram2d(x, y)\n"
        "def fit(xs, ys):\n"
        "    return linear_fit(xs, ys)\n"
    )
    assert binning_functions(source) == ["cells", "masses", "grid"]


_RETIRED_PAIR_SEARCH = ("_close_pairs", "min_atom_gap")


def pair_search_sites(source: str) -> list[str]:
    """What ``source`` does with close-pair searches, one entry per site, sorted.

    - ``names X`` where it names the retired grid hash ``_close_pairs`` or
      the gap property ``min_atom_gap``: as a name, an attribute, an
      imported name or a definition
    - ``defines strip_pairs``
    - ``windowed call`` for a call of ``strip_pairs``, bare or as an
      attribute, whose window (the fourth positional argument or
      ``window=``) is ``_WINDOW``, and ``unbounded call`` for any other
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, (ast.alias, ast.FunctionDef)):
            name = node.name
            if isinstance(node, ast.FunctionDef) and name == "strip_pairs":
                found.append("defines strip_pairs")
        if name in _RETIRED_PAIR_SEARCH:
            found.append(f"names {name}")
        if isinstance(node, ast.Call) and "strip_pairs" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            window = node.args[3] if len(node.args) > 3 else next(
                (k.value for k in node.keywords if k.arg == "window"), None)
            windowed = isinstance(window, ast.Name) and window.id == "_WINDOW"
            found.append("windowed call" if windowed else "unbounded call")
    return sorted(found)


def test_one_pair_search():
    # one close-pair search in src/: measures.strip_pairs, which the tower
    # merge walks for every pair and the resolution cap for at most _WINDOW
    # next positions each.  The grid hash or the gap property growing back
    # would be a second search, and a cap query without the window an
    # unbounded one, quadratic where atoms crowd
    sites = {path.name: pair_search_sites(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in sites.items() if found} == {
        "dimensions.py": ["windowed call"],
        "measures.py": ["defines strip_pairs", "unbounded call"],
    }


def test_guard_sees_pair_search():
    for source, want in (
        ("gap = mu.min_atom_gap\n", ["names min_atom_gap"]),
        ("from .measures import _close_pairs\n", ["names _close_pairs"]),
        ("pairs = list(measures._close_pairs(x, y, tol))\n", ["names _close_pairs"]),
        ("def min_atom_gap(mu):\n    return 0.0\n", ["names min_atom_gap"]),
        ("def strip_pairs(x, y, scale, window=None):\n    pass\n", ["defines strip_pairs"]),
        ("pairs = strip_pairs(x, y, 5, _WINDOW)\n", ["windowed call"]),
        ("pairs = measures.strip_pairs(x, y, 5, window=_WINDOW)\n", ["windowed call"]),
        ("pairs = strip_pairs(x, y, 5)\n", ["unbounded call"]),
        ("pairs = strip_pairs(x, y, 5, window=None)\n", ["unbounded call"]),
        ("pairs = measures.strip_pairs(x, y, 5, 8)\n", ["unbounded call"]),
    ):
        assert pair_search_sites(source) == want, source
    source = "close_pairs = _close_d2(x, y, 5)\nmin_gap = mu.gap\nwindow = _WINDOW\n"
    assert pair_search_sites(source) == []


_LOGS = ("log", "log2", "log10", "log1p")


def truncation_sites(source: str) -> list[str]:
    """Where ``source`` sets or asks for a product truncation index, sorted.

    - ``F computes`` for a function F that takes the ceiling of an
      expression holding a logarithm, the shape of a truncation index
      (the smallest K with a geometric bound below tol)
    - ``F calls`` for a function F that calls ``truncation_index``, bare
      or as an attribute; ``<module>`` stands for code outside functions
    """
    found = set()

    def name(call):
        return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            if name(node) == "truncation_index":
                found.add(f"{owner} calls")
            if name(node) == "ceil" and any(
                isinstance(inner, ast.Call) and name(inner) in _LOGS
                for arg in node.args for inner in ast.walk(arg)
            ):
                found.add(f"{owner} computes")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_one_truncation_index():
    # every K comes from truncation_index, and only the product kernel,
    # which multiplies in the omitted factors' mean phase, asks for it: a
    # scan-only path with a K of its own, or one that skips the kernel and
    # its phase, would be a second rule for the same tail
    sites = {path.name: truncation_sites(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in sites.items() if found} == {
        "fourier.py": ["_product calls", "truncation_index computes"],
    }


def test_guard_sees_truncation_sites():
    source = (
        "def kernel(ifs, xi, tol):\n"
        "    return truncation_index(ifs, abs(xi), tol)\n"
        "def scan(ifs, xi, tol):\n"
        "    k = np.ceil(np.log(tol / xi) / math.log(abs(ifs.lam)))\n"
        "def depth(budget, m):\n"
        "    return math.ceil(math.log2(budget) / m)\n"
        "def cells(T):\n"
        "    return math.ceil(T), math.floor(-math.log2(T))\n"
        "def branching(lam):\n"
        "    return math.ceil(0.5 * (1.0 + 3.0 / abs(lam) ** 2))\n"
        "ks = fourier.truncation_index(ifs, [1.0], 1e-9)\n"
    )
    assert truncation_sites(source) == [
        "<module> calls", "depth computes", "kernel calls", "scan computes",
    ]


def leaf_parsers(parser) -> dict:
    """The parsers of the leaf subcommands, by command path ("ek trace")."""
    leaves = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                inner = leaf_parsers(sub)
                leaves.update({f"{name} {path}": leaf for path, leaf in inner.items()}
                              or {name: sub})
    return leaves


def undeclared_leaves(parser) -> list[str]:
    """Leaf subcommands whose parser does not set a handler and its formats."""
    return sorted(path for path, leaf in leaf_parsers(parser).items()
                  if leaf.get_default("handler") is None or not leaf.get_default("formats"))


def command_tables(source: str, commands) -> list[str]:
    """Module-level names bound to a value naming a handler or a subcommand.

    A handler is a ``_cmd_*`` name; a subcommand is a string constant
    among ``commands``.
    """
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
            continue
        parts = list(ast.walk(node.value))
        if any(isinstance(n, ast.Name) and n.id.startswith("_cmd_") for n in parts) or any(
            isinstance(n, ast.Constant) and n.value in commands for n in parts
        ):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [t.id for t in targets if isinstance(t, ast.Name)]
    return found


def test_one_declaration_per_subcommand():
    # a leaf's parser carries its flags, handler and formats; a table
    # beside the parser would be a second declaration of the subcommand
    leaves = leaf_parsers(cli.build_parser())
    assert sorted(leaves) == [
        "bernoulli", "bounds", "dim", "ek cover", "ek enumerate", "ek trace",
        "ek verify", "eval", "push", "scan",
    ]
    assert undeclared_leaves(cli.build_parser()) == []
    commands = {word for path in leaves for word in path.split()}
    assert command_tables((PACKAGE / "cli.py").read_text(encoding="utf-8"), commands) == []


def test_guard_sees_undeclared_leaves_and_command_tables():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("a").set_defaults(handler=print, formats=("json",))
    sub.add_parser("b").set_defaults(handler=print)
    sub.add_parser("c").set_defaults(formats=("json",))
    group = sub.add_parser("g").add_subparsers(dest="g_cmd")
    group.add_parser("x")
    group.add_parser("y").set_defaults(handler=print, formats=("csv",))
    assert sorted(leaf_parsers(parser)) == ["a", "b", "c", "g x", "g y"]
    assert undeclared_leaves(parser) == ["b", "c", "g x"]
    source = (
        "EXIT_OK = 0\n"
        "_COMMANDS = {'eval': _cmd_eval}\n"
        "_FORMATS = {'eval': ('json',), 'ek': ('json',)}\n"
        "HANDLERS: list = [_cmd_scan]\n"
        "FORMATS = ('json', 'csv')\n"
        "def run(args):\n"
        "    table = {'eval': _cmd_eval}\n"
    )
    assert command_tables(source, {"eval", "ek"}) == ["_COMMANDS", "_FORMATS", "HANDLERS"]
