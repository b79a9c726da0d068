"""Command-line entry point.

Subcommands: eval, scan, bounds, ek (trace | verify | enumerate | cover),
dim, push, bernoulli.  Each is declared once, in its parser: its flags,
its handler and the --format values it writes.  Results go to stdout or
--out as JSON/CSV (scan fields also support a binary dump); a metadata
line (tool version, config hash, seed, wall time) always goes to stderr
so result files stay byte-reproducible.  Exit codes: 0 success, 1
domain/regime and file errors, 2 budget errors, 64 usage errors.

``run`` may be called any number of times in one process.  The parser is
built on the first call, not at import, and reused by the later ones:
argparse keeps no state of a parse on the parser, so each call parses as
a fresh process would.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .bounds import (
    bernoulli_dim_lower,
    bernoulli_unbiased_dim_lower,
    covering_bound,
    delta_bound,
    digit_transition_bound,
    solve_flattening_epsilon,
)
from .dimensions import (
    alpha_estimate,
    dim_inf_estimate,
    dim_q_estimate,
    frostman_estimate,
    lq_moment,
)
from .errors import BudgetError, ConvergenceError, DomainError
from .fourier import (
    DEFAULT_SUBGRID_K,
    DEFAULT_TOL,
    grid_scan,
    mu_hat,
    scanfield_to_binary,
    scanfield_to_csv,
)
from .measures import (
    DiscreteMeasure,
    IFSDescriptor,
    finite_approximation,
    ifs_from_json_str,
    measure_from_csv,
)
from .pushforward import AnalyticMap, decay_profile
from .sparse import (
    covering_report,
    ek_trace,
    enumerate_digit_sequences,
    verify_digit_inequality,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' command-line syntax ('0.5+0.5i', '-0.3i', '1')."""
    try:
        return complex(text.strip().replace("i", "j"))
    except ValueError as exc:
        raise _UsageError(f"cannot parse complex number {text!r}") from exc


def _parse_complex_list(text: str) -> list[complex]:
    return [parse_complex(part) for part in text.split(",") if part.strip()]


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise _UsageError(f"cannot parse number list {text!r}") from exc


def _parse_range(text: str, what: str, min_count: int) -> tuple[float, float, int]:
    """A range "a:b:count": positive finite a and b, count >= ``min_count``."""
    fields = text.split(":")
    if len(fields) != 3:
        raise _UsageError(f"{what} {text!r} is not a:b:count")
    try:
        a, b, n = float(fields[0]), float(fields[1]), int(fields[2])
    except ValueError as exc:
        raise _UsageError(f"cannot parse {what} {text!r}") from exc
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise _UsageError(f"{what} bounds must be positive and finite: {text!r}")
    if n < min_count:
        raise _UsageError(f"{what} {text!r} needs count >= {min_count}")
    return a, b, n


def _parse_radii(text: str) -> list[float]:
    """Positive radii: a comma list, or "a:b:count" geometric from a to b."""
    if ":" in text:
        a, b, n = _parse_range(text, "radius range", 2)
        ratio = (b / a) ** (1.0 / (n - 1))
        return [a * ratio**k for k in range(n)]
    radii = _parse_float_list(text)
    if not radii or not all(0.0 < r < math.inf for r in radii):
        raise _UsageError(f"radii must be positive and finite: {text!r}")
    return radii


def _integer_at_least(text: str, least: int, what: str) -> int:
    if not text.strip().isdecimal() or int(text) < least:
        raise argparse.ArgumentTypeError(f"{text!r} is not a {what} integer")
    return int(text)


def _positive(text: str) -> int:
    """A positive integer: a worker count or a work budget."""
    return _integer_at_least(text, 1, "positive")


def _seed(text: str) -> int:
    """A non-negative integer seed, as numpy's generators take."""
    return _integer_at_least(text, 0, "non-negative")


def _read_input(path: str) -> str:
    """Text of an ``--ifs`` or ``--measure-csv`` file; other than UTF-8 is a DomainError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path} is not UTF-8 text: {exc}") from exc


def _ifs_from_args(args) -> IFSDescriptor:
    if getattr(args, "ifs", None):
        return ifs_from_json_str(_read_input(args.ifs))
    if args.lam is None:
        raise _UsageError("need --lambda (or --ifs FILE)")
    digits = _parse_complex_list(args.digits) if args.digits else [-1.0, 1.0]
    probs = (
        _parse_float_list(args.probs)
        if args.probs
        else [1.0 / len(digits)] * len(digits)
    )
    return IFSDescriptor(parse_complex(args.lam), tuple(digits), tuple(probs))


def _add_ifs_flags(sub):
    sub.add_argument("--lambda", dest="lam", help="contraction ratio, a+bi syntax")
    sub.add_argument("--digits", help="comma list of digits (default -1,1)")
    sub.add_argument("--probs", help="comma list of weights (default uniform)")
    sub.add_argument("--ifs", help="JSON file with {lambda, digits, probs}")


def _emit(args, result: str | bytes):
    """Write a command's text or bytes to --out or stdout."""
    binary = isinstance(result, bytes)
    if args.out:
        with open(args.out, "wb" if binary else "w") as fh:
            fh.write(result)
    elif binary:
        sys.stdout.buffer.write(result)
    else:
        sys.stdout.write(result)


def _finite(doc):
    """``doc`` with every non-finite float replaced by None."""
    if isinstance(doc, dict):
        return {key: _finite(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite(value) for value in doc]
    return None if isinstance(doc, float) and not math.isfinite(doc) else doc


def _json_dump(doc) -> str:
    """Compact JSON with sorted keys; a non-finite float is written as null."""
    return json.dumps(_finite(doc), sort_keys=True, separators=(",", ":")) + "\n"


def _cx(z: complex) -> list[float]:
    return [z.real, z.imag]


def _cmd_eval(args) -> str:
    ifs = _ifs_from_args(args)
    xis = _parse_complex_list(args.xi)
    values = mu_hat(ifs, xis, args.tol).tolist()
    rows = [
        {"xi": _cx(xi), "mu_hat": _cx(val), "abs": abs(val)}
        for xi, val in zip(xis, values)
    ]
    return _json_dump({"results": rows})


def _cmd_scan(args):
    ifs = _ifs_from_args(args)
    fieldobj = grid_scan(
        ifs, args.T, args.subgrid_k, args.tol, workers=args.workers,
        cell_budget=args.budget,
    )
    if args.format == "csv":
        return scanfield_to_csv(fieldobj)
    if args.format == "bin":
        return scanfield_to_binary(fieldobj)
    cells = [[i, j, v] for (i, j), v in fieldobj.cells.items()]
    return _json_dump(
        {"T": fieldobj.T, "subgrid_k": fieldobj.subgrid_k, "cells": cells}
    )


def _cmd_bounds(args):
    p = _parse_float_list(args.p)
    lam = parse_complex(args.lam)
    if args.sweep:
        lo, hi, n = _parse_range(args.sweep, "sweep", 1)
        lines = ["lambda_re,lambda_im,epsilon,delta,valid"]
        for eps in np.geomspace(lo, hi, n).tolist():
            b = delta_bound(lam, p, eps, args.regime)
            lines.append(
                f"{lam.real!r},{lam.imag!r},{eps!r},{b.delta!r},{int(b.valid)}"
            )
        return "\n".join(lines) + "\n"
    bound = delta_bound(lam, p, args.epsilon, args.regime)
    doc = bound.to_json()
    if args.kappa is not None:
        eps, sigma, root = solve_flattening_epsilon(lam, p, args.kappa, args.regime)
        doc["flattening"] = {"kappa": args.kappa, "epsilon": eps, "sigma": sigma,
                             "delta_at_root": root.delta}
    if args.covering_N is not None:
        doc["covering_bound"] = covering_bound(lam, p, args.epsilon, args.covering_N)
        doc["covering_N"] = args.covering_N
    return _json_dump(doc)


def _cmd_ek_trace(args):
    trace = ek_trace(parse_complex(args.lam), parse_complex(args.t), args.N)
    return _json_dump({
        "t": _cx(trace.t), "N": trace.N, "r": [int(x) for x in trace.r],
        "eps": [float(x) for x in trace.eps], "rho": trace.rho,
        "good_indices": sorted(trace.good_indices),
    })


def _cmd_ek_verify(args):
    lam = parse_complex(args.lam)
    bound, branching = digit_transition_bound(lam)
    violations = verify_digit_inequality(lam, args.samples, args.N, args.seed)
    return _json_dump({
        "violations": violations, "samples": args.samples, "N": args.N,
        "bound": bound, "branching": branching, "seed": args.seed,
    })


def _cmd_ek_enumerate(args):
    count, bound = enumerate_digit_sequences(
        parse_complex(args.lam), args.eps_tilde, args.N, args.budget
    )
    return _json_dump(
        {"count": count, "bound": bound, "epsilon_tilde": args.eps_tilde, "N": args.N}
    )


def _cmd_ek_cover(args):
    # the system may come from --ifs, so --lambda is not read directly
    report = covering_report(
        _ifs_from_args(args), args.epsilon, args.N, args.subgrid_k,
        tol=args.tol, workers=args.workers, cell_budget=args.budget,
    )
    return _json_dump(report.to_json())


def _load_measure(args) -> tuple[DiscreteMeasure, DiscreteMeasure | IFSDescriptor]:
    """The atoms the dyadic moments bin, and the measure whose energy gives alpha.

    From --measure-csv both are the given atoms.  From an IFS the atoms are
    the --depth tower and the energy is that of the self-similar
    measure itself, through the product kernel.
    """
    if args.measure_csv:
        mu = measure_from_csv(_read_input(args.measure_csv))
        return mu, mu
    ifs = _ifs_from_args(args)
    return finite_approximation(ifs, args.depth, atom_budget=args.budget), ifs


def _cmd_dim(args):
    if args.format == "csv":
        # the CSV holds the moment rows alone, so nothing else is computed
        if args.T_values is not None:
            raise _UsageError("--T-values has no column in dim's CSV output")
        if args.n_min < 0 or args.n_max < args.n_min:
            raise DomainError("need 0 <= n_min <= n_max")
        mu, _ = _load_measure(args)
        lines = ["n,s_n,log_s_n"]
        for n in range(args.n_min, args.n_max + 1):
            s_n = lq_moment(mu, n, args.q)
            lines.append(f"{n},{s_n!r},{math.log(s_n)!r}")
        return "\n".join(lines) + "\n"
    radii = None if args.T_values is None else _parse_radii(args.T_values)
    mu, energy_target = _load_measure(args)
    doc = {}
    d2, e2 = dim_q_estimate(mu, args.q, args.n_min, args.n_max)
    doc["dim_q"] = {"q": args.q, "estimate": d2, "stderr": e2}
    dinf, einf = dim_inf_estimate(mu, args.n_min, args.n_max)
    doc["dim_inf"] = {"estimate": dinf, "stderr": einf}
    if radii is not None:
        alpha, via = alpha_estimate(energy_target, radii, args.step)
        doc["alpha"] = {"estimate": alpha, "dim2_via_alpha": via}
    return _json_dump(doc)


def _cmd_push(args):
    ifs = _ifs_from_args(args)
    f = AnalyticMap(tuple(_parse_complex_list(args.coeffs)))
    profile = decay_profile(
        f, ifs, _parse_radii(args.radii),
        directions=args.directions, approx_depth=args.depth, seed=args.seed,
        atom_budget=args.budget,
    )
    if args.format == "csv":
        lines = ["T,max_abs_ft,predicted_exponent"]
        for t_rad, v in zip(profile.radii, profile.annulus_max):
            lines.append(f"{t_rad!r},{v!r},{profile.predicted_exponent!r}")
        return "\n".join(lines) + "\n"
    return _json_dump(profile.to_json())


def _cmd_bernoulli(args):
    lam = parse_complex(args.lam)
    if args.unbiased:
        bound = bernoulli_unbiased_dim_lower(lam)
    else:
        bound = bernoulli_dim_lower(lam, args.p_bias)
    doc = bound.to_json()
    if args.frostman:
        ifs = IFSDescriptor(lam, (-1.0, 1.0), (args.p_bias, 1.0 - args.p_bias))
        doc["frostman_estimate"] = frostman_estimate(ifs, atom_budget=args.budget)
    return _json_dump(doc)


def build_parser() -> _Parser:
    parser = _Parser(prog="ssfourier", description=__doc__)
    parser.add_argument("--config", help="JSON file whose values override flags")
    parser.add_argument("--format", choices=["json", "csv", "bin"], default="json")
    parser.add_argument("--out", help="write results to this path")
    parser.add_argument("--workers", type=_positive, default=1)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--budget", type=_positive, default=None)
    sub = parser.add_subparsers(dest="command")

    def command(subparsers, name, handler, formats=("json",), **kwargs):
        """A leaf subcommand: its parser, the handler and the --format values it writes."""
        leaf = subparsers.add_parser(name, **kwargs)
        leaf.set_defaults(handler=handler, formats=formats)
        return leaf

    p_eval = command(sub, "eval", _cmd_eval, help="evaluate mu_hat at frequencies")
    _add_ifs_flags(p_eval)
    p_eval.add_argument("--xi", required=True, help="comma list of frequencies")
    p_eval.add_argument("--tol", type=float, default=1e-12)

    p_scan = command(sub, "scan", _cmd_scan, ("json", "csv", "bin"),
                     help="frequency-grid scan of |mu_hat|")
    _add_ifs_flags(p_scan)
    p_scan.add_argument("--T", type=float, required=True)
    p_scan.add_argument("--subgrid-k", dest="subgrid_k", type=int,
                        default=DEFAULT_SUBGRID_K)
    p_scan.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p_bounds = command(sub, "bounds", _cmd_bounds, help="closed-form covering bounds")
    p_bounds.add_argument("--lambda", dest="lam", required=True)
    p_bounds.add_argument("--p", required=True, help="comma list of weights")
    p_bounds.add_argument("--epsilon", type=float, default=0.01)
    p_bounds.add_argument(
        "--regime", choices=["auto", "complex", "real_noncollinear", "higher_dim"],
        default="auto",
    )
    p_bounds.add_argument("--kappa", type=float, default=None,
                          help="also solve kappa - 2 eps = delta(eps)")
    p_bounds.add_argument("--covering-N", dest="covering_N", type=int, default=None)
    p_bounds.add_argument("--sweep", help="epsilon sweep lo:hi:count as CSV")

    p_ek = sub.add_parser("ek", help="Erdos-Kahane digit diagnostics")
    ek_sub = p_ek.add_subparsers(dest="ek_cmd")
    p_trace = command(ek_sub, "trace", _cmd_ek_trace)
    p_trace.add_argument("--N", type=int, required=True)
    p_trace.add_argument("--lambda", dest="lam", required=True)
    p_trace.add_argument("--t", required=True)

    p_verify = command(ek_sub, "verify", _cmd_ek_verify)
    p_verify.add_argument("--N", type=int, required=True)
    p_verify.add_argument("--lambda", dest="lam", required=True)
    p_verify.add_argument("--samples", type=int, default=10000)
    # absent unless given here, so a global --seed is not reset
    p_verify.add_argument("--seed", type=_seed, default=argparse.SUPPRESS)

    p_enum = command(ek_sub, "enumerate", _cmd_ek_enumerate)
    p_enum.add_argument("--N", type=int, required=True)
    p_enum.add_argument("--lambda", dest="lam", required=True)
    p_enum.add_argument("--eps-tilde", dest="eps_tilde", type=float, required=True)

    p_cover = command(ek_sub, "cover", _cmd_ek_cover)
    p_cover.add_argument("--N", type=int, required=True)
    _add_ifs_flags(p_cover)
    p_cover.add_argument("--epsilon", type=float, required=True)
    p_cover.add_argument("--subgrid-k", dest="subgrid_k", type=int,
                         default=DEFAULT_SUBGRID_K)
    p_cover.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p_dim = command(sub, "dim", _cmd_dim, ("json", "csv"), help="dimension estimators")
    _add_ifs_flags(p_dim)
    p_dim.add_argument("--measure-csv", dest="measure_csv")
    p_dim.add_argument("--depth", type=int, default=8)
    p_dim.add_argument("--q", type=float, default=2.0)
    p_dim.add_argument("--n-min", dest="n_min", type=int, default=1)
    p_dim.add_argument("--n-max", dest="n_max", type=int, default=8)
    p_dim.add_argument("--T-values", dest="T_values",
                       help="energy radii (comma list or a:b:count)")
    p_dim.add_argument("--step", type=float, default=0.5)

    p_push = command(sub, "push", _cmd_push, ("json", "csv"),
                     help="push-forward decay profile")
    _add_ifs_flags(p_push)
    p_push.add_argument("--coeffs", required=True,
                        help="polynomial coefficients c0,c1,... (a+bi syntax)")
    p_push.add_argument("--radii", required=True, help="comma list or a:b:count")
    p_push.add_argument("--directions", type=int, default=256)
    p_push.add_argument("--depth", type=int, default=14)

    p_bern = command(sub, "bernoulli", _cmd_bernoulli,
                     help="Bernoulli dimension lower bounds")
    p_bern.add_argument("--lambda", dest="lam", required=True)
    p_bern.add_argument("--p-bias", dest="p_bias", type=float, default=0.5)
    p_bern.add_argument("--unbiased", action="store_true")
    p_bern.add_argument("--frostman", action="store_true")
    return parser


@functools.cache
def _parser() -> _Parser:
    """The one parser of this process, built on the first ``run``, not at import.

    ``parse_args`` keeps nothing of a parse on the parser, so every call
    reuses it as a fresh process would use its own.
    """
    return build_parser()


def _selected_actions(parser, args) -> dict:
    """Actions of ``parser`` and of the subparsers ``args`` selected, by dest."""
    actions = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            chosen = getattr(args, action.dest, None)
            if chosen in action.choices:
                actions.update(_selected_actions(action.choices[chosen], args))
        else:
            actions.setdefault(action.dest, action)
    return actions


def _config_value(action, key: str, value):
    """Check and convert one config value as its flag would be on the command line.

    Flags without an argument take JSON booleans; any other value goes
    through the flag's ``type`` as command-line text (JSON numbers as
    their JSON text) and then its ``choices``.
    """
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise _UsageError(f"config key {key!r} needs true or false")
        return value
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        value = text if action.type is None else action.type(text)
    except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
        raise _UsageError(f"config key {key!r}: invalid value {text!r}") from exc
    if action.choices is not None and value not in action.choices:
        raise _UsageError(
            f"config key {key!r}: {value!r} is not one of {list(action.choices)}"
        )
    return value


def _config_hash(args) -> str:
    """Hash of the effective arguments, --config contents included.

    The config path is left out, and so are the handler and formats a
    leaf subcommand's parser sets beside its flags.
    """
    effective = {
        k: v for k, v in vars(args).items() if k not in ("config", "handler", "formats")
    }
    doc = json.dumps(effective, sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def _error_doc(kind: str, message: str) -> str:
    return _json_dump({"error": {"kind": kind, "message": message}})


def run(argv) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    argv = list(argv)
    start = time.monotonic()
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config values take precedence over flags
            with open(args.config, "r", encoding="utf-8") as fh:
                try:
                    config = json.load(fh)
                except ValueError as exc:
                    raise _UsageError(f"config file is not JSON: {exc}") from exc
            if not isinstance(config, dict):
                raise _UsageError("config file must hold a JSON object")
            actions = _selected_actions(parser, args)
            for key, value in config.items():
                if key not in vars(args) or key not in actions:
                    raise _UsageError(f"unknown config key {key!r}")
                setattr(args, key, _config_value(actions[key], key, value))
        if not args.command:
            raise _UsageError("missing subcommand")
        if "handler" not in args:
            # ek is the one subcommand with subcommands of its own
            raise _UsageError("ek needs one of: trace, verify, enumerate, cover")
        writer, formats = args.command, args.formats
        if getattr(args, "sweep", None):
            # bounds --sweep writes its CSV under the default json too
            writer, formats = "bounds --sweep", ("json", "csv")
        if args.format not in formats:
            raise _UsageError(f"{writer} cannot write --format {args.format}")
        _emit(args, args.handler(args))
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except BudgetError as exc:
        sys.stdout.write(_error_doc("budget", str(exc)))
        return EXIT_BUDGET
    except (DomainError, ConvergenceError, OverflowError, OSError) as exc:
        sys.stdout.write(_error_doc(type(exc).__name__, str(exc)))
        return EXIT_DOMAIN
    meta = {
        "tool": "ssfourier",
        "version": __version__,
        "config_hash": _config_hash(args),
        "seed": getattr(args, "seed", None),
        "wall_time_s": round(time.monotonic() - start, 6),
    }
    sys.stderr.write(_json_dump(meta))
    return EXIT_OK


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
