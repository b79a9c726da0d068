"""The benchmark's workloads: seeded CLI invocations and their output checks.

A workload builds one *job* at a time: a fixed list of ``ssfourier``
command lines, each with a check that reads the written output and
returns a list of failure messages (empty when correct).  Inputs come
from ``numpy.random.default_rng([seed, repetition])``, so no job can
reuse what the previous one computed.  Reference values are computed
here, independently of the library, when the job is built.

``toy=True`` gives the same command lines at sizes that run in about a
second; the smoke test and the traced runs' coverage pass use them.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Job sizes are chosen so that a run holds six or more timed jobs: on a
# shared 2-core machine one job's time can change by half as neighbours load
# and leave the host, and a percentile over a run's jobs damps that to the
# run-to-run spread recorded in baseline.json.
#
# |lambda| for the seeded-angle systems.  T = 0.71**-12 = 60.94 is not
# near a distance at which a unit cell touches the disk, so the cell count
# (the work of `ek cover`) is the same for every angle; |lambda| = 2**-0.5
# would put T = 2**6 on such a tie and let round-off in |lambda| move it.
MODULUS = 0.71
COMPLEX_BERNOULLI = "0.5+0.5i"
PUSH_CONTROL = (0.4 - 0.3j, 0.9 + 0.2j)
LOG3_LOG2 = math.log(3.0) / math.log(2.0)


@dataclass
class Op:
    """One CLI invocation and the check of the file it writes."""

    argv: list[str]
    out: Path
    check: Callable[[bytes], list[str]]


def cx(z: complex) -> str:
    """A complex number in the CLI's a+bi syntax, exact to the last bit."""
    z = complex(z)
    return f"{z.real!r}{'+' if math.copysign(1.0, z.imag) > 0 else ''}{z.imag!r}i"


def parse_cx(text: str) -> complex:
    return complex(text.replace("i", "j"))


def _json(blob: bytes) -> dict:
    return json.loads(blob.decode())


def _expect(ok: bool, message: str) -> list[str]:
    return [] if ok else [message]


# ---------------------------------------------------------------------------
# scan: batched product evaluator, process pool, scan-field dump
# ---------------------------------------------------------------------------

def scan_job(rng, out: Path, toy: bool = False) -> list[Op]:
    from ssfourier.fourier import scanfield_from_binary
    from spans import disk_points

    lam = cx(MODULUS * np.exp(1j * rng.uniform(math.pi / 6, 5 * math.pi / 6)))
    N, T = (6, 4) if toy else (12, 48)
    w = str(min(2, len(os.sched_getaffinity(0))))  # pool size, at most nproc

    def check_cover(blob):
        doc = _json(blob)
        return (_expect(doc["inclusion_violations"] == 0,
                        f"{doc['inclusion_violations']} inclusion violations")
                + _expect(doc["empirical_count"] <= doc["bound_count"],
                          "empirical count above the covering bound"))

    def check_scan(blob):
        field = scanfield_from_binary(blob)
        cells = disk_points(T, 1).size
        return (_expect(field.cells.get((0, 0)) == 1.0, "origin cell is not 1.0")
                + _expect(len(field.cells) == cells,
                          f"{len(field.cells)} cells, disk has {cells}"))

    return [
        Op(["--workers", w, "--out", str(out / "cover.json"), "ek", "cover",
            "--lambda=" + lam, "--N", str(N), "--epsilon", "0.05"],
           out / "cover.json", check_cover),
        Op(["--workers", w, "--format", "bin", "--out", str(out / "scan.bin"),
            "scan", "--lambda=" + lam, "--T", str(T)],
           out / "scan.bin", check_scan),
    ]


# ---------------------------------------------------------------------------
# push: tower construction, direct sums on circles, Frostman ball counting
# ---------------------------------------------------------------------------

def tower(lam: complex, digits, probs, depth: int):
    """All atoms of sum_{n<depth} lam^n X_n, with their weights (no merging)."""
    pos, wts = np.zeros(1, dtype=np.complex128), np.ones(1)
    for n in range(depth):
        pos = (pos[:, None] + lam**n * np.asarray(digits)[None, :]).ravel()
        wts = (wts[:, None] * np.asarray(probs)[None, :]).ravel()
    return pos, wts


def control_reference(lam, digits, probs, depth, radii, directions, seed):
    """Annulus maxima of |FT(F mu_depth)| for the affine F, by a direct sum.

    Angles follow the library's recipe: ``directions`` equispaced angles
    plus ``directions`` jittered ones, one generator seeded once.
    """
    pos, wts = tower(lam, digits, probs, depth)
    c0, c1 = PUSH_CONTROL
    pushed = c0 + c1 * pos
    rng = np.random.default_rng(seed)
    out = []
    for t_rad in radii:
        ang = 2 * np.pi * np.arange(directions) / directions
        ang = np.concatenate(
            [ang, 2 * np.pi * (np.arange(directions) + rng.random(directions)) / directions])
        xi = t_rad * np.exp(1j * ang)
        phase = np.outer(xi.real, pushed.real) + np.outer(xi.imag, pushed.imag)
        out.append(float(np.max(np.abs(np.exp(2j * np.pi * phase) @ wts))))
    return out


def push_job(rng, out: Path, toy: bool = False) -> list[Op]:
    seed = int(rng.integers(2**31))
    if toy:
        # Frostman estimation always builds a ~1e6-atom tower unless atoms
        # coincide; this lattice system merges down to ~1.7e4 atoms.  Its
        # depth-6 atoms sit on a fine lattice, so |FT| stops decaying as the
        # radius nears the period: radii up to 16 gave slopes above -0.01
        # for some seeds, radii up to 8 give slopes below -0.3 for all.
        lam, digits = 0.5j, [complex(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
        quad = ("1:8:4", "16", "6")
        control = ([2.0, 4.0, 8.0], 8, 5)
    else:
        # Digits -1, 0, 1 make tower atoms coincide, so the ~1.6e6-atom
        # Frostman tower merges to ~1e5 atoms and a job takes ~2 s (with
        # digits -1, 1 each push call spends 5 s there).  The atoms sit on
        # a lattice, so |FT| is periodic in xi; radii stay below 16, where
        # the depth-11 profile still decays.
        lam, digits = parse_cx(COMPLEX_BERNOULLI), [-1.0, 0.0, 1.0]
        quad = ("1:16:9", "48", "11")
        control = ([16.0, 64.0, 256.0], 32, 8)
    probs = [1.0 / len(digits)] * len(digits)
    ifs = ["--lambda=" + cx(lam), "--digits=" + ",".join(cx(d) for d in digits)]
    radii, directions, depth = control
    want = control_reference(lam, digits, probs, depth, radii, directions, seed)

    def check_quad(blob):
        slope = _json(blob)["slope"]
        return _expect(slope < -0.01, f"slope {slope} not below -0.01")

    def check_control(blob):
        got = _json(blob)["annulus_max"]
        worst = max(abs(g - w) for g, w in zip(got, want))
        return _expect(len(got) == len(want) and worst < 1e-9,
                       f"affine control off the direct sum by {worst:g}")

    head = ["--workers", "1", "--seed", str(seed), "--out"]
    return [
        Op(head + [str(out / "quad.json"), "push", *ifs, "--coeffs", "0,0,1",
                   "--radii", quad[0], "--directions", quad[1], "--depth", quad[2]],
           out / "quad.json", check_quad),
        Op(head + [str(out / "control.json"), "push", *ifs,
                   "--coeffs", ",".join(cx(c) for c in PUSH_CONTROL),
                   "--radii", ",".join(map(str, radii)),
                   "--directions", str(directions), "--depth", str(depth)],
           out / "control.json", check_control),
    ]


# ---------------------------------------------------------------------------
# dim: dyadic binning, resolution cap, lattice energy integrals
# ---------------------------------------------------------------------------

def dim_job(rng, out: Path, toy: bool = False) -> list[Op]:
    # Fixed inputs: the reference dimensions depend on the geometry.  At
    # these depths dyadic binning and the gasket's energy-integral sums take
    # about equal shares of a job.
    square_depth, gasket_depth = (8, 7) if toy else (8, 9)

    def check_square(blob):
        doc = _json(blob)
        d2, dinf = doc["dim_q"]["estimate"], doc["dim_inf"]["estimate"]
        return (_expect(abs(d2 - 2.0) <= 0.1, f"square dim_2 {d2}")
                + _expect(abs(dinf - 2.0) <= 0.15, f"square dim_inf {dinf}"))

    def check_gasket(blob):
        doc = _json(blob)
        d2, via = doc["dim_q"]["estimate"], doc["alpha"]["dim2_via_alpha"]
        return (_expect(abs(d2 - LOG3_LOG2) <= 0.1, f"gasket dim_2 {d2}")
                + _expect(abs(via - d2) <= 0.2, f"alpha reading {via} vs dim_2 {d2}"))

    head = ["--workers", "1", "--out"]
    return [
        Op(head + [str(out / "square.json"), "dim", "--lambda", "0.5",
                   "--digits", "0,1,i,1+i", "--depth", str(square_depth),
                   "--n-min", "2", "--n-max", "8"],
           out / "square.json", check_square),
        Op(head + [str(out / "gasket.json"), "dim", "--lambda", "0.5",
                   "--digits", "0,1,i", "--depth", str(gasket_depth),
                   "--n-min", "1", "--n-max", "8", "--T-values", "2:8:3"],
           out / "gasket.json", check_gasket),
    ]


# ---------------------------------------------------------------------------
# probe: single-point calls where per-call overhead sets the time
# ---------------------------------------------------------------------------

def product_reference(lam: complex, digits, probs, xi: np.ndarray) -> np.ndarray:
    """prod_n Phi(lam^n conj(xi)), truncated where the tail is below 1e-16."""
    wmax = max(abs(w) for w in digits)
    tail = 2 * math.pi * wmax * float(np.max(np.abs(xi))) / (1 - abs(lam))
    K = math.ceil(math.log(1e-16 / tail) / math.log(abs(lam)))
    u, out = np.conj(xi), np.ones(xi.shape, dtype=np.complex128)
    for _ in range(K):
        out = out * sum(p * np.exp(2j * np.pi * (w.real * u.real - w.imag * u.imag))
                        for w, p in zip(digits, probs))
        u = u * lam
    return out


def probe_job(rng, out: Path, toy: bool = False) -> list[Op]:
    lam = parse_cx(cx(MODULUS * np.exp(1j * rng.uniform(math.pi / 6, 5 * math.pi / 6))))
    n_xi, enum_n, samples, verify_n, sweep_n, cover_n = (
        (20, 8, 1000, 10, 10, 8) if toy else (250, 13, 20000, 20, 20, 12))
    # stratified radii with seeded angles: every job evaluates the same
    # moduli, so the per-point truncation indices (the work) never change
    radii = 100.0 * np.sqrt((np.arange(n_xi) + 0.5) / n_xi)
    xi = radii * np.exp(2j * np.pi * rng.random(n_xi))
    xi = np.array([parse_cx(cx(z)) for z in xi])
    want = product_reference(lam, (-1.0, 1.0), (0.5, 0.5), xi)
    lam_real = float(rng.uniform(0.4, 0.6))
    verify_seed = int(rng.integers(2**31))
    bern = cx(0.999 * np.exp(1j * math.pi / 7))

    def check_eval(blob):
        rows = _json(blob)["results"]
        got = np.array([complex(*r["mu_hat"]) for r in rows])
        err = float(np.max(np.abs(got - want))) if len(rows) == n_xi else math.inf
        return (_expect(all(r["abs"] <= 1.0 for r in rows), "|mu_hat| above 1")
                + _expect(err <= 4e-12, f"mu_hat off the reference by {err:g}"))

    def check_enumerate(blob):
        doc = _json(blob)
        return _expect(doc["count"] <= doc["bound"], f"count {doc['count']} above bound")

    def check_verify(blob):
        v = _json(blob)["violations"]
        return _expect(v == 0, f"{v} digit-transition violations")

    def check_sweep(blob):
        rows = [line.split(",") for line in blob.decode().splitlines()[1:]]
        delta = np.array([float(r[3]) for r in rows])
        return _expect(len(rows) == sweep_n and all(r[4] == "1" for r in rows)
                       and bool(np.all(np.diff(delta) > 0)),
                       "delta sweep not valid and strictly increasing")

    def check_flattening(blob):
        doc = _json(blob)
        f = doc["flattening"]
        residual = abs(f["kappa"] - 2 * f["epsilon"] - f["delta_at_root"])
        return (_expect(residual <= 1e-9, f"flattening residual {residual:g}")
                + _expect(0 < doc["covering_bound"] < math.inf, "covering bound not finite"))

    def check_bernoulli(blob):
        d2 = _json(blob)["dim2_lower"]
        return _expect(d2 <= 2.0, f"dim2_lower {d2} above 2")

    def op(name, argv, check):
        return Op(["--workers", "1", "--out", str(out / name)] + argv, out / name, check)

    return [
        op("eval.json", ["eval", "--lambda=" + cx(lam),
                         "--xi=" + ",".join(cx(z) for z in xi)], check_eval),
        op("enumerate.json", ["ek", "enumerate", "--lambda", COMPLEX_BERNOULLI,
                              "--eps-tilde", "0.3", "--N", str(enum_n)], check_enumerate),
        op("verify.json", ["ek", "verify", "--lambda=" + cx(lam), "--samples", str(samples),
                           "--N", str(verify_n), "--seed", str(verify_seed)], check_verify),
        op("sweep.csv", ["bounds", "--lambda", repr(lam_real), "--p", "0.2,0.3,0.5",
                         "--regime", "real_noncollinear",
                         "--sweep", f"1e-4:1e-3:{sweep_n}"], check_sweep),
        op("flattening.json", ["bounds", "--lambda", COMPLEX_BERNOULLI, "--p", "0.5,0.5",
                               "--kappa", "0.5", "--covering-N", str(cover_n)],
           check_flattening),
        op("bernoulli.json", ["bernoulli", "--lambda=" + bern], check_bernoulli),
    ]


WORKLOADS = {"scan": scan_job, "push": push_job, "dim": dim_job, "probe": probe_job}
