"""In-memory span tracing of ssfourier's layers, installed from outside.

The tracer rebinds public functions of the seven modules (every module
attribute that refers to the same function object, so ``from .x import f``
aliases are caught too) with wrappers that record one span per call:
name, start, end, parent span and job id.  Work counts that cost more
than a size lookup are computed after the call, inside a ``bench.count``
span that is a sibling of the traced call; self times subtract child
spans, so counting never inflates a layer's self time.  Untraced runs
never call :func:`install`.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

COUNT_SPAN = "bench.count"


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    job: str
    end: float = 0.0
    work: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects the spans of one single-threaded caller in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), parent, self.job)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        sig = inspect.signature(fn) if count is not None else None

        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                with self.span(COUNT_SPAN):
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    s.work.update(count(result, **bound.arguments))
            return result

        return traced

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "job": s.job, "work": s.work}
            for s in self.spans
        ]


# ---------------------------------------------------------------------------
# work counts
# ---------------------------------------------------------------------------

def disk_points(T: float, k: int) -> np.ndarray:
    """Scan frequencies: a k x k subgrid in every unit cell meeting |xi| <= T.

    Cells are [i, i+1) x [j, j+1) with i, j in [-ceil(T), ceil(T)); a cell
    counts when its closest point to the origin lies in the closed disk.
    """
    n = int(np.ceil(T))
    idx = np.arange(-n, n, dtype=np.float64)
    near = np.clip(0.0, idx, idx + 1.0)
    ci, cj = np.nonzero(near[:, None] ** 2 + near[None, :] ** 2 <= T * T)
    oa, ob = np.meshgrid(np.arange(k) / k, np.arange(k) / k, indexing="ij")
    return ((idx[ci][:, None] + oa.ravel()) + 1j * (idx[cj][:, None] + ob.ravel())).ravel()


def _level_count(mu, n_min: int, n_max: int) -> int:
    """Levels the estimators regress over: n_min .. min(n_max, cap).

    The cap is the finest level whose cell side exceeds 4x the smallest
    positive atom gap.
    """
    from scipy.spatial import cKDTree

    pts = np.column_stack([mu.positions.real, mu.positions.imag])
    dists, _ = cKDTree(pts).query(pts, k=2)
    gap = dists[:, 1][dists[:, 1] > 0.0].min()
    cap = int(np.floor(-np.log2(4.0 * gap) - 1e-9))
    return max(0, min(n_max, cap) - n_min + 1)


def _grid_scan_work(result, ifs, T, subgrid_k, tol, **_):
    from ssfourier.fourier import truncation_index

    xi = disk_points(T, subgrid_k)
    return {"points": int(xi.size),
            "factors": int(truncation_index(ifs, np.abs(xi), tol).sum())}


def _cover_work(result, ifs, N, subgrid_k, **_):
    return {"points": int(disk_points(abs(ifs.lam) ** (-N), subgrid_k).size)}


def _sum_work(result, positions, xi, **_):
    return {"terms": int(np.size(positions)) * int(np.size(xi))}


def _tower_work(result, **_):
    return {"atoms": result.n_atoms}


def _binning_work(result, mu, n_min, n_max, **_):
    # two dyadic anchors (origin and the fixed irrational shift) per level
    return {"bin_atoms": mu.n_atoms * _level_count(mu, n_min, n_max) * 2}


def _enumerate_work(result, **_):
    return {"sequences": int(result[0])}


def _verify_work(result, sample_count, **_):
    return {"samples": int(sample_count)}


# (module, public function, span name, work count)
TARGETS = [
    ("cli", "run", "cli", None),
    ("fourier", "grid_scan", "fourier.grid_scan", _grid_scan_work),
    ("fourier", "mu_hat", "fourier.mu_hat", None),
    ("fourier", "fourier_sum", "fourier.sum", _sum_work),
    ("fourier", "energy_integral", "fourier.energy", None),
    ("measures", "finite_approximation", "measures.tower", _tower_work),
    ("dimensions", "dim_q_estimate", "dimensions.estimate", _binning_work),
    ("dimensions", "dim_inf_estimate", "dimensions.estimate", _binning_work),
    ("dimensions", "alpha_estimate", "dimensions.alpha", None),
    ("pushforward", "decay_profile", "pushforward.decay_profile", None),
    ("pushforward", "annulus_maxima", "pushforward.annulus", None),
    ("pushforward", "frostman_estimate", "pushforward.frostman", None),
    ("sparse", "covering_report", "sparse.cover", _cover_work),
    ("sparse", "enumerate_digit_sequences", "sparse.enumerate", _enumerate_work),
    ("sparse", "verify_digit_inequality", "sparse.verify", _verify_work),
    ("bounds", "delta_complex", "bounds.delta", None),
    ("bounds", "delta_real_noncollinear", "bounds.delta", None),
    ("bounds", "delta_higherdim", "bounds.delta", None),
    ("bounds", "eta_numeric", "bounds", None),
    ("bounds", "covering_bound", "bounds", None),
    ("bounds", "solve_flattening_epsilon", "bounds", None),
    ("bounds", "bernoulli_dim_lower", "bounds", None),
    ("bounds", "bernoulli_unbiased_dim_lower", "bounds", None),
]


def install(tracer: Tracer):
    """Rebind every alias of each target in ssfourier; return the undo function."""
    modules = [importlib.import_module("ssfourier")] + [
        importlib.import_module(f"ssfourier.{m}") for m in sorted({t[0] for t in TARGETS})
    ]
    undo = []
    for module, attr, name, count in TARGETS:
        orig = getattr(importlib.import_module(f"ssfourier.{module}"), attr)
        wrapper = tracer.wrap(orig, name, count)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapper)
                    undo.append((m, key, orig))

    def restore():
        for m, key, orig in reversed(undo):
            setattr(m, key, orig)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# metric -> (span names, kind, work key, unit)
LAYER_METRICS = {
    "fourier.product.points_per_s": (("fourier.grid_scan",), "rate", "points", "1/s"),
    "fourier.product.factors_per_s": (("fourier.grid_scan",), "rate", "factors", "1/s"),
    "fourier.mu_hat.us_per_call": (("fourier.mu_hat",), "us_per_call", None, "us"),
    "fourier.sum.terms_per_s": (("fourier.sum",), "rate", "terms", "1/s"),
    "fourier.energy.self_s": (("fourier.energy",), "self", None, "s"),
    "fourier.grid_scan.self_s": (("fourier.grid_scan",), "self", None, "s"),
    "measures.tower.atoms_per_s": (("measures.tower",), "rate", "atoms", "1/s"),
    "measures.tower.self_s": (("measures.tower",), "self", None, "s"),
    "dimensions.binning.atoms_per_s": (("dimensions.estimate",), "rate", "bin_atoms", "1/s"),
    "dimensions.estimate.self_s": (("dimensions.estimate",), "self", None, "s"),
    "dimensions.alpha.self_s": (("dimensions.alpha",), "self", None, "s"),
    "pushforward.frostman.self_s": (("pushforward.frostman",), "self", None, "s"),
    "pushforward.annulus.self_s": (("pushforward.annulus",), "self", None, "s"),
    "pushforward.decay_profile.self_s": (("pushforward.decay_profile",), "self", None, "s"),
    "sparse.cover.self_s": (("sparse.cover",), "self", None, "s"),
    "sparse.cover.points_per_s": (("sparse.cover",), "rate", "points", "1/s"),
    "sparse.enumerate.self_s": (("sparse.enumerate",), "self", None, "s"),
    "sparse.enumerate.sequences": (("sparse.enumerate",), "count", "sequences", "count"),
    "sparse.verify.samples_per_s": (("sparse.verify",), "rate", "samples", "1/s"),
    "bounds.self_s": (("bounds", "bounds.delta"), "self", None, "s"),
    "bounds.delta.calls": (("bounds.delta",), "calls", None, "count"),
    "cli.self_s": (("cli",), "self", None, "s"),
    "cli.out_bytes": (("job",), "count", "out_bytes", "B"),
}


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the time covered by direct children (one thread)."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def layer_metric(spans: list[Span], jobs, names, kind: str, key) -> float | None:
    """One per-layer value over the spans of ``jobs``, or None if none match.

    Self times and counts are medians over jobs of the per-job totals;
    rates are total work over total self time; ``us_per_call`` is total
    self time over calls.
    """
    picked = [
        (s, t) for s, t in zip(spans, self_times(spans))
        if s.name in names and s.job in jobs
    ]
    if not picked:
        return None
    if kind == "rate":
        return sum(s.work[key] for s, _ in picked) / sum(t for _, t in picked)
    if kind == "us_per_call":
        return 1e6 * sum(t for _, t in picked) / len(picked)
    per_job: dict[str, float] = {}
    for s, t in picked:
        value = {"self": t, "count": s.work.get(key, 0), "calls": 1}[kind]
        per_job[s.job] = per_job.get(s.job, 0) + value
    return float(statistics.median(per_job.values()))
