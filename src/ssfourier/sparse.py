"""Erdos-Kahane digit dynamics, empirically.

For a non-real contraction lam and a normalized frequency t (|t| < 1) the
real parts of lam^{-j} t split into integer digits r_j and errors
eps_j in [-1/2, 1/2).  The digit-transition inequality

    |r_{j+1} - (2*a*r_j - r_{j-1}) / |lam|^2| <= (1 + 3/|lam|^2) / 2

constrains admissible digit sequences; frequencies where |mu_hat| stays
large have many small errors (membership in S(N, et)) and are therefore
covered by an explicit number of unit squares.  This module traces the
sequences, verifies the proven inequalities on random samples, enumerates
admissible sequences exhaustively at small N, and compares empirical
covering counts against the explicit bound.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import (
    covering_bound,
    delta_complex,
    good_index_requirement,
    good_rho,
    sequence_count,
    transition_bound,
)
from .errors import BudgetError, DomainError, RegimeError
from .fourier import DEFAULT_SUBGRID_K, DEFAULT_TOL, scan_blocks
from .measures import IFSDescriptor, is_real_lambda

FLOAT_SLACK = 1e-9
ENUM_MAX_N = 14
_SAFE_MAGNITUDE = 2.0**52


@dataclass(frozen=True)
class EKTrace:
    """Digit/error sequences r_j, eps_j for one normalized frequency.

    Satisfies Re(lam^{-j} t) = r_j + eps_j with eps_j in [-1/2, 1/2)
    exactly (up to roundoff ~1e-9 * |lam|^{-j}).  ``good`` marks indices
    with |eps_j| < rho, rho = |lam|^2 / (2(|lam|^2 + 3)).
    """

    lam: complex
    t: complex
    N: int
    r: np.ndarray    # int64, length N
    eps: np.ndarray  # float64, length N
    rho: float

    @property
    def good(self) -> np.ndarray:
        return np.abs(self.eps) < self.rho

    @property
    def good_indices(self) -> frozenset:
        return frozenset(int(j) for j in np.flatnonzero(self.good))


def _digit_expansion(lam: complex, t, N: int):
    """Re(t lam^{-j}) = r_j + eps_j for j < N along the last axis.

    t is a scalar or an array of frequencies with |t| < 1.  Returns
    (r_j as floats, eps_j in [-1/2, 1/2)).  Raises
    RegimeError for a lambda that ``is_real_lambda`` calls real, and
    OverflowError when |lam|^{-(N-1)} would push the digits past exact
    float integer range (2^52).
    """
    if is_real_lambda(lam):
        raise RegimeError("digit expansion needs Im(lambda) != 0")
    if not 0.0 < abs(lam) < 1.0:
        raise DomainError("need 0 < |lambda| < 1")
    if abs(lam) ** (-(N - 1)) > _SAFE_MAGNITUDE:
        raise OverflowError(
            f"|lambda|^-{N - 1} exceeds the safe digit magnitude 2^52"
        )
    c = (np.asarray(t)[..., None] * (1.0 / lam) ** np.arange(N)).real
    r = np.floor(c + 0.5)
    return r, c - r


def _sparse_membership(eps: np.ndarray, rho: float, epsilon_tilde: float, slack: float):
    """S(N, et) membership along the last axis of the digit errors."""
    good = np.sum(np.abs(eps) < rho + slack, axis=-1)
    return good >= good_index_requirement(epsilon_tilde, eps.shape[-1])


def ek_trace(lam: complex, t: complex, N: int) -> EKTrace:
    """Trace the digit expansion of Re(lam^{-j} t) for j = 0..N-1.

    Digits are nearest integers with half-integer ties resolved so that
    eps_j lands in [-1/2, 1/2).  Raises OverflowError when |lam|^{-N}
    would push the digits past exact float integer range (2^52).
    """
    lam = complex(lam)
    t = complex(t)
    if abs(t) >= 1.0:
        raise DomainError("need |t| < 1")
    if N < 2:
        raise DomainError("need N >= 2")
    r, eps = _digit_expansion(lam, t, N)
    return EKTrace(lam, t, N, r.astype(np.int64), eps, good_rho(abs(lam)))


def digit_transition_bound(lam: complex) -> tuple[float, int]:
    """The transition bound (1 + 3/|lam|^2)/2 and its ceiling, the branching."""
    lam = complex(lam)
    if is_real_lambda(lam):
        raise RegimeError("digit transition bound needs Im(lambda) != 0")
    if not 0.0 < abs(lam) < 1.0:
        raise DomainError("need 0 < |lambda| < 1")
    b = transition_bound(abs(lam))
    return b, math.ceil(b)


def _sampled_expansion(lam: complex, sample_count: int, N: int, seed: int):
    """Digit expansions of frequencies drawn uniformly in the unit disk."""
    if sample_count < 1:
        raise DomainError("need at least 1 sample")
    rng = np.random.default_rng(seed)
    radius = np.sqrt(rng.random(sample_count))
    angle = 2.0 * np.pi * rng.random(sample_count)
    return _digit_expansion(lam, radius * np.exp(1j * angle), N)


def verify_digit_inequality(
    lam: complex, sample_count: int, N: int, seed: int
) -> int:
    """Count violations of the digit-transition inequality on random t.

    Draws ``sample_count`` frequencies uniformly in the unit disk, builds
    their traces and checks every interior index j (1 <= j <= N-2) with
    additive slack 1e-9 on the proven bound.  The inequality holds for
    every t, so the return value is 0 unless the implementation is wrong.
    """
    lam = complex(lam)
    bound, _ = digit_transition_bound(lam)
    if N < 3:
        raise DomainError("need N >= 3 to check a transition")
    r, _ = _sampled_expansion(lam, sample_count, N, seed)
    a2 = abs(lam) ** 2
    lhs = np.abs(r[:, 2:] - (2.0 * lam.real * r[:, 1:-1] - r[:, :-2]) / a2)
    return int(np.sum(lhs > bound + FLOAT_SLACK))


# ---------------------------------------------------------------------------
# exhaustive enumeration of admissible digit sequences
# ---------------------------------------------------------------------------

_STRIP_TOL = 1e-12


def _clip_strip(poly, vs, lo, hi):
    """Vertices of a convex polygon where lo <= v <= hi, in boundary order.

    ``poly`` lists the (x, y) vertices and ``vs`` the linear form v at
    each of them.  One Sutherland-Hodgman pass clips both sides: a vertex
    inside the strip is kept, and an edge that crosses a strip line adds
    the crossing point, two crossings ordered by the edge's direction.
    """
    out = []
    n = len(poly)
    for i in range(n):
        v0, v1 = vs[i], vs[i + 1 - n]
        if lo <= v0 <= hi:
            out.append(poly[i])
        for c in ((lo, hi) if v0 < v1 else (hi, lo)):
            if v0 < c < v1 or v1 < c < v0:
                s = (c - v0) / (v1 - v0)
                (x0, y0), (x1, y1) = poly[i], poly[i + 1 - n]
                out.append((x0 + s * (x1 - x0), y0 + s * (y1 - y0)))
    return out


def _meets_disk(poly):
    """Whether a convex polygon meets |t|^2 <= 1 + 1e-12.

    True when a vertex lies in the disk, when the point of some edge
    nearest the origin does, or when the origin lies inside the polygon.
    Polygons with one or two vertices (slivers) are handled alike.
    """
    limit = 1.0 + _STRIP_TOL
    if any(x * x + y * y <= limit for x, y in poly):
        return True
    n = len(poly)
    crosses = []
    for i in range(n):
        (x0, y0), (x1, y1) = poly[i], poly[i + 1 - n]
        dx, dy = x1 - x0, y1 - y0
        dd = dx * dx + dy * dy
        if dd > 0.0:
            s = -(x0 * dx + y0 * dy) / dd
            if 0.0 < s < 1.0:
                px, py = x0 + s * dx, y0 + s * dy
                if px * px + py * py <= limit:
                    return True
        crosses.append(x0 * y1 - y0 * x1)
    return all(c > 0.0 for c in crosses) or all(c < 0.0 for c in crosses)


def _admissible_sequences(lam: complex, et: float, N: int) -> set[tuple[int, ...]]:
    """Digit tuples (r_0..r_{N-1}) realizable in the disk with enough good indices.

    Depth-first search over (r_j, good-required) choices.  Each node
    carries the convex polygon of t = x + iy consistent with its prefix:
    the square [-1, 1]^2 clipped by the strips
    r_j - half - 1e-12 <= Re(lam^{-j} t) <= r_j + half + 1e-12,
    half = rho for a required-good index and 1/2 otherwise.
    """
    rho = good_rho(abs(lam))
    n_good = good_index_requirement(et, N)
    inv_pows = [(1.0 / lam) ** j for j in range(N)]
    alphas = [z.real for z in inv_pows]
    betas = [z.imag for z in inv_pows]
    found: set[tuple[int, ...]] = set()
    digits: list[int] = []

    def rec(j, poly, tights):
        if j == N:
            if tights >= n_good:
                found.add(tuple(digits))
            return
        al, be = alphas[j], betas[j]
        vs = [al * x - be * y for x, y in poly]
        vmin, vmax = min(vs), max(vs)
        rmin = math.ceil(vmin - 0.5 - FLOAT_SLACK)
        rmax = math.floor(vmax + 0.5 + FLOAT_SLACK)
        remaining_after = N - j - 1
        for r in range(rmin, rmax + 1):
            digits.append(r)
            for tight in (True, False):
                if not tight and tights + remaining_after < n_good:
                    continue
                half = rho if tight else 0.5
                lo, hi = r - half - _STRIP_TOL, r + half + _STRIP_TOL
                if lo <= vmin and vmax <= hi:
                    child = poly
                else:
                    child = _clip_strip(poly, vs, lo, hi)
                    if not child or not _meets_disk(child):
                        continue
                rec(j + 1, child, tights + (1 if tight else 0))
            digits.pop()

    rec(0, [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)], 0)
    return found


def enumerate_digit_sequences(
    lam: complex, epsilon_tilde: float, N: int
) -> tuple[int, float]:
    """Exhaustively count digit sequences realizable with enough good indices.

    A sequence r_0..r_{N-1} counts when the set of t in the unit disk with
    Re(lam^{-j} t) within rho of r_j at >= ceil((1 - et) N) indices and
    within 1/2 of r_j at the others is non-empty.  That set is a convex
    polygon, and the search clips it exactly, strip by strip; each strip
    is widened by 1e-12 on both sides and the disk to |t|^2 <= 1 + 1e-12,
    so the count is exact up to that widening and never misses a
    realizable sequence.  Returns (count, M_N * e^{h(et) N}); a finite
    et is clamped to [0, 1], so et -> 1 enumerates with no good-index
    requirement at all.
    """
    lam = complex(lam)
    if N < 1:
        raise DomainError("need N >= 1")
    if N > ENUM_MAX_N:
        raise BudgetError(f"enumeration is exhaustive only up to N = {ENUM_MAX_N}")
    if is_real_lambda(lam):
        raise RegimeError("enumeration needs Im(lambda) != 0")
    if not math.isfinite(epsilon_tilde):
        raise DomainError("epsilon_tilde must be finite")
    et = min(max(float(epsilon_tilde), 0.0), 1.0)
    _, branching = digit_transition_bound(lam)
    return len(_admissible_sequences(lam, et, N)), sequence_count(branching, et, N)


# ---------------------------------------------------------------------------
# empirical covering reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoveringReport:
    """Empirical sparse-set size at scale T = |lam|^{-N} vs the explicit bound.

    ``empirical_count`` counts unit cells whose sampled max |mu_hat|
    reaches T^{-epsilon}; ``inclusion_violations`` counts sampled
    frequencies that certainly qualify yet fail S(N, et) membership
    (the theory predicts 0); ``checked_points`` is how many sampled
    frequencies were subjected to the membership test.
    """

    T: float
    N: int
    epsilon: float
    epsilon_tilde: float
    empirical_count: int
    bound_count: float
    subgrid_k: int
    inclusion_violations: int
    checked_points: int

    def to_json(self) -> dict:
        return asdict(self)


def covering_report(
    ifs: IFSDescriptor,
    epsilon: float,
    N: int,
    subgrid_k: int = DEFAULT_SUBGRID_K,
    tol: float = DEFAULT_TOL,
    workers: int = 1,
    cell_budget: int | None = None,
) -> CoveringReport:
    """Scan the disk |xi| <= |lam|^{-N} and audit the sparse-set inclusion.

    Cells qualify by sampled max >= T^{-epsilon}.  Every sampled
    frequency xi that certainly qualifies (sampled value minus the 2*tol
    truncation error still reaches the threshold) is rescaled to
    t = lam^N * conj(xi) and must land in S(N, et); membership is tested
    with 1e-9 additive slack on rho.  Frequencies with |t| >= 1 are
    outside the statement and are skipped.  Each row block of
    ``scan_blocks`` is counted and audited before the next is read, so
    memory is O(block), not O(points).
    """
    if ifs.bound_regime() != "complex":
        raise RegimeError("covering reports need the complex (Im lambda != 0) regime")
    lam = ifs.lam
    if N < 2:
        raise DomainError("need N >= 2")
    et = delta_complex(lam, ifs.probs, epsilon).epsilon_tilde
    T = abs(lam) ** (-N)
    blocks = scan_blocks(ifs, T, subgrid_k, tol, workers, cell_budget)
    threshold = T ** (-epsilon)
    if 0.0 < et < 1.0:
        bound = covering_bound(lam, ifs.probs, epsilon, N)
    else:
        # degenerate threshold regime: no finite covering count applies
        bound = float("inf")
    empirical = violations = checked = 0
    with closing(blocks):
        for ci, _, xi, values in blocks:
            empirical += int(np.sum(values.reshape(ci.size, -1).max(axis=1) >= threshold))
            ts = lam**N * np.conj(xi)
            certain = (values - 2.0 * tol >= threshold) & (np.abs(ts) < 1.0)
            _, eps = _digit_expansion(lam, ts[certain], N)
            member = _sparse_membership(eps, good_rho(abs(lam)), et, FLOAT_SLACK)
            violations += int(np.sum(~member))
            checked += member.size
    return CoveringReport(
        T=float(T),
        N=N,
        epsilon=float(epsilon),
        epsilon_tilde=float(et),
        empirical_count=empirical,
        bound_count=float(bound),
        subgrid_k=subgrid_k,
        inclusion_violations=violations,
        checked_points=checked,
    )
