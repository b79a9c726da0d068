"""Correlation/Frostman dimension estimators for discrete measures.

The estimators regress dyadic moment sums over a range of levels.  A
finite atom cloud has an intrinsic resolution (its minimum atom gap), and
below roughly 4x that scale every moment sum collapses; levels finer than
that are excluded automatically.  Threshold queries on the atoms decide
where, without computing the gap itself.  Dyadic grids are anchored at
the origin and, to blunt translation sensitivity, every estimate is also
computed under one fixed irrational shift with the smaller
(conservative) slope reported.  ``frostman_estimate`` fits the max cell
mass of an IFS's tower, on fixed levels of its support radius.

One routine, ``_dyadic_masses``, bins a measure at all of its levels
for one anchor.  The levels nest, floor(x 2^n) = floor(floor(x 2^top)
2^(n - top)) exactly in floats, so the atoms are floored and sorted into
cells once, at the finest level, and each coarser level only floor-scales
and sorts the cells of the next finer one.  Masses add up in atom order on
the lexicographic cell order, the same bits as binning every level from
scratch.
"""

from __future__ import annotations

import math
import warnings
import weakref

import numpy as np

from .bounds import linear_fit
from .errors import DomainError
from .fourier import energy_integral
from .measures import (
    DiscreteMeasure,
    IFSDescriptor,
    distinct_positions,
    finite_approximation,
    strip_pairs,
    support_radius,
)

# fixed irrational anchor shift: ((sqrt(5)-1)/2, (sqrt(3)-1)/2)
_SHIFT = complex(0.6180339887498949, 0.36602540378443865)
_MAX_LEVEL = 1023  # 2.0**1024 overflows a float
_WINDOW = 8  # next positions each one meets in a strip group (see _close_d2)
_FROSTMAN_LEVELS = range(2, 9)  # cells of side R * 2**-k, R the support radius
_kept_cap = None  # (weak reference to the measure, n_max, cap) of the last cap decided


def _dyadic_masses(mu: DiscreteMeasure, levels, shift: complex = 0.0) -> list[np.ndarray]:
    """Masses of the occupied cells [i, i+1) x [j, j+1) / 2^n of mu + shift.

    One array per level n of ``levels``, the cells in lexicographic (i, j)
    order.  The shifted positions are floored once, at the top level, and
    sorted into cells once; going down, each level floor-scales the cells
    of the level above, floor(floor(x 2^k) 2^(n - k)) = floor(x 2^n)
    exactly, and sorts only them.  Masses add up in atom order with
    ``np.bincount``.  A level above _MAX_LEVEL, or an atom whose top-level
    cell index overflows a float, is a DomainError.
    """
    top = max(levels)
    if top > _MAX_LEVEL:
        raise DomainError(f"dyadic level {top} is above {_MAX_LEVEL}: 2^{top} overflows a float")
    pos = mu.positions + shift
    scale = 2.0**top
    with np.errstate(over="ignore"):
        fx, fy = np.floor(pos.real * scale), np.floor(pos.imag * scale)
    if not (np.isfinite(fx).all() and np.isfinite(fy).all()):
        raise DomainError(f"an atom's level-{top} cell index overflows a float")
    labels, first = distinct_positions(fx, fy)
    cx, cy, k = fx[first], fy[first], top
    masses = {}
    for n in sorted(levels, reverse=True):
        if n != k:
            scale, k = 2.0 ** (n - k), n
            cx, cy = np.floor(cx * scale), np.floor(cy * scale)
            cell, first = distinct_positions(cx, cy)
            labels, cx, cy = cell[labels], cx[first], cy[first]
        masses[n] = np.bincount(labels, weights=mu.weights)
    return [masses[n] for n in levels]


def lq_moment(mu: DiscreteMeasure, n: int, q: float) -> float:
    """Dyadic moment sum s_n(mu, q) = sum_Q mu(Q)^q at level n (finite q > 1)."""
    if not 1.0 < q < math.inf:
        raise DomainError(f"q must be finite and > 1, got {q!r}")
    if n < 0:
        raise DomainError("n must be >= 0")
    return _moment(_dyadic_masses(mu, [n])[0], q)


def _moment(masses: np.ndarray, q: float) -> float:
    """sum masses**q; a sum that underflows to 0 has no logarithm and is refused."""
    total = float(np.sum(masses**q))
    if total == 0.0:
        raise DomainError(f"the dyadic moment sum underflows to 0 at q = {q!r}")
    return total


def _resolution_level_cap(mu: DiscreteMeasure, n_max: int) -> int:
    """min(n_max, cap): cap is the finest level whose cells exceed 4x the
    smallest positive atom gap, floor(-log2(4 gap) - 1e-9).

    Exactly coinciding atoms act as one, and one position sets no cap.
    The gap itself is not computed: the cap is decided by threshold
    queries up to n_max.  Consecutive positions in (x, y) order are
    pairs, so the smallest of their distances bounds the cap from below;
    from there the level rises while ``_close_d2`` finds a pair close
    enough for the next level, each pair found setting the level its own
    distance gives.  No pair sets a level past the cap and a pair at the
    cap is found from any lower level, so the ladder ends at the cap
    from any start.  The last cap decided is kept, so the
    estimates of one measure at one n_max decide it once.
    """
    global _kept_cap
    kept = _kept_cap
    if kept is None or kept[0]() is not mu or kept[1] != n_max:
        cap = _level_cap(mu.positions.real, mu.positions.imag, n_max)
        kept = _kept_cap = (weakref.ref(mu), n_max, cap)
    return kept[2]


def _gap_level(d2: float) -> int:
    """The cap that a pair at squared distance d2 > 0 gives."""
    return math.floor(-math.log2(4.0 * math.sqrt(d2)) - 1e-9)


def _level_cap(x: np.ndarray, y: np.ndarray, n_max: int) -> int:
    first = distinct_positions(x, y)[1]
    x, y = x[first], y[first]
    d2 = _consecutive_d2(x, y)
    if d2 == math.inf:
        return n_max
    level = _gap_level(d2)
    while level < n_max:
        d2 = _close_d2(x, y, level + 1)
        if d2 == math.inf or _gap_level(d2) <= level:
            break
        level = _gap_level(d2)
    return min(level, n_max)


def _consecutive_d2(x: np.ndarray, y: np.ndarray) -> float:
    """Smallest positive d2 between consecutive positions; an overflow is a DomainError."""
    with np.errstate(over="ignore"):
        dx, dy = np.diff(x), np.diff(y)
        d2 = dx * dx + dy * dy
    if not np.isfinite(d2).all():
        raise DomainError("atoms too far apart: a squared atom distance overflows a float")
    return float(np.min(d2, initial=math.inf, where=d2 > 0.0))


def _close_d2(x: np.ndarray, y: np.ndarray, level: int) -> float:
    """The threshold query at ``level``: the smallest positive d2 over a
    set of pairs of the distinct positions (x, y), in (x, y) order, that
    holds a pair whose distance gives a cap of at least ``level``
    whenever one exists; inf for no pair.

    Such a pair is closer than t, a hair under w = 2^-(level + 2), so it
    shares a strip group of ``strip_pairs`` at that w, where each position
    meets at most _WINDOW next ones in (y, x) order.  Nine positions of a
    group within w in y lie in a 2w x w box, which eight squares of side
    w/2 cover, each of diameter w/sqrt(2) < t; so two of them are closer
    than t, and they are met.  The cost stays linear where atoms crowd.
    """
    best = math.inf
    for _, _, d2 in strip_pairs(x, y, level + 2, _WINDOW):
        best = min(best, float(np.min(d2, initial=math.inf, where=d2 > 0.0)))
    return best


def _levels(mu: DiscreteMeasure, n_min: int, n_max: int) -> list[int]:
    if n_min < 0 or n_max < n_min:
        raise DomainError("need 0 <= n_min <= n_max")
    levels = list(range(n_min, _resolution_level_cap(mu, n_max) + 1))
    if len(levels) < 3:
        raise DomainError(
            f"degenerate level range: only {len(levels)} usable dyadic levels "
            f"between n_min={n_min} and the resolution cap"
        )
    return levels


def dim_q_estimate(
    mu: DiscreteMeasure, q: float, n_min: int, n_max: int
) -> tuple[float, float]:
    """Least-squares slope of log s_n against (q-1) * log(2^-n).

    Returns (slope, stderr).  The slope is computed for the origin anchor
    and one fixed irrational shift; the smaller estimate is returned
    (conservative).  Estimates are clamped to [0, 2] with a warning.
    q must be finite and > 1; a moment sum that underflows to 0 is refused.
    """
    if not 1.0 < q < math.inf:
        raise DomainError(f"q must be finite and > 1, got {q!r}")
    fit = _conservative_fit(mu, _levels(mu, n_min, n_max), q - 1.0, lambda m: _moment(m, q))
    return _clamped(fit, "dim_q")


def _conservative_fit(mu, levels, x_factor: float, statistic):
    """Fit log statistic(cell masses) on x_factor * log(2^-n) per anchor.

    Both anchors (origin and the fixed irrational shift) are fitted over
    ``levels``; the fit with the smaller slope is returned.
    """
    xs = [x_factor * (-n * math.log(2.0)) for n in levels]
    best = None
    for shift in (0.0, _SHIFT):
        ys = [math.log(float(statistic(masses)))
              for masses in _dyadic_masses(mu, levels, shift)]
        fit = linear_fit(xs, ys)
        if best is None or fit[0] < best[0]:
            best = fit
    return best


def _clamped(fit, label: str) -> tuple[float, float]:
    slope, stderr = fit
    if slope < 0.0 or slope > 2.0:
        if slope < -1e-6 or slope > 2.0 + 1e-6:
            warnings.warn(f"{label} estimate {slope:.3f} clamped to [0, 2]",
                          stacklevel=3)
        slope = min(max(slope, 0.0), 2.0)
    return slope, stderr


def dim_inf_estimate(
    mu: DiscreteMeasure, n_min: int, n_max: int
) -> tuple[float, float]:
    """Regression of log max cell mass against log(2^-n); conservative anchor."""
    return _clamped(_conservative_fit(mu, _levels(mu, n_min, n_max), 1.0, np.max), "dim_inf")


def frostman_estimate(ifs: IFSDescriptor, atom_budget: int | None = None) -> float:
    """Frostman exponent s with mu(Q) <= C side(Q)^s, from the largest cell mass.

    Builds the discrete approximation of depth max(3, floor(log(budget)
    / log(m))) under budget = min(``atom_budget``, 2e6), which a budget
    only lowers (BudgetError when depth 3 does not fit), and scales it by
    1/R, R the support radius, so
    that dyadic level k holds the cells of side R * 2**-k.  Over k = 2..8
    it regresses log max cell mass on log(2^-k), as ``dim_inf_estimate``
    does: both anchors, the smaller slope, clamped to [0, 2].  The levels
    are fixed, not capped at the tower's resolution.  Nothing is sampled,
    so the estimate is a function of the system and the budget alone.
    """
    if ifs.is_atomic:
        raise DomainError("Frostman estimation refuses atomic systems")
    budget = 2 * 10**6 if atom_budget is None else min(int(atom_budget), 2 * 10**6)
    depth = max(3, int(math.log(budget) / math.log(ifs.m)))
    mu = finite_approximation(ifs, depth, atom_budget=budget)
    mu = DiscreteMeasure(mu.positions / max(support_radius(ifs), 1e-12), mu.weights)
    fit = _conservative_fit(mu, _FROSTMAN_LEVELS, 1.0, np.max)
    return _clamped(fit, "frostman")[0]


def alpha_estimate(
    mu, T_values, step: float
) -> tuple[float, float]:
    """Fourier-energy growth exponent and the 2 - alpha dimension reading.

    Fits log of the energy integral against log T over geometrically
    spaced radii (at least 3), each by ``energy_integral`` at ``step``.
    For an IFSDescriptor the fit is on the self-similar measure itself,
    through the product kernel that ``mu_hat`` uses, so no tower depth
    enters it (the CLI's ``dim`` does this for IFS input); for a
    DiscreteMeasure it is on the given atoms.  A radius whose lattice
    holds no midpoint, T <= step / sqrt(2), is a DomainError.
    """
    T_values = [float(t) for t in T_values]
    if len(T_values) < 3:
        raise DomainError("need at least 3 radii")
    ratios = [T_values[i + 1] / T_values[i] for i in range(len(T_values) - 1)]
    if any(r <= 1.0 for r in ratios):
        raise DomainError("radii must be increasing")
    if max(ratios) / min(ratios) > 1.0 + 1e-6:
        raise DomainError("radii must be geometrically spaced")
    xs = [math.log(t) for t in T_values]
    ys = [math.log(energy_integral(mu, t, step)) for t in T_values]
    alpha, _ = linear_fit(xs, ys)
    return alpha, 2.0 - alpha
