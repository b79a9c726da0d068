"""Correlation/Frostman dimension estimators for discrete measures.

The estimators regress dyadic moment sums over a range of levels.  A
finite atom cloud has an intrinsic resolution (its minimum atom gap), and
below roughly 4x that scale every moment sum collapses; levels finer than
that are excluded automatically.  Dyadic grids are anchored at the origin
and, to blunt translation sensitivity, every estimate is also computed
under one fixed irrational shift with the smaller (conservative) slope
reported.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import DecayBound, linear_fit, solve_flattening_epsilon
from .errors import DomainError
from .fourier import energy_integral
from .measures import DiscreteMeasure, IFSDescriptor, convolve, finite_approximation

# fixed irrational anchor shift: ((sqrt(5)-1)/2, (sqrt(3)-1)/2)
_SHIFT = complex(0.6180339887498949, 0.36602540378443865)


@dataclass(frozen=True, eq=False)
class DyadicHistogram:
    """Masses of the occupied dyadic cells at one level (scale 2^-level).

    ``cells`` holds the complex keys i + j*1j of the cells
    [i, i+1) x [j, j+1) / 2^level in lexicographic (i, j) order and
    ``masses`` their masses, as aligned arrays.
    """

    level: int
    cells: np.ndarray
    masses: np.ndarray


def _dyadic_cells(mu: DiscreteMeasure, level: int, shift: complex = 0.0):
    """Occupied cells [i, i+1) x [j, j+1) / 2^level of mu + shift.

    Returns the cells as complex keys i + j*1j in lexicographic (i, j)
    order, and their masses.  Floored coordinates are exact floats, so
    the keys are exact at every level.
    """
    if level < 0:
        raise DomainError("level must be >= 0")
    scale = 2.0**level
    pos = mu.positions + shift
    keys = np.floor(pos.real * scale) + 1j * np.floor(pos.imag * scale)
    cells, inverse = np.unique(keys, return_inverse=True)
    return cells, np.bincount(inverse, weights=mu.weights, minlength=cells.size)


def dyadic_histogram(mu: DiscreteMeasure, level: int) -> DyadicHistogram:
    return DyadicHistogram(level, *_dyadic_cells(mu, level))


def lq_moment(mu: DiscreteMeasure, n: int, q: float) -> float:
    """Dyadic moment sum s_n(mu, q) = sum_Q mu(Q)^q at level n (finite q > 1)."""
    if not 1.0 < q < math.inf:
        raise DomainError(f"q must be finite and > 1, got {q!r}")
    if n < 0:
        raise DomainError("n must be >= 0")
    return _moment(_dyadic_cells(mu, n)[1], q)


def _moment(masses: np.ndarray, q: float) -> float:
    """sum masses**q; a sum that underflows to 0 has no logarithm and is refused."""
    total = float(np.sum(masses**q))
    if total == 0.0:
        raise DomainError(f"the dyadic moment sum underflows to 0 at q = {q!r}")
    return total


def _resolution_level_cap(mu: DiscreteMeasure) -> int | None:
    """Largest usable level: cell side must exceed 4x the min atom gap.

    Exactly coinciding atoms act as one; the smallest positive gap sets
    the resolution.
    """
    gap = mu.min_atom_gap
    if gap is None:
        return None
    return math.floor(-math.log2(4.0 * gap) - 1e-9)


def _levels(mu: DiscreteMeasure, n_min: int, n_max: int) -> list[int]:
    if n_min < 0 or n_max < n_min:
        raise DomainError("need 0 <= n_min <= n_max")
    cap = _resolution_level_cap(mu)
    top = n_max if cap is None else min(n_max, cap)
    levels = list(range(n_min, top + 1))
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
    fit = _conservative_fit(mu, n_min, n_max, q - 1.0, lambda m: _moment(m, q))
    return _clamped(fit, "dim_q")


def _conservative_fit(mu, n_min, n_max, x_factor: float, statistic):
    """Fit log statistic(cell masses) on x_factor * log(2^-n) per anchor.

    Both anchors (origin and the fixed irrational shift) are fitted over
    the usable levels; the fit with the smaller slope is returned.
    """
    levels = _levels(mu, n_min, n_max)
    best = None
    for shift in (0.0, _SHIFT):
        xs = [x_factor * (-n * math.log(2.0)) for n in levels]
        ys = [math.log(float(statistic(_dyadic_cells(mu, n, shift)[1])))
              for n in levels]
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
    return _clamped(_conservative_fit(mu, n_min, n_max, 1.0, np.max), "dim_inf")


def alpha_estimate(
    mu, T_values, step: float
) -> tuple[float, float]:
    """Fourier-energy growth exponent and the 2 - alpha dimension reading.

    Fits log of the energy integral against log T over geometrically
    spaced radii (at least 3), each by ``energy_integral`` at ``step``.
    Accepts a DiscreteMeasure or an IFSDescriptor (the latter through
    the product kernel that ``mu_hat`` uses).
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


@dataclass(frozen=True)
class FlatteningReport:
    """Desk-scale check of the convolution dimension gain."""

    kappa: float
    epsilon: float
    sigma: float
    dim2_nu: float
    stderr_nu: float
    dim2_conv: float
    stderr_conv: float
    margin: float
    bound: DecayBound

    def to_json(self) -> dict:
        return asdict(self)


def flattening_check(
    ifs: IFSDescriptor,
    nu: DiscreteMeasure,
    n_range: tuple[int, int],
    kappa_assumed: float,
    depth: int,
) -> FlatteningReport:
    """Estimate the correlation-dimension gain of convolving with mu.

    mu is the depth-``depth`` finite approximation of ``ifs``.
    sigma = 2*eps comes from the flattening equation kappa - 2*eps =
    delta(eps); the reported margin is dim2(mu * nu) - dim2(nu) - sigma,
    which the theory makes nonnegative up to estimator error (the
    standard errors are part of the report, not hidden).
    """
    if ifs.is_atomic:
        raise DomainError("flattening needs a non-atomic self-similar measure")
    n_min, n_max = n_range
    dim2_nu, err_nu = dim_q_estimate(nu, 2.0, n_min, n_max)
    if dim2_nu > 2.0 - kappa_assumed:
        raise DomainError(
            f"nu is too regular: dim2 estimate {dim2_nu:.3f} exceeds "
            f"2 - kappa = {2.0 - kappa_assumed:.3f}"
        )
    eps, sigma, bound = solve_flattening_epsilon(ifs.lam, ifs.probs, kappa_assumed)
    conv = convolve(finite_approximation(ifs, depth), nu)
    dim2_conv, err_conv = dim_q_estimate(conv, 2.0, n_min, n_max)
    return FlatteningReport(
        kappa=kappa_assumed,
        epsilon=eps,
        sigma=sigma,
        dim2_nu=dim2_nu,
        stderr_nu=err_nu,
        dim2_conv=dim2_conv,
        stderr_conv=err_conv,
        margin=dim2_conv - dim2_nu - sigma,
        bound=bound,
    )
