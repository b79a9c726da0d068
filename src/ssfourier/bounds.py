"""Explicit sparse-frequency covering bounds and dimension pipelines.

Everything here is a closed-form (or numerically certified) quantity: the
two-digit character gap eta(c, p), the covering exponent delta in the three
supported regimes, the explicit unit-square covering count, the flattening
gain sigma solved from kappa - 2*eps = delta(eps), and the Bernoulli
correlation/Frostman dimension lower-bound pipelines built on top.

Validity convention: a DecayBound is ``valid`` only when the rescaled
parameter eps_tilde lies in (0, 1/2) and delta < 2.  Outside (0, 1), the
delta formula is undefined and the record carries the trivial covering
exponent 2.0 (every frequency set in a T-disk is covered by O(T^2) unit
squares) with valid=False and a reason; nothing is extrapolated silently.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, RegimeError
from .measures import as_weights, is_real_lambda

TRIVIAL_DELTA = 2.0
_ETA_GRID = 512  # coarse grid points per axis of eta_numeric's search
_ETA_REFINE_TOL = 1e-10  # eta_numeric stops when two refinements agree this closely


def entropy_h(x: float) -> float:
    """Binary entropy -x*log(x) - (1-x)*log(1-x) in nats; h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"entropy argument must lie in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


def eta_two_digit(c: float, p1: float, p2: float) -> float:
    """Character gap p1 + p2 - sqrt(p1^2 + 2*p1*p2*cos(pi*c) + p2^2).

    Strictly positive for c in (0, 1); the c = 1 endpoint is included
    since the expression stays well defined there (cos(pi) = -1).
    """
    if not 0.0 <= c <= 1.0:
        raise DomainError(f"c must lie in [0, 1], got {c!r}")
    if p1 <= 0 or p2 <= 0 or p1 + p2 > 1.0 + 1e-12:
        raise DomainError("need p1, p2 > 0 with p1 + p2 <= 1")
    return p1 + p2 - math.sqrt(p1 * p1 + 2 * p1 * p2 * math.cos(math.pi * c) + p2 * p2)


@lru_cache(maxsize=256)
def eta_numeric(phi_kind: str, params: tuple, c: float) -> float:
    """Numerical infimum of 1 - |Phi| over the regime's exclusion region.

    phi_kind selects the region and character:

    * ``two_digit``      -- ||Re z|| >= c/2 on the circle (1D)
    * ``lattice_3digit`` -- distance to the lattice Z^2 >= c/2 (2D torus,
      digits normalized to 0, 1, i)

    Coarse search on a ``_ETA_GRID``-point grid per axis, followed by
    local window refinement until two successive estimates differ by less
    than ``_ETA_REFINE_TOL``.
    """
    if not 0.0 < c < 1.0:
        raise DomainError(f"c must lie in (0, 1), got {c!r}")
    p = as_weights(params)
    if phi_kind == "two_digit":
        # worst-case |Phi| when only the first two (normalized) digits are used
        def gap(theta):
            val = p[0] + p[1] * np.exp(2j * np.pi * theta)
            return 1.0 - (np.abs(val) + (1.0 - p[0] - p[1]))

        box = [(c / 2.0, 0.5)]
        axes = [np.linspace(c / 2.0, 0.5, _ETA_GRID)]
        width, fine = (0.5 - c / 2.0) / _ETA_GRID, 65
    elif phi_kind == "lattice_3digit":
        if len(p) < 3:
            raise DomainError("lattice_3digit needs at least 3 weights")

        # |p1 + p2 e^{2 pi i x} + p3 e^{-2 pi i y}| + remaining mass
        def gap(x, y):
            val = p[0] + p[1] * np.exp(2j * np.pi * x) + p[2] * np.exp(-2j * np.pi * y)
            f = 1.0 - (np.abs(val) + (1.0 - p[0] - p[1] - p[2]))
            return np.where(x * x + y * y >= (c / 2.0) ** 2, f, np.inf)

        box = [(-0.5, 0.5)] * 2
        axes = [np.linspace(-0.5, 0.5, _ETA_GRID, endpoint=False)] * 2
        width, fine = 1.5 / _ETA_GRID, 33
    else:
        raise DomainError(f"unknown phi_kind {phi_kind!r}")
    pts = np.meshgrid(*axes, indexing="ij")
    f = gap(*pts).ravel()
    i = int(np.argmin(f))
    best, at = float(f[i]), [float(x.ravel()[i]) for x in pts]
    prev = math.inf
    for _ in range(200):
        if abs(prev - best) < _ETA_REFINE_TOL:
            return best
        prev = best
        pts = np.meshgrid(
            *(np.linspace(max(lo, x - width), min(hi, x + width), fine)
              for x, (lo, hi) in zip(at, box)),
            indexing="ij",
        )
        f = gap(*pts).ravel()
        i = int(np.argmin(f))
        if f[i] < best:
            best, at = float(f[i]), [float(x.ravel()[i]) for x in pts]
        width *= 0.5
    raise ConvergenceError(f"eta refinement stalled ({phi_kind})")


@dataclass(frozen=True)
class DecayBound:
    """One fully evaluated covering-exponent record."""

    regime: str  # "complex" | "real_noncollinear" | "higher_dim"
    epsilon: float
    epsilon_tilde: float
    rho: float
    eta: float
    entropy: float  # h(eps_tilde), nats
    delta: float
    branching: int
    valid: bool
    reason: str = ""

    def to_json(self) -> dict:
        return asdict(self)


def _assemble_bound(
    regime: str,
    lam_abs: float,
    coef: float,
    branching: int,
    c: float,
    eta: float,
    epsilon: float,
) -> DecayBound:
    """Shared delta assembly for all three regimes.

    delta = (coef * log(branching) * et + h(et)) / log(1/|lam|), with
    et = eps * log|lam| / log(1 - eta).
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise DomainError("epsilon must be finite and > 0")
    et = epsilon * math.log(lam_abs) / math.log1p(-eta)
    rho = c / 2.0
    if 0.0 < et < 1.0:
        h = entropy_h(et)
        delta = (coef * math.log(branching) * et + h) / math.log(1.0 / lam_abs)
        if et < 0.5 and delta < 2.0:
            return DecayBound(regime, epsilon, et, rho, eta, h, delta, branching, True)
        if et >= 0.5:
            reason = "epsilon_tilde >= 1/2: index-set entropy count unavailable"
        else:
            reason = "delta >= 2: weaker than the trivial covering"
        return DecayBound(regime, epsilon, et, rho, eta, h, delta, branching, False, reason)
    # formula undefined; record the trivial covering exponent instead of NaN
    return DecayBound(
        regime, epsilon, et, rho, eta, 0.0, TRIVIAL_DELTA, branching, False,
        "epsilon_tilde outside (0, 1): delta formula undefined, trivial "
        "exponent 2 recorded",
    )


def good_rho(lam_abs: float) -> float:
    """Radius rho = |lam|^2 / (2(|lam|^2 + 3)) of a good digit error |eps_j|."""
    a2 = lam_abs**2
    return a2 / (2.0 * (a2 + 3.0))


def good_index_requirement(epsilon_tilde: float, N: int) -> int:
    """Good indices S(N, et) asks for: ceil((1 - et) N), finite et clamped to [0, 1]."""
    if not math.isfinite(epsilon_tilde):
        raise DomainError(f"epsilon_tilde must be finite, got {epsilon_tilde!r}")
    et = min(max(epsilon_tilde, 0.0), 1.0)
    return max(0, math.ceil((1.0 - et) * N - 1e-9))


def sequence_count(branching: int, epsilon_tilde: float, N: int) -> float:
    """M_N * e^{h(et) N}: admissible digit sequences times good-index sets.

    M_N = 3 * 4^3 * branching^(3*et*N + 2); et must lie in [0, 1].
    """
    m_n = 3.0 * 64.0 * branching ** (3.0 * epsilon_tilde * N + 2.0)
    return m_n * math.exp(entropy_h(epsilon_tilde) * N)


def transition_bound(lam_abs: float) -> float:
    """Digit-transition bound (1 + 3/|lam|^2)/2; its ceiling is the branching."""
    return 0.5 * (1.0 + 3.0 / lam_abs**2)


def _complex_bound(lam_abs: float, p, epsilon: float) -> DecayBound:
    """The complex-regime delta, which depends on lambda through |lambda| alone."""
    c = 2.0 * good_rho(lam_abs)
    eta = eta_two_digit(c, p[0], p[1])
    branching = math.ceil(transition_bound(lam_abs))
    return _assemble_bound("complex", lam_abs, 1.0, branching, c, eta, epsilon)


def delta_complex(lam: complex, p, epsilon: float) -> DecayBound:
    """Covering exponent for a non-real contraction ratio.

    rho = |lam|^2 / (2(|lam|^2+3)), eta = eta_two_digit(2*rho, p1, p2),
    branching = ceil((1 + 3/|lam|^2)/2), and
    delta = (log(branching)*et + h(et)) / log(1/|lam|).  A lambda that
    ``is_real_lambda`` calls real is refused.
    """
    p = as_weights(p)
    lam = complex(lam)
    if is_real_lambda(lam):
        raise RegimeError("complex regime needs Im(lambda) != 0")
    if not 0.0 < abs(lam) < 1.0:
        raise DomainError("need 0 < |lambda| < 1")
    return _complex_bound(abs(lam), p, epsilon)


def delta_real_noncollinear(lam: float, p, epsilon: float) -> DecayBound:
    """Covering exponent for real lambda in (0,1), >= 3 non-collinear digits.

    delta = (4*log(ceil(2 + 1/lam))*et + h(et)) / log(1/lam) with eta from
    the lattice character at c = lam / (2(lam+1)).
    """
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise RegimeError("real regime needs lambda in (0, 1)")
    p = as_weights(p)
    if len(p) < 3:
        raise RegimeError("real regime needs at least 3 digits")
    c = lam / (2.0 * (lam + 1.0))
    eta = eta_numeric("lattice_3digit", p, c)
    branching = math.ceil(2.0 + 1.0 / lam)
    return _assemble_bound("real_noncollinear", lam, 4.0, branching, c, eta, epsilon)


def delta_higherdim(lam: float, p, epsilon: float, d: int) -> DecayBound:
    """Covering exponent for the R^d (d >= 3) diagonalizable-orthogonal case.

    delta = (log(ceil(1 + 1/lam))*et + h(et)) / log(1/lam) with eta from
    the coordinate-sum character ||y_1 + ... + y_d|| >= c/2 at
    c = lam / (lam+1).  That character depends on the coordinate sum only,
    so it reduces to the 1D ``two_digit`` problem for every d; the value
    does not depend on d, which only has to be at least 3.
    """
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise RegimeError("higher-dim regime needs lambda in (0, 1)")
    if d < 3:
        raise RegimeError("higher-dim regime is for d >= 3")
    p = as_weights(p)
    if len(p) < 3:
        raise RegimeError("higher-dim regime needs at least 3 digits")
    c = lam / (lam + 1.0)
    eta = eta_numeric("two_digit", p, c)
    branching = math.ceil(1.0 + 1.0 / lam)
    return _assemble_bound("higher_dim", lam, 1.0, branching, c, eta, epsilon)


def covering_bound(lam: complex, p, epsilon: float, N: int) -> float:
    """Explicit unit-square count M_N * e^{h(et) N} * q for the scan disk.

    M_N = 3 * 4^3 * branching^(3*et*N + 2) counts admissible digit
    sequences; e^{h(et) N} counts good-index sets; q is the number of
    anchored unit squares needed per covering rectangle of dimensions
    (|a|+1)/(2|b|) x 1, namely (ceil((|a|+1)/(2|b|)) + 1) * 2.  The
    rectangle factor blows up as |Im lambda| -> 0; that is surfaced here
    rather than hidden.
    """
    lam = complex(lam)
    if N < 0:
        raise DomainError("N must be >= 0")
    bound = delta_complex(lam, p, epsilon)
    et = bound.epsilon_tilde
    if not 0.0 < et < 1.0:
        raise DomainError(
            f"epsilon_tilde = {et:g} outside (0, 1): covering count undefined"
        )
    a, b = lam.real, lam.imag
    q = (math.ceil((abs(a) + 1.0) / (2.0 * abs(b))) + 1) * 2
    return sequence_count(bound.branching, et, N) * q


def delta_bound(lam, p, epsilon: float, regime: str):
    """delta(eps) in ``regime``: "complex", "real_noncollinear", "higher_dim".

    "auto" is "real_noncollinear" when ``is_real_lambda(lam)`` and
    "complex" otherwise.  The real regimes evaluate at Re(lam) and refuse
    a lambda that is not real; "higher_dim" is evaluated at d = 3, since
    its delta is the same for every d >= 3.
    """
    lam = complex(lam)
    is_real = is_real_lambda(lam)
    if regime == "auto":
        regime = "real_noncollinear" if is_real else "complex"
    if regime == "complex":
        return delta_complex(lam, p, epsilon)
    if regime not in ("real_noncollinear", "higher_dim"):
        raise DomainError(f"unknown regime {regime!r}")
    if not is_real:
        raise RegimeError(f"{regime} regime needs real lambda, got {lam!r}")
    if regime == "real_noncollinear":
        return delta_real_noncollinear(lam.real, p, epsilon)
    return delta_higherdim(lam.real, p, epsilon, 3)


def bisect_sign_change(g, lo: float, hi: float, xtol: float, max_steps: int) -> float:
    """Midpoint of the last bracket of a sign change of g from > 0 to <= 0.

    Halves [lo, hi] keeping g(lo) > 0 >= g(hi) until it is no wider than
    ``xtol``, ``max_steps`` halvings are done, or no float lies between.
    """
    for _ in range(max_steps):
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol or mid == lo or mid == hi:
            break
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def linear_fit(xs, ys) -> tuple[float, float]:
    """Least-squares line through (xs, ys): returns (slope, slope stderr).

    The formulas of SciPy's linregress (population moments from
    np.cov(bias=1), r clipped to [-1, 1], stderr 0 for two points).
    DomainError for fewer than two points or when all x are equal.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    n = x.size
    if n < 2 or np.amax(x) == np.amin(x):
        raise DomainError("a linear fit needs at least two distinct x values")
    sxx, sxy, _, syy = np.cov(x, y, bias=1).flat
    if sxx == 0.0 or syy == 0.0:
        r = math.nan if sxy == 0.0 else 0.0
    else:
        r = min(max(sxy / math.sqrt(sxx * syy), -1.0), 1.0)
    stderr = 0.0 if n == 2 else math.sqrt((1.0 - r * r) * syy / sxx / (n - 2))
    return float(sxy / sxx), float(stderr)


def solve_flattening_epsilon(
    lam,
    p,
    kappa: float,
    regime: str = "auto",
) -> tuple[float, float, DecayBound]:
    """Solve kappa - 2*eps = delta(eps) by bisection on (0, kappa/2).

    Returns (eps, sigma=2*eps, bound at the root).  g(eps) =
    kappa - 2*eps - delta(eps) is strictly decreasing (delta is
    increasing), so the root is unique; delta is capped at the trivial
    exponent 2 where the formula is undefined, which keeps g continuous.
    Absolute tolerance on eps: 1e-12.
    """
    if not 0.0 < kappa < 2.0:
        raise DomainError("kappa must lie in (0, 2)")

    def g(eps):
        bound = delta_bound(lam, p, eps, regime)
        return kappa - 2.0 * eps - min(bound.delta, TRIVIAL_DELTA)

    if g(kappa / 2.0) >= 0.0:
        raise ConvergenceError(
            "no sign change for kappa - 2*eps - delta(eps) on (0, kappa/2)"
        )
    # g(0+) -> kappa > 0
    eps = bisect_sign_change(g, 0.0, kappa / 2.0, xtol=1e-13, max_steps=200)
    return eps, 2.0 * eps, delta_bound(lam, p, eps, regime)


@dataclass(frozen=True)
class DimensionBound:
    """Bernoulli-convolution dimension lower bounds from the EK pipeline."""

    lam: complex
    p: float
    N: int
    sigma: float
    kappa: float
    dim2_lower: float
    diminf_lower: float
    note: str = ""

    def to_json(self) -> dict:
        return {
            "lambda": [self.lam.real, self.lam.imag],
            "p": self.p,
            "N": self.N,
            "sigma": self.sigma,
            "kappa": self.kappa,
            "dim2_lower": self.dim2_lower,
            "diminf_lower": self.diminf_lower,
            "note": self.note,
        }


def _smallest_n_below(alam: float, threshold: float) -> int:
    n = 1
    while alam**n >= threshold:
        n += 1
        if n > 10**7:
            raise ConvergenceError("contraction too close to 1")
    return n


def _dim2_pipeline(lam: complex, p_bias: float, sigma_factor):
    """Correlation-dimension lower bound 2 - (delta(sigma/2) + sigma).

    N is the smallest integer with |lam|^N < 1/sqrt(2) (so |lam|^N falls
    in (1/2, 1/sqrt(2)) whenever |lam| > 1/sqrt(2)), sigma =
    sigma_factor(|lam|)/(N-1), and delta is evaluated for the convolution
    factor measure at contraction lam^N.  delta only depends on |lam^N|,
    so the degenerate alignment of a lam^N that ``is_real_lambda`` calls
    real is noted rather than refused; it is capped at the trivial
    exponent 2 where the explicit formula gives no information.
    """
    alam = abs(lam)
    if not 0.0 < p_bias < 1.0:
        raise DomainError("p_bias must lie in (0, 1)")
    if not alam > 2.0**-0.5:
        raise RegimeError("pipeline needs |lambda| > 1/sqrt(2) (so N >= 2)")
    if not alam < 1.0:
        raise DomainError("need |lambda| < 1")
    N = _smallest_n_below(alam, 2.0**-0.5)
    sigma = sigma_factor(alam) / (N - 1)
    epsilon = sigma / 2.0
    note = ""
    if is_real_lambda(lam**N):
        note = ("degenerate alignment: Im(lambda^N) = 0; delta evaluated "
                "through |lambda^N| only")
    bound = _complex_bound(abs(lam**N), (p_bias, 1.0 - p_bias), epsilon)
    if not bound.valid and not note:
        note = f"decay bound not valid at epsilon={epsilon:g}: {bound.reason}"
    kappa = min(bound.delta, TRIVIAL_DELTA) + sigma
    return N, sigma, kappa, 2.0 - kappa, note


def _bernoulli_bounds(lam, p_bias: float, sigma_factor) -> DimensionBound:
    """Both pipeline stages: dim2 at lam, then Frostman through lam^2."""
    lam = complex(lam)
    N, sigma, kappa, dim2, note = _dim2_pipeline(lam, p_bias, sigma_factor)
    lam_sq = lam * lam
    if abs(lam_sq) > 2.0**-0.5:
        _, _, _, dim2_sq, note_sq = _dim2_pipeline(lam_sq, p_bias, sigma_factor)
        diminf = 2.0 * dim2_sq - 2.0
        if note_sq and not note:
            note = "lambda^2 stage: " + note_sq
    else:
        diminf = 0.0
        note = (note + "; " if note else "") + (
            "|lambda^2| <= 1/sqrt(2): Frostman stage unavailable, trivial 0 used"
        )
    return DimensionBound(
        lam, p_bias, N, sigma, kappa, dim2, min(diminf, dim2), note
    )


def bernoulli_dim_lower(lam: complex, p_bias: float) -> DimensionBound:
    """Biased-Bernoulli dimension lower bounds via the convolution tower.

    sigma = 1/(N-1) with N minimal for |lam|^N < 1/sqrt(2); kappa =
    delta(sigma/2; lam^N) + sigma; dim2_lower = 2 - kappa.  The Frostman
    bound uses the two-factor decomposition at lam^2 and the planar
    convolution inequality dim_inf(mu*nu) >= dim_2(mu) + dim_2(nu) - 2.
    """
    return _bernoulli_bounds(lam, p_bias, lambda alam: 1.0)


def bernoulli_unbiased_dim_lower(lam: complex) -> DimensionBound:
    """Unbiased pipeline with the open-set-condition base value.

    The base measure at contraction lam^N has correlation dimension
    log(1/2)/log|lam|^N, which sharpens sigma to
    (log(1/|lam|)/log(2/|lam|)) / (N-1); the rest matches the biased
    pipeline.
    """
    return _bernoulli_bounds(
        lam, 0.5, lambda alam: math.log(1.0 / alam) / math.log(2.0 / alam)
    )
