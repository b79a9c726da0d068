"""Push-forwards of self-similar measures under polynomial maps.

A non-vanishing second derivative on the support turns a (possibly
non-decaying) self-similar measure into one whose push-forward Fourier
transform has power decay.  Maps are restricted to polynomials: exact
evaluation, closed under differentiation, enough to cover z^2 on the
Pisot-parameter examples.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .bounds import TRIVIAL_DELTA, bisect_sign_change, delta_bound, linear_fit
from .errors import DomainError, RegimeError
from .fourier import fourier_sum
from .measures import (
    DEFAULT_ATOM_BUDGET,
    DiscreteMeasure,
    IFSDescriptor,
    finite_approximation,
    scale_rotate,
    support_radius,
    tower_levels,
)

_SPLIT_CHUNK = 1 << 17  # complex entries per work array in one frequency batch
_FROSTMAN_CENTERS = 128  # ball centers sampled from the measure
_FROSTMAN_OCTAVES = range(2, 9)  # ball radii R * 2**-k, R the support radius
_F2_SAMPLES = 4096  # spiral samples of the second-derivative certification


@dataclass(frozen=True)
class AnalyticMap:
    """Polynomial map F(z) = sum_k coeffs[k] z^k with finite coefficients."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coeffs)
        if not all(cmath.isfinite(c) for c in coeffs):
            raise DomainError("map coefficients must be finite")
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        z = np.asarray(z, dtype=np.complex128)
        out = np.zeros(z.shape, dtype=np.complex128)
        for c in reversed(self.coeffs):
            out = out * z + c
        return out if out.shape else complex(out)

    def derivative(self) -> "AnalyticMap":
        if self.degree == 0:
            return AnalyticMap((0.0,))
        return AnalyticMap(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))


def _disk_samples(radius: float, count: int) -> np.ndarray:
    """Deterministic sunflower-spiral covering of the closed disk."""
    k = np.arange(count, dtype=np.float64)
    r = radius * np.sqrt((k + 0.5) / count)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    return r * np.exp(1j * golden * k)


def check_second_derivative(
    f: AnalyticMap, ifs: IFSDescriptor, samples: int = _F2_SAMPLES
) -> tuple[float, float, float]:
    """Sampled (min |F''|, max |F''|, max |F'|) over the support disk.

    Samples a deterministic spiral of ``samples`` points on the closed
    disk of support radius.
    """
    pts = _disk_samples(max(support_radius(ifs), 1e-30), samples)
    f1 = f.derivative()
    abs_f2 = np.abs(f1.derivative()(pts))
    return float(np.min(abs_f2)), float(np.max(abs_f2)), float(np.max(np.abs(f1(pts))))


def pushforward_measure(f: AnalyticMap, mu: DiscreteMeasure) -> DiscreteMeasure:
    """Image measure: every atom mapped through F, weights unchanged."""
    return DiscreteMeasure(f(mu.positions), mu.weights.copy())


@dataclass(frozen=True)
class DecayProfile:
    """Per-annulus maxima of |FT(F mu)| and the fitted log-log slope.

    ``predicted_exponent`` is the explicit min((s - delta)/3, eps/3)
    guarantee evaluated at the best eps; it is reported for comparison
    only, since the unknown prefactor makes it unverifiable at desk
    scale.
    """

    radii: tuple[float, ...]
    annulus_max: tuple[float, ...]
    slope: float
    stderr: float
    predicted_exponent: float
    epsilon_used: float
    delta_used: float
    frostman_s: float
    directions: int
    approx_depth: int
    min_abs_f2: float
    max_abs_f1: float

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DigitTree:
    """The digit tree of one tower block (``measures.tower_levels``' first levels).

    Atom i of level j is atom ``parent[i]`` of level j - 1 (the root 0
    before level 0) plus ``steps[j, digit[i]]``, where ``steps[j]`` is
    lam**(start + j) times the digits; ``points`` are the final atoms' tree
    points, in the block's atom order.
    """

    levels: tuple[tuple[np.ndarray, np.ndarray], ...]
    steps: np.ndarray
    points: np.ndarray

    def coupling(self, alpha: np.ndarray, cols: np.ndarray, start: np.ndarray) -> np.ndarray:
        """start * e(Re(alpha z w)) for each lane, tree point z and column w.

        ``alpha`` has one entry per lane, ``start`` shape (lanes, 1, W).
        Since z = sum_j steps[j, digit_j], the kernel is the product over
        levels of e(Re(alpha steps[j, d] w)): one lanes x m x W table of
        exponentials per level, gathered down the tree.
        """
        out = start
        for (parent, digit), step in zip(self.levels, self.steps):
            table = _e(((alpha[:, None] * step)[:, :, None] * cols).real)
            out = out[:, parent, :]  # a copy: the product in place keeps one array fewer
            out *= table[:, digit, :]
        return out


@dataclass(frozen=True)
class SplitPushforward:
    """F_# mu_D for a map F of degree <= 2, with the depth-D tower kept split.

    The tower is z = u + v1 + v2: ``blocks[0]`` holds the depth-k prefix
    u (levels 0..k-1) and ``blocks[1]``, ``blocks[2]`` the two later
    blocks of levels v1, v2, each a merged finite approximation scaled by
    its first power of lam, so mu_D is their convolution.  For quadratic
    F = c0 + c1 z + c2 z^2 the identity

        F(u + v1 + v2) = F(u) + (c1 v1 + c2 v1^2) + (c1 v2 + c2 v2^2)
                         + 2 c2 (u v1 + u v2 + v1 v2)

    is exact, so with e(x) = exp(2 pi i x), K(z, w) = e(Re(2 c2 z w
    conj xi)) and a_u = w_u e(Re(F(u) conj xi)), at each frequency

        FT(F_# mu_D)(xi) = sum_u a_u rowsum((E1 @ G) * E2),

    E1[u, v1] = w_v1 e(Re((c1 v1 + c2 v1^2) conj xi)) K(u, v1), E2 likewise
    over v2, and G[v1, v2] = K(v1, v2).  The coupling matrices come from
    the digit trees (``trees``) of u and v1: z = sum_j lam^j d_j makes
    K(z, w) a product over tree levels, so each level costs one m x W table
    of exponentials and one gather-and-multiply (``DigitTree.coupling``).
    Per frequency that is k m (V1 + V2) + a m V2 + U + V1 + V2
    exponentials (k, a the levels of the u and v1 blocks), gathers of
    N_u (V1 + V2) + N_v1 V2 entries (N the atoms of a tree summed over its
    levels) and one U x V1 x V2 matrix product; the tower itself is never
    built.  For affine F (c2 = 0) the sum
    factors further: the transform is e(Re(c0 conj xi)) times the product
    of the three block transforms at conj(c1) xi, each a direct sum, so
    U + V1 + V2 exponentials per frequency.

    Error: the quadratic branch takes u and v1 at their tree points, a
    member of each merge cluster rather than its weight-averaged
    position, so it sums exactly (up to rounding) over atoms u' + v1' + v2
    each within ``displacement`` delta = max|u' - u| + max|v1' - v1| of an
    atom of the merged blocks' convolution.  Its difference from the
    direct sum over that convolution at |xi| = T is therefore at most
    2 pi T L delta, L = max |F'| over the support disk widened by delta;
    delta is 0 where the blocks did not merge.
    """

    f: AnalyticMap
    blocks: tuple[DiscreteMeasure, DiscreteMeasure, DiscreteMeasure]
    trees: tuple[DigitTree, DigitTree]
    displacement: float

    @property
    def n_terms(self) -> int:
        """Atom combinations the evaluation sums over, U * V1 * V2."""
        return math.prod(b.n_atoms for b in self.blocks)

    def transform(self, xi) -> np.ndarray:
        """FT(F_# mu_D) at a flat array of frequencies."""
        xi = np.asarray(xi, dtype=np.complex128).ravel()
        if self.f.degree <= 1:
            xi_c1 = np.conj(self.f.derivative().coeffs[0]) * xi
            out = _e((self.f.coeffs[0] * np.conj(xi)).real)
            for b in self.blocks:
                out = out * fourier_sum(b.positions, b.weights, xi_c1)
            return out
        tree_u, tree_v1 = self.trees
        u, v1, v2 = tree_u.points, tree_v1.points, self.blocks[2].positions
        wu, w1, w2 = (b.weights for b in self.blocks)
        _, c1, c2 = self.f.coeffs
        fu = self.f(u)
        cols = np.concatenate([v1, v2])
        own = (c1 + c2 * cols) * cols
        wcols = np.concatenate([w1, w2])
        per_xi = u.size * (v1.size + 2 * v2.size) + v1.size * v2.size
        step = max(1, _SPLIT_CHUNK // per_xi)
        out = np.empty(xi.size, dtype=np.complex128)
        for s in range(0, xi.size, step):
            xc = np.conj(xi[s : s + step])
            alpha = 2.0 * c2 * xc
            a = _e((fu[None, :] * xc[:, None]).real) * wu
            start = (_e((own[None, :] * xc[:, None]).real) * wcols)[:, None, :]
            e = tree_u.coupling(alpha, cols, start)
            g = tree_v1.coupling(alpha, v2, np.ones((xc.size, 1, v2.size), dtype=np.complex128))
            e1, e2 = e[:, :, : v1.size], e[:, :, v1.size :]
            out[s : s + step] = np.sum(a * np.sum((e1 @ g) * e2, axis=2), axis=1)
        return out


def _e(phase: np.ndarray) -> np.ndarray:
    return np.exp(2j * np.pi * phase)


def split_pushforward(
    f: AnalyticMap,
    ifs: IFSDescriptor,
    depth: int,
    atom_budget: int | None = None,
) -> SplitPushforward:
    """Split form of F_# mu_depth for a map of degree <= 2.

    The blocks hold k = ceil(depth/3) prefix levels and the rest in two halves
    of a and depth - k - a <= a <= k levels: one walk of k levels of ``tower_levels``
    under ``atom_budget`` gives all three (its levels k, a, depth - k - a, scaled by
    1, lam**k, lam**(k + a)) and the trees of the first two, refusing where the tower
    would.  Depth < 0 is checked here, as depths -1 and -2 walk no level.
    """
    if f.degree > 2:
        raise DomainError(f"split evaluation needs degree <= 2, got {f.degree}")
    if depth < 0:
        raise DomainError("depth must be >= 0")
    k = -(-depth // 3)
    a = -(-(depth - k) // 2)
    digits = np.array(ifs.digits, dtype=np.complex128)
    # after n levels: mus[n], its tree points points[n]; level n: levels[n], lam**n
    mus, points = [DiscreteMeasure.dirac(0.0)], [np.zeros(1, dtype=np.complex128)]
    levels, scales = [], [1.0 + 0.0j]
    for mu, first in tower_levels(ifs, k, atom_budget):
        levels.append(np.divmod(first, ifs.m))
        parent, digit = levels[-1]
        # the tower's own sums, so that points equal positions where no merge happened
        points.append(points[-1][parent] + (scales[-1] * digits)[digit])
        mus.append(mu)
        scales.append(scales[-1] * ifs.lam)

    def tree(n: int, start: int) -> DigitTree:
        steps = np.array([ifs.lam**start * s * digits for s in scales[:n]], dtype=np.complex128)
        return DigitTree(tuple(levels[:n]), steps.reshape(n, ifs.m), points[n] * ifs.lam**start)

    blocks = tuple(scale_rotate(mus[n], ifs.lam**start)
                   for start, n in ((0, k), (k, a), (k + a, depth - k - a)))
    trees = (tree(k, 0), tree(a, k))
    displacement = sum(float(np.max(np.abs(t.points - b.positions)))
                       for t, b in zip(trees, blocks))
    return SplitPushforward(f, blocks, trees, displacement)


def annulus_maxima(
    mu: DiscreteMeasure | SplitPushforward,
    radii,
    directions: int = 256,
    seed: int = 0,
) -> np.ndarray:
    """Max |FT(mu)| over sampled directions on each circle |xi| = T.

    Each circle gets ``directions`` equispaced angles and one jittered
    angle per sector, all drawn from one generator seeded with ``seed``.

    ``mu`` is a DiscreteMeasure, summed directly (the oracle path), or a
    SplitPushforward, evaluated through its tower split.
    """
    if directions < 1:
        raise DomainError(f"need directions >= 1, got {directions}")
    if isinstance(mu, SplitPushforward):
        transform = mu.transform
    else:
        transform = partial(fourier_sum, mu.positions, mu.weights)
    rng = np.random.default_rng(seed)
    out = np.empty(len(radii))
    for i, t_rad in enumerate(radii):
        sectors = np.arange(directions)
        angles = 2.0 * np.pi * np.r_[sectors, sectors + rng.random(directions)] / directions
        xi = t_rad * np.exp(1j * angles)
        out[i] = float(np.max(np.abs(transform(xi))))
    return out


def _best_exponent(lam, probs, regime: str, s: float) -> tuple[float, float, float]:
    """Maximize min((s - delta(eps))/3, eps/3) over eps.

    The optimum sits where s - delta(eps) = eps (eps/3 increases, the
    other branch decreases); bisection with delta capped at the trivial
    exponent so the equation always brackets.
    """
    def delta_of(eps):
        return min(delta_bound(lam, probs, eps, regime).delta, TRIVIAL_DELTA)

    def g(eps):
        return s - delta_of(eps) - eps

    hi = max(s, 1e-6)
    eps = hi if g(hi) > 0 else bisect_sign_change(g, 0.0, hi, xtol=0.0, max_steps=80)
    d = delta_of(eps)
    return min((s - d) / 3.0, eps / 3.0), eps, d


def decay_profile(
    f: AnalyticMap,
    ifs: IFSDescriptor,
    radii,
    directions: int = 256,
    approx_depth: int = 16,
    seed: int = 0,
    atom_budget: int | None = None,
) -> DecayProfile:
    """Measure |FT(F mu)| decay over geometric annuli.

    Degree >= 2 maps must pass the second-derivative certification
    (min sampled |F''| > 0); affine maps are allowed as controls, since
    their push-forward transform is a rotated and modulated copy of
    mu_hat itself.

    For degree <= 2 the transform of F_# mu_D (D = ``approx_depth``) is
    evaluated through the tower split (``split_pushforward``) whenever
    its U*V1*V2 atom combinations fit in ``atom_budget``; the depth-D
    tower is then never built.  A quadratic map costs about
    k m (V1 + V2) + a m V2 + U + V1 + V2 exponentials per frequency
    (k, a the levels of the first two blocks), gathers down the blocks'
    digit trees and one U x V1 x V2 matrix product; an affine map
    U + V1 + V2 exponentials.  Blocks are merged separately, each merge
    moving atoms by about merge_tol per level, and the quadratic split
    sums over tree points within its ``displacement`` delta of the merged
    blocks' atoms, so at radius T the result differs from the direct sum
    over the merged tower by at most
    2*pi*T*max|F'|*(D*merge_tol + delta), plus rounding.  Degree >= 3
    maps, and splits over the budget, build the merged tower under
    ``atom_budget`` (BudgetError past it) and sum it directly.  The
    Frostman exponent is estimated under the same ``atom_budget``.
    """
    radii = tuple(float(t) for t in radii)
    if len(radii) < 3:
        raise DomainError("need at least 3 radii")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise DomainError("radii must be increasing")
    # A zero of F'' inside the disk pulls the sampled minimum down to about
    # max|F''| * R / sqrt(samples) (nearest spiral sample), so certification
    # asks min/max to clear a 4/sqrt(samples) floor besides an absolute one.
    min_f2, max_f2, max_f1 = check_second_derivative(f, ifs)
    certified = min_f2 > 1e-12 and min_f2 > (4.0 / math.sqrt(_F2_SAMPLES)) * max_f2
    if f.degree >= 2 and not certified:
        raise DomainError(
            f"second-derivative certification failed: sampled min |F''| = {min_f2:g}"
        )
    budget = DEFAULT_ATOM_BUDGET if atom_budget is None else int(atom_budget)
    target = None
    if f.degree <= 2:
        target = split_pushforward(f, ifs, approx_depth, atom_budget=budget)
    if target is None or target.n_terms > budget:
        target = pushforward_measure(
            f, finite_approximation(ifs, approx_depth, atom_budget=budget)
        )
    maxima = annulus_maxima(target, radii, directions, seed)
    slope, stderr = linear_fit(
        [math.log(t) for t in radii], [math.log(v) for v in maxima]
    )
    s = frostman_estimate(ifs, seed=seed, atom_budget=atom_budget)
    try:
        regime = ifs.bound_regime()
        predicted, eps_used, delta_used = _best_exponent(ifs.lam, ifs.probs, regime, s)
    except RegimeError:
        # no covering bound outside the two regimes: only the trivial
        # (exponent 0) guarantee can be reported
        predicted, eps_used, delta_used = 0.0, 0.0, 0.0
    return DecayProfile(
        radii=radii,
        annulus_max=tuple(float(v) for v in maxima),
        slope=slope,
        stderr=stderr,
        predicted_exponent=predicted,
        epsilon_used=eps_used,
        delta_used=delta_used,
        frostman_s=s,
        directions=directions,
        approx_depth=approx_depth,
        min_abs_f2=min_f2,
        max_abs_f1=max_f1,
    )


def _ball_masses(positions, weights, centers, radii) -> np.ndarray:
    """Weight within distance r of c, for each center c and increasing radius r.

    Returns shape (len(centers), len(radii)).  An atom lies in a ball
    exactly when dx*dx + dy*dy <= r*r.  Atoms are sorted by x once, so a
    center's candidates are the one slice |x - cx| <= max radius; each
    atom is binned to the smallest ball it lies in and the bins add up
    outwards.
    """
    r2 = np.array([r * r for r in radii])
    order = np.argsort(positions.real, kind="stable")
    x, y, w = positions.real[order], positions.imag[order], weights[order]
    reach = radii[-1] * (1.0 + 2.0**-20)
    out = np.empty((len(centers), r2.size))
    for i, c in enumerate(centers):
        lo, hi = np.searchsorted(x, [c.real - reach, c.real + reach], side="right")
        dx, dy = x[lo:hi] - c.real, y[lo:hi] - c.imag
        ring = np.searchsorted(r2, dx * dx + dy * dy)
        out[i] = np.cumsum(np.bincount(ring, weights=w[lo:hi], minlength=r2.size + 1)[:-1])
    return out


def frostman_estimate(
    ifs: IFSDescriptor,
    seed: int = 0,
    atom_budget: int | None = None,
) -> float:
    """Frostman exponent s with mu(B(x, r)) <= C r^s, by ball counting.

    Builds the discrete approximation of depth max(3, floor(log(budget)
    / log(m))) under ``atom_budget`` (default 2e6; BudgetError when even
    depth 3 does not fit), samples up to 128 ball centers from the measure
    itself, and regresses log max ball mass on log r over the radii
    R * 2**-k, k = 2..8, R the support radius.  Agrees with the Frostman
    (dim_inf) estimator up to grid-versus-ball geometry.
    """
    if ifs.is_atomic:
        raise DomainError("Frostman estimation refuses atomic systems")
    budget = 2 * 10**6 if atom_budget is None else int(atom_budget)
    depth = max(3, int(math.log(budget) / math.log(ifs.m)))
    mu = finite_approximation(ifs, depth, atom_budget=budget)
    radius = max(support_radius(ifs), 1e-12)
    radii = sorted(radius * 2.0**-k for k in _FROSTMAN_OCTAVES)
    rng = np.random.default_rng(seed)
    idx = rng.choice(mu.n_atoms, size=min(_FROSTMAN_CENTERS, mu.n_atoms), replace=False)
    best = _ball_masses(mu.positions, mu.weights, mu.positions[idx], radii).max(axis=0)
    xs = [math.log(r) for r in radii]
    ys = [math.log(float(m)) for m in best]
    return max(linear_fit(xs, ys)[0], 0.0)
