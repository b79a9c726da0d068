"""Homogeneous self-similar measures on the complex plane.

A homogeneous IFS is a family f_i(z) = lam*z + w_i sharing one complex
contraction ratio lam, |lam| < 1.  The associated self-similar measure is
the law of sum_{n>=0} lam^n X_n, where the X_n are i.i.d. draws from the
digit set {w_i} with weights p_i.  This module holds the IFS descriptor,
finite depth-N convolution towers, the measure algebra (convolution,
complex scaling) and the one position sort and close-pair search.

All types are immutable after construction and all operations are pure,
so they can be called concurrently without locking.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError, RegimeError

DEFAULT_ATOM_BUDGET = 10**7

PROB_SUM_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-10
REAL_LAMBDA_TOL = 1e-14
COLLINEAR_TOL = 1e-12


def is_real_lambda(lam) -> bool:
    """The one real-contraction rule: |Im lam| <= REAL_LAMBDA_TOL."""
    return abs(complex(lam).imag) <= REAL_LAMBDA_TOL


def as_weights(p) -> tuple[float, ...]:
    """Validate probability weights: finite, > 0, at least 2, summing to 1."""
    p = tuple(float(x) for x in p)
    if len(p) < 2:
        raise DomainError("probability vector needs at least 2 entries")
    if not all(0.0 < x < math.inf for x in p):
        raise DomainError("probability weights must be finite and strictly positive")
    if abs(sum(p) - 1.0) > PROB_SUM_TOL:
        raise DomainError(
            f"probability weights must sum to 1 within {PROB_SUM_TOL:g}"
        )
    return p


@dataclass(frozen=True)
class IFSDescriptor:
    """A homogeneous IFS {z -> lam*z + w_i} with selection weights.

    Parameters
    ----------
    lam : complex
        Common contraction ratio, 0 < |lam| < 1.
    digits : tuple of complex
        Finite translation parts w_1..w_m (m >= 2).
    probs : tuple of float
        Selection probabilities, strictly positive, summing to 1.
    """

    lam: complex
    digits: tuple[complex, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        lam = complex(self.lam)
        digits = tuple(complex(w) for w in self.digits)
        probs = as_weights(self.probs)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "probs", probs)
        if not 0.0 < abs(lam) < 1.0:
            raise DomainError(f"need 0 < |lam| < 1, got |lam| = {abs(lam):g}")
        if len(digits) != len(probs):
            raise DomainError("digits and probs must have the same length")
        if not all(cmath.isfinite(w) for w in digits):
            raise DomainError("digits must be finite")

    @property
    def m(self) -> int:
        return len(self.digits)

    @property
    def lambda_is_real(self) -> bool:
        return is_real_lambda(self.lam)

    @property
    def is_atomic(self) -> bool:
        return all(w == self.digits[0] for w in self.digits)

    @property
    def digits_collinear(self) -> bool:
        """True when every digit lies on one real-affine line.

        Tested through the cross-product determinant of digit differences
        with absolute tolerance 1e-12.  Two or fewer distinct digits are
        collinear by convention.
        """
        w0 = self.digits[0]
        base = next((w - w0 for w in self.digits if w != w0), None)
        if base is None:
            return True
        for w in self.digits:
            d = w - w0
            det = base.real * d.imag - base.imag * d.real
            if abs(det) > COLLINEAR_TOL:
                return False
        return True

    def bound_regime(self) -> str:
        """Classify which sparse-frequency bound applies to this system.

        Returns "complex" (non-real contraction) or "real_noncollinear"
        (real contraction, >= 3 non-collinear digits).  Every other
        configuration is refused: no covering bound is available for it.
        """
        if self.is_atomic:
            raise RegimeError("atomic IFS: bound computations are refused")
        if not self.lambda_is_real:
            return "complex"
        if self.m >= 3 and not self.digits_collinear:
            return "real_noncollinear"
        raise RegimeError(
            "real contraction with collinear digits (or m < 2 distinct): "
            "no covering-bound regime applies"
        )

    def to_json(self) -> dict:
        return {
            "lambda": [self.lam.real, self.lam.imag],
            "digits": [[w.real, w.imag] for w in self.digits],
            "probs": list(self.probs),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "IFSDescriptor":
        """Inverse of ``to_json``; a document of another shape is a DomainError."""
        try:
            lam = complex(doc["lambda"][0], doc["lambda"][1])
            digits = tuple(complex(a, b) for a, b in doc["digits"])
            probs = tuple(float(p) for p in doc["probs"])
        except (LookupError, TypeError, ValueError) as exc:
            raise DomainError(f"IFS document needs lambda, digits and probs: {exc!r}") from exc
        return cls(lam, digits, probs)


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finitely many weighted atoms in the plane.

    positions : complex128 array, shape (n,)
    weights   : float64 array, shape (n,), strictly positive, total mass 1
    """

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.complex128).ravel()
        wts = np.asarray(self.weights, dtype=np.float64).ravel()
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", wts)
        if pos.shape != wts.shape:
            raise DomainError("positions and weights must have equal length")
        if pos.size == 0:
            raise DomainError("measure needs at least one atom")
        if not np.all(np.isfinite(wts)) or np.any(wts <= 0.0):
            raise DomainError("weights must be finite and strictly positive")
        if not np.all(np.isfinite(pos.view(np.float64))):
            raise DomainError("positions must be finite")
        total = float(wts.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise DomainError(
                f"total mass must be 1 within {WEIGHT_SUM_TOL:g}, got {total!r}"
            )

    @property
    def n_atoms(self) -> int:
        return int(self.positions.size)

    @classmethod
    def dirac(cls, z: complex) -> "DiscreteMeasure":
        return cls(np.array([z], dtype=np.complex128), np.array([1.0]))


def distinct_positions(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's label among the distinct (x, y), numbered in
    lexicographic order, and the first (smallest) point of each.

    One stable argsort of the complex key x + iy, which numpy orders by
    (re, im): ``np.lexsort((y, x))``'s order, ties and -0.0 == 0.0 included.
    """
    order = np.argsort(x + 1j * y, kind="stable")
    sx, sy = x[order], y[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (sx[1:] != sx[:-1]) | (sy[1:] != sy[:-1])
    labels = np.empty(order.size, dtype=np.intp)
    labels[order] = np.cumsum(new) - 1
    return labels, order[new]


def strip_pairs(x: np.ndarray, y: np.ndarray, scale: int, window: int | None = None):
    """Blocks ``(a, b, d2)`` of index pairs of the distinct positions (x, y),
    in (x, y) order, that share a strip group and lie within w = 2^-scale in
    y, with d2 = dx*dx + dy*dy.

    Exact strips floor(x 2^scale) put a pair closer than w in x in a group
    (2k, 2k + 1) or (2k - 1, 2k); the second grouping is walked only where
    a group holds two strips.  A group's positions go in (y, x) order, by
    one stable sort (linear where a group holds one x, as on a lattice),
    and each meets the next ones while the y gap stays under w, at most
    ``window`` of them (every one for None), so past the sort the cost is
    linear in the pairs met.  Where x 2^scale overflows, distinct x lie an
    ulp, far more than 2w, apart, and each is a group of its own.
    """
    with np.errstate(over="ignore"):
        strip = np.floor(np.ldexp(x, scale))
    apart = ~np.isfinite(strip[1:]) & (x[1:] != x[:-1])
    two_strips = strip[1:] != strip[:-1]
    w = math.ldexp(1.0, -scale)
    for shift in (0.0, 1.0):
        group = np.floor((strip + shift) * 0.5)
        joined = (group[1:] == group[:-1]) & ~apart  # position i + 1 joins i's group
        rank = np.cumsum(np.r_[True, ~joined])
        walked = np.zeros(rank[-1] + 1, dtype=bool)
        walked[rank[1:][joined & two_strips if shift else joined]] = True
        walk = np.flatnonzero(walked[rank])
        # a tower merge's peak memory is here: drop what the walk does not
        # read, and (below) the walk's arrays before the next grouping
        del group, joined, walked
        # stable, so positions tied in (group, y) stay in x order
        walk = walk[np.argsort(rank[walk] + 1j * y[walk], kind="stable")]
        rank, ys = rank[walk], y[walk]
        with np.errstate(over="ignore"):
            i = np.flatnonzero((rank[1:] == rank[:-1]) & (ys[1:] - ys[:-1] < w))
        k = 1
        while i.size and (window is None or k <= window):
            a, b = walk[i], walk[i + k]
            with np.errstate(over="ignore"):
                dx, dy = x[b] - x[a], ys[i + k] - ys[i]
                d2 = dx * dx + dy * dy
            yield a, b, d2
            k += 1
            i = i[i + k < walk.size]
            with np.errstate(over="ignore"):
                i = i[(rank[i + k] == rank[i]) & (ys[i + k] - ys[i] < w)]
        del walk, rank, ys


def _merge_components(x, y, labels, runs, tol: float):
    """Components of the graph joining atoms at distance <= ``tol``.

    ``labels, runs`` is ``distinct_positions(x, y)``, whose groups of exact
    copies seed the components: each atom starts on the smallest member of
    its run.  Returns ``(label, roots)``, components numbered in the order
    of their smallest members and ``roots[c]`` the smallest member of
    component c, or None when no two distinct positions join (always for
    ``tol <= 0``), so the union-find runs only where a distinct pair joins.
    Distinct positions join when dx*dx + dy*dy <= tol*tol (cKDTree's
    rule), met by ``strip_pairs`` at a width w in [2 tol, 4 tol): w = tol
    misses a pair whose dx rounds down to a power-of-two tol.  The search
    is skipped when the steps between consecutive distinct positions in
    (x, y) order already part every pair: a pair's dx is at least that of
    any step between them (rounding is monotone), and a pair with equal x
    spans steps of equal x, so steps with dx*dx > tol*tol, or dx == 0 and
    dy*dy > tol*tol, leave no pair within tol.  Pointer jumping hooks
    larger roots onto smaller ones.
    """
    if not tol > 0.0:
        return None
    a, b = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    x, y = x[runs], y[runs]
    with np.errstate(over="ignore"):
        dx, dy = np.diff(x), np.diff(y)
        apart = np.where(dx == 0.0, dy * dy, dx * dx) > tol * tol
    scale = math.floor(-math.log2(tol)) - 1
    for i, j, d2 in () if apart.all() else strip_pairs(x, y, scale):
        keep = d2 <= tol * tol
        a.append(runs[i[keep]])
        b.append(runs[j[keep]])
    a, b = np.concatenate(a), np.concatenate(b)
    if a.size == 0:
        return None
    label = runs[labels]
    while True:
        la, lb = label[a], label[b]
        cross = la != lb
        if not cross.any():
            break
        a, b, la, lb = a[cross], b[cross], la[cross], lb[cross]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    root = label == np.arange(label.size)
    comp = np.cumsum(root) - 1
    return comp[label], np.flatnonzero(root)


def _merge_atoms(mu: DiscreteMeasure, tol: float) -> tuple[DiscreteMeasure, np.ndarray]:
    """Coalesce atoms within distance ``tol`` of each other.

    Atoms join when dx*dx + dy*dy <= tol*tol, and joins chain: every
    connected group becomes one atom whose weight is the group's sum.
    Each pass sorts the atoms once with ``distinct_positions``, whose
    groups of exact copies are the pass's starting groups, and finds the
    pairs of distinct positions with ``strip_pairs`` on exact strips of
    width about 2 tol, with no tree and no Python loop over atoms or
    pairs; with ``tol <= 0`` only exact copies join.  A pass that joins a
    distinct pair runs the union-find over those pairs and weight-averages
    each group's positions in atom order, so mass and the barycenter are
    preserved, and merged atoms are tested again.  The first pass that
    joins no distinct pair is the last: it ends with the sort's own
    groups, each at the common position of its copies, bit for bit, with
    the copies' weights summed in atom order, so copies on a lattice stay
    on it.  Every joining pass removes an atom, so the passes end.  The
    result is sorted lexicographically by (re, im), the order of the last
    pass's sort, which makes merged measures canonical for comparison.

    Also returns, for each merged atom, the index in ``mu`` of its
    smallest member.  Each pass numbers the merged atoms in the order of
    their smallest members, so the member indices stay increasing from
    pass to pass and the smallest member of a merged group is that of its
    first atom.
    """
    x, y, wts = mu.positions.real, mu.positions.imag, mu.weights
    smallest = np.arange(x.size)
    while True:
        labels, runs = distinct_positions(x, y)
        components = _merge_components(x, y, labels, runs, tol)
        if components is None:
            break
        inverse, roots = components
        wsum = np.bincount(inverse, weights=wts)
        smallest = smallest[roots]
        x = np.bincount(inverse, weights=wts * x) / wsum
        y = np.bincount(inverse, weights=wts * y) / wsum
        wts = wsum
    pos = x[runs] + 1j * y[runs]
    return DiscreteMeasure(pos, np.bincount(labels, weights=wts)), smallest[runs]


def support_radius(ifs: IFSDescriptor) -> float:
    """Radius of a closed disk centered at 0 containing the attractor.

    The random sum sum_{n>=0} lam^n X_n is bounded by
    max_j |w_j| / (1 - |lam|).
    """
    return max(abs(w) for w in ifs.digits) / (1.0 - abs(ifs.lam))


def finite_approximation(
    ifs: IFSDescriptor,
    depth: int,
    atom_budget: int | None = None,
) -> DiscreteMeasure:
    """Law of sum_{n=0}^{depth-1} lam^n X_n as a discrete measure.

    This is the depth-fold convolution of the scaled digit laws
    sum_j p_j delta_{lam^n w_j}, n = 0..depth-1.  Atoms within
    1e-12 * max(support radius, 1) are coalesced after every convolution
    level by ``_merge_atoms``: sums that coincide exactly are grouped once,
    by the merge's sort, and keep their common position, so a tower whose
    sums meet exactly (digits on a lattice) stays on its lattice and merges
    in one pass per level, with no union-find; that runs only in a pass
    that joins two distinct sums.  The last measure of ``tower_levels``;
    nothing else is kept.

    Parameters
    ----------
    depth : int
        Number of convolution factors (depth 0 gives delta_0).
    atom_budget : int, optional
        Hard cap on the working atom count (default 1e7).  Exceeding it
        raises BudgetError instead of silently subsampling.
    """
    mu = DiscreteMeasure.dirac(0.0)
    for mu, _ in tower_levels(ifs, depth, atom_budget):
        pass
    return mu


def tower_levels(ifs: IFSDescriptor, depth: int, atom_budget: int | None = None):
    """Stream ``(mu_n, first_n)`` for the levels n < depth of ``finite_approximation``.

    mu_n is the ``_convolve`` step of mu_{n-1} (delta_0 before level 0) and
    the digit law scaled by lam^n, so the budget holds level by level and
    the state after n levels does not depend on ``depth``.  The level's
    sums come in (atom of mu_{n-1}, digit) order and ``first_n[i]`` indexes
    the smallest member of atom i's merge group: ``parent, digit =
    divmod(first_n, m)``.  Following parents down from a final atom gives
    its tree point sum_n lam^n digits[digit_n], a member of its merge
    cluster and exactly its position wherever no merge happened.
    A system whose support radius overflows a float is a DomainError.
    """
    if depth < 0:
        raise DomainError("depth must be >= 0")
    radius = support_radius(ifs)
    if not math.isfinite(radius):
        raise DomainError(f"support radius max|w|/(1 - |lambda|) = {radius} overflows a float")
    merge_tol = 1e-12 * max(radius, 1.0)
    digits = np.array(ifs.digits, dtype=np.complex128)
    mu, scale = DiscreteMeasure.dirac(0.0), 1.0 + 0.0j
    for _ in range(depth):
        step = DiscreteMeasure(scale * digits, ifs.probs)
        mu, first = _convolve(mu, step, merge_tol, atom_budget)
        yield mu, first
        scale *= ifs.lam


def _convolve(mu, nu, merge_tol, atom_budget) -> tuple[DiscreteMeasure, np.ndarray]:
    """Convolution of two discrete measures (all pairwise sums) merged at
    ``merge_tol``, refused past ``atom_budget`` sums (default 1e7), and each
    merged atom's smallest member among the sums in (mu atom, nu atom) order."""
    budget = DEFAULT_ATOM_BUDGET if atom_budget is None else int(atom_budget)
    if mu.n_atoms * nu.n_atoms > budget:
        raise BudgetError(
            f"convolution would create {mu.n_atoms} x {nu.n_atoms} atoms "
            f"before merge (budget {budget})"
        )
    pos = (mu.positions[:, None] + nu.positions[None, :]).ravel()
    wts = (mu.weights[:, None] * nu.weights[None, :]).ravel()
    return _merge_atoms(DiscreteMeasure(pos, wts / wts.sum()), merge_tol)


def scale_rotate(mu: DiscreteMeasure, factor: complex) -> DiscreteMeasure:
    """Image measure under z -> factor * z (weights unchanged)."""
    return DiscreteMeasure(mu.positions * complex(factor), mu.weights.copy())


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def measure_from_csv(text: str) -> DiscreteMeasure:
    """Measure from CSV text with header ``re,im,weight``, one atom per row."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["re", "im", "weight"]:
        raise DomainError("expected CSV header re,im,weight")
    try:
        data = [(float(a), float(b), float(w)) for a, b, w in rows[1:]]
    except ValueError as exc:
        raise DomainError(f"each CSV row needs three numbers re,im,weight: {exc}") from exc
    pos = np.array([complex(a, b) for a, b, _ in data], dtype=np.complex128)
    wts = np.array([w for _, _, w in data])
    return DiscreteMeasure(pos, wts)


def ifs_from_json_str(text: str) -> IFSDescriptor:
    """The system of a JSON ``IFSDescriptor.to_json`` document; text that is not
    JSON is a DomainError."""
    try:
        return IFSDescriptor.from_json(json.loads(text))
    except json.JSONDecodeError as exc:
        raise DomainError(f"IFS document is not JSON: {exc}") from exc
