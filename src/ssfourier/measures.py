"""Homogeneous self-similar measures on the complex plane.

A homogeneous IFS is a family f_i(z) = lam*z + w_i sharing one complex
contraction ratio lam, |lam| < 1.  The associated self-similar measure is
the law of sum_{n>=0} lam^n X_n, where the X_n are i.i.d. draws from the
digit set {w_i} with weights p_i.  This module holds the IFS descriptor,
finite discrete approximations (depth-N convolution towers) and the small
measure algebra (convolution, complex scaling) everything else builds on.

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
from functools import cached_property

import numpy as np

from .errors import BudgetError, DomainError, RegimeError

DEFAULT_ATOM_BUDGET = 10**7

PROB_SUM_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-10
REAL_LAMBDA_TOL = 1e-14
COLLINEAR_TOL = 1e-12

_PAIR_BLOCK = 1 << 18  # grid-hash candidate pairs per block; keeps memory O(n)


@dataclass(frozen=True)
class ProbabilityVector:
    """Finite, strictly positive weights of length >= 2 summing to 1."""

    p: tuple[float, ...]

    def __post_init__(self):
        p = tuple(float(x) for x in self.p)
        object.__setattr__(self, "p", p)
        if len(p) < 2:
            raise DomainError("probability vector needs at least 2 entries")
        if not all(0.0 < x < math.inf for x in p):
            raise DomainError("probability weights must be finite and strictly positive")
        if abs(sum(p) - 1.0) > PROB_SUM_TOL:
            raise DomainError(
                f"probability weights must sum to 1 within {PROB_SUM_TOL:g}"
            )

    def __len__(self):
        return len(self.p)

    def __iter__(self):
        return iter(self.p)

    def __getitem__(self, i):
        return self.p[i]


def is_real_lambda(lam) -> bool:
    """The one real-contraction rule: |Im lam| <= REAL_LAMBDA_TOL."""
    return abs(complex(lam).imag) <= REAL_LAMBDA_TOL


def as_weights(p) -> tuple[float, ...]:
    """Coerce a ProbabilityVector or plain sequence to a validated tuple."""
    if isinstance(p, ProbabilityVector):
        return p.p
    return ProbabilityVector(tuple(p)).p


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


@dataclass(frozen=True)
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

    @cached_property
    def min_atom_gap(self) -> float | None:
        """Smallest positive distance between two atoms.

        Exactly coinciding atoms act as one.  None for a single atom or when
        all atoms coincide.  Computed once per measure.  The smallest
        positive distance between consecutive atoms in (re, im) or (im, re)
        order is a pair distance, so it bounds the gap from above; the
        closest pair is then among the grid-hash pairs within that bound,
        widened by a hair because sqrt(d2)**2 can round below d2.  Taking
        both orders keeps the bound near the gap on lattices whose spacing
        differs between the axes.
        """
        x, y = self.positions.real, self.positions.imag
        bound = _consecutive_d2(x, y)
        if bound == math.inf:
            return None
        tol = math.sqrt(bound) * (1.0 + 2.0**-20)
        best = min(
            float(np.min(d2, initial=math.inf, where=d2 > 0.0))
            for _, _, d2 in _close_pairs(x, y, tol)
        )
        return math.sqrt(best)

    @classmethod
    def dirac(cls, z: complex) -> "DiscreteMeasure":
        return cls(np.array([z], dtype=np.complex128), np.array([1.0]))


def _consecutive_d2(x: np.ndarray, y: np.ndarray) -> float:
    """Smallest positive d2 between consecutive atoms in (x, y) or (y, x) order."""
    best = math.inf
    for order in (np.lexsort((y, x)), np.lexsort((x, y))):
        dx, dy = np.diff(x[order]), np.diff(y[order])
        d2 = dx * dx + dy * dy
        best = min(best, float(np.min(d2, initial=math.inf, where=d2 > 0.0)))
    return best


def _close_pairs(x: np.ndarray, y: np.ndarray, tol: float):
    """Blocks ``(a, b, d2)`` of the atom pairs at distance <= ``tol``.

    ``d2 = dx*dx + dy*dy``, and a pair is within ``tol`` exactly when
    d2 <= tol*tol (cKDTree's query_pairs rule).  Every such pair is in
    some block, with one exception: an atom equal to the atom before it
    in the hash order comes only once, paired at d2 = 0 with the first
    atom of its run, which has the same position and takes its other
    pairs.  Blocks hold at most about ``_PAIR_BLOCK`` candidate pairs each, so
    memory stays O(n) however many pairs there are.

    Candidate pairs come from a grid hash.  Cells have side h, a hair
    over max(tol, span / 2**30) so that a close pair never lands two
    cells apart after rounding, and keys (ix << 32) | iy, stable-sorted.
    An atom meets the later atoms of its own cell, and the atoms of its
    four forward neighbour cells when it lies within about tol of the
    shared edge.  Leaving runs of equal atoms out of the hash makes g
    coinciding atoms alone in a cell cost g - 1 pairs, not g(g - 1)/2.
    """
    n = x.size
    x0, y0 = x.min(), y.min()
    span = max(x.max() - x0, y.max() - y0)
    h = max(tol, span / 2**30) * (1.0 + 2.0**-16)
    u, v = (x - x0) / h, (y - y0) / h
    # u, v >= 0, so truncation is floor; +1 keeps iy - 1 >= 0 for the
    # (ix + 1, iy - 1) neighbour
    key = ((u.astype(np.int64) + 1) << 32) | (v.astype(np.int64) + 1)
    order = np.argsort(key, kind="stable")
    copy = np.r_[False, (np.diff(x[order]) == 0.0) & (np.diff(y[order]) == 0.0)]
    firsts = order[np.maximum.accumulate(np.where(copy, 0, np.arange(n)))][copy]
    yield order[copy], firsts, np.zeros(firsts.size)
    order = order[~copy]
    key = key[order]
    m = order.size
    # cell coordinates are off by under 2**-22 each, so both atoms of a
    # close pair in neighbouring cells lie within tol / h + 2**-21 of the edge
    edge = min(1.0, 2.0 * tol / h + 2.0**-18)
    u, v = np.modf(u[order])[0], np.modf(v[order])[0]
    right, top, bottom = u >= 1.0 - edge, v >= 1.0 - edge, v <= edge
    brk = np.flatnonzero(key[1:] != key[:-1]) + 1
    run_end = np.append(brk, m)
    run_of = np.zeros(m, dtype=np.int64)
    run_of[brk] = 1
    run_of = np.cumsum(run_of)
    # one cell direction at a time: the atom at sorted position src[g]
    # meets those at positions lo[g]..hi[g]-1
    for off, mask in (
        (0, None),
        (1, top),
        ((1 << 32) - 1, right & bottom),
        (1 << 32, right),
        ((1 << 32) + 1, right & top),
    ):
        if mask is None:
            src, lo = np.arange(m), np.arange(1, m + 1)
            hi = run_end[run_of]
        else:
            src = np.flatnonzero(mask)
            target = key[src] + off
            lo = np.searchsorted(key, target)
            hit = key[np.minimum(lo, m - 1)] == target
            src, lo = src[hit], lo[hit]
            hi = run_end[run_of[lo]]
        met = hi > lo
        src, lo, count = src[met], lo[met], (hi - lo)[met]
        ends = np.cumsum(count)
        # pair ends[g] - count[g] + k of the direction is (src[g], lo[g] + k)
        lo = lo - (ends - count)
        s = 0
        while s < src.size:
            base = int(ends[s - 1]) if s else 0
            t = max(s + 1, int(np.searchsorted(ends, base + _PAIR_BLOCK, "right")))
            group = np.repeat(np.arange(s, t), count[s:t])
            a = order[src[group]]
            b = order[lo[group] + base + np.arange(group.size)]
            dx, dy = x[a] - x[b], y[a] - y[b]
            d2 = dx * dx + dy * dy
            keep = d2 <= tol * tol
            yield a[keep], b[keep], d2[keep]
            s = t


def _merge_components(pts: np.ndarray, tol: float):
    """Components of the graph joining atoms at distance <= ``tol``.

    Returns ``(label, roots)``: ``label[i]`` numbers the component of atom
    i, components numbered in the order of their smallest member, and
    ``roots[c]`` is that member of component c; or None when no two atoms
    are joined.  Pairs come from ``_close_pairs``;
    components from hooking larger roots onto smaller ones with pointer
    jumping, which leaves each labelled by its smallest member.
    """
    n = pts.shape[0]
    a, b, _ = map(np.concatenate, zip(*_close_pairs(pts[:, 0], pts[:, 1], tol)))
    if a.size == 0:
        return None
    label = np.arange(n)
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
    root = label == np.arange(n)
    comp = np.cumsum(root) - 1
    return comp[label], np.flatnonzero(root)


def _merge_atoms(mu: DiscreteMeasure, tol: float) -> tuple[DiscreteMeasure, np.ndarray]:
    """Coalesce atoms within distance ``tol`` of each other.

    Atoms join when dx*dx + dy*dy <= tol*tol, and joins chain: every
    connected group becomes one atom.  Weights are added and positions
    are weight-averaged in atom order, so mass and the barycenter are
    preserved.  Merged atoms are tested again, up to 8 passes.  Pairs are
    found through a grid hash of cell side about max(tol, span / 2**30),
    with no tree and no Python loop over atoms or pairs.  With
    ``tol <= 0`` only exactly coinciding atoms merge.  The result is
    sorted lexicographically by (re, im), which makes merged measures
    canonical for comparison.

    Also returns, for each merged atom, the index in ``mu`` of its
    smallest member.  Each pass numbers the merged atoms in the order of
    their smallest members, so the member indices stay increasing from
    pass to pass and the smallest member of a merged group is that of its
    first atom.
    """
    pos, wts = mu.positions, mu.weights
    first = None  # while no atom has merged, each is its own smallest member
    if tol <= 0.0:
        uniq, inverse = np.unique(pos, return_inverse=True)
        if uniq.size != pos.size:
            wsum = np.bincount(inverse, weights=wts, minlength=uniq.size)
            pos, wts = uniq, wsum
            first = np.unique(inverse, return_index=True)[1]
    else:
        pts = np.column_stack([pos.real, pos.imag])
        for _ in range(8):
            components = _merge_components(pts, tol)
            if components is None:
                break
            inverse, roots = components
            k = roots.size
            wsum = np.bincount(inverse, weights=wts, minlength=k)
            xsum = np.bincount(inverse, weights=wts * pts[:, 0], minlength=k)
            ysum = np.bincount(inverse, weights=wts * pts[:, 1], minlength=k)
            pts = np.column_stack([xsum / wsum, ysum / wsum])
            wts = wsum
            first = roots if first is None else first[roots]
        pos = pts[:, 0] + 1j * pts[:, 1]
    order = np.lexsort((pos.imag, pos.real))
    return DiscreteMeasure(pos[order], wts[order]), order if first is None else first[order]


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
    level.  The last measure of ``tower_levels``; nothing else is kept.

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
    """
    if depth < 0:
        raise DomainError("depth must be >= 0")
    merge_tol = 1e-12 * max(support_radius(ifs), 1.0)
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
