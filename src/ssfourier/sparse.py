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
    digit_transition_bound,
    good_index_requirement,
    good_rho,
    sequence_count,
)
from .errors import BudgetError, DomainError, RegimeError
from .fourier import DEFAULT_SUBGRID_K, DEFAULT_TOL, quadtree_blocks
from .measures import IFSDescriptor

FLOAT_SLACK = 1e-9
ENUM_MAX_N = 14
DEFAULT_NODE_BUDGET = 10**7
_SAFE_MAGNITUDE = 2.0**52


@dataclass(frozen=True, eq=False)
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

    t is a scalar or an array of frequencies with |t| < 1, and lam passes
    ``digit_transition_bound``.  Returns (r_j as floats, eps_j in
    [-1/2, 1/2)).  Raises OverflowError when |lam|^{-(N-1)} would push
    the digits past exact float integer range (2^52); the guard compares
    logarithms, as the power itself can overflow a float.
    """
    if -(N - 1) * math.log(abs(lam)) > math.log(_SAFE_MAGNITUDE):
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
    eps_j lands in [-1/2, 1/2).  lambda is refused as
    ``digit_transition_bound`` refuses it, and OverflowError is raised
    when |lam|^{-N} would push the digits past exact float integer range
    (2^52).
    """
    lam = complex(lam)
    t = complex(t)
    if not abs(t) < 1.0:
        raise DomainError("need |t| < 1")
    if N < 2:
        raise DomainError("need N >= 2")
    digit_transition_bound(lam)
    r, eps = _digit_expansion(lam, t, N)
    return EKTrace(lam, t, N, r.astype(np.int64), eps, good_rho(abs(lam)))


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
_FRONTIER_CHUNK = 1 << 10  # frontier nodes per numpy pass, cut back to a group start


def _next_vertex(a, n):
    """Each vertex's edge end: the value at vertex (i + 1) mod n.

    Polygons are the columns of ``a``, zero-padded below their ``n``
    vertices; the padding rows of the result hold finite filler.
    """
    out = np.concatenate([a[1:], a[:1]])
    out[n - 1, np.arange(a.shape[1])] = a[:1]
    return out


def _clip_strips(x, y, v, n, lo, hi):
    """Clip each convex polygon to its strip lo <= v <= hi, in boundary order.

    Column k is a zero-padded convex polygon of ``n[k]`` vertices (x, y)
    and the linear form v at each of them.  One Sutherland-Hodgman pass
    clips both sides: per edge, a vertex inside the strip is kept, then
    each strip line the edge crosses adds the crossing point, two
    crossings ordered by the edge's direction.  Returns the clipped
    polygons as zero-padded (x, y) columns and their vertex counts (0
    where the strip misses the polygon).
    """
    x1, y1, v1 = (_next_vertex(a, n) for a in (x, y, v))
    up = v < v1
    lines = np.stack([np.where(up, lo, hi), np.where(up, hi, lo)], axis=1)
    emit = np.empty((len(x), 3, x.shape[1]), dtype=bool)
    emit[:, 0] = (lo <= v) & (v <= hi)
    emit[:, 1:] = ((np.minimum(v, v1)[:, None] < lines)
                   & (lines < np.maximum(v, v1)[:, None]))
    emit &= (np.arange(len(x))[:, None] < n)[:, None]
    # a crossing edge has v != v1; the others divide by 1 and are dropped
    dv = v1 - v
    s = (lines - v[:, None]) / np.where(dv != 0.0, dv, 1.0)[:, None]
    emit = emit.reshape(3 * len(x), -1).T
    count = emit.sum(axis=1)
    slots = np.arange(int(count.max(initial=0))) < count[:, None]
    out = []
    for a, a1 in ((x, x1), (y, y1)):
        points = np.empty((len(x), 3, x.shape[1]))
        points[:, 0] = a
        points[:, 1:] = a[:, None] + s * (a1 - a)[:, None]
        clipped = np.zeros(slots.shape)
        clipped[slots] = points.reshape(3 * len(x), -1).T[emit]
        out.append(np.ascontiguousarray(clipped.T))
    return out[0], out[1], count


def _meets_disk(x, y, n):
    """Whether each convex polygon meets |t|^2 <= 1 + 1e-12.

    Columns are zero-padded polygons of ``n`` >= 1 vertices.  True when
    a vertex lies in the disk, when the point of some edge nearest the
    origin does, or when the origin lies inside the polygon (every edge's
    cross product has one strict sign).  Polygons with one or two
    vertices (slivers) are handled alike.
    """
    limit = 1.0 + _STRIP_TOL
    real = np.arange(len(x))[:, None] < n
    x1, y1 = _next_vertex(x, n), _next_vertex(y, n)
    dx, dy = x1 - x, y1 - y
    dd = dx * dx + dy * dy
    # a degenerate edge divides by 1 and is dropped
    s = -(x * dx + y * dy) / np.where(dd > 0.0, dd, 1.0)
    px, py = x + s * dx, y + s * dy
    near = (dd > 0.0) & (0.0 < s) & (s < 1.0) & (px * px + py * py <= limit)
    cross = x * y1 - y * x1
    return (np.any(real & ((x * x + y * y <= limit) | near), axis=0)
            | np.all(~real | (cross > 0.0), axis=0)
            | np.all(~real | (cross < 0.0), axis=0))


def _admissible_count(lam: complex, et: float, N: int, node_budget: int | None = None) -> int:
    """Number of digit tuples (r_0..r_{N-1}) realizable in the disk with enough good indices.

    A search over (r_j, good-required) choices.  Each node carries the
    convex polygon of t = x + iy consistent with its choices: the square
    [-1, 1]^2 clipped by the strips
    r_j - half - 1e-12 <= Re(lam^{-j} t) <= r_j + half + 1e-12,
    half = rho for a required-good index and 1/2 otherwise.  Nodes with
    one digit prefix form a group.  The frontier is a stack of chunks of
    nodes of one level: zero-padded vertex columns with each node's
    vertex count, good-index count and group id, sorted by group.  The
    deepest chunk is expanded first, all its children in one numpy pass;
    a leaf pass adds the number of groups with a node that has enough
    good indices.  Chunks are cut only at group starts, at the start of
    the group holding every ``_FRONTIER_CHUNK``-th node, so no group is
    split between two passes and the stack holds a few chunks per level:
    memory is bounded by the chunks, however many sequences there are.

    The square, the strips and the disk are symmetric under t -> -t, and
    IEEE rounding is too: negating a node's vertices gives, bit for bit,
    the polygon, digit range, clips and disk test of the node with the
    negated digits.  So the search walks half of the tree.  Each node
    carries a weight: 1 while its digit prefix is all zeros (its own
    mirror), 2 otherwise (itself and its mirror).  A weight-1 node drops
    its children with r < 0; a child with r != 0 weighs 2 and one with
    r = 0 its parent's weight.  The leaf pass adds the weights of the
    groups that qualify.  Past ``node_budget`` frontier nodes of this half
    search (default DEFAULT_NODE_BUDGET), live children and leaves alike,
    the search stops with a BudgetError; so does a pass that would make
    more candidate children than that budget or DEFAULT_NODE_BUDGET,
    whichever is larger, before it makes them.
    """
    budget = DEFAULT_NODE_BUDGET if node_budget is None else int(node_budget)
    pass_budget = max(budget, DEFAULT_NODE_BUDGET)
    rho = good_rho(abs(lam))
    n_good = good_index_requirement(et, N)
    inv_pows = [(1.0 / lam) ** j for j in range(N)]
    count = nodes = 0
    square = (np.array([[-1.0], [1.0], [1.0], [-1.0]]),
              np.array([[-1.0], [-1.0], [1.0], [1.0]]),
              np.array([4]), np.array([0]), np.array([0]), np.array([1]))
    stack = [(0, square)]
    while stack:
        j, (x, y, n, tights, group, weight) = stack.pop()
        v = inv_pows[j].real * x - inv_pows[j].imag * y
        real = np.arange(len(x))[:, None] < n
        rmin = np.ceil(np.where(real, v, np.inf).min(axis=0) - 0.5 - FLOAT_SLACK)
        rmax = np.floor(np.where(real, v, -np.inf).max(axis=0) + 0.5 + FLOAT_SLACK)
        digits = rmax - rmin + 1
        tried = 2.0 * digits.sum()
        # the children are made before the node count can see them, so a
        # pass with more candidates than the budget allows is refused first
        if tried > pass_budget:
            raise BudgetError(
                f"enumeration pass would try {tried:.3g} children (budget {pass_budget})"
            )
        choices = 2 * digits.astype(np.int64)
        # children in (r, tight-first) order per node, after the good-index
        # prune; an all-zero prefix keeps only its r >= 0 children
        parent = np.repeat(np.arange(n.size), choices)
        k = np.arange(parent.size) - np.repeat(np.cumsum(choices) - choices, choices)
        tight = k % 2 == 0
        r = rmin[parent] + k // 2
        keep = ((tight | (tights[parent] + (N - j - 1) >= n_good))
                & ((weight[parent] == 2) | (r >= 0.0)))
        parent, tight, r = parent[keep], tight[keep], r[keep]
        half = np.where(tight, rho, 0.5)
        cx, cy, cn = _clip_strips(x[:, parent], y[:, parent], v[:, parent], n[parent],
                                  r - half - _STRIP_TOL, r + half + _STRIP_TOL)
        hit = np.flatnonzero(cn)
        live = hit[_meets_disk(cx[:, hit], cy[:, hit], cn[hit])]
        nodes += live.size
        if nodes > budget:
            raise BudgetError(f"enumeration reached {nodes} frontier nodes (budget {budget})")
        # live children by digit prefix; a group starts where the prefix changes
        order = live[np.lexsort((r[live], group[parent[live]]))]
        prefix_group, digit = group[parent[order]], r[order]
        new = np.ones(order.size, dtype=bool)
        new[1:] = (prefix_group[1:] != prefix_group[:-1]) | (digit[1:] != digit[:-1])
        starts = np.flatnonzero(new)
        child_tights = tights[parent[order]] + tight[order]
        child_weight = np.where(digit != 0.0, 2, weight[parent[order]])
        if j + 1 == N:
            qualifies = np.logical_or.reduceat(child_tights >= n_good, starts)
            count += int(child_weight[starts[qualifies]].sum())
            continue
        child_group = np.cumsum(new)
        heads = np.searchsorted(starts, np.arange(0, order.size, _FRONTIER_CHUNK), side="right")
        bounds = sorted({*starts[heads - 1].tolist(), order.size})
        width = int(cn[order].max(initial=0))
        for a, b in zip(bounds, bounds[1:]):
            rows = order[a:b]
            stack.append((j + 1, (cx[:width, rows], cy[:width, rows], cn[rows],
                                  child_tights[a:b], child_group[a:b], child_weight[a:b])))
    return count


def enumerate_digit_sequences(
    lam: complex, epsilon_tilde: float, N: int, node_budget: int | None = None
) -> tuple[int, float]:
    """Exhaustively count digit sequences realizable with enough good indices.

    A sequence r_0..r_{N-1} counts when the set of t in the unit disk with
    Re(lam^{-j} t) within rho of r_j at >= ceil((1 - et) N) indices and
    within 1/2 of r_j at the others is non-empty.  That set is a convex
    polygon, and the search clips it exactly, strip by strip; each strip
    is widened by 1e-12 on both sides and the disk to |t|^2 <= 1 + 1e-12,
    so the count is exact up to that widening and never misses a
    realizable sequence.  The search expands a frontier of prefixes level
    by level in numpy passes over chunks of about ``_FRONTIER_CHUNK``
    nodes, never splitting a group of nodes that share a digit prefix,
    and counts the groups that reach level N; its working memory is a few
    chunks per level, not a multiple of the count.  The admissible set is
    closed under r -> -r, bit for bit, so only prefixes whose first
    nonzero digit is positive, and the all-zero prefix, are expanded: the
    all-zero prefix counts once and every other one twice, for itself and
    its mirror.
    Returns (count, M_N * e^{h(et) N}); a finite et is clamped to
    [0, 1], so et -> 1 enumerates with no good-index requirement at all.
    A search past ``node_budget`` frontier nodes of that half search
    (default 1e7) raises BudgetError.
    """
    lam = complex(lam)
    if N < 1:
        raise DomainError("need N >= 1")
    if N > ENUM_MAX_N:
        raise BudgetError(f"enumeration is exhaustive only up to N = {ENUM_MAX_N}")
    _, branching = digit_transition_bound(lam)
    if not math.isfinite(epsilon_tilde):
        raise DomainError("epsilon_tilde must be finite")
    et = min(max(float(epsilon_tilde), 0.0), 1.0)
    return _admissible_count(lam, et, N, node_budget), sequence_count(branching, et, N)


# ---------------------------------------------------------------------------
# empirical covering reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoveringReport:
    """Empirical sparse-set size at scale T = |lam|^{-N} vs the explicit bound.

    ``empirical_count`` counts the unit cells of the disk |xi| <= T whose
    sampled max |mu_hat| reaches T^{-epsilon}; ``inclusion_violations``
    counts sampled frequencies that certainly qualify yet fail S(N, et)
    membership (the theory predicts 0); ``checked_points`` is how many
    sampled frequencies were subjected to the membership test.  The
    samples are those of a scan of the whole disk on its k x k sub-grid,
    although only the cells a disc bound cannot rule out are sampled.
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
    frequency xi that certainly qualifies (sampled value minus 2*tol, at
    least twice the truncation error, still reaches the threshold) is
    rescaled to t = lam^N * conj(xi) and must land in S(N, et);
    membership is tested with 1e-9 additive slack on rho.  Frequencies
    with |t| >= 1 are outside the statement and are skipped.

    The samples come from ``quadtree_blocks``: a top-down quadtree drops
    every square on which the product kernel's disc bound, widened by
    tol and its rounding, stays below the threshold, and only the unit
    cells left, with their mirrors under xi -> -xi, are sampled, on the
    scan's k x k sub-grid and with its bits.  A dropped cell holds no
    sample at or above the threshold, nor one that certainly qualifies,
    so every field is the one a scan of every cell of the disk gives; at
    N = 16 on (1+i)/2 with digits +-1 and epsilon 0.05, 499 bounds and
    288 samples instead of 3.3e6 samples.  Each block is counted and
    audited before the next is read.  The blocks come in pairs mirrored
    under xi -> -xi, whose values are read off one product evaluation
    (|mu_hat| is even, bit for bit); the audit still rescales and tests
    the frequencies of both.  ``workers`` threads of this process share
    the pairs, and the report is the same for any count.  The budget is
    checked as the scan checks it, on the points of the whole disk
    (default 10^7), and a radius |lam|^-N that overflows a float is a
    BudgetError.
    """
    if ifs.bound_regime() != "complex":
        raise RegimeError("covering reports need the complex (Im lambda != 0) regime")
    lam = ifs.lam
    if N < 2:
        raise DomainError("need N >= 2")
    et = delta_complex(lam, ifs.probs, epsilon).epsilon_tilde
    try:
        T = abs(lam) ** (-N)
    except OverflowError:
        # a disk too large for a float holds more points than any budget
        raise BudgetError(f"scan radius |lambda|^-N overflows a float at N = {N}") from None
    threshold = T ** (-epsilon)
    blocks = quadtree_blocks(ifs, T, subgrid_k, tol, threshold, workers, cell_budget)
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
