import cmath
import math
import tracemalloc
from contextlib import closing

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ssfourier import fourier, sparse
from ssfourier import (
    BudgetError,
    DomainError,
    IFSDescriptor,
    RegimeError,
    covering_bound,
    covering_report,
    delta_complex,
    digit_transition_bound,
    ek_trace,
    enumerate_digit_sequences,
    verify_digit_inequality,
)
from ssfourier.bounds import good_rho
from ssfourier.fourier import DEFAULT_SUBGRID_K, DEFAULT_TOL, scan_blocks

from conftest import outcome

LAM = (1 + 1j) / 2
OTHER_LAMS = (0.3 + 0.6j, -0.5 + 0.25j, cmath.rect(0.71, 1.0))


def _reference_propagate(cons, box):
    """Tighten an (x, y) box against strips a*x - b*y in [lo, hi].

    Interval constraint propagation to a fixpoint; None when the box
    empties or leaves the unit disk (tolerance 1e-12).
    """
    xlo, xhi, ylo, yhi = box
    for _ in range(40):
        changed = False
        for al, be, lo, hi in cons:
            if al != 0.0:
                t1, t2 = be * ylo, be * yhi
                nlo, nhi = lo + min(t1, t2), hi + max(t1, t2)
                if al > 0:
                    cand_lo, cand_hi = nlo / al, nhi / al
                else:
                    cand_lo, cand_hi = nhi / al, nlo / al
                if cand_lo > xlo + 1e-15:
                    xlo, changed = cand_lo, True
                if cand_hi < xhi - 1e-15:
                    xhi, changed = cand_hi, True
            if be != 0.0:
                t1, t2 = al * xlo, al * xhi
                nlo, nhi = min(t1, t2) - hi, max(t1, t2) - lo
                if be > 0:
                    cand_lo, cand_hi = nlo / be, nhi / be
                else:
                    cand_lo, cand_hi = nhi / be, nlo / be
                if cand_lo > ylo + 1e-15:
                    ylo, changed = cand_lo, True
                if cand_hi < yhi - 1e-15:
                    yhi, changed = cand_hi, True
            if xlo > xhi + 1e-12 or ylo > yhi + 1e-12:
                return None
        if not changed:
            break
    nx = min(max(0.0, xlo), xhi)
    ny = min(max(0.0, ylo), yhi)
    if nx * nx + ny * ny > 1.0 + 1e-12:
        return None
    return (xlo, xhi, ylo, yhi)


def reference_box_count(lam, et, N):
    """The box search the polygon search replaced: an outer approximation.

    Same (r_j, good-required) branching and prune, but each node keeps an
    (x, y) box tightened by the prefix's strips, and the digit range at
    level j is the interval of Re(lam^{-j} t) over that box.
    """
    rho = sparse.good_rho(abs(lam))
    n_good = sparse.good_index_requirement(et, N)
    inv_pows = [(1.0 / lam) ** j for j in range(N)]
    found = set()
    digits = []

    def rec(j, cons, box, tights):
        if j == N:
            if tights >= n_good:
                found.add(tuple(digits))
            return
        al, be = inv_pows[j].real, inv_pows[j].imag
        xlo, xhi, ylo, yhi = box
        lo = min(al * xlo, al * xhi) - max(be * ylo, be * yhi)
        hi = max(al * xlo, al * xhi) - min(be * ylo, be * yhi)
        for r in range(math.ceil(lo - 0.5 - 1e-9), math.floor(hi + 0.5 + 1e-9) + 1):
            digits.append(r)
            for tight in (True, False):
                if not tight and tights + N - j - 1 < n_good:
                    continue
                half = rho if tight else 0.5
                con = (al, be, r - half - 1e-12, r + half + 1e-12)
                nb = _reference_propagate(cons + [con], box)
                if nb is not None:
                    rec(j + 1, cons + [con], nb, tights + (1 if tight else 0))
            digits.pop()

    rec(0, [], (-1.0, 1.0, -1.0, 1.0), 0)
    return len(found)


def clip_strip(poly, vs, lo, hi):
    """Vertices of a convex polygon where lo <= v <= hi, in boundary order.

    The scalar form of ``sparse._clip_strips``: ``poly`` lists the (x, y)
    vertices and ``vs`` the linear form v at each of them.  A vertex
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


def meets_disk(poly):
    """The scalar form of ``sparse._meets_disk`` for one polygon."""
    limit = 1.0 + 1e-12
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


def dfs_admissible(lam, et, N):
    """The recursive polygon search the batched frontier replaced.

    Same (r_j, good-required) branching, prune, strips and disk test, one
    node at a time with Python floats, so its set's size must equal
    ``sparse._admissible_count`` exactly.
    """
    rho = sparse.good_rho(abs(lam))
    n_good = sparse.good_index_requirement(et, N)
    inv_pows = [(1.0 / lam) ** j for j in range(N)]
    found = set()
    digits = []

    def rec(j, poly, tights):
        if j == N:
            if tights >= n_good:
                found.add(tuple(digits))
            return
        al, be = inv_pows[j].real, inv_pows[j].imag
        vs = [al * x - be * y for x, y in poly]
        vmin, vmax = min(vs), max(vs)
        rmin = math.ceil(vmin - 0.5 - sparse.FLOAT_SLACK)
        rmax = math.floor(vmax + 0.5 + sparse.FLOAT_SLACK)
        for r in range(rmin, rmax + 1):
            digits.append(r)
            for tight in (True, False):
                if not tight and tights + N - j - 1 < n_good:
                    continue
                half = rho if tight else 0.5
                lo, hi = r - half - 1e-12, r + half + 1e-12
                if lo <= vmin and vmax <= hi:
                    child = poly
                else:
                    child = clip_strip(poly, vs, lo, hi)
                    if not child or not meets_disk(child):
                        continue
                rec(j + 1, child, tights + (1 if tight else 0))
            digits.pop()

    rec(0, [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)], 0)
    return found


def padded(polys):
    """Polygons as the frontier holds them: zero-padded vertex columns."""
    n = np.array([len(p) for p in polys])
    x, y = np.zeros((2, n.max(), len(polys)))
    for k, poly in enumerate(polys):
        x[:len(poly), k], y[:len(poly), k] = np.array(poly).T
    return x, y, n


def sampled_admissible(lam, et, N, samples, seed):
    """Digit tuples of t drawn in the disk that have enough good indices."""
    r, eps = sparse._sampled_expansion(lam, samples, N, seed)
    good = np.sum(np.abs(eps) < sparse.good_rho(abs(lam)), axis=1)
    keep = r[good >= sparse.good_index_requirement(et, N)].astype(np.int64)
    return {tuple(row) for row in np.unique(keep, axis=0).tolist()}


def in_sparse_set(trace, epsilon_tilde):
    """t in S(N, et) by the covering audit's membership test, without slack."""
    return bool(sparse._sparse_membership(trace.eps, trace.rho, epsilon_tilde, 0.0))


class TestEKTrace:
    def test_zero_frequency(self):
        trace = ek_trace(LAM, 0.0, 6)
        assert np.all(trace.r == 0) and np.all(trace.eps == 0.0)
        assert trace.good_indices == frozenset(range(6))

    def test_identity_equality_and_hash(self):
        trace = ek_trace(LAM, 0.3 + 0.4j, 5)
        assert trace == trace and trace != ek_trace(LAM, 0.3 + 0.4j, 5)
        assert len({trace, trace}) == 1

    def test_known_sequence(self):
        # direct evaluation of Re(lam^-j t) for t = 0.3 + 0.4i
        trace = ek_trace(LAM, 0.3 + 0.4j, 5)
        assert trace.r.tolist() == [0, 1, 1, 0, -1]
        assert np.allclose(trace.eps, [0.3, -0.3, -0.2, 0.2, -0.2], atol=1e-12)

    def test_oracle_plain_loop(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            t = 0.9 * (rng.random() + 1j * rng.random() - 0.5 - 0.5j)
            n = 10
            trace = ek_trace(LAM, t, n)
            u = t
            for j in range(n):
                c = u.real
                r = math.floor(c + 0.5)
                assert trace.r[j] == r
                assert abs(trace.eps[j] - (c - r)) < 1e-9 * max(abs(u), 1.0)
                u /= LAM

    def test_eps_range(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            t = 0.999 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            trace = ek_trace(LAM, t, 12)
            assert np.all(trace.eps >= -0.5) and np.all(trace.eps < 0.5)

    def test_reconstruction_recurrence(self):
        # c_{j+1} = (a/|lam|^2)(r_j + eps_j) + (b/|lam|^2) d_j, c_j + i d_j = lam^{-j} t
        rng = np.random.default_rng(21)
        a, b = LAM.real, LAM.imag
        a2 = abs(LAM) ** 2
        for _ in range(20):
            t = 0.95 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            trace = ek_trace(LAM, t, 10)
            u = t * LAM ** -np.arange(10)
            for j in range(9):
                rebuilt = (a / a2) * (trace.r[j] + trace.eps[j]) + (b / a2) * u[j].imag
                scale = max(abs(LAM) ** (-(j + 1)), 1.0)
                assert abs(rebuilt - u[j + 1].real) < 1e-9 * scale

    def test_rho_value(self):
        assert ek_trace(LAM, 0.1, 4).rho == pytest.approx(1 / 14, abs=1e-15)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            ek_trace(LAM, 1.0, 5)
        with pytest.raises(RegimeError):
            ek_trace(0.5, 0.3, 5)
        with pytest.raises(DomainError):
            ek_trace(LAM, 0.3, 1)
        with pytest.raises(OverflowError):
            ek_trace(0.01 + 0.01j, 0.3, 40)

    def test_membership_counts_good_indices(self):
        trace = ek_trace(LAM, 0.0, 8)
        assert in_sparse_set(trace, 0.0)
        trace2 = ek_trace(LAM, 0.3 + 0.4j, 5)
        # eps = (.3, -.3, -.2, .2, -.2): no index is rho-good (rho = 1/14)
        assert not in_sparse_set(trace2, 0.5)
        assert in_sparse_set(trace2, 1.0)

    @pytest.mark.parametrize("et", [math.nan, math.inf, -math.inf])
    def test_membership_refuses_non_finite(self, et):
        # finite values are clamped to [0, 1]; non-finite ones are refused
        trace = ek_trace(0.5 + 0.5j, 0.1, 6)
        assert in_sparse_set(trace, 7.0) == in_sparse_set(trace, 1.0)
        with pytest.raises(DomainError):
            in_sparse_set(trace, et)


def continuation_failures(lam, r, eps):
    """(t, j) where three consecutive good indices fail to force the next digit.

    When j-1, j, j+1 are all good, the admissible interval around
    (2*a*r_j - r_{j-1})/|lam|^2 has radius rho*(1 + (1 + 2|a|)/|lam|^2)
    < 1/2, so it contains exactly one integer, and that integer must be
    the traced r_{j+1}.
    """
    a2 = abs(lam) ** 2
    rho = sparse.good_rho(abs(lam))
    radius = rho * (1.0 + (1.0 + 2.0 * abs(lam.real)) / a2)
    good = np.abs(eps) < rho
    runs = good[:, :-2] & good[:, 1:-1] & good[:, 2:]
    center = (2.0 * lam.real * r[:, 1:-1] - r[:, :-2]) / a2
    lo = np.ceil(center - radius - sparse.FLOAT_SLACK)
    hi = np.floor(center + radius + sparse.FLOAT_SLACK)
    forced = (lo == hi) & (lo == r[:, 2:])
    return int(np.sum(runs & ~forced))


class TestDigitTransition:
    def test_half_modulus(self):
        bound, branching = digit_transition_bound(LAM)
        assert bound == pytest.approx(3.5, abs=1e-15)
        assert branching == 4

    def test_limit_toward_one(self):
        mods = (0.8, 0.9, 0.99, 0.9999)
        bounds = [digit_transition_bound(m * 1j)[0] for m in mods]
        assert np.all(np.diff(bounds) < 0)  # decreasing in |lambda|
        assert bounds[-1] - 2.0 < 1e-3      # -> 2 as |lambda| -> 1

    def test_verify_clean(self):
        assert verify_digit_inequality(LAM, 2000, 12, seed=5) == 0

    def test_verify_other_lambdas(self):
        for lam in (0.3 + 0.6j, -0.5 + 0.25j, 0.1 + 0.85j):
            assert verify_digit_inequality(lam, 500, 10, seed=1) == 0

    @settings(max_examples=40, deadline=None)
    @given(
        modulus=st.floats(0.4, 0.95),
        angle=st.floats(0.1, math.pi - 0.1),
        N=st.integers(3, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_unique_continuation(self, modulus, angle, N, seed):
        lam = cmath.rect(modulus, angle)
        assert continuation_failures(lam, *sparse._sampled_expansion(lam, 200, N, seed)) == 0


class TestEnumeration:
    def test_single_level_at_most_three(self):
        count, bound = enumerate_digit_sequences(LAM, 0.05, 1)
        assert count <= 3
        assert count == 3  # r_0 in {-1, 0, 1} all realizable in the disk

    @pytest.mark.parametrize("et", [0.05, 0.1])
    @pytest.mark.parametrize("n", [6, 8])
    def test_count_below_bound(self, et, n):
        count, bound = enumerate_digit_sequences(LAM, et, n)
        assert 1 <= count <= bound

    def test_nondecreasing_in_epsilon_tilde(self):
        counts = [
            enumerate_digit_sequences(LAM, et, 6)[0]
            for et in (0.0, 0.1, 0.3, 0.6, 1.0)
        ]
        assert np.all(np.diff(counts) >= 0)

    def test_full_relaxation_upper_bounds(self):
        relaxed, _ = enumerate_digit_sequences(LAM, 1.0, 6)
        strict, _ = enumerate_digit_sequences(LAM, 0.05, 6)
        assert relaxed >= strict

    def test_budget_and_regime(self):
        with pytest.raises(BudgetError):
            enumerate_digit_sequences(LAM, 0.1, 15)
        with pytest.raises(RegimeError):
            enumerate_digit_sequences(0.5, 0.1, 5)

    def test_wide_pass_refused_before_its_children(self):
        # |1/lambda| ~ 7e4: the second pass would index 1.47e12 candidate
        # children, terabytes of arrays, before the node count sees them
        with pytest.raises(BudgetError, match=r"1\.47e\+12 children \(budget 10000000\)"):
            enumerate_digit_sequences(1e-5 + 1e-5j, 0.5, 3)

    def test_node_budget(self):
        # the N = 13 half search visits 7,709 frontier nodes, leaves included
        assert enumerate_digit_sequences(LAM, 0.3, 13, node_budget=7_709)[0] == 101
        with pytest.raises(BudgetError, match="budget 7708"):
            enumerate_digit_sequences(LAM, 0.3, 13, node_budget=7_708)


class TestEnumerationOracle:
    """The polygon search against the box search and against sampling."""

    @pytest.mark.parametrize("et", [0.05, 0.1])
    @pytest.mark.parametrize("n", [1, 6, 8, 10])
    def test_equal_on_criterion_grid(self, et, n):
        count, _ = enumerate_digit_sequences(LAM, et, n)
        assert count == reference_box_count(LAM, et, n)

    @pytest.mark.parametrize("n, want", [(8, 37), (13, 101)])
    def test_equal_on_benchmark_cases(self, n, want):
        count, _ = enumerate_digit_sequences(LAM, 0.3, n)
        assert count == reference_box_count(LAM, 0.3, n) == want

    @pytest.mark.parametrize("lam", (LAM, *OTHER_LAMS))
    @pytest.mark.parametrize(
        "et, n", [(0.0, 8), (0.3, 2), (0.3, 5), (0.3, 8), (0.6, 5), (0.6, 8),
                  (1.0, 2), (1.0, 5)],
    )
    def test_never_above_box(self, lam, et, n):
        count, _ = enumerate_digit_sequences(lam, et, n)
        assert 1 <= count <= reference_box_count(lam, et, n)

    def test_relaxed_counts_fall_below_box(self):
        # the box is an outer approximation; the polygon is exact
        for et, n, want, box in ((1.0, 6, 341, 351), (0.6, 8, 301, 305)):
            assert enumerate_digit_sequences(LAM, et, n)[0] == want
            assert reference_box_count(LAM, et, n) == box

    def test_strip_touching_an_edge_keeps_the_sliver(self):
        # lam = i/c with the level-1 strip of digit 2 ending exactly on the
        # square's top edge: the clip is the 2-vertex segment y = 1, which
        # meets the disk at t = i
        c = 2.0 - 0.5 - 1e-12
        lam = 1j / c
        assert (1.0 / lam) == -1j * c
        found = dfs_admissible(lam, 1.0, 2)
        assert {(0, 2), (0, -2)} <= found
        assert sparse._admissible_count(lam, 1.0, 2) == len(found)
        assert len(found) == reference_box_count(lam, 1.0, 2)
        x, y, n = padded([[(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]])
        v = c * y
        lo, hi = np.array([2.0 - 0.5 - 1e-12]), np.array([2.0 + 0.5 + 1e-12])
        cx, cy, cn = sparse._clip_strips(x, y, v, n, lo, hi)
        assert cn.tolist() == [2] and sorted(zip(cx[:, 0], cy[:, 0])) == [(-1.0, 1.0), (1.0, 1.0)]
        assert sparse._meets_disk(cx, cy, cn).tolist() == [True]

    DISK_CASES = [
        ([(-2.0, -2.0), (2.0, -2.0), (2.0, 2.0), (-2.0, 2.0)], True),  # holds the disk
        ([(1.1, -2.0), (2.0, -2.0), (2.0, 2.0), (1.1, 2.0)], False),
        ([(0.9, -1.0), (0.9, 1.0)], True),  # a segment through the disk
        ([(0.8, 0.8), (1.0, 1.0)], False),  # on a line through the origin
        ([(0.8, 0.8)], False),
        ([(0.6, 0.8)], True),  # on the circle
    ]

    @pytest.mark.parametrize("poly, meets", DISK_CASES)
    def test_disk_test(self, poly, meets):
        assert sparse._meets_disk(*padded([poly])).tolist() == [meets]
        assert meets_disk(poly) is meets

    def test_disk_test_on_one_padded_batch(self):
        # 1 to 4 vertices per column, so the padding is exercised
        polys = [poly for poly, _ in self.DISK_CASES]
        got = sparse._meets_disk(*padded(polys)).tolist()
        assert got == [meets for _, meets in self.DISK_CASES]

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 9), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.2, 3.0),
    )
    def test_clip_and_disk_match_the_scalar_forms(self, sizes, seed, scale):
        # convex polygons with vertices on circles about random centres,
        # clipped by strips of the form a*x - b*y that cut some of them
        rng = np.random.default_rng(seed)
        polys = []
        for m in sizes:
            theta = np.sort(rng.uniform(0.0, 2.0 * math.pi, m))
            centre = rng.uniform(-1.0, 1.0, 2)
            polys.append([(float(centre[0] + scale * math.cos(t)),
                           float(centre[1] + scale * math.sin(t))) for t in theta])
        a, b = rng.normal(size=2)
        mid = rng.uniform(-2.0, 2.0, len(polys))
        half = rng.uniform(0.0, 1.5, len(polys))
        x, y, n = padded(polys)
        cx, cy, cn = sparse._clip_strips(x, y, a * x - b * y, n, mid - half, mid + half)
        for k, poly in enumerate(polys):
            vs = [a * px - b * py for px, py in poly]
            want = clip_strip(poly, vs, mid[k] - half[k], mid[k] + half[k])
            assert list(zip(cx[:cn[k], k].tolist(), cy[:cn[k], k].tolist())) == want
            assert not cx[cn[k]:, k].any() and not cy[cn[k]:, k].any()
        assert sparse._meets_disk(x, y, n).tolist() == [meets_disk(p) for p in polys]

    @pytest.mark.parametrize(
        "lam, et, n",
        [(LAM, 0.6, 8), (OTHER_LAMS[0], 0.6, 8), (OTHER_LAMS[1], 1.0, 5),
         (OTHER_LAMS[2], 0.5, 9), (0.8j, 0.6, 10)],
    )
    def test_every_sampled_sequence_found(self, lam, et, n):
        found = dfs_admissible(complex(lam), et, n)
        sampled = sampled_admissible(complex(lam), et, n, 100_000, seed=17)
        assert len(sampled) >= 20
        assert sampled <= found
        assert sparse._admissible_count(complex(lam), et, n) == len(found)

    @settings(max_examples=25, deadline=None)
    @given(
        modulus=st.floats(0.3, 0.9),
        angle=st.floats(0.05, math.pi - 0.05),
        lower=st.booleans(),
        et=st.sampled_from([0.0, 0.1, 0.2, 0.3]),
        n=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_lambda(self, modulus, angle, lower, et, n, seed):
        lam = cmath.rect(modulus, -angle if lower else angle)
        found = dfs_admissible(lam, et, n)
        assert sampled_admissible(lam, et, n, 5_000, seed) <= found
        assert sparse._admissible_count(lam, et, n) == len(found)
        assert len(found) <= reference_box_count(lam, et, n)


class TestFrontier:
    """The batched frontier against the recursive search it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(
        modulus=st.floats(0.3, 0.95),
        angle=st.floats(0.05, math.pi - 0.05),
        lower=st.booleans(),
        et=st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]),
        n=st.integers(1, 9),
    )
    def test_equals_the_recursive_search(self, modulus, angle, lower, et, n):
        lam = cmath.rect(modulus, -angle if lower else angle)
        # keep the oracle's tree small: about |lam|^{-2(n-1)} cells survive
        n = min(n, 1 + int(math.log(400.0) / (-2.0 * math.log(modulus))))
        assert sparse._admissible_count(lam, et, n) == len(dfs_admissible(lam, et, n))

    @settings(max_examples=40, deadline=None)
    @given(
        modulus=st.floats(0.3, 0.95),
        angle=st.floats(0.05, math.pi - 0.05),
        lower=st.booleans(),
        et=st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]),
        n=st.integers(1, 9),
    )
    def test_admissible_set_is_closed_under_negation(self, modulus, angle, lower, et, n):
        # t -> -t maps every strip, clip and disk test onto the negated
        # digits bit for bit, which is what lets the search walk half the tree
        lam = cmath.rect(modulus, -angle if lower else angle)
        n = min(n, 1 + int(math.log(400.0) / (-2.0 * math.log(modulus))))
        found = dfs_admissible(lam, et, n)
        assert {tuple(-r for r in digits) for digits in found} == found

    def test_benchmark_case_walks_half_the_tree(self, monkeypatch):
        # the full tree clips 14,227 candidate children into 13,949 nodes
        clipped = []
        clip = sparse._clip_strips

        def counted(x, *rest):
            clipped.append(x.shape[1])
            return clip(x, *rest)

        monkeypatch.setattr(sparse, "_clip_strips", counted)
        assert sparse._admissible_count(LAM, 0.3, 13, node_budget=7_709) == 101
        assert sum(clipped) <= 7_848

    @pytest.mark.parametrize("lam, et, n, want", [
        (LAM, 0.3, 13, 101), (LAM, 1.0, 6, 341), (LAM, 0.6, 8, 301),
        # a pass where every child lies whole in its strip
        (-0.48063539316653736 - 0.5433077874891128j, 0.6, 13, 1203),
        (0.7629538037833957 + 0.49594059030094007j, 1.0, 14, 801),
    ])
    def test_equals_the_recursive_search_on_the_pinned_cases(self, lam, et, n, want):
        count = sparse._admissible_count(lam, et, n)
        assert type(count) is int
        assert count == len(dfs_admissible(lam, et, n)) == want

    def test_many_chunks_in_flight(self, monkeypatch):
        # chunks are cut at group starts, so a group never spans two of them
        for chunk in (1, 8):
            monkeypatch.setattr(sparse, "_FRONTIER_CHUNK", chunk)
            assert sparse._admissible_count(LAM, 0.3, 13) == 101, chunk

    @staticmethod
    def peak_bytes(lam, et, n):
        tracemalloc.start()
        try:
            count = sparse._admissible_count(lam, et, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return count, peak

    def test_peak_memory(self):
        # the chunked frontier keeps the N = 13 search within a few MiB
        assert self.peak_bytes(LAM, 0.3, 13)[1] <= 4 * 2**20

    def test_peak_memory_is_bounded_by_chunks_not_by_the_count(self):
        # 105,477 sequences, counted without holding them
        count, peak = self.peak_bytes(cmath.rect(0.4, 2.5), 1.0, 7)
        assert count == 105_477
        assert peak <= 20 * 2**20

    def test_clip_of_no_polygons(self):
        x, y = np.zeros((2, 4, 0))
        cx, cy, cn = sparse._clip_strips(x, y, x, np.zeros(0, int), np.zeros(0), np.zeros(0))
        assert cx.shape[1] == cy.shape[1] == cn.size == 0


def full_scan_report(ifs, epsilon, N, subgrid_k=DEFAULT_SUBGRID_K, tol=DEFAULT_TOL,
                     workers=1, cell_budget=None):
    """``covering_report`` as it was when it counted and audited every cell
    of ``scan_blocks``: its body, kept as the oracle of the quadtree."""
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
            _, eps = sparse._digit_expansion(lam, ts[certain], N)
            member = sparse._sparse_membership(eps, good_rho(abs(lam)), et, sparse.FLOAT_SLACK)
            violations += int(np.sum(~member))
            checked += member.size
    return sparse.CoveringReport(
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


@st.composite
def cover_cases(draw):
    """A complex-regime system of 2-3 weighted complex digits (their mean
    is almost never 0) at N <= 9 with |lambda|^-N <= 40, and the cover's
    other arguments."""
    N = draw(st.integers(2, 9))
    modulus = draw(st.floats(max(0.5, 40.0 ** (-1.0 / N)), 0.95))
    angle = draw(st.floats(0.1, math.pi - 0.1)) * draw(st.sampled_from([1, -1]))
    digits = draw(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(0.1, 1)),
                           min_size=2, max_size=3))
    assume(len({(a, b) for a, b, _ in digits}) > 1)  # not atomic
    total = sum(w for _, _, w in digits)
    ifs = IFSDescriptor(cmath.rect(modulus, angle), tuple(complex(a, b) for a, b, _ in digits),
                        tuple(w / total for _, _, w in digits))
    return (ifs, draw(st.floats(0.01, 4.0)), N, draw(st.integers(1, 4)),
            draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3])))


class TestCoveringReport:
    @settings(max_examples=50, deadline=None)
    @given(case=cover_cases())
    def test_equals_the_full_scan(self, case):
        # every field, and every refusal, as when each disk cell was sampled
        ifs, epsilon, N, k, tol = case
        assert (outcome(lambda: covering_report(ifs, epsilon, N, k, tol))
                == outcome(lambda: full_scan_report(ifs, epsilon, N, k, tol)))

    @pytest.mark.parametrize("N", [12, 14, 16])
    def test_criterion_5_equals_the_full_scan(self, complex_bernoulli, N):
        args = (complex_bernoulli, 0.05, N, 4, 1e-9, 2)
        assert covering_report(*args) == full_scan_report(*args)

    @pytest.mark.parametrize("ifs, epsilon, N, k", [
        # T = 275.6: the cells kept near the origin and near |xi| ~ 200 lie
        # more than a block of rows apart at the finer levels
        (IFSDescriptor(-0.29 + 0.45j, (0.58 + 0.6j, -0.36 + 0.59j), (0.42, 0.58)), 0.12, 9, 2),
        # T = 64.5 and threshold 1e-8: most squares are kept, and at side 2
        # their rows 0..64 end on a block boundary
        (IFSDescriptor(cmath.rect(64.5 ** (-1 / 12), 1.0), (-1.0, 1.0), (0.5, 0.5)), 4.42, 12, 1),
    ], ids=["rows-apart", "rows-to-a-boundary"])
    def test_row_blocks_of_a_level_equal_the_full_scan(self, ifs, epsilon, N, k):
        args = (ifs, epsilon, N, k, 1e-9, 1)
        assert covering_report(*args) == full_scan_report(*args)

    def test_cover_above_tol_never_lists_the_disk(self, complex_bernoulli, monkeypatch):
        # threshold 256^-0.05 = 0.758 is above tol: the cells are the
        # quadtree's, and the budget is checked on a count, not a listing
        def refuse(T):
            raise AssertionError("disk cells listed")

        args = (complex_bernoulli, 0.05, 16, 4, 1e-9, 2)
        monkeypatch.setattr(fourier, "_scan_cells", refuse)
        got = covering_report(*args)
        monkeypatch.undo()
        assert got == full_scan_report(*args)

    def test_cover_at_or_below_tol_bounds_nothing(self, complex_bernoulli, monkeypatch):
        # threshold 64^-4 = 6e-8 is below tol 1e-6: every disc bound reaches
        # it, so the whole disk is sampled and no bound is evaluated
        def refuse(*args):
            raise AssertionError("disc bound evaluated")

        monkeypatch.setattr(fourier, "_disc_bound", refuse)
        args = (complex_bernoulli, 4.0, 12, 4, 1e-6)
        assert covering_report(*args) == full_scan_report(*args)

    def test_criterion_5_reads_few_points(self, complex_bernoulli, monkeypatch):
        # at N = 16 the full scan read pi (256 * 4)^2 ~ 3.3e6 points; the
        # quadtree's bounds and samples together read, and evaluate on
        # their grids, under 10,000
        kernel = fourier._product
        points = []

        def counting(ifs, tol, x, y, at, radius=None):
            points.append(max(np.size(at), np.broadcast(x, y).size))
            return kernel(ifs, tol, x, y, at, radius)

        monkeypatch.setattr(fourier, "_product", counting)
        report = covering_report(complex_bernoulli, 0.05, 16, subgrid_k=4, tol=1e-9, workers=2)
        assert report.empirical_count == 1
        assert 0 < sum(points) < 10_000

    def test_small_scan_inclusion_clean(self, complex_bernoulli):
        report = covering_report(complex_bernoulli, 0.05, 8, subgrid_k=3)
        assert report.inclusion_violations == 0
        assert report.empirical_count >= 1
        assert report.empirical_count <= report.bound_count
        assert report.T == pytest.approx(16.0, rel=1e-12)

    def test_threshold_below_floor_flags_everything(self, complex_bernoulli):
        # enormous epsilon: the threshold sinks below the sampled floor and
        # essentially every cell qualifies; no finite bound applies there
        report = covering_report(complex_bernoulli, 4.0, 6, subgrid_k=2)
        assert math.isinf(report.bound_count)
        assert report.empirical_count >= 1
        field_cells = report.checked_points  # informational only
        assert field_cells >= 0

    def test_determinism_across_workers(self, complex_bernoulli):
        a = covering_report(complex_bernoulli, 0.05, 7, subgrid_k=2, workers=1)
        b = covering_report(complex_bernoulli, 0.05, 7, subgrid_k=2, workers=4)
        assert a == b

    def test_determinism_across_workers_many_blocks(self, complex_bernoulli):
        # N = 12 scans the T = 64 disk: 128 cell rows, several row blocks
        a = covering_report(complex_bernoulli, 0.05, 12, tol=1e-9, workers=1)
        b = covering_report(complex_bernoulli, 0.05, 12, tol=1e-9, workers=2)
        assert a == b

    @pytest.mark.parametrize("N", [1100, 3000])
    def test_overflowing_disk_is_over_budget(self, complex_bernoulli, N):
        # T = |lam|^-N is 2^550 at N = 1100, where pi (T k)^2 overflows, and
        # overflows itself at N = 3000: both are over any budget
        with pytest.raises(BudgetError):
            covering_report(complex_bernoulli, 0.05, N)

    def test_regime_refusals(self, bernoulli_half, sierpinski):
        with pytest.raises(RegimeError):
            covering_report(bernoulli_half, 0.05, 8)
        with pytest.raises(RegimeError):
            covering_report(sierpinski, 0.05, 8)  # real noncollinear, not complex
        atomic = IFSDescriptor((1 + 1j) / 2, (1.0, 1.0), (0.5, 0.5))
        with pytest.raises(RegimeError):
            covering_report(atomic, 0.05, 8)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: ek_trace(1.2 + 0.5j, 0.3, 6), "lambda", id="trace-modulus"),
    pytest.param(lambda: digit_transition_bound(1.2 + 0.5j), "lambda", id="transition-modulus"),
    pytest.param(lambda: verify_digit_inequality(LAM, 10, 2, 0), "N >= 3", id="verify-N"),
    pytest.param(lambda: enumerate_digit_sequences(LAM, 0.3, 0), "N >= 1", id="enumerate-N"),
    pytest.param(lambda: covering_report(IFSDescriptor(LAM, (-1.0, 1.0), (0.5, 0.5)), 0.05, 1),
                 "N >= 2", id="cover-N"),
])
def test_refused(call, match):
    with pytest.raises(DomainError, match=match):
        call()


@pytest.mark.parametrize("lam, error", [
    pytest.param(0.5, RegimeError, id="real"),
    pytest.param(1.3j, DomainError, id="modulus-1.3"),
])
@pytest.mark.parametrize("call", [
    pytest.param(lambda lam: delta_complex(lam, (0.5, 0.5), 0.05), id="delta_complex"),
    pytest.param(digit_transition_bound, id="digit_transition_bound"),
    pytest.param(lambda lam: covering_bound(lam, (0.5, 0.5), 0.05, 8), id="covering_bound"),
    pytest.param(lambda lam: ek_trace(lam, 0.3, 6), id="ek_trace"),
    pytest.param(lambda lam: verify_digit_inequality(lam, 10, 6, 0), id="verify"),
    pytest.param(lambda lam: enumerate_digit_sequences(lam, 0.1, 5), id="enumerate"),
    # the constructor refuses |lambda| >= 1, bound_regime a real lambda
    pytest.param(lambda lam: covering_report(IFSDescriptor(lam, (-1.0, 1.0), (0.5, 0.5)),
                                             0.05, 8), id="covering_report"),
])
def test_complex_regime_refused(call, lam, error):
    """Each complex-regime entry refuses a real lambda and |lambda| >= 1."""
    with pytest.raises(DomainError) as info:
        call(lam)
    assert type(info.value) is error
