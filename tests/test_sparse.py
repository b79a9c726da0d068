import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssfourier import sparse
from ssfourier import (
    BudgetError,
    DomainError,
    IFSDescriptor,
    RegimeError,
    covering_report,
    digit_transition_bound,
    ek_trace,
    enumerate_digit_sequences,
    verify_digit_inequality,
)

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
        found = sparse._admissible_sequences(lam, 1.0, 2)
        assert {(0, 2), (0, -2)} <= found
        assert len(found) == reference_box_count(lam, 1.0, 2)

    @pytest.mark.parametrize(
        "poly, meets",
        [
            ([(-2.0, -2.0), (2.0, -2.0), (2.0, 2.0), (-2.0, 2.0)], True),  # holds the disk
            ([(1.1, -2.0), (2.0, -2.0), (2.0, 2.0), (1.1, 2.0)], False),
            ([(0.9, -1.0), (0.9, 1.0)], True),  # a segment through the disk
            ([(0.8, 0.8), (1.0, 1.0)], False),  # on a line through the origin
            ([(0.8, 0.8)], False),
            ([(0.6, 0.8)], True),  # on the circle
        ],
    )
    def test_disk_test(self, poly, meets):
        assert sparse._meets_disk(poly) is meets

    @pytest.mark.parametrize(
        "lam, et, n",
        [(LAM, 0.6, 8), (OTHER_LAMS[0], 0.6, 8), (OTHER_LAMS[1], 1.0, 5),
         (OTHER_LAMS[2], 0.5, 9), (0.8j, 0.6, 10)],
    )
    def test_every_sampled_sequence_found(self, lam, et, n):
        found = sparse._admissible_sequences(complex(lam), et, n)
        sampled = sampled_admissible(complex(lam), et, n, 100_000, seed=17)
        assert len(sampled) >= 20
        assert sampled <= found

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
        found = sparse._admissible_sequences(lam, et, n)
        assert sampled_admissible(lam, et, n, 5_000, seed) <= found
        assert len(found) <= reference_box_count(lam, et, n)


class TestCoveringReport:
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
