import cmath
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ssfourier import (
    DiscreteMeasure,
    DomainError,
    IFSDescriptor,
    energy_integral,
    finite_approximation,
    fourier_sum,
    grid_scan,
    mu_hat,
    scale_rotate,
    scanfield_from_binary,
    scanfield_to_binary,
    scanfield_to_csv,
    truncation_index,
)
import ssfourier
import ssfourier.fourier
from ssfourier.errors import BudgetError
from ssfourier.fourier import (
    _ENERGY_BLOCK,
    _ROW_BLOCK,
    _disc_bound,
    _disk_count,
    _scan_cells,
    scan_blocks,
)

from conftest import outcome, random_two_digit_ifs


def phi(ifs, u):
    """Digit character Phi(u) = sum_j p_j exp(2*pi*i*Re(w_j*u)), elementwise.

    The plain sum over the digits, an oracle independent of the product
    kernel; |Phi| <= 1 always, with equality at u = 0.
    """
    u = np.asarray(u, dtype=np.complex128)
    out = sum(p * np.exp(2j * np.pi * (w * u).real) for w, p in zip(ifs.digits, ifs.probs))
    return complex(out) if u.ndim == 0 else out


def head_product(ifs, xi, k):
    """prod_{n<k} Phi(lam^n conj xi), built factor by factor from ``phi``.

    Independent of the library's product kernel; ``k`` is one factor
    count per frequency.
    """
    xi = np.asarray(xi, dtype=np.complex128)
    out = np.ones(xi.shape, dtype=np.complex128)
    u = np.conj(xi)
    for n in range(int(np.max(k, initial=0))):
        out = np.where(k > n, out * phi(ifs, u), out)
        u = u * ifs.lam
    return out


def product_oracle(ifs, xi, tol):
    """The first ``truncation_index`` factors at each frequency, as ``mu_hat``
    keeps them, without the mean phase: its modulus is ``mu_hat``'s."""
    return head_product(ifs, xi, truncation_index(ifs, np.abs(np.asarray(xi)), tol))


def digit_moments(ifs):
    """The digits' mean m and variance sum_j p_j |w_j - m|^2."""
    m = sum(p * w for w, p in zip(ifs.digits, ifs.probs))
    return m, sum(p * abs(w - m) ** 2 for w, p in zip(ifs.digits, ifs.probs))


def second_order_tail(ifs, abs_xi, n):
    """2 pi^2 |xi|^2 |lam|^(2n) Var d / (1 - |lam|^2), squared last so that
    |xi|^2 cannot overflow."""
    alam = abs(ifs.lam)
    return (math.pi * abs_xi * alam**n * math.sqrt(2 * digit_moments(ifs)[1] / (1 - alam**2))) ** 2


def first_order_tail(ifs, abs_xi, n):
    """2 pi max|w| |xi| |lam|^n / (1 - |lam|): the geometric sum of the
    per-factor bounds |Phi(u) - 1| <= 2 pi max|w| |u| from n on."""
    alam = abs(ifs.lam)
    return 2 * math.pi * max(abs(w) for w in ifs.digits) * abs_xi * alam**n / (1 - alam)


def first_order_index(ifs, abs_xi, tol):
    """Smallest K with first_order_tail(K) < tol, by counting."""
    k = 0
    while first_order_tail(ifs, abs_xi, k) >= tol:
        k += 1
    return k


def sinc_ft(xi: float) -> float:
    """Closed-form transform of the uniform law on [-2, 2]."""
    if xi == 0.0:
        return 1.0
    return math.sin(4 * math.pi * xi) / (4 * math.pi * xi)


class TestPhi:
    def test_at_zero(self, complex_bernoulli):
        assert phi(complex_bernoulli, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_cosine_identity(self, bernoulli_half):
        # digits {-1, 1} with fair weights: Phi(u) = cos(2 pi Re u)
        rng = np.random.default_rng(4)
        u = rng.normal(size=50) + 1j * rng.normal(size=50)
        got = phi(bernoulli_half, u)
        assert np.allclose(got, np.cos(2 * np.pi * u.real), atol=1e-12)

    def test_integer_lattice(self, sierpinski):
        # digits {0, 1, i}: integral phases at Gaussian-integer arguments
        for u in (1.0, 2.0 + 3j, -5j):
            assert phi(sierpinski, u) == pytest.approx(1.0, abs=1e-12)

    def test_modulus_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            ifs = random_two_digit_ifs(rng)
            u = rng.normal(size=100) + 1j * rng.normal(size=100)
            assert np.all(np.abs(phi(ifs, u)) <= 1.0 + 1e-12)


class TestMuHat:
    def test_at_zero_exact(self, complex_bernoulli):
        assert mu_hat(complex_bernoulli, 0.0) == 1.0 + 0.0j

    @pytest.mark.parametrize("xi", [0.1, 0.5, 1.3, 7.25, 50.0])
    def test_sinc_identity(self, bernoulli_half, xi):
        assert abs(mu_hat(bernoulli_half, xi, 1e-12) - sinc_ft(xi)) < 1e-9

    def test_product_vs_atom_sum(self):
        # independent oracle: plain exponential sums over a two-tower
        # factorization of the depth-25 approximation
        rng = np.random.default_rng(123)
        for _ in range(5):
            ifs = random_two_digit_ifs(rng)
            front = finite_approximation(ifs, 13)
            back = scale_rotate(finite_approximation(ifs, 12), ifs.lam**13)
            xi = 20 * (rng.random(20) + 1j * rng.random(20) - 0.5 - 0.5j)
            oracle = (fourier_sum(front.positions, front.weights, xi)
                      * fourier_sum(back.positions, back.weights, xi))
            got = mu_hat(ifs, xi, tol=1e-9)
            w_max = max(abs(w) for w in ifs.digits)
            tail = (
                2 * np.pi * w_max * np.abs(xi) * abs(ifs.lam) ** 25
                / (1 - abs(ifs.lam))
            )
            budget = 2e-9 + 2 * tail + 1e-12
            assert np.all(np.abs(got - oracle) <= budget)

    @settings(max_examples=40, deadline=None)
    @given(
        r=st.floats(0.1, 0.3),
        theta=st.floats(0.1, math.pi - 0.1),
        digits=st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(0.1, 1)),
                        min_size=2, max_size=4),
        tol=st.sampled_from([1e-9, 1e-6, 1e-3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_product_vs_tower_sums_with_nonzero_mean(self, r, theta, digits, tol, seed):
        # independent oracle where the mean phase is not 1: plain
        # exponential sums over the front and back towers of mu_D, each
        # every digit sequence of its levels, with no merging; mu_D is
        # within the first-order tail at D of mu_hat
        ifs = _random_scan_system(r, theta, False, digits)
        assume(abs(digit_moments(ifs)[0]) >= 0.1)
        half = {2: 14, 3: 9, 4: 7}[ifs.m]  # at most 19,683 atoms a tower
        rng = np.random.default_rng(seed)
        xi = 14 * (rng.random(20) + 1j * rng.random(20) - 0.5 - 0.5j)
        oracle = np.ones(xi.shape, dtype=np.complex128)
        for start in (0, half):
            pos, wts = np.zeros(1, dtype=np.complex128), np.ones(1)
            for n in range(start, start + half):
                pos = (pos[:, None] + ifs.lam**n * np.array(ifs.digits)[None, :]).ravel()
                wts = (wts[:, None] * np.array(ifs.probs)[None, :]).ravel()
            oracle *= fourier_sum(pos, wts, xi)
        tail = np.expm1([first_order_tail(ifs, a, 2 * half) for a in np.abs(xi)])
        assert np.all(np.abs(mu_hat(ifs, xi, tol) - oracle) <= tol + tail + 1e-12)

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            ifs = random_two_digit_ifs(rng)
            xi = 5 * (rng.random(40) + 1j * rng.random(40) - 0.5 - 0.5j)
            a = mu_hat(ifs, xi, 1e-10)
            b = mu_hat(ifs, -xi, 1e-10)
            assert np.max(np.abs(b - np.conj(a))) < 1e-12

    def test_modulus_in_unit_interval(self):
        rng = np.random.default_rng(77)
        ifs = random_two_digit_ifs(rng)
        xi = 30 * (rng.random(100) - 0.5) + 30j * (rng.random(100) - 0.5)
        vals = np.abs(mu_hat(ifs, xi, 1e-10))
        assert np.all(vals <= 1.0 + 1e-9) and np.all(vals >= 0.0)

    def test_partial_products_monotone(self, complex_bernoulli):
        # adding factors can only shrink the truncated modulus
        xi = 3.7 - 1.2j
        u = np.conj(xi)
        prod = 1.0 + 0j
        mods = []
        for _ in range(40):
            prod *= phi(complex_bernoulli, u)
            mods.append(abs(prod))
            u *= complex_bernoulli.lam
        assert np.all(np.diff(mods) <= 1e-15)

    def test_truncation_index_zero_at_origin(self, complex_bernoulli):
        assert truncation_index(complex_bernoulli, 0.0, 1e-12) == 0

    def test_atomic_transform_is_one(self):
        ifs = IFSDescriptor(0.5, (0.0, 0.0), (0.5, 0.5))
        xi = np.array([0.0, 1.5 + 2j, -7j])
        assert np.all(mu_hat(ifs, xi, 1e-12) == 1.0)



class TestFourierSum:
    @pytest.mark.parametrize("n_atoms", [27, 1000, 70000])
    def test_lane_bits_independent_of_batch(self, n_atoms):
        # frequencies go through in blocks of 256, so lane 256 of a
        # 257-frequency call is a block of its own
        rng = np.random.default_rng(n_atoms)
        pos = rng.normal(size=n_atoms) + 1j * rng.normal(size=n_atoms)
        wts = rng.uniform(0.5, 1.0, n_atoms)
        xi = 8.0 * (rng.normal(size=300) + 1j * rng.normal(size=300))
        batch = fourier_sum(pos, wts, xi)
        tail = fourier_sum(pos, wts, xi[:257])
        assert np.array_equal(tail, batch[:257])
        for lane in (0, 5, 255, 256, 299):
            alone = fourier_sum(pos, wts, xi[lane])
            assert alone.shape == (1,) and alone[0] == batch[lane]


SCAN_SYSTEMS = {
    "three_digit": IFSDescriptor(
        0.45 + 0.55j, (0.0, 1.0 - 0.5j, -0.3 + 0.8j), (0.2, 0.5, 0.3)
    ),
    "atomic": IFSDescriptor(0.5, (0.0, 0.0), (0.5, 0.5)),
}


def _random_scan_system(r, theta, flip, digits):
    """Non-real lambda of modulus r and 2-4 weighted complex digits."""
    total = sum(w for _, _, w in digits)
    return IFSDescriptor(
        cmath.rect(r, -theta if flip else theta),
        tuple(complex(a, b) for a, b, _ in digits),
        tuple(w / total for _, _, w in digits),
    )


RANDOM_SYSTEMS = st.builds(
    _random_scan_system,
    st.floats(0.05, 0.95),
    st.floats(0.1, math.pi - 0.1),
    st.booleans(),
    st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(0.1, 1)),
             min_size=2, max_size=4),
)


class TestTruncationIndex:
    @settings(max_examples=200, deadline=None)
    # Var d = 5.4e-321: the placed |xi| overflowed to inf, which
    # truncation_index rightly refuses
    @example(ifs=IFSDescriptor(0.5 + 0.5j, (0.0, 1.476e-160j), (0.5, 0.5)),
             tol=0.0625, abs_xi=0.0, boundary=0)
    @given(
        ifs=RANDOM_SYSTEMS,
        tol=st.floats(1e-14, 0.1),
        abs_xi=st.floats(0.0, 1e5),
        boundary=st.none() | st.integers(0, 40),
    )
    def test_smallest_index_with_tail_below_tol(self, ifs, tol, abs_xi, boundary):
        # second_order_tail(K) bounds head_K times the mean phase against
        # mu_hat; ``boundary`` places |xi| where tail(boundary) = tol,
        # unless a subnormal Var d makes that |xi| overflow
        alam, var = abs(ifs.lam), digit_moments(ifs)[1]
        if boundary is not None and var > 0:
            placed = math.sqrt(tol * (1 - alam**2) / (2 * var)) / (math.pi * alam**boundary)
            if math.isfinite(placed):
                abs_xi = placed
        k = int(truncation_index(ifs, abs_xi, tol))

        def tail(n):
            return second_order_tail(ifs, abs_xi, n)

        assert tail(k) <= tol * (1 + 1e-12)
        assert k == 0 or tail(k - 1) >= tol * (1 - 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        ifs=RANDOM_SYSTEMS,
        tol=st.floats(1e-14, 10.0),
        abs_xi=st.floats(0.0, 1e5),
        boundary=st.none() | st.integers(0, 40),
    )
    def test_never_above_the_first_order_index(self, ifs, tol, abs_xi, boundary):
        # Var d <= max|w|^2 puts the second-order tail below the square of
        # the first-order one; past tol = 2 no factor is needed at all.
        # ``boundary`` places |xi| where the first-order tail is tol,
        # unless a subnormal max|w| makes tol / tail overflow
        unit = first_order_tail(ifs, 1.0, boundary or 0)
        if boundary is not None and unit > 0 and math.isfinite(tol / unit):
            abs_xi = tol / unit
        k = int(truncation_index(ifs, abs_xi, tol))
        assert k <= first_order_index(ifs, abs_xi, tol)
        assert tol <= 2.0 or k == 0

    @settings(max_examples=60, deadline=None)
    @given(
        ifs=RANDOM_SYSTEMS,
        tol=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 0.1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_value_within_tol_of_mu_hat(self, ifs, tol, seed):
        # the reference keeps the factors of the first-order index at
        # 1e-18, within 2e-18 of mu_hat and with no phase; 5e-14 allows for
        # the rounding of up to a thousand factors (at tol 1e-15 the
        # rounding alone reaches 1e-14)
        rng = np.random.default_rng(seed)
        xi = 60 * (rng.random(50) + 1j * rng.random(50) - 0.5 - 0.5j)
        k = np.array([first_order_index(ifs, a, 1e-18) for a in np.abs(xi)])
        want = head_product(ifs, xi, k)
        assert np.max(np.abs(mu_hat(ifs, xi, tol) - want)) <= tol + 5e-14

    @pytest.mark.parametrize("c", [1.0, -0.3 + 2j, 1e-3j])
    def test_atomic_system_is_the_dirac_transform(self, c):
        # digits (c, c): the law is the Dirac mass at the fixed point
        # c / (1 - lam), and no factor is kept, only the mean phase
        lam = 0.6 - 0.5j
        ifs = IFSDescriptor(lam, (c, c), (0.5, 0.5))
        xi = np.array([0.0, 1.5 + 2j, -7j, 40.25 - 13j])
        assert np.all(truncation_index(ifs, np.abs(xi), 1e-12) == 0)
        want = [cmath.exp(2j * math.pi * (c / (1 - lam) * x.conjugate()).real) for x in xi]
        assert np.max(np.abs(mu_hat(ifs, xi, 1e-12) - want)) <= 1e-12


def assert_scan_matches_oracle(ifs, T, k, tol):
    """Every streamed scan value is the phi-built product's modulus at its xi."""
    origin = []
    for _, _, xi, values in scan_blocks(ifs, T, k, tol):
        want = np.abs(product_oracle(ifs, xi, tol))
        assert np.max(np.abs(values - want)) <= 1e-13
        origin.extend(values[xi == 0])
    assert origin == [1.0]


class TestTolFloor:
    """A tol below 1e-12, which floating-point rounding alone can exceed,
    is refused by the product kernel; the index formula still takes it."""

    @pytest.mark.parametrize("tol", [9.99e-13, 1e-13, 1e-300])
    def test_below_the_floor_refused(self, complex_bernoulli, tol):
        for call in (
            lambda: mu_hat(complex_bernoulli, 3.0 + 1j, tol),
            lambda: mu_hat(complex_bernoulli, np.array([0.5, 7j]), tol),
            lambda: grid_scan(complex_bernoulli, 4.0, tol=tol),
        ):
            with pytest.raises(DomainError, match="rounding floor 1e-12"):
                call()

    def test_floor_accepted(self, complex_bernoulli):
        xi = np.array([0.0, 3.0 + 1j, -20.5 + 7j])
        values = mu_hat(complex_bernoulli, xi, 1e-12)
        assert values[0] == 1.0
        assert np.max(np.abs(values - mu_hat(complex_bernoulli, xi, 1e-9))) <= 1.1e-9
        for _, _, x, v in scan_blocks(complex_bernoulli, 3.0, 2, 1e-12):
            assert np.array_equal(v, np.abs(mu_hat(complex_bernoulli, x, 1e-12)))

    def test_index_formula_takes_any_positive_tol(self, complex_bernoulli):
        k = [int(truncation_index(complex_bernoulli, 10.0, t)) for t in (1e-12, 1e-14)]
        assert 0 < k[0] <= k[1]


class TestGridScan:
    def test_origin_cell(self, complex_bernoulli):
        field = grid_scan(complex_bernoulli, 1.0, subgrid_k=3, tol=1e-9)
        assert field.cells[(0, 0)] >= 1.0 - 2e-9

    def test_atomic_all_ones(self):
        ifs = IFSDescriptor(0.5, (0.0, 0.0), (0.5, 0.5))
        field = grid_scan(ifs, 3.0, subgrid_k=2)
        assert all(v == 1.0 for v in field.cells.values())

    def test_imaginary_axis_flat_for_real_system(self, bernoulli_half):
        # real digits and contraction: mu_hat depends on Re(xi) only, so
        # cells bordering the imaginary axis sample the value 1 at Re = 0
        field = grid_scan(bernoulli_half, 4.0, subgrid_k=4, tol=1e-9)
        for j in range(-4, 4):
            assert field.cells[(0, j)] >= 1.0 - 2e-9

    def test_values_in_unit_interval(self, complex_bernoulli):
        field = grid_scan(complex_bernoulli, 5.0, subgrid_k=2)
        vals = np.array(list(field.cells.values()))
        assert np.all(vals <= 1.0 + 1e-9) and np.all(vals >= 0.0)

    def test_worker_determinism(self, complex_bernoulli):
        a = grid_scan(complex_bernoulli, 6.0, subgrid_k=3, workers=1)
        b = grid_scan(complex_bernoulli, 6.0, subgrid_k=3, workers=4)
        assert a.cells == b.cells

    def test_worker_determinism_across_chunks(self, complex_bernoulli, monkeypatch):
        # T = 72 samples 264,384 points in more block pairs than workers,
        # so the pool spreads them over both processes
        blocks = []
        kernel = ssfourier.fourier._product
        monkeypatch.setattr(
            ssfourier.fourier, "_product", lambda *args: blocks.append(1) or kernel(*args)
        )
        a = grid_scan(complex_bernoulli, 72.0, workers=1)
        monkeypatch.undo()
        assert len(blocks) > 2
        b = grid_scan(complex_bernoulli, 72.0, workers=2)
        assert a.cells == b.cells

    @pytest.mark.parametrize("tol", [1e-9, 1e-4])
    @pytest.mark.parametrize(
        "system, T, k",
        [
            ("complex_bernoulli", 12.0, 3),
            ("three_digit", 9.5, 4),
            ("bernoulli_half", 8.0, 4),
            ("atomic", 5.0, 2),
        ],
    )
    def test_matches_per_point_oracle(self, request, system, T, k, tol):
        ifs = SCAN_SYSTEMS.get(system) or request.getfixturevalue(system)
        assert_scan_matches_oracle(ifs, T, k, tol)

    @settings(max_examples=40, deadline=None)
    @given(
        ifs=st.builds(
            _random_scan_system,
            st.floats(0.31, 0.89),
            st.floats(0.1, math.pi - 0.1),
            st.booleans(),
            st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(0.1, 1)),
                     min_size=2, max_size=4),
        ),
        T=st.floats(1.0, 8.0),
        k=st.integers(1, 3),
        tol=st.sampled_from([1e-9, 1e-4]),
    )
    def test_random_systems_match_per_point_oracle(self, ifs, T, k, tol):
        assert_scan_matches_oracle(ifs, T, k, tol)

    def test_blocks_stream_cells_in_order(self, complex_bernoulli):
        # T = 40, k = 4: pairs of blocks of 8 cell rows, the mirror [-i1, -i0)
        # then [i0, i1), each a run of disk cells in sorted order, k * k
        # points each, cell-major; together every disk cell exactly once
        k = 4
        parts = list(scan_blocks(complex_bernoulli, 40.0, k, 1e-9))
        rows = [(-8, 0), (0, 8), (-16, -8), (8, 16), (-24, -16), (16, 24),
                (-32, -24), (24, 32), (-40, -32), (32, 40)]
        assert len(parts) == len(rows)
        ci, cj = _scan_cells(40.0)
        for (lo, hi), (bi, bj, xi, values) in zip(rows, parts):
            run = (ci >= lo) & (ci < hi)
            assert np.array_equal(bi, ci[run]) and np.array_equal(bj, cj[run])
            assert xi.shape == values.shape == (bi.size * k * k,)
            assert np.array_equal(np.floor(xi.real).reshape(-1, k * k)[:, 0], bi)
            assert np.array_equal(np.floor(xi.imag).reshape(-1, k * k)[:, 0], bj)
        seen = np.concatenate([(p[0] + 40) * 80 + p[1] + 40 for p in parts])
        assert np.array_equal(np.sort(seen), (ci + 40) * 80 + cj + 40)

    @pytest.mark.parametrize("T, k", [(40.0, 4), (7.3, 3), (3.0, 1), (2.0, 65)])
    def test_pairs_are_mirrored_cells(self, complex_bernoulli, T, k):
        # the second block of a pair holds the cells (-i - 1, -j - 1) of the
        # first, in reverse (so in row-major) order
        parts = list(scan_blocks(complex_bernoulli, T, k, 1e-9))
        assert len(parts) % 2 == 0
        for (mi, mj, _, _), (oi, oj, _, _) in zip(parts[::2], parts[1::2]):
            assert oi.size and oi.min() >= 0
            assert np.array_equal(oi, (-mi - 1)[::-1])
            assert np.array_equal(oj, (-mj - 1)[::-1])

    def test_kernel_work_is_about_half_the_points(self, complex_bernoulli, monkeypatch):
        # one product evaluation per mirrored pair: at T = 40, k = 4 the
        # grids passed to the kernel hold under 0.6x the sampled points
        grid_points = []
        kernel = ssfourier.fourier._product
        monkeypatch.setattr(
            ssfourier.fourier, "_product",
            lambda *args: grid_points.append(np.broadcast(args[2], args[3]).size)
            or kernel(*args),
        )
        sampled = sum(v.size for *_, v in scan_blocks(complex_bernoulli, 40.0, 4, 1e-9))
        assert sampled == _scan_cells(40.0)[0].size * 16
        assert sum(grid_points) <= 0.6 * sampled

    def test_pool_shut_down_when_consumer_stops(self, complex_bernoulli, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        calls = []

        class Pool(ThreadPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                calls.append(cancel_futures)
                super().shutdown(wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(ssfourier.fourier, "ThreadPoolExecutor", Pool)
        blocks = scan_blocks(complex_bernoulli, 72.0, 4, 1e-9, workers=2)
        next(blocks)
        blocks.close()
        assert calls == [True]

    def test_more_threads_than_cores_same_bits(self, complex_bernoulli):
        # eight worker threads on nine pairs, switching as often as the
        # interpreter allows: the arrays they share are only read
        want = grid_scan(complex_bernoulli, 72.0, workers=1).grid
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = grid_scan(complex_bernoulli, 72.0, workers=8).grid
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf, 5e-13])
    def test_tol_checked_at_once(self, complex_bernoulli, monkeypatch, workers, tol):
        # the call itself raises: no cell is listed and no pool is started
        def refuse(*args):
            raise AssertionError("scan work started")

        monkeypatch.setattr(ssfourier.fourier, "_scan_cells", refuse)
        monkeypatch.setattr(ssfourier.fourier, "ThreadPoolExecutor", refuse)
        with pytest.raises(DomainError, match="tol must be finite"):
            scan_blocks(complex_bernoulli, 8.0, 4, tol, workers=workers)

    def test_budget_lower_bound_before_cells(self, complex_bernoulli, monkeypatch):
        # pi T^2 k^2 points at least: T = 1e9 is refused without building
        # the 2e9 x 2e9 cell grid
        def no_cells(T):
            raise AssertionError("cell grid built")

        monkeypatch.setattr(ssfourier.fourier, "_scan_cells", no_cells)
        with pytest.raises(BudgetError):
            grid_scan(complex_bernoulli, 1e9, cell_budget=1000)
        with pytest.raises(BudgetError):
            grid_scan(complex_bernoulli, 10.0, subgrid_k=2, cell_budget=1256)
        # pi (T k)^2 overflows a float: over the budget, not an OverflowError
        for huge in (1e200, 1e308):
            with pytest.raises(BudgetError):
                grid_scan(complex_bernoulli, huge)

    def test_exact_budget_still_checked(self, complex_bernoulli):
        # pi * 3^2 * 4^2 = 452.4 points at least; the disk has 36 cells, 576 points
        with pytest.raises(BudgetError):
            grid_scan(complex_bernoulli, 3.0, cell_budget=575)
        assert len(grid_scan(complex_bernoulli, 3.0, cell_budget=576).cells) == 36

    def test_cells_cover_disk(self):
        ci, cj = _scan_cells(2.5)
        assert (0, 0) in set(zip(ci.tolist(), cj.tolist()))
        # no cell lies entirely outside the closed disk
        nx = np.clip(0.0, ci, ci + 1.0)
        ny = np.clip(0.0, cj, cj + 1.0)
        assert np.all(nx**2 + ny**2 <= 2.5**2)

    def test_rejects_bad_args(self, complex_bernoulli):
        with pytest.raises(DomainError):
            grid_scan(complex_bernoulli, 0.5)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                grid_scan(complex_bernoulli, bad)
        with pytest.raises(DomainError):
            grid_scan(complex_bernoulli, 4.0, subgrid_k=0)


class TestDiskCount:
    """The budget's cell count, made in O(T log T), against the listing of the cells."""

    @settings(max_examples=40, deadline=None)
    @given(T=st.floats(1.0, 2000.0))
    def test_equals_the_listing(self, T):
        assert _disk_count(T) == _scan_cells(T)[0].size

    @settings(max_examples=200, deadline=None)
    @given(a=st.integers(1, 300), b=st.integers(0, 300))
    def test_equals_the_listing_at_ties(self, a, b):
        # T = sqrt(a^2 + b^2) puts the corner (a, b) on the circle up to
        # rounding, and its float neighbours on either side of it
        T = math.sqrt(a * a + b * b)
        for t in (math.nextafter(T, 0.0), T, math.nextafter(T, math.inf)):
            if t >= 1.0:
                assert _disk_count(t) == _scan_cells(t)[0].size

    @settings(max_examples=30, deadline=None)
    @given(T=st.floats(1.0, 20.0), k=st.integers(1, 3))
    def test_budget_edges(self, T, k):
        # a budget of exactly the listed points passes, one point less is
        # refused: by the lower bound pi (T k)^2 when it is over the budget
        # too (at T = 1, 4 cells against pi), else by the exact count
        ifs = SCAN_SYSTEMS["three_digit"]
        points = _scan_cells(T)[0].size * k * k
        assert len(grid_scan(ifs, T, k, cell_budget=points).cells) * k * k == points
        if T * k > math.sqrt((points - 1) / math.pi):
            message = rf"^scan of radius T = {T!r} at subgrid_k = {k} would sample over "
        else:
            message = rf"^scan would sample {points} points \(budget {points - 1}\)$"
        with pytest.raises(BudgetError, match=message):
            grid_scan(ifs, T, k, cell_budget=points - 1)


class TestScanFieldIO:
    def test_dense_grid_layout(self, complex_bernoulli):
        field = grid_scan(complex_bernoulli, 2.5, subgrid_k=2)
        n = 3
        assert field.grid.shape == (2 * n, 2 * n) and field.grid.dtype == np.float64
        ci, cj = _scan_cells(2.5)
        inside = np.zeros((2 * n, 2 * n), dtype=bool)
        inside[ci + n, cj + n] = True
        assert np.all(field.grid[~inside] == -1.0)
        assert np.all(field.grid[inside] >= 0.0)
        assert list(field.cells) == sorted(zip(ci.tolist(), cj.tolist()))
        assert all(field.grid[i + n, j + n] == v for (i, j), v in field.cells.items())
        with pytest.raises(TypeError):
            field.cells[(0, 0)] = 0.5
        with pytest.raises(ValueError):
            field.grid[n, n] = 0.5

    def test_csv(self, complex_bernoulli):
        field = grid_scan(complex_bernoulli, 2.0, subgrid_k=2)
        text = scanfield_to_csv(field)
        assert text.splitlines()[0] == "i,j,max_abs_muhat"
        assert len(text.splitlines()) == len(field.cells) + 1

    def test_binary_roundtrip(self, complex_bernoulli):
        field = grid_scan(complex_bernoulli, 2.0, subgrid_k=2)
        back = scanfield_from_binary(scanfield_to_binary(field))
        assert back.T == field.T and back.subgrid_k == field.subgrid_k
        assert back.cells == field.cells

    def test_binary_matches_cellwise_dump(self, complex_bernoulli):
        field = grid_scan(complex_bernoulli, 72.0, subgrid_k=1)
        n = 72
        grid = np.full((2 * n, 2 * n), -1.0, dtype="<f8")
        for (i, j), v in field.cells.items():
            grid[i + n, j + n] = v
        blob = scanfield_to_binary(field)
        assert blob[32:] == grid.tobytes()
        back = scanfield_from_binary(blob)
        assert back.T == field.T and back.subgrid_k == 1
        assert back.cells == field.cells
        assert scanfield_to_binary(back) == blob

    @pytest.mark.parametrize("cut", [8, 1])
    def test_binary_truncated_refused(self, complex_bernoulli, cut):
        blob = scanfield_to_binary(grid_scan(complex_bernoulli, 3.0))
        with pytest.raises(DomainError):
            scanfield_from_binary(blob[:-cut])

    @pytest.mark.parametrize("size", [0, 20, 31])
    def test_binary_shorter_than_header_refused(self, complex_bernoulli, size):
        blob = scanfield_to_binary(grid_scan(complex_bernoulli, 3.0))
        with pytest.raises(DomainError):
            scanfield_from_binary(blob[:size])

    @pytest.mark.parametrize("T", [math.nan, math.inf, -3.0])
    def test_binary_bad_radius_refused(self, complex_bernoulli, T):
        blob = bytearray(scanfield_to_binary(grid_scan(complex_bernoulli, 3.0)))
        struct.pack_into("<d", blob, 8, T)
        with pytest.raises(DomainError):
            scanfield_from_binary(bytes(blob))

    def test_binary_of_a_scan_grid_accepted(self):
        # the blobs that test_refused edits are read back when unedited
        field = scanfield_from_binary(field_blob(2.5, 2, 32, scan_grid()))
        assert field.cells == grid_scan(SCAN_SYSTEMS["three_digit"], 2.5, 2).cells

    def test_binary_cell_count_checked(self, complex_bernoulli):
        blob = bytearray(scanfield_to_binary(grid_scan(complex_bernoulli, 3.0)))
        (count,) = struct.unpack_from("<I", blob, 20)
        struct.pack_into("<I", blob, 20, count - 1)
        with pytest.raises(DomainError):
            scanfield_from_binary(bytes(blob))


def field_blob(T, k, count, grid):
    """A scan-field blob of header (T, k, count) and the given grid."""
    header = struct.pack("<8sdII8x", b"SSFGRID1", T, k, count)
    return header + np.asarray(grid, dtype="<f8").tobytes()


def scan_grid(*edits):
    """The grid of a scan of radius 2.5 (side 6, 32 disk cells), with each
    (i, j, value) of ``edits`` written over it."""
    grid = np.array(grid_scan(SCAN_SYSTEMS["three_digit"], 2.5, 2).grid)
    for i, j, value in edits:
        grid[i + 3, j + 3] = value
    return grid


def energy_unmirrored(mu, t_rad, step, block=_ENERGY_BLOCK):
    """Oracle: the discrete-measure energy with every exponential computed.

    The lattice, atom blocks and matrix products of ``energy_integral``,
    but e(x c) evaluated at the negative coordinates c too, with no
    mirroring and no preallocated blocks.
    """
    n = math.ceil(t_rad / step)
    coords = (np.arange(-n, n) + 0.5) * step
    inside = np.abs(coords[:, None] + 1j * coords[None, :]) < t_rad
    pos, wts = mu.positions, mu.weights
    grid = np.zeros(inside.shape, dtype=np.complex128)
    for a0 in range(0, pos.size, block):
        blk = slice(a0, a0 + block)
        ex = wts[blk, None] * np.exp(2j * np.pi * np.outer(pos.real[blk], coords))
        ey = np.exp(2j * np.pi * np.outer(pos.imag[blk], coords))
        grid += ex.T @ ey
    return float(np.sum(np.abs(grid[inside]) ** 2)) * step * step


def has_midpoint(t_rad, step):
    """Whether a midpoint of the step lattice lies inside |xi| < t_rad."""
    n = math.ceil(t_rad / step)
    coords = (np.arange(-n, n) + 0.5) * step
    return bool((np.abs(coords[:, None] + 1j * coords[None, :]) < t_rad).any())


def traced_peak(call) -> int:
    """Peak bytes tracemalloc sees while ``call()`` runs."""
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# atom coordinates with exact zeros: there the mirrored exponential is
# 1 - 0i where the direct one is 1 + 0i, a difference the sum must not see
ATOM_COORD = st.one_of(st.just(0.0), st.floats(-50.0, 50.0))


class TestEnergyIntegral:
    @settings(max_examples=80, deadline=None)
    @given(
        atoms=st.lists(st.tuples(ATOM_COORD, ATOM_COORD, st.floats(0.01, 1.0)),
                       min_size=1, max_size=40),
        t_rad=st.floats(0.05, 12.0),
        step=st.floats(0.05, 0.5),
        block=st.sampled_from([1, 3, 16, _ENERGY_BLOCK]),
    )
    def test_mirrored_equals_unmirrored(self, atoms, t_rad, step, block):
        pos = np.array([complex(x, y) for x, y, _ in atoms])
        wts = np.array([w for _, _, w in atoms])
        mu = DiscreteMeasure(pos, wts / wts.sum())
        want = energy_unmirrored(mu, t_rad, step, block)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ssfourier.fourier, "_ENERGY_BLOCK", block)
            if not has_midpoint(t_rad, step):
                # an empty lattice sums to 0, which has no logarithm: refused
                assert want == 0.0
                with pytest.raises(DomainError, match="no lattice midpoint"):
                    energy_integral(mu, t_rad, step)
                return
            got = energy_integral(mu, t_rad, step)
        assert got == want

    def test_mirrored_equals_unmirrored_over_blocks(self, sierpinski):
        # the dim benchmark's gasket: 19,683 atoms, two full blocks and a part
        mu = finite_approximation(sierpinski, 9)
        for t_rad in (2.0, 4.0, 8.0):
            assert energy_integral(mu, t_rad, 0.5) == energy_unmirrored(mu, t_rad, 0.5)

    @pytest.mark.parametrize("t_rad, step", [
        (0.3, 0.5), (abs(complex(0.25, 0.25)), 0.5), (0.008, 0.0125),
    ])
    def test_radius_without_a_midpoint_refused(self, complex_bernoulli, t_rad, step):
        # the midpoints nearest 0 are (+-step/2, +-step/2), step/sqrt(2) out
        for target in (complex_bernoulli, DiscreteMeasure.dirac(0.0)):
            with pytest.raises(DomainError, match=re.escape(f"T = {t_rad!r} at step {step!r}")):
                energy_integral(target, t_rad, step)
            nearest = float(np.abs(np.array([complex(step / 2, step / 2)]))[0])
            above = math.nextafter(nearest, math.inf)
            assert energy_integral(target, max(t_rad, above), step) > 0.0

    def test_peak_memory_not_above_the_unmirrored(self, sierpinski):
        mu = finite_approximation(sierpinski, 9)
        for t_rad, step in ((8.0, 0.5), (16.0, 0.25)):
            got = traced_peak(lambda: energy_integral(mu, t_rad, step))
            assert got <= traced_peak(lambda: energy_unmirrored(mu, t_rad, step))

    def test_dirac_gives_disk_area(self):
        t_rad, step = 4.0, 0.25
        val = energy_integral(DiscreteMeasure.dirac(0.0), t_rad, step)
        boundary = 2 * math.pi * (t_rad + step) * step + 1.0
        assert abs(val - math.pi * t_rad**2) <= boundary

    def test_translation_invariance(self, sierpinski):
        mu = finite_approximation(sierpinski, 5)
        shifted = DiscreteMeasure(mu.positions + (0.37 - 1.2j), mu.weights)
        a = energy_integral(mu, 3.0, 0.5)
        b = energy_integral(shifted, 3.0, 0.5)
        assert abs(a - b) < 1e-9 * max(a, 1.0)

    def test_monotone_in_radius_and_quadrature_oracle(self, bernoulli_half):
        e4 = energy_integral(bernoulli_half, 4.0, 0.25)
        e8 = energy_integral(bernoulli_half, 8.0, 0.25)
        assert 0.0 < e4 < e8
        # oracle: |mu_hat|^2 depends on Re xi only, so the disk integral
        # collapses to a 1D quadrature of sinc^2 against the chord length
        def chord_integrand(u, radius):
            return sinc_ft(u) ** 2 * 2.0 * math.sqrt(radius**2 - u**2)
        for t_rad, got in ((4.0, e4), (8.0, e8)):
            want = quad(chord_integrand, -t_rad, t_rad, args=(t_rad,), limit=400)[0]
            assert abs(got - want) < 0.05 * want

    def test_step_precondition(self, bernoulli_half):
        with pytest.raises(DomainError):
            energy_integral(bernoulli_half, 4.0, 0.75)

    @staticmethod
    def _lattice(t_rad, step):
        n = math.ceil(t_rad / step)
        coords = (np.arange(-n, n) + 0.5) * step
        xi = (coords[:, None] + 1j * coords[None, :]).ravel()
        return xi[np.abs(xi) < t_rad]

    def test_tensor_grid_matches_direct_sum(self):
        # off-lattice atoms spanning more than one block; T is not a
        # multiple of step, so the disk cuts through lattice rows
        rng = np.random.default_rng(20261018)
        n_atoms = _ENERGY_BLOCK + 1809
        pos = rng.uniform(-1.5, 2.5, n_atoms) + 1j * rng.uniform(-2.0, 1.0, n_atoms)
        wts = rng.uniform(0.1, 1.0, n_atoms)
        mu = DiscreteMeasure(pos, wts / wts.sum())
        t_rad, step = 3.3, 0.3
        vals = fourier_sum(mu.positions, mu.weights, self._lattice(t_rad, step))
        want = float(np.sum(np.abs(vals) ** 2)) * step * step
        got = energy_integral(mu, t_rad, step)
        assert abs(got - want) <= 1e-12 * want

    def test_blas_thread_count_invariance(self):
        script = (
            "import numpy as np\n"
            "from ssfourier import DiscreteMeasure, energy_integral\n"
            "rng = np.random.default_rng(5)\n"
            "pos = rng.normal(size=20000) + 1j * rng.normal(size=20000)\n"
            "mu = DiscreteMeasure(pos, np.full(20000, 1 / 20000))\n"
            "print(repr(energy_integral(mu, 6.1, 0.25)))\n"
        )
        src = str(Path(ssfourier.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outs.append(done.stdout)
        assert outs[0].strip() and outs[0] == outs[1]

    @pytest.mark.parametrize("system, t_rad, step", [
        ("complex_bernoulli", 3.3, 0.3),
        # about 80,000 points: several row blocks, past 65,536 points
        ("complex_bernoulli", 40.0, 0.25),
        ("unit_square", 40.0, 0.25),
    ])
    def test_ifs_target_matches_mu_hat_sum(self, request, system, t_rad, step):
        # the product kernel agrees with the phi-built product to 1e-13
        # per point (assert_scan_matches_oracle), so each square to 2e-13
        ifs = request.getfixturevalue(system)
        xi = self._lattice(t_rad, step)
        want = float(np.sum(np.abs(product_oracle(ifs, xi, 1e-9)) ** 2)) * step * step
        got = energy_integral(ifs, t_rad, step)
        assert abs(got - want) <= 2e-13 * xi.size * step * step

    def test_ifs_target_runs_on_scan_kernel(self, complex_bernoulli, monkeypatch):
        blocks = []
        kernel = ssfourier.fourier._product

        def recording(ifs, tol, x, y, at):
            blocks.append(x.size)
            return kernel(ifs, tol, x, y, at)

        def refused(*args, **kwargs):
            raise AssertionError("energy_integral called mu_hat")

        monkeypatch.setattr(ssfourier.fourier, "_product", recording)
        monkeypatch.setattr(ssfourier.fourier, "mu_hat", refused)
        assert energy_integral(complex_bernoulli, 20.0, 0.25) > 0.0
        assert blocks == [64, 64, 32]

    @pytest.mark.parametrize("t_rad, step", [
        (0.0, 0.25), (-1.0, 0.25), (math.nan, 0.25), (math.inf, 0.25),
        (4.0, math.nan), (4.0, 0.0), (4.0, -0.25), (4.0, math.inf),
    ])
    def test_bad_radius_or_step_refused(self, complex_bernoulli, t_rad, step):
        for target in (complex_bernoulli, DiscreteMeasure.dirac(0.0)):
            with pytest.raises(DomainError):
                energy_integral(target, t_rad, step)

    @pytest.mark.parametrize("t_rad", [790.75, 1e5])
    def test_oversized_lattice_refused_before_allocation(self, complex_bernoulli, t_rad):
        # T/step = 1581.5 makes a 3164^2 lattice, just past the 10^7-point
        # cap; nothing of either size may be allocated before the refusal
        import tracemalloc

        for target in (complex_bernoulli, DiscreteMeasure.dirac(0.0)):
            tracemalloc.start()
            try:
                with pytest.raises(BudgetError):
                    energy_integral(target, t_rad, 0.5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 16


KERNEL_SYSTEMS = {
    "two_digit_complex": IFSDescriptor(0.71 * cmath.exp(1.1j), (-1.0, 1.0), (0.3, 0.7)),
    "two_digit_real": IFSDescriptor(0.6, (-1.0, 1.0), (0.5, 0.5)),
    "three_digit_complex": SCAN_SYSTEMS["three_digit"],
    "three_digit_real": IFSDescriptor(0.5, (0.0, 1.0, 1j), (0.2, 0.3, 0.5)),
    "four_digit_complex": IFSDescriptor(
        0.6 - 0.3j, (0.0, 1.0, 1j, -0.7 + 0.4j), (0.1, 0.2, 0.3, 0.4)
    ),
    "four_digit_real": IFSDescriptor(
        0.55, (0.0, 1.0, 1j, 1 + 1j), (0.25, 0.25, 0.25, 0.25)
    ),
}


class TestProductKernel:
    """mu_hat, the scan and the IFS energy read one kernel's bits."""

    @pytest.mark.parametrize("call", [
        pytest.param(lambda ifs: mu_hat(ifs, 1e6), id="mu_hat"),
        pytest.param(lambda ifs: grid_scan(ifs, 2.0), id="scan"),
        pytest.param(lambda ifs: energy_integral(ifs, 2.0, 0.5), id="energy"),
    ])
    def test_factor_count_past_budget_refused(self, call):
        # |lambda| = 1 - 1e-11 needs K ~ 1e12 factors: refused before the
        # K-long level tables (tens of TiB) are made
        ifs = IFSDescriptor(0.99999999999, (-1.0, 1.0), (0.5, 0.5))
        with pytest.raises(BudgetError, match=r"keep \d{13} factors \(budget 10000000 levels\)"):
            call(ifs)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("system", sorted(KERNEL_SYSTEMS))
    def test_scan_values_are_mu_hat_bits(self, system, workers):
        # T = 30.5 with k = 4 gives eight row blocks, so two workers share them;
        # np.abs, since Python's abs(complex) can differ in the last bit
        ifs = KERNEL_SYSTEMS[system]
        tol = 1e-9
        blocks = list(scan_blocks(ifs, 30.5, 4, tol, workers=workers))
        assert len(blocks) == 8
        for _, _, xi, values in blocks:
            assert np.array_equal(values, np.abs(mu_hat(ifs, xi, tol)))

    @pytest.mark.parametrize("k", [1, 3, 5, 8])
    @pytest.mark.parametrize("system", sorted(KERNEL_SYSTEMS))
    def test_scan_values_are_mu_hat_bits_at_every_k(self, system, k):
        # the mirrored half reads the kernel at -xi: the bits still match,
        # whether or not k is a power of two
        ifs = KERNEL_SYSTEMS[system]
        for _, _, xi, values in scan_blocks(ifs, 130.5 / k, k, 1e-9):
            assert np.array_equal(values, np.abs(mu_hat(ifs, xi, 1e-9)))

    @settings(max_examples=30, deadline=None)
    @given(ifs=RANDOM_SYSTEMS, T=st.floats(1.0, 12.0), k=st.integers(1, 8),
           tol=st.sampled_from([1e-9, 1e-4]))
    def test_random_scan_values_are_mu_hat_bits(self, ifs, T, k, tol):
        for _, _, xi, values in scan_blocks(ifs, T, k, tol):
            assert np.array_equal(values, np.abs(mu_hat(ifs, xi, tol)))

    @pytest.mark.parametrize("system", sorted(KERNEL_SYSTEMS))
    def test_energy_is_the_sum_of_mu_hat_squares(self, system):
        # same blocks of lattice rows, same order of summation: same bits
        ifs = KERNEL_SYSTEMS[system]
        t_rad, step = 20.3, 0.3
        n = math.ceil(t_rad / step)
        coords = (np.arange(-n, n) + 0.5) * step
        total = 0.0
        for r0 in range(0, coords.size, _ROW_BLOCK):
            xi = (coords[r0 : r0 + _ROW_BLOCK, None] + 1j * coords[None, :]).ravel()
            values = np.abs(mu_hat(ifs, xi[np.abs(xi) < t_rad], 1e-9))
            total += float(np.sum(values * values))
        assert energy_integral(ifs, t_rad, step) == total * step * step

    @pytest.mark.parametrize("system", [
        "two_digit_complex", "three_digit_complex", "four_digit_complex",
    ])
    def test_lone_frequency_is_its_batch_lane(self, system):
        # numpy multiplies a one-element complex array on another path;
        # mu_hat evaluates a lone frequency as two copies of itself
        ifs = KERNEL_SYSTEMS[system]
        rng = np.random.default_rng(len(system))
        xi = 40.0 * (rng.normal(size=257) + 1j * rng.normal(size=257))
        for size in [*range(2, 18), 257]:
            batch = mu_hat(ifs, xi[:size], 1e-12)
            for lane in range(size) if size < 257 else (0, 1, 128, 255, 256):
                alone = mu_hat(ifs, xi[lane], 1e-12)
                assert alone == batch[lane], (size, lane)
                assert mu_hat(ifs, xi[lane : lane + 1], 1e-12)[0] == alone


class TestQuadtree:
    """The disc bound of the product kernel, and the scan's blocks on the
    cells that it keeps."""

    @settings(max_examples=60, deadline=None)
    @given(ifs=RANDOM_SYSTEMS, cx=st.floats(-300.0, 300.0), cy=st.floats(-300.0, 300.0),
           radius=st.floats(1e-3, 90.0), seed=st.integers(0, 2**32 - 1),
           tol=st.sampled_from([1e-12, 1e-9, 1e-4]))
    def test_disc_bound_covers_mu_hat(self, ifs, cx, cy, radius, seed, tol):
        # at random points of the disc and of its rim: the kernel's samples
        # stay below the widened bound plus tol, and the phi-built product
        # of the bound's own K factors below the widened bound
        rng = np.random.default_rng(seed)
        c = complex(cx, cy)
        x, y = np.array([cx, cx]), np.array([cy, cy])
        bound = _disc_bound(ifs, tol, x, y, np.arange(2), radius)[0]
        angle = 2.0 * np.pi * rng.random(72)
        xi = c + radius * np.sqrt(np.r_[rng.random(64), np.ones(8)]) * np.exp(1j * angle)
        assert np.all(np.abs(mu_hat(ifs, xi, tol)) <= bound + tol)
        k = truncation_index(ifs, abs(c) + radius, tol)
        assert np.all(np.abs(head_product(ifs, xi, np.full(xi.shape, k))) <= bound)

    def test_disc_bound_excludes_far_discs(self, complex_bernoulli):
        # criterion 5's system: the cover's threshold 256^-0.05 = 0.758 is
        # out of reach of a unit cell's disc far from the origin
        bound = _disc_bound(complex_bernoulli, 1e-9, np.array([200.5, -100.5]),
                            np.array([0.5, 150.5]), np.arange(2), math.sqrt(0.5))
        assert np.all(bound < 0.7)

    @settings(max_examples=40, deadline=None)
    @given(ifs=RANDOM_SYSTEMS, T=st.floats(1.0, 12.0), k=st.integers(1, 6),
           threshold=st.floats(0.0, 1.0), tol=st.sampled_from([1e-9, 1e-4]))
    def test_keeps_the_scan_cells_a_sample_reaches(self, ifs, T, k, threshold, tol):
        # every kept cell is a scan cell with the scan's bits, so is its
        # mirror, and every scan cell with a sample at or above the
        # threshold is kept
        scan = {}
        for ci, cj, _, values in scan_blocks(ifs, T, k, tol):
            for cell, v in zip(zip(ci.tolist(), cj.tolist()), values.reshape(ci.size, -1)):
                scan[cell] = v
        kept = set()
        for ci, cj, xi, values in scan_blocks(ifs, T, k, tol, threshold=threshold):
            assert np.array_equal(values, np.abs(mu_hat(ifs, xi, tol)))
            for cell, v in zip(zip(ci.tolist(), cj.tolist()), values.reshape(ci.size, -1)):
                assert np.array_equal(v, scan[cell])
                kept.add(cell)
        assert {(-i - 1, -j - 1) for i, j in kept} == kept
        assert {cell for cell, v in scan.items() if v.max() >= threshold} <= kept

    def test_cells_kept_on_one_side_are_sampled_with_their_mirrors(
        self, complex_bernoulli, monkeypatch
    ):
        # a bound that keeps only the squares centred right of the imaginary
        # axis: of the root [-6, 10]^2 that leaves the rows 2..5 (the half
        # [-6, 2] is centred left), and the sampling pairs each cell with
        # its mirror (-i - 1, -j - 1), so the rows -6..-3 are sampled too,
        # with the scan's bits
        def right_side(ifs, tol, x, y, at, radius):
            return np.where(np.broadcast_arrays(x, y)[0].ravel()[at] > 0.0, 1.0, 0.0)

        monkeypatch.setattr(ssfourier.fourier, "_disc_bound", right_side)
        blocks = list(scan_blocks(complex_bernoulli, 6.0, 2, 1e-9, threshold=0.5))
        cells = {cell for ci, cj, _, _ in blocks for cell in zip(ci.tolist(), cj.tolist())}
        assert {i for i, _ in cells} == {-6, -5, -4, -3, 2, 3, 4, 5}
        assert {(-i - 1, -j - 1) for i, j in cells} == cells
        for _, _, xi, values in blocks:
            assert np.array_equal(values, np.abs(mu_hat(complex_bernoulli, xi, 1e-9)))

    def test_every_square_meeting_the_disk_is_bounded(self, complex_bernoulli, monkeypatch):
        # a bound of 1 keeps every square, so each level bounds every square
        # that meets the disk, however many blocks of rows they span: T =
        # 64.5 (n = 65, root side 256) puts the rows 0..64 of side 2 on two
        bounded = {}

        def one(ifs, tol, x, y, at, radius):
            gx, gy = np.broadcast_arrays(x, y)
            centres = gx.ravel()[at] + 1j * gy.ravel()[at]
            bounded.setdefault(radius, set()).update(centres.tolist())
            return np.ones(np.size(at))

        monkeypatch.setattr(ssfourier.fourier, "_disc_bound", one)
        blocks = list(scan_blocks(complex_bernoulli, 64.5, 1, 1e-9, threshold=0.5))
        n, side = 65, 256
        while side >= 1:
            near = [min(max(0, -n + a * side), -n + (a + 1) * side) for a in range(256 // side)]
            want = {complex(-n + (a + 0.5) * side, -n + (b + 0.5) * side)
                    for a, u in enumerate(near) for b, v in enumerate(near)
                    if -n + a * side < n and -n + b * side < n and u * u + v * v <= 64.5**2}
            assert bounded[side * math.sqrt(0.5)] == want
            side //= 2
        cells = {cell for ci, cj, _, _ in blocks for cell in zip(ci.tolist(), cj.tolist())}
        assert cells == set(zip(*(c.tolist() for c in _scan_cells(64.5))))

    @pytest.mark.parametrize("T, k, tol, budget", [
        (1e9, 4, 1e-9, 1000),
        (1e200, 4, 1e-9, None),
        (3.0, 4, 1e-9, 575),
        (0.5, 4, 1e-9, None),
        (math.nan, 4, 1e-9, None),
        (4.0, 0, 1e-9, None),
        (4.0, 4, 5e-13, None),
    ], ids=["lower-bound", "overflowing-bound", "exact-count", "small-T", "nan-T",
            "k-0", "tol-floor"])
    def test_refuses_as_the_scan_does(self, complex_bernoulli, T, k, tol, budget):
        got = outcome(lambda: scan_blocks(complex_bernoulli, T, k, tol, cell_budget=budget,
                                          threshold=0.5))
        assert got == outcome(lambda: scan_blocks(complex_bernoulli, T, k, tol, 1, budget))
        assert got[0] in (BudgetError, DomainError)


THREE_DIGIT = SCAN_SYSTEMS["three_digit"]


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: truncation_index(THREE_DIGIT, 1.0, 0.0), "tol", id="tol-zero"),
    pytest.param(lambda: truncation_index(THREE_DIGIT, 1.0, -1e-3), "tol", id="tol-negative"),
    pytest.param(lambda: truncation_index(THREE_DIGIT, 1.0, math.nan), "tol", id="tol-nan"),
    pytest.param(lambda: truncation_index(THREE_DIGIT, 1.0, math.inf), "tol", id="tol-inf"),
    pytest.param(lambda: truncation_index(THREE_DIGIT, [1.0, math.nan], 1e-12), "finite",
                 id="xi-nan"),
    pytest.param(lambda: mu_hat(THREE_DIGIT, complex(math.inf, 0.0)), "finite", id="xi-inf"),
    # finite, but 2*pi*max|w|*|xi|/(1 - |lambda|) overflows to inf
    pytest.param(lambda: truncation_index(THREE_DIGIT, [1.0, 1e308], 1e-12), "overflows",
                 id="xi-1e308"),
    pytest.param(lambda: mu_hat(THREE_DIGIT, 1e308), "overflows", id="mu-hat-xi-1e308"),
    # |w - m|^2 = 1e600 overflows a float
    pytest.param(lambda: mu_hat(IFSDescriptor(0.5 + 0.5j, (1e300, -1e300), (0.5, 0.5)), 1.0),
                 "variance overflows", id="mu-hat-digits-1e300"),
    pytest.param(lambda: truncation_index(IFSDescriptor(0.5, (1e200, -1e200), (0.5, 0.5)),
                                          1.0, 1e-9), "variance overflows",
                 id="index-digits-1e200"),
    pytest.param(lambda: scanfield_from_binary(b"NOTAFLD\0" + bytes(24)), "magic",
                 id="bad-magic"),
    pytest.param(lambda: energy_integral("not a measure", 4.0, 0.5), "target",
                 id="target-type"),
    # blobs that grid_scan cannot write: T < 1, subgrid_k < 1, a disk cell
    # that is not >= 0, or a cell outside the disk that is not -1.0, each
    # with the count of its cells >= 0
    pytest.param(lambda: scanfield_from_binary(field_blob(0.5, 4, 4, np.ones((2, 2)))),
                 "radius T must be finite and >= 1", id="blob-T-0.5"),
    pytest.param(lambda: scanfield_from_binary(field_blob(2.5, 0, 32, scan_grid())),
                 "subgrid_k", id="blob-k-0"),
    pytest.param(lambda: scanfield_from_binary(field_blob(2.5, 2, 33, scan_grid((-3, -3, 0.25)))),
                 "outside the disk", id="blob-outside-0.25"),
    pytest.param(lambda: scanfield_from_binary(field_blob(2.5, 2, 32, scan_grid((2, -3, -2.0)))),
                 "outside the disk", id="blob-outside-minus-2"),
    pytest.param(lambda: scanfield_from_binary(field_blob(2.5, 2, 31, scan_grid((0, 0, math.nan)))),
                 "not >= 0", id="blob-disk-nan"),
    pytest.param(lambda: scanfield_from_binary(field_blob(2.5, 2, 31, scan_grid((-1, 1, -0.5)))),
                 "not >= 0", id="blob-disk-negative"),
])
def test_refused(call, match):
    with pytest.raises(DomainError, match=match):
        call()
