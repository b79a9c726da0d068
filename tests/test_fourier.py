import cmath
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
from ssfourier.fourier import _ENERGY_BLOCK, _ROW_BLOCK, _scan_cells, scan_blocks

from conftest import random_two_digit_ifs


def phi(ifs, u):
    """Digit character Phi(u) = sum_j p_j exp(2*pi*i*Re(w_j*u)), elementwise.

    The plain sum over the digits, an oracle independent of the product
    kernel; |Phi| <= 1 always, with equality at u = 0.
    """
    u = np.asarray(u, dtype=np.complex128)
    out = sum(p * np.exp(2j * np.pi * (w * u).real) for w, p in zip(ifs.digits, ifs.probs))
    return complex(out) if u.ndim == 0 else out


def product_oracle(ifs, xi, tol):
    """The truncated product built factor by factor from ``phi``.

    Independent of the library's product kernel: it keeps the first
    ``truncation_index`` factors at each frequency, as ``mu_hat`` does.
    """
    xi = np.asarray(xi, dtype=np.complex128)
    k = truncation_index(ifs, np.abs(xi), tol)
    out = np.ones(xi.shape, dtype=np.complex128)
    u = np.conj(xi)
    for n in range(int(k.max(initial=0))):
        out = np.where(k > n, out * phi(ifs, u), out)
        u = u * ifs.lam
    return out


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
    @given(
        ifs=RANDOM_SYSTEMS,
        tol=st.floats(1e-14, 0.1),
        abs_xi=st.floats(0.0, 1e5),
        boundary=st.none() | st.integers(0, 40),
    )
    def test_smallest_index_with_tail_below_tol(self, ifs, tol, abs_xi, boundary):
        # tail(K) = 2 pi max|w| |xi| |lam|^K / (1 - |lam|) bounds the omitted
        # factors; ``boundary`` places |xi| where tail(boundary) = tol
        w_max, alam = max(abs(w) for w in ifs.digits), abs(ifs.lam)
        if boundary is not None and w_max > 0:
            abs_xi = tol * (1 - alam) / (2 * math.pi * w_max * alam**boundary)
        k = int(truncation_index(ifs, abs_xi, tol))

        def tail(n):
            return 2 * math.pi * w_max * abs_xi * alam**n / (1 - alam)

        assert tail(k) <= tol * (1 + 1e-12)
        assert k == 0 or tail(k - 1) >= tol * (1 - 1e-12)


def assert_scan_matches_oracle(ifs, T, k, tol):
    """Every streamed scan value is the phi-built product's modulus at its xi."""
    origin = []
    for _, _, xi, values in scan_blocks(ifs, T, k, tol):
        want = np.abs(product_oracle(ifs, xi, tol))
        assert np.max(np.abs(values - want)) <= 1e-13
        origin.extend(values[xi == 0])
    assert origin == [1.0]


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
        # T = 72 samples 264,384 points in more row blocks than workers,
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
        # T = 40, k = 4: blocks of 16 cell rows, concatenating to every disk
        # cell in sorted order with k * k points each, cell-major
        k = 4
        parts = list(scan_blocks(complex_bernoulli, 40.0, k, 1e-9))
        assert len(parts) == 5
        ci, cj = _scan_cells(40.0)
        assert np.array_equal(np.concatenate([p[0] for p in parts]), ci)
        assert np.array_equal(np.concatenate([p[1] for p in parts]), cj)
        for bi, bj, xi, values in parts:
            assert xi.shape == values.shape == (bi.size * k * k,)
            assert np.array_equal(np.floor(xi.real).reshape(-1, k * k)[:, 0], bi)
            assert np.array_equal(np.floor(xi.imag).reshape(-1, k * k)[:, 0], bj)

    def test_pool_shut_down_when_consumer_stops(self, complex_bernoulli, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        calls = []

        class Pool(ProcessPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                calls.append(cancel_futures)
                super().shutdown(wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(ssfourier.fourier, "ProcessPoolExecutor", Pool)
        blocks = scan_blocks(complex_bernoulli, 72.0, 4, 1e-9, workers=2)
        next(blocks)
        blocks.close()
        assert calls == [True]

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

    def test_binary_cell_count_checked(self, complex_bernoulli):
        blob = bytearray(scanfield_to_binary(grid_scan(complex_bernoulli, 3.0)))
        (count,) = struct.unpack_from("<I", blob, 20)
        struct.pack_into("<I", blob, 20, count - 1)
        with pytest.raises(DomainError):
            scanfield_from_binary(bytes(blob))


class TestEnergyIntegral:
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

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("system", sorted(KERNEL_SYSTEMS))
    def test_scan_values_are_mu_hat_bits(self, system, workers):
        # T = 30.5 with k = 4 gives four row blocks, so two workers share them;
        # np.abs, since Python's abs(complex) can differ in the last bit
        ifs = KERNEL_SYSTEMS[system]
        tol = 1e-9
        blocks = list(scan_blocks(ifs, 30.5, 4, tol, workers=workers))
        assert len(blocks) == 4
        for _, _, xi, values in blocks:
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


THREE_DIGIT = SCAN_SYSTEMS["three_digit"]


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: truncation_index(THREE_DIGIT, 1.0, 0.0), "tol", id="tol-zero"),
    pytest.param(lambda: truncation_index(THREE_DIGIT, 1.0, -1e-3), "tol", id="tol-negative"),
    pytest.param(lambda: truncation_index(THREE_DIGIT, 1.0, math.nan), "tol", id="tol-nan"),
    pytest.param(lambda: truncation_index(THREE_DIGIT, 1.0, math.inf), "tol", id="tol-inf"),
    pytest.param(lambda: scanfield_from_binary(b"NOTAFLD\0" + bytes(24)), "magic",
                 id="bad-magic"),
    pytest.param(lambda: energy_integral("not a measure", 4.0, 0.5), "target",
                 id="target-type"),
])
def test_refused(call, match):
    with pytest.raises(DomainError, match=match):
        call()
