import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from ssfourier import measures
from ssfourier import (
    BudgetError,
    DiscreteMeasure,
    DomainError,
    IFSDescriptor,
    ProbabilityVector,
    RegimeError,
    finite_approximation,
    ifs_from_json_str,
    measure_from_csv,
    scale_rotate,
    support_radius,
    tower_levels,
)

from conftest import measure_to_csv

# digits -1, 0, 1 on the Gaussian lattice: tower atoms coincide and merge
LATTICE = IFSDescriptor((1 + 1j) / 2, (-1.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3))


def merge_atoms(mu, tol):
    return measures._merge_atoms(mu, tol)[0]


def convolve(mu, nu, merge_tol=0.0, atom_budget=None):
    return measures._convolve(mu, nu, merge_tol, atom_budget)[0]


class TestProbabilityVector:
    def test_valid(self):
        pv = ProbabilityVector((0.25, 0.75))
        assert len(pv) == 2 and pv[1] == 0.75

    @pytest.mark.parametrize(
        "weights",
        [(1.0,), (0.5, 0.5001), (0.0, 1.0), (-0.1, 1.1)],
    )
    def test_invalid(self, weights):
        with pytest.raises(DomainError):
            ProbabilityVector(weights)


class TestIFSDescriptor:
    def test_validation(self):
        with pytest.raises(DomainError):
            IFSDescriptor(1.2, (-1, 1), (0.5, 0.5))
        with pytest.raises(DomainError):
            IFSDescriptor(0.5, (-1, 1, 0), (0.5, 0.5))

    def test_flags(self):
        ifs = IFSDescriptor(0.5, (-1.0, 1.0), (0.5, 0.5))
        assert ifs.lambda_is_real and ifs.digits_collinear and not ifs.is_atomic
        ifs = IFSDescriptor(0.5, (0.0, 1.0, 1j), (1 / 3,) * 3)
        assert not ifs.digits_collinear
        ifs = IFSDescriptor(0.5, (1 + 1j, 1 + 1j), (0.5, 0.5))
        assert ifs.is_atomic and ifs.digits_collinear

    def test_collinear_tilted_line(self):
        # digits on the line t * (1 + 2i) shifted by 3
        digits = tuple(3 + t * (1 + 2j) for t in (0.0, 0.7, -1.3))
        assert IFSDescriptor(0.5, digits, (1 / 3,) * 3).digits_collinear

    def test_real_lambda_rule(self):
        assert measures.is_real_lambda(0.5 + 1e-15j)
        assert measures.is_real_lambda(0.5 - 1e-14j)
        assert not measures.is_real_lambda(0.5 + 1e-13j)
        for lam in (0.5 + 1e-15j, 0.5 + 1e-13j, 0.5):
            ifs = IFSDescriptor(lam, (-1.0, 1.0), (0.5, 0.5))
            assert ifs.lambda_is_real == measures.is_real_lambda(lam)

    def test_regime_classification(self):
        assert IFSDescriptor((1 + 1j) / 2, (-1, 1), (0.5, 0.5)).bound_regime() == "complex"
        assert (
            IFSDescriptor(0.5, (0, 1, 1j), (1 / 3,) * 3).bound_regime()
            == "real_noncollinear"
        )
        with pytest.raises(RegimeError):
            IFSDescriptor(0.5, (-1, 1), (0.5, 0.5)).bound_regime()
        with pytest.raises(RegimeError):
            IFSDescriptor(0.5, (1, 1), (0.5, 0.5)).bound_regime()

    def test_json_roundtrip(self):
        ifs = IFSDescriptor((1 + 1j) / 2, (-1, 0.5j), (0.3, 0.7))
        back = ifs_from_json_str(json.dumps(ifs.to_json()))
        assert back == ifs

    @pytest.mark.parametrize("text", [
        "lambda = 0.5",
        "[0.5, 0.5]",
        '{"lambda": [0.5, 0.5], "probs": [0.5, 0.5]}',
        '{"lambda": [0.5], "digits": [[-1, 0], [1, 0]], "probs": [0.5, 0.5]}',
        '{"lambda": [0.5, 0.5], "digits": [[-1, 0], [1]], "probs": [0.5, 0.5]}',
        '{"lambda": [0.5, 0.5], "digits": [[-1, 0], [1, 0]], "probs": ["half", 0.5]}',
    ])
    def test_malformed_json_is_domain_error(self, text):
        with pytest.raises(DomainError):
            ifs_from_json_str(text)


class TestSupportRadius:
    def test_bernoulli(self, bernoulli_half):
        assert support_radius(bernoulli_half) == 2.0

    def test_complex(self):
        ifs = IFSDescriptor((1 + 1j) / 2, (0.0, 1.0), (0.5, 0.5))
        assert math.isclose(support_radius(ifs), 1.0 / (1.0 - 2**-0.5), rel_tol=1e-12)

    def test_atomic_zero(self):
        ifs = IFSDescriptor(0.5, (0.0, 0.0), (0.5, 0.5))
        assert support_radius(ifs) == 0.0


class TestFiniteApproximation:
    def test_depth_one_is_digit_law(self, complex_bernoulli):
        mu = finite_approximation(complex_bernoulli, 1)
        assert np.array_equal(np.sort_complex(mu.positions), [-1.0, 1.0])
        assert np.allclose(mu.weights, 0.5)

    def test_depth_two_real(self, bernoulli_half):
        mu = finite_approximation(bernoulli_half, 2)
        assert sorted(mu.positions.real.tolist()) == [-1.5, -0.5, 0.5, 1.5]
        assert np.allclose(mu.weights, 0.25)

    def test_depth_two_complex(self):
        ifs = IFSDescriptor((1 + 1j) / 2, (0.0, 1.0), (0.5, 0.5))
        mu = finite_approximation(ifs, 2)
        expected = {0.0, 1.0, (1 + 1j) / 2, (3 + 1j) / 2}
        got = set(mu.positions.tolist())
        assert all(min(abs(g - e) for e in expected) < 1e-12 for g in got)
        assert np.allclose(mu.weights, 0.25)

    def test_depth_zero(self, bernoulli_half):
        mu = finite_approximation(bernoulli_half, 0)
        assert mu.n_atoms == 1 and mu.positions[0] == 0.0

    def test_budget(self, complex_bernoulli):
        with pytest.raises(BudgetError):
            finite_approximation(complex_bernoulli, 12, atom_budget=1000)

    def test_telescoping(self, complex_bernoulli):
        # fa(N) * (lam^N-scaled fa(M)) = fa(N + M)
        lam = complex_bernoulli.lam
        a = finite_approximation(complex_bernoulli, 2)
        b = scale_rotate(finite_approximation(complex_bernoulli, 3), lam**2)
        combined = merge_atoms(convolve(a, b, merge_tol=1e-9), 1e-9)
        direct = merge_atoms(finite_approximation(complex_bernoulli, 5), 1e-9)
        assert combined.n_atoms == direct.n_atoms
        assert np.allclose(combined.positions, direct.positions, atol=1e-8)
        assert np.allclose(combined.weights, direct.weights, atol=1e-12)


def reference_tower(ifs, depth, merge=merge_atoms):
    """The level loop of finite_approximation written out over ``merge``."""
    tol = 1e-12 * max(support_radius(ifs), 1.0)
    mu, scale = DiscreteMeasure.dirac(0.0), 1.0 + 0.0j
    for _ in range(depth):
        pos = (mu.positions[:, None] + scale * np.array(ifs.digits)[None, :]).ravel()
        wts = (mu.weights[:, None] * np.asarray(ifs.probs)[None, :]).ravel()
        mu = merge(DiscreteMeasure(pos, wts / wts.sum()), tol)
        scale *= ifs.lam
    return mu


class TestTowerLevels:
    @pytest.mark.parametrize("system, depth, merges", [
        ("lattice", 11, True), ("complex_bernoulli", 14, False),
    ])
    def test_tree_points_near_positions(self, request, system, depth, merges):
        ifs = LATTICE if system == "lattice" else request.getfixturevalue(system)
        walk = list(tower_levels(ifs, depth))
        mu = walk[-1][0]
        assert_same_bits(mu, finite_approximation(ifs, depth))
        assert len(walk) == depth and walk[0][1].tolist() == list(range(ifs.m))
        z = np.zeros(1, dtype=np.complex128)
        for n, (level, first) in enumerate(walk):
            assert first.shape == (level.n_atoms,)
            parent, digit = np.divmod(first, ifs.m)
            z = z[parent] + ifs.lam**n * np.array(ifs.digits)[digit]
        assert z.size == mu.n_atoms
        assert (mu.n_atoms < ifs.m**depth) == merges
        tol = 1e-12 * max(support_radius(ifs), 1.0)
        assert np.max(np.abs(z - mu.positions)) <= depth * tol

    @pytest.mark.parametrize("system, depth", [
        ("unit_square", 8), ("sierpinski", 9), ("lattice", 11),
        ("complex_bernoulli", 14), ("rotated", 10),
    ])
    def test_measure_is_the_plain_level_loop(self, request, system, depth):
        if system == "lattice":
            ifs = LATTICE
        elif system == "rotated":
            ifs = IFSDescriptor(0.6 * np.exp(1.1j), (0.0, 1.0, 1j), (1 / 3,) * 3)
        else:
            ifs = request.getfixturevalue(system)
        assert_same_bits(finite_approximation(ifs, depth), reference_tower(ifs, depth))

    def test_smallest_member_through_passes(self):
        # TestMergeOracle::test_second_pass: each site's three atoms merge
        # over two passes, and the merged atom keeps member 3 * site
        tol = 1e-6
        motif = np.array([0.45j, -0.45j, 0.95]) * tol
        sites = np.arange(50) * (1.0 + 0.5j)
        pts = (sites[:, None] + motif[None, :]).ravel()
        mu = weighted(pts, np.random.default_rng(7))
        got, first = measures._merge_atoms(mu, tol)
        site = np.argmin(np.abs(got.positions[:, None] - sites[None, :]), axis=1)
        assert np.array_equal(first, 3 * site)

    def test_smallest_member_exact(self):
        mu = weighted([2.0, 1.0, 2.0, 1.0, 3.0, 1.0], np.random.default_rng(1))
        got, first = measures._merge_atoms(mu, 0.0)
        assert got.positions.tolist() == [1.0, 2.0, 3.0]
        assert first.tolist() == [1, 0, 4]


class TestConvolve:
    def test_identity(self, complex_bernoulli):
        mu = finite_approximation(complex_bernoulli, 3)
        conv = convolve(mu, DiscreteMeasure.dirac(0.0))
        ref = merge_atoms(mu, 0.0)
        assert np.array_equal(conv.positions, ref.positions)
        assert np.allclose(conv.weights, ref.weights)

    def test_diracs(self):
        conv = convolve(DiscreteMeasure.dirac(1 + 2j), DiscreteMeasure.dirac(-0.5j))
        assert conv.n_atoms == 1 and conv.positions[0] == 1 + 1.5j

    def test_matches_finite_approximation(self, complex_bernoulli):
        lam = complex_bernoulli.lam
        level0 = DiscreteMeasure(np.array([-1.0 + 0j, 1.0 + 0j]), np.array([0.5, 0.5]))
        level1 = scale_rotate(level0, lam)
        conv = convolve(level0, level1, merge_tol=1e-12)
        direct = finite_approximation(complex_bernoulli, 2)
        assert np.allclose(np.sort_complex(conv.positions), np.sort_complex(direct.positions))

    def test_commutative_associative(self):
        rng = np.random.default_rng(5)
        def rand_measure(n):
            w = rng.random(n)
            return DiscreteMeasure(rng.normal(size=n) + 1j * rng.normal(size=n), w / w.sum())
        a, b, c = rand_measure(4), rand_measure(5), rand_measure(3)
        ab = convolve(a, b, 1e-12)
        ba = convolve(b, a, 1e-12)
        assert np.allclose(ab.positions, ba.positions) and np.allclose(ab.weights, ba.weights)
        left = convolve(convolve(a, b, 1e-12), c, 1e-12)
        right = convolve(a, convolve(b, c, 1e-12), 1e-12)
        assert np.allclose(np.sort_complex(left.positions), np.sort_complex(right.positions), atol=1e-9)

    def test_budget(self):
        rng = np.random.default_rng(0)
        w = rng.random(200)
        mu = DiscreteMeasure(rng.normal(size=200) + 0j, w / w.sum())
        with pytest.raises(BudgetError):
            convolve(mu, mu, atom_budget=100)


class TestScaleRotate:
    def test_identity(self, complex_bernoulli):
        mu = finite_approximation(complex_bernoulli, 3)
        out = scale_rotate(mu, 1.0)
        assert np.array_equal(out.positions, mu.positions)
        assert np.array_equal(out.weights, mu.weights)

    def test_zero_collapses_after_merge(self, complex_bernoulli):
        mu = finite_approximation(complex_bernoulli, 3)
        out = merge_atoms(scale_rotate(mu, 0.0), 0.0)
        assert out.n_atoms == 1 and out.positions[0] == 0.0 and out.weights[0] == 1.0

    def test_group_action(self, complex_bernoulli):
        mu = finite_approximation(complex_bernoulli, 3)
        twice_i = scale_rotate(scale_rotate(mu, 1j), 1j)
        minus = scale_rotate(mu, -1.0)
        assert np.allclose(twice_i.positions, minus.positions)


class TestMergeAtoms:
    def test_no_close_pairs_after_merge(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=60) + 1j * rng.normal(size=60)
        pts = np.concatenate([pts, pts + 1e-8])  # near-duplicates
        w = np.full(120, 1 / 120)
        merged = merge_atoms(DiscreteMeasure(pts, w), 1e-6)
        pos = merged.positions
        for i in range(merged.n_atoms):
            d = np.abs(pos - pos[i])
            d[i] = np.inf
            assert d.min() > 1e-6
        assert abs(merged.weights.sum() - 1.0) < 1e-12

    def test_mass_and_barycenter_preserved(self):
        mu = DiscreteMeasure(np.array([0j, 1e-9 + 0j, 1.0 + 0j]), np.array([0.25, 0.25, 0.5]))
        merged = merge_atoms(mu, 1e-6)
        assert merged.n_atoms == 2
        bary = np.sum(merged.positions * merged.weights)
        assert abs(bary - np.sum(mu.positions * mu.weights)) < 1e-15


def reference_merge(mu, tol):
    """The cKDTree + union-find merge that grid-hash merging replaced."""
    pos, wts = mu.positions, mu.weights
    pts = np.column_stack([pos.real, pos.imag])
    for _ in range(8):
        pairs = cKDTree(pts).query_pairs(tol, output_type="ndarray")
        if pairs.size == 0:
            break
        parent = np.arange(len(pts))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for a, b in pairs:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
        roots = np.array([find(i) for i in range(len(pts))])
        _, inverse = np.unique(roots, return_inverse=True)
        k = inverse.max() + 1
        wsum = np.bincount(inverse, weights=wts, minlength=k)
        xsum = np.bincount(inverse, weights=wts * pts[:, 0], minlength=k)
        ysum = np.bincount(inverse, weights=wts * pts[:, 1], minlength=k)
        pts = np.column_stack([xsum / wsum, ysum / wsum])
        wts = wsum
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    return DiscreteMeasure((pts[:, 0] + 1j * pts[:, 1])[order], wts[order])


def assert_same_bits(got, want):
    assert got.positions.tobytes() == want.positions.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()


def weighted(points, rng):
    w = rng.uniform(0.5, 1.5, len(points))
    return DiscreteMeasure(np.asarray(points, dtype=np.complex128), w / w.sum())


class TestMergeOracle:
    """Grid-hash merging against the reference merge, bit for bit."""

    @pytest.mark.parametrize(
        "ifs, depth",
        [
            (IFSDescriptor(0.5 + 0.5j, (-1.0, 0.0, 1.0), (1 / 3,) * 3), 10),
            (IFSDescriptor(0.5j, tuple(complex(a, b) for a in (-1, 0, 1)
                                       for b in (-1, 0, 1)), (1 / 9,) * 9), 5),
        ],
        ids=["push-lattice", "nine-digit"],
    )
    def test_towers(self, ifs, depth):
        got = finite_approximation(ifs, depth)
        want = reference_tower(ifs, depth, merge=reference_merge)
        assert got.n_atoms < ifs.m**depth  # the tower really merges
        assert_same_bits(got, want)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sites=st.integers(1, 300),
        planted=st.integers(0, 300),
        tol=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 0.37]),
        offset=st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                  allow_infinity=False),
        reach=st.floats(0.0, 0.99),
    )
    def test_planted_near_duplicates(self, seed, sites, planted, tol, offset, reach):
        # base atoms on distinct sites of a lattice of spacing 6 tol, each
        # moved by up to tol / 2 per axis; planted copies lie within
        # reach * tol of a base atom, so every group joins through its base
        rng = np.random.default_rng(seed)
        cells = rng.choice(40 * 40, size=min(sites, 1600), replace=False)
        base = (cells % 40 + 1j * (cells // 40)) * 6 * tol + offset
        base = base + tol * (rng.uniform(-0.5, 0.5, base.size)
                             + 1j * rng.uniform(-0.5, 0.5, base.size))
        near = base[rng.integers(0, base.size, planted)]
        near = near + reach * tol * rng.uniform(0, 1, planted) * np.exp(
            2j * np.pi * rng.uniform(0, 1, planted))
        mu = weighted(rng.permutation(np.concatenate([base, near])), rng)
        got = merge_atoms(mu, tol)
        assert got.n_atoms <= base.size
        assert_same_bits(got, reference_merge(mu, tol))

    def test_pair_exactly_tol_apart(self):
        # (3, 4) / 16 and (5, 0) / 16 are exact: squared distances are exactly
        # tol^2; d exceeds tol by one unit in the last place of 20 and 30
        tol = 5 / 16
        d = tol + 2.0**-48
        pts = [0.0, tol, 10.0, 10.0 + (3 + 4j) / 16, 20.0, 20.0 + d, 30j, 30j + 1j * d]
        mu = weighted(pts, np.random.default_rng(3))
        got = merge_atoms(mu, tol)
        assert got.n_atoms == 6  # the two pairs at tol join, the two just over do not
        assert_same_bits(got, reference_merge(mu, tol))

    def test_pair_rounded_two_cells_apart(self):
        # with cells of side exactly tol, rounding puts these two atoms,
        # joined at distance <= tol, into cells 1002 and 1004
        tol = 0.9301261242672791
        a, b = 309.0179381053621, 309.9480642296293
        assert (b - a) ** 2 <= tol**2
        assert math.floor((b + 623.8985645347188) / tol) - math.floor(
            (a + 623.8985645347188) / tol) == 2
        mu = weighted([-623.8985645347188, a, b], np.random.default_rng(9))
        got = merge_atoms(mu, tol)
        assert got.n_atoms == 2
        assert_same_bits(got, reference_merge(mu, tol))

    def test_pairs_straddling_cell_edges(self):
        # pairs 0.99999 tol apart whose left atoms sweep the last 1% of a
        # cell (side about tol), 3 tol apart in y so pairs stay separate
        tol = 1e-3
        t = np.linspace(0.99, 1.0, 2001)
        left = (5.0 - t) * tol + 3j * tol * np.arange(t.size)
        pts = np.concatenate([[0.0], left, left + 0.99999 * tol])
        mu = weighted(pts, np.random.default_rng(11))
        got = merge_atoms(mu, tol)
        assert got.n_atoms == 1 + t.size
        assert_same_bits(got, reference_merge(mu, tol))

    @pytest.mark.parametrize("angle", [0.0, 0.3, math.pi / 2])
    def test_long_chain(self, angle):
        tol = 1e-3
        pts = 0.9 * tol * np.arange(2500) * np.exp(1j * angle) + (2 - 1j)
        mu = weighted(pts, np.random.default_rng(5))
        got = merge_atoms(mu, tol)
        assert got.n_atoms == 1
        assert_same_bits(got, reference_merge(mu, tol))

    def test_second_pass(self):
        # a1, a2 are 0.9 tol apart and b is 1.05 tol from both, so only
        # a1, a2 join at first; their midpoint lies 0.95 tol from b
        tol = 1e-6
        motif = np.array([0.45j, -0.45j, 0.95]) * tol
        sites = np.arange(50) * (1.0 + 0.5j)
        pts = (sites[:, None] + motif[None, :]).ravel()
        mu = weighted(pts, np.random.default_rng(7))
        assert abs(motif[2] - motif[0]) > tol
        first = measures._merge_components(
            np.column_stack([mu.positions.real, mu.positions.imag]), tol)
        assert first[1].size == 100
        got = merge_atoms(mu, tol)
        assert got.n_atoms == 50
        assert_same_bits(got, reference_merge(mu, tol))


def reference_min_gap(mu):
    """The cKDTree nearest-atom gap that the grid-hash gap replaced.

    Exactly coinciding atoms act as one, so duplicates are dropped first.
    """
    pos = np.unique(mu.positions)
    if pos.size < 2:
        return None
    pts = np.column_stack([pos.real, pos.imag])
    dists, _ = cKDTree(pts).query(pts, k=2)
    positive = dists[:, 1][dists[:, 1] > 0.0]
    return float(positive.min()) if positive.size else None


def lattice_measure(n, angle, spacing=1e-3):
    i, j = np.meshgrid(np.arange(n), np.arange(n))
    pos = ((i + 1j * j) * np.exp(1j * angle)).ravel() * spacing
    return DiscreteMeasure(pos, np.full(pos.size, 1.0 / pos.size))


class TestMinGapOracle:
    """The grid-hash nearest-atom gap against cKDTree, bit for bit."""

    @pytest.mark.parametrize(
        "ifs, depth",
        [
            (IFSDescriptor(0.5, (0.0, 1.0, 1j, 1 + 1j), (0.25,) * 4), 8),
            (IFSDescriptor(0.5, (0.0, 1.0, 1j), (1 / 3,) * 3), 9),
            (IFSDescriptor(0.5 + 0.5j, (-1.0, 0.0, 1.0), (1 / 3,) * 3), 13),
            (IFSDescriptor(0.5 + 0.5j, (-1.0, 1.0), (0.5, 0.5)), 16),
            (IFSDescriptor(0.6 * np.exp(1.1j), (0.0, 1.0, 1j), (1 / 3,) * 3), 10),
        ],
        ids=["square-8", "gasket-9", "push-lattice-13", "complex-bernoulli-16",
             "rotated-three-digit-10"],
    )
    def test_towers(self, ifs, depth):
        mu = finite_approximation(ifs, depth)
        gap = mu.min_atom_gap
        assert gap is not None and gap == reference_min_gap(mu)

    @pytest.mark.parametrize("angle", [0.3, 1.0, 2.1])
    def test_rotated_lattices(self, angle):
        # every atom has four neighbours at nearly the same distance
        mu = lattice_measure(300, angle)
        assert mu.min_atom_gap == reference_min_gap(mu)

    @pytest.mark.parametrize("scale", [(1e-3, 1.0), (1.0, 1e-3)])
    def test_anisotropic_lattice(self, scale):
        # consecutive atoms in (re, im) order are 1 apart in one of these,
        # the gap is 1e-3 in both
        i, j = np.meshgrid(np.arange(200), np.arange(200))
        pos = (scale[0] * i + 1j * scale[1] * j).ravel()
        mu = DiscreteMeasure(pos, np.full(pos.size, 1.0 / pos.size))
        assert mu.min_atom_gap == reference_min_gap(mu)

    def test_coinciding_atoms_act_as_one(self):
        # every atom has an exact copy: the nearest other atom of each is at
        # distance 0, yet the gap is the distance between the two sites
        mu = weighted([0.0, 0.0, 0.3 + 0.4j, 0.3 + 0.4j], np.random.default_rng(1))
        assert mu.min_atom_gap == 0.5 == reference_min_gap(mu)

    def test_none(self):
        assert DiscreteMeasure.dirac(1 + 1j).min_atom_gap is None
        mu = weighted([2j, 2j, 2j], np.random.default_rng(2))
        assert mu.min_atom_gap is None

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(2, 400),
        copies=st.integers(0, 100),
        ties=st.integers(0, 100),
        scale=st.sampled_from([1e-9, 1e-3, 1.0, 1e3]),
        offset=st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                  allow_infinity=False),
        lattice=st.booleans(),
    )
    def test_random_clouds(self, seed, count, copies, ties, scale, offset, lattice):
        # a random or lattice cloud, exact copies of some atoms, and atoms
        # one or two units in the last place away from others
        rng = np.random.default_rng(seed)
        if lattice:
            pts = rng.integers(0, 20, count) + 1j * rng.integers(0, 20, count)
        else:
            pts = rng.normal(size=count) + 1j * rng.normal(size=count)
        pts = pts * scale + offset
        near = pts[rng.integers(0, count, ties)]
        near = near + np.spacing(np.abs(near.real) + scale) * rng.integers(1, 3, ties)
        pts = np.concatenate([pts, pts[rng.integers(0, count, copies)], near])
        mu = weighted(rng.permutation(pts), rng)
        assert mu.min_atom_gap == reference_min_gap(mu)


class TestSerialization:
    def test_csv_roundtrip(self, complex_bernoulli):
        mu = finite_approximation(complex_bernoulli, 4)
        back = measure_from_csv(measure_to_csv(mu))
        assert np.array_equal(back.positions, mu.positions)
        assert np.array_equal(back.weights, mu.weights)

    def test_csv_header_required(self):
        with pytest.raises(DomainError):
            measure_from_csv("a,b,c\n1,2,3\n")

    @pytest.mark.parametrize("row", ["1.0,0.5", "1.0,0.5,0.5,0.1", "1.0,zero,0.5"])
    def test_csv_row_needs_three_numbers(self, row):
        with pytest.raises(DomainError):
            measure_from_csv(f"re,im,weight\n0.0,0.0,0.5\n{row}\n")


class TestDiscreteMeasureValidation:
    def test_weight_sum(self):
        with pytest.raises(DomainError):
            DiscreteMeasure(np.array([0j, 1j]), np.array([0.5, 0.7]))

    def test_positive_weights(self):
        with pytest.raises(DomainError):
            DiscreteMeasure(np.array([0j, 1j]), np.array([1.2, -0.2]))

    def test_exact_duplicate_groups(self):
        # groups of up to 400 exactly coinciding atoms; the first ten sites
        # chain at 0.8 tol, the rest stand 3 tol apart; -0.0 and 0.0 coincide
        tol = 1e-3
        rng = np.random.default_rng(17)
        step = np.where(np.arange(40) < 10, 0.8, 3.0) * tol
        sites = np.concatenate([[complex(-0.0, 0.0)], 1.0 + np.cumsum(step) + 0.25j])
        sizes = rng.integers(1, 401, sites.size)
        pts = np.concatenate([np.repeat(sites, sizes), [0.0, 5.0]])
        mu = weighted(rng.permutation(pts), rng)
        got = merge_atoms(mu, tol)
        assert got.n_atoms == 1 + 1 + 30 + 1
        assert_same_bits(got, reference_merge(mu, tol))

    def test_convolved_tower_duplicates(self):
        # mu * mu of the depth-5 push lattice tower: 19,881 sums onto 577
        # points, about 34 exactly coinciding atoms per point
        ifs = IFSDescriptor(0.5 + 0.5j, (-1.0, 0.0, 1.0), (1 / 3,) * 3)
        mu = finite_approximation(ifs, 5)
        got = convolve(mu, mu, merge_tol=1e-12)
        pos = (mu.positions[:, None] + mu.positions[None, :]).ravel()
        wts = (mu.weights[:, None] * mu.weights[None, :]).ravel()
        want = reference_merge(DiscreteMeasure(pos, wts / wts.sum()), 1e-12)
        assert got.n_atoms == 577
        assert_same_bits(got, want)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: DiscreteMeasure([0j, 1j], [1.0]), "equal length",
                 id="unequal-lengths"),
    pytest.param(lambda: DiscreteMeasure([], []), "at least one atom", id="no-atoms"),
    pytest.param(lambda: DiscreteMeasure([complex("nan")], [1.0]), "finite",
                 id="nan-position"),
    pytest.param(lambda: DiscreteMeasure([0j, complex(math.inf, 0.0)], [0.5, 0.5]),
                 "finite", id="inf-position"),
    pytest.param(lambda: finite_approximation(LATTICE, -1), "depth", id="negative-depth"),
    pytest.param(lambda: ProbabilityVector((math.nan, 0.5)), "finite", id="nan-weight"),
    pytest.param(lambda: IFSDescriptor(0.5 + 0.5j, (complex(math.inf, 0.0), 0.0), (0.5, 0.5)),
                 "finite", id="inf-digit"),
])
def test_refused(call, match):
    with pytest.raises(DomainError, match=match):
        call()
