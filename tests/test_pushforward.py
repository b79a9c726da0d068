import cmath
import math
import re
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from ssfourier import measures, pushforward
from ssfourier import (
    AnalyticMap,
    DiscreteMeasure,
    DomainError,
    IFSDescriptor,
    annulus_maxima,
    check_second_derivative,
    decay_profile,
    finite_approximation,
    fourier_sum,
    frostman_estimate,
    pushforward_measure,
    support_radius,
)
from ssfourier.pushforward import split_pushforward

LOG3_LOG2 = math.log(3) / math.log(2)
Z_SQUARED = AnalyticMap((0.0, 0.0, 1.0))
# digits -1, 0, 1 on the Gaussian lattice: tower atoms coincide and merge
LATTICE = IFSDescriptor((1 + 1j) / 2, (-1.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3))


class TestAnalyticMap:
    def test_eval_and_degree(self):
        f = AnalyticMap((1.0, 2.0, 3.0))
        assert f(2.0) == 1 + 4 + 12
        assert f.degree == 2

    def test_trailing_zeros_trimmed(self):
        assert AnalyticMap((1.0, 1.0, 0.0)).degree == 1

    def test_derivative(self):
        f = AnalyticMap((5.0, 1.0, 2.0, 1.0))
        f1 = f.derivative()
        assert f1.coeffs == (1.0, 4.0, 3.0)
        assert f1.derivative().coeffs == (4.0, 6.0)

    @pytest.mark.parametrize("coeffs", [(0.0, math.nan), (complex(0.0, math.inf), 1.0)],
                             ids=["nan", "inf"])
    def test_non_finite_coefficient_refused(self, coeffs):
        with pytest.raises(DomainError, match="finite"):
            AnalyticMap(coeffs)


def exact_derivative_abs2(f: AnalyticMap, z: complex) -> Fraction:
    """|F'(z)|^2 in exact fractions, from F's coefficients, at the float z."""
    x, y = Fraction(z.real), Fraction(z.imag)
    re_, im_ = Fraction(0), Fraction(0)
    for k in range(f.degree, 0, -1):
        c = f.coeffs[k]
        re_, im_ = (re_ * x - im_ * y + k * Fraction(c.real),
                    re_ * y + im_ * x + k * Fraction(c.imag))
    return re_ * re_ + im_ * im_


def root_at(r: float) -> AnalyticMap:
    """z^2 + c3 z^3 with the root of F'' = 2 + 6 c3 z at r."""
    return AnalyticMap((0.0, 0.0, 1.0, -1.0 / (3.0 * r)))


class TestSecondDerivativeCheck:
    def test_z_squared_constant(self, complex_bernoulli):
        # both bounds are exact for degree <= 2: F'' = 2, max |F'| = |2z| = 2R
        min_f2, max_f1 = check_second_derivative(Z_SQUARED, complex_bernoulli)
        assert min_f2 == 2.0
        assert max_f1 == 2 * support_radius(complex_bernoulli)
        assert max_f1 == pytest.approx(6.828427124746190)

    def test_z_cubed_vanishes_inside(self, complex_bernoulli):
        # F'' = 6z has its root at the origin, inside the support disk
        f = AnalyticMap((0, 0, 0, 1.0))
        radius = support_radius(complex_bernoulli)
        assert check_second_derivative(f, complex_bernoulli) == (0.0, 3 * radius**2)
        with pytest.raises(DomainError, match="root at 0$"):
            decay_profile(f, complex_bernoulli, [8.0, 16.0, 32.0], directions=8,
                          approx_depth=6)

    def test_criterion_11_maps_certified(self, complex_bernoulli):
        assert check_second_derivative(Z_SQUARED, complex_bernoulli)[0] > 1e-12
        control = AnalyticMap((0.4 - 0.3j, 0.9 + 0.2j))
        assert check_second_derivative(control, complex_bernoulli)[0] == 0.0
        decay_profile(control, complex_bernoulli, [16.0, 64.0, 256.0], directions=8,
                      approx_depth=6, atom_budget=4096)

    def test_root_just_inside_refused(self, complex_bernoulli):
        radius = support_radius(complex_bernoulli)
        f = root_at(0.99 * radius)
        assert check_second_derivative(f, complex_bernoulli)[0] == 0.0
        with pytest.raises(DomainError, match="root at 3.38"):
            decay_profile(f, complex_bernoulli, [4.0, 8.0, 16.0], directions=8,
                          approx_depth=6, atom_budget=4096)

    def test_root_just_outside_certified(self, complex_bernoulli):
        radius = support_radius(complex_bernoulli)
        f = root_at(1.01 * radius)
        a = abs(f.derivative().derivative().coeffs[-1])
        low = check_second_derivative(f, complex_bernoulli)[0]
        assert low == pytest.approx(a * 0.01 * radius, rel=1e-3)
        # a sampled min |F''| had to clear 4/sqrt(4096) of the max |F''|
        # = a (1.01 R + R); the true min a 0.01 R does not
        assert low < (4.0 / 64.0) * a * 2.01 * radius
        prof = decay_profile(f, complex_bernoulli, [4.0, 8.0, 16.0], directions=8,
                             approx_depth=6, atom_budget=4096)
        assert prof.min_abs_f2 == low

    def test_overflowing_root_refused(self, complex_bernoulli):
        # 2 / 6e-320 overflows np.roots' companion matrix
        with pytest.raises(DomainError, match="roots of F'' overflow"):
            check_second_derivative(AnalyticMap((0.0, 0.0, 1.0, 1e-320)), complex_bernoulli)

    @pytest.mark.parametrize("coeffs, r", [
        ((0, 1.5e308 + 1.5e308j), 1.0),  # |c_1| itself overflows
        ((0, 0, 1e308), 1e10),  # 2 |c_2| r is past a float
    ], ids=["modulus-overflows", "sum-overflows"])
    def test_majorant_past_a_float_is_inf(self, coeffs, r):
        assert pushforward._derivative_majorant(AnalyticMap(coeffs), r) == math.inf

    @settings(max_examples=60, deadline=None)
    # max |F'| = 1.7277e-322: Horner's rounding returned 1.7e-322, under
    # the float value 1.8e-322 of |F'| at a sampled point
    @example(coeffs=[0, 0, 0, 5e-324], scale=1.0, seed=0)
    @given(
        coeffs=st.lists(st.complex_numbers(max_magnitude=2.0), min_size=3, max_size=6),
        scale=st.floats(0.05, 3.0),
        seed=st.integers(0, 2**16),
    )
    def test_bounds_hold_at_disk_points(self, coeffs, scale, seed):
        ifs = IFSDescriptor((1 + 1j) / 2, (-scale, scale), (0.5, 0.5))
        radius = support_radius(ifs)
        f = AnalyticMap(tuple(coeffs))
        low, high = check_second_derivative(f, ifs)
        rng = np.random.default_rng(seed)
        u = np.r_[rng.random(256), 1.0, 1.0]
        z = radius * np.sqrt(u) * np.exp(2j * np.pi * rng.random(u.size))
        f1 = f.derivative()
        assert np.all(low <= np.abs(f1.derivative()(z)) * (1 + 1e-9))
        ceiling = (Fraction(high) * Fraction(1 + 1e-12)) ** 2
        assert all(exact_derivative_abs2(f, w) <= ceiling for w in z.tolist())


class TestPushforwardMeasure:
    def test_identity(self, complex_bernoulli):
        mu = finite_approximation(complex_bernoulli, 5)
        out = pushforward_measure(AnalyticMap((0.0, 1.0)), mu)
        assert np.array_equal(out.positions, mu.positions)

    def test_squares_collapse(self):
        mu = DiscreteMeasure(np.array([-1.0 + 0j, 1.0 + 0j]), np.array([0.5, 0.5]))
        out, _ = measures._merge_atoms(pushforward_measure(Z_SQUARED, mu), 0.0)
        assert out.n_atoms == 1 and out.positions[0] == 1.0 and out.weights[0] == 1.0

    def test_mass_preserved(self):
        rng = np.random.default_rng(2)
        w = rng.random(30)
        mu = DiscreteMeasure(rng.normal(size=30) + 1j * rng.normal(size=30), w / w.sum())
        f = AnalyticMap(tuple(rng.normal(size=4) + 1j * rng.normal(size=4)))
        out = pushforward_measure(f, mu)
        assert abs(out.weights.sum() - 1.0) < 1e-12

    def test_mixture_commutes(self):
        rng = np.random.default_rng(9)
        def rand(n, seed_shift):
            w = rng.random(n)
            return DiscreteMeasure(rng.normal(size=n) + 1j * rng.normal(size=n), w / w.sum())
        mu, nu = rand(12, 0), rand(8, 1)
        f = AnalyticMap((0.5, -1.0, 2.0j))
        mix = DiscreteMeasure(
            np.concatenate([mu.positions, nu.positions]),
            np.concatenate([0.3 * mu.weights, 0.7 * nu.weights]),
        )
        pushed_mix = pushforward_measure(f, mix)
        mix_pushed = DiscreteMeasure(
            np.concatenate([pushforward_measure(f, mu).positions,
                            pushforward_measure(f, nu).positions]),
            np.concatenate([0.3 * mu.weights, 0.7 * nu.weights]),
        )
        assert np.array_equal(pushed_mix.positions, mix_pushed.positions)
        assert np.array_equal(pushed_mix.weights, mix_pushed.weights)


class TestDecayProfile:
    def test_translation_invariance(self, complex_bernoulli):
        radii = [16.0, 32.0, 64.0]
        base = decay_profile(Z_SQUARED, complex_bernoulli, radii,
                             directions=48, approx_depth=10, seed=5)
        shifted = decay_profile(AnalyticMap((0.7 - 0.4j, 0.0, 1.0)),
                                complex_bernoulli, radii,
                                directions=48, approx_depth=10, seed=5)
        for a, b in zip(base.annulus_max, shifted.annulus_max):
            assert abs(a - b) < 1e-9

    def test_affine_control_reproduces_mu_hat_profile(self, complex_bernoulli):
        # F(z) = c1 z + c0 modulates by a phase and rotates frequencies,
        # so its profile equals the direct transform profile of mu itself
        c0, c1 = 0.3 + 0.2j, 0.8 - 0.1j
        radii = [16.0, 32.0, 64.0]
        prof = decay_profile(AnalyticMap((c0, c1)), complex_bernoulli, radii,
                             directions=48, approx_depth=10, seed=7)
        mu = finite_approximation(complex_bernoulli, 10)
        rng = np.random.default_rng(7)
        for t_rad, got in zip(radii, prof.annulus_max):
            ang = 2 * np.pi * np.arange(48) / 48
            ang = np.concatenate([ang, 2 * np.pi * (np.arange(48) + rng.random(48)) / 48])
            xi = np.conj(c1) * t_rad * np.exp(1j * ang)
            want = float(np.max(np.abs(fourier_sum(mu.positions, mu.weights, xi))))
            assert abs(got - want) < 1e-9

    def test_atom_profile_constant(self):
        mu = DiscreteMeasure.dirac(0.3 + 0.1j)
        vals = annulus_maxima(mu, [4.0, 8.0, 16.0], directions=16, seed=0)
        assert np.allclose(vals, 1.0, atol=1e-12)

    @pytest.mark.parametrize("directions", [0, -3])
    def test_no_directions_refused(self, directions):
        mu = DiscreteMeasure.dirac(0.3 + 0.1j)
        with pytest.raises(DomainError):
            annulus_maxima(mu, [4.0, 8.0, 16.0], directions=directions)

    def test_certification_required(self, complex_bernoulli):
        with pytest.raises(DomainError):
            decay_profile(AnalyticMap((0, 0, 0, 1.0)), complex_bernoulli,
                          [8.0, 16.0, 32.0], directions=16, approx_depth=6)

    @pytest.mark.parametrize("coeffs", [(0.0, 0.0, 0.0), (1.0,), (0.3 - 2j, 0.0)])
    def test_constant_map_refused_before_any_tower(self, complex_bernoulli, monkeypatch,
                                                   coeffs):
        # F_# mu is a point mass: |transform| = 1 everywhere, no decay to predict
        def no_tower(*args, **kwargs):
            raise AssertionError("tower built")

        monkeypatch.setattr(pushforward, "split_pushforward", no_tower)
        monkeypatch.setattr(pushforward, "finite_approximation", no_tower)
        monkeypatch.setattr(pushforward, "frostman_estimate", no_tower)
        with pytest.raises(DomainError, match="constant map"):
            decay_profile(AnalyticMap(coeffs), complex_bernoulli, [1.0, 2.0, 4.0],
                          directions=4, approx_depth=5)

    def test_outside_both_regimes_predicts_nothing(self, bernoulli_half):
        # real lambda with collinear digits: no covering bound, so only the
        # trivial exponent-0 guarantee is reported
        prof = decay_profile(Z_SQUARED, bernoulli_half, [1.0, 2.0, 4.0],
                             directions=8, approx_depth=6, atom_budget=4096)
        assert (prof.predicted_exponent, prof.epsilon_used, prof.delta_used) == (0, 0, 0)
        assert prof.frostman_s > 0.0

    def test_slope_negative_small_scale(self, complex_bernoulli):
        # scaled-down version of the acceptance run: genuine decay is
        # visible once the atomization floor sits below the first annuli
        radii = [2.0**k for k in range(2, 9)]
        prof = decay_profile(Z_SQUARED, complex_bernoulli, radii,
                             directions=64, approx_depth=16, seed=3)
        assert prof.slope < -0.01
        assert prof.predicted_exponent >= 0.0
        assert prof.min_abs_f2 == pytest.approx(2.0, abs=1e-12)


class TestSplitPushforward:
    def test_identity_equality_and_hash(self, complex_bernoulli):
        # records of arrays compare and hash by identity, not by value
        split = split_pushforward(Z_SQUARED, complex_bernoulli, 6)
        for record in (split, *split.trees):
            assert record == record and len({record, record}) == 1
        assert split != split_pushforward(Z_SQUARED, complex_bernoulli, 6)

    @pytest.mark.parametrize("coeffs, lattice, depth", [
        ((0.0, 0.0, 1.0), False, 12),
        ((0.3 - 0.1j, 0.8 + 0.5j, 1.2 - 0.4j), False, 12),
        ((0.4 - 0.3j, 0.9 + 0.2j), False, 11),
        ((0.1j, -0.5, 1.0 + 0.3j), True, 9),
    ], ids=["z_squared", "quadratic", "affine", "lattice"])
    def test_matches_direct_sum_on_merged_tower(self, complex_bernoulli,
                                                coeffs, lattice, depth):
        ifs = LATTICE if lattice else complex_bernoulli
        f = AnalyticMap(coeffs)
        tower = finite_approximation(ifs, depth)
        pushed = pushforward_measure(f, tower)
        split = split_pushforward(f, ifs, depth)
        radii = [4.0, 16.0, 64.0, 256.0]
        got = annulus_maxima(split, radii, directions=32, seed=3)
        want = annulus_maxima(pushed, radii, directions=32, seed=3)
        assert np.max(np.abs(got - want)) < 1e-12
        rng = np.random.default_rng(11)
        xi = 256.0 * np.sqrt(rng.random(64)) * np.exp(2j * np.pi * rng.random(64))
        want = fourier_sum(pushed.positions, pushed.weights, xi)
        assert np.max(np.abs(split.transform(xi) - want)) < 1e-12
        if lattice:
            assert tower.n_atoms < split.n_terms < ifs.m**depth

    @pytest.mark.parametrize("coeffs", [(0.3 - 0.1j, 0.8 + 0.5j, 1.2 - 0.4j),
                                        (0.4 - 0.3j, 0.9 + 0.2j)], ids=["quadratic", "affine"])
    @pytest.mark.parametrize("system, depth", [("lattice", 11), ("complex_bernoulli", 14)])
    def test_lane_bits_independent_of_batch(self, request, coeffs, system, depth):
        # 75 lanes span several frequency chunks of the quadratic branch
        ifs = LATTICE if system == "lattice" else request.getfixturevalue(system)
        split = split_pushforward(AnalyticMap(coeffs), ifs, depth)
        rng = np.random.default_rng(5)
        xi = 64.0 * np.sqrt(rng.random(75)) * np.exp(2j * np.pi * rng.random(75))
        batch = split.transform(xi)
        for i, x in enumerate(xi):
            assert split.transform(x).tobytes() == batch[i].tobytes()
            prefix = split.transform(np.r_[xi[:6], x])
            assert prefix[6].tobytes() == batch[i].tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        modulus=st.floats(0.4, 0.8),
        angle=st.floats(0.0, 2 * math.pi),
        digits=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=2, max_size=3),
        coeffs=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=3, max_size=3),
        c2_modulus=st.floats(0.1, 1.0),
        depth=st.integers(6, 10),
        seed=st.integers(0, 2**16),
    )
    def test_matches_direct_sum_property(self, modulus, angle, digits, coeffs,
                                         c2_modulus, depth, seed):
        # within the decay_profile docstring's bound
        # 2 pi |xi| max|F'| (depth merge_tol + displacement), plus 1e-12
        ifs = IFSDescriptor(modulus * np.exp(1j * angle), tuple(digits),
                            (1 / len(digits),) * len(digits))
        c0, c1, c2 = coeffs
        c2 = c2_modulus * np.exp(1j * np.angle(c2))
        f = AnalyticMap((c0, c1, c2))
        split = split_pushforward(f, ifs, depth)
        pushed = pushforward_measure(f, finite_approximation(ifs, depth))
        rng = np.random.default_rng(seed)
        xi = 64.0 * np.sqrt(rng.random(16)) * np.exp(2j * np.pi * rng.random(16))
        got = split.transform(xi)
        want = fourier_sum(pushed.positions, pushed.weights, xi)
        radius = support_radius(ifs)
        lipschitz = abs(c1) + 2 * abs(c2) * (radius + split.displacement)
        merge_tol = 1e-12 * max(radius, 1.0)
        bound = 2 * math.pi * np.abs(xi) * lipschitz * (
            depth * merge_tol + split.displacement)
        assert np.all(np.abs(got - want) <= bound + 1e-12)

    def test_cubic_runs_through_direct_sum(self, complex_bernoulli):
        f = AnalyticMap((1000.0, 300.0, 30.0, 1.0))  # (z + 10)^3, F'' != 0 on the support
        with pytest.raises(DomainError):
            split_pushforward(f, complex_bernoulli, 8)
        radii = [4.0, 8.0, 16.0]
        prof = decay_profile(f, complex_bernoulli, radii,
                             directions=16, approx_depth=8, seed=2)
        pushed = pushforward_measure(f, finite_approximation(complex_bernoulli, 8))
        assert prof.annulus_max == tuple(annulus_maxima(pushed, radii, 16, seed=2))

    @pytest.mark.parametrize("depth", [0, 1, 2, 9, 13])
    def test_one_tower_walk(self, monkeypatch, depth):
        # every block and both digit trees come from one walk of
        # k = ceil(depth / 3) levels, and each block is bit for bit the
        # tower of its own depth
        walks = []
        levels = pushforward.tower_levels

        def counting(ifs, n, atom_budget=None):
            walks.append(n)
            return levels(ifs, n, atom_budget)

        monkeypatch.setattr(pushforward, "tower_levels", counting)
        split = split_pushforward(Z_SQUARED, LATTICE, depth)
        k = -(-depth // 3)
        a = -(-(depth - k) // 2)
        assert walks == [k]
        for block, (start, n) in zip(split.blocks, ((0, k), (k, a), (k + a, depth - k - a))):
            want = finite_approximation(LATTICE, n)
            assert block.positions.tobytes() == (want.positions * LATTICE.lam**start).tobytes()
            assert block.weights.tobytes() == want.weights.tobytes()
        assert [t.points.size for t in split.trees] == [b.n_atoms for b in split.blocks[:2]]

    @pytest.mark.parametrize("depth", [-1, -2, -3])
    def test_negative_depth_refused(self, depth):
        # -1 and -2 walk k = 0 levels, so the refusal cannot come from the walk
        with pytest.raises(DomainError, match="depth"):
            split_pushforward(Z_SQUARED, LATTICE, depth)
        with pytest.raises(DomainError, match="depth"):
            decay_profile(Z_SQUARED, LATTICE, [4.0, 8.0, 16.0], directions=8,
                          approx_depth=depth)

    def test_split_over_budget_uses_merged_tower(self):
        # 25^3 split terms exceed the budget while the merged depth-9 tower
        # (about 3e3 atoms) fits it, so the profile is the direct sum's
        f = AnalyticMap((0.1j, -0.5, 1.0 + 0.3j))
        assert split_pushforward(f, LATTICE, 9).n_terms > 10**4
        radii = [4.0, 8.0, 16.0]
        prof = decay_profile(f, LATTICE, radii, directions=16, approx_depth=9,
                             seed=2, atom_budget=10**4)
        pushed = pushforward_measure(f, finite_approximation(LATTICE, 9))
        assert prof.annulus_max == tuple(annulus_maxima(pushed, radii, 16, seed=2))


def gathered_coupling(tree, alpha, cols, start):
    """The coupling loop that gathers one table per digit, kept as an oracle.

    Each level exponentiates a lanes x m x W table, one row per digit, and
    gathers it by the rows' digits.
    """
    out = start
    for (parent, digit), step in zip(tree.levels, tree.steps):
        table = np.exp(2j * np.pi * ((alpha[:, None] * step)[:, :, None] * cols).real)
        out = out[:, parent, :]
        out *= table[:, digit, :]
    return out


def unpaired_annulus_maxima(transform, radii, directions, seed):
    """Annulus maxima that evaluate every equispaced angle, kept as an oracle."""
    rng = np.random.default_rng(seed)
    out = []
    for t_rad in radii:
        sectors = np.arange(directions)
        angles = 2.0 * np.pi * np.r_[sectors, sectors + rng.random(directions)] / directions
        out.append(float(np.max(np.abs(transform(t_rad * np.exp(1j * angles))))))
    return np.array(out)


def pairing_move(radii, max_f):
    """How far pairing may move a circle's maximum at radius T: -xi_s and
    the equispaced frequency it stands for differ by a few ulps of T, and
    |FT| is 2 pi max|F|-Lipschitz in xi, with each evaluation's rounding of
    the same order; 8 ulps of T in all."""
    return 2.0 * np.pi * max_f * 8.0 * np.finfo(float).eps * np.asarray(radii)


@st.composite
def signed_systems(draw):
    """Systems whose digits mix w with -w, the digit 0 and a repeated digit."""
    base = draw(st.lists(st.complex_numbers(min_magnitude=0.05, max_magnitude=1.0),
                         min_size=1, max_size=2))
    digits = [*base, *(-w for w in base if draw(st.booleans()))]
    if draw(st.booleans()):
        digits.append(0.0)
    if draw(st.booleans()) or len(digits) < 2:
        digits.append(base[-1])
    lam = cmath.rect(draw(st.floats(0.3, 0.8)), draw(st.floats(0.1, math.pi - 0.1)))
    return IFSDescriptor(lam, tuple(digits), (1 / len(digits),) * len(digits))


def random_frequencies(seed, n, radius):
    rng = np.random.default_rng(seed)
    return radius * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


# the benchmark's quad push: LATTICE at depth 11, radii "1:16:9", 48 directions;
# its affine control's radii
BENCH_RADII = [2.0 ** (k / 2) for k in range(9)]
CONTROL_RADII = [16.0, 64.0, 256.0]
SIGNED = {
    "bench-quad": (LATTICE, 11),
    "criterion-11": (IFSDescriptor((1 + 1j) / 2, (-1.0, 1.0), (0.5, 0.5)), 16),
    "nine-digit": (IFSDescriptor(0.5j, tuple(complex(a, b) for a in (-1, 0, 1)
                                             for b in (-1, 0, 1)), (1 / 9,) * 9), 6),
    "equal-digits": (IFSDescriptor(0.6 + 0.3j, (1.0, -1.0, 0.5j, 1.0), (0.25,) * 4), 8),
}


class TestSymmetries:
    @settings(max_examples=40, deadline=None)
    # an exactly real transform: conj turns its +0.0 imaginary parts into
    # -0.0, which equal the +0.0 of the transform at -xi as values
    @example(ifs=IFSDescriptor(0.2701511529340699 + 0.42073549240394825j, (1 + 0j, -1 + 0j),
                               (0.5, 0.5)),
             coeffs=[0j, 1 + 0j, 2.2250738585072014e-308 + 0j], affine=False, depth=3, seed=0)
    @given(
        ifs=signed_systems(),
        coeffs=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=3, max_size=3),
        affine=st.booleans(),
        depth=st.integers(3, 9),
        seed=st.integers(0, 2**16),
    )
    def test_transform_conjugate_at_minus_xi(self, ifs, coeffs, affine, depth, seed):
        # FT(F_# mu_D)(-xi) = conj FT(F_# mu_D)(xi) exactly, on the quadratic
        # split and on the affine one; -0.0 == 0.0, since outputs read moduli
        c0, c1, c2 = coeffs
        f = AnalyticMap((c0, c1) if affine else (c0, c1, c2 or 1.0))
        split = split_pushforward(f, ifs, depth)
        xi = random_frequencies(seed, 24, 64.0)
        assert np.array_equal(split.transform(-xi), np.conj(split.transform(xi)))

    @settings(max_examples=40, deadline=None)
    @given(n_atoms=st.integers(1, 300), scale=st.floats(0.1, 100.0),
           seed=st.integers(0, 2**16))
    def test_fourier_sum_conjugate_at_minus_xi(self, n_atoms, scale, seed):
        rng = np.random.default_rng(seed)
        pos = scale * (rng.normal(size=n_atoms) + 1j * rng.normal(size=n_atoms))
        wts = rng.uniform(0.1, 1.0, n_atoms)
        xi = random_frequencies(seed + 1, 40, 64.0)
        assert np.array_equal(fourier_sum(pos, wts, -xi), np.conj(fourier_sum(pos, wts, xi)))

    @pytest.mark.parametrize("system", SIGNED)
    @pytest.mark.parametrize("coeffs", [(0.0, 0.0, 1.0), (0.3 - 0.1j, 0.8 + 0.5j, 1.2 - 0.4j)],
                             ids=["z_squared", "quadratic"])
    def test_coupling_matches_gathered_tables(self, system, coeffs):
        ifs, depth = SIGNED[system]
        split = split_pushforward(AnalyticMap(coeffs), ifs, depth)
        tree_u, tree_v1 = split.trees
        xi = random_frequencies(7, 12, 48.0)
        alpha = 2.0 * coeffs[2] * np.conj(xi)
        v2 = split.blocks[2].positions
        for tree, cols in ((tree_u, np.concatenate([tree_v1.points, v2])), (tree_v1, v2)):
            start = np.exp(2j * np.pi * np.random.default_rng(3).random((xi.size, 1, cols.size)))
            got = tree.coupling(alpha, cols, start)
            assert got.tobytes() == gathered_coupling(tree, alpha, cols, start).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(ifs=signed_systems(), depth=st.integers(3, 9), seed=st.integers(0, 2**16))
    def test_coupling_matches_gathered_tables_property(self, ifs, depth, seed):
        split = split_pushforward(AnalyticMap((0.2, -0.4j, 0.9 + 0.3j)), ifs, depth)
        tree_u, tree_v1 = split.trees
        alpha = 2.0 * (0.9 + 0.3j) * np.conj(random_frequencies(seed, 5, 64.0))
        cols = np.concatenate([tree_v1.points, split.blocks[2].positions])
        start = np.ones((alpha.size, 1, cols.size), dtype=np.complex128)
        got = tree_u.coupling(alpha, cols, start)
        assert got.tobytes() == gathered_coupling(tree_u, alpha, cols, start).tobytes()

    def test_sign_classes(self):
        # one table per distinct nonzero digit up to sign; rows index
        # [1, the tables, their conjugates]
        reps, signs = pushforward._sign_classes(LATTICE.digits)  # -1, 0, 1
        assert reps.tolist() == [0] and signs.tolist() == [1, 0, 2]
        reps, signs = pushforward._sign_classes(SIGNED["equal-digits"][0].digits)  # 1, -1, 0.5i, 1
        assert reps.tolist() == [0, 2] and signs.tolist() == [1, 3, 2, 1]
        reps, signs = pushforward._sign_classes((1.0, 1j, 0.5))
        assert reps.tolist() == [0, 1, 2] and signs.tolist() == [1, 2, 3]
        split = split_pushforward(Z_SQUARED, LATTICE, 11)
        assert all(np.array_equal(t.signs, [1, 0, 2]) for t in split.trees)

    @pytest.mark.parametrize("radii", [BENCH_RADII, CONTROL_RADII], ids=["bench", "control"])
    @pytest.mark.parametrize("system", ["bench-quad", "criterion-11", "nine-digit"])
    @pytest.mark.parametrize("directions", [48, 47, 2, 1])
    def test_annulus_maxima_match_unpaired(self, system, directions, radii):
        # even directions sample the second half of the equispaced angles at
        # -xi_s, within a few ulps of T of their own frequencies; odd ones are
        # unchanged
        ifs, depth = SIGNED[system]
        split = split_pushforward(Z_SQUARED, ifs, depth)
        got = annulus_maxima(split, radii, directions, seed=5)
        want = unpaired_annulus_maxima(split.transform, radii, directions, seed=5)
        if directions % 2:
            assert got.tobytes() == want.tobytes()
        else:
            reach = sum(np.max(np.abs(b.positions)) for b in split.blocks) + split.displacement
            assert np.all(np.abs(got - want) <= pairing_move(radii, reach**2))

    @pytest.mark.parametrize("radii", [BENCH_RADII, CONTROL_RADII], ids=["bench", "control"])
    @pytest.mark.parametrize("directions", [32, 31])
    def test_direct_sum_maxima_match_unpaired(self, complex_bernoulli, directions, radii):
        mu = pushforward_measure(AnalyticMap((0.4 - 0.3j, 0.9 + 0.2j)),
                                 finite_approximation(complex_bernoulli, 8))
        got = annulus_maxima(mu, radii, directions, seed=8)
        want = unpaired_annulus_maxima(partial(fourier_sum, mu.positions, mu.weights),
                                       radii, directions, seed=8)
        if directions % 2:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.all(np.abs(got - want) <= pairing_move(radii, np.max(np.abs(mu.positions))))

    def test_work_count_on_the_bench_quad(self, monkeypatch):
        # 48 directions: 24 equispaced and 48 jittered frequencies per circle
        # (96 without the pairs), and one table per tree level, that of the
        # digit -1 (3 with a table per digit)
        split = split_pushforward(Z_SQUARED, LATTICE, 11)
        sizes, exponentials = [], []
        transform, e = pushforward.SplitPushforward.transform, pushforward._e

        def counting_transform(self, xi):
            sizes.append(np.size(xi))
            return transform(self, xi)

        def counting_e(phase):
            exponentials.append(np.size(phase))
            return e(phase)

        monkeypatch.setattr(pushforward.SplitPushforward, "transform", counting_transform)
        monkeypatch.setattr(pushforward, "_e", counting_e)
        annulus_maxima(split, BENCH_RADII, 48, seed=1)
        assert sizes == [72] * 9
        u, v1, v2 = (b.n_atoms for b in split.blocks)
        k, a = (len(t.levels) for t in split.trees)
        # per frequency: the phases of F(u) and of the columns v1, v2, then
        # one lanes x W table per level of the u tree (W = V1 + V2) and of
        # the v1 tree (W = V2)
        assert sum(exponentials) == sum(sizes) * (u + v1 + v2 + k * (v1 + v2) + a * v2)


def sampled_frostman(ifs, seed=0, atom_budget=None):
    """The former ball-counting Frostman estimator, kept as an oracle.

    Regresses log max ball mass over up to 128 centres sampled from the
    tower on log r, r = R 2^-k for k = 2..8, on the tower that
    ``frostman_estimate`` builds.
    """
    budget = 2 * 10**6 if atom_budget is None else atom_budget
    mu = finite_approximation(ifs, max(3, int(math.log(budget) / math.log(ifs.m))), budget)
    radii = sorted(support_radius(ifs) * 2.0**-k for k in range(2, 9))
    rng = np.random.default_rng(seed)
    centers = mu.positions[rng.choice(mu.n_atoms, size=min(128, mu.n_atoms), replace=False)]
    tree = cKDTree(np.column_stack([mu.positions.real, mu.positions.imag]))
    best = [max(mu.weights[tree.query_ball_point([c.real, c.imag], r)].sum() for c in centers)
            for r in radii]
    slope = np.polyfit(np.log(radii), np.log(best), 1)[0]
    return max(float(slope), 0.0)


# ROADMAP item 5's table: twin dragon and lambda = 0.5+0.3i, biased and unbiased
TABLE = [((1 + 1j) / 2, (0.9, 0.1)), ((1 + 1j) / 2, (0.5, 0.5)),
         (0.5 + 0.3j, (0.8, 0.2)), (0.5 + 0.3j, (0.5, 0.5))]
TABLE_IDS = ["twin-dragon-biased", "twin-dragon", "lambda-0.5+0.3i-biased", "lambda-0.5+0.3i"]


def frostman_ceiling(lam, probs) -> float:
    """min(2, log p_max / log|lam|).

    The cylinder of n heaviest digits has mass p_max^n and diameter
    2R|lam|^n, so a few cells of side about |lam|^n share that mass.
    """
    return min(2.0, math.log(max(probs)) / math.log(abs(lam)))


class TestFrostman:
    def test_square(self, unit_square):
        s = frostman_estimate(unit_square)
        assert abs(s - 2.0) <= 0.15

    def test_sierpinski(self, sierpinski):
        s = frostman_estimate(sierpinski)
        assert abs(s - LOG3_LOG2) <= 0.15

    @pytest.mark.parametrize("lam, probs", TABLE, ids=TABLE_IDS)
    def test_within_hard_bound(self, lam, probs):
        ifs = IFSDescriptor(lam, (-1.0, 1.0), probs)
        assert frostman_estimate(ifs) <= frostman_ceiling(lam, probs)

    @pytest.mark.parametrize("lam, probs", [TABLE[0], TABLE[2]], ids=[TABLE_IDS[0], TABLE_IDS[2]])
    def test_sampled_oracle_breaks_hard_bound(self, lam, probs):
        # 128 random centres rarely meet the heavy cells of a biased
        # measure, so the sampled fit reads far above the ceiling
        ifs = IFSDescriptor(lam, (-1.0, 1.0), probs)
        assert sampled_frostman(ifs, atom_budget=2**16) > frostman_ceiling(lam, probs)

    def test_nonnegative_and_atomic_rejected(self):
        from ssfourier import IFSDescriptor

        atomic = IFSDescriptor(0.5, (1.0, 1.0), (0.5, 0.5))
        with pytest.raises(DomainError):
            frostman_estimate(atomic)


@pytest.mark.parametrize("radii", [
    pytest.param([4.0, 8.0], id="two-radii"),
    pytest.param([4.0, 8.0, 8.0], id="repeated-radius"),
    pytest.param([4.0, 16.0, 8.0], id="decreasing-radius"),
    pytest.param([2.0, math.nan, 8.0], id="nan-radius"),
    pytest.param([0.0, 4.0, 8.0], id="zero-radius"),
    pytest.param([-1.0, 4.0, 8.0], id="negative-radius"),
    pytest.param([4.0, 8.0, math.inf], id="inf-radius"),
])
def test_decay_profile_refuses_radii(radii):
    with pytest.raises(DomainError, match="radii"):
        decay_profile(Z_SQUARED, LATTICE, radii, directions=8, approx_depth=4)


@pytest.mark.parametrize("coeffs, radius", [
    pytest.param((0.0, 0.0, 1.0), 1e308, id="z-squared"),
    pytest.param((0.4 - 0.3j, 0.9 + 0.2j), 1e308, id="affine"),
    pytest.param((0.0, 0.0, 1.0, 0.01), 1e307, id="cubic"),
])
def test_decay_profile_refuses_overflowing_radius(complex_bernoulli, coeffs, radius):
    # these phases overflowed into NaN in the coupling tables, the affine
    # branch's exponentials and the direct sum, before the bound refused them
    with pytest.raises(DomainError, match=re.escape(f"radius {radius!r} is too large")):
        decay_profile(AnalyticMap(coeffs), complex_bernoulli, [1.0, 2.0, radius],
                      directions=8, approx_depth=6, atom_budget=4096)


def test_decay_profile_runs_at_huge_finite_phase(complex_bernoulli):
    prof = decay_profile(Z_SQUARED, complex_bernoulli, [1.0, 2.0, 1e300],
                         directions=8, approx_depth=6, atom_budget=4096)
    assert all(math.isfinite(v) for v in (*prof.annulus_max, prof.slope))
