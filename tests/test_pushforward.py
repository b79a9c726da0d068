import math

import numpy as np
import pytest
from hypothesis import given, settings
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
from ssfourier.pushforward import _ball_masses, split_pushforward

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


class TestSecondDerivativeCheck:
    def test_z_squared_constant(self, complex_bernoulli):
        min_f2, max_f2, max_f1 = check_second_derivative(Z_SQUARED, complex_bernoulli)
        assert min_f2 == pytest.approx(2.0, abs=1e-12)
        assert max_f2 == pytest.approx(2.0, abs=1e-12)
        radius = support_radius(complex_bernoulli)
        assert max_f1 == pytest.approx(2 * radius, rel=0.01)

    def test_z_cubed_vanishes_inside(self, complex_bernoulli):
        # F'' = 6z has a zero at the origin, inside the support disk: the
        # sampled minimum sits at the innermost spiral point, ~R/sqrt(n)
        f = AnalyticMap((0, 0, 0, 1.0))
        min_f2, _, _ = check_second_derivative(f, complex_bernoulli, samples=4096)
        radius = support_radius(complex_bernoulli)
        assert min_f2 <= 6 * radius * math.sqrt(1.0 / 4096)
        fine, _, _ = check_second_derivative(f, complex_bernoulli, samples=65536)
        assert fine < min_f2  # refines toward the true zero


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


def reference_ball_masses(positions, weights, centers, radii):
    """The cKDTree ball masses that the x-sorted ball count replaced."""
    tree = cKDTree(np.column_stack([positions.real, positions.imag]))
    return np.array([
        [weights[tree.query_ball_point([c.real, c.imag], r)].sum() for r in radii]
        for c in centers
    ])


class TestBallMassOracle:
    def test_square_counts(self, unit_square):
        # lattice atoms: many lie on a circle of radius r up to rounding
        mu = finite_approximation(unit_square, 8)
        radii = sorted(support_radius(unit_square) * 2.0**-k for k in range(2, 9))
        rng = np.random.default_rng(4)
        centers = mu.positions[rng.choice(mu.n_atoms, 128, replace=False)]
        ones = np.ones(mu.n_atoms)
        got = _ball_masses(mu.positions, ones, centers, radii)
        want = reference_ball_masses(mu.positions, ones, centers, radii)
        assert np.array_equal(got, want)
        diff = mu.positions[None, :] - centers[:16, None]
        d2 = diff.real * diff.real + diff.imag * diff.imag
        ties = sum(np.isclose(d2, r * r, rtol=1e-12, atol=0.0).sum() for r in radii)
        assert ties > 50

    @pytest.mark.parametrize(
        "system, budget", [("unit_square", 4**7), ("complex_bernoulli", 2**14)]
    )
    def test_estimate_matches_oracle(self, request, system, budget, monkeypatch):
        # dyadic weights: every ball mass is exact, whatever the order
        ifs = request.getfixturevalue(system)
        got = frostman_estimate(ifs, seed=3, atom_budget=budget)
        monkeypatch.setattr(pushforward, "_ball_masses", reference_ball_masses)
        assert got == frostman_estimate(ifs, seed=3, atom_budget=budget)


class TestFrostman:
    def test_square(self, unit_square):
        s = frostman_estimate(unit_square, seed=4)
        assert abs(s - 2.0) <= 0.15

    def test_sierpinski(self, sierpinski):
        s = frostman_estimate(sierpinski, seed=4)
        assert abs(s - LOG3_LOG2) <= 0.15

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
