import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssfourier import dimensions, measures
from ssfourier import (
    DecayBound,
    DiscreteMeasure,
    DomainError,
    IFSDescriptor,
    alpha_estimate,
    dim_inf_estimate,
    dim_q_estimate,
    energy_integral,
    finite_approximation,
    lq_moment,
    solve_flattening_epsilon,
)

from conftest import reference_min_gap

LOG3_LOG2 = math.log(3) / math.log(2)


def dyadic_cells(mu: DiscreteMeasure, level: int, shift: complex = 0.0):
    """Oracle binning: the occupied cells [i, i+1) x [j, j+1) / 2^level of
    mu + shift, one level from scratch.

    Returns the cells as complex keys i + j*1j in lexicographic (i, j)
    order, and their masses, added up in atom order.  Floored coordinates
    are exact floats, so the keys are exact at every level.
    """
    scale = 2.0**level
    pos = mu.positions + shift
    keys = np.floor(pos.real * scale) + 1j * np.floor(pos.imag * scale)
    cells, inverse = np.unique(keys, return_inverse=True)
    return cells, np.bincount(inverse, weights=mu.weights, minlength=cells.size)


def segment_measure(n=4096):
    """Equal atoms on [0, 1]: a dim-1 test measure."""
    xs = (np.arange(n) + 0.5) / n
    return DiscreteMeasure(xs.astype(complex), np.full(n, 1.0 / n))


class TestLqMoment:
    def test_single_atom(self):
        mu = DiscreteMeasure.dirac(0.3 + 0.7j)
        for n in (0, 3, 6):
            for q in (1.5, 2.0, 4.0):
                assert lq_moment(mu, n, q) == pytest.approx(1.0, abs=1e-15)

    def test_four_uniform_cells(self):
        # one atom in each level-1 cell of the unit square
        pos = np.array([0.25 + 0.25j, 0.75 + 0.25j, 0.25 + 0.75j, 0.75 + 0.75j])
        mu = DiscreteMeasure(pos, np.full(4, 0.25))
        assert lq_moment(mu, 1, 2.0) == pytest.approx(0.25, abs=1e-15)

    def test_nonincreasing_in_level(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            n = 200
            w = rng.random(n)
            mu = DiscreteMeasure(
                rng.random(n) + 1j * rng.random(n), w / w.sum()
            )
            vals = [lq_moment(mu, lvl, 2.0) for lvl in range(8)]
            assert np.all(np.diff(vals) <= 1e-12)

    def test_range(self):
        mu = segment_measure(256)
        for lvl in range(6):
            assert 0.0 < lq_moment(mu, lvl, 2.0) <= 1.0

    def test_histogram_mass(self):
        mu = segment_measure(256)
        (masses,) = dimensions._dyadic_masses(mu, [3])
        assert abs(masses.sum() - 1.0) < 1e-10
        assert masses.size <= 4**3 + 4 * 2**3  # cells meeting the segment

    def test_preconditions(self):
        mu = segment_measure(16)
        with pytest.raises(DomainError):
            lq_moment(mu, 2, 1.0)
        with pytest.raises(DomainError):
            lq_moment(mu, -1, 2.0)


# coordinates: a float in a wide or a narrow range, or a dyadic rational
# on a cell edge of some level; a spread of 2^13 at level 60 spans 2^73
# cells, and narrow clouds share coarse cells between many fine ones
COORDS = st.one_of(
    st.floats(-4096.0, 4096.0),
    st.floats(-2.0, 2.0),
    st.builds(lambda k, e: k * 2.0**-e, st.integers(-2**12, 2**12), st.integers(0, 60)),
)


@st.composite
def atom_clouds(draw):
    """Measures whose atoms repeat, sit on cell edges and have negative coordinates."""
    distinct = draw(st.lists(st.tuples(COORDS, COORDS), min_size=1, max_size=12))
    picks = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=40))
    wts = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(picks),
                                 max_size=len(picks))))
    pos = np.array([complex(x, y) for x, y in picks])
    return DiscreteMeasure(pos, wts / wts.sum())


class TestDyadicMasses:
    """The one binning routine against the oracle that bins each level from scratch."""

    @settings(max_examples=150, deadline=None)
    @given(mu=atom_clouds(),
           levels=st.lists(st.integers(0, 60), min_size=1, max_size=8, unique=True))
    def test_bit_equal_to_binning_each_level(self, mu, levels):
        levels = sorted(levels)
        for shift in (0.0, dimensions._SHIFT):
            got = dimensions._dyadic_masses(mu, levels, shift)
            assert len(got) == len(levels)
            for n, masses in zip(levels, got):
                want = dyadic_cells(mu, n, shift)[1]
                assert masses.tobytes() == want.tobytes(), (n, shift)

    def test_levels_down_from_the_largest(self):
        # 2^1023 scales the shifted atoms (|x| < 2) to near the float
        # maximum, and level 0 floor-scales the top cells by 2^-1023, a
        # subnormal
        rng = np.random.default_rng(7)
        pos = rng.uniform(-1.9, 1.3, 300) + 1j * rng.uniform(-1.9, 1.3, 300)
        mu = DiscreteMeasure(pos, np.full(300, 1 / 300))
        levels = [0, 1, 52, 53, 54, 500, 1022, 1023]
        for shift in (0.0, dimensions._SHIFT):
            for n, masses in zip(levels, dimensions._dyadic_masses(mu, levels, shift)):
                assert masses.tobytes() == dyadic_cells(mu, n, shift)[1].tobytes()

    def test_overflow_refused(self):
        mu = DiscreteMeasure.dirac(0.3 - 0.2j)
        with pytest.raises(DomainError, match="above 1023"):
            dimensions._dyadic_masses(mu, [2, 1024])
        with pytest.raises(DomainError, match="cell index overflows"):
            dimensions._dyadic_masses(DiscreteMeasure.dirac(-1e307j), [8])


class TestDimEstimates:
    def test_uniform_square(self, unit_square):
        mu = finite_approximation(unit_square, 8)
        d2, err2 = dim_q_estimate(mu, 2.0, 1, 8)
        assert abs(d2 - 2.0) <= 0.1
        dinf, _ = dim_inf_estimate(mu, 1, 8)
        assert abs(dinf - 2.0) <= 0.15

    def test_sierpinski(self, sierpinski):
        mu = finite_approximation(sierpinski, 10)
        d2, _ = dim_q_estimate(mu, 2.0, 1, 8)
        assert abs(d2 - LOG3_LOG2) <= 0.1

    def test_single_atom_zero(self):
        mu = DiscreteMeasure.dirac(0.2 + 0.1j)
        d2, _ = dim_q_estimate(mu, 2.0, 1, 6)
        assert d2 == pytest.approx(0.0, abs=1e-12)
        dinf, _ = dim_inf_estimate(mu, 1, 6)
        assert dinf == pytest.approx(0.0, abs=1e-12)

    def test_diminf_below_dim2(self, sierpinski):
        # sparse-support measures; the full square is excluded because the
        # conservative shifted-anchor rule biases dim2 low by ~0.1 there
        from ssfourier import IFSDescriptor

        sparse = IFSDescriptor(0.45, (0.0, 1.0, 1j), (0.4, 0.3, 0.3))
        for ifs, depth in ((sierpinski, 9), (sparse, 8)):
            mu = finite_approximation(ifs, depth)
            d2, _ = dim_q_estimate(mu, 2.0, 1, 7)
            dinf, _ = dim_inf_estimate(mu, 1, 7)
            assert dinf <= d2 + 0.05

    def test_q_monotonicity(self, sierpinski):
        mu = finite_approximation(sierpinski, 9)
        estimates = [dim_q_estimate(mu, q, 1, 7)[0] for q in (1.5, 2.0, 4.0)]
        estimates.append(dim_inf_estimate(mu, 1, 7)[0])
        for a, b in zip(estimates, estimates[1:]):
            assert b <= a + 0.05

    def test_translation_invariance(self, sierpinski):
        mu = finite_approximation(sierpinski, 9)
        shifted = DiscreteMeasure(mu.positions + (0.37 - 1.2j), mu.weights)
        d2a, _ = dim_q_estimate(mu, 2.0, 1, 7)
        d2b, _ = dim_q_estimate(shifted, 2.0, 1, 7)
        assert abs(d2a - d2b) <= 0.05

    def test_degenerate_range(self, sierpinski):
        mu = finite_approximation(sierpinski, 4)
        with pytest.raises(DomainError):
            dim_q_estimate(mu, 2.0, 1, 20)  # resolution cap leaves enough...
        with pytest.raises(DomainError):
            dim_q_estimate(mu, 2.0, 5, 6)   # too few levels outright


def oracle_cap(mu, n_max):
    """min(n_max, floor(-log2(4 gap) - 1e-9)) with the cKDTree gap; n_max for one position."""
    gap = reference_min_gap(mu)
    if gap is None:
        return n_max
    return min(n_max, math.floor(-math.log2(4.0 * gap) - 1e-9))


def fresh(mu):
    """The same atoms in a new measure, so no cap is kept from an earlier call."""
    return DiscreteMeasure(mu.positions, mu.weights)


def query_levels(monkeypatch) -> list[int]:
    """The levels the threshold query ``_close_d2`` is asked, in call order."""
    asked = []
    query = dimensions._close_d2
    monkeypatch.setattr(dimensions, "_close_d2",
                        lambda x, y, level: asked.append(level) or query(x, y, level))
    return asked


def distinct(x, y):
    """The distinct positions (x, y), in (x, y) order."""
    first = measures.distinct_positions(x, y)[1]
    return x[first], y[first]


def equal_weights(pts):
    pts = np.asarray(pts, dtype=complex)
    return DiscreteMeasure(pts, np.full(pts.size, 1.0 / pts.size))


class TestResolutionCap:
    def test_gap_computed_once_per_measure(self, sierpinski, monkeypatch):
        mu = finite_approximation(sierpinski, 8)
        asked = query_levels(monkeypatch)
        dim_q_estimate(mu, 2.0, 1, 8)
        dim_inf_estimate(mu, 1, 8)
        # consecutive atoms are 2^-7 apart, which gives level 4; one query
        # finds no pair close enough for level 5
        assert asked == [5]
        # atoms 2^-7 apart: levels above 4, where cells are < 4x the gap, are cut
        with pytest.raises(DomainError):
            dim_q_estimate(mu, 2.0, 3, 8)
        assert asked == [5]

    def test_no_query_past_n_max(self, monkeypatch):
        # the consecutive bound alone gives level 41 >= n_max
        asked = query_levels(monkeypatch)
        mu = equal_weights([0.0, 1e-13, 1.0])
        assert dimensions._resolution_level_cap(mu, 8) == 8 == oracle_cap(mu, 8)
        assert asked == []

    def test_crowded_cloud(self, monkeypatch):
        # 6,000 atoms in a 1e-12 square beside one at 1.0: a grid of cell
        # side span / 2^30 puts them all in one cell; the queries stay linear
        rng = np.random.default_rng(9)
        pts = np.r_[1e-12 * (rng.random(6000) + 1j * rng.random(6000)), 1.0]
        mu = equal_weights(pts)
        asked = query_levels(monkeypatch)
        assert dimensions._resolution_level_cap(mu, 64) == oracle_cap(mu, 64)
        assert 1 <= len(asked) <= 3

    @pytest.mark.parametrize("factor, level", [
        (1.0, 4), (1.0 - 2.0**-40, 4), (1.0 - 1e-8, 5), (1.0 + 2.0**-40, 4), (0.5, 5),
    ])
    def test_level_boundary(self, factor, level):
        # a lattice gap at or a hair off 2^-7, where the cap steps from 4 to 5
        # at 2^-7 * 2^(-1e-9)
        i, j = np.meshgrid(np.arange(40), np.arange(40))
        mu = equal_weights(((i + 1j * j) * 2.0**-7 * factor).ravel())
        assert dimensions._resolution_level_cap(mu, 60) == level == oracle_cap(mu, 60)

    @pytest.mark.parametrize("power", [0, 10, -20])
    def test_pair_between_blockers(self, power):
        # a, b = 0.1, 0.2 + 0.9i are 0.906 apart, the only pair under 1.  At
        # w = 1 (level -2) c1 = 1.5 + 0.45i and c2 = -0.9 + 0.45i lie
        # between them in y in the strip groups (0, 1) and (-1, 0), and
        # q = 0.15 + 5i between them in x: no order puts a next to b
        pts = np.array([0.1, 0.2 + 0.9j, 1.5 + 0.45j, -0.9 + 0.45j, 0.15 + 5j])
        mu = equal_weights(pts * 2.0**-power)
        assert dimensions._resolution_level_cap(mu, 40) == power - 2 == oracle_cap(mu, 40)

    def test_positions_sorted_once(self, monkeypatch):
        # the ladder starts from the (x, y) consecutive bound alone: the cap
        # sorts the positions once, and climbs to a closest pair that only
        # (y, x) order puts side by side
        sorts = []
        sort = dimensions.distinct_positions
        monkeypatch.setattr(dimensions, "distinct_positions",
                            lambda x, y: sorts.append(x.size) or sort(x, y))
        mu = equal_weights([0.0, 0.001 + 5j, 0.002 + 1e-4j])
        assert dimensions._resolution_level_cap(mu, 40) == 6 == oracle_cap(mu, 40)
        assert sorts == [3]

    def test_one_position(self):
        mu = equal_weights([0.3 + 0.1j] * 5)
        assert dimensions._resolution_level_cap(mu, 12) == 12

    def test_atoms_far_out(self):
        # atoms 1e300 out and 2^-28 apart: the cap is 25, and the level-26
        # query scales x by 2^28, past the float range; it refuses nothing,
        # and the estimates bin at level 25 as before
        mu = equal_weights([1e300, 1e300 + 2.0**-28 * 1j, 1e300 + 1j])
        assert dimensions._resolution_level_cap(fresh(mu), 40) == 25 == oracle_cap(mu, 40)
        assert dim_q_estimate(mu, 2.0, 0, 40)[0] == dim_q_estimate(mu, 2.0, 0, 25)[0]
        assert dim_inf_estimate(mu, 0, 40)[0] == dim_inf_estimate(mu, 0, 25)[0]
        # 1e-150 apart the cap is 496, where binning itself overflows
        mu = equal_weights([1e300, 1e300 + 1e-150j, 1e300 + 1j])
        assert dimensions._resolution_level_cap(mu, 1000) == 496 == oracle_cap(mu, 1000)
        with pytest.raises(DomainError, match="cell index overflows"):
            dim_q_estimate(mu, 2.0, 0, 1000)

    def test_query_keeps_overflowing_x_apart(self):
        # past the float range distinct x are ulps apart, far more than the
        # strip width: each is a group of its own.  One group of them all
        # would put the 20 atoms at y = 2^-41 between the pair at x = 1e300,
        # which the level-37 query, x by 2^39, must find
        x = np.r_[1e300, 1e300, 1e300 + np.spacing(1e300) * np.arange(1, 21)]
        y = np.r_[0.0, 2.0**-40, np.full(20, 2.0**-41)]
        x, y = distinct(x, y)
        assert dimensions._close_d2(x, y, 37) == 2.0**-80


@st.composite
def gap_clouds(draw):
    """Atom clouds whose nearest pairs are hard to find.

    A random or integer-lattice cloud with exact copies of some atoms and
    atoms one or two units in the last place away from others; a rotated
    or anisotropic lattice, where many pairs tie at the gap, or a jittered
    one, dense around its nearest pair; or clusters of side 10^-k beside
    atoms far away, which crowd one cell of a grid sized by the span.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "lattice", "rotated", "jittered", "anisotropic",
                                 "crowded"]))
    count = draw(st.integers(2, 300))
    scale = draw(st.sampled_from([1e-9, 1e-3, 1.0, 1e3]))
    offset = draw(st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                     allow_infinity=False))
    if kind == "random":
        pts = rng.normal(size=count) + 1j * rng.normal(size=count)
    elif kind == "lattice":
        pts = rng.integers(0, 20, count) + 1j * rng.integers(0, 20, count)
    elif kind in ("rotated", "jittered"):
        side = math.isqrt(count) + 1
        i, j = np.meshgrid(np.arange(side), np.arange(side))
        pts = ((i + 1j * j) * np.exp(1j * draw(st.floats(0.0, 2 * math.pi)))).ravel()
        if kind == "jittered":
            # one nearest pair, with other atoms in its strips between its y values
            pts = pts + 0.35 * (rng.random(pts.size) + 1j * rng.random(pts.size))
    elif kind == "anisotropic":
        side = math.isqrt(count) + 1
        i, j = np.meshgrid(np.arange(side), np.arange(side))
        pts = (i * draw(st.sampled_from([1e-3, 0.3, 1.0])) + 1j * j).ravel()
    else:
        spread = 10.0 ** -draw(st.integers(6, 13))
        pts = np.r_[spread * (rng.random(count) + 1j * rng.random(count)),
                    rng.normal(size=draw(st.integers(1, 5))) * 10.0]
    pts = pts * scale + offset
    ties = draw(st.integers(0, 40))
    near = pts[rng.integers(0, pts.size, ties)]
    near = near + np.spacing(np.abs(near.real) + scale) * rng.integers(1, 3, ties)
    pts = np.concatenate([pts, pts[rng.integers(0, pts.size, draw(st.integers(0, 40)))],
                          near])
    return equal_weights(rng.permutation(pts))


class TestCapOracle:
    """The cap by threshold queries against the cKDTree gap's cap."""

    @settings(max_examples=200, deadline=None)
    @given(mu=gap_clouds(), n_max=st.integers(0, 64))
    def test_equals_oracle(self, mu, n_max):
        assert dimensions._resolution_level_cap(mu, n_max) == oracle_cap(mu, n_max)

    @settings(max_examples=200, deadline=None)
    @given(mu=gap_clouds(), offset=st.integers(-2, 1))
    def test_query_finds_a_pair_whenever_one_exists(self, mu, offset):
        # the threshold query alone, at and around the cap: its smallest d2
        # gives a level >= L exactly when some pair's distance does, with
        # no help from the consecutive bound
        x, y = distinct(mu.positions.real, mu.positions.imag)
        if x.size < 2:
            return
        d2 = (x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2
        cap = dimensions._gap_level(float(d2[d2 > 0.0].min()))
        level = cap + offset
        got = dimensions._close_d2(x, y, level)
        assert (got < math.inf and dimensions._gap_level(got) >= level) == (offset <= 0)

    @pytest.mark.parametrize("ifs, depth", [
        (IFSDescriptor(0.5, (0.0, 1.0, 1j, 1 + 1j), (0.25,) * 4), 8),
        (IFSDescriptor(0.5, (0.0, 1.0, 1j), (1 / 3,) * 3), 9),
        (IFSDescriptor(0.5 + 0.5j, (-1.0, 0.0, 1.0), (1 / 3,) * 3), 13),
        (IFSDescriptor(0.5 + 0.5j, (-1.0, 1.0), (0.5, 0.5)), 16),
        (IFSDescriptor(0.6 * np.exp(1.1j), (0.0, 1.0, 1j), (1 / 3,) * 3), 10),
    ], ids=["square-8", "gasket-9", "push-lattice-13", "complex-bernoulli-16",
            "rotated-three-digit-10"])
    def test_towers(self, ifs, depth):
        mu = finite_approximation(ifs, depth)
        for n_max in (0, 4, 8, 20, 60):
            assert dimensions._resolution_level_cap(fresh(mu), n_max) == oracle_cap(mu, n_max)


class TestAlphaEstimate:
    def test_dirac(self):
        alpha, via = alpha_estimate(DiscreteMeasure.dirac(0.0), [2, 4, 8], 0.5)
        assert abs(alpha - 2.0) <= 0.05
        assert abs(via) <= 0.05

    def test_square_energy_saturates(self, unit_square):
        mu = finite_approximation(unit_square, 7)
        alpha, via = alpha_estimate(mu, [2, 4, 8], 0.5)
        assert alpha <= 0.2
        assert via >= 1.8

    def test_consistency_with_dim2(self, sierpinski):
        mu = finite_approximation(sierpinski, 9)
        d2, _ = dim_q_estimate(mu, 2.0, 1, 7)
        _, via = alpha_estimate(mu, [2, 4, 8, 16], 0.5)
        assert abs(via - d2) <= 0.2

    def test_radii_preconditions(self, unit_square):
        mu = finite_approximation(unit_square, 4)
        with pytest.raises(DomainError):
            alpha_estimate(mu, [2, 4], 0.5)
        with pytest.raises(DomainError):
            alpha_estimate(mu, [2, 4, 9], 0.5)

    def test_ifs_energy_is_the_towers_limit(self, sierpinski):
        # alpha of an IFS is fitted on mu itself; the depth-D towers' energies
        # come closer to it as D grows
        want = energy_integral(sierpinski, 8.0, 0.5)
        diffs = [abs(energy_integral(finite_approximation(sierpinski, depth), 8.0, 0.5)
                     - want) / want for depth in (7, 9, 11)]
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[1] < 5e-4

    def test_ifs_alpha_reads_dim2(self, sierpinski):
        _, via = alpha_estimate(sierpinski, [2, 4, 8, 16], 0.5)
        assert abs(via - LOG3_LOG2) <= 0.2

    @pytest.mark.parametrize("system", ["sierpinski", "tower"])
    def test_radius_without_a_midpoint_refused(self, sierpinski, system):
        # the nearest midpoints of the step-0.5 lattice are 0.354 out, so
        # |xi| < 0.3 holds none and the energy would be an empty 0
        target = sierpinski if system == "sierpinski" else finite_approximation(sierpinski, 5)
        with pytest.raises(DomainError, match=r"T = 0\.3 at step 0\.5"):
            alpha_estimate(target, [0.3, 0.6, 1.2], 0.5)


class Flattening(NamedTuple):
    epsilon: float
    sigma: float
    dim2_nu: float
    margin: float
    bound: DecayBound


def flattening_check(ifs, nu, n_range, kappa, depth) -> Flattening:
    """Desk-scale check of the convolution dimension gain.

    mu is the depth-``depth`` finite approximation of ``ifs``.  sigma =
    2*eps comes from the flattening equation kappa - 2*eps = delta(eps);
    the margin is dim2(mu * nu) - dim2(nu) - sigma, which the theory makes
    nonnegative up to estimator error.
    """
    if ifs.is_atomic:
        raise DomainError("flattening needs a non-atomic self-similar measure")
    n_min, n_max = n_range
    dim2_nu, _ = dim_q_estimate(nu, 2.0, n_min, n_max)
    if dim2_nu > 2.0 - kappa:
        raise DomainError(f"nu is too regular: dim2 {dim2_nu:.3f} > 2 - kappa")
    eps, sigma, bound = solve_flattening_epsilon(ifs.lam, ifs.probs, kappa)
    conv, _ = measures._convolve(finite_approximation(ifs, depth), nu, 0.0, None)
    dim2_conv, _ = dim_q_estimate(conv, 2.0, n_min, n_max)
    return Flattening(eps, sigma, dim2_nu, dim2_conv - dim2_nu - sigma, bound)


class TestFlatteningCheck:
    def test_dirac_margin(self, complex_bernoulli):
        # mu * delta_0 = mu: margin is dim2(mu) - sigma, positive for small
        # kappa; the tower's lattice gap caps usable levels at 3 for depth 14
        report = flattening_check(
            complex_bernoulli, DiscreteMeasure.dirac(0.0), (1, 3), 0.5, depth=14
        )
        assert report.dim2_nu == pytest.approx(0.0, abs=1e-12)
        assert report.margin >= 0.0
        assert report.sigma > 0.0

    def test_segment_margin(self, complex_bernoulli):
        report = flattening_check(
            complex_bernoulli, segment_measure(2048), (1, 6), 0.5, depth=9
        )
        assert report.margin >= -0.2
        assert 0.8 <= report.dim2_nu <= 1.2

    def test_sigma_matches_solver(self, complex_bernoulli):
        report = flattening_check(
            complex_bernoulli, segment_measure(1024), (1, 5), 0.5, depth=8
        )
        eps, sigma, _ = solve_flattening_epsilon(
            complex_bernoulli.lam, complex_bernoulli.probs, 0.5
        )
        assert report.sigma == sigma and report.epsilon == eps

    def test_real_noncollinear_regime(self, sierpinski):
        segment = finite_approximation(IFSDescriptor(0.5, (0, 1), (0.5, 0.5)), 8)
        report = flattening_check(sierpinski, segment, (1, 6), 0.9, depth=6)
        assert report.bound.regime == "real_noncollinear"
        assert report.sigma > 0.0

    def test_too_regular_rejected(self, complex_bernoulli, unit_square):
        nu = finite_approximation(unit_square, 7)
        with pytest.raises(DomainError):
            flattening_check(complex_bernoulli, nu, (1, 6), 0.5, depth=8)


SQUARE = IFSDescriptor(0.5, (0.0, 1.0, 1j, 1 + 1j), (0.25,) * 4)
SQUARE_6 = finite_approximation(SQUARE, 6)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: dim_q_estimate(SQUARE_6, 2.0, 4, 2), "n_min", id="dim-q-levels"),
    pytest.param(lambda: dim_inf_estimate(SQUARE_6, 4, 2), "n_min", id="dim-inf-levels"),
    *(pytest.param(lambda q=q: lq_moment(SQUARE_6, 2, q), "q must", id=f"moment-q-{q}")
      for q in (1.0, 0.5, math.nan, math.inf)),
    *(pytest.param(lambda q=q: dim_q_estimate(SQUARE_6, q, 1, 4), "q must", id=f"dim-q-{q}")
      for q in (1.0, math.nan, math.inf)),
    # 1024 level-5 cells of mass 2^-10: 2^-3000 underflows to 0; the depth-8
    # square's resolution cap leaves levels 1..5 to the estimate
    pytest.param(lambda: lq_moment(SQUARE_6, 5, 300.0), "underflows", id="moment-underflow"),
    pytest.param(lambda: dim_q_estimate(finite_approximation(SQUARE, 8), 300.0, 1, 5),
                 "underflows", id="dim-q-underflow"),
    pytest.param(lambda: lq_moment(SQUARE_6, 1024, 2.0), "above 1023", id="moment-level-1024"),
    pytest.param(lambda: dim_q_estimate(DiscreteMeasure.dirac(0.5), 2.0, 1, 1100),
                 "above 1023", id="dim-q-level-1100"),
    pytest.param(lambda: dim_inf_estimate(DiscreteMeasure.dirac(1e307), 1, 8),
                 "overflows", id="dim-inf-cell-overflow"),
    pytest.param(lambda: alpha_estimate(SQUARE_6, [8.0, 4.0, 2.0], 0.5), "increasing",
                 id="alpha-decreasing"),
    pytest.param(lambda: flattening_check(IFSDescriptor(0.5, (1.0, 1.0), (0.5, 0.5)),
                                          SQUARE_6, (1, 4), 0.5, 4),
                 "non-atomic", id="flattening-atomic"),
])
def test_refused(call, match):
    with pytest.raises(DomainError, match=match):
        call()
