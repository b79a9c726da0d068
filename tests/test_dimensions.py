import math

import numpy as np
import pytest

from ssfourier import measures
from ssfourier import (
    DiscreteMeasure,
    DomainError,
    IFSDescriptor,
    alpha_estimate,
    dim_inf_estimate,
    dim_q_estimate,
    dyadic_histogram,
    finite_approximation,
    flattening_check,
    lq_moment,
)

LOG3_LOG2 = math.log(3) / math.log(2)


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
        hist = dyadic_histogram(mu, 3)
        assert abs(hist.masses.sum() - 1.0) < 1e-10
        assert hist.cells.size <= 4**3 + 4 * 2**3  # cells meeting the segment

    def test_preconditions(self):
        mu = segment_measure(16)
        with pytest.raises(DomainError):
            lq_moment(mu, 2, 1.0)
        with pytest.raises(DomainError):
            lq_moment(mu, -1, 2.0)


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


class TestResolutionCap:
    def test_gap_computed_once_per_measure(self, sierpinski, monkeypatch):
        mu = finite_approximation(sierpinski, 8)
        searched = []
        pairs = measures._close_pairs
        monkeypatch.setattr(measures, "_close_pairs",
                            lambda x, y, tol: searched.append(x.size) or pairs(x, y, tol))
        dim_q_estimate(mu, 2.0, 1, 8)
        dim_inf_estimate(mu, 1, 8)
        assert searched == [mu.n_atoms]
        # atoms 2^-7 apart: levels above 4, where cells are < 4x the gap, are cut
        with pytest.raises(DomainError):
            dim_q_estimate(mu, 2.0, 3, 8)


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
        from ssfourier import solve_flattening_epsilon

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
        doc = report.to_json()
        assert doc["bound"]["regime"] == "real_noncollinear" and doc["sigma"] == report.sigma

    def test_too_regular_rejected(self, complex_bernoulli, unit_square):
        nu = finite_approximation(unit_square, 7)
        with pytest.raises(DomainError):
            flattening_check(complex_bernoulli, nu, (1, 6), 0.5, depth=8)


SQUARE = IFSDescriptor(0.5, (0.0, 1.0, 1j, 1 + 1j), (0.25,) * 4)
SQUARE_6 = finite_approximation(SQUARE, 6)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: dyadic_histogram(SQUARE_6, -1), "level", id="histogram-level"),
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
    pytest.param(lambda: alpha_estimate(SQUARE_6, [8.0, 4.0, 2.0], 0.5), "increasing",
                 id="alpha-decreasing"),
    pytest.param(lambda: flattening_check(IFSDescriptor(0.5, (1.0, 1.0), (0.5, 0.5)),
                                          SQUARE_6, (1, 4), 0.5, 4),
                 "non-atomic", id="flattening-atomic"),
])
def test_refused(call, match):
    with pytest.raises(DomainError, match=match):
        call()
