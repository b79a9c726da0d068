import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssfourier import (
    ConvergenceError,
    DomainError,
    RegimeError,
    bernoulli_dim_lower,
    bernoulli_unbiased_dim_lower,
    covering_bound,
    delta_complex,
    delta_higherdim,
    delta_real_noncollinear,
    entropy_h,
    eta_numeric,
    eta_two_digit,
    solve_flattening_epsilon,
)
from ssfourier.bounds import _assemble_bound, delta_bound, linear_fit

LAM_C = (1 + 1j) / 2
P3 = (1 / 3, 1 / 3, 1 / 3)


class TestEntropy:
    def test_endpoints(self):
        assert entropy_h(0.0) == 0.0 and entropy_h(1.0) == 0.0

    def test_maximum(self):
        assert entropy_h(0.5) == pytest.approx(math.log(2), abs=1e-15)

    @pytest.mark.parametrize("x", [0.1, 0.3])
    def test_symmetry(self, x):
        assert entropy_h(x) == pytest.approx(entropy_h(1 - x), abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            entropy_h(-0.01)
        with pytest.raises(DomainError):
            entropy_h(1.01)


class TestEtaTwoDigit:
    def test_vanishes_at_zero(self):
        assert eta_two_digit(0.0, 0.5, 0.5) == pytest.approx(0.0, abs=1e-15)
        assert eta_two_digit(1e-8, 0.5, 0.5) < 1e-10

    def test_value_at_one(self):
        assert abs(eta_two_digit(1.0, 0.5, 0.5) - 1.0) < 1e-12

    def test_strictly_increasing(self):
        grid = np.linspace(0.005, 0.995, 100)
        vals = [eta_two_digit(c, 0.5, 0.5) for c in grid]
        assert np.all(np.diff(vals) > 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            eta_two_digit(1.2, 0.5, 0.5)
        with pytest.raises(DomainError):
            eta_two_digit(0.5, 0.0, 0.5)


def lattice_eta_meshgrid(p, c):
    """The lattice gap search on full meshgrids, as before it separated.

    |p1 + p2 e(x) + p3 e(-y)| is evaluated at every grid point, coarse
    grid and refinement windows alike, with the same grid, windows and
    stopping rule as ``eta_numeric("lattice_3digit", p, c)``.
    """
    from ssfourier.bounds import _ETA_GRID, _ETA_REFINE_TOL

    def gap(x, y):
        val = p[0] + p[1] * np.exp(2j * np.pi * x) + p[2] * np.exp(-2j * np.pi * y)
        f = 1.0 - (np.abs(val) + (1.0 - p[0] - p[1] - p[2]))
        return np.where(x * x + y * y >= (c / 2.0) ** 2, f, np.inf)

    axis = np.linspace(-0.5, 0.5, _ETA_GRID, endpoint=False)
    pts = np.meshgrid(axis, axis, indexing="ij")
    f = gap(*pts).ravel()
    i = int(np.argmin(f))
    best, at = float(f[i]), [float(a.ravel()[i]) for a in pts]
    prev, width = math.inf, 1.5 / _ETA_GRID
    while abs(prev - best) >= _ETA_REFINE_TOL:
        prev = best
        pts = np.meshgrid(*(np.linspace(max(-0.5, a - width), min(0.5, a + width), 33)
                            for a in at), indexing="ij")
        f = gap(*pts).ravel()
        i = int(np.argmin(f))
        if f[i] < best:
            best, at = float(f[i]), [float(a.ravel()[i]) for a in pts]
        width *= 0.5
    return best


class TestEtaNumeric:
    @pytest.mark.parametrize("c", [0.2, 0.5, 0.8])
    def test_two_digit_cross_check(self, c):
        got = eta_numeric("two_digit", (0.5, 0.5), c)
        assert abs(got - eta_two_digit(c, 0.5, 0.5)) < 1e-6

    def test_lattice_small_c(self):
        assert eta_numeric("lattice_3digit", P3, 0.01) < 1e-3

    def test_range(self):
        for c in (0.05, 0.4, 0.9):
            v = eta_numeric("lattice_3digit", P3, c)
            assert 0.0 <= v <= 1.0

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            eta_numeric("bogus", (0.5, 0.5), 0.3)

    @pytest.mark.parametrize(
        "p", [(0.2, 0.3, 0.5), (1 / 3, 1 / 3, 1 / 3), (0.1, 0.1, 0.8), (0.25,) * 4])
    def test_lattice_equals_the_meshgrid_search(self, p):
        for lam in np.linspace(0.3, 0.95, 25):
            c = float(lam / (2.0 * (lam + 1.0)))
            assert eta_numeric("lattice_3digit", p, c) == lattice_eta_meshgrid(p, c)

    def test_lattice_peak_memory(self):
        # the separable grid never holds a full complex meshgrid
        tracemalloc.start()
        try:
            eta_numeric.__wrapped__("lattice_3digit", P3, 0.2345)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20


class TestDeltaComplex:
    def test_rho_and_branching(self):
        bound = delta_complex(LAM_C, (0.5, 0.5), 0.01)
        assert bound.rho == pytest.approx(1 / 14, abs=1e-15)
        assert bound.branching == 4

    def test_vanishes_with_epsilon(self):
        assert delta_complex(LAM_C, (0.5, 0.5), 1e-6).delta < 1e-3

    def test_strictly_increasing(self):
        eps = np.geomspace(1e-5, 0.05, 50)
        deltas = [delta_complex(LAM_C, (0.5, 0.5), e).delta for e in eps]
        assert np.all(np.diff(deltas) > 0)

    def test_real_lambda_refused(self):
        with pytest.raises(RegimeError):
            delta_complex(0.5, (0.5, 0.5), 0.01)

    def test_invalid_epsilon_tilde_flagged(self):
        # eps large enough that eps_tilde >= 1: trivial exponent recorded
        bound = delta_complex(LAM_C, (0.5, 0.5), 0.2)
        assert not bound.valid and bound.delta == 2.0 and bound.reason

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: delta_complex(1e-5 * (1 + 1j), (0.5, 0.5), 0.01), id="complex"),
        pytest.param(lambda: delta_higherdim(1e-9, P3, 0.01, 3), id="higher-dim"),
    ])
    def test_eta_rounding_to_zero_is_trivial(self, call):
        # eta = p1 + p2 - sqrt(...) rounds to 0, so log(1 - eta) = 0 and
        # eps_tilde, far above 1, is inf: the trivial record, no division
        bound = call()
        assert bound.eta == 0.0 and bound.epsilon_tilde == math.inf
        assert bound.delta == 2.0 and not bound.valid
        assert bound.reason.startswith("epsilon_tilde outside (0, 1)")

    def test_validity_reason_below_half(self):
        bound = delta_complex(LAM_C, (0.5, 0.5), 0.05)
        assert not bound.valid and "1/2" in bound.reason
        assert bound.epsilon_tilde == pytest.approx(0.68245, abs=1e-4)


class TestDeltaRealNoncollinear:
    def test_branching(self):
        bound = delta_real_noncollinear(0.5, P3, 1e-4)
        assert bound.branching == 4

    def test_vanishes_with_epsilon(self):
        # at lambda = 1/2 the entropy term alone exceeds 1e-3 at eps=1e-6;
        # the limit delta -> 0 is the same, so probe it at lambda = 0.7
        assert delta_real_noncollinear(0.7, P3, 1e-6).delta < 1e-3
        assert delta_real_noncollinear(0.5, P3, 1e-8).delta < 1e-4

    def test_strictly_increasing(self):
        eps = np.geomspace(1e-6, 2e-3, 50)
        deltas = [delta_real_noncollinear(0.5, P3, e).delta for e in eps]
        assert np.all(np.diff(deltas) > 0)

    def test_validity_flip_location(self):
        # bisection on the valid flag; at the flip either et = 1/2 or delta = 2
        lo, hi = 1e-6, 0.5
        assert delta_real_noncollinear(0.5, P3, lo).valid
        assert not delta_real_noncollinear(0.5, P3, hi).valid
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if delta_real_noncollinear(0.5, P3, mid).valid:
                lo = mid
            else:
                hi = mid
        edge = delta_real_noncollinear(0.5, P3, hi)
        assert (
            abs(edge.epsilon_tilde - 0.5) < 1e-3
            or abs(min(edge.delta, 2.0) - 2.0) < 1e-3
        )

    def test_regime_errors(self):
        with pytest.raises(RegimeError):
            delta_real_noncollinear(1.5, P3, 0.01)
        with pytest.raises(RegimeError):
            delta_real_noncollinear(0.5, (0.5, 0.5), 0.01)


class TestDeltaHigherDim:
    def test_branching(self):
        assert delta_higherdim(0.5, P3, 1e-4, 3).branching == 3

    def test_vanishes_with_epsilon(self):
        assert delta_higherdim(0.5, P3, 1e-6, 3).delta < 1e-3

    def test_strictly_increasing(self):
        eps = np.geomspace(1e-6, 5e-3, 50)
        deltas = [delta_higherdim(0.5, P3, e, 4).delta for e in eps]
        assert np.all(np.diff(deltas) > 0)

    def test_shared_code_path(self):
        # both real-regime formulas come from one assembler; rebuilding the
        # higher-dim record with its (coef, branching, c, eta) must agree
        lam, eps = 0.5, 1e-3
        direct = delta_higherdim(lam, P3, eps, 3)
        c = lam / (lam + 1.0)
        eta = eta_numeric("two_digit", P3, c)
        rebuilt = _assemble_bound("higher_dim", lam, 1.0, 3, c, eta, eps)
        assert rebuilt == direct
        real = delta_real_noncollinear(lam, P3, eps)
        c2 = lam / (2.0 * (lam + 1.0))
        eta2 = eta_numeric("lattice_3digit", P3, c2)
        rebuilt2 = _assemble_bound("real_noncollinear", lam, 4.0, 4, c2, eta2, eps)
        assert rebuilt2 == real

    def test_d_precondition(self):
        with pytest.raises(RegimeError):
            delta_higherdim(0.5, P3, 0.01, 2)

    def test_independent_of_d(self):
        # the coordinate-sum character gives one delta for every d >= 3
        want = delta_higherdim(0.5, P3, 1e-3, 3)
        assert all(delta_higherdim(0.5, P3, 1e-3, d) == want for d in (4, 7, 20))


class TestEpsilonGuard:
    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
    @pytest.mark.parametrize(
        "delta",
        [lambda e: delta_complex(LAM_C, (0.5, 0.5), e),
         lambda e: delta_real_noncollinear(0.5, P3, e),
         lambda e: delta_higherdim(0.5, P3, e, 3)],
        ids=["complex", "real_noncollinear", "higher_dim"],
    )
    def test_refused_in_every_regime(self, delta, eps):
        with pytest.raises(DomainError):
            delta(eps)


class TestCoveringBound:
    def test_n_zero_value(self):
        # only the M_N prefactor and the squares-per-rectangle factor remain
        bound = delta_complex(LAM_C, (0.5, 0.5), 0.01)
        q = (math.ceil((abs(LAM_C.real) + 1) / (2 * abs(LAM_C.imag))) + 1) * 2
        want = 3 * 64 * bound.branching ** (3 * bound.epsilon_tilde * 0 + 2) * q
        got = covering_bound(LAM_C, (0.5, 0.5), 0.01, 0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_nondecreasing_in_n(self):
        vals = [covering_bound(LAM_C, (0.5, 0.5), 0.01, n) for n in range(0, 30, 3)]
        assert np.all(np.diff(vals) >= 0)

    def test_asymptotic_slope(self):
        # the count grows like T^s with s = (3*et*log(branching) + h(et)) /
        # log(1/|lam|); the delta display keeps a single et*log(branching)
        # term, so s exceeds delta by 2*et*log(branching)/log(1/|lam|)
        eps = 0.01
        bound = delta_complex(LAM_C, (0.5, 0.5), eps)
        et = bound.epsilon_tilde
        log_inv = math.log(1 / abs(LAM_C))
        s_expected = (3 * et * math.log(bound.branching) + bound.entropy) / log_inv
        ns = np.arange(10, 41)
        logs = [math.log(covering_bound(LAM_C, (0.5, 0.5), eps, int(n))) for n in ns]
        slope = np.polyfit(ns * log_inv, logs, 1)[0]
        assert abs(slope - s_expected) < 1e-9
        assert slope > bound.delta  # the overhead is one-sided

    def test_epsilon_tilde_out_of_range(self):
        with pytest.raises(DomainError):
            covering_bound(LAM_C, (0.5, 0.5), 0.2, 5)


class TestSolveFlatteningEpsilon:
    @pytest.mark.parametrize("kappa", [0.1, 0.5, 1.0])
    def test_roundtrip_residual(self, kappa):
        eps, sigma, bound = solve_flattening_epsilon(LAM_C, (0.5, 0.5), kappa)
        assert sigma == 2 * eps and sigma > 0
        assert abs(kappa - 2 * eps - bound.delta) < 1e-10

    def test_monotone_in_kappa(self):
        eps_values = [
            solve_flattening_epsilon(LAM_C, (0.5, 0.5), k)[0]
            for k in (0.1, 0.3, 0.5, 0.8, 1.0)
        ]
        assert np.all(np.diff(eps_values) > 0)

    def test_kappa_domain(self):
        with pytest.raises(DomainError):
            solve_flattening_epsilon(LAM_C, (0.5, 0.5), 2.5)

    def test_real_regime_dispatch(self):
        eps, sigma, bound = solve_flattening_epsilon(0.5, P3, 0.4, regime="real_noncollinear")
        assert bound.regime == "real_noncollinear"
        assert abs(0.4 - 2 * eps - bound.delta) < 1e-10


class TestBernoulliPipelines:
    SWEEP = [0.90, 0.95, 0.99, 0.999]

    def lam(self, r):
        return r * cmath.exp(1j * math.pi / 7)

    def test_n_definition(self):
        bound = bernoulli_dim_lower(self.lam(0.9), 0.5)
        assert bound.N == 4
        alam = 0.9
        assert alam**bound.N < 2**-0.5 <= alam ** (bound.N - 1)
        assert 0.5 < alam**bound.N  # |lam|^N in (1/2, 1/sqrt 2)

    def test_dim2_nondecreasing_and_bounded(self):
        vals = [bernoulli_dim_lower(self.lam(r), 0.5).dim2_lower for r in self.SWEEP]
        assert np.all(np.diff(vals) >= 0)
        assert all(v <= 2.0 for v in vals)

    def test_ratio_bounded(self):
        for r in self.SWEEP:
            b = bernoulli_dim_lower(self.lam(r), 0.5)
            ratio = (2 - b.dim2_lower) / ((1 - r) * math.log(1 / (1 - r)))
            assert ratio <= 60.0

    def test_unbiased_ratio_bounded(self):
        for r in self.SWEEP:
            b = bernoulli_unbiased_dim_lower(self.lam(r))
            ratio = (2 - b.dim2_lower) / ((1 - r) ** 2 * math.log(1 / (1 - r)))
            assert ratio <= 200.0

    def test_unbiased_beats_biased(self):
        for r in self.SWEEP:
            unb = bernoulli_unbiased_dim_lower(self.lam(r))
            bia = bernoulli_dim_lower(self.lam(r), 0.5)
            assert unb.dim2_lower >= bia.dim2_lower

    def test_diminf_consistent(self):
        for r in self.SWEEP:
            b = bernoulli_dim_lower(self.lam(r), 0.5)
            assert b.diminf_lower <= b.dim2_lower

    def test_modulus_precondition(self):
        with pytest.raises(RegimeError):
            bernoulli_dim_lower(0.5 + 0.1j, 0.5)

    def test_degenerate_alignment_noted(self):
        # arg = pi/4 makes lambda^N land on an axis for small N; the
        # modulus-only delta still evaluates and the note records it
        lam = complex(0.0, 0.9)  # N = 4, lam^4 = 0.9^4 real
        bound = bernoulli_dim_lower(lam, 0.5)
        assert math.isfinite(bound.dim2_lower)
        if (lam**bound.N).imag == 0.0:
            assert "degenerate" in bound.note

    def test_near_real_alignment_noted(self):
        # Im(lam^2) = -2.6e-15 is real by the REAL_LAMBDA_TOL rule, so the
        # stage takes the modulus-only path, as for lam^2 exactly real
        near = bernoulli_dim_lower(0.8j * cmath.exp(2e-15j), 0.5)
        exact = bernoulli_dim_lower(0.8j, 0.5)
        assert near.N == exact.N == 2
        assert 0.0 < abs((near.lam**2).imag) <= 1e-14
        assert "degenerate" in near.note and near.note == exact.note
        assert near.dim2_lower == exact.dim2_lower

    def test_aligned_kappa_follows_the_modulus(self):
        # delta depends on |lam^N| alone: an aligned lam (lam^4 real) and a
        # turned one of the same modulus give the same kappa, to rounding
        aligned = bernoulli_dim_lower(0.9j, 0.5)
        turned = bernoulli_dim_lower(0.9 * cmath.exp(0.4j), 0.5)
        assert aligned.N == turned.N == 4
        assert "degenerate" in aligned.note and "degenerate" not in turned.note
        assert aligned.kappa == pytest.approx(turned.kappa, rel=1e-13)

    def test_lambda_squared_stage_noted(self):
        # the lambda stage is valid, the lambda^2 stage is not, and the note
        # says which stage failed
        bound = bernoulli_dim_lower(0.992 * cmath.exp(0.05j), 0.5)
        assert bound.note.startswith("lambda^2 stage: decay bound not valid")

    def test_osc_base_value(self):
        # the unbiased sigma is the open-set-condition base value
        # log(1/|lam|) / log(2/|lam|), spread over the N - 1 later levels
        bound = bernoulli_unbiased_dim_lower(self.lam(0.9))
        assert bound.N == 4
        want = math.log(1 / 0.9) / math.log(2 / 0.9) / 3
        assert bound.sigma == pytest.approx(want, rel=1e-12)


class TestAssembledInvariants:
    def test_no_nan_anywhere(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            lam = complex(rng.uniform(-0.9, 0.9), rng.uniform(0.01, 0.9))
            if not 0 < abs(lam) < 1:
                continue
            eps = 10 ** rng.uniform(-8, 0)
            b = delta_complex(lam, (0.5, 0.5), eps)
            for v in (b.epsilon_tilde, b.rho, b.eta, b.entropy, b.delta):
                assert math.isfinite(v)
            assert b.valid or b.reason


class TestDeltaMonotoneProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        regime=st.sampled_from(["complex", "real_noncollinear", "higher_dim"]),
        modulus=st.floats(0.05, 0.95),
        angle=st.floats(0.05, math.pi - 0.05),
        weights=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
        u=st.floats(1e-6, 1.0),
        ratio=st.floats(1.001, 1e3),
    )
    def test_delta_increases_with_epsilon(self, regime, modulus, angle, weights, u, ratio):
        # eps1 is drawn below the eps where eps_tilde reaches 1/2, past which
        # no record is valid; eps2 = ratio * eps1
        if regime == "complex":
            lam, p = modulus * cmath.exp(1j * angle), weights[:2]
        else:
            lam, p = complex(modulus), weights
        p = tuple(w / sum(p) for w in p)
        eps_half = 0.5 / delta_bound(lam, p, 1.0, regime).epsilon_tilde
        eps1 = u * eps_half
        b1 = delta_bound(lam, p, eps1, regime)
        b2 = delta_bound(lam, p, eps1 * ratio, regime)
        if b1.valid and b2.valid:
            assert b1.delta < b2.delta


class TestLinearFit:
    def test_matches_linregress(self):
        from scipy.stats import linregress

        rng = np.random.default_rng(31)
        for n in (2, 3, 4, 7, 50):
            for _ in range(25):
                x = rng.normal(size=n) * rng.uniform(0.1, 10.0) + rng.normal()
                y = rng.uniform(-3.0, 3.0) * x + rng.normal(size=n) * rng.uniform(0.0, 2.0)
                slope, stderr = linear_fit(x, y)
                ref = linregress(x, y)
                assert slope == pytest.approx(ref.slope, rel=1e-14, abs=0.0)
                assert stderr == pytest.approx(ref.stderr, rel=1e-14, abs=0.0)

    def test_identical_x_refused(self):
        with pytest.raises(DomainError):
            linear_fit([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
        with pytest.raises(DomainError):
            linear_fit([1.0], [0.0])


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: eta_numeric("two_digit", (0.5, 0.5), 0.0), DomainError, "c must",
                 id="eta-c-zero"),
    pytest.param(lambda: eta_numeric("two_digit", (0.5, 0.5), 1.0), DomainError, "c must",
                 id="eta-c-one"),
    pytest.param(lambda: eta_numeric("lattice_3digit", (0.5, 0.5), 0.3), DomainError,
                 "3 weights", id="lattice-two-weights"),
    pytest.param(lambda: delta_complex(1.2 + 0.5j, (0.5, 0.5), 0.01), DomainError,
                 "lambda", id="complex-modulus"),
    pytest.param(lambda: delta_higherdim(1.5, P3, 0.01, 3), RegimeError, "lambda in",
                 id="higher-dim-lambda"),
    pytest.param(lambda: delta_higherdim(0.5, (0.5, 0.5), 0.01, 3), RegimeError,
                 "3 digits", id="higher-dim-two-digits"),
    pytest.param(lambda: covering_bound(LAM_C, (0.5, 0.5), 0.01, -1), DomainError, "N must",
                 id="covering-negative-N"),
    pytest.param(lambda: delta_bound(LAM_C, (0.5, 0.5), 0.01, "quaternion"), DomainError,
                 "unknown regime", id="unknown-regime"),
    pytest.param(lambda: bernoulli_dim_lower(0.9 + 0.1j, 0.0), DomainError, "p_bias",
                 id="bias-zero"),
    pytest.param(lambda: bernoulli_dim_lower(0.9 + 0.1j, 1.0), DomainError, "p_bias",
                 id="bias-one"),
    pytest.param(lambda: bernoulli_dim_lower(1.1j, 0.5), DomainError, "lambda",
                 id="biased-modulus"),
    pytest.param(lambda: bernoulli_unbiased_dim_lower(1.1j), DomainError, "lambda",
                 id="unbiased-modulus"),
])
def test_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()
