"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Each criterion pins
its tolerances here; wall-clock limits are asserted too.
"""

import cmath
import json
import math
import time

import numpy as np
import pytest

import ssfourier as sf
from ssfourier.cli import run as cli_run

from conftest import random_two_digit_ifs

LAM_C = (1 + 1j) / 2
P_HALF = (0.5, 0.5)
LOG3_LOG2 = math.log(3) / math.log(2)


def _report(num, name, elapsed, limit, detail=""):
    if elapsed >= limit:
        print(f"FAIL criterion {num} ({name}): {elapsed:.2f}s >= {limit:.0f}s {detail}")
    assert elapsed < limit, f"criterion {num} exceeded its {limit:.0f}s budget"
    print(f"PASS criterion {num} ({name}): {elapsed:.2f}s < {limit:.0f}s {detail}")


def test_criterion_01_sinc_identity(bernoulli_half):
    start = time.monotonic()
    for xi in (0.1, 0.5, 1.3, 7.25, 50.0):
        exact = math.sin(4 * math.pi * xi) / (4 * math.pi * xi)
        got = sf.mu_hat(bernoulli_half, xi, 1e-12)
        assert abs(got - exact) < 1e-9, f"sinc mismatch at xi={xi}"
    _report(1, "sinc identity", time.monotonic() - start, 1.0)


def test_criterion_02_product_vs_convolution_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(20240217)
    worst = 0.0
    for _ in range(20):
        ifs = random_two_digit_ifs(rng)
        # depth-25 tower, materialized as two factors whose direct
        # exponential sums multiply: atoms only, no product formula
        front = sf.finite_approximation(ifs, 13)
        back = sf.scale_rotate(sf.finite_approximation(ifs, 12), ifs.lam**13)
        angle = 2 * np.pi * rng.random(100)
        xi = 20.0 * np.sqrt(rng.random(100)) * np.exp(1j * angle)
        oracle = (sf.fourier_sum(front.positions, front.weights, xi)
                  * sf.fourier_sum(back.positions, back.weights, xi))
        got = sf.mu_hat(ifs, xi, tol=1e-9)
        w_max = max(abs(w) for w in ifs.digits)
        tail25 = (
            2 * np.pi * w_max * np.abs(xi) * abs(ifs.lam) ** 25 / (1 - abs(ifs.lam))
        )
        combined = 2e-9 + 2 * tail25
        err = np.abs(got - oracle)
        assert np.all(err <= combined), "outside combined truncation bounds"
        assert np.all(err < 1e-6), "relative error floor exceeded"
        worst = max(worst, float(err.max()))
    _report(2, "product vs convolution", time.monotonic() - start, 30.0,
            f"worst |diff| = {worst:.2e}")


def test_criterion_03_digit_transition_inequality():
    start = time.monotonic()
    violations = sf.verify_digit_inequality(LAM_C, 10**4, 20, seed=42)
    assert violations == 0
    _report(3, "digit transition inequality", time.monotonic() - start, 10.0)


def test_criterion_04_sparse_set_inclusion(complex_bernoulli):
    start = time.monotonic()
    report = sf.covering_report(complex_bernoulli, 0.05, 12, subgrid_k=4,
                                tol=1e-9, workers=2)
    assert report.T == pytest.approx(2.0**6, rel=1e-12)
    assert report.inclusion_violations == 0
    _report(4, "sparse-set inclusion", time.monotonic() - start, 300.0,
            f"checked {report.checked_points} qualifying frequencies")


def test_criterion_05_covering_bound(complex_bernoulli):
    start = time.monotonic()
    counts = []
    for n in (12, 14, 16):
        report = sf.covering_report(complex_bernoulli, 0.05, n, subgrid_k=4,
                                    tol=1e-9, workers=2)
        assert report.empirical_count <= report.bound_count
        counts.append((n, report.empirical_count, report.bound_count))
    _report(5, "covering bound", time.monotonic() - start, 1200.0,
            "; ".join(f"N={n}: {e} <= {b:.2e}" for n, e, b in counts))


def test_criterion_06_enumeration_vs_bound():
    start = time.monotonic()
    prefix_count, _ = sf.enumerate_digit_sequences(LAM_C, 0.05, 1)
    assert prefix_count <= 3
    for et in (0.05, 0.1):
        for n in (6, 8, 10):
            count, bound = sf.enumerate_digit_sequences(LAM_C, et, n)
            assert count <= bound, f"count {count} > bound {bound} at et={et} N={n}"
    _report(6, "enumeration vs M_N", time.monotonic() - start, 120.0)


def test_criterion_07_eta_cross_check():
    start = time.monotonic()
    for c in (0.2, 0.5, 0.8):
        num = sf.eta_numeric("two_digit", P_HALF, c)
        assert abs(num - sf.eta_two_digit(c, 0.5, 0.5)) < 1e-6
    assert abs(sf.eta_two_digit(1.0, 0.5, 0.5) - 1.0) < 1e-12
    _report(7, "eta cross-check", time.monotonic() - start, 10.0)


def test_criterion_08_bound_formula_sanity():
    start = time.monotonic()
    p3 = (1 / 3, 1 / 3, 1 / 3)
    regimes = (
        ("complex", lambda e: sf.delta_complex(LAM_C, P_HALF, e).delta, 0.05),
        ("real", lambda e: sf.delta_real_noncollinear(0.7, p3, e).delta, 0.02),
        ("higher_dim", lambda e: sf.delta_higherdim(0.5, p3, e, 3).delta, 0.05),
    )
    for name, delta_of, eps_hi in regimes:
        assert delta_of(1e-6) < 1e-3, f"{name}: delta(1e-6) not < 1e-3"
        sweep = [delta_of(e) for e in np.geomspace(1e-6, eps_hi, 50)]
        assert np.all(np.diff(sweep) > 0), f"{name}: sweep not strictly increasing"
    for kappa in (0.1, 0.5, 1.0):
        eps, sigma, bound = sf.solve_flattening_epsilon(LAM_C, P_HALF, kappa)
        assert abs(kappa - 2 * eps - bound.delta) < 1e-10
    _report(8, "bound formula sanity", time.monotonic() - start, 5.0)


def test_criterion_09_dimension_estimators(unit_square, sierpinski):
    start = time.monotonic()
    # level 1 is skipped for the square: the conservative shifted anchor
    # loses ~0.1 there to support-boundary cells
    square = sf.finite_approximation(unit_square, 9)
    d2_sq, _ = sf.dim_q_estimate(square, 2.0, 2, 8)
    assert abs(d2_sq - 2.0) <= 0.1
    dinf_sq, _ = sf.dim_inf_estimate(square, 2, 8)
    assert abs(dinf_sq - 2.0) <= 0.15
    gasket = sf.finite_approximation(sierpinski, 10)
    d2_g, _ = sf.dim_q_estimate(gasket, 2.0, 1, 8)
    assert abs(d2_g - LOG3_LOG2) <= 0.1
    _, via_sq = sf.alpha_estimate(square, [2.0, 4.0, 8.0, 16.0], 0.5)
    assert abs(via_sq - d2_sq) <= 0.2
    _, via_g = sf.alpha_estimate(gasket, [2.0, 4.0, 8.0, 16.0], 0.5)
    assert abs(via_g - d2_g) <= 0.2
    _report(9, "dimension estimators", time.monotonic() - start, 180.0,
            f"square {d2_sq:.3f}/{dinf_sq:.3f}, gasket {d2_g:.3f}, "
            f"alpha readings {via_sq:.3f}/{via_g:.3f}")


def test_criterion_10_bernoulli_pipeline():
    start = time.monotonic()
    sweep = (0.90, 0.95, 0.99, 0.999)
    biased, unbiased = [], []
    for r in sweep:
        lam = r * cmath.exp(1j * math.pi / 7)
        b = sf.bernoulli_dim_lower(lam, 0.5)
        u = sf.bernoulli_unbiased_dim_lower(lam)
        assert b.dim2_lower <= 2.0 and u.dim2_lower <= 2.0
        norm = math.log(1.0 / (1.0 - r))
        biased.append((b.dim2_lower, (2 - b.dim2_lower) / ((1 - r) * norm)))
        unbiased.append((u.dim2_lower, (2 - u.dim2_lower) / ((1 - r) ** 2 * norm)))
    assert np.all(np.diff([v for v, _ in biased]) >= 0), "biased sweep decreases"
    assert np.all(np.diff([v for v, _ in unbiased]) >= 0), "unbiased sweep decreases"
    # asymptotic shape: one constant bounds every ratio across the sweep
    assert max(r for _, r in biased) <= 60.0
    assert max(r for _, r in unbiased) <= 200.0
    _report(10, "bernoulli lower bounds", time.monotonic() - start, 10.0,
            f"biased ratio <= {max(r for _, r in biased):.1f}, "
            f"unbiased <= {max(r for _, r in unbiased):.1f}")


def test_criterion_11_kaufman_decay(complex_bernoulli):
    start = time.monotonic()
    radii = [2.0**k for k in range(4, 13)]
    profile = sf.decay_profile(
        sf.AnalyticMap((0.0, 0.0, 1.0)), complex_bernoulli, radii,
        directions=96, approx_depth=22, seed=20240217,
    )
    assert profile.slope < -0.01, f"slope {profile.slope:.4f} not negative enough"
    # affine control: the profile must be mu_hat's own, phase aside
    c0, c1 = 0.4 - 0.3j, 0.9 + 0.2j
    control = sf.decay_profile(
        sf.AnalyticMap((c0, c1)), complex_bernoulli, [16.0, 64.0, 256.0],
        directions=64, approx_depth=12, seed=7,
    )
    mu12 = sf.finite_approximation(complex_bernoulli, 12)
    rng = np.random.default_rng(7)
    for t_rad, got in zip(control.radii, control.annulus_max):
        ang = 2 * np.pi * np.arange(64) / 64
        ang = np.concatenate(
            [ang, 2 * np.pi * (np.arange(64) + rng.random(64)) / 64]
        )
        xi = np.conj(c1) * t_rad * np.exp(1j * ang)
        want = float(np.max(np.abs(sf.fourier_sum(mu12.positions, mu12.weights, xi))))
        assert abs(got - want) < 1e-9
    _report(11, "Kaufman push-forward decay", time.monotonic() - start, 300.0,
            f"slope {profile.slope:.4f}, reported exponent "
            f"{profile.predicted_exponent:.4f} (not asserted)")


def test_criterion_12_determinism(tmp_path, capsys):
    start = time.monotonic()
    invocations = {
        "eval": ["eval", "--lambda", "0.5+0.5i", "--xi", "0.3+0.1i,2,5.5-1i"],
        "scan": ["--format", "csv", "scan", "--lambda", "0.5+0.5i", "--T", "6"],
        "bounds": ["bounds", "--lambda", "0.5+0.5i", "--p", "0.5,0.5",
                   "--epsilon", "0.01", "--kappa", "0.5", "--covering-N", "8"],
        "ek": ["ek", "cover", "--lambda", "0.5+0.5i", "--N", "8",
               "--epsilon", "0.05"],
        "dim": ["dim", "--lambda", "0.5", "--digits", "0,1,i", "--depth", "7",
                "--n-min", "1", "--n-max", "5"],
        "push": ["push", "--lambda", "0.5+0.5i", "--coeffs", "0,0,1",
                 "--radii", "8,16,32", "--directions", "16", "--depth", "8"],
        "bernoulli": ["bernoulli", "--lambda", "0.92+0.1i"],
    }
    for name, argv in invocations.items():
        blobs = []
        for workers in ("1", "8"):
            out = tmp_path / f"{name}_w{workers}.dat"
            code = cli_run(
                ["--seed", "7", "--workers", workers, "--out", str(out)] + argv
            )
            capsys.readouterr()
            assert code == 0, f"{name} failed at workers={workers}"
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], f"{name}: output differs across workers"
    _report(12, "worker determinism", time.monotonic() - start, 120.0)
