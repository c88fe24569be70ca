"""Unit and property tests for the closed-form exponent calculus."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemolab.errors import DomainError, NotApplicable, WindowUndefined
from chemolab.exponents import (
    AdmissibleWindow,
    ModelParams,
    admissibility_coeffs,
    admissibility_discriminant,
    admissibility_quadratic,
    admissible_window,
    bootstrap,
    bootstrap_gain,
    bootstrap_gain_quadratic,
    center_ratio,
    center_ratio_bounds,
    center_ratio_trend,
    chi_star,
    is_below_threshold,
    next_p_upper,
    p_max,
)

from conftest import sample_admissible_chik, sample_window_triple


# ---------------------------------------------------------------------------
# chi_star
# ---------------------------------------------------------------------------


class TestChiStar:
    def test_two_dimensions_gives_one_for_every_k(self):
        for k in (0.01, 0.1, 1.0, 7.3, 10.0, 100.0):
            assert chi_star(k, 2) == pytest.approx(1.0, abs=1e-12)

    def test_unit_diffusivity_gives_sqrt_two_over_n(self):
        for n in range(2, 13):
            assert chi_star(1.0, n) == pytest.approx(math.sqrt(2.0 / n), abs=1e-12)

    def test_large_k_limit_two_over_n(self):
        for n in range(3, 9):
            assert abs(chi_star(1e6, n) - 2.0 / n) < 1e-3

    def test_small_k_limit_one(self):
        for n in range(3, 9):
            assert abs(chi_star(1e-6, n) - 1.0) < 1e-3

    def test_strictly_decreasing_in_k_for_fixed_n(self, rng):
        for n in (3, 5, 8):
            ks = np.sort(np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=50)))
            vals = [chi_star(float(k), n) for k in ks]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_range_between_two_over_n_and_one(self, rng):
        for n in (3, 4, 6, 8, 12):
            for k in np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=40)):
                v = chi_star(float(k), n)
                assert 2.0 / n < v < 1.0

    def test_domain_violations(self):
        with pytest.raises(DomainError):
            chi_star(0.0, 3)
        with pytest.raises(DomainError):
            chi_star(-1.0, 3)
        with pytest.raises(DomainError):
            chi_star(1.0, 1)


# ---------------------------------------------------------------------------
# p_max
# ---------------------------------------------------------------------------


class TestPMax:
    def test_direct_values(self):
        assert p_max(0.5, 1.0) == pytest.approx(4.0, rel=1e-14)
        assert p_max(1.0, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_infinite_when_positive_part_vanishes(self):
        # chi^2 + chi(k-1) = 0.09 - 0.15 < 0
        assert math.isinf(p_max(0.3, 0.5))
        assert math.isinf(p_max(0.5, 0.5))  # boundary chi = 1 - k

    def test_domain_violations(self):
        for chi, k in ((0.0, 1.0), (-0.1, 1.0), (0.5, 0.0), (0.5, -2.0)):
            with pytest.raises(DomainError):
                p_max(chi, k)

    def test_threshold_admits_exponents_past_half_n(self, rng):
        # chi < chi_star(k, n) forces p_max(chi, k) > n/2.
        for n in range(3, 9):
            for _ in range(60):
                chi, k = sample_admissible_chik(rng, n, frac_lo=0.01, frac_hi=0.999)
                assert p_max(chi, k) > n / 2.0
        # same statement on a deterministic (chi, k, n) grid
        for n in range(2, 9):
            for k in (0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0):
                for frac in (0.05, 0.25, 0.5, 0.75, 0.95, 0.999):
                    assert p_max(frac * chi_star(k, n), k) > n / 2.0


# ---------------------------------------------------------------------------
# center ratio (window midpoint per unit p-1)
# ---------------------------------------------------------------------------


class TestCenterRatio:
    def test_half_when_k_is_one(self):
        assert center_ratio(3.0, 0.7, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_half_when_two_chi_equals_one_minus_k(self):
        assert center_ratio(2.5, 0.3, 0.4) == pytest.approx(0.5, rel=1e-15)

    def test_direct_evaluation(self):
        # (2*0.5*(-1) + 4) / (2*1 + 8) = 0.3
        assert center_ratio(2.0, 0.5, 2.0) == pytest.approx(0.3, rel=1e-14)

    def test_in_unit_interval_on_admissible_range(self, rng):
        for n in range(3, 9):
            for _ in range(40):
                chi, k = sample_admissible_chik(rng, n)
                hi = min(p_max(chi, k), n / 2.0)
                for frac in (1e-6, 0.25, 0.5, 0.75, 1.0):
                    p = 1.0 + frac * (hi - 1.0)
                    assert 0.0 < center_ratio(p, chi, k) < 1.0

    def test_trend_classification(self):
        assert center_ratio_trend(0.7, 1.0) == "constant"
        assert center_ratio_trend(0.3, 0.4) == "constant"  # 2chi = 1 - k
        assert center_ratio_trend(0.2, 0.5) == "decreasing"  # chi < (1-k)/2
        assert center_ratio_trend(0.5, 2.0) == "decreasing"  # k > 1
        assert center_ratio_trend(0.4, 0.5) == "increasing"  # chi > (1-k)/2, k < 1

    def test_trend_matches_finite_differences(self, rng):
        for _ in range(200):
            k = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
            chi = float(rng.uniform(0.02, 0.98))
            trend = center_ratio_trend(chi, k)
            lo, hi = center_ratio(1.5, chi, k), center_ratio(6.0, chi, k)
            if trend == "constant":
                assert hi == pytest.approx(lo, rel=1e-12)
            elif trend == "increasing":
                assert hi > lo
            else:
                assert hi < lo


class TestCenterRatioBounds:
    def test_unit_diffusivity_pins_both_to_half(self):
        b = center_ratio_bounds(0.4, 1.0, 6)
        assert b.c0 == 0.5 and b.c_sup == 0.5

    def test_constant_ratio_case(self):
        # chi = (1-k)/2 makes the ratio identically 1/2.
        b = center_ratio_bounds(0.3, 0.4, 6)
        assert b.c0 == pytest.approx(0.5, rel=1e-15)
        assert b.c_sup == pytest.approx(0.5, rel=1e-15)

    def test_decreasing_case_against_grid_oracle(self):
        chi, k, n = 0.2, 0.5, 6
        assert center_ratio_trend(chi, k) == "decreasing"
        b = center_ratio_bounds(chi, k, n)
        assert b.c0 == pytest.approx(center_ratio(n / 2.0, chi, k), rel=1e-15)
        assert b.c_sup == pytest.approx(center_ratio(1.0, chi, k), rel=1e-15)
        grid = np.linspace(1.0 + 1e-9, n / 2.0, 4001)
        vals = [center_ratio(float(p), chi, k) for p in grid]
        assert min(vals) == pytest.approx(b.c0, abs=1e-8)
        assert max(vals) == pytest.approx(b.c_sup, abs=1e-8)

    def test_bounds_always_in_unit_interval(self, rng):
        for n in range(3, 9):
            for _ in range(60):
                chi, k = sample_admissible_chik(rng, n)
                b = center_ratio_bounds(chi, k, n)
                assert 0.0 < b.c0 <= b.c_sup < 1.0

    def test_rejects_low_dimension_and_high_chi(self):
        with pytest.raises(DomainError):
            center_ratio_bounds(0.4, 1.0, 2)
        with pytest.raises(NotApplicable):
            center_ratio_bounds(0.9, 1.0, 6)  # chi_star(1, 6) ~ 0.577


# ---------------------------------------------------------------------------
# admissibility quadratic, discriminant, window
# ---------------------------------------------------------------------------


class TestAdmissibilityQuadratic:
    def test_value_at_zero(self):
        # 2 * 0.5^2 / 4 = 0.125
        assert admissibility_quadratic(0.0, 2.0, 0.5, 1.0) == pytest.approx(0.125, rel=1e-14)

    def test_compact_and_expanded_forms_agree(self, rng):
        for _ in range(10_000):
            p, chi, k = sample_window_triple(rng)
            r = float(rng.uniform(-2.0, 5.0))
            a, b, c = admissibility_coeffs(p, chi, k)
            expanded = (a * r * r + b * r + c) / (4.0 * (p - 1.0))
            compact = admissibility_quadratic(r, p, chi, k)
            scale = (abs(a) * r * r + abs(b) * abs(r) + abs(c)) / (4.0 * (p - 1.0))
            assert abs(compact - expanded) <= 1e-12 * max(scale, 1e-300)

    def test_rejects_p_not_above_one(self):
        with pytest.raises(DomainError):
            admissibility_quadratic(0.5, 1.0, 0.5, 1.0)


class TestDiscriminant:
    def test_direct_value(self):
        assert admissibility_discriminant(2.0, 0.5, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_vanishes_at_p_max(self):
        chi, k = 0.5, 1.0
        pm = p_max(chi, k)
        assert abs(admissibility_discriminant(pm, chi, k)) < 1e-12 * k * k

    def test_positive_when_no_upper_restriction(self):
        # chi = 1 - k sits on the positive-part boundary; rounding may leave
        # p_max astronomically large instead of infinite, either is consistent.
        assert p_max(0.1, 0.9) > 1e10
        assert math.isinf(p_max(0.09, 0.9))
        assert admissibility_discriminant(1.5, 0.1, 0.9) > 0.0

    def test_factorization_identity(self, rng):
        # 4(p-1)^2 [p chi (k-1) - 2k]^2 - 4(p-1)^2 p chi^2 [p(k-1)^2 + 4k]
        #   == 16 (p-1)^2 * bracket
        for _ in range(10_000):
            p, chi, k = sample_window_triple(rng)
            t1 = 4.0 * (p - 1.0) ** 2 * (p * chi * (k - 1.0) - 2.0 * k) ** 2
            t2 = 4.0 * (p - 1.0) ** 2 * p * chi * chi * (p * (k - 1.0) ** 2 + 4.0 * k)
            rhs = 16.0 * (p - 1.0) ** 2 * admissibility_discriminant(p, chi, k)
            assert abs((t1 - t2) - rhs) <= 1e-10 * max(t1, t2, abs(rhs))


class TestAdmissibleWindow:
    def test_against_polynomial_root_oracle(self):
        p, chi, k = 2.0, 0.5, 1.0
        a, b, c = admissibility_coeffs(p, chi, k)
        lo, hi = np.sort(np.roots([a, b, c]).real)
        w = admissible_window(p, chi, k)
        assert w.r_minus == pytest.approx(float(lo), abs=1e-6)
        assert w.r_plus == pytest.approx(float(hi), abs=1e-6)
        # frozen values from that oracle: (2 - sqrt(2))/4 and (2 + sqrt(2))/4
        assert w.r_minus == pytest.approx(0.14644661, abs=1e-6)
        assert w.r_plus == pytest.approx(0.85355339, abs=1e-6)

    def test_undefined_beyond_p_max(self):
        with pytest.raises(WindowUndefined):
            admissible_window(5.0, 0.5, 1.0)  # p_max = 4
        with pytest.raises(WindowUndefined):
            admissible_window(4.0, 0.5, 1.0)  # boundary itself rejected

    def test_roots_and_midpoint_properties(self, rng):
        for _ in range(10_000):
            p, chi, k = sample_window_triple(rng)
            try:
                w = admissible_window(p, chi, k)
            except WindowUndefined:
                continue
            a, b, c = admissibility_coeffs(p, chi, k)

            def scaled(r):
                val = admissibility_quadratic(r, p, chi, k)
                scale = (abs(a) * r * r + abs(b) * abs(r) + abs(c)) / (4.0 * (p - 1.0))
                return val, max(scale, 1e-300)

            for root in (w.r_minus, w.r_plus):
                val, scale = scaled(root)
                assert abs(val) <= 1e-10 * scale
            mid_val, _ = scaled(w.midpoint)
            assert mid_val < 0.0
            assert w.midpoint == pytest.approx(
                (p - 1.0) * center_ratio(p, chi, k), rel=1e-12
            )
            assert 0.0 < w.r_minus < w.r_plus

    @settings(max_examples=150, deadline=None)
    @given(
        p=st.floats(1.01, 30.0),
        chi=st.floats(0.02, 0.98),
        k=st.floats(0.05, 20.0),
        frac=st.floats(1e-6, 1.0 - 1e-6),
    )
    def test_quadratic_negative_strictly_inside(self, p, chi, k, frac):
        try:
            w = admissible_window(p, chi, k)
        except WindowUndefined:
            return
        r = w.r_minus + frac * (w.r_plus - w.r_minus)
        a, b, c = admissibility_coeffs(p, chi, k)
        scale = (abs(a) * r * r + abs(b) * abs(r) + abs(c)) / (4.0 * (p - 1.0))
        assert admissibility_quadratic(r, p, chi, k) < 1e-12 * scale

    def test_direct_construction_validates(self):
        with pytest.raises(DomainError):
            AdmissibleWindow(2.0, 0.5, 0.4)
        with pytest.raises(DomainError):
            AdmissibleWindow(2.0, -0.1, 0.4)


# ---------------------------------------------------------------------------
# bootstrap gain functions
# ---------------------------------------------------------------------------


class TestBootstrapGain:
    def test_quadratic_direct_value(self):
        # 2*0.5*4 + (1 - 0)*2 + 0 = 6
        assert bootstrap_gain_quadratic(2.0, 0.5, 0.5, 6) == pytest.approx(6.0, rel=1e-14)

    def test_quadratic_at_one_is_two(self, rng):
        for n in range(3, 9):
            for _ in range(30):
                chi, k = sample_admissible_chik(rng, n)
                b = center_ratio_bounds(chi, k, n)
                assert bootstrap_gain_quadratic(1.0, b.c0, b.c_sup, n) == pytest.approx(
                    2.0, rel=1e-12
                )

    def test_quadratic_at_half_n_closed_form(self, rng):
        # evaluating the quadratic at n/2 collapses to n^2 (1-c_sup)/2 + n c_sup
        for n in range(3, 9):
            for _ in range(30):
                chi, k = sample_admissible_chik(rng, n)
                b = center_ratio_bounds(chi, k, n)
                expected = n * n * (1.0 - b.c_sup) / 2.0 + n * b.c_sup
                got = bootstrap_gain_quadratic(n / 2.0, b.c0, b.c_sup, n)
                assert got == pytest.approx(expected, rel=1e-12)
                assert got > 0.0

    def test_quadratic_positive_on_dense_grids(self, rng):
        for n in range(3, 9):
            for _ in range(200):
                chi, k = sample_admissible_chik(rng, n)
                b = center_ratio_bounds(chi, k, n)
                xs = np.linspace(1.0, n / 2.0, 257)
                vals = [bootstrap_gain_quadratic(float(x), b.c0, b.c_sup, n) for x in xs]
                assert min(vals) > 0.0

    def test_gain_is_quadratic_over_cleared_denominator(self, rng):
        for _ in range(300):
            n = int(rng.integers(3, 9))
            chi, k = sample_admissible_chik(rng, n)
            b = center_ratio_bounds(chi, k, n)
            x = float(rng.uniform(1.0 + 1e-6, n / 2.0 - 1e-6))
            f = bootstrap_gain(x, b.c0, b.c_sup, n)
            g = bootstrap_gain_quadratic(x, b.c0, b.c_sup, n)
            assert f == pytest.approx(g / ((n - 2.0 * x) * (1.0 - b.c0)), rel=1e-10)
            assert f > 0.0

    def test_gain_infinite_at_half_n(self):
        assert math.isinf(bootstrap_gain(3.0, 0.5, 0.5, 6))


class TestNextPUpper:
    def test_hand_iteration_value(self):
        # c0 = c_sup = 1/2, n = 6 collapses F to 4p / (3 - p)
        assert next_p_upper(1.5, 0.5, 0.5, 6) == pytest.approx(4.0, rel=1e-14)

    def test_infinite_at_half_n(self):
        assert math.isinf(next_p_upper(3.0, 0.5, 0.5, 6))
        assert math.isinf(next_p_upper(3.0 * (1 - 1e-14), 0.5, 0.5, 6))

    def test_exceeds_current_exponent(self, rng):
        for _ in range(400):
            n = int(rng.integers(3, 9))
            chi, k = sample_admissible_chik(rng, n)
            b = center_ratio_bounds(chi, k, n)
            p = float(rng.uniform(1.0 + 1e-6, n / 2.0))
            assert next_p_upper(p, b.c0, b.c_sup, n) > p

    def test_domain_violations(self):
        with pytest.raises(DomainError):
            next_p_upper(1.0, 0.5, 0.5, 6)
        with pytest.raises(DomainError):
            next_p_upper(3.5, 0.5, 0.5, 6)
        with pytest.raises(DomainError):
            next_p_upper(2.0, 0.0, 0.5, 6)


# ---------------------------------------------------------------------------
# bootstrap chains
# ---------------------------------------------------------------------------


class TestBootstrap:
    def test_worked_chain(self):
        # Independent scripted iteration for chi=0.4, k=1, n=6, theta=1/2:
        # p_max = 1/chi^2, F(p) = 4p/(3-p), start bound (6*0.5+1)/(4*0.5) = 2.
        pm = 1.0 / (0.4 * 0.4)
        expected = []
        upper = min(pm, 2.0)
        p = 1.0 + 0.5 * (upper - 1.0)
        while True:
            expected.append(p)
            if p > 3.0:
                break
            upper = min(pm, 4.0 * p / (3.0 - p))
            p = p + 0.5 * (upper - p)

        chain = bootstrap(ModelParams(chi=0.4, k=1.0, n=6), theta=0.5)
        ps = [s.p for s in chain.steps]
        assert ps == expected  # bit-identical to the scripted oracle
        assert ps == pytest.approx([1.5, 2.75, 4.5], abs=1e-12)
        assert chain.terminated
        assert chain.final_q == pytest.approx(0.5 * (3.0 + 4.5), abs=1e-12)
        assert [s.r for s in chain.steps] == pytest.approx(
            [(p - 1.0) * 0.5 for p in ps], rel=1e-15
        )

    def test_low_dimensions_terminate_in_one_step(self):
        chain = bootstrap(ModelParams(chi=0.3, k=1.0, n=3), theta=0.5)
        assert chain.terminated and len(chain.steps) == 1
        assert chain.steps[0].p == pytest.approx(3.0, rel=1e-14)
        assert 1.5 < chain.final_q < chain.steps[0].p

    def test_first_upper_bound_exceeds_half_n_for_n_3_and_4(self, rng):
        for n in (3, 4):
            for _ in range(100):
                chi, k = sample_admissible_chik(rng, n)
                chain = bootstrap(ModelParams(chi=chi, k=k, n=n), theta=0.5)
                assert chain.steps[0].upper_used > n / 2.0

    def test_two_dimensions_single_step(self):
        chain = bootstrap(ModelParams(chi=0.5, k=1.0, n=2), theta=0.5)
        assert chain.terminated and len(chain.steps) == 1
        assert chain.steps[0].p == pytest.approx(2.5, rel=1e-14)  # 1 + (4-1)/2
        assert chain.steps[0].r == pytest.approx(0.75, rel=1e-14)

    def test_infinite_upper_bound_is_capped(self):
        # k < 1 and chi <= 1-k make p_max infinite; n = 2 then relies on the cap.
        chain = bootstrap(ModelParams(chi=0.3, k=0.5, n=2), theta=0.5)
        assert chain.terminated and len(chain.steps) == 1
        assert chain.steps[0].upper_used == pytest.approx(4.0)
        assert chain.steps[0].p == pytest.approx(2.5)

    def test_not_applicable_at_or_above_threshold(self):
        with pytest.raises(NotApplicable):
            bootstrap(ModelParams(chi=1.0, k=1.0, n=2))
        with pytest.raises(NotApplicable):
            bootstrap(ModelParams(chi=1.2, k=1.0, n=2))

    def test_termination_and_monotonicity(self, rng):
        for n in range(3, 9):
            for theta in (0.3, 0.5, 0.7):
                for _ in range(100):
                    chi, k = sample_admissible_chik(rng, n)
                    chain = bootstrap(ModelParams(chi=chi, k=k, n=n), theta=theta, max_steps=50)
                    assert chain.terminated
                    ps = [s.p for s in chain.steps]
                    assert all(a < b for a, b in zip(ps, ps[1:]))
                    assert ps[-1] > n / 2.0
                    assert n / 2.0 < chain.final_q < ps[-1]
                    pm = p_max(chi, k)
                    assert all(s.p < pm and s.p < s.upper_used for s in chain.steps)

    def test_r_values_sit_strictly_inside_their_windows(self, rng):
        for _ in range(150):
            n = int(rng.integers(2, 9))
            chi, k = sample_admissible_chik(rng, n)
            chain = bootstrap(ModelParams(chi=chi, k=k, n=n), theta=0.5)
            for srec in chain.steps:
                w = admissible_window(srec.p, chi, k)
                assert w.contains(srec.r)

    def test_deterministic(self):
        a = bootstrap(ModelParams(chi=0.37, k=2.3, n=7), theta=0.41)
        b = bootstrap(ModelParams(chi=0.37, k=2.3, n=7), theta=0.41)
        assert a == b

    def test_extreme_parameter_corners(self, rng):
        # wide k range, chi up to 99% of the threshold, cautious-to-greedy theta
        for _ in range(500):
            n = int(rng.integers(2, 9))
            k = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
            chi = float(rng.uniform(0.01, 0.99)) * chi_star(k, n)
            theta = float(rng.uniform(0.1, 0.9))
            chain = bootstrap(ModelParams(chi=chi, k=k, n=n), theta=theta, max_steps=200)
            assert chain.terminated
            ps = [s.p for s in chain.steps]
            assert all(a < b for a, b in zip(ps, ps[1:]))
            assert ps[-1] > n / 2.0
            for srec in chain.steps:
                assert admissible_window(srec.p, chi, k).contains(srec.r)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            bootstrap(ModelParams(chi=0.4, k=1.0, n=6), theta=0.0)
        with pytest.raises(DomainError):
            bootstrap(ModelParams(chi=0.4, k=1.0, n=6), theta=1.0)
        with pytest.raises(DomainError):
            ModelParams(chi=-0.1, k=1.0, n=6)
        with pytest.raises(DomainError):
            ModelParams(chi=0.4, k=0.0, n=6)
        with pytest.raises(DomainError):
            ModelParams(chi=0.4, k=1.0, n=1)


def test_below_threshold_boundary_band():
    cs = chi_star(1.0, 2)
    assert is_below_threshold(0.999999, 1.0, 2)
    assert not is_below_threshold(cs, 1.0, 2)
    assert not is_below_threshold(cs * (1.0 - 1e-14), 1.0, 2)


@pytest.mark.parametrize("k", [0.05, 1.0, 20.0])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_chi_zero_is_below_every_threshold(k, n):
    # the predicate takes ModelParams' domain for chi, so a sweep's chi = 0 asks it too
    assert is_below_threshold(0.0, k, n)


def test_below_threshold_still_refuses_a_negative_chi():
    with pytest.raises(DomainError):
        is_below_threshold(-0.1, 1.0, 3)


def test_both_threshold_refusals_say_the_same():
    chi = 1.01 * chi_star(1.0, 3)
    with pytest.raises(NotApplicable) as bounds:
        center_ratio_bounds(chi, 1.0, 3)
    with pytest.raises(NotApplicable) as chain:
        bootstrap(ModelParams(chi=chi, k=1.0, n=3))
    assert str(bounds.value) == str(chain.value)


def test_half_n_refusals_name_their_argument():
    with pytest.raises(DomainError, match="x must be <= n/2 = 1.5"):
        bootstrap_gain(1.6, 0.4, 0.5, 3)
    with pytest.raises(DomainError, match="p_prev must be <= n/2 = 1.5"):
        next_p_upper(1.6, 0.4, 0.5, 3)
