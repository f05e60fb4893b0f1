"""Numerical axiom checks on three-point scenarios and randomized suites."""

import hashlib

import numpy as np
import pytest

import netpolar.axioms
from netpolar.alpha_bounds import f_eval, lemma1_witness
from netpolar.axioms import (
    AxiomScenario,
    check_axiom1,
    check_axiom2,
    check_axiom3,
    run_suite,
)
from netpolar.errors import ConvergenceFailureError, DomainError


def a1(alpha=1.0, p=2.0, q=0.1, d_xy=4.0, d_xz=6.0, d_yz=1.0):
    return AxiomScenario("A1", alpha, p, q, d_xy=d_xy, d_xz=d_xz, d_yz=d_yz)


def a2(alpha=1.0, p=2.0, q=1.0, r=0.5, d_xy=2.0, d_xz=2.5, d_yz=1.0, delta=0.1):
    return AxiomScenario("A2", alpha, p, q, r=r, d_xy=d_xy, d_xz=d_xz,
                         d_yz=d_yz, perturbation=delta)


def a3(alpha=1.0, p=1.0, q=0.8, d=1.0, c_bar=1.5, delta=1e-3, kind="A3", threshold=None):
    return AxiomScenario(kind, alpha, p, q, d=d, c_bar=c_bar,
                         perturbation=delta, c_threshold=threshold)


class TestScenarioValidation:
    def test_a1_needs_strict_mass_order(self):
        with pytest.raises(DomainError, match="A1 needs pi_x > pi_y = pi_z > 0"):
            check_axiom1(a1(p=1.0, q=1.0))

    def test_a1_needs_ordered_distances(self):
        with pytest.raises(DomainError, match="A1 needs 0 < d_xy <= d_xz"):
            check_axiom1(a1(d_xy=6.0, d_xz=4.0))

    def test_a2_needs_strict_distance_chain(self):
        with pytest.raises(DomainError, match="A2 needs d_xz > d_xy > d_yz > 0"):
            check_axiom2(a2(d_xy=2.5, d_xz=2.0))

    def test_a2_shift_must_stay_admissible(self):
        with pytest.raises(DomainError, match="A2 shift outside the admissible window"):
            check_axiom2(a2(delta=5.0))

    def test_a3_reallocation_capped_at_half_the_middle_mass(self):
        with pytest.raises(DomainError, match="A3 needs reallocation in"):
            check_axiom3(a3(delta=0.6))

    def test_a3_needs_spread_ratio_above_one(self):
        with pytest.raises(DomainError, match="A3 needs lateral ratio c_bar > 1"):
            check_axiom3(a3(c_bar=1.0))

    @pytest.mark.parametrize("alpha", [0.0, np.inf, np.nan])
    def test_nonpositive_or_nonfinite_alpha_rejected(self, alpha):
        with pytest.raises(DomainError, match="alpha must be positive and finite"):
            check_axiom1(a1(alpha=alpha))

    def test_kind_mismatch_rejected(self):
        with pytest.raises(DomainError, match="expected kind A1, got 'A2'"):
            check_axiom1(a2())
        with pytest.raises(DomainError, match="expected kind A3 or A3c, got 'A1'"):
            check_axiom3(a1())

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError, match="unknown scenario kind 'A9'"):
            AxiomScenario("A9", 1.0, 1.0, 0.5).validate()


class TestAxiom1:
    def test_merging_small_flanks_raises_polarization(self):
        # (2^1 - 1)(4 + 6) * 2 = 20 dwarfs 2 * 0.1 * 1 = 0.2
        verdict = check_axiom1(a1())
        assert verdict.satisfied and verdict.closed_form
        assert verdict.after > verdict.before

    def test_large_flank_separation_can_flip_the_verdict(self):
        verdict = check_axiom1(a1(p=1.0, q=0.9, d_yz=8.0, d_xy=0.5, d_xz=0.5))
        assert not verdict.satisfied and not verdict.closed_form

    def test_margin_sign_always_matches_the_closed_form(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            p = float(rng.uniform(0.1, 5.0))
            q = p * float(rng.uniform(0.05, 0.95))
            d1, d2 = np.sort(rng.uniform(0.1, 5.0, 2))
            s = a1(alpha=float(rng.uniform(0.2, 2.5)), p=p, q=q,
                   d_xy=float(d1), d_xz=float(d2), d_yz=float(rng.uniform(0.0, 8.0)))
            verdict = check_axiom1(s)
            assert verdict.satisfied == verdict.closed_form

    def test_margin_has_closed_form_value(self):
        s = a1(alpha=1.3)
        verdict = check_axiom1(s)
        expected = s.q ** (1 + s.alpha) * (
            (2.0 ** s.alpha - 1.0) * s.p * (s.d_xy + s.d_xz) - 2.0 * s.q * s.d_yz
        )
        assert verdict.margin == pytest.approx(expected, rel=1e-12)

    def test_K_scales_margin_linearly(self):
        base = check_axiom1(a1()).margin
        assert check_axiom1(a1(), K=3.0).margin == pytest.approx(3.0 * base, rel=1e-12)


class TestAxiom2:
    def test_shifting_toward_the_smaller_extreme_raises_polarization(self):
        verdict = check_axiom2(a2())
        assert verdict.satisfied and verdict.after > verdict.before

    def test_margin_matches_derived_expression(self):
        rng = np.random.default_rng(77)
        for _ in range(500):
            p = float(rng.uniform(0.2, 5.0))
            r = p * float(rng.uniform(0.05, 0.95))
            q = float(rng.uniform(0.2, 5.0))
            d_xy = float(rng.uniform(0.5, 3.0))
            d_yz = d_xy * float(rng.uniform(0.1, 0.9))
            d_xz = d_xy + d_yz * float(rng.uniform(0.1, 0.9))
            delta = min(d_xz - d_xy, d_yz) * float(rng.uniform(0.05, 0.9))
            alpha = float(rng.uniform(0.2, 2.5))
            s = a2(alpha=alpha, p=p, q=q, r=r, d_xy=d_xy, d_xz=d_xz,
                   d_yz=d_yz, delta=delta)
            verdict = check_axiom2(s)
            expected = delta * (
                q * (p ** (1 + alpha) - r ** (1 + alpha)) + q ** (1 + alpha) * (p - r)
            )
            assert verdict.margin == pytest.approx(expected, rel=1e-9)
            assert verdict.satisfied

    def test_mass_rescaling_preserves_the_verdict(self):
        for lam in (0.1, 7.0):
            s = a2()
            scaled = a2(p=s.p * lam, q=s.q * lam, r=s.r * lam)
            assert check_axiom2(scaled).satisfied == check_axiom2(s).satisfied


class TestAxiom3:
    def test_outward_reallocation_raises_polarization_at_moderate_spread(self):
        verdict = check_axiom3(a3(c_bar=1.5))
        assert verdict.satisfied and verdict.f_value < 0

    def test_small_spread_with_high_exponent_violates(self):
        verdict = check_axiom3(a3(alpha=1.5, c_bar=1.05, q=0.8))
        assert not verdict.satisfied and verdict.f_value > 0

    def test_full_dissolution_of_the_middle_group(self):
        s = a3(delta=0.5)
        verdict = check_axiom3(s)
        # all of pi_x moves outward: P becomes 2 (q + p/2)^(2+alpha) c d
        expected_after = 2.0 * (s.q + s.p / 2.0) ** (2.0 + s.alpha) * s.c_bar * s.d
        assert verdict.after == pytest.approx(expected_after, rel=1e-12)

    def test_margin_slope_matches_the_sign_function(self):
        # d(margin)/d(delta) at 0 equals -4 d p^(1+alpha) f(q/p, alpha, c)
        rng = np.random.default_rng(404)
        for _ in range(200):
            alpha = float(rng.uniform(0.3, 2.2))
            p = float(rng.uniform(0.2, 4.0))
            q = float(rng.uniform(0.2, 4.0))
            d = float(rng.uniform(0.2, 4.0))
            c_bar = float(rng.uniform(1.01, 2.0))
            delta = 1e-7 * p
            verdict = check_axiom3(a3(alpha=alpha, p=p, q=q, d=d, c_bar=c_bar, delta=delta))
            slope = -4.0 * d * p ** (1.0 + alpha) * f_eval(q / p, alpha, c_bar)
            assert verdict.margin / delta == pytest.approx(slope, rel=1e-4, abs=1e-9)

    def test_positivity_witnesses_translate_into_violations(self):
        for alpha in (0.5, 0.8, 1.2, 1.5):
            z, c = lemma1_witness(alpha)
            verdict = check_axiom3(a3(alpha=alpha, p=1.0, q=z, c_bar=c, delta=1e-5))
            assert not verdict.satisfied

    def test_K_does_not_change_the_verdict(self):
        s = a3(alpha=1.5, c_bar=1.05, q=0.8)
        assert check_axiom3(s, K=10.0).satisfied == check_axiom3(s).satisfied

    def test_threshold_gating(self):
        ok = a3(kind="A3c", c_bar=1.8, threshold=1.5)
        assert check_axiom3(ok).satisfied
        with pytest.raises(DomainError, match="below the fixed threshold 1.5"):
            check_axiom3(a3(kind="A3c", c_bar=1.2, threshold=1.5))

    def test_threshold_required_for_conditional_kind(self):
        with pytest.raises(DomainError, match="A3c needs a threshold c"):
            check_axiom3(a3(kind="A3c"))


class TestSuites:
    def test_merge_suite_clean_at_alpha_one(self):
        report = run_suite("A1", alpha=1.0, count=2000, seed=11)
        assert report.failures == 0 and report.witness is None
        assert report.samples == 2000

    def test_shift_suite_clean_for_any_exponent(self):
        for alpha in (0.5, 1.0, 2.0):
            report = run_suite("A2", alpha=alpha, count=2000, seed=12)
            assert report.failures == 0

    def test_spread_suite_clean_at_alpha_one(self):
        report = run_suite("A3", alpha=1.0, count=2000, seed=13)
        assert report.failures == 0

    def test_spread_suite_fails_off_the_characterized_exponent(self):
        report = run_suite("A3", alpha=1.5, count=500, seed=14)
        assert report.failures > 0
        assert report.witness is not None
        assert report.witness["verdict"]["satisfied"] is False

    def test_conditional_suite_respects_the_threshold(self):
        report = run_suite("A3c", alpha=1.0, count=500, seed=15, c=1.4)
        assert report.failures == 0 and report.c == 1.4

    def test_determinism_per_seed(self):
        a = run_suite("A3", alpha=1.7, count=300, seed=42)
        b = run_suite("A3", alpha=1.7, count=300, seed=42)
        assert a == b

    def test_report_serializes(self):
        import json

        report = run_suite("A1", alpha=1.0, count=10, seed=1)
        payload = json.loads(report.to_json())
        assert payload["axiom"] == "A1" and payload["samples"] == 10

    @pytest.mark.parametrize("alpha, count, seed, digest", [
        (0.05, 50, 3, "09960008c2557c4296f0cc077583b49b01231dd2f6e464ecd8797d6ea87d72b5"),
        (0.3, 500, 4, "217df1c146cf47f915ac6f63efa0dc160def7da96458d3014cdf60c2a5f9dac7"),
    ])
    def test_a1_reports_pinned_before_the_draw_cap(self, alpha, count, seed, digest):
        # recorded when the A1 sampler had no cap: the cap keeps the draw order
        text = run_suite("A1", alpha=alpha, count=count, seed=seed).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("axiom, alpha, seed, c, digest", [
        ("A2", 0.7, 5, None, "5f93a9721e2b45b5e75e86162b4dae8872c7d92ca14c7444eeecc8aa8aa6403f"),
        ("A3", 1.5, 6, None, "836930f77adc7931b91d66c4d8c54a49e77dcc7030de16209b9879f74dd119e6"),
        ("A3c", 1.7, 8, 1.05, "3e34141191916554072918f25548a30605a37c625f0c6e25fdd950f958496479"),
    ])
    def test_suite_reports_pinned_with_the_default_ranges(self, axiom, alpha, seed, c, digest):
        # recorded when the sampling ranges were a settable dataclass with these defaults
        text = run_suite(axiom, alpha=alpha, count=400, seed=seed, c=c).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_a1_sampler_gives_up_after_a_fixed_number_of_draws(self, monkeypatch):
        monkeypatch.setattr(netpolar.axioms, "MAX_A1_DRAWS", 50)
        with pytest.raises(ConvergenceFailureError,
                           match=r"accepted 0 of 50 draws at alpha=1e-09 \(observed acceptance "
                                 r"rate 0, below 0\.02\)"):
            run_suite("A1", alpha=1e-9, count=10, seed=1)

    def test_unknown_axiom(self):
        with pytest.raises(DomainError, match="unknown axiom 'A7'"):
            run_suite("A7", alpha=1.0, count=10, seed=1)

    def test_empty_count(self):
        with pytest.raises(DomainError, match="count must be at least 1"):
            run_suite("A1", alpha=1.0, count=0, seed=1)

    def test_threshold_outside_sampling_range(self):
        with pytest.raises(DomainError, match="threshold 2.5 leaves no admissible c_bar"):
            run_suite("A3c", alpha=1.0, count=10, seed=1, c=2.5)

    @pytest.mark.parametrize("axiom", ["A1", "A2", "A3"])
    def test_threshold_rejected_outside_the_conditional_suite(self, axiom):
        with pytest.raises(DomainError) as exc:
            run_suite(axiom, alpha=1.0, count=10, seed=1, c=1.5)
        assert str(exc.value) == f"c applies to the A3c suite only, got c=1.5 for {axiom}"


BAD_K = [-1.0, 0.0, np.nan, np.inf]


class TestScenariosCheckThemselves:
    @pytest.mark.parametrize("make, message", [
        (lambda: a1(p=1.0, q=1.0), "A1 needs pi_x > pi_y = pi_z > 0"),
        (lambda: a2(delta=5.0), "A2 shift outside the admissible window"),
        (lambda: a3(c_bar=1.0), "A3 needs lateral ratio c_bar > 1"),
        (lambda: a3(alpha=np.nan), "alpha must be positive and finite, got nan"),
        (lambda: a3(kind="A3c"), "A3c needs a threshold c"),
        (lambda: a3(kind="A3c", c_bar=1.2, threshold=1.5),
         "lateral ratio 1.2 below the fixed threshold 1.5"),
        (lambda: AxiomScenario("A9", 1.0, 1.0, 0.5), "unknown scenario kind 'A9'"),
    ], ids=["A1-masses", "A2-window", "A3-ratio", "alpha-nan", "A3c-no-threshold",
            "A3c-below-threshold", "unknown-kind"])
    def test_invalid_scenario_raises_when_made(self, make, message):
        with pytest.raises(DomainError) as exc:
            make()
        assert str(exc.value) == message


class TestK:
    @pytest.mark.parametrize("K", BAD_K)
    @pytest.mark.parametrize("check, scenario", [(check_axiom1, a1()), (check_axiom2, a2()),
                                                 (check_axiom3, a3())],
                             ids=["A1", "A2", "A3"])
    def test_checks_reject_K_outside_its_domain(self, check, scenario, K):
        with pytest.raises(DomainError, match=f"^K must be positive and finite, got {K}$"):
            check(scenario, K=K)

    @pytest.mark.parametrize("K", BAD_K)
    @pytest.mark.parametrize("axiom", ["A1", "A2", "A3", "A3c"])
    def test_suites_reject_K_outside_its_domain(self, axiom, K):
        c = 1.5 if axiom == "A3c" else None
        with pytest.raises(DomainError, match=f"^K must be positive and finite, got {K}$"):
            run_suite(axiom, alpha=1.0, count=5, seed=1, c=c, K=K)
