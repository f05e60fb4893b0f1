"""The sign function f, its value function v, and admissible exponent bounds."""

import warnings

import numpy as np
import pytest

from netpolar.alpha_bounds import (
    AlphaInterval,
    admissible_interval,
    alpha_lower,
    alpha_upper,
    f_eval,
    lemma1_witness,
    v_eval,
)
from netpolar.errors import ConvergenceFailureError, DomainError

# Frozen at tolerance 1e-10 from an independent run of the bisection with
# the closed-form alpha = 1 cross-checks below confirming the machinery.
FROZEN_INTERVALS = {
    1.05: (0.7830415857, 1.1741107789),
    1.1: (0.6796696384, 1.2366986827),
    1.3: (0.4021228756, 1.3756136633),
    1.5: (0.2200607935, 1.4600659949),
    1.8: (0.0541321457, 1.5504167380),
    2.0: (None, 1.5977838594),
}


def f_reference(z, alpha, c):
    """Term-by-term reimplementation of f, kept deliberately verbose."""
    first = z
    second = -(z ** alpha) / 2.0
    third = (z ** (1.0 + alpha) / 2.0) * (2.0 - c * (2.0 + alpha)) / (1.0 + alpha)
    return (1.0 + alpha) * (first + second + third) - 0.5


class TestF:
    def test_zero_at_balanced_point(self):
        assert f_eval(1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_alpha_one_c_one_closed_form(self):
        # f(z, 1, 1) collapses to -(z - 1)^2 / 2
        for z in np.linspace(0.0, 4.0, 81):
            assert f_eval(z, 1.0, 1.0) == pytest.approx(-((z - 1.0) ** 2) / 2.0, abs=1e-12)

    def test_value_at_zero(self):
        for alpha in (0.3, 1.0, 2.0):
            for c in (1.0, 1.5, 2.0):
                assert f_eval(0.0, alpha, c) == pytest.approx(-0.5, abs=1e-15)

    def test_value_at_zero_alpha_zero(self):
        # at alpha = 0 the z^alpha term no longer vanishes at z = 0
        assert f_eval(0.0, 0.0, 1.5) == pytest.approx(-1.0, abs=1e-15)

    def test_matches_term_by_term_reference(self):
        zs = np.linspace(0.0, 5.0, 101)
        for alpha in (0.3, 0.9, 1.0, 1.7, 2.5):
            for c in (1.0, 1.4, 2.0):
                got = f_eval(zs, alpha, c)
                want = f_reference(zs, alpha, c)
                assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_vectorized_and_scalar_agree(self):
        zs = np.array([0.2, 1.0, 3.0])
        vec = f_eval(zs, 1.3, 1.5)
        assert vec.shape == (3,)
        for z, val in zip(zs, vec):
            assert f_eval(float(z), 1.3, 1.5) == val

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            f_eval(-0.1, 1.0, 1.5)
        with pytest.raises(DomainError):
            f_eval(1.0, -0.5, 1.5)
        with pytest.raises(DomainError):
            f_eval(1.0, 1.0, 0.9)
        with pytest.raises(DomainError):
            f_eval(1.0, 1.0, 2.1)


class TestV:
    def test_alpha_one_closed_form(self):
        # f(z, 1, c) = z + z^2 (2 - 3c) / 2 - 1/2 peaks at z = 1 / (3c - 2)
        for c in (1.1, 1.5, 2.0):
            value, argmax = v_eval(1.0, c)
            assert argmax == pytest.approx(1.0 / (3.0 * c - 2.0), rel=1e-9)
            assert value == pytest.approx(0.5 / (3.0 * c - 2.0) - 0.5, rel=1e-9)

    def test_negative_at_alpha_one(self):
        for c in (1.01, 1.5, 2.0):
            assert v_eval(1.0, c)[0] < 0.0

    def test_positive_at_alpha_two(self):
        for c in (1.1, 1.5, 2.0):
            assert v_eval(2.0, c)[0] > 0.0

    def test_alpha_zero_unbounded_below_c_two(self):
        assert v_eval(0.0, 1.5)[0] == float("inf")

    def test_alpha_zero_at_c_two(self):
        value, argmax = v_eval(0.0, 2.0)
        assert value == -1.0 and argmax == 0.0

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.2, 1.8])
    def test_argmax_is_a_local_maximum(self, alpha):
        for c in (1.2, 1.9):
            value, z = v_eval(alpha, c)
            if not np.isfinite(z):
                continue
            h = 1e-5 * max(z, 1.0)
            assert value >= f_eval(z + h, alpha, c) - 1e-12
            if z > h:
                assert value >= f_eval(z - h, alpha, c) - 1e-12

    def test_dominates_dense_grid(self):
        zs = np.linspace(0.0, 50.0, 20001)
        for alpha, c in ((0.5, 1.3), (1.5, 1.3), (0.8, 1.9), (2.2, 1.1)):
            value = v_eval(alpha, c)[0]
            assert value >= f_eval(zs, alpha, c).max() - 1e-9

    def test_increasing_in_alpha_above_one(self):
        for c in (1.2, 1.7, 2.0):
            vals = [v_eval(a, c)[0] for a in (1.0, 1.3, 1.6, 2.0)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            v_eval(1.0, 1.0)  # c must exceed 1
        with pytest.raises(DomainError):
            v_eval(-0.1, 1.5)


class TestBounds:
    def test_upper_bound_for_maximal_ratio(self):
        assert alpha_upper(2.0) == pytest.approx(1.5977838594, abs=1e-6)

    def test_frozen_interval_table(self):
        for c, (lo, up) in FROZEN_INTERVALS.items():
            assert alpha_upper(c) == pytest.approx(up, abs=1e-6)
            got_lo = alpha_lower(c)
            if lo is None:
                assert got_lo is None
            else:
                assert got_lo == pytest.approx(lo, abs=1e-6)

    def test_upper_bound_exceeds_one(self):
        for c in (1.01, 1.4, 2.0):
            assert alpha_upper(c) > 1.0

    def test_upper_increasing_lower_decreasing_in_c(self):
        cs = [1.05, 1.1, 1.3, 1.5, 1.8]
        uppers = [alpha_upper(c) for c in cs]
        lowers = [alpha_lower(c) for c in cs]
        assert all(b > a for a, b in zip(uppers, uppers[1:]))
        assert all(b < a for a, b in zip(lowers, lowers[1:]))

    def test_value_function_changes_sign_at_the_bounds(self):
        for c in (1.2, 1.7):
            up = alpha_upper(c, tol=1e-9)
            assert v_eval(up - 1e-6, c)[0] < 0 < v_eval(up + 1e-6, c)[0]
            lo = alpha_lower(c, tol=1e-9)
            assert v_eval(lo + 1e-6, c)[0] < 0 < v_eval(lo - 1e-6, c)[0]

    def test_intervals_nest_as_c_grows(self):
        prev = admissible_interval(1.05)
        for c in (1.1, 1.3, 1.5, 1.8, 2.0):
            cur = admissible_interval(c)
            assert cur.upper > prev.upper
            if cur.lower is not None:
                assert prev.lower is not None and cur.lower < prev.lower
            prev = cur

    def test_interval_contains_the_characterized_exponent(self):
        for c in (1.01, 1.2, 1.6, 2.0):
            assert admissible_interval(c).contains(1.0)

    def test_interval_shrinks_toward_one(self):
        iv = admissible_interval(1.0005)
        assert 0.97 < iv.lower < 1.0 < iv.upper < 1.03

    def test_interval_membership_and_serialization(self):
        iv = AlphaInterval(1.5, 0.22, 1.46, 1e-9)
        assert iv.contains(1.0) and not iv.contains(1.5)
        assert iv.to_dict() == {
            "c": 1.5, "alpha_lower": 0.22, "alpha_upper": 1.46, "tolerance": 1e-9,
        }
        open_below = AlphaInterval(2.0, None, 1.6, 1e-9)
        assert open_below.contains(0.0) and open_below.contains(1.6)

    def test_domain_errors(self):
        for bad_c in (1.0, 2.5):
            with pytest.raises(DomainError):
                alpha_upper(bad_c)
            with pytest.raises(DomainError):
                alpha_lower(bad_c)
        with pytest.raises(DomainError):
            alpha_upper(1.5, tol=0.0)


# 40-digit mpmath solutions of v(alpha, c) = 0, rounded to double
REFERENCE_LOWER = {
    1.0005: 0.980414233741392,
    1.1: 0.6796696384808145,
    1.5: 0.22006079353488572,
    1.9: 0.02130105360146452,
    1.99: 0.0013149012500487229,
    1.9999: 7.839581222575468e-06,
    1.999999: 5.653418603937381e-08,
}
REFERENCE_UPPER = {1.0005: 1.019148348382068, 1.5: 1.460065994912904, 2.0: 1.5977838594306615}


class TestReferenceBounds:
    @pytest.mark.parametrize("c, want", REFERENCE_LOWER.items())
    def test_lower_bound_within_tolerance(self, c, want):
        tol = 1e-9
        assert abs(alpha_lower(c, tol) - want) <= tol

    @pytest.mark.parametrize("c, want", REFERENCE_UPPER.items())
    def test_upper_bound_within_tolerance(self, c, want):
        tol = 1e-9
        assert abs(alpha_upper(c, tol) - want) <= tol

    def test_far_maximum_is_found(self):
        # the argmax sits near z = 1.02e7 for alpha this small
        value, argmax = v_eval(0.001, 1.983)
        assert value == pytest.approx(10200.2348164546, rel=1e-9)
        assert 1e7 < argmax < 1.1e7

    def test_local_peak_below_the_value_at_zero(self):
        # f falls from f(0) = -1/2, turns up, and peaks near z = 54.7 at
        # about -0.947, so the maximum over z >= 0 is the one at z = 0
        alpha, c = 0.001, 1.995
        z = np.geomspace(1e-12, 1e12, 200001)
        assert f_eval(z, alpha, c).max() == pytest.approx(-0.9473328158, abs=1e-8)
        assert v_eval(alpha, c) == (-0.5, 0.0)

    def test_nonfinite_tolerance_rejected(self):
        for tol in (float("inf"), float("nan")):
            with pytest.raises(DomainError, match="tolerance must be positive and finite"):
                alpha_lower(1.5, tol)
            with pytest.raises(DomainError, match="tolerance must be positive and finite"):
                alpha_upper(1.5, tol)


class TestLemma1Witness:
    # distances from alpha = 1, clear of the band where rounding hides f's gain
    OFFSETS = np.geomspace(1e-7, 1.0, 3000)

    @pytest.mark.parametrize(
        "alpha", [0.05, 0.3, 0.5, 0.8, 0.95, 1.05, 1.2, 1.5, 2.0, 3.0]
    )
    def test_positivity_witness_exists_for_every_other_exponent(self, alpha):
        z, c = lemma1_witness(alpha)
        assert c > 1.0
        assert f_eval(z, alpha, c) > 0.0
        if alpha > 1.0:
            assert 1.0 / alpha < z < 1.0
        else:
            assert z > 1.0

    @pytest.mark.parametrize("alphas", [1.0 - OFFSETS, 1.0 + OFFSETS * 999.0],
                             ids=["below-one", "above-one"])
    def test_construction_holds_from_zero_to_a_thousand(self, alphas):
        # 1 - OFFSETS ends at alpha = 0; 1 + 999 OFFSETS ends at 1e3
        for alpha in map(float, alphas):
            z, c = lemma1_witness(alpha)
            assert c > 1.0, alpha
            assert f_eval(z, alpha, c) > 0.0, alpha
            reciprocal = 1.0 / alpha if alpha else np.inf
            assert min(1.0, reciprocal) < z < max(1.0, reciprocal), alpha

    @pytest.mark.parametrize("alpha", [1.0 - 1e-8, 1.0 + 1e-8])
    def test_no_witness_within_float_resolution_of_one(self, alpha):
        # f(z, alpha, 1) is about (alpha - 1)^2 here, below rounding: no c == 1.0
        with pytest.raises(ConvergenceFailureError, match="within float resolution"):
            lemma1_witness(alpha)

    def test_exponent_zero_in_closed_form(self):
        # z = 2, f(2, 0, 1) = 1, s = 4
        assert lemma1_witness(0.0) == (2.0, 1.25)

    def test_large_exponent_caps_c_at_two(self):
        # z^(1 + alpha) underflows to 0, so the cap, not a division, sets c
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, c = lemma1_witness(1e6)
        assert c == 2.0
        assert f_eval(z, 1e6, c) > 0.0

    def test_rejected_at_the_characterized_exponent(self):
        with pytest.raises(DomainError):
            lemma1_witness(1.0)

    def test_rejected_for_negative_exponent(self):
        with pytest.raises(DomainError):
            lemma1_witness(-0.2)


class TestExponentDomain:
    @pytest.mark.parametrize("alpha", [-0.5, np.nan, np.inf])
    @pytest.mark.parametrize("call", [lambda a: f_eval(0.5, a, 1.5), lambda a: v_eval(a, 1.5),
                                      lambda a: lemma1_witness(a)],
                             ids=["f_eval", "v_eval", "lemma1_witness"])
    def test_exponent_outside_its_domain_is_a_domain_error(self, call, alpha):
        with pytest.raises(DomainError,
                           match=f"^alpha must be non-negative and finite, got {alpha}$"):
            call(alpha)

    @pytest.mark.parametrize("z", [-0.1, np.nan, np.inf, [0.5, np.nan]])
    def test_z_outside_its_domain_is_a_domain_error(self, z):
        with pytest.raises(DomainError, match="^z must be non-negative and finite$"):
            f_eval(z, 1.0, 1.5)
