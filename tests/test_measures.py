"""The measure family P_alpha: hand values, invariances, oracle agreement."""

import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netpolar.errors import DomainError
from netpolar.extremal import bipolar_distribution, simplex_grid
from netpolar.graph import (
    average_path_length,
    delete_edge,
    geodesic_distances,
    scale_masses,
    validate_network,
)
from netpolar.measures import (
    MeasureParams,
    bipolar_maximum_value,
    bipolar_value,
    normalized_polarization,
    p_alpha,
    polarization,
    polarization_naive_oracle,
)

from conftest import random_connected_network


def two_point(m0, m1, w=1.0):
    return validate_network([("a", m0), ("b", m1)], [("a", "b", w)])


def complete_unit(masses):
    ids = [f"g{i}" for i in range(len(masses))]
    edges = [(a, b, 1.0) for i, a in enumerate(ids) for b in ids[i + 1:]]
    return validate_network(list(zip(ids, masses)), edges)


class TestParams:
    def test_defaults(self):
        p = MeasureParams()
        assert p.K == 1.0 and p.alpha == 1.0

    @pytest.mark.parametrize("K,alpha", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -0.5),
                                         (float("inf"), 1.0), (1.0, float("inf"))])
    def test_invalid_rejected(self, K, alpha):
        with pytest.raises(DomainError, match="must be positive and finite"):
            MeasureParams(K=K, alpha=alpha)


class TestHandValues:
    def test_half_half_two_point(self):
        # 2 * (1/2)^2 * (1/2) * 1 = 1/4
        assert polarization(two_point(0.5, 0.5)).value == pytest.approx(0.25, abs=1e-15)

    def test_unit_triangle(self):
        # each node contributes 1^2 * (1 + 1) = 2
        assert polarization(complete_unit([1.0, 1.0, 1.0])).value == pytest.approx(6.0, abs=1e-15)

    def test_complete_graph_masses_2_1_1(self):
        # 4*2 + 1*3 + 1*3 = 14
        assert polarization(complete_unit([2.0, 1.0, 1.0])).value == pytest.approx(14.0, abs=1e-15)

    def test_alpha_two_two_point(self):
        # 2 * (1/2)^3 * (1/2) = 1/8
        params = MeasureParams(alpha=2.0)
        assert polarization(two_point(0.5, 0.5), params).value == pytest.approx(0.125, abs=1e-15)

    def test_K_scales_linearly(self):
        net = complete_unit([2.0, 1.0, 1.0])
        assert polarization(net, MeasureParams(K=3.0)).value == pytest.approx(42.0, abs=1e-12)

    def test_all_mass_on_one_node_gives_zero(self):
        net = two_point(4.0, 0.0)
        assert polarization(net).value == 0.0

    def test_result_metadata(self):
        d = polarization(two_point(1.0, 0.0)).to_dict()
        assert d["value"] == 0.0 and d["alpha"] == 1.0 and d["normalized"] is None


class TestOracleAgreement:
    def test_random_networks_match_naive_computation(self):
        rng = np.random.default_rng(99)
        for _ in range(120):
            net = random_connected_network(rng)
            alpha = float(rng.uniform(0.2, 2.5))
            K = float(rng.uniform(0.5, 3.0))
            params = MeasureParams(K=K, alpha=alpha)
            fast = polarization(net, params).value
            slow = polarization_naive_oracle(net, params)
            assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)

    def test_oracle_handles_longest_path_convention(self):
        net = validate_network(
            [("a", 1.0), ("b", 1.0), ("c", 2.0)],
            [("a", "b", 3.0)],
            allow_disconnected=True,
        )
        assert polarization(net).value == pytest.approx(
            polarization_naive_oracle(net), rel=1e-12
        )


class TestInvariances:
    @given(
        lam=st.floats(0.01, 100.0),
        alpha=st.floats(0.1, 3.0),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_homothetic_scaling(self, lam, alpha, seed):
        net = random_connected_network(np.random.default_rng(seed))
        params = MeasureParams(alpha=alpha)
        base = polarization(net, params).value
        scaled = polarization(scale_masses(net, lam), params).value
        assert scaled == pytest.approx(lam ** (2.0 + alpha) * base, rel=1e-10, abs=1e-12)

    def test_anonymity_under_relabeling(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            net = random_connected_network(rng)
            perm = rng.permutation(net.n)
            relabeled = validate_network(
                [(net.ids[i], net.masses[i]) for i in perm], net.edges
            )
            a = polarization(net).value
            b = polarization(relabeled).value
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_uniform_mass_proportional_to_average_path_length(self):
        from netpolar.graph import average_path_length

        rng = np.random.default_rng(11)
        for _ in range(30):
            base = random_connected_network(rng)
            net = validate_network([(i, 1.0) for i in base.ids], base.edges)
            n = net.n
            expected = n * (n - 1) * average_path_length(net)
            assert polarization(net).value == pytest.approx(expected, rel=1e-12)

    def test_edge_deletion_never_decreases_polarization(self):
        rng = np.random.default_rng(23)
        done = 0
        while done < 50:
            net = random_connected_network(rng)
            before = polarization(net).value
            for u, v, _ in net.edges:
                try:
                    cut = delete_edge(net, u, v)
                except Exception:
                    continue
                after = polarization(cut).value
                assert after >= before - 1e-12 * max(1.0, abs(before))
                done += 1
                break


class TestBipolarReference:
    def test_formula_matches_direct_evaluation(self):
        from netpolar.extremal import bipolar_distribution

        rng = np.random.default_rng(31)
        for _ in range(40):
            net = random_connected_network(rng)
            if net.total_mass <= 0:
                continue
            diameter = geodesic_distances(net).diameter
            for K, alpha in ((1.0, 0.5), (1.0, 1.0), (1.0, 1.7), (2.5, 0.5), (0.3, 1.7)):
                params = MeasureParams(K, alpha)
                direct = polarization(bipolar_distribution(net), params).value
                assert bipolar_maximum_value(net, params) == pytest.approx(
                    direct, rel=1e-12, abs=1e-12
                )
                assert bipolar_value(diameter, net.total_mass, alpha, K) == pytest.approx(
                    direct, rel=1e-12, abs=1e-12
                )

    def test_two_point_hand_value(self):
        # d * 2 * (M/2)^3 with d = 1, M = 1
        assert bipolar_maximum_value(two_point(0.3, 0.7)) == pytest.approx(0.25, abs=1e-15)

    def test_overflow_is_a_domain_error(self):
        # (M/2)^(2+alpha) = 1e360 raises OverflowError in float arithmetic
        with pytest.raises(DomainError, match="bipolar value evaluates to inf"):
            bipolar_maximum_value(two_point(1e120, 1e120))
        with pytest.raises(DomainError, match="bipolar value evaluates to inf"):
            bipolar_value(1e300, 1e100, 1.0, 1.0)  # the product overflows, not the power

    def test_a_power_beyond_the_float_range_with_a_value_within_it(self):
        # (M/2)^3 = 1e360 overflows, K * d * 2 * (M/2)^3 = 2e60 does not
        net = two_point(1e120, 1e120, 1e-300)
        assert bipolar_maximum_value(net) == polarization(net).value == 2e60
        assert bipolar_maximum_value(net, MeasureParams(alpha=1.7)) == pytest.approx(
            2e144, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7, 3.0, 40.0])
    def test_where_the_power_overflows_the_value_is_the_closed_form(self, alpha):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(200):
            # (M/2)^(2+alpha) between e^710 and e^1400, beyond the float range
            total = 2.0 * math.exp(rng.uniform(710.0, 1400.0) / (2.0 + alpha))
            diameter, K = (10.0 ** rng.uniform((-300, -1), (0, 1))).tolist()
            with pytest.raises(OverflowError):
                (total / 2.0) ** (2.0 + alpha)
            log_value = math.log(K * diameter * 2.0) + (2.0 + alpha) * math.log(total / 2.0)
            if log_value < 709.0:
                assert bipolar_value(diameter, total, alpha, K) == pytest.approx(
                    math.exp(log_value), rel=1e-12)
                checked += 1
            elif log_value > 710.0:
                with pytest.raises(DomainError, match="bipolar value evaluates to inf"):
                    bipolar_value(diameter, total, alpha, K)
        assert checked > 50

    def test_a_prefactor_below_the_normal_range_and_numpy_floats(self):
        # K * d * 2 = 2e-400 underflows to 0; numpy's power overflows to inf, not raising
        net = two_point(1e100, 1e100, 1e-200)
        params = MeasureParams(K=1e-200)
        assert polarization(net, params).value == pytest.approx(2e-100, rel=1e-12)
        assert bipolar_maximum_value(net, params) == pytest.approx(2e-100, rel=1e-12)
        assert bipolar_value(np.float64(1e-300), np.float64(2e120), 1.0, 1.0) == 2e60

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7, 3.0, 40.0])
    def test_log_uniform_factors_match_200_bit_arithmetic(self, alpha):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(23)
        checked = 0
        with mpmath.workprec(200):
            for _ in range(2000):
                # K, d and M log-uniform over the float range, subnormals included
                K, diameter, total = (math.ldexp(m, e) for m, e in zip(
                    rng.uniform(0.5, 1.0, 3).tolist(), rng.integers(-1073, 1025, 3).tolist()))
                exact = (mpmath.mpf(K) * diameter * 2
                         * (mpmath.mpf(total) / 2) ** (2 + mpmath.mpf(alpha)))
                if exact > sys.float_info.max:
                    with pytest.raises(DomainError, match="bipolar value evaluates to inf"):
                        bipolar_value(diameter, total, alpha, K)
                elif exact >= sys.float_info.min:
                    got = bipolar_value(diameter, total, alpha, K)
                    assert abs(got - exact) <= 1e-12 * exact
                    checked += 1
        assert checked > 50


class TestPAlpha:
    def test_batch_matches_direct_evaluation(self):
        from netpolar.extremal import simplex_grid

        rng = np.random.default_rng(8)
        net = random_connected_network(rng, n_max=4)
        d = geodesic_distances(net).d
        grid = simplex_grid(net.n, 3)
        for alpha in (0.5, 1.0, 2.0):
            vals = p_alpha(grid, d, alpha, 2.5)
            for row, got in zip(grid, vals):
                direct = sum(
                    row[i] ** (1 + alpha) * row[j] * d[i, j]
                    for i in range(net.n) for j in range(net.n)
                )
                assert got == pytest.approx(2.5 * direct, rel=1e-12, abs=1e-15)

    def test_single_vector_is_one_value(self):
        net = complete_unit([2.0, 1.0, 1.0])
        value = p_alpha(net.mass_vector(), geodesic_distances(net).d, 1.0, 3.0)
        assert np.ndim(value) == 0
        # 3 * (4 * 2 + 1 * 3 + 1 * 3)
        assert value == pytest.approx(42.0, abs=1e-12)

    def test_a_one_row_batch_gives_each_row_its_bits_in_the_whole_grid(self):
        rng = np.random.default_rng(12)
        grid = simplex_grid(5, 12)
        a = rng.uniform(0.5, 2.0, (5, 5))
        d = np.triu(a, 1) + np.triu(a, 1).T
        for alpha in (0.5, 1.0, 1.5):
            whole = p_alpha(grid, d, alpha, 1.0)
            rows = np.concatenate([p_alpha(grid[i:i + 1], d, alpha, 1.0) for i in range(len(grid))])
            assert np.array_equal(rows, whole)


class TestNormalized:
    def test_bipolar_distribution_normalizes_to_one(self):
        res = normalized_polarization(two_point(0.5, 0.5))
        assert res.normalized == pytest.approx(1.0, abs=1e-15)

    def test_unit_triangle_ratio(self):
        net = complete_unit([1.0, 1.0, 1.0])
        res = normalized_polarization(net)
        # 6 / (1 * 2 * (3/2)^3) = 8/9
        assert res.normalized == pytest.approx(8.0 / 9.0, rel=1e-14)

    def test_zero_diameter_graph(self):
        net = validate_network([("a", 1.0), ("b", 1.0)], [("a", "b", 0.0)])
        assert normalized_polarization(net).normalized == 0.0

    def test_random_values_stay_in_unit_interval(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            net = random_connected_network(rng)
            if net.total_mass <= 0:
                continue
            res = normalized_polarization(net)
            assert -1e-12 <= res.normalized <= 1.0 + 1e-12

    @pytest.mark.parametrize("mass, weight, value", [(1e-200, 1.0, 0.0), (1e120, 1e-300, 2e60)])
    def test_ratio_of_a_bipolar_split_at_any_scale(self, mass, weight, value):
        # at the raw scale P_1 underflows to 0 at the first, and the bipolar value
        # overflows at the second; the ratio is scale-free and exactly 1 at both
        res = normalized_polarization(two_point(mass, mass, weight))
        assert res.value == value
        assert res.normalized == 1.0

    def test_requires_alpha_one(self):
        with pytest.raises(DomainError, match="only meaningful at alpha = 1"):
            normalized_polarization(two_point(1.0, 1.0), MeasureParams(alpha=2.0))

    def test_requires_positive_total_mass(self):
        with pytest.raises(DomainError, match="normalization needs positive total mass"):
            normalized_polarization(two_point(0.0, 0.0))


class TestDistReuse:
    def test_precomputed_distances_accepted(self):
        net = complete_unit([2.0, 1.0, 1.0])
        dist = geodesic_distances(net)
        assert polarization(net, dist=dist).value == pytest.approx(14.0, abs=1e-12)
        # positionally, as the benchmark's traced replay passes them: the same bits
        params = MeasureParams()
        for fn in (polarization, normalized_polarization):
            assert fn(net, params, dist) == fn(net, params)

    def test_an_edited_graphs_distances_rejected(self):
        net = complete_unit([1.0, 1.0, 1.0])
        dist = geodesic_distances(net)
        cut = delete_edge(net, "g0", "g2")
        assert polarization(cut).value == 8.0
        with pytest.raises(DomainError, match="^distance matrix does not match the network$"):
            polarization(cut, dist=dist)
        # a masses-only edit keeps the graph, so it keeps the matrix
        assert polarization(scale_masses(net, 2.0), dist=dist).value == 48.0

    def test_mismatched_distances_rejected(self):
        with pytest.raises(DomainError, match="does not match the network"):
            polarization(two_point(1.0, 1.0), dist=geodesic_distances(complete_unit([1, 1, 1])))

    @pytest.mark.parametrize("measure", [polarization, normalized_polarization])
    def test_every_measure_rejects_another_networks_distances(self, measure):
        net = two_point(1.0, 1.0)
        other = validate_network([("a", 1.0), ("b", 1.0), ("c", 1.0)],
                                 [("a", "b", 4.0), ("b", "c", 6.0)])
        with pytest.raises(DomainError, match="does not match the network"):
            measure(net, dist=geodesic_distances(other))


# log-uniform on [1e-300, 1.7e308], its ends drawn often
_EXTREME = (st.floats(math.log(1e-300), math.log(1.7e308)).map(lambda x: min(math.exp(x), 1.7e308))
            | st.sampled_from([1e-300, 1.7e308]))


@st.composite
def extreme_networks(draw):
    """Connected networks on 2 to 5 nodes whose masses and weights are drawn
    log-uniformly from [1e-300, 1.7e308]: a path, and any other pair as an edge."""
    ids = [f"v{i}" for i in range(draw(st.integers(2, 5)))]
    edges = [(a, b, draw(_EXTREME)) for (i, a), (j, b) in itertools.combinations(enumerate(ids), 2)
             if j == i + 1 or draw(st.booleans())]
    return validate_network([(i, draw(_EXTREME)) for i in ids], edges)


class TestFloatRange:
    @given(net=extreme_networks(), alpha=st.sampled_from([0.5, 1.0, 1.7]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_results_are_finite_or_a_domain_error(self, net, alpha):
        params = MeasureParams(alpha=alpha)
        calls = [lambda: polarization(net, params).value,
                 lambda: normalized_polarization(net).normalized,
                 lambda: bipolar_maximum_value(net, params),
                 lambda: average_path_length(net),
                 lambda: bipolar_distribution(net).masses]
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    values = call()
                except DomainError:
                    continue
            assert np.isfinite(values).all()
