"""Bipolar distributions, the merge reduction, and exhaustive maximality checks."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from netpolar.errors import DomainError
from netpolar.extremal import (
    ALPHA_STAR,
    GRID_BLOCK_ROWS,
    _diameter_pairs,
    _evaluate_block,
    _grid_blocks,
    bipolar_distribution,
    counterexample_search,
    diameter_dominance_check,
    merge_reduction,
    simplex_grid,
    verify_bipolar_max,
)
from netpolar.graph import geodesic_distances, validate_network
from netpolar.measures import MeasureParams, bipolar_value, p_alpha, polarization

from conftest import random_connected_network

IN_THE_BAND = ("no distribution on this family beats the symmetric bipolar one for "
               "exponents in [ALPHA_STAR, 2], ALPHA_STAR = ln 3 / ln 1.5 - 2 = 0.70951...")


def unit_complete(n, weight=1.0, masses=None):
    ids = [f"g{i}" for i in range(n)]
    masses = masses if masses is not None else [1.0] * n
    edges = [(a, b, weight) for a, b in itertools.combinations(ids, 2)]
    return validate_network(list(zip(ids, masses)), edges)


def mixed_cycle():
    """Six nodes on a cycle of mixed weights; its unique diameter pair is (1, 4)."""
    ids = [f"c{i}" for i in range(6)]
    weights = [1.0, 2.5, 0.5, 1.5, 1.0, 3.0]
    return validate_network([(i, 1.0) for i in ids],
                            [(ids[i], ids[(i + 1) % 6], w) for i, w in enumerate(weights)])


def eps_triangle(eps, base=1.0, masses=(1.0, 0.0, 0.0)):
    """Two equal short sides of length ``base``, one long side ``base + eps``."""
    return validate_network(
        [("x", masses[0]), ("y", masses[1]), ("z", masses[2])],
        [("x", "y", base), ("x", "z", base), ("y", "z", base + eps)],
    )


class TestBipolarDistribution:
    def test_mass_splits_across_the_diameter_pair(self):
        net = validate_network([("a", 1.0), ("b", 3.0)], [("a", "b", 2.0)])
        out = bipolar_distribution(net)
        assert out.masses == (2.0, 2.0)
        # K * d * 2 * (M/2)^3 = 2 * 2 * 8
        assert polarization(out).value == pytest.approx(32.0, rel=1e-14)

    def test_tie_broken_toward_the_first_pair(self):
        out = bipolar_distribution(unit_complete(3))
        assert out.masses == (1.5, 1.5, 0.0)
        assert polarization(out).value == pytest.approx(6.75, rel=1e-14)

    def test_idempotent(self):
        net = random_connected_network(np.random.default_rng(1))
        once = bipolar_distribution(net)
        assert bipolar_distribution(once).masses == once.masses

    def test_single_node_rejected(self):
        with pytest.raises(DomainError, match="bipolar distribution needs at least two nodes"):
            bipolar_distribution(validate_network([("a", 1.0)]))

    @staticmethod
    def path(masses):
        ids = ("a", "b", "c")
        return validate_network(list(zip(ids, masses)), [("a", "b", 1.0), ("b", "c", 1.0)])

    def test_half_of_a_total_beyond_the_float_range(self):
        # the total, 2e308, is inf as a float; its half is not
        assert bipolar_distribution(self.path((1e308, 1e308, 0.0))).masses == (1e308, 0.0, 1e308)

    def test_half_beyond_the_float_range_rejected(self):
        with pytest.raises(DomainError, match="half the total mass evaluates to inf"):
            bipolar_distribution(self.path((1.7e308, 1.7e308, 1.7e308)))

    def test_zero_total_mass_rejected(self):
        net = validate_network([("a", 0.0), ("b", 0.0)], [("a", "b", 1.0)])
        with pytest.raises(DomainError, match="bipolar distribution needs positive total mass"):
            bipolar_distribution(net)


class TestMergeReduction:
    def test_four_equal_masses_on_the_complete_graph(self):
        out = merge_reduction(unit_complete(4))
        assert sorted(out.masses) == [0.0, 1.0, 1.0, 2.0]
        assert out.masses[0] == 0.0  # ties merge the earliest node
        assert all(w == 1.0 for _, _, w in out.edges)

    def test_smallest_two_masses_merge(self):
        out = merge_reduction(unit_complete(4, masses=[5.0, 3.0, 2.0, 1.0]))
        assert out.masses == (5.0, 3.0, 3.0, 0.0)

    def test_edges_jump_to_the_diameter(self):
        # path of weights 1,1,1 has diameter 3; the merge completes the graph
        ids = ["a", "b", "c", "d"]
        net = validate_network(
            [(i, 1.0) for i in ids],
            [(a, b, 1.0) for a, b in zip(ids, ids[1:])],
        )
        out = merge_reduction(net)
        assert len(out.edges) == 6 and all(w == 3.0 for _, _, w in out.edges)

    def test_polarization_strictly_increases(self):
        rng = np.random.default_rng(321)
        done = 0
        while done < 200:
            net = random_connected_network(rng)
            if sum(m > 0 for m in net.masses) < 4:
                continue
            if geodesic_distances(net).diameter == 0.0:
                continue
            before = polarization(net).value
            after = polarization(merge_reduction(net)).value
            assert after > before
            done += 1

    def test_needs_four_positive_mass_points(self):
        with pytest.raises(DomainError, match="needs >= 4 positive mass points"):
            merge_reduction(unit_complete(4, masses=[1.0, 1.0, 1.0, 0.0]))

    def test_total_mass_is_conserved(self):
        net = unit_complete(5, masses=[0.5, 1.5, 2.5, 3.5, 4.5])
        assert merge_reduction(net).total_mass == net.total_mass


class TestSimplexGrid:
    def test_enumerates_every_composition(self):
        grid = simplex_grid(3, 4)
        assert grid.shape == (15, 3)  # C(4 + 2, 2)
        assert np.allclose(grid.sum(axis=1), 1.0)
        rows = {tuple(np.round(row * 4).astype(int)) for row in grid}
        assert len(rows) == 15
        assert (0, 0, 4) in rows and (2, 1, 1) in rows

    def test_two_parts(self):
        grid = simplex_grid(2, 2)
        assert sorted(map(tuple, grid.tolist())) == [
            (0.0, 1.0), (0.5, 0.5), (1.0, 0.0),
        ]

    # at a multiple of GRID_BLOCK_ROWS the 2-part grid ends in a run of one row
    BOUNDARY_CASES = [(2, GRID_BLOCK_ROWS), (2, 2 * GRID_BLOCK_ROWS), (2, GRID_BLOCK_ROWS - 1)]

    @pytest.mark.parametrize("n, units", [
        (1, 5), (2, 7), (2, 300), (3, 64), (3, 1000), (4, 12), (5, 40), (6, 30),
        *BOUNDARY_CASES,
    ])
    def test_rows_in_divider_order(self, n, units):
        # row order sets the tie-break of every argmax over the grid
        rows = []
        for dividers in itertools.combinations(range(units + n - 1), n - 1):
            edges = (-1,) + dividers + (units + n - 1,)
            rows.append([b - a - 1 for a, b in zip(edges, edges[1:])])
        expected = np.array(rows, dtype=float) / units
        assert np.array_equal(simplex_grid(n, units), expected)

    @pytest.mark.parametrize("n, units", [(1, 5), (2, 1), (3, 1000), (5, 40), (6, 40),
                                          *BOUNDARY_CASES])
    def test_blocks_fit_the_budget(self, n, units):
        sizes = [len(block) for block in _grid_blocks(n, units)]
        assert sum(sizes) == math.comb(units + n - 1, n - 1)
        assert max(sizes) <= GRID_BLOCK_ROWS


class TestEvaluateGrid:
    @pytest.mark.parametrize("n, units", [(5, 40), (2, GRID_BLOCK_ROWS), (2, 2 * GRID_BLOCK_ROWS)])
    def test_blocks_give_the_bits_of_one_call(self, n, units):
        rng = np.random.default_rng(12)
        grid = simplex_grid(n, units)
        for _ in range(3):
            a = rng.uniform(0.5, 2.0, (n, n))
            d = np.triu(a, 1) + np.triu(a, 1).T
            pairs = _diameter_pairs(d)
            for alpha in (0.5, 1.0, 1.5):
                got = np.concatenate([_evaluate_block(block, d, alpha, pairs)
                                      for block in _grid_blocks(n, units)])
                whole = p_alpha(grid, d, alpha, 1.0)
                kept = np.isfinite(got)
                assert np.array_equal(got[kept], whole[kept])
                # only half-half splits of the unique diameter pair are dropped
                i, j = np.unravel_index(np.argmax(d), d.shape)
                assert pairs == [(min(i, j), max(i, j))]
                assert np.array_equal(~kept, (grid[:, i] == 0.5) & (grid[:, j] == 0.5))


class TestVerifyBipolarMax:
    def test_unit_triangle(self):
        report = verify_bipolar_max(unit_complete(3), grid_step=1.0 / 8.0)
        assert report.is_bipolar_max and report.witness is None
        assert report.bipolar_value == pytest.approx(0.25, rel=1e-14)
        assert report.best_value < report.bipolar_value

    def test_five_node_path(self):
        ids = [f"p{i}" for i in range(5)]
        net = validate_network(
            [(i, 1.0) for i in ids],
            [(a, b, 1.0) for a, b in zip(ids, ids[1:])],
        )
        report = verify_bipolar_max(net, grid_step=1.0 / 6.0)
        assert report.is_bipolar_max
        assert report.bipolar_value == pytest.approx(4.0 * 2.0 * 0.125, rel=1e-14)

    def test_low_exponent_witness_on_the_near_equilateral_triangle(self):
        report = verify_bipolar_max(eps_triangle(0.001), alpha=0.5, grid_step=1.0 / 64.0)
        assert not report.is_bipolar_max
        assert report.witness is not None
        assert report.best_value > report.bipolar_value

    @pytest.mark.xfail(strict=True, reason=IN_THE_BAND)
    def test_high_exponent_witness_on_the_near_equilateral_triangle(self):
        report = verify_bipolar_max(eps_triangle(0.001), alpha=1.5, grid_step=1.0 / 512.0)
        assert not report.is_bipolar_max

    @pytest.mark.parametrize("net, alpha", [
        (unit_complete(6), 1.0), (mixed_cycle(), 1.0), (mixed_cycle(), 0.5),
    ], ids=["complete", "cycle", "cycle-alpha-0.5"])
    def test_best_row_is_the_first_argmax_of_the_whole_grid(self, net, alpha):
        # on the complete graph every pair is a diameter pair; on the cycle at alpha = 1
        # the best value ties between two rows in different blocks
        grid = simplex_grid(6, 30)
        d = geodesic_distances(net).d
        values = p_alpha(grid, d, alpha, 1.0)
        diameter = d.max()
        for i, j in itertools.combinations(range(6), 2):
            if d[i, j] == diameter:
                values[(grid[:, i] == 0.5) & (grid[:, j] == 0.5)] = -np.inf
        first = int(np.argmax(values))
        report = verify_bipolar_max(net, alpha=alpha, grid_step=1.0 / 30.0)
        assert report.best_distribution == tuple(grid[first])
        assert report.best_value == values[first]
        assert report.bipolar_value == bipolar_value(diameter, 1.0, alpha, 1.0)

    @pytest.mark.parametrize("net, units", [
        (mixed_cycle(), 30), (mixed_cycle(), 40), (unit_complete(2), 2_000_000),
    ], ids=["6-nodes-1/30", "6-nodes-1/40", "2-nodes-1/2e6"])
    def test_memory_does_not_grow_with_the_grid(self, net, units):
        # the 6-node grid at step 1/40 is 1,221,759 rows, 59 MB of float64;
        # on 2 nodes a single first part already has 2,000,001 values
        tracemalloc.start()
        try:
            verify_bipolar_max(net, grid_step=1.0 / units)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20, peak

    def test_distributions_hold_python_floats(self):
        report = verify_bipolar_max(eps_triangle(0.001), alpha=0.5, grid_step=1.0 / 64.0)
        assert all(type(x) is float for x in report.best_distribution + report.witness)
        assert "np.float64" not in repr(report)

    def test_report_serializes(self):
        report = verify_bipolar_max(unit_complete(3), grid_step=0.25)
        payload = json.loads(report.to_json())
        assert payload["node_count"] == 3 and payload["is_bipolar_max"] is True

    def test_witness_serializes_as_a_list(self):
        report = verify_bipolar_max(eps_triangle(0.001), alpha=0.5, grid_step=1.0 / 64.0)
        payload = json.loads(report.to_json())
        assert payload["witness"] == list(report.witness)
        assert payload["best_distribution"] == payload["witness"]

    @pytest.mark.parametrize("alpha", [0.0, float("inf"), float("nan")])
    def test_nonpositive_or_nonfinite_alpha_rejected(self, alpha):
        with pytest.raises(DomainError, match="alpha must be positive and finite"):
            verify_bipolar_max(unit_complete(3), alpha=alpha)

    def test_node_limit(self):
        with pytest.raises(DomainError, match="7 nodes exceed the exhaustive-mode limit 6"):
            verify_bipolar_max(unit_complete(7))

    def test_single_node_rejected(self):
        with pytest.raises(DomainError, match="^need at least two nodes$"):
            verify_bipolar_max(validate_network([("a", 1.0)]))

    def test_step_must_divide_one(self):
        with pytest.raises(DomainError, match="must evenly divide 1"):
            verify_bipolar_max(unit_complete(3), grid_step=0.3)

    def test_step_point_budget(self):
        with pytest.raises(DomainError, match="creates too many points"):
            verify_bipolar_max(unit_complete(6), grid_step=1.0 / 4096.0)


class TestCounterexampleSearch:
    def test_alpha_star_in_closed_form(self):
        assert ALPHA_STAR == math.log(3) / math.log(1.5) - 2
        assert 3.0 * (2.0 / 3.0) ** (2.0 + ALPHA_STAR) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize(
        "alpha",
        [
            0.25,
            0.5,
            0.709,
            2.0001,
            pytest.param(0.75, marks=pytest.mark.xfail(strict=True, reason=IN_THE_BAND)),
            pytest.param(1.25, marks=pytest.mark.xfail(strict=True, reason=IN_THE_BAND)),
            pytest.param(1.5, marks=pytest.mark.xfail(strict=True, reason=IN_THE_BAND)),
            pytest.param(2.0, marks=pytest.mark.xfail(strict=True, reason=IN_THE_BAND)),
        ],
    )
    def test_witness_found_off_the_characterized_exponent(self, alpha):
        witness = counterexample_search(alpha)
        assert witness is not None
        assert witness["value"] > witness["bipolar_value"]

    # just above 2 the construction is built but rounding leaves no gain
    @pytest.mark.parametrize("alpha", [ALPHA_STAR + 1e-4, 2.0, np.nextafter(2.0, 3.0)])
    def test_no_witness_inside_the_band(self, alpha):
        assert counterexample_search(alpha) is None

    @pytest.mark.parametrize("alpha", [0.01, 0.25, 0.5, 0.709, 2.0001, 2.5, 5.0, 1e6])
    def test_witness_values_recompute(self, alpha):
        witness = counterexample_search(alpha)
        assert 0.0 < witness["eps"] <= witness["base_distance"]
        assert sum(witness["masses"]) == pytest.approx(1.0, abs=1e-15)
        net = eps_triangle(witness["eps"], base=witness["base_distance"],
                           masses=tuple(witness["masses"]))
        direct = polarization(net, MeasureParams(alpha=alpha)).value
        assert direct == pytest.approx(witness["value"], rel=1e-12)
        assert direct > witness["bipolar_value"]

    # just below ALPHA_STAR, r = 3 (2/3)^(2 + alpha) rounds to at most 1: eps is -1.67e-16
    # at the first, where b + eps < b makes the thirds seem to win, and 0 at the second
    @pytest.mark.parametrize("alpha", [0.7095112913514547, 0.7095112913514542])
    def test_no_witness_where_rounding_leaves_no_positive_eps(self, alpha):
        assert alpha < ALPHA_STAR
        assert counterexample_search(alpha) is None

    def test_high_exponents_beyond_two_also_yield_witnesses(self):
        assert counterexample_search(2.5) is not None

    def test_above_two_the_split_is_the_maximum_in_closed_form(self):
        # at alpha = 3, x(1 - x)(x^3 + (1 - x)^3) = p(1 - 3p) with p = x(1 - x) = 1/6
        witness = counterexample_search(3.0)
        assert witness["masses"][1] == pytest.approx((3.0 - math.sqrt(3.0)) / 6.0, rel=1e-14)
        assert witness["value"] == pytest.approx(1.0 / 6.0, rel=1e-15)
        # above any scan of x: a 399-point one gave 0.2218059, a step-0.005 grid 0.2218065
        assert counterexample_search(2.2)["value"] >= 0.2218085

    def test_rejected_at_the_characterized_exponent(self):
        with pytest.raises(DomainError, match="maximal at alpha = 1"):
            counterexample_search(1.0)

    def test_rejected_for_nonpositive_exponent(self):
        with pytest.raises(DomainError, match="alpha must be positive"):
            counterexample_search(0.0)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.7, 0.709, 0.75, 1.25, 1.5, 2.0, 2.01, 2.5, 5.0])
    def test_dense_grid_finds_no_witness_the_construction_misses(self, alpha):
        """Reference: a 3-node mass grid at step 1/120 over eps from 1e-6 to b."""
        grid = simplex_grid(3, 120)
        found = False
        for eps in np.geomspace(1e-6, 1.0, 13):
            d = geodesic_distances(eps_triangle(eps)).d
            values = _evaluate_block(grid, d, alpha, _diameter_pairs(d))
            found |= bool((values > bipolar_value(d.max(), 1.0, alpha, 1.0)).any())
        if found:
            assert counterexample_search(alpha) is not None
        if alpha in (0.75, 1.25, 1.5):
            assert not found and counterexample_search(alpha) is None


class TestDiameterDominance:
    def test_longer_diameter_wins(self):
        long = validate_network([("a", 1.0), ("b", 1.0)], [("a", "b", 3.0)])
        short = validate_network([("a", 1.0), ("b", 1.0)], [("a", "b", 1.0)])
        assert diameter_dominance_check(long, short)
        assert diameter_dominance_check(short, long)

    def test_equal_diameters_are_vacuous(self):
        g = unit_complete(3)
        assert diameter_dominance_check(g, g)
        # no bipolar distribution exists without mass, and none is asked for
        empty = unit_complete(3, masses=[0.0, 0.0, 0.0])
        assert diameter_dominance_check(empty, empty)

    def test_unequal_total_mass_rejected(self):
        g1 = unit_complete(3)
        g2 = unit_complete(3, masses=[2.0, 2.0, 2.0])
        with pytest.raises(DomainError, match="must carry equal total mass"):
            diameter_dominance_check(g1, g2)

    def test_random_pairs(self):
        rng = np.random.default_rng(55)
        done = 0
        while done < 30:
            g1 = random_connected_network(rng)
            g2 = random_connected_network(rng)
            total1, total2 = g1.total_mass, g2.total_mass
            if total1 <= 0 or total2 <= 0:
                continue
            from netpolar.graph import scale_masses

            g2 = scale_masses(g2, total1 / total2)
            assert diameter_dominance_check(g1, g2)
            done += 1

