"""Network builders: line, complete, vote, party, preference and lattice."""

import itertools

import numpy as np
import pytest

from netpolar.builders import (
    MassPoints,
    PreferenceProfile,
    VoteMatrix,
    build_complete_uniform,
    build_cosponsorship,
    build_lattice,
    build_line,
    build_parties,
    build_preference_kemeny,
    build_representatives,
    build_vote_hypercube,
    kemeny_distance,
    load_mass_points_csv,
    load_preferences_csv,
    load_votes_csv,
    party_positions,
    ranking_id,
)
from netpolar.errors import DisconnectedError, DomainError, ValidationError
from netpolar.graph import geodesic_distances
from netpolar.measures import polarization

from conftest import distance

# Eight voters on three bills; voters R1..R4 form party A, R5..R8 party B.
ROLL_CALL = {
    "R1": (1, 0, 0), "R2": (1, 0, 0), "R3": (1, 0, 0), "R4": (0, 1, 0),
    "R5": (0, 1, 1), "R6": (0, 1, 1), "R7": (1, 0, 1), "R8": (1, 1, 1),
}


def roll_call_votes(with_party=False):
    party = None
    if with_party:
        party = {v: ("A" if v in ("R1", "R2", "R3", "R4") else "B") for v in ROLL_CALL}
    return VoteMatrix(tuple(ROLL_CALL), tuple(ROLL_CALL.values()), party)


class TestVoteMatrixValidation:
    def test_ragged_rows_rejected(self):
        with pytest.raises(ValidationError, match="voter 'b' has 1 entries, expected 2"):
            VoteMatrix(("a", "b"), ((1, 0), (1,)))

    def test_non_binary_rejected(self):
        with pytest.raises(ValidationError, match="non-binary entries"):
            VoteMatrix(("a",), ((1, 2),))

    def test_duplicate_voters_rejected(self):
        with pytest.raises(ValidationError, match="voter ids must be unique"):
            VoteMatrix(("a", "a"), ((1,), (0,)))

    def test_no_bills_rejected(self):
        with pytest.raises(ValidationError, match="needs at least one bill"):
            VoteMatrix(("a",), ((),))

    @pytest.mark.parametrize("voters, entries, message", [
        (("a", "b", "c"), ((1, 0), (0, 1)), "3 voters but 2 vote rows"),
        (("a",), ((1, 0), (0, 1)), "1 voters but 2 vote rows"),
    ])
    def test_voter_and_row_counts_must_agree(self, voters, entries, message):
        with pytest.raises(ValidationError, match=message):
            VoteMatrix(voters, entries)


class TestLine:
    def test_two_points(self):
        net = build_line(MassPoints((((0.0,), 0.5), ((1.0,), 0.5))))
        assert polarization(net).value == pytest.approx(0.25, abs=1e-15)

    def test_geodesics_reproduce_coordinate_gaps(self):
        xs = [-2.0, 0.5, 0.7, 3.0]
        net = build_line(MassPoints(tuple(((x,), 1.0) for x in xs)))
        dm = geodesic_distances(net)
        order = sorted(xs)
        for i, j in itertools.combinations(range(4), 2):
            assert distance(dm, f"({order[i]:g})", f"({order[j]:g})") == pytest.approx(
                abs(order[i] - order[j]), abs=1e-12
            )

    def test_overflowing_gap_is_an_invalid_weight(self):
        points = MassPoints((((1e308,), 1.0), ((-1e308,), 1.0)))
        with pytest.raises(ValidationError) as info:
            build_line(points)
        assert str(info.value) == "edge ('(-1e+308)', '(1e+308)') has invalid weight inf"

    def test_unsorted_input_is_sorted(self):
        net = build_line(MassPoints((((5.0,), 1.0), ((1.0,), 2.0), ((3.0,), 3.0))))
        assert net.ids == ("(1)", "(3)", "(5)")
        assert net.masses == (2.0, 3.0, 1.0)

    def test_direct_double_sum_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            xs = np.sort(rng.uniform(-5, 5, n))
            ms = rng.uniform(0, 3, n)
            net = build_line(MassPoints(tuple(((float(x),), float(m)) for x, m in zip(xs, ms))))
            expected = sum(
                ms[i] ** 2 * ms[j] * abs(xs[i] - xs[j])
                for i in range(n) for j in range(n)
            )
            assert polarization(net).value == pytest.approx(expected, rel=1e-10)

    def test_rejects_higher_dimensions(self):
        with pytest.raises(DomainError, match="build_line expects 1-D positions"):
            build_line(MassPoints((((0.0, 0.0), 1.0), ((1.0, 1.0), 1.0))))

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ValidationError, match="positions must be pairwise distinct"):
            MassPoints((((1.0,), 1.0), ((1.0,), 2.0)))

    @pytest.mark.parametrize("points, message", [
        ((), "need at least one mass point"),
        ((((1.0,), 1.0), ((1.0, 2.0), 2.0)), "all positions must have the same dimension"),
        ((((float("nan"),), 1.0),), "non-finite coordinates in"),
        ((((0.0,), -1.0),), "negative mass at"),
    ], ids=["empty", "mixed-dimensions", "nan-coordinate", "negative-mass"])
    def test_invalid_points_rejected(self, points, message):
        with pytest.raises(ValidationError, match=message):
            MassPoints(points)

    def test_distinct_positions_sharing_an_id_rejected(self):
        # %g keeps six significant digits, so both positions print as (0.123457)
        pts = MassPoints((((0.1234568,), 1.0), ((0.1234567,), 1.0)))
        with pytest.raises(ValidationError, match=r"^positions \(0\.1234567,\) and "
                           r"\(0\.1234568,\) share the node id \(0\.123457\)$"):
            build_line(pts)


class TestCompleteUniform:
    def test_hand_value(self):
        net = build_complete_uniform([2.0, 1.0, 1.0])
        assert polarization(net).value == pytest.approx(14.0, abs=1e-12)

    def test_all_pairwise_distances_are_one(self):
        dm = geodesic_distances(build_complete_uniform([1.0] * 5))
        off = dm.d[~np.eye(5, dtype=bool)]
        assert (off == 1.0).all()

    def test_needs_two_groups(self):
        with pytest.raises(DomainError, match="need at least two groups"):
            build_complete_uniform([1.0])


class TestVoteHypercube:
    def test_mass_assignment_from_roll_call(self):
        net = build_vote_hypercube(roll_call_votes())
        masses = dict(zip(net.ids, net.masses))
        assert masses == {
            "000": 0.0, "001": 0.0, "010": 1.0, "011": 2.0,
            "100": 3.0, "101": 1.0, "110": 0.0, "111": 1.0,
        }
        assert net.total_mass == 8.0

    def test_distances_equal_hamming(self):
        net = build_vote_hypercube(roll_call_votes())
        dm = geodesic_distances(net)
        for a in net.ids:
            for b in net.ids:
                hamming = sum(x != y for x, y in zip(a, b))
                assert distance(dm, a, b) == hamming

    def test_every_node_has_degree_k(self):
        net = build_vote_hypercube(roll_call_votes())
        degree = {i: 0 for i in net.ids}
        for u, v, _ in net.edges:
            degree[u] += 1
            degree[v] += 1
        assert set(degree.values()) == {3}

    def test_too_many_bills_rejected(self):
        votes = VoteMatrix(("a",), ((0,) * 21,))
        with pytest.raises(DomainError, match="21 bills would create 2\\^21 nodes"):
            build_vote_hypercube(votes)


class TestRepresentatives:
    def test_disagreement_share_weights(self):
        net = build_representatives(roll_call_votes())
        # R1 = (1,0,0) vs R4 = (0,1,0): two of three bills differ
        w = next(w for u, v, w in net.edges if {u, v} == {"R1", "R4"})
        assert w == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_total_disagreement_pairs_are_unlinked(self):
        net = build_representatives(roll_call_votes())
        assert not net.has_edge("R4", "R7")

    def test_unlinked_pair_connected_through_intermediary(self):
        dm = geodesic_distances(build_representatives(roll_call_votes()))
        assert distance(dm, "R4", "R7") == pytest.approx(1.0, abs=1e-12)

    def test_identical_records_at_distance_zero(self):
        dm = geodesic_distances(build_representatives(roll_call_votes()))
        assert distance(dm, "R1", "R2") == 0.0

    def test_unit_masses(self):
        net = build_representatives(roll_call_votes())
        assert set(net.masses) == {1.0} and net.total_mass == 8.0

    def test_disconnected_agreement_graph_rejected(self):
        votes = VoteMatrix(("a", "b"), ((1, 1), (0, 0)))
        with pytest.raises(DisconnectedError, match="graph is not connected"):
            build_representatives(votes)


class TestParties:
    def test_majority_positions_with_tie(self):
        assert party_positions(roll_call_votes(with_party=True)) == {
            "A": (1, 0, 0),
            "B": (None, 1, 1),
        }

    def test_no_common_position_means_no_edge(self):
        # A holds (1,0,0) while B holds (None,1,1): nothing matches, and a
        # two-party graph without the edge cannot be connected.
        with pytest.raises(DisconnectedError, match="graph is not connected"):
            build_parties(roll_call_votes(with_party=True))

    def _two_party_votes(self, rows_a, rows_b):
        voters = [f"a{i}" for i in range(len(rows_a))] + [f"b{i}" for i in range(len(rows_b))]
        party = {v: v[0] for v in voters}
        return VoteMatrix(tuple(voters), tuple(rows_a + rows_b), party)

    def test_weight_is_one_minus_shared_position_share(self):
        votes = self._two_party_votes(
            [(1, 0, 1), (1, 0, 1), (1, 0, 1)], [(1, 1, 0), (1, 1, 0), (1, 1, 0)]
        )
        net = build_parties(votes)
        assert net.edges == (("a", "b", pytest.approx(1.0 - 1.0 / 3.0)),)
        assert dict(zip(net.ids, net.masses)) == {"a": 3.0, "b": 3.0}

    def test_tie_rules_differ_on_tied_bills(self):
        votes = self._two_party_votes([(1, 0, 1), (1, 1, 1)], [(1, 1, 0), (1, 1, 0)])
        strict = build_parties(votes, tie_rule="strict-majority")
        dropped = build_parties(votes, tie_rule="exclude-bill")
        assert strict.edges[0][2] == pytest.approx(2.0 / 3.0)
        assert dropped.edges[0][2] == pytest.approx(0.5)

    def test_unknown_tie_rule(self):
        votes = self._two_party_votes([(1,)], [(1,)])
        with pytest.raises(DomainError, match="unknown tie rule 'coin-flip'"):
            build_parties(votes, tie_rule="coin-flip")

    def test_party_map_required(self):
        with pytest.raises(ValidationError, match="party map required to build a party network"):
            build_parties(roll_call_votes())
        with pytest.raises(ValidationError, match="^party map required$"):
            party_positions(roll_call_votes())

    def test_single_party_rejected(self):
        votes = VoteMatrix(("a", "b"), ((1,), (1,)), {"a": "X", "b": "X"})
        with pytest.raises(DomainError, match="need at least two parties"):
            build_parties(votes)


class TestCosponsorship:
    def test_star_around_shared_bill(self):
        votes = VoteMatrix(
            ("a", "b", "c"), ((1, 1), (1, 0), (0, 1))
        )
        net = build_cosponsorship(votes)
        assert net.has_edge("a", "b") and net.has_edge("a", "c")
        assert not net.has_edge("b", "c")

    def test_no_shared_sponsorships_is_disconnected(self):
        votes = VoteMatrix(("a", "b"), ((1, 0), (0, 1)))
        with pytest.raises(DisconnectedError, match="graph is not connected"):
            build_cosponsorship(votes)


PROFILE = PreferenceProfile(
    ("a", "b", "c"),
    ((("a", "b", "c"), 2.0), (("b", "a", "c"), 3.0),
     (("c", "a", "b"), 2.0), (("c", "b", "a"), 4.0)),
)


class TestKemeny:
    def test_pairwise_disagreement_counts(self):
        assert kemeny_distance("abc", "abc") == 0
        assert kemeny_distance("abc", "bac") == 1
        assert kemeny_distance("abc", "cba") == 3
        assert kemeny_distance("abcd", "dcba") == 6

    def test_distance_via_bubble_sort_oracle(self):
        def swaps_needed(a, b):
            target = {x: i for i, x in enumerate(b)}
            seq = [target[x] for x in a]
            count = 0
            for i in range(len(seq)):
                for j in range(len(seq) - 1):
                    if seq[j] > seq[j + 1]:
                        seq[j], seq[j + 1] = seq[j + 1], seq[j]
                        count += 1
            return count

        rng = np.random.default_rng(17)
        items = list("abcde")
        for _ in range(50):
            p = list(rng.permutation(items))
            q = list(rng.permutation(items))
            assert kemeny_distance(p, q) == swaps_needed(p, q)

    def test_profile_nodes_and_masses(self):
        net = build_preference_kemeny(PROFILE)
        assert net.n == 6 and net.total_mass == 11.0
        masses = dict(zip(net.ids, net.masses))
        assert masses["abc"] == 2.0 and masses["bac"] == 3.0
        assert masses["cab"] == 2.0 and masses["cba"] == 4.0
        assert masses["acb"] == 0.0 and masses["bca"] == 0.0

    def test_geodesics_equal_kemeny_distance(self):
        net = build_preference_kemeny(PROFILE)
        dm = geodesic_distances(net)
        for p in itertools.permutations("abc"):
            for q in itertools.permutations("abc"):
                assert distance(dm, ranking_id(p), ranking_id(q)) == kemeny_distance(p, q)

    def test_reversal_attains_diameter(self):
        dm = geodesic_distances(build_preference_kemeny(PROFILE))
        assert dm.diameter == 3.0

    def test_multicharacter_alternative_ids(self):
        profile = PreferenceProfile(("x1", "x2"), ((("x2", "x1"), 1.0),))
        net = build_preference_kemeny(profile)
        assert set(net.ids) == {"x1>x2", "x2>x1"}

    def test_too_many_alternatives(self):
        alts = tuple("abcdefgh")
        profile = PreferenceProfile(alts, ((alts, 1.0),))
        with pytest.raises(DomainError, match="8 alternatives would create 8! nodes"):
            build_preference_kemeny(profile)

    @pytest.mark.parametrize("alternatives, ballots, message", [
        (("a", "b"), ((("a", "a"), 1.0),), "is not a permutation of the alternatives"),
        (("a",), (), "need at least two alternatives"),
        (("a", "a"), (), "alternatives must be distinct"),
        (("a", "b"), ((("a", "b"), 0.0),), "ballot count must be positive, got 0.0"),
    ])
    def test_invalid_ballot_rejected(self, alternatives, ballots, message):
        with pytest.raises(ValidationError, match=message):
            PreferenceProfile(alternatives, ballots)


class TestLattice:
    POINTS = MassPoints((((0.0, 0.0), 1.0), ((1.0, 0.0), 2.0), ((1.0, 1.0), 3.0)))

    def test_manhattan_distances(self):
        dm = geodesic_distances(build_lattice(self.POINTS, norm="manhattan"))
        assert distance(dm, "(0,0)", "(1,1)") == 2.0

    def test_euclidean_distances(self):
        dm = geodesic_distances(build_lattice(self.POINTS, norm="euclidean"))
        assert distance(dm, "(0,0)", "(1,1)") == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_chebyshev_distances(self):
        dm = geodesic_distances(build_lattice(self.POINTS, norm="chebyshev"))
        assert distance(dm, "(0,0)", "(1,1)") == 1.0

    @pytest.mark.parametrize("norm", ["manhattan", "euclidean", "chebyshev"])
    def test_overflowing_norm_is_an_invalid_weight(self, norm):
        points = MassPoints((((1e308, 0.0), 1.0), ((-1e308, 0.0), 1.0)))
        with pytest.raises(ValidationError) as info:
            build_lattice(points, norm=norm)
        assert str(info.value) == "edge ('(1e+308,0)', '(-1e+308,0)') has invalid weight inf"

    def test_collinear_euclidean_matches_line_builder(self):
        pts = MassPoints((((0.0,), 1.0), ((2.0,), 2.0), ((5.0,), 1.0)))
        line_value = polarization(build_line(pts)).value
        lattice_value = polarization(build_lattice(pts, norm="euclidean")).value
        assert lattice_value == pytest.approx(line_value, rel=1e-12)

    def test_unknown_norm(self):
        with pytest.raises(DomainError, match="unknown norm 'hamming'"):
            build_lattice(self.POINTS, norm="hamming")

    def test_distinct_positions_sharing_an_id_rejected(self):
        pts = MassPoints((((0.0, 1.0), 1.0), ((0.1234567, 1.0), 1.0), ((0.1234568, 1.0), 1.0)))
        with pytest.raises(ValidationError, match=r"^positions \(0\.1234567, 1\.0\) and "
                           r"\(0\.1234568, 1\.0\) share the node id \(0\.123457,1\)$"):
            build_lattice(pts)


class TestCsvLoaders:
    def test_votes_round_trip(self, tmp_path):
        path = tmp_path / "votes.csv"
        path.write_text(
            "voter,party,bill_1,bill_2\n"
            "alice,L,1,0\n"
            "bob,R,0,1\n"
        )
        votes = load_votes_csv(path)
        assert votes.voters == ("alice", "bob")
        assert votes.entries == ((1, 0), (0, 1))
        assert votes.party == {"alice": "L", "bob": "R"}

    def test_votes_without_party_column(self, tmp_path):
        path = tmp_path / "votes.csv"
        path.write_text("voter,bill_1\nalice,1\n")
        votes = load_votes_csv(path)
        assert votes.party is None and votes.entries == ((1,),)

    def test_votes_bad_header(self, tmp_path):
        path = tmp_path / "votes.csv"
        path.write_text("name,bill_1\nalice,1\n")
        with pytest.raises(ValidationError, match="first column must be 'voter'"):
            load_votes_csv(path)

    def test_votes_non_binary_entry(self, tmp_path):
        path = tmp_path / "votes.csv"
        path.write_text("voter,bill_1\nalice,yes\n")
        with pytest.raises(ValidationError, match="vote entries must be 0/1"):
            load_votes_csv(path)

    def test_preferences_round_trip(self, tmp_path):
        path = tmp_path / "prefs.csv"
        path.write_text("ranking,count\nc>b>a,4\n\na>b>c,2\n")  # a blank row is skipped
        profile = load_preferences_csv(path)
        assert profile.alternatives == ("a", "b", "c")
        assert profile.ballots == ((("c", "b", "a"), 4.0), (("a", "b", "c"), 2.0))

    def test_preferences_bad_header(self, tmp_path):
        path = tmp_path / "prefs.csv"
        path.write_text("order,n\na>b,1\n")
        with pytest.raises(ValidationError, match="header must be 'ranking,count'"):
            load_preferences_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("ranking,count\n\n", "prefs.csv: no ballots$"),
        ("ranking,count\na>b,many\n", "prefs.csv:2: count must be a number$"),
    ], ids=["no-ballots", "text-count"])
    def test_preferences_rejected(self, text, message, tmp_path):
        path = tmp_path / "prefs.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match=message):
            load_preferences_csv(path)

    def test_mass_points_with_and_without_header(self, tmp_path):
        bare = tmp_path / "bare.csv"
        bare.write_text("0,1.5\n2,0.5\n")
        titled = tmp_path / "titled.csv"
        titled.write_text("x,mass\n0,1.5\n2,0.5\n")
        for path in (bare, titled):
            pts = load_mass_points_csv(path)
            assert pts.points == (((0.0,), 1.5), ((2.0,), 0.5))

    def test_mass_points_multidimensional(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0,0,1\n1,1,2\n")
        pts = load_mass_points_csv(path)
        assert pts.dim == 2 and pts.points[1] == ((1.0, 1.0), 2.0)

    def test_mass_points_non_numeric(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0,1\nx,2\n")
        with pytest.raises(ValidationError, match="non-numeric field"):
            load_mass_points_csv(path)

    def test_mass_points_errors_name_the_file_line(self, tmp_path):
        # blank rows and the header still count as lines, as in the vote loader
        path = tmp_path / "hdr.csv"
        path.write_text("x,mass\n0,1\n\n2,abc\n")
        with pytest.raises(ValidationError, match=r"hdr\.csv:4: non-numeric field"):
            load_mass_points_csv(path)
        path.write_text("\nx,mass\n\n0,1\n5\n")
        with pytest.raises(ValidationError, match=r"hdr\.csv:5: need at least one coordinate"):
            load_mass_points_csv(path)
        path.write_text("voter,bill_1\nalice,1\n\nbob,abc\n")
        with pytest.raises(ValidationError, match=r"hdr\.csv:4: vote entries must be 0/1"):
            load_votes_csv(path)

    def test_mass_points_first_row_with_a_number_is_data(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0.5,1O\n2,3\n")  # a typo, not a header
        with pytest.raises(ValidationError, match=r"pts\.csv:1: non-numeric field"):
            load_mass_points_csv(path)


class TestMassConservation:
    def test_builders_preserve_population(self):
        votes = roll_call_votes()
        assert build_vote_hypercube(votes).total_mass == 8.0
        assert build_representatives(votes).total_mass == 8.0
        assert build_preference_kemeny(PROFILE).total_mass == 11.0
        assert build_complete_uniform([2.0, 3.0]).total_mass == 5.0
