"""Network validation, geodesic distances and graph edit operations."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from netpolar.errors import DisconnectedError, DomainError, ValidationError
from netpolar.extremal import bipolar_distribution
from netpolar.graph import (
    average_path_length,
    delete_edge,
    delete_node,
    geodesic_distances,
    network_from_dict,
    network_to_dict,
    scale_masses,
    validate_network,
)
from netpolar.measures import oracle_distances

from conftest import brute_force_distances, distance, random_connected_network
from test_validation_equivalence import fresh


def line(*masses, gap=1.0):
    ids = [f"n{i}" for i in range(len(masses))]
    edges = [(a, b, gap) for a, b in zip(ids, ids[1:])]
    return validate_network(list(zip(ids, masses)), edges)


class TestValidation:
    def test_empty_node_set(self):
        with pytest.raises(ValidationError, match="at least one node"):
            validate_network([])

    def test_duplicate_node(self):
        with pytest.raises(ValidationError, match="node ids must be unique"):
            validate_network([("a", 1.0), ("a", 2.0)])

    def test_negative_mass(self):
        with pytest.raises(ValidationError, match="has invalid mass -0.5"):
            validate_network([("a", -0.5), ("b", 1.0)], [("a", "b", 1.0)])

    def test_nan_mass(self):
        with pytest.raises(ValidationError, match="has invalid mass nan"):
            validate_network([("a", float("nan")), ("b", 1.0)], [("a", "b", 1.0)])

    def test_negative_weight(self):
        with pytest.raises(ValidationError, match="has invalid weight -1.0"):
            validate_network([("a", 1.0), ("b", 1.0)], [("a", "b", -1.0)])

    def test_self_loop(self):
        with pytest.raises(ValidationError, match="self-loop at 'a'"):
            validate_network([("a", 1.0), ("b", 1.0)], [("a", "a", 1.0), ("a", "b", 1.0)])

    def test_duplicate_edge_either_orientation(self):
        with pytest.raises(ValidationError, match="duplicate edge"):
            validate_network([("a", 1.0), ("b", 1.0)], [("a", "b", 1.0), ("b", "a", 2.0)])

    def test_unknown_endpoint(self):
        with pytest.raises(ValidationError, match="references unknown node"):
            validate_network([("a", 1.0), ("b", 1.0)], [("a", "c", 1.0)])

    def test_disconnected_rejected_by_default(self):
        with pytest.raises(DisconnectedError, match="graph is not connected"):
            validate_network([("a", 1.0), ("b", 1.0), ("c", 1.0)], [("a", "b", 1.0)])

    def test_single_node_is_connected(self):
        net = validate_network([("solo", 2.0)])
        assert net.n == 1 and net.total_mass == 2.0

    def test_zero_weight_edge_is_legal(self):
        net = validate_network([("a", 1.0), ("b", 1.0)], [("a", "b", 0.0)])
        assert geodesic_distances(net).d[0, 1] == 0.0


class TestGeodesics:
    def test_two_node(self):
        net = validate_network([("a", 1.0), ("b", 1.0)], [("a", "b", 2.5)])
        dm = geodesic_distances(net)
        assert dm.d[0, 1] == 2.5 and dm.d[0, 0] == 0.0
        assert dm.diameter == 2.5 and dm.diameter_pair == ("a", "b")

    def test_chain_reproduces_absolute_differences(self):
        xs = [0.0, 1.5, 2.0, 5.0]
        ids = [f"n{i}" for i in range(4)]
        edges = [(a, b, xb - xa) for (a, xa), (b, xb) in
                 zip(zip(ids, xs), zip(ids[1:], xs[1:]))]
        dm = geodesic_distances(validate_network([(i, 1.0) for i in ids], edges))
        for i in range(4):
            for j in range(4):
                assert dm.d[i, j] == pytest.approx(abs(xs[i] - xs[j]), abs=1e-15)

    def test_direct_edge_beaten_by_shortcut(self):
        net = validate_network(
            [("a", 1.0), ("b", 1.0), ("c", 1.0)],
            [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 5.0)],
        )
        assert geodesic_distances(net).d[0, 2] == 2.0

    def test_zero_weight_shortcut(self):
        net = validate_network(
            [("a", 1.0), ("b", 1.0), ("c", 1.0)],
            [("a", "b", 0.0), ("b", "c", 1.0), ("a", "c", 3.0)],
        )
        assert geodesic_distances(net).d[0, 2] == 1.0

    def test_matches_simple_path_enumeration_exactly(self):
        rng = np.random.default_rng(20240817)
        for _ in range(60):
            net = random_connected_network(rng, n_max=7, dyadic=True)
            dm = geodesic_distances(net)
            oracle = brute_force_distances(net)
            assert (dm.d == oracle).all()

    def test_diameter_tie_breaks_in_node_order(self):
        # unit 4-cycle: both opposite pairs sit at distance 2
        net = validate_network(
            [(i, 1.0) for i in "abcd"],
            [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0), ("d", "a", 1.0)],
        )
        dm = geodesic_distances(net)
        assert dm.diameter == 2.0 and dm.diameter_pair == ("a", "c")

        def first_upper_maximum(dm):
            i, j = np.triu_indices(len(dm.ids), k=1)
            k = int(np.argmax(dm.d[i, j]))
            return dm.d[i[k], j[k]], (dm.ids[i[k]], dm.ids[j[k]])

        # dyadic weights make ties common; the chain and the edgeless
        # longest-path network have all-zero distances
        rng = np.random.default_rng(11)
        nets = [random_connected_network(rng, dyadic=k % 2 == 1) for k in range(3000)]
        nets.append(validate_network([(i, 1.0) for i in "abc"],
                                     [("a", "b", 0.0), ("b", "c", 0.0)]))
        nets.append(validate_network([(i, 1.0) for i in "abcd"], [("c", "d", 2.0)],
                                     allow_disconnected=True))
        nets.append(validate_network([(i, 1.0) for i in "abc"], [], allow_disconnected=True))
        for net in nets:
            dm = geodesic_distances(net)
            assert (dm.diameter, dm.diameter_pair) == first_upper_maximum(dm)

    def test_single_node_distance_matrix(self):
        dm = geodesic_distances(validate_network([("a", 1.0)]))
        assert dm.diameter == 0.0 and dm.diameter_pair is None

    def test_symmetry_zero_diagonal_triangle_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            d = geodesic_distances(random_connected_network(rng)).d
            assert (d == d.T).all()
            assert (np.diag(d) == 0.0).all()
            n = len(d)
            for k in range(n):
                assert (d <= d[:, [k]] + d[[k], :] + 1e-12).all()

    def test_sparse_graphs_match_the_heap_dijkstra_oracle(self):
        # below a quarter density scipy's "auto" picks Dijkstra, which sums
        # each path from its source; the small graphs above mostly take
        # Floyd-Warshall
        rng = np.random.default_rng(40)
        for dyadic in (False, True):
            for _ in range(6):
                net = random_connected_network(rng, n_min=40, n_max=80, dyadic=dyadic,
                                               extra_edge_prob=0.05)
                assert 2 * len(net.edges) < net.n ** 2 / 4
                assert any(w == 0.0 for _, _, w in net.edges)
                d = geodesic_distances(net).d
                oracle = np.array(oracle_distances(net))
                assert (d == d.T).all() and (np.diag(d) == 0.0).all()
                if dyadic:
                    assert (d == oracle).all()
                else:
                    assert np.abs(d - oracle).max() <= 1e-12

    def test_directed_search_gives_the_undirected_bits(self, monkeypatch):
        # the stored graph holds both directions, so the directed search must
        # give bit for bit what scipy's undirected search, which also scans
        # the transpose, gives, on either engine and under either convention
        import scipy.sparse.csgraph as csgraph
        rng = np.random.default_rng(41)
        nets = []
        for k in range(80):
            n = int(rng.integers(2, 50))
            ids = [str(i) for i in range(n)]
            pairs = list(itertools.combinations(ids, 2))
            # every fourth graph may fall apart and is read under the longest-path convention
            connected = k % 4 > 0
            density = rng.choice([0.03, 0.1, 0.3, 1.0])
            chosen = {pair for pair in pairs if rng.random() < density}
            if connected:
                chosen.update(zip(ids, ids[1:]))
            weights = rng.uniform(0.0, 3.0, len(pairs))
            weights[rng.random(len(pairs)) < 0.1] = 0.0
            weights[rng.random(len(pairs)) < 0.1] = -0.0
            edges = [(u, v, float(w)) for (u, v), w in zip(pairs, weights) if (u, v) in chosen]
            nets.append(validate_network([(i, 1.0) for i in ids], edges,
                                         allow_disconnected=not connected))
        directed = [geodesic_distances(net) for net in nets]
        search = csgraph.shortest_path
        calls = []

        def undirected(g, directed):
            calls.append(directed)
            return search(g, directed=False)

        monkeypatch.setattr(csgraph, "shortest_path", undirected)
        for net, dm in zip(nets, directed):
            reference = geodesic_distances(net)
            assert (dm.d.view(np.uint64) == reference.d.view(np.uint64)).all()
            assert (dm.diameter, dm.diameter_pair) == (reference.diameter,
                                                      reference.diameter_pair)
        assert calls == [True] * len(nets)
        # both engines ran: Floyd-Warshall at a quarter density and above, Dijkstra below
        dense = [2 * len(net.edges) >= net.n ** 2 / 4 for net in nets]
        assert any(dense) and not all(dense)
        assert any(net.longest_path_convention and np.isinf(search(net._csgraph)).any()
                   for net in nets)
        assert any(np.signbit(dm.d).any() for dm in directed)

    def test_distance_matrix_is_read_only(self):
        dm = geodesic_distances(line(1.0, 1.0))
        with pytest.raises(ValueError):
            dm.d[0, 1] = 9.0

    def test_distance_accessor(self):
        dm = geodesic_distances(line(1.0, 1.0, 1.0, gap=2.0))
        assert distance(dm, "n0", "n2") == 4.0


class TestOverflow:
    NODES = [("a", 1.0), ("b", 1.0), ("c", 1.0)]
    CHAIN = [("a", "b", 1e308), ("b", "c", 1e308)]

    def test_overflowing_path_is_a_domain_error(self):
        net = validate_network(self.NODES, self.CHAIN)
        with pytest.raises(DomainError, match="a geodesic distance overflows the float range"):
            geodesic_distances(net)

    def test_overflow_is_not_disconnection_under_longest_path(self):
        net = validate_network(self.NODES + [("d", 1.0)], self.CHAIN, allow_disconnected=True)
        with pytest.raises(DomainError, match="a geodesic distance overflows the float range"):
            geodesic_distances(net)


class TestLongestPathConvention:
    def test_cross_component_distance_is_largest_finite(self):
        net = validate_network(
            [("a", 1.0), ("b", 1.0), ("c", 1.0)],
            [("a", "b", 3.0)],
            allow_disconnected=True,
        )
        dm = geodesic_distances(net)
        assert dm.d[0, 2] == 3.0 and dm.d[1, 2] == 3.0

    def test_edgeless_graph_collapses_to_zero(self):
        net = validate_network([("a", 1.0), ("b", 1.0)], [], allow_disconnected=True)
        assert geodesic_distances(net).d[0, 1] == 0.0


class TestAveragePathLength:
    def test_hand_value_on_three_node_path(self):
        # distances: 1, 2, 3 in each direction, mean 12 / 6 = 2
        net = validate_network(
            [("a", 1.0), ("b", 1.0), ("c", 1.0)],
            [("a", "b", 1.0), ("b", "c", 2.0)],
        )
        assert average_path_length(net) == 2.0

    def test_mean_within_the_float_range_of_a_sum_beyond_it(self):
        ids = ("a", "b", "c")
        net = validate_network([(i, 1.0) for i in ids],
                               [(u, v, 1e308) for u, v in itertools.combinations(ids, 2)])
        assert average_path_length(net) == 1e308

    def test_single_node_rejected(self):
        with pytest.raises(DomainError, match="average path length needs at least two nodes"):
            average_path_length(validate_network([("a", 1.0)]))


class TestEdits:
    def test_delete_edge_lengthens_geodesic(self):
        net = validate_network(
            [(i, 1.0) for i in "abc"],
            [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0)],
        )
        cut = delete_edge(net, "a", "c")
        assert geodesic_distances(cut).d[0, 2] == 2.0

    def test_delete_missing_edge(self):
        with pytest.raises(ValidationError, match="no edge"):
            delete_edge(line(1.0, 1.0), "n0", "n9")

    def test_delete_bridge_refused(self):
        with pytest.raises(DisconnectedError, match="deleting edge .* disconnects the graph"):
            delete_edge(line(1.0, 1.0, 1.0), "n0", "n1")

    def test_delete_node_removes_incident_edges(self):
        net = validate_network(
            [(i, 1.0) for i in "abc"],
            [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0)],
        )
        out = delete_node(net, "b")
        assert out.ids == ("a", "c") and out.edges == (("a", "c", 1.0),)

    def test_delete_cut_node_refused(self):
        with pytest.raises(DisconnectedError, match="deleting node 'n1' disconnects the graph"):
            delete_node(line(1.0, 1.0, 1.0), "n1")

    def test_delete_unknown_node(self):
        with pytest.raises(ValidationError, match="no node 'zz'"):
            delete_node(line(1.0, 1.0), "zz")

    def test_delete_last_node_refused(self):
        with pytest.raises(ValidationError, match="cannot delete the only node"):
            delete_node(validate_network([("a", 1.0)]), "a")

    def test_scale_masses(self):
        out = scale_masses(line(1.0, 2.0), 2.5)
        assert out.masses == (2.5, 5.0) and out.edges == line(1.0, 2.0).edges

    def test_scale_masses_rejects_nonpositive(self):
        for lam in (0.0, -1.0):
            with pytest.raises(DomainError, match="scale factor must be positive"):
                scale_masses(line(1.0, 1.0), lam)

    def test_scale_masses_rejects_non_finite(self):
        for lam in (float("inf"), float("nan")):
            with pytest.raises(DomainError, match="scale factor must be positive and finite"):
                scale_masses(line(0.0, 1e300), lam)
        with pytest.raises(DomainError, match="scaling node 'n1'"):
            scale_masses(line(0.0, 1e300), 1e10)

    def test_mass_edits_keep_the_graph_of_a_fresh_validation(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            net = random_connected_network(rng, n_max=9)
            edits = [scale_masses(net, float(rng.uniform(0.1, 10.0)))]
            if net.total_mass > 0:
                edits.append(bipolar_distribution(net))
            for out in edits:
                assert out._csgraph is net._csgraph
                assert (geodesic_distances(out).d == geodesic_distances(fresh(out)).d).all()


class TestWireFormat:
    DOC = {
        "nodes": [{"id": "a", "mass": 1.0}, {"id": "b", "mass": 3.0}],
        "edges": [{"u": "a", "v": "b", "w": 2.0}],
    }

    def test_round_trip(self):
        net = network_from_dict(self.DOC)
        assert network_to_dict(net) == self.DOC

    def test_unknown_top_level_key(self):
        with pytest.raises(ValidationError, match="unknown top-level keys"):
            network_from_dict({**self.DOC, "comment": "hi"})

    def test_missing_nodes(self):
        with pytest.raises(ValidationError, match="missing 'nodes'"):
            network_from_dict({"edges": []})

    def test_extra_node_field(self):
        with pytest.raises(ValidationError, match="must have exactly 'id' and 'mass'"):
            network_from_dict({"nodes": [{"id": "a", "mass": 1.0, "color": "red"}]})

    def test_boolean_mass_rejected(self):
        with pytest.raises(ValidationError, match="mass must be a number"):
            network_from_dict({"nodes": [{"id": "a", "mass": True}]})

    def test_edge_to_unknown_node_reported_as_schema_error(self):
        doc = {"nodes": [{"id": "a", "mass": 1.0}],
               "edges": [{"u": "a", "v": "zz", "w": 1.0}]}
        with pytest.raises(ValidationError, match="references unknown node"):
            network_from_dict(doc)

    @pytest.mark.parametrize("doc, message", [
        ({"nodes": [{"id": ["x"], "mass": 1.0}]}, "node id must be a string"),
        ({"nodes": [{"id": 1, "mass": 1.0}]}, "node id must be a string"),
        ({"nodes": [{"id": "1", "mass": 1.0}, {"id": "b", "mass": 1.0}],
          "edges": [{"u": 1, "v": "b", "w": 1.0}]}, "edge endpoints must be strings"),
    ], ids=["list-id", "integer-id", "integer-endpoint"])
    def test_non_string_id_rejected(self, doc, message):
        with pytest.raises(ValidationError, match=message):
            network_from_dict(doc)

    def test_not_an_object(self):
        with pytest.raises(ValidationError, match="must be a JSON object"):
            network_from_dict([1, 2, 3])


class TestNetworkWithoutAGraph:
    def test_the_class_needs_its_graph(self):
        from netpolar.graph import Network

        with pytest.raises(TypeError, match="required keyword-only argument: '_csgraph'"):
            Network(("a", "b"), (1.0, 1.0), (("a", "b", 1.0),))

    def test_a_copy_without_the_convention_is_still_disconnected(self):
        # dataclasses.replace is the only way to a disconnected network that
        # lacks the longest-path convention
        net = validate_network([("a", 1.0), ("b", 1.0)], allow_disconnected=True)
        with pytest.raises(DisconnectedError, match="^graph is not connected$"):
            geodesic_distances(replace(net, longest_path_convention=False))
