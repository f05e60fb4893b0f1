"""Column-wise validation against the record-at-a-time reference.

Each case runs ``netpolar.graph`` and ``reference_validator`` on the same
input and requires the same outcome: equal networks, or the same error
class with the same message.  Inputs are seeded random valid networks, with
zero, one or two defects planted in different records and phases.
"""

from types import MappingProxyType

import numpy as np
import pytest

import reference_validator as ref
from netpolar.errors import DisconnectedError
from netpolar.graph import (
    Network,
    delete_edge,
    delete_node,
    geodesic_distances,
    network_from_dict,
    scale_masses,
    validate_network,
)


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)


def random_raw(rng, n_max=7):
    """Node pairs and edge triples of a random connected network."""
    n = int(rng.integers(3, n_max + 1))
    ids = [f"n{i}" for i in rng.permutation(n)]
    pairs = {tuple(sorted((a, b))) for a, b in zip(ids, ids[1:])}
    pairs |= {(a, b) for a in ids for b in ids if a < b and rng.random() < 0.3}
    edges = []
    for a, b in sorted(pairs, key=lambda _: rng.random()):
        w = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.0, 3.0))
        edges.append((a, b, w) if rng.random() < 0.5 else (b, a, w))
    nodes = [(i, 0.0 if rng.random() < 0.15 else float(rng.uniform(0.0, 5.0))) for i in ids]
    return nodes, edges


def copy_edge(rng, edge):
    """The same edge, in either orientation, with another weight."""
    u, v, _ = edge
    return (u, v, 0.5) if rng.random() < 0.5 else (v, u, 0.5)


# defects planted in the (id, mass) pairs and (u, v, w) triples of validate_network
NODE_DEFECTS = {
    "duplicate-id": lambda rng, nodes, i: (nodes[(i + 1) % len(nodes)][0], nodes[i][1]),
    "negative-mass": lambda rng, nodes, i: (nodes[i][0], -0.5),
    "nan-mass": lambda rng, nodes, i: (nodes[i][0], float("nan")),
    "infinite-mass": lambda rng, nodes, i: (nodes[i][0], float("inf")),
    "text-mass": lambda rng, nodes, i: (nodes[i][0], "heavy"),
    "none-mass": lambda rng, nodes, i: (nodes[i][0], None),
    "short-node": lambda rng, nodes, i: (nodes[i][0],),
}
EDGE_DEFECTS = {
    "unknown-node": lambda rng, edges, j: (edges[j][0], "elsewhere", edges[j][2]),
    "self-loop": lambda rng, edges, j: (edges[j][0], edges[j][0], edges[j][2]),
    "negative-weight": lambda rng, edges, j: (*edges[j][:2], -1.0),
    "nan-weight": lambda rng, edges, j: (*edges[j][:2], float("nan")),
    "infinite-weight": lambda rng, edges, j: (*edges[j][:2], float("inf")),
    "duplicate": lambda rng, edges, j: copy_edge(rng, edges[(j + 1) % len(edges)]),
    "text-weight": lambda rng, edges, j: (*edges[j][:2], "far"),
    "none-weight": lambda rng, edges, j: (*edges[j][:2], None),
    "huge-int-weight": lambda rng, edges, j: (*edges[j][:2], 10 ** 400),
    "short-edge": lambda rng, edges, j: edges[j][:2],
    "long-edge": lambda rng, edges, j: (*edges[j], 0.0),
    "scalar-edge": lambda rng, edges, j: 7,
}


def plant(rng, nodes, edges, kinds):
    """Defects of ``kinds`` planted in distinct records of clean ``nodes`` and ``edges``."""
    clean = list(nodes), list(edges)
    nodes, edges = list(nodes), list(edges)
    spots = {"nodes": list(rng.permutation(len(nodes))), "edges": list(rng.permutation(len(edges)))}
    for kind in kinds:
        if kind == "isolated-node":
            nodes.append(("alone", 1.0))
        elif kind in NODE_DEFECTS:
            i = spots["nodes"].pop()
            nodes[i] = NODE_DEFECTS[kind](rng, clean[0], i)
        else:
            j = spots["edges"].pop()
            edges[j] = EDGE_DEFECTS[kind](rng, clean[1], j)
    return nodes, edges


RAW_DEFECTS = sorted(NODE_DEFECTS) + sorted(EDGE_DEFECTS) + ["isolated-node"]


def assert_same_raw(nodes, edges, allow):
    got = outcome(validate_network, nodes, edges, allow_disconnected=allow)
    want = outcome(ref.validate_network, nodes, edges, allow_disconnected=allow)
    assert got == want, (nodes, edges, allow)
    return got


class TestValidateNetwork:
    def test_random_valid_networks_are_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            nodes, edges = random_raw(rng, n_max=12)
            for allow in (False, True):
                got = assert_same_raw(nodes, edges, allow)
                assert got[0] == "ok"

    def test_weight_zero_edges_are_equal(self):
        nodes = [("a", 1.0), ("b", 0.0), ("c", 2.0)]
        edges = [("a", "b", 0.0), ("b", "c", 0.0), ("c", "a", 0.0)]
        assert assert_same_raw(nodes, edges, False)[0] == "ok"

    def test_coerced_ids_and_weights_are_equal(self):
        # str() makes the ids and endpoints meet; float() reads the weights
        nodes = [(1, 1), (2, np.float32(0.5)), ("3", True)]
        edges = [(1, 2, "1.5"), (np.int64(2), "3", 2), [3, "1", np.float64(0.25)]]
        got = assert_same_raw(nodes, edges, False)
        assert got[0] == "ok" and got[1].edges == (("1", "2", 1.5), ("2", "3", 2.0),
                                                   ("3", "1", 0.25))
        assert outcome(validate_network, nodes, iter(edges)) == got
        assert outcome(validate_network, nodes, (tuple(e) for e in edges)) == got

    @pytest.mark.parametrize("kind", RAW_DEFECTS)
    def test_each_defect_gives_the_same_error(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)))
        for _ in range(30):
            nodes, edges = plant(rng, *random_raw(rng), [kind])
            got = assert_same_raw(nodes, edges, False)
            assert got[0] != "ok"

    def test_two_defects_give_the_first_error(self):
        rng = np.random.default_rng(11)
        for _ in range(1500):
            nodes, edges = plant(rng, *random_raw(rng), rng.choice(RAW_DEFECTS, size=2))
            assert_same_raw(nodes, edges, bool(rng.random() < 0.3))

    def test_empty_and_edgeless_inputs(self):
        assert_same_raw([], [], False)
        assert assert_same_raw([("a", 1.0)], [], False)[0] == "ok"
        assert assert_same_raw([("a", 1.0), ("b", 1.0)], [], True)[0] == "ok"
        assert_same_raw([("a", 1.0), ("b", 1.0)], [], False)


def as_doc(nodes, edges):
    return {"nodes": [{"id": i, "mass": m} for i, m in nodes],
            "edges": [{"u": u, "v": v, "w": w} for u, v, w in edges]}


# defects planted in one record of a network document
RECORD_DEFECTS = {
    "not-a-mapping": lambda rec: list(rec.values()),
    "missing-key": lambda rec: dict(list(rec.items())[1:]),
    "extra-key": lambda rec: {**rec, "note": 1},
    "integer-string": lambda rec: {**rec, next(iter(rec)): 3},
    "none-string": lambda rec: {**rec, next(iter(rec)): None},
    "bool-number": lambda rec: {**rec, list(rec)[-1]: True},
    "text-number": lambda rec: {**rec, list(rec)[-1]: "1"},
    "huge-integer": lambda rec: {**rec, list(rec)[-1]: 10 ** 400},
    "negative-number": lambda rec: {**rec, list(rec)[-1]: -2},
    "nan-number": lambda rec: {**rec, list(rec)[-1]: float("nan")},
    "infinite-number": lambda rec: {**rec, list(rec)[-1]: float("inf")},
    # accepted: a non-dict Mapping and an integer number
    "mapping-proxy": MappingProxyType,
    "integer-number": lambda rec: {**rec, list(rec)[-1]: 2},
}
DOCUMENT_DEFECTS = {
    "extra-top-key": lambda doc: {**doc, "comment": "x"},
    "missing-nodes": lambda doc: {"edges": doc["edges"]},
    "nodes-not-a-list": lambda doc: {**doc, "nodes": tuple(doc["nodes"])},
    "edges-not-a-list": lambda doc: {**doc, "edges": None},
    "not-a-mapping": lambda doc: [doc],
    "mapping-proxy": MappingProxyType,
}
DOC_DEFECTS = ([f"node:{k}" for k in RECORD_DEFECTS] + [f"edge:{k}" for k in RECORD_DEFECTS]
               + [f"document:{k}" for k in DOCUMENT_DEFECTS]
               + [f"raw:{k}" for k in ("duplicate-id", "unknown-node", "self-loop",
                                       "duplicate", "isolated-node")])


def plant_doc(rng, doc, kinds):
    """Defects of ``kinds`` planted in distinct records of a clean document."""
    raw = [k.split(":")[1] for k in kinds if k.startswith("raw:")]
    if raw:
        nodes = [(r["id"], r["mass"]) for r in doc["nodes"]]
        edges = [(r["u"], r["v"], r["w"]) for r in doc["edges"]]
        doc = as_doc(*plant(rng, nodes, edges, raw))
    doc = {"nodes": list(doc["nodes"]), "edges": list(doc["edges"])}
    spots = {key: list(rng.permutation(len(doc[key]))) for key in doc}
    for where, kind in (k.split(":") for k in kinds):
        if where in ("node", "edge"):
            key = where + "s"
            i = spots[key].pop()
            doc[key][i] = RECORD_DEFECTS[kind](doc[key][i])
    for where, kind in (k.split(":") for k in kinds):
        if where == "document":
            doc = DOCUMENT_DEFECTS[kind](doc)
    return doc


def assert_same_doc(doc, allow):
    before = repr(doc)
    got = outcome(network_from_dict, doc, allow_disconnected=allow)
    want = outcome(ref.network_from_dict, doc, allow_disconnected=allow)
    assert got == want, (doc, allow)
    assert repr(doc) == before
    return got


class TestNetworkFromDict:
    def test_random_valid_documents_are_equal(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            doc = as_doc(*random_raw(rng, n_max=12))
            for allow in (False, True):
                assert assert_same_doc(doc, allow)[0] == "ok"

    def test_non_dict_mappings_are_accepted(self):
        rng = np.random.default_rng(8)
        nodes, edges = random_raw(rng)
        doc = as_doc(nodes, edges)
        proxied = MappingProxyType({"nodes": [MappingProxyType(r) for r in doc["nodes"]],
                                    "edges": [MappingProxyType(r) for r in doc["edges"]]})
        got = assert_same_doc(proxied, False)
        assert got[0] == "ok" and got[1] == network_from_dict(doc)

    @pytest.mark.parametrize("kind", DOC_DEFECTS)
    def test_each_defect_gives_the_same_outcome(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)))
        for _ in range(20):
            assert_same_doc(plant_doc(rng, as_doc(*random_raw(rng)), [kind]), False)

    def test_two_defects_give_the_first_error(self):
        rng = np.random.default_rng(12)
        record_kinds = [k for k in DOC_DEFECTS if not k.startswith("document")]
        for _ in range(1500):
            doc = plant_doc(rng, as_doc(*random_raw(rng)), rng.choice(record_kinds, size=2))
            assert_same_doc(doc, bool(rng.random() < 0.3))


def fresh(net: Network) -> Network:
    """The same network validated from its fields, with nothing carried over."""
    return validate_network(zip(net.ids, net.masses), net.edges,
                            allow_disconnected=net.longest_path_convention)


class TestDerivedGraphFollowsEdits:
    # a unit 4-cycle with the chord a-c
    NODES = [(i, 1.0) for i in "abcd"]
    EDGES = [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0), ("d", "a", 1.0), ("a", "c", 1.0)]

    def net(self):
        net = validate_network(self.NODES, self.EDGES)
        geodesic_distances(net)
        return net

    def test_delete_edge(self):
        cut = delete_edge(self.net(), "a", "c")
        assert geodesic_distances(cut).d[0, 2] == 2.0
        assert (geodesic_distances(cut).d == geodesic_distances(fresh(cut)).d).all()
        once = delete_edge(cut, "a", "b")  # a now hangs off d
        assert geodesic_distances(once).d[0, 1] == 3.0
        with pytest.raises(DisconnectedError):
            delete_edge(once, "a", "d")

    def test_delete_node(self):
        out = delete_node(self.net(), "c")
        assert geodesic_distances(out).d.tolist() == [[0.0, 1.0, 1.0], [1.0, 0.0, 2.0],
                                                      [1.0, 2.0, 0.0]]
        with pytest.raises(DisconnectedError):
            delete_node(out, "a")

    def test_scale_masses(self):
        net = self.net()
        out = scale_masses(net, 3.0)
        assert out.masses == (3.0,) * 4
        assert (geodesic_distances(out).d == geodesic_distances(net).d).all()

    def test_random_edits_match_fresh_validation(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            net = validate_network(*random_raw(rng, n_max=9))
            for _ in range(3):
                if rng.random() < 0.5 and net.edges:
                    u, v, _ = net.edges[int(rng.integers(len(net.edges)))]
                    edit = outcome(delete_edge, net, u, v)
                else:
                    edit = outcome(delete_node, net, net.ids[int(rng.integers(net.n))])
                if edit[0] != "ok":
                    continue
                net = edit[1]
                assert outcome(fresh, net)[0] == "ok"
                assert (geodesic_distances(net).d == geodesic_distances(fresh(net)).d).all()
