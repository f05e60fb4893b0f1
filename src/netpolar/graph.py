"""Node- and edge-weighted undirected networks and geodesic distances.

A network couples a connected weighted graph with a non-negative mass on
every node.  Edge weights are direct distances (a larger weight means a
weaker connection); weight 0 is a legal edge meaning distance 0 and is
distinct from the absence of an edge.  Distances and connectivity come from
``scipy.sparse.csgraph``, which picks Floyd-Warshall or Dijkstra by density,
on a sparse matrix built from coordinate triples: that keeps weight-0 edges,
which csgraph drops from a dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from .errors import DisconnectedError, DomainError, ValidationError

Edge = tuple[str, str, float]


@dataclass(frozen=True)
class Network:
    """A validated (graph, masses) pair.

    ``ids`` fixes the node order used by every matrix produced from this
    network.  ``longest_path_convention`` marks networks that were admitted
    despite being disconnected; cross-component distances are then set to
    the largest finite geodesic distance.
    """

    ids: tuple[str, ...]
    masses: tuple[float, ...]
    edges: tuple[Edge, ...]
    longest_path_convention: bool = False

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def total_mass(self) -> float:
        return float(sum(self.masses))

    def mass_vector(self) -> np.ndarray:
        return np.asarray(self.masses, dtype=float)

    def has_edge(self, u: str, v: str) -> bool:
        pair = frozenset((u, v))
        return any(frozenset((a, b)) == pair for a, b, _ in self.edges)


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs geodesic distances in the node order of the source network."""

    ids: tuple[str, ...]
    d: np.ndarray
    diameter: float
    diameter_pair: tuple[str, str] | None

    def distance(self, u: str, v: str) -> float:
        ids = list(self.ids)
        return float(self.d[ids.index(u), ids.index(v)])


def validate_network(
    nodes: Sequence[tuple[str, float]],
    edges: Iterable[tuple[str, str, float]] = (),
    allow_disconnected: bool = False,
) -> Network:
    """Validate raw node/edge data and return a :class:`Network`.

    ``nodes`` is an ordered sequence of ``(id, mass)`` pairs; ``edges`` an
    iterable of ``(u, v, weight)`` triples.  Connectivity is verified unless
    ``allow_disconnected`` opts into the longest-path convention for
    cross-component distances.
    """
    nodes = list(nodes)
    if not nodes:
        raise ValidationError("network needs at least one node")
    ids = tuple(str(i) for i, _ in nodes)
    if len(set(ids)) != len(ids):
        raise ValidationError("node ids must be unique")
    masses = tuple(float(m) for _, m in nodes)
    for i, m in zip(ids, masses):
        if m < 0 or not np.isfinite(m):
            raise ValidationError(f"node {i!r} has invalid mass {m}")

    known = set(ids)
    seen: set[frozenset[str]] = set()
    clean: list[Edge] = []
    for u, v, w in edges:
        u, v, w = str(u), str(v), float(w)
        if u not in known or v not in known:
            raise ValidationError(f"edge ({u!r}, {v!r}) references unknown node")
        if u == v:
            raise ValidationError(f"self-loop at {u!r}")
        if w < 0 or not np.isfinite(w):
            raise ValidationError(f"edge ({u!r}, {v!r}) has invalid weight {w}")
        key = frozenset((u, v))
        if key in seen:
            raise ValidationError(f"duplicate edge ({u!r}, {v!r})")
        seen.add(key)
        clean.append((u, v, w))

    net = Network(ids, masses, tuple(clean), longest_path_convention=allow_disconnected)
    return _require_connected(net, "graph is not connected")


def _csgraph(net: Network) -> csr_matrix:
    """Edge weights in both directions; validation rules out duplicate edges."""
    # arrays, not lists: scipy converts Python lists about three times slower
    idx = {v: i for i, v in enumerate(net.ids)}
    u = np.array([idx[a] for a, _, _ in net.edges], dtype=np.intp)
    v = np.array([idx[b] for _, b, _ in net.edges], dtype=np.intp)
    w = np.array([x for _, _, x in net.edges], dtype=float)
    ends = (np.concatenate((u, v)), np.concatenate((v, u)))
    return csr_matrix((np.concatenate((w, w)), ends), shape=(net.n, net.n))


def _require_connected(net: Network, message: str) -> Network:
    """``net``, unless it is disconnected outside the longest-path convention."""
    if net.longest_path_convention:
        return net
    if connected_components(_csgraph(net), directed=False, return_labels=False) > 1:
        raise DisconnectedError(message)
    return net


def geodesic_distances(net: Network) -> DistanceMatrix:
    """All-pairs shortest-path distances, diameter and one attaining pair.

    The diameter pair is the first maximizing pair in node order, which
    makes the tie-break deterministic.  Under the longest-path convention,
    distances between components are replaced by the largest finite
    geodesic distance in the whole graph.  A path sum beyond the float
    range is a :class:`DomainError`, never a disconnection.
    """
    g = _csgraph(net)
    d = shortest_path(g, directed=False)
    # Dijkstra may sum one path in a different order from each end
    np.minimum(d, d.T, out=d)
    unreached = np.isinf(d)
    if unreached.any():
        _, labels = connected_components(g, directed=False)
        if (unreached & (labels[:, None] == labels)).any():
            raise DomainError("a geodesic distance overflows the float range")
        if not net.longest_path_convention:
            raise DisconnectedError("graph is not connected")
        d[unreached] = d[~unreached].max()
    d.flags.writeable = False
    if net.n < 2:
        return DistanceMatrix(net.ids, d, 0.0, None)
    iu = np.triu_indices(net.n, k=1)
    flat = d[iu]
    k = int(np.argmax(flat))
    pair = (net.ids[int(iu[0][k])], net.ids[int(iu[1][k])])
    return DistanceMatrix(net.ids, d, float(flat[k]), pair)


def diameter(net: Network) -> tuple[tuple[str, str] | None, float]:
    """Maximal geodesic distance and its (lexicographically first) pair."""
    dm = geodesic_distances(net)
    return dm.diameter_pair, dm.diameter


def average_path_length(net: Network) -> float:
    """Mean geodesic distance over ordered node pairs, sum d(i,j) / (n(n-1))."""
    if net.n < 2:
        raise DomainError("average path length needs at least two nodes")
    dm = geodesic_distances(net)
    return float(dm.d.sum() / (net.n * (net.n - 1)))


def delete_edge(net: Network, u: str, v: str) -> Network:
    """Remove edge uv; refuse if it does not exist or would disconnect."""
    pair = frozenset((u, v))
    kept = tuple(e for e in net.edges if frozenset(e[:2]) != pair)
    if len(kept) == len(net.edges):
        raise ValidationError(f"no edge ({u!r}, {v!r})")
    return _require_connected(replace(net, edges=kept),
                              f"deleting edge ({u!r}, {v!r}) disconnects the graph")


def delete_node(net: Network, u: str) -> Network:
    """Remove node u with its incident edges; refuse if it would disconnect."""
    if u not in net.ids:
        raise ValidationError(f"no node {u!r}")
    ids = tuple(i for i in net.ids if i != u)
    if not ids:
        raise ValidationError("cannot delete the only node")
    masses = tuple(m for i, m in zip(net.ids, net.masses) if i != u)
    edges = tuple(e for e in net.edges if u not in e[:2])
    return _require_connected(Network(ids, masses, edges, net.longest_path_convention),
                              f"deleting node {u!r} disconnects the graph")


def scale_masses(net: Network, lam: float) -> Network:
    """Multiply every node mass by ``lam > 0``; the graph is unchanged."""
    if not lam > 0:
        raise DomainError(f"scale factor must be positive, got {lam}")
    return replace(net, masses=tuple(m * lam for m in net.masses))


# -- JSON wire format --------------------------------------------------------

def network_from_dict(raw: Mapping, allow_disconnected: bool = False) -> Network:
    """Build a network from the JSON schema ``{"nodes": [...], "edges": [...]}``.

    The schema is strict: unknown keys anywhere are rejected.
    """
    if not isinstance(raw, Mapping):
        raise ValidationError("network document must be a JSON object")
    extra = set(raw) - {"nodes", "edges"}
    if extra:
        raise ValidationError(f"unknown top-level keys: {sorted(extra)}")
    if "nodes" not in raw:
        raise ValidationError("missing 'nodes'")
    nodes = []
    for rec in _records(raw, "nodes"):
        if not isinstance(rec, Mapping) or set(rec) != {"id", "mass"}:
            raise ValidationError(f"node record must have exactly 'id' and 'mass': {rec!r}")
        if not isinstance(rec["id"], str):
            raise ValidationError(f"node id must be a string: {rec!r}")
        nodes.append((rec["id"], _number(rec, "mass", "mass")))
    edges = []
    for rec in _records(raw, "edges"):
        if not isinstance(rec, Mapping) or set(rec) != {"u", "v", "w"}:
            raise ValidationError(f"edge record must have exactly 'u', 'v' and 'w': {rec!r}")
        if not isinstance(rec["u"], str) or not isinstance(rec["v"], str):
            raise ValidationError(f"edge endpoints must be strings: {rec!r}")
        edges.append((rec["u"], rec["v"], _number(rec, "w", "weight")))
    return validate_network(nodes, edges, allow_disconnected=allow_disconnected)


def _records(raw: Mapping, key: str) -> list:
    recs = raw.get(key, [])
    if not isinstance(recs, list):
        raise ValidationError(f"'{key}' must be a list, got {type(recs).__name__}")
    return recs


def _number(rec: Mapping, key: str, name: str) -> float:
    value = rec[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a number: {rec!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValidationError(f"{name} out of range: {rec!r}") from None


def network_to_dict(net: Network) -> dict:
    return {
        "nodes": [{"id": i, "mass": m} for i, m in zip(net.ids, net.masses)],
        "edges": [{"u": u, "v": v, "w": w} for u, v, w in net.edges],
    }
