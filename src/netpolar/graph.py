"""Node- and edge-weighted undirected networks and geodesic distances.

A network couples a connected weighted graph with a non-negative mass on
every node.  Edge weights are direct distances (a larger weight means a
weaker connection); weight 0 is a legal edge meaning distance 0 and is
distinct from the absence of an edge.  Distances and connectivity come from
``scipy.sparse.csgraph``, which picks Floyd-Warshall or Dijkstra by density,
on a sparse matrix built from coordinate triples: that keeps weight-0 edges,
which csgraph drops from a dense matrix.  scipy.sparse is loaded on first
use, when the first network is made.

One constructor, ``_network``, turns edges given as index columns into a
network: the builders pass their index arrays, the other callers look each
endpoint up once (-1 for an unknown node).  The edges are checked as array
operations, reporting the first offending record with the message a
record-at-a-time check would give, and the sparse matrix is built once: the
connectivity check and every distance computation share it, and an edit of
the masses alone keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import DisconnectedError, DomainError, ValidationError

# scipy.sparse is imported where a graph is made or searched: it is slow to
# load, and the commands that build no network never need it
if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

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
    # the graph as a symmetric sparse matrix, made by ``_network``
    _csgraph: csr_matrix = field(kw_only=True, compare=False, repr=False)

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
    _csgraph: csr_matrix = field(compare=False, repr=False)  # the source network's graph


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
    ids, masses = _checked_nodes(nodes)
    us, vs, ws, failure = _edge_columns(edges)
    if failure is not None:
        _from_names(ids, masses, us, vs, ws, True)  # a fault before it comes first
        raise failure
    return _from_names(ids, masses, us, vs, ws, allow_disconnected)


def _checked_nodes(nodes: Iterable) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """Node ids and masses, coerced to ``str`` and ``float`` and checked."""
    nodes = list(nodes)
    if not nodes:
        raise ValidationError("network needs at least one node")
    ids = tuple(str(i) for i, _ in nodes)
    if len(set(ids)) != len(ids):
        raise ValidationError("node ids must be unique")
    masses = tuple(float(m) for _, m in nodes)
    m = np.array(masses)
    bad = (m < 0) | ~np.isfinite(m)
    if bad.any():
        k = int(bad.argmax())
        raise ValidationError(f"node {ids[k]!r} has invalid mass {masses[k]}")
    return ids, masses


def _edge_columns(edges: Iterable) -> tuple[list[str], list[str], list[float], Exception | None]:
    """Edge records as ``str``, ``str`` and ``float`` columns.

    If a record cannot be unpacked or converted, the columns end before it
    and its exception comes last, to be raised unless an earlier record is
    invalid.
    """
    us, vs, ws = [], [], []
    for rec in edges:
        try:
            u, v, w = rec
            u, v, w = str(u), str(v), float(w)
        except (TypeError, ValueError, OverflowError) as exc:  # raised if earlier records pass
            return us, vs, ws, exc
        us.append(u)
        vs.append(v)
        ws.append(w)
    return us, vs, ws, None


def _from_names(ids: tuple[str, ...], masses: tuple[float, ...], us: list[str],
                vs: list[str], ws: list[float], allow_disconnected: bool,
                message: str = "graph is not connected") -> Network:
    """``_network`` on string endpoints, looked up in ``ids``."""
    index = {v: i for i, v in enumerate(ids)}
    iu = np.fromiter(map(index.get, us, repeat(-1)), np.intp, len(us))
    iv = np.fromiter(map(index.get, vs, repeat(-1)), np.intp, len(vs))
    return _network(ids, masses, iu, iv, np.array(ws, dtype=float), allow_disconnected,
                    message, (us, vs, ws))


def _network(ids: tuple[str, ...], masses: tuple[float, ...], iu: np.ndarray, iv: np.ndarray,
             w, allow_disconnected: bool = False, message: str = "graph is not connected",
             columns: tuple[list[str], list[str], list[float]] | None = None) -> Network:
    """The network on checked nodes with edges ``(ids[iu[k]], ids[iv[k]], w[k])``.

    ``w`` is an array or one weight for all.  ``columns`` holds the edges as
    given, endpoint strings and weights, for ``edges`` and the messages; an
    index may then be -1 for an unknown node.  The first faulty
    edge is reported, the faults ranked: unknown node, self-loop, weight,
    duplicate.  A disconnected graph raises ``message`` unless allowed.
    """
    n = len(ids)
    w = np.broadcast_to(np.asarray(w, dtype=float), np.shape(iu))
    if columns is None:
        labels = np.array(ids, dtype=object)
        columns = labels[iu].tolist(), labels[iv].tolist(), w.tolist()
    us, vs, ws = columns
    lo, hi = np.minimum(iu, iv), np.maximum(iu, iv)
    unknown = lo < 0
    loop = iu == iv
    weight = (w < 0) | ~np.isfinite(w)
    duplicate = np.ones(len(w), dtype=bool)
    duplicate[np.unique(lo * n + hi, return_index=True)[1]] = False
    fault = unknown | loop | weight | duplicate
    if fault.any():
        k = int(fault.argmax())
        u, v = us[k], vs[k]
        if unknown[k]:
            raise ValidationError(f"edge ({u!r}, {v!r}) references unknown node")
        if loop[k]:
            raise ValidationError(f"self-loop at {u!r}")
        if weight[k]:
            raise ValidationError(f"edge ({u!r}, {v!r}) has invalid weight {ws[k]}")
        raise ValidationError(f"duplicate edge ({u!r}, {v!r})")
    from scipy.sparse.csgraph import connected_components
    g = _symmetric_csr(iu, iv, w, n)
    if not allow_disconnected and connected_components(g, directed=False, return_labels=False) > 1:
        raise DisconnectedError(message)
    return Network(ids, masses, tuple(zip(us, vs, ws)), allow_disconnected, _csgraph=g)


def _symmetric_csr(u: np.ndarray, v: np.ndarray, w: np.ndarray, n: int) -> csr_matrix:
    """Edge weights in both directions; validation rules out duplicate edges."""
    from scipy.sparse import csr_matrix
    ends = (np.concatenate((u, v)), np.concatenate((v, u)))
    return csr_matrix((np.concatenate((w, w)), ends), shape=(n, n))


def geodesic_distances(net: Network) -> DistanceMatrix:
    """All-pairs shortest-path distances, diameter and one attaining pair.

    The diameter pair is the first maximizing pair in node order, which
    makes the tie-break deterministic.  Under the longest-path convention,
    distances between components are replaced by the largest finite
    geodesic distance in the whole graph.  A path sum beyond the float
    range is a :class:`DomainError`, never a disconnection.
    """
    from scipy.sparse.csgraph import connected_components, shortest_path
    g = net._csgraph
    # g holds each edge in both directions, so the directed search gives the
    # undirected distances without scipy's second scan of the transpose
    d = shortest_path(g, directed=True)
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
        return DistanceMatrix(net.ids, d, 0.0, None, g)
    # d is symmetric with a zero diagonal, so the first maximum in row-major
    # order is the first i < j pair, unless every distance is 0
    i, j = divmod(int(np.argmax(d)), net.n)
    if i == j:
        i, j = 0, 1
    return DistanceMatrix(net.ids, d, float(d[i, j]), (net.ids[i], net.ids[j]), g)


def average_path_length(net: Network) -> float:
    """Mean geodesic distance over ordered node pairs, sum d(i,j) / (n(n-1))."""
    if net.n < 2:
        raise DomainError("average path length needs at least two nodes")
    d, pairs = geodesic_distances(net).d, net.n * (net.n - 1)
    with np.errstate(over="ignore"):  # a sum beyond the float range is taken of the shares
        total = d.sum()
    return float(total / pairs if total < np.inf else (d / pairs).sum())


def delete_edge(net: Network, u: str, v: str) -> Network:
    """Remove edge uv; refuse if it does not exist or would disconnect."""
    pair = frozenset((u, v))
    kept = [e for e in net.edges if frozenset(e[:2]) != pair]
    if len(kept) == len(net.edges):
        raise ValidationError(f"no edge ({u!r}, {v!r})")
    return _from_names(net.ids, net.masses, *_edge_columns(kept)[:3], net.longest_path_convention,
                       f"deleting edge ({u!r}, {v!r}) disconnects the graph")


def delete_node(net: Network, u: str) -> Network:
    """Remove node u with its incident edges; refuse if it would disconnect."""
    if u not in net.ids:
        raise ValidationError(f"no node {u!r}")
    ids = tuple(i for i in net.ids if i != u)
    if not ids:
        raise ValidationError("cannot delete the only node")
    masses = tuple(m for i, m in zip(net.ids, net.masses) if i != u)
    kept = [e for e in net.edges if u not in e[:2]]
    return _from_names(ids, masses, *_edge_columns(kept)[:3], net.longest_path_convention,
                       f"deleting node {u!r} disconnects the graph")


def scale_masses(net: Network, lam: float) -> Network:
    """Multiply every node mass by a finite ``lam > 0``; the graph is unchanged."""
    if not 0 < lam < np.inf:
        raise DomainError(f"scale factor must be positive and finite, got {lam}")
    masses = tuple(m * lam for m in net.masses)
    for i, m, scaled in zip(net.ids, net.masses, masses):
        if not np.isfinite(scaled):
            raise DomainError(f"scaling node {i!r}'s mass {m} by {lam} gives {scaled}")
    return replace(net, masses=masses)


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
    ids, masses = _record_columns(raw, "nodes")
    us, vs, ws = _record_columns(raw, "edges")
    return _from_names(*_checked_nodes(zip(ids, masses)), us, vs, ws, allow_disconnected)


# record kind -> (fields, number field's name in messages, shape message, string message);
# the last field is the number
_RECORDS = {
    "nodes": (("id", "mass"), "mass", "node record must have exactly 'id' and 'mass'",
              "node id must be a string"),
    "edges": (("u", "v", "w"), "weight", "edge record must have exactly 'u', 'v' and 'w'",
              "edge endpoints must be strings"),
}


def _record_columns(raw: Mapping, key: str) -> list[list]:
    """The fields of the ``key`` records as columns, the number field as floats."""
    recs = raw.get(key, [])
    if not isinstance(recs, list):
        raise ValidationError(f"'{key}' must be a list, got {type(recs).__name__}")
    fields, name, shape, strings = _RECORDS[key]
    cols = _plain_columns(recs, fields)
    if cols is not None:
        return cols
    # one record at a time: accepts any Mapping and reports the first offender
    cols = [[] for _ in fields]
    for rec in recs:
        if not isinstance(rec, Mapping) or set(rec) != set(fields):
            raise ValidationError(f"{shape}: {rec!r}")
        if not all(isinstance(rec[f], str) for f in fields[:-1]):
            raise ValidationError(f"{strings}: {rec!r}")
        for col, f in zip(cols, fields[:-1]):
            col.append(rec[f])
        cols[-1].append(_number(rec, fields[-1], name))
    return cols


def _plain_columns(recs: list, fields: tuple[str, ...]) -> list[list] | None:
    """Columns of plain dicts with exactly ``fields``, strings then a number.

    The checks run on whole columns; ``None`` if any record fails one.
    """
    if not (set(map(type, recs)) <= {dict} and set(map(len, recs)) <= {len(fields)}):
        return None
    try:
        *texts, numbers = [list(map(itemgetter(f), recs)) for f in fields]
        if (all(set(map(type, col)) <= {str} for col in texts)
                and set(map(type, numbers)) <= {int, float}):
            return [*texts, list(map(float, numbers))]
    except (KeyError, OverflowError):  # a misnamed field, an integer beyond the float range
        pass
    return None


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
