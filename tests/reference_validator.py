"""The record-at-a-time network validator, kept as a reference.

``netpolar.graph`` checks edges and records by columns.  These functions are
the earlier implementation, one record at a time; the equivalence tests
require the same network, or the same error class and message, from both.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from netpolar.errors import DisconnectedError, ValidationError
from netpolar.graph import Network


def validate_network(
    nodes: Sequence[tuple[str, float]],
    edges: Iterable[tuple[str, str, float]] = (),
    allow_disconnected: bool = False,
) -> Network:
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
    clean = []
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
    if not allow_disconnected and _components(net) > 1:
        raise DisconnectedError("graph is not connected")
    return net


def _components(net: Network) -> int:
    idx = {v: i for i, v in enumerate(net.ids)}
    u = np.array([idx[a] for a, _, _ in net.edges], dtype=np.intp)
    v = np.array([idx[b] for _, b, _ in net.edges], dtype=np.intp)
    w = np.array([x for _, _, x in net.edges], dtype=float)
    ends = (np.concatenate((u, v)), np.concatenate((v, u)))
    g = csr_matrix((np.concatenate((w, w)), ends), shape=(net.n, net.n))
    return connected_components(g, directed=False, return_labels=False)


def network_from_dict(raw: Mapping, allow_disconnected: bool = False) -> Network:
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
