"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np

from netpolar.graph import DistanceMatrix, Network, validate_network


def random_connected_network(
    rng: np.random.Generator,
    n_max: int = 7,
    dyadic: bool = False,
    extra_edge_prob: float = 0.4,
    n_min: int = 2,
) -> Network:
    """A random connected network with occasional zero weights and masses.

    ``dyadic`` restricts weights to multiples of 1/8 so that path sums are
    exact in floating point regardless of summation order.
    """
    n = int(rng.integers(n_min, n_max + 1))
    ids = [f"n{i}" for i in range(n)]

    def weight() -> float:
        if dyadic:
            return float(rng.integers(0, 17)) / 8.0
        if rng.random() < 0.05:
            return 0.0
        return float(rng.uniform(0.0, 2.0))

    edges = {}
    order = rng.permutation(n)
    for a, b in zip(order, order[1:]):
        key = (min(a, b), max(a, b))
        edges[key] = weight()
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in edges and rng.random() < extra_edge_prob:
                edges[(a, b)] = weight()

    masses = [0.0 if rng.random() < 0.1 else float(rng.uniform(0.0, 5.0)) for _ in ids]
    return validate_network(
        list(zip(ids, masses)),
        [(ids[a], ids[b], w) for (a, b), w in edges.items()],
    )


def brute_force_distances(net: Network) -> np.ndarray:
    """Shortest-path matrix by exhaustive simple-path enumeration."""
    n = net.n
    idx = {v: i for i, v in enumerate(net.ids)}
    adj: dict[int, list[tuple[int, float]]] = {i: [] for i in range(n)}
    for u, v, w in net.edges:
        adj[idx[u]].append((idx[v], w))
        adj[idx[v]].append((idx[u], w))
    best = np.full((n, n), np.inf)

    def explore(source: int, u: int, acc: float, visited: frozenset[int]) -> None:
        if acc < best[source, u]:
            best[source, u] = acc
        for v, w in adj[u]:
            if v not in visited:
                explore(source, v, acc + w, visited | {v})

    for s in range(n):
        explore(s, s, 0.0, frozenset({s}))
    return best


def distance(dm: DistanceMatrix, u: str, v: str) -> float:
    """The geodesic distance between the nodes ``u`` and ``v`` in ``dm``."""
    return float(dm.d[dm.ids.index(u), dm.ids.index(v)])
