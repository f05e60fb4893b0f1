"""The polarization measure family P_alpha on weighted networks.

P_alpha(g, pi) = K * sum_i sum_j pi_i^(1+alpha) pi_j d_g(i, j)

with K > 0 and alpha > 0.  alpha = 1 gives the axiomatically singled-out
member; normalization against the symmetric bipolar maximum is offered for
alpha = 1 only, since bipolar maximality is not guaranteed otherwise.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .graph import DistanceMatrix, Network, geodesic_distances

_P_ALPHA_OVERFLOW = "P_alpha evaluates to {}: the sum overflows the float range"


@dataclass(frozen=True)
class MeasureParams:
    """Finite constant K > 0 and identification exponent alpha > 0."""

    K: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        check_params(self.K, self.alpha)


def check_params(K: float = 1.0, alpha: float = 1.0) -> None:
    """The domain of :class:`MeasureParams`, for K and alpha given as plain floats."""
    if not 0 < K < np.inf:
        raise DomainError(f"K must be positive and finite, got {K}")
    if not 0 < alpha < np.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha}")


@dataclass(frozen=True)
class MeasureResult:
    value: float
    params: MeasureParams
    n_nonzero: int
    normalized: float | None = None

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "normalized": self.normalized,
            "K": self.params.K,
            "alpha": self.params.alpha,
        }


def p_alpha(masses: np.ndarray, d: np.ndarray, alpha: float, K: float) -> np.ndarray:
    """P_alpha of an (n,) mass vector ``m``, or of each row of an (N, n) batch, on ``d``.

    K * sum_i m_i^(1+alpha) sum_j d_ij m_j in O(N n) memory.  A one-row batch is taken
    as two copies of its row, off BLAS's vector path, so a row's bits do not depend on its batch.
    """
    if masses.ndim == 2 and len(masses) == 1:
        return p_alpha(np.repeat(masses, 2, axis=0), d, alpha, K)[:1]
    return K * ((masses ** (1.0 + alpha)) @ d * masses).sum(axis=-1)


def _finite(evaluate: Callable[[], float], message: str) -> float:
    """``evaluate()`` as a float; beyond the float range, DomainError(message.format(value))."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            value = float(evaluate())
    except OverflowError:  # float ** raises where * gives inf
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(message.format(value))
    return value


def bipolar_value(diameter: float, total_mass: float, alpha: float, K: float) -> float:
    """P_alpha of the bipolar split, K * diameter * 2 * (M/2)^(2+alpha), M the total mass.

    Where the power alone overflows, it is split into a factor in [1, 2) and a power
    of two, applied last.  A value beyond the float range is a :class:`DomainError`.
    """
    def evaluate():
        try:
            return K * diameter * 2.0 * (total_mass / 2.0) ** (2.0 + alpha)
        except OverflowError:
            # (M/2)^p = 2^(x + p log2 m), M = m 2^e, m in [1/2, 1), x = p (e - 1) exact
            m, e = math.frexp(total_mass)
            num, den = (2.0 + alpha).as_integer_ratio()
            whole, rest = divmod(num * (e - 1), den)
            y = rest / den + (2.0 + alpha) * math.log2(m)
            return math.ldexp(K * diameter * 2.0 * 2.0 ** (y % 1.0), whole + math.floor(y))
    return _finite(evaluate, "the bipolar value evaluates to {}: it overflows the float range")


def _distances(net: Network, dist: DistanceMatrix | None) -> DistanceMatrix:
    """``dist`` if it was computed on ``net``'s graph, that graph's distances if it is absent."""
    if dist is None:
        return geodesic_distances(net)
    if dist._csgraph is not net._csgraph:
        raise DomainError("distance matrix does not match the network")
    return dist


def polarization(
    net: Network,
    params: MeasureParams | None = None,
    dist: DistanceMatrix | None = None,
) -> MeasureResult:
    """Evaluate P_alpha by the exact double sum over ordered node pairs.

    ``dist`` may carry precomputed distances for ``net``; it is recomputed
    when absent and rejected when it was computed on another graph.  A
    sum that overflows the float range is a :class:`DomainError`, not a
    silent ``inf`` or ``nan``.
    """
    params = params or MeasureParams()
    dist = _distances(net, dist)
    m = net.mass_vector()
    value = _finite(lambda: p_alpha(m, dist.d, params.alpha, params.K), _P_ALPHA_OVERFLOW)
    return MeasureResult(value, params, int(np.count_nonzero(m > 0)))


def bipolar_maximum_value(net: Network, params: MeasureParams | None = None,
                          dist: DistanceMatrix | None = None) -> float:
    """P_alpha of the symmetric bipolar distribution on the same graph.

    See :func:`bipolar_value`; ``dist`` is taken as in :func:`polarization`.
    """
    params = params or MeasureParams()
    dist = _distances(net, dist)
    return bipolar_value(dist.diameter, net.total_mass, params.alpha, params.K)


def normalized_polarization(
    net: Network,
    params: MeasureParams | None = None,
    dist: DistanceMatrix | None = None,
) -> MeasureResult:
    """P_1 divided by its bipolar maximum; defined for alpha = 1 only.

    The ratio lies in [0, 1] and equals 1 exactly when the mass is split
    half-half across a diameter pair.  Both measures are homothetic of the
    same degree, so the ratio is taken on the masses scaled by the power of
    two that puts their total in [1/2, 1), where neither measure under- or
    overflows as it can at the raw scale.  ``value`` is P_1 at the raw scale.
    """
    params = params or MeasureParams()
    if params.alpha != 1.0:
        raise DomainError("normalization is only meaningful at alpha = 1")
    if net.total_mass <= 0:
        raise DomainError("normalization needs positive total mass")
    dist = _distances(net, dist)
    res = polarization(net, params, dist)
    exponent = math.frexp(net.total_mass)[1]
    scaled_masses = np.ldexp(net.mass_vector(), -exponent)
    scaled = _finite(lambda: p_alpha(scaled_masses, dist.d, 1.0, params.K), _P_ALPHA_OVERFLOW)
    denom = bipolar_value(dist.diameter, math.ldexp(net.total_mass, -exponent), 1.0, params.K)
    # degenerate graph with zero diameter: every admissible value is 0
    normalized = scaled / denom if denom > 0 else 0.0
    return MeasureResult(res.value, params, res.n_nonzero, normalized=normalized)


# -- independent testing oracle ----------------------------------------------

def _dijkstra(adjacency: dict[int, list[tuple[int, float]]], source: int, n: int) -> list[float]:
    dist = [float("inf")] * n
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        for v, w in adjacency[u]:
            alt = du + w
            if alt < dist[v]:
                dist[v] = alt
                heapq.heappush(heap, (alt, v))
    return dist


def oracle_distances(net: Network) -> list[list[float]]:
    """Geodesic distances from a plain heap-based Dijkstra per source.

    Unreached pairs get the largest finite distance, as under the
    longest-path convention.  Independent of scipy; intended for tests.
    """
    n = net.n
    idx = {v: i for i, v in enumerate(net.ids)}
    adjacency: dict[int, list[tuple[int, float]]] = {i: [] for i in range(n)}
    for u, v, w in net.edges:
        adjacency[idx[u]].append((idx[v], w))
        adjacency[idx[v]].append((idx[u], w))
    rows = [_dijkstra(adjacency, s, n) for s in range(n)]
    if any(x == float("inf") for row in rows for x in row):
        longest = max(x for row in rows for x in row if x != float("inf"))
        rows = [[longest if x == float("inf") else x for x in row] for row in rows]
    return rows


def polarization_naive_oracle(net: Network, params: MeasureParams | None = None) -> float:
    """Same quantity as :func:`polarization`, computed independently.

    Shortest paths come from :func:`oracle_distances` and the sum is an
    explicit double loop.  Kept deliberately separate from the optimized
    path; intended for tests.
    """
    params = params or MeasureParams()
    n = net.n
    rows = oracle_distances(net)
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += net.masses[i] ** (1.0 + params.alpha) * net.masses[j] * rows[i][j]
    return params.K * total
