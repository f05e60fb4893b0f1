"""Bipolar distributions and grid verification of their maximality.

For alpha = 1 the symmetric bipolar distribution (total mass split equally
across one diameter pair) maximizes polarization over all distributions on
a fixed graph.  This module builds that distribution, implements the
constructive merge step used to prove it, certifies maximality over
exhaustive simplex grids, and constructs on the three-node family
g_xy = g_xz = b, g_yz = b + eps distributions beating the bipolar one
for every alpha outside [ALPHA_STAR, 2], ALPHA_STAR = ln 3 / ln 1.5 - 2.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import DomainError
from .graph import DistanceMatrix, Network, _checked_nodes, _network, geodesic_distances
from .measures import _distances, bipolar_value, check_params, p_alpha, polarization

PAIR_TOLERANCE = 1e-12
MAX_GRID_NODES = 6
MAX_GRID_POINTS = 5_000_000
GRID_BLOCK_ROWS = 65_536


@dataclass(frozen=True)
class ExtremalReport:
    node_count: int
    alpha: float
    grid_step: float
    bipolar_value: float
    best_value: float
    best_distribution: tuple[float, ...]
    is_bipolar_max: bool
    witness: tuple[float, ...] | None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def bipolar_distribution(net: Network, dist: DistanceMatrix | None = None) -> Network:
    """Same graph with total mass split equally across the diameter pair."""
    if net.n < 2:
        raise DomainError("bipolar distribution needs at least two nodes")
    total = net.total_mass
    if total <= 0:
        raise DomainError("bipolar distribution needs positive total mass")
    u, v = _distances(net, dist).diameter_pair
    masses = tuple(
        total / 2.0 if i in (u, v) else 0.0 for i in net.ids
    )
    return replace(net, masses=masses)


def merge_reduction(net: Network) -> Network:
    """One step of the maximality proof's constructive reduction.

    Replaces the graph with the complete graph at uniform edge weight equal
    to the diameter and merges the two smallest positive masses onto one
    node.  Requires at least four positive mass points; polarization at
    alpha = 1 strictly increases.
    """
    masses = list(net.masses)
    positive = [i for i, m in enumerate(masses) if m > 0]
    if len(positive) < 4:
        raise DomainError("merge step needs >= 4 positive mass points")
    dist = geodesic_distances(net)
    # two smallest positive masses, ties broken by node order
    smallest, second = sorted(positive, key=lambda i: (masses[i], i))[:2]
    masses[second] += masses[smallest]
    masses[smallest] = 0.0
    return _network(*_checked_nodes(zip(net.ids, masses)), *np.triu_indices(net.n, k=1),
                    dist.diameter)


def simplex_grid(n: int, units: int) -> np.ndarray:
    """All compositions of ``units`` into ``n`` parts, scaled to sum to 1.

    Rows come in lexicographic order, the order of
    ``itertools.combinations(range(units + n - 1), n - 1)`` read as
    divider positions; verify_bipolar_max breaks ties by this order.
    """
    parts = np.zeros((1, 0), dtype=np.int32)
    rest = np.array([units], dtype=np.int32)
    for _ in range(n - 1):
        # each row with r units left becomes r + 1 rows, its next part 0..r
        counts = rest + 1
        starts = np.cumsum(counts) - counts
        part = (np.arange(counts.sum(), dtype=np.int32)
                - np.repeat(starts, counts).astype(np.int32))
        parts = np.column_stack([np.repeat(parts, counts, axis=0), part])
        rest = np.repeat(rest, counts) - part
    grid = np.empty((len(rest), n))
    grid[:, :-1] = parts
    grid[:, -1] = rest
    grid /= units
    return grid


def _evaluate_grid(grid: np.ndarray, d: np.ndarray, alpha: float) -> tuple[np.ndarray, float]:
    """P_alpha (K = 1) of every grid row on ``d``, and the bipolar value at unit mass.

    Rows that split the mass half-half across a diameter pair count as bipolar
    and read -inf.  Rows are evaluated in blocks of at least GRID_BLOCK_ROWS,
    which bounds the temporaries and gives the same bits as one call.
    """
    diameter = float(d.max())
    blocks = np.array_split(grid, max(1, len(grid) // GRID_BLOCK_ROWS))
    values = np.concatenate([p_alpha(block, d, alpha, 1.0) for block in blocks])
    for i, j in itertools.combinations(range(grid.shape[1]), 2):
        if abs(d[i, j] - diameter) <= PAIR_TOLERANCE * max(diameter, 1.0):
            values[(grid[:, i] == 0.5) & (grid[:, j] == 0.5)] = -np.inf
    return values, bipolar_value(diameter, 1.0, alpha, 1.0)


def verify_bipolar_max(
    net: Network,
    alpha: float = 1.0,
    grid_step: float = 1.0 / 6.0,
) -> ExtremalReport:
    """Exhaustively compare the bipolar distribution against a simplex grid.

    Total mass is normalized to 1 internally (order-safe by homotheticity).
    Distributions equal to a half-half split on any diameter pair count as
    bipolar and are excluded from the comparison; the report flags whether
    the bipolar value strictly dominates everything else on the grid.
    """
    if net.n > MAX_GRID_NODES:
        raise DomainError(f"{net.n} nodes exceed the exhaustive-mode limit {MAX_GRID_NODES}")
    if net.n < 2:
        raise DomainError("need at least two nodes")
    check_params(alpha=alpha)
    # a step outside (0, 1], nan, or one whose inverse overflows has no units
    inverse = 1.0 / grid_step if 0 < grid_step <= 1 else 0.0
    units = round(inverse) if inverse < np.inf else 0
    if units < 1 or abs(units * grid_step - 1.0) > 1e-9:
        raise DomainError(f"grid step {grid_step} must evenly divide 1")
    if math.comb(units + net.n - 1, net.n - 1) > MAX_GRID_POINTS:
        raise DomainError(f"grid step {grid_step} creates too many points")

    grid = simplex_grid(net.n, units)
    values, bipolar = _evaluate_grid(grid, geodesic_distances(net).d, alpha)
    best = int(np.argmax(values))
    best_value = float(values[best])
    is_max = best_value < bipolar
    witness = None if is_max else tuple(grid[best])
    return ExtremalReport(
        node_count=net.n,
        alpha=alpha,
        grid_step=grid_step,
        bipolar_value=bipolar,
        best_value=best_value,
        best_distribution=tuple(grid[best]),
        is_bipolar_max=is_max,
        witness=witness,
    )


# where the thirds stop beating the bipolar split: 3 (2/3)^(2 + alpha) = 1
ALPHA_STAR = math.log(3.0) / math.log(1.5) - 2.0
# P_alpha and the bipolar value both scale linearly with the distances, so
# fixing b loses nothing: eps is measured in units of b.
BASE_DISTANCE = 1.0


def counterexample_search(alpha: float) -> dict | None:
    """Construct a distribution on g_xy = g_xz = b, g_yz = b + eps beating the
    symmetric bipolar one.  Below ALPHA_STAR the thirds win for eps under
    3b(r - 1)/(3 - r), r = 3 (2/3)^(2 + alpha), and eps is half that bound.
    Above 2, x(1 - x)(x^alpha + (1 - x)^alpha) has a local minimum at 1/2, so
    the best masses (0, x, 1 - x) of a fixed scan win at any eps; eps = b.
    ``None`` on [ALPHA_STAR, 2], where no witness exists, and wherever the
    float value does not exceed the bipolar value.
    """
    check_params(alpha=alpha)
    if alpha == 1.0:
        raise DomainError("the bipolar distribution is maximal at alpha = 1")
    b = BASE_DISTANCE
    if alpha < ALPHA_STAR:
        r = 3.0 * (2.0 / 3.0) ** (2.0 + alpha)
        eps = 1.5 * b * (r - 1.0) / (3.0 - r)
        masses = np.full(3, 1.0 / 3.0)
    elif alpha > 2.0:
        # the best 1/2 - x shrinks as sqrt(3 (alpha - 2) / 16) toward alpha = 2
        xs = 0.5 - 0.5 * np.geomspace(1e-6, 1.0, 400)[:-1]
        x = xs[np.argmax(xs * (1.0 - xs) * (xs ** alpha + (1.0 - xs) ** alpha))]
        eps, masses = b, np.array([0.0, x, 1.0 - x])
    else:
        return None
    d = np.array([[0.0, b, b], [b, 0.0, b + eps], [b, b + eps, 0.0]])
    value = float(p_alpha(masses, d, alpha, 1.0))
    bipolar = bipolar_value(b + eps, 1.0, alpha, 1.0)
    if not value > bipolar:
        return None
    return {"eps": eps, "base_distance": b, "alpha": alpha,
            "masses": [float(m) for m in masses], "value": value, "bipolar_value": bipolar}


def diameter_dominance_check(g1: Network, g2: Network) -> bool:
    """Larger diameter implies larger bipolar polarization at equal mass.

    Vacuously true when the diameters are equal.
    """
    if abs(g1.total_mass - g2.total_mass) > 1e-12 * max(g1.total_mass, g2.total_mass, 1.0):
        raise DomainError("networks must carry equal total mass")
    d1 = geodesic_distances(g1)
    d2 = geodesic_distances(g2)
    if d1.diameter == d2.diameter:
        return True
    p1 = polarization(bipolar_distribution(g1, d1), dist=d1).value
    p2 = polarization(bipolar_distribution(g2, d2), dist=d2).value
    if d1.diameter > d2.diameter:
        return p1 > p2
    return p2 > p1
