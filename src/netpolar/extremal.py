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
from .graph import Network, _checked_nodes, _network, geodesic_distances
from .measures import _finite, bipolar_value, check_params, p_alpha, polarization

PAIR_TOLERANCE = 1e-12
MAX_GRID_NODES = 6
MAX_GRID_POINTS = 5_000_000
# the grid is made and evaluated in runs of at most GRID_BLOCK_ROWS rows, so
# verify_bipolar_max's memory does not grow with the grid; MAX_GRID_POINTS
# bounds its time
GRID_BLOCK_ROWS = 8_192


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


def bipolar_distribution(net: Network) -> Network:
    """Same graph with total mass split equally across the diameter pair."""
    if net.n < 2:
        raise DomainError("bipolar distribution needs at least two nodes")
    total = net.total_mass
    if total <= 0:
        raise DomainError("bipolar distribution needs positive total mass")
    # a total beyond the float range may have a half within it
    half = _finite(lambda: total / 2.0 if total < math.inf else sum(m / 2.0 for m in net.masses),
                   "half the total mass evaluates to {}: it overflows the float range")
    u, v = geodesic_distances(net).diameter_pair
    return replace(net, masses=tuple(half if i in (u, v) else 0.0 for i in net.ids))


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


def _row_counts(rest: np.ndarray, parts: int) -> np.ndarray:
    """C(rest + parts - 1, parts - 1): the compositions of each ``rest`` into ``parts`` parts."""
    counts = np.ones(len(rest), dtype=np.int64)
    for i in range(1, parts):
        counts = counts * (rest + i) // i
    return counts


def _complete(cols: list[np.ndarray], rest: np.ndarray, parts: int) -> list[np.ndarray]:
    """The prefix rows given column by column in ``cols``, each followed by
    every composition of its ``rest`` into ``parts`` parts, column by column.
    """
    for _ in range(parts - 1):
        # each row with r units left becomes r + 1 rows, its next part 0..r
        counts = rest + 1
        starts = (np.cumsum(counts) - counts).astype(np.int32)
        part = np.arange(counts.sum(), dtype=np.int32) - np.repeat(starts, counts)
        cols = [np.repeat(col, counts) for col in cols] + [part]
        rest = np.repeat(rest, counts) - part
    return cols + [rest]


def _runs(cols: list[np.ndarray], rest: np.ndarray, parts: int):
    """Each prefix row (``cols``, one array per part) completed by every
    composition of its ``rest`` into ``parts`` parts, in lexicographic order,
    one run of consecutive prefixes of at most GRID_BLOCK_ROWS rows at a time.
    A prefix whose completions alone exceed the budget is split on its next
    part, GRID_BLOCK_ROWS values at a time, so no array grows with the grid.
    """
    counts = _row_counts(rest, parts)
    ends = np.cumsum(counts)
    i = 0
    while i < len(rest):
        j = int(np.searchsorted(ends, ends[i] - counts[i] + GRID_BLOCK_ROWS, side="right"))
        if j > i:
            yield _complete([col[i:j] for col in cols], rest[i:j], parts)
        else:
            for start in range(0, rest[i] + 1, GRID_BLOCK_ROWS):
                part = np.arange(start, min(start + GRID_BLOCK_ROWS, rest[i] + 1), dtype=np.int32)
                yield from _runs([np.repeat(col[i], len(part)) for col in cols] + [part],
                                 rest[i] - part, parts - 1)
            j = i + 1
        i = j


def _grid_blocks(n: int, units: int):
    """The compositions of ``units`` into ``n`` parts, scaled to sum to 1, in blocks.

    Rows come in lexicographic order, the order of
    ``itertools.combinations(range(units + n - 1), n - 1)`` read as divider
    positions; verify_bipolar_max breaks ties by this order.  Each run of
    :func:`_runs` is one block, so memory does not grow with the grid.
    """
    for run in _runs([], np.array([units], dtype=np.int32), n):
        yield np.column_stack(run) / units


def simplex_grid(n: int, units: int) -> np.ndarray:
    """All compositions of ``units`` into ``n`` parts, scaled to sum to 1, in
    one array: the blocks of :func:`_grid_blocks` joined, in the same order.
    """
    return np.concatenate(list(_grid_blocks(n, units)))


def _diameter_pairs(d: np.ndarray) -> list[tuple[int, int]]:
    """The node pairs ``i < j`` whose distance is the diameter, within PAIR_TOLERANCE."""
    diameter = float(d.max())
    return [(i, j) for i, j in itertools.combinations(range(len(d)), 2)
            if abs(d[i, j] - diameter) <= PAIR_TOLERANCE * max(diameter, 1.0)]


def _evaluate_block(block: np.ndarray, d: np.ndarray, alpha: float,
                    pairs: list[tuple[int, int]]) -> np.ndarray:
    """P_alpha (K = 1) of every row of ``block`` on ``d``.

    Rows that split the mass half-half across one of the diameter ``pairs``
    count as bipolar and read -inf.
    """
    values = p_alpha(block, d, alpha, 1.0)
    for i, j in pairs:
        values[(block[:, i] == 0.5) & (block[:, j] == 0.5)] = -np.inf
    return values


def verify_bipolar_max(
    net: Network,
    alpha: float = 1.0,
    grid_step: float = 1.0 / 6.0,
) -> ExtremalReport:
    """Exhaustively compare the bipolar distribution against a simplex grid.

    Total mass is normalized to 1 internally (order-safe by homotheticity).
    Distributions equal to a half-half split on any diameter pair count as
    bipolar and are excluded from the comparison; the report flags whether
    the bipolar value strictly dominates everything else on the grid.  The
    grid is evaluated block by block and only the first best row is kept.
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

    d = geodesic_distances(net).d
    pairs = _diameter_pairs(d)
    bipolar = bipolar_value(float(d.max()), 1.0, alpha, 1.0)
    # a point mass reads 0, so some row beats -inf
    best_value, best = -np.inf, None
    for block in _grid_blocks(net.n, units):
        values = _evaluate_block(block, d, alpha, pairs)
        i = int(np.argmax(values))
        # strict: a tie keeps the earlier row
        if values[i] > best_value:
            best_value, best = float(values[i]), tuple(block[i].tolist())
    is_max = best_value < bipolar
    return ExtremalReport(
        node_count=net.n,
        alpha=alpha,
        grid_step=grid_step,
        bipolar_value=bipolar,
        best_value=best_value,
        best_distribution=best,
        is_bipolar_max=is_max,
        witness=None if is_max else best,
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
    Above 2, x(1 - x)(x^alpha + (1 - x)^alpha) has a local minimum at 1/2, so masses
    (0, x, 1 - x) at the root of its derivative on (0, 1/2) win at any eps; eps = b.
    ``None`` on [ALPHA_STAR, 2], where no witness exists, and wherever the float value
    does not exceed the bipolar value or rounding leaves eps <= 0 (just below
    ALPHA_STAR, where the family degenerates to b + eps <= b).
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
        from scipy.optimize import brentq  # slow to load; see alpha_bounds

        def slope(x):  # the derivative over (1 - x)^alpha (1 - 2x) > 0, in r = x / (1 - x)
            r = x / (1.0 - x)
            # 1 at x = 0 and, as its limit, 2 - alpha (alpha - 1) < 0 at x = 1/2
            quotient = (1.0 - r ** (alpha - 1.0)) / (1.0 - r) if r < 1.0 else alpha - 1.0
            return 1.0 + r ** alpha - alpha * r * quotient
        # the root's 1/2 - x shrinks as sqrt(3 (alpha - 2) / 16) toward alpha = 2
        x = brentq(slope, 0.0, 0.5, xtol=1e-300, rtol=1e-15)
        eps, masses = b, np.array([0.0, x, 1.0 - x])
    else:
        return None
    d = np.array([[0.0, b, b], [b, 0.0, b + eps], [b, b + eps, 0.0]])
    value = float(p_alpha(masses, d, alpha, 1.0))
    bipolar = bipolar_value(b + eps, 1.0, alpha, 1.0)
    if not (value > bipolar and eps > 0):
        return None
    return {"eps": eps, "base_distance": b, "alpha": alpha,
            "masses": [float(m) for m in masses], "value": value, "bipolar_value": bipolar}


def diameter_dominance_check(g1: Network, g2: Network) -> bool:
    """Larger diameter implies larger bipolar polarization at equal mass.

    Vacuously true when the diameters are equal.
    """
    if abs(g1.total_mass - g2.total_mass) > 1e-12 * max(g1.total_mass, g2.total_mass, 1.0):
        raise DomainError("networks must carry equal total mass")
    d1, d2 = geodesic_distances(g1).diameter, geodesic_distances(g2).diameter
    if d1 == d2:
        return True
    p1 = polarization(bipolar_distribution(g1)).value
    p2 = polarization(bipolar_distribution(g2)).value
    return p1 > p2 if d1 > d2 else p2 > p1
