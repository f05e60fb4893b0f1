"""Construct networks from voting, preference and attribute data.

Each builder returns a validated :class:`~netpolar.graph.Network` whose
total node mass equals the input population.  Supported encodings: discrete
real-line distributions, unit complete graphs over groups, vote hypercubes,
representative / party / co-sponsorship networks from roll-call matrices,
Kemeny preference graphs, and norm-induced complete graphs on attribute
points.

The vote, preference and attribute builders work on arrays, not pair by
pair: disagreement, co-sponsorship and shared party position counts are
matrix products of 0/1 matrices (party seats and majorities come from a
voter-by-party membership matrix), hypercube and Kemeny neighbours come from
integer codes, and lattice weights are norms of a block of coordinate
differences at a time.
Edges keep ``itertools.combinations`` order, and every weight has the bits
a per-pair computation gives: counts are exact in float64, and the
euclidean norm is one dot product per pair, as ``np.linalg.norm`` computes
it.  Each builder hands its index and weight arrays to the network
constructor in :mod:`netpolar.graph`.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .graph import Network, _checked_nodes, _network

MAX_BILLS = 20        # vote hypercube has 2^k nodes
MAX_ALTERNATIVES = 7  # preference graph has m! nodes


@dataclass(frozen=True)
class VoteMatrix:
    """Binary voter-by-bill matrix with an optional party affiliation map."""

    voters: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]  # one row of k bits per voter
    party: dict[str, str] | None = None

    def __post_init__(self):
        if not self.voters:
            raise ValidationError("vote matrix needs at least one voter")
        if len(set(self.voters)) != len(self.voters):
            raise ValidationError("voter ids must be unique")
        k = len(self.entries[0]) if self.entries else 0
        if k < 1:
            raise ValidationError("vote matrix needs at least one bill")
        if len(self.entries) != len(self.voters):
            raise ValidationError(f"{len(self.voters)} voters but {len(self.entries)} vote rows")
        for voter, row in zip(self.voters, self.entries):
            if len(row) != k:
                raise ValidationError(f"voter {voter!r} has {len(row)} entries, expected {k}")
            if any(v not in (0, 1) for v in row):
                raise ValidationError(f"voter {voter!r} has non-binary entries")

    @property
    def k(self) -> int:
        return len(self.entries[0])


@dataclass(frozen=True)
class PreferenceProfile:
    """Counts of full rankings (linear orders) over a set of alternatives."""

    alternatives: tuple[str, ...]
    ballots: tuple[tuple[tuple[str, ...], float], ...]

    def __post_init__(self):
        if len(self.alternatives) < 2:
            raise ValidationError("need at least two alternatives")
        if len(set(self.alternatives)) != len(self.alternatives):
            raise ValidationError("alternatives must be distinct")
        universe = set(self.alternatives)
        for ranking, count in self.ballots:
            if set(ranking) != universe or len(ranking) != len(self.alternatives):
                raise ValidationError(f"ranking {ranking!r} is not a permutation of the alternatives")
            if not count > 0:
                raise ValidationError(f"ballot count must be positive, got {count}")


@dataclass(frozen=True)
class MassPoints:
    """Distinct positions in R^m, each carrying a non-negative mass."""

    points: tuple[tuple[tuple[float, ...], float], ...]

    def __post_init__(self):
        if not self.points:
            raise ValidationError("need at least one mass point")
        positions = [pos for pos, _ in self.points]
        if len(set(positions)) != len(positions):
            raise ValidationError("positions must be pairwise distinct")
        dim = len(positions[0])
        for pos, mass in self.points:
            if len(pos) != dim:
                raise ValidationError("all positions must have the same dimension")
            if not all(np.isfinite(pos)):
                raise ValidationError(f"non-finite coordinates in {pos!r}")
            if mass < 0:
                raise ValidationError(f"negative mass at {pos!r}")

    @property
    def dim(self) -> int:
        return len(self.points[0][0])


def _point_id(pos: tuple[float, ...]) -> str:
    return "(" + ",".join(f"{x:g}" for x in pos) + ")"


def _point_ids(positions: Sequence[tuple[float, ...]]) -> list[str]:
    """The id of each position; two distinct positions with one id are an error."""
    first = {}
    for pos in positions:
        pid = _point_id(pos)
        other = first.setdefault(pid, pos)
        if other != pos:
            raise ValidationError(f"positions {other!r} and {pos!r} share the node id {pid}")
    return list(first)


def build_line(points: MassPoints) -> Network:
    """Chain network of 1-D mass points, consecutive gaps as edge weights.

    Geodesic distances then reproduce |x_i - x_j| exactly, embedding a
    discrete distribution on the real line.
    """
    if points.dim != 1:
        raise DomainError("build_line expects 1-D positions")
    ordered = sorted(points.points, key=lambda p: p[0][0])
    ids = _point_ids([pos for pos, _ in ordered])
    gaps = [abs(pb[0] - pa[0]) for (pa, _), (pb, _) in zip(ordered, ordered[1:])]
    return _network(*_checked_nodes(zip(ids, [mass for _, mass in ordered])),
                    np.arange(len(ids) - 1), np.arange(1, len(ids)), gaps)


def build_complete_uniform(masses: Sequence[float]) -> Network:
    """Unit-weight complete graph: every pair of groups at distance 1."""
    if len(masses) < 2:
        raise DomainError("need at least two groups")
    ids = [f"g{i}" for i in range(len(masses))]
    return _network(*_checked_nodes(zip(ids, masses)), *np.triu_indices(len(ids), k=1), 1.0)


def build_vote_hypercube(votes: VoteMatrix) -> Network:
    """Hypercube of all 2^k vote combinations with Hamming-1 unit edges.

    Every combination appears as a node (bitstring id) even at zero mass;
    empty nodes still shape the lattice distances.  Node mass counts the
    voters with that exact vote vector.
    """
    k = votes.k
    if k > MAX_BILLS:
        raise DomainError(f"{k} bills would create 2^{k} nodes")
    flips = 1 << np.arange(k - 1, -1, -1)  # bill j flips bit k-1-j of the code
    ids = [format(code, f"0{k}b") for code in range(2 ** k)]
    counts = np.bincount(np.array(votes.entries) @ flips, minlength=2 ** k)
    # the neighbours of each code in bill order; each edge once, from its lower end
    code = np.arange(2 ** k)[:, None]
    other = code ^ flips
    up = other > code
    return _network(*_checked_nodes(zip(ids, counts.astype(float).tolist())),
                    np.nonzero(up)[0], other[up], 1.0)


def build_representatives(votes: VoteMatrix) -> Network:
    """Voters as unit-mass nodes, disagreement share as edge weight.

    Two voters are linked iff they agree on at least one bill; the weight
    is the share of bills on which their votes differ.  Voters with
    identical records end up at distance 0.
    """
    k = votes.k
    e = np.array(votes.entries, dtype=float)
    a, b = np.triu_indices(len(e), k=1)  # combinations order
    differing = (e @ (1 - e).T + (1 - e) @ e.T)[a, b]  # exact integer counts
    linked = differing < k  # at least one agreement
    return _network(*_checked_nodes((v, 1.0) for v in votes.voters),
                    a[linked], b[linked], differing[linked] / k)


def _party_majorities(votes: VoteMatrix) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Parties in order of first appearance, their seats, and their per-bill majority signs.

    A sign is +1 where most of the party votes 1, -1 where most votes 0, and
    0 on a tied bill: the sign of ``2 * yes - seats``.
    """
    labels = [votes.party.get(voter) for voter in votes.voters]
    if None in labels:
        raise ValidationError(f"voter {votes.voters[labels.index(None)]!r} has no party")
    column = {party: j for j, party in enumerate(dict.fromkeys(labels))}
    member = np.zeros((len(labels), len(column)))  # voter x party
    member[np.arange(len(labels)), [column[party] for party in labels]] = 1.0
    seats = member.sum(axis=0)
    yes = member.T @ np.array(votes.entries, dtype=float)  # exact integer counts
    return list(column), seats, np.sign(2.0 * yes - seats[:, None])


def party_positions(votes: VoteMatrix) -> dict[str, tuple[int | None, ...]]:
    """Per-bill majority vote of each party; ``None`` marks a tied bill."""
    if votes.party is None:
        raise ValidationError("party map required")
    parties, _, sign = _party_majorities(votes)
    vote = np.array([0, None, 1], dtype=object)[sign.astype(int) + 1]
    return dict(zip(parties, map(tuple, vote.tolist())))


def build_parties(votes: VoteMatrix, tie_rule: str = "strict-majority") -> Network:
    """Parties as nodes (mass = seats) linked by shared majority positions.

    Edge weight is 1 minus the share of bills on which both party
    majorities coincide; parties sharing no majority position on any bill
    are not linked.  ``tie_rule`` decides how a tied bill enters the share:
    ``strict-majority`` keeps it in the denominator (it can never match),
    ``exclude-bill`` drops it from the pair's denominator.
    """
    if tie_rule not in ("strict-majority", "exclude-bill"):
        raise DomainError(f"unknown tie rule {tie_rule!r}")
    if votes.party is None:
        raise ValidationError("party map required to build a party network")
    parties, seats, sign = _party_majorities(votes)
    if len(parties) < 2:
        raise DomainError("need at least two parties")
    yes, no, held = (m.astype(float) for m in (sign > 0, sign < 0, sign != 0))
    a, b = np.triu_indices(len(parties), k=1)  # combinations order
    common = (yes @ yes.T + no @ no.T)[a, b]  # bills on which both majorities coincide
    linked = common >= 1
    a, b, common = a[linked], b[linked], common[linked]
    # exclude-bill counts only the bills on which neither party is tied
    denom = (held @ held.T)[a, b] if tie_rule == "exclude-bill" else votes.k
    return _network(*_checked_nodes(zip(parties, seats.tolist())), a, b, 1.0 - common / denom)


def build_cosponsorship(sponsorships: VoteMatrix) -> Network:
    """Unit-mass voters, unit edge iff two voters co-sponsored some bill."""
    e = np.array(sponsorships.entries, dtype=float)
    a, b = np.triu_indices(len(e), k=1)  # combinations order
    shared = (e @ e.T)[a, b] > 0
    return _network(*_checked_nodes((v, 1.0) for v in sponsorships.voters),
                    a[shared], b[shared], 1.0)


def ranking_id(ranking: Sequence[str]) -> str:
    """Canonical node id of a ranking, e.g. ``abc`` or ``x1>x2>x3``."""
    if all(len(s) == 1 for s in ranking):
        return "".join(ranking)
    return ">".join(ranking)


def kemeny_distance(a: Sequence[str], b: Sequence[str]) -> int:
    """Number of pairwise order disagreements between two rankings."""
    pos = {x: i for i, x in enumerate(b)}
    disagreements = 0
    for x, y in itertools.combinations(a, 2):
        if pos[x] > pos[y]:
            disagreements += 1
    return disagreements


def build_preference_kemeny(profile: PreferenceProfile) -> Network:
    """Graph of all m! rankings, unit edges between adjacent transpositions.

    Geodesic distances equal the Kemeny distance.  Node mass is the ballot
    count of the ranking, zero for rankings nobody holds.
    """
    m = len(profile.alternatives)
    if m > MAX_ALTERNATIVES:
        raise DomainError(f"{m} alternatives would create {m}! nodes")
    counts: dict[tuple[str, ...], float] = {}
    for ranking, count in profile.ballots:
        counts[tuple(ranking)] = counts.get(tuple(ranking), 0.0) + count
    perms = list(itertools.permutations(profile.alternatives))
    ids = [ranking_id(p) for p in perms]
    # the same permutations as places into the alternatives: read as base-m
    # numbers, their keys ascend in the order of ``perms``
    pos = np.array(list(itertools.permutations(range(m))))
    place = m ** np.arange(m - 1, -1, -1)
    key = pos @ place
    # swapping places i and i+1 gives a neighbour; each edge once, from the
    # ranking that compares lower as a tuple
    rank = np.argsort(np.argsort(np.array(profile.alternatives, dtype=object)))
    left, right = pos[:, :-1], pos[:, 1:]
    up = rank[right] > rank[left]
    swapped = np.searchsorted(key, key[:, None] + (right - left) * (place[:-1] - place[1:]))
    return _network(*_checked_nodes(zip(ids, [counts.get(p, 0.0) for p in perms])),
                    np.nonzero(up)[0], swapped[up], 1.0)


def _manhattan(delta: np.ndarray) -> np.ndarray:
    return np.abs(delta).sum(axis=1)


def _euclidean(delta: np.ndarray) -> np.ndarray:
    # one dot product per row: the arithmetic of np.linalg.norm on each
    # difference vector, bit for bit; einsum or a row sum of squares can
    # differ from it in the last bit
    return np.sqrt((delta[:, None, :] @ delta[:, :, None]).ravel())


def _chebyshev(delta: np.ndarray) -> np.ndarray:
    return np.abs(delta).max(axis=1)


_NORMS = {"manhattan": _manhattan, "euclidean": _euclidean, "chebyshev": _chebyshev}
LATTICE_BLOCK = 1 << 20  # coordinate differences held at once


def build_lattice(points: MassPoints, norm: str = "manhattan") -> Network:
    """Complete graph on attribute points, edge weight = norm distance.

    The triangle inequality of the norm makes every direct edge a shortest
    path, so geodesics reproduce the norm metric.
    """
    if norm not in _NORMS:
        raise DomainError(f"unknown norm {norm!r}; choose from {sorted(_NORMS)}")
    dist = _NORMS[norm]
    ids = _point_ids([pos for pos, _ in points.points])
    xs = np.array([pos for pos, _ in points.points], dtype=float).reshape(len(ids), points.dim)
    a, b = np.triu_indices(len(ids), k=1)  # combinations order
    w = np.empty(len(a))
    step = LATTICE_BLOCK // max(1, points.dim)
    with np.errstate(over="ignore"):  # an infinite weight is reported as invalid
        for s in range(0, len(a), step):
            w[s:s + step] = dist(xs[a[s:s + step]] - xs[b[s:s + step]])
    return _network(*_checked_nodes(zip(ids, [mass for _, mass in points.points])), a, b, w)


# -- CSV ingestion -----------------------------------------------------------

def _read_csv(path: str | Path) -> list[list[str]]:
    """All rows of a UTF-8 CSV file.

    A file that cannot be opened, decoded or split into fields is a
    :class:`ValidationError`.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc
    except (ValueError, csv.Error) as exc:  # bad UTF-8, a NUL in the path, over-long fields
        raise ValidationError(f"{path}: invalid CSV: {exc}") from exc


def load_votes_csv(path: str | Path) -> VoteMatrix:
    """Read ``voter,party,bill_1..bill_k`` (party column optional)."""
    rows = _read_csv(path)
    if not rows:
        raise ValidationError(f"{path}: empty vote file")
    header = [h.strip() for h in rows[0]]
    if not header or header[0] != "voter":
        raise ValidationError(f"{path}: first column must be 'voter'")
    has_party = len(header) > 1 and header[1] == "party"
    first_bill = 2 if has_party else 1
    if len(header) <= first_bill:
        raise ValidationError(f"{path}: no bill columns")
    voters, entries = [], []
    party: dict[str, str] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ValidationError(f"{path}:{lineno}: expected {len(header)} fields")
        voters.append(row[0].strip())
        if has_party:
            party[row[0].strip()] = row[1].strip()
        try:
            entries.append(tuple(int(x) for x in row[first_bill:]))
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: vote entries must be 0/1") from None
    return VoteMatrix(tuple(voters), tuple(entries), party if has_party else None)


def load_preferences_csv(path: str | Path) -> PreferenceProfile:
    """Read ``ranking,count`` with rankings written like ``c>b>a``."""
    rows = _read_csv(path)
    if not rows or [h.strip() for h in rows[0]] != ["ranking", "count"]:
        raise ValidationError(f"{path}: header must be 'ranking,count'")
    ballots = []
    alternatives: tuple[str, ...] | None = None
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ValidationError(f"{path}:{lineno}: expected 2 fields")
        ranking = tuple(s.strip() for s in row[0].split(">"))
        if alternatives is None:
            alternatives = tuple(sorted(ranking))
        try:
            count = float(row[1])
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: count must be a number") from None
        ballots.append((ranking, count))
    if alternatives is None:
        raise ValidationError(f"{path}: no ballots")
    return PreferenceProfile(alternatives, tuple(ballots))


def load_mass_points_csv(path: str | Path) -> MassPoints:
    """Read ``x_1,...,x_m,mass`` rows, after a header line none of whose fields is a number."""
    rows = [(lineno, row) for lineno, row in enumerate(_read_csv(path), start=1) if row]
    if rows and not any(map(_is_number, rows[0][1])):
        rows = rows[1:]
    points = []
    for lineno, row in rows:
        if len(row) < 2:
            raise ValidationError(f"{path}:{lineno}: need at least one coordinate and a mass")
        try:
            values = [float(x) for x in row]
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: non-numeric field") from None
        points.append((tuple(values[:-1]), values[-1]))
    return MassPoints(tuple(points))


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False
