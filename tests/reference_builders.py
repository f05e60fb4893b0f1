"""The pair-loop network builders, kept as a reference.

``netpolar.builders`` builds the representative, co-sponsorship, party,
lattice, vote-hypercube and Kemeny networks, and the party positions, from
arrays.  These functions are the
earlier implementation, one pair at a time; the equivalence tests require
equal networks, with every weight bit for bit, or the same error class and
message, from both.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

from netpolar.builders import (
    MAX_ALTERNATIVES,
    MAX_BILLS,
    MassPoints,
    PreferenceProfile,
    VoteMatrix,
    _point_id,
    ranking_id,
)
from netpolar.errors import DomainError, ValidationError
from netpolar.graph import Network, validate_network


def build_vote_hypercube(votes: VoteMatrix) -> Network:
    k = votes.k
    if k > MAX_BILLS:
        raise DomainError(f"{k} bills would create 2^{k} nodes")
    counts = Counter("".join(map(str, row)) for row in votes.entries)
    nodes = []
    for code in range(2 ** k):
        bits = format(code, f"0{k}b")
        nodes.append((bits, float(counts.get(bits, 0))))
    edges = []
    for code in range(2 ** k):
        bits = format(code, f"0{k}b")
        for bill in range(k):
            other = code ^ (1 << (k - 1 - bill))
            if other > code:
                edges.append((bits, format(other, f"0{k}b"), 1.0))
    return validate_network(nodes, edges)


def build_representatives(votes: VoteMatrix) -> Network:
    k = votes.k
    nodes = [(v, 1.0) for v in votes.voters]
    edges = []
    for (va, ra), (vb, rb) in itertools.combinations(zip(votes.voters, votes.entries), 2):
        differing = sum(a != b for a, b in zip(ra, rb))
        if differing < k:  # at least one agreement
            edges.append((va, vb, differing / k))
    return validate_network(nodes, edges)


def _party_members(votes: VoteMatrix) -> dict[str, list[tuple[int, ...]]]:
    members: dict[str, list[tuple[int, ...]]] = {}
    for voter, row in zip(votes.voters, votes.entries):
        party = votes.party.get(voter)
        if party is None:
            raise ValidationError(f"voter {voter!r} has no party")
        members.setdefault(party, []).append(row)
    return members


def _majorities(members: dict[str, list[tuple[int, ...]]],
                k: int) -> dict[str, tuple[int | None, ...]]:
    out = {}
    for party, rows in members.items():
        positions: list[int | None] = []
        for bill in range(k):
            ones = sum(row[bill] for row in rows)
            zeros = len(rows) - ones
            positions.append(None if ones == zeros else int(ones > zeros))
        out[party] = tuple(positions)
    return out


def party_positions(votes: VoteMatrix) -> dict[str, tuple[int | None, ...]]:
    if votes.party is None:
        raise ValidationError("party map required")
    return _majorities(_party_members(votes), votes.k)


def build_parties(votes: VoteMatrix, tie_rule: str = "strict-majority") -> Network:
    if tie_rule not in ("strict-majority", "exclude-bill"):
        raise DomainError(f"unknown tie rule {tie_rule!r}")
    if votes.party is None:
        raise ValidationError("party map required to build a party network")
    members = _party_members(votes)
    if len(members) < 2:
        raise DomainError("need at least two parties")
    k = votes.k
    positions = _majorities(members, k)
    nodes = [(p, float(len(rows))) for p, rows in members.items()]
    edges = []
    for pa, pb in itertools.combinations(members, 2):
        pos_a, pos_b = positions[pa], positions[pb]
        common = sum(
            1 for a, b in zip(pos_a, pos_b) if a is not None and a == b
        )
        if tie_rule == "exclude-bill":
            denom = sum(1 for a, b in zip(pos_a, pos_b) if a is not None and b is not None)
        else:
            denom = k
        if common >= 1:
            edges.append((pa, pb, 1.0 - common / denom))
    return validate_network(nodes, edges)


def build_cosponsorship(sponsorships: VoteMatrix) -> Network:
    nodes = [(v, 1.0) for v in sponsorships.voters]
    edges = []
    pairs = itertools.combinations(zip(sponsorships.voters, sponsorships.entries), 2)
    for (va, ra), (vb, rb) in pairs:
        if any(a and b for a, b in zip(ra, rb)):
            edges.append((va, vb, 1.0))
    return validate_network(nodes, edges)


def build_preference_kemeny(profile: PreferenceProfile) -> Network:
    m = len(profile.alternatives)
    if m > MAX_ALTERNATIVES:
        raise DomainError(f"{m} alternatives would create {m}! nodes")
    counts: dict[tuple[str, ...], float] = {}
    for ranking, count in profile.ballots:
        counts[tuple(ranking)] = counts.get(tuple(ranking), 0.0) + count
    perms = list(itertools.permutations(profile.alternatives))
    nodes = [(ranking_id(p), counts.get(p, 0.0)) for p in perms]
    edges = []
    for p in perms:
        for i in range(m - 1):
            q = list(p)
            q[i], q[i + 1] = q[i + 1], q[i]
            q = tuple(q)
            if q > p:
                edges.append((ranking_id(p), ranking_id(q), 1.0))
    return validate_network(nodes, edges)


_NORMS = {
    "manhattan": lambda v: float(np.abs(v).sum()),
    "euclidean": lambda v: float(np.linalg.norm(v)),
    "chebyshev": lambda v: float(np.abs(v).max()),
}


def build_lattice(points: MassPoints, norm: str = "manhattan") -> Network:
    if norm not in _NORMS:
        raise DomainError(f"unknown norm {norm!r}; choose from {sorted(_NORMS)}")
    dist = _NORMS[norm]
    nodes = [(_point_id(pos), mass) for pos, mass in points.points]
    edges = []
    with np.errstate(over="ignore"):  # an infinite weight is reported by validation
        for (pa, _), (pb, _) in itertools.combinations(points.points, 2):
            delta = np.asarray(pa, dtype=float) - np.asarray(pb, dtype=float)
            edges.append((_point_id(pa), _point_id(pb), dist(delta)))
    return validate_network(nodes, edges)
