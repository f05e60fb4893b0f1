"""Array-built builders against the pair-loop reference.

Each case runs ``netpolar.builders`` and ``reference_builders`` on the same
seeded random input and requires the same outcome: equal networks with the
same bits in every weight and mass, or the same error class with the same
message.  A built network must also equal ``fresh(net)``, its fields
validated again, with the same distance matrix.  The cases run in this
process at the default BLAS thread count;
``test_cases_hold_with_blas_on_one_thread`` runs them again with BLAS on one
thread, as the benchmark runs.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netpolar
import netpolar.builders as fast
import reference_builders as ref
from netpolar.builders import MassPoints, PreferenceProfile, VoteMatrix
from netpolar.errors import DisconnectedError, ValidationError
from netpolar.graph import Network, geodesic_distances
from test_validation_equivalence import fresh

NORMS = ("manhattan", "euclidean", "chebyshev")


def outcome(fn, *args, **kwargs):
    try:
        net = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)
    # float.hex tells 0.0 from -0.0 and shows the last bit
    return net, [m.hex() for m in net.masses], [w.hex() for _, _, w in net.edges]


def assert_same(name, *args, **kwargs):
    got = outcome(getattr(fast, name), *args, **kwargs)
    want = outcome(getattr(ref, name), *args, **kwargs)
    assert got == want
    if isinstance(got[0], Network):
        assert_fresh(got[0])
    return got


def assert_fresh(net):
    """``net`` validated afresh from its fields: equal, with the same bits and distances."""
    again = fresh(net)
    assert outcome(lambda: again) == outcome(lambda: net)
    assert (geodesic_distances(again).d == geodesic_distances(net).d).all()


def random_votes(rng, n_max=30, k_max=10, density=0.5):
    """Votes with some voters copying an earlier voter's row (weight-0 edges)."""
    n = int(rng.integers(1, n_max + 1))
    k = int(rng.integers(1, k_max + 1))
    rows = (rng.random((n, k)) < density).astype(int)
    for i in range(1, n):
        if rng.random() < 0.2:
            rows[i] = rows[int(rng.integers(0, i))]
    voters = tuple(f"v{i}" for i in rng.permutation(n))
    return VoteMatrix(voters, tuple(tuple(int(x) for x in row) for row in rows))


def random_points(rng, dim, n_max=25):
    n = int(rng.integers(1, n_max + 1))
    scale = rng.choice([1e-3, 1.0, 1e4])
    xs = rng.standard_normal((n, dim)) * scale
    if rng.random() < 0.3:  # integer coordinates, some differences exactly 0
        xs = np.round(xs)
    positions = list(dict.fromkeys(tuple(float(x) for x in row) for row in xs))
    masses = rng.uniform(0.0, 3.0, len(positions))
    return MassPoints(tuple((pos, float(m)) for pos, m in zip(positions, masses)))


@pytest.mark.parametrize("seed", range(40))
def test_representatives(seed):
    rng = np.random.default_rng(seed)
    assert_same("build_representatives", random_votes(rng))


def test_representatives_and_cosponsorship_at_benchmark_size():
    # large enough for BLAS to split the products across threads
    rng = np.random.default_rng(77)
    rows = (rng.random((200, 20)) < 0.5).astype(int)
    votes = VoteMatrix(tuple(f"r{i:03d}" for i in range(200)), tuple(map(tuple, rows.tolist())))
    assert_same("build_representatives", votes)
    assert_same("build_cosponsorship", votes)


def test_representatives_identical_rows_and_one_bill():
    votes = VoteMatrix(("a", "b", "c", "d"), ((1, 0, 1), (0, 0, 1), (1, 0, 1), (0, 1, 0)))
    net = assert_same("build_representatives", votes)[0]
    assert ("a", "c", 0.0) in net.edges
    net = assert_same("build_representatives", VoteMatrix(("a", "b", "c"), ((1,), (1,), (1,))))[0]
    assert net.edges == (("a", "b", 0.0), ("a", "c", 0.0), ("b", "c", 0.0))
    # one bill that splits the voters leaves two components
    got = assert_same("build_representatives", VoteMatrix(("a", "b", "c"), ((1,), (0,), (1,))))
    assert got == (DisconnectedError, "graph is not connected")


@pytest.mark.parametrize("seed", range(40))
def test_cosponsorship(seed):
    rng = np.random.default_rng(100 + seed)
    assert_same("build_cosponsorship", random_votes(rng, density=float(rng.uniform(0.1, 0.9))))


def test_cosponsor_without_bills_is_the_same_error():
    votes = VoteMatrix(("a", "b", "c"), ((1, 0), (1, 1), (0, 0)))
    got = assert_same("build_cosponsorship", votes)
    assert got == (DisconnectedError, "graph is not connected")


def random_parties(rng, votes):
    """``votes`` with a party map over at most four parties; some voters may lack a party."""
    labels = rng.integers(0, int(rng.integers(1, 5)), len(votes.voters))
    party = {v: f"p{j}" for v, j in zip(votes.voters, labels)}
    if rng.random() < 0.1:
        del party[votes.voters[int(rng.integers(0, len(votes.voters)))]]
    return VoteMatrix(votes.voters, votes.entries, party)


def assert_same_positions(votes):
    def positions(fn):
        try:
            return fn(votes)
        except Exception as exc:  # noqa: BLE001 - the class and message are compared
            return type(exc), str(exc)
    assert positions(fast.party_positions) == positions(ref.party_positions)


@pytest.mark.parametrize("tie_rule", ["strict-majority", "exclude-bill"])
@pytest.mark.parametrize("seed", range(40))
def test_parties(seed, tie_rule):
    rng = np.random.default_rng(400 + seed)
    votes = random_parties(rng, random_votes(rng, density=float(rng.uniform(0.1, 0.9))))
    assert_same("build_parties", votes, tie_rule=tie_rule)
    assert_same_positions(votes)


@pytest.mark.parametrize("tie_rule", ["strict-majority", "exclude-bill"])
def test_parties_tied_bills_missing_party_and_disconnected(tie_rule):
    # p ties on bills 1 and 3 and q on bill 3; p-q share bill 2, q-r bill 1, p-r nothing
    voters = ("a", "b", "c", "d", "e")
    entries = ((0, 1, 1), (1, 1, 0), (0, 1, 0), (0, 1, 1), (0, 0, 1))
    party = {"a": "p", "b": "p", "c": "q", "d": "q", "e": "r"}
    votes = VoteMatrix(voters, entries, party)
    net = assert_same("build_parties", votes, tie_rule=tie_rule)[0]
    assert net.masses == (2.0, 2.0, 1.0)
    assert [(u, v) for u, v, _ in net.edges] == [("p", "q"), ("q", "r")]
    assert fast.party_positions(votes) == {"p": (None, 1, None), "q": (0, 1, None),
                                           "r": (0, 0, 1)}
    # a voter with no party
    del party["c"]
    got = assert_same("build_parties", VoteMatrix(voters, entries, party), tie_rule=tie_rule)
    assert got == (ValidationError, "voter 'c' has no party")
    assert_same_positions(VoteMatrix(voters, entries, party))
    # two parties that share no majority position
    split = {"a": "p", "b": "p", "c": "q", "d": "q", "e": "q"}
    got = assert_same("build_parties", VoteMatrix(voters, ((1, 1, 0),) * 2 + ((0, 0, 1),) * 3,
                                                   split), tie_rule=tie_rule)
    assert got == (DisconnectedError, "graph is not connected")


@pytest.mark.parametrize("seed", range(20))
def test_vote_hypercube(seed):
    rng = np.random.default_rng(200 + seed)
    assert_same("build_vote_hypercube", random_votes(rng, k_max=8))


@pytest.mark.parametrize("seed", range(20))
def test_preference_kemeny(seed):
    rng = np.random.default_rng(300 + seed)
    m = int(rng.integers(2, 7))
    pool = ["a", "b", "c", "d", "e", "f"] if rng.random() < 0.5 else \
        ["x10", "x2", "Zed", "alpha", "é", "b"]
    # alternatives in any order: the edge direction follows their string order
    alternatives = tuple(rng.permutation(pool[:m]).tolist())
    perms = list(itertools.permutations(alternatives))
    ballots = tuple((perms[int(rng.integers(0, len(perms)))], float(rng.uniform(0.5, 4)))
                    for _ in range(int(rng.integers(1, 12))))
    assert_same("build_preference_kemeny", PreferenceProfile(alternatives, ballots))


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("dim", range(1, 6))
@pytest.mark.parametrize("seed", range(6))
def test_lattice(seed, dim, norm):
    rng = np.random.default_rng(1000 * dim + seed)
    assert_same("build_lattice", random_points(rng, dim), norm=norm)


@pytest.mark.parametrize("norm", NORMS)
def test_lattice_overflow_is_the_same_error(norm):
    points = MassPoints((((1e308, 0.0), 1.0), ((-1e308, 1.0), 1.0), ((0.0, 0.0), 1.0)))
    got = assert_same("build_lattice", points, norm=norm)
    assert got[0] is ValidationError and "has invalid weight inf" in got[1]


def test_lattice_in_blocks(monkeypatch):
    # blocks of 7 differences (3 pairs in 2-D) give the bits of one block
    rng = np.random.default_rng(9)
    points = random_points(rng, 2, n_max=40)
    monkeypatch.setattr(fast, "LATTICE_BLOCK", 7)
    for norm in NORMS:
        assert_same("build_lattice", points, norm=norm)


def test_cases_hold_with_blas_on_one_thread():
    threads = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    tests = Path(__file__).resolve().parent
    env = {**os.environ, **threads,
           "PYTHONPATH": os.pathsep.join([str(Path(netpolar.__file__).resolve().parents[1]),
                                          str(tests)])}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(Path(__file__)),
         "-k", "not one_thread"],
        capture_output=True, text=True, timeout=300, env=env, cwd=tests,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
