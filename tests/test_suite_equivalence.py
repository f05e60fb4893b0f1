"""The array axiom suites give the per-sample reference's reports, byte for byte.

Each case compares ``report.to_json()``, or the error class and message,
between ``netpolar.axioms.run_suite`` and ``reference_axioms.run_suite``.
Most cases shrink ``CHUNK`` so that counts on both sides of a chunk edge stay
cheap for the reference; a few run at the real chunk size.
"""

import math
import tracemalloc

import pytest

import netpolar.axioms
import reference_axioms
from netpolar.errors import NetpolarError

SUITES = [("A1", None), ("A2", None), ("A3", None), ("A3c", 1.05), ("A3c", 1.5)]
SUITE_IDS = ["A1", "A2", "A3", "A3c-1.05", "A3c-1.5"]
ALPHAS = [0.05, 0.3, 1.0, 1.5, 1.7, 2.0, 3.0, 270.0, 1010.0, 1022.0]
# at 1022, 2^alpha (d_xy + d_xz) p, the A1 closed form, overflows on its own
# in the first A1 scenario at seed 1, where both sides are finite
SEEDS = [1, 2, 3]
SMALL_CHUNK = 16


def outcome(run, axiom, alpha, count, seed, c):
    try:
        return run(axiom, alpha=alpha, count=count, seed=seed, c=c).to_json()
    except NetpolarError as exc:
        return type(exc), str(exc)


def assert_same(axiom, alpha, counts, c, seeds=SEEDS):
    for seed in seeds:
        for count in counts:
            args = (axiom, alpha, count, seed, c)
            assert outcome(netpolar.axioms.run_suite, *args) == \
                outcome(reference_axioms.run_suite, *args), args


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("axiom, c", SUITES, ids=SUITE_IDS)
def test_reports_match_the_reference_across_chunk_edges(axiom, c, alpha, monkeypatch):
    monkeypatch.setattr(netpolar.axioms, "CHUNK", SMALL_CHUNK)
    assert_same(axiom, alpha, [1, SMALL_CHUNK - 1, SMALL_CHUNK + 1, 4 * SMALL_CHUNK + 1], c)


@pytest.mark.parametrize("chunk", [SMALL_CHUNK, 64])
@pytest.mark.parametrize("alpha", ALPHAS)
def test_a1_draw_cap_matches_the_reference(alpha, chunk, monkeypatch):
    # a cap of 50 draws lies above one chunk of 16 and below one of 64
    monkeypatch.setattr(netpolar.axioms, "MAX_A1_DRAWS", 50)
    monkeypatch.setattr(netpolar.axioms, "CHUNK", chunk)
    assert_same("A1", alpha, [1, chunk - 1, chunk + 1, 200], None)


@pytest.mark.parametrize("chunk", [SMALL_CHUNK, 64])
@pytest.mark.parametrize("alpha, seed, longest", [(0.3, 1, 37), (0.05, 4, 288)])
def test_a1_gives_up_at_a_run_of_exactly_the_cap(alpha, seed, longest, chunk, monkeypatch):
    # the first 100 A1 scenarios at this seed take at most ``longest`` rejected
    # draws in a row: a cap of that many stops the suite, one more lets it end
    monkeypatch.setattr(netpolar.axioms, "CHUNK", chunk)
    for cap, stops in [(longest, True), (longest + 1, False)]:
        monkeypatch.setattr(netpolar.axioms, "MAX_A1_DRAWS", cap)
        args = ("A1", alpha, 100, seed, None)
        report = outcome(netpolar.axioms.run_suite, *args)
        assert report == outcome(reference_axioms.run_suite, *args)
        assert isinstance(report, tuple) == stops


@pytest.mark.parametrize("alpha", [0.3, 1.5])
@pytest.mark.parametrize("axiom, c", SUITES, ids=SUITE_IDS)
def test_reports_match_the_reference_at_the_real_chunk_size(axiom, c, alpha):
    chunk = netpolar.axioms.CHUNK
    assert_same(axiom, alpha, [chunk - 1, chunk + 1], c, seeds=[4])


@pytest.mark.parametrize("axiom, alpha, c", [("A1", 0.3, None), ("A2", 0.7, None),
                                             ("A3", 1.5, None), ("A3c", 1.7, 1.05),
                                             ("A3", 270.0, None)])
def test_the_scalar_checks_alone_give_the_same_report(axiom, alpha, c, monkeypatch):
    # an infinite band leaves every margin to the scalar check
    monkeypatch.setattr(netpolar.axioms, "CHUNK", SMALL_CHUNK)
    monkeypatch.setattr(netpolar.axioms, "_BAND", math.inf)
    assert_same(axiom, alpha, [1, 3 * SMALL_CHUNK + 5], c)


def _peak_bytes(count):
    tracemalloc.start()
    try:
        netpolar.axioms.run_suite("A2", alpha=1.0, count=count, seed=3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_the_sample_count():
    small, large = _peak_bytes(10 ** 4), _peak_bytes(10 ** 6)
    assert large < 1.25 * small, (small, large)
