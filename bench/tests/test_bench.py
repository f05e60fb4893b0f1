"""Tests of the benchmark itself: the checker rejects corrupted reports, and a
shortened run of every workload, untraced and traced, has no failed op.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
from netpolar import cli  # noqa: E402
from workloads import WORKLOADS, Mismatch  # noqa: E402


def _run_op(wl, key: str) -> Path:
    op = next(op for op in wl.ops if op["key"] == key)
    assert cli.main(op["argv"]) == 0
    return wl.workdir / op["out"]


def _first_key(wl, prefix: str) -> str:
    return next(op["key"] for op in wl.ops if op["key"].startswith(prefix))


def _rewrite(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


@pytest.fixture(scope="module")
def graph_json(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("graph-json")
    return WORKLOADS["graph-json"](7, workdir)


@pytest.fixture
def in_workdir(graph_json, monkeypatch):
    monkeypatch.chdir(graph_json.workdir)
    return graph_json


def test_graphs_have_weight_zero_edges(graph_json):
    for g in graph_json.graphs:
        assert any(w == 0.0 for _, _, w in g["edges"])


@pytest.mark.parametrize("prefix", ["norm", "alpha"])
def test_perturbed_value_is_rejected(in_workdir, prefix):
    wl = in_workdir
    key = _first_key(wl, prefix)
    path = _run_op(wl, key)
    wl.check(key, path)
    _rewrite(path, lambda doc: doc["result"].update(value=doc["result"]["value"] * (1 + 1e-6)))
    with pytest.raises(Mismatch, match="value"):
        wl.check(key, path)


def test_swapped_diameter_pair_is_rejected(in_workdir):
    wl = in_workdir
    key = _first_key(wl, "json")
    path = _run_op(wl, key)
    wl.check(key, path)
    _rewrite(path, lambda doc: doc["diameter_pair"].reverse())
    with pytest.raises(Mismatch, match="diameter pair"):
        wl.check(key, path)


def test_weight_zero_edge_dropped_is_rejected(in_workdir):
    """Distances where each weight-0 edge became absent (weight inf) must fail.

    That is what csgraph computes from a dense matrix with 0 for "no edge".
    """
    wl = in_workdir
    key = _first_key(wl, "json")
    g = wl.graphs[int(key.split("-")[1][1:])]
    path = _run_op(wl, key)
    wl.check(key, path)
    n = len(g["ids"])
    adj = np.zeros((n, n))
    for a, b, w in g["edges"]:
        adj[a, b] = w
    dropped = shortest_path(adj, directed=False)
    assert not np.array_equal(dropped, g["d"])
    _rewrite(path, lambda doc: doc.update(d=dropped.tolist()))
    with pytest.raises(Mismatch, match="distance matrix"):
        wl.check(key, path)


def test_perturbed_csv_distance_is_rejected(in_workdir):
    wl = in_workdir
    key = _first_key(wl, "csv")
    path = _run_op(wl, key)
    wl.check(key, path)
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(Mismatch, match="distance matrix"):
        wl.check(key, path)


def test_theory_checker_rejects_failures_and_weak_witness(tmp_path, monkeypatch):
    wl = WORKLOADS["theory"](7, tmp_path)
    monkeypatch.chdir(tmp_path)
    key = _first_key(wl, "A2")
    path = _run_op(wl, key)
    wl.check(key, path)
    _rewrite(path, lambda doc: doc.update(failures=1))
    with pytest.raises(Mismatch, match="failures"):
        wl.check(key, path)
    key = _first_key(wl, "counterexample")
    path = _run_op(wl, key)
    wl.check(key, path)
    _rewrite(path, lambda doc: doc["witness"].update(value=doc["witness"]["bipolar_value"]))
    with pytest.raises(Mismatch, match="witness value"):
        wl.check(key, path)


def test_roll_call_checker_rejects_wrong_mass(tmp_path, monkeypatch):
    wl = WORKLOADS["roll-call-build"](7, tmp_path)
    monkeypatch.chdir(tmp_path)
    path = _run_op(wl, "build-votes")
    wl.check("build-votes", path)
    _rewrite(path, lambda doc: doc["nodes"][0].update(mass=doc["nodes"][0]["mass"] + 1))
    with pytest.raises(Mismatch, match="total mass"):
        wl.check("build-votes", path)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_short_run_has_no_failed_op(name, trace):
    # 24 ops cover one whole cycle of every workload
    res = run.run_workload(name, seed=3, seconds=1.0, trace=trace, max_ops=24)
    assert res["failed"] == 0 and res["correct"]
    metrics = res["metrics"]
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(metrics) == sorted(names)
    if trace:
        assert metrics["trace.overhead_ratio"]["value"] > 0
        assert 0 <= metrics["trace.unattributed_share"]["value"] < 1
    else:
        assert all(m["value"] > 0 for m in metrics.values())
