"""End-to-end exercises of the command-line interface."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import netpolar
from netpolar.axioms import run_suite
from netpolar.cli import _json, _network_json, _parser, build_parser, main, parse_network_file
from netpolar.extremal import verify_bipolar_max
from netpolar.graph import geodesic_distances, network_to_dict, validate_network

TWO_POINT = {
    "nodes": [{"id": "a", "mass": 0.5}, {"id": "b", "mass": 0.5}],
    "edges": [{"u": "a", "v": "b", "w": 1.0}],
}

TRIANGLE = {
    "nodes": [{"id": "x", "mass": 1.0}, {"id": "y", "mass": 1.0}, {"id": "z", "mass": 1.0}],
    "edges": [
        {"u": "x", "v": "y", "w": 1.0},
        {"u": "x", "v": "z", "w": 1.0},
        {"u": "y", "v": "z", "w": 1.0},
    ],
}


@pytest.fixture
def two_point_file(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(TWO_POINT))
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(TRIANGLE))
    return str(path)


class TestCompute:
    def test_prints_value(self, two_point_file, capsys):
        assert main(["compute", "--network", two_point_file]) == 0
        assert "value=0.25" in capsys.readouterr().out

    def test_normalized(self, triangle_file, capsys):
        assert main(["compute", "--network", triangle_file, "--normalize"]) == 0
        out = capsys.readouterr().out
        assert "value=6" in out and "normalized=0.888888888889" in out

    def test_alpha_and_K_flags(self, two_point_file, capsys):
        assert main(["compute", "--network", two_point_file,
                     "--alpha", "2", "--K", "4"]) == 0
        assert "value=0.5" in capsys.readouterr().out

    def test_report_is_deterministic(self, two_point_file, tmp_path, capsys):
        # identical invocations must produce byte-identical reports; the
        # resolved configuration (including --out) is part of the report
        out1 = tmp_path / "report.json"
        main(["compute", "--network", two_point_file, "--out", str(out1)])
        first = out1.read_bytes()
        main(["compute", "--network", two_point_file, "--out", str(out1)])
        assert out1.read_bytes() == first
        payload = json.loads(out1.read_text())
        assert payload["result"]["value"] == 0.25
        assert payload["config"]["alpha"] == 1.0
        assert sorted(payload["config"]) == ["K", "allow_disconnected_longest_path", "alpha",
                                             "command", "network", "normalize", "out"]


class TestDistances:
    def test_json_payload(self, triangle_file, tmp_path, capsys):
        out = tmp_path / "d.json"
        assert main(["distances", "--network", triangle_file, "--out", str(out)]) == 0
        assert "diameter=1" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["order"] == ["x", "y", "z"]
        assert payload["d"][0][1] == 1.0 and payload["diameter_pair"] == ["x", "y"]

    def test_csv_matrix(self, triangle_file, tmp_path):
        out = tmp_path / "d.csv"
        main(["distances", "--network", triangle_file, "--format", "csv",
              "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == ",x,y,z"
        assert lines[1].startswith("x,0,1,1")

    @pytest.mark.parametrize("kind, table", [
        ("lattice", [["0", "0", "1"], ["3", "4", "2"], ["-1", "2.5", "0.5"]]),
        ("reps", [["voter", "b1", "b2", "b3"], ["a,b", "1", "0", "1"],
                  ['say "hi"', "1", "1", "0"], ["two\nlines", "0", "1", "1"],
                  ["cr\rhere", "1", "0", "0"], ["plain", "1", "1", "1"]]),
    ])
    def test_csv_ids_read_back_through_csv_reader(self, kind, table, tmp_path, capsys):
        src, net, out = tmp_path / "in.csv", tmp_path / "net.json", tmp_path / "d.csv"
        with open(src, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(table)
        assert main(["build", kind, "--input", str(src), "--out", str(net)]) == 0
        assert main(["distances", "--network", str(net), "--format", "csv",
                     "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        dist = geodesic_distances(parse_network_file(net))
        assert rows[0] == [""] + list(dist.ids)
        assert [r[0] for r in rows[1:]] == list(dist.ids)
        got = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
        np.testing.assert_allclose(got, dist.d, rtol=1e-11, atol=0)


class TestBuild:
    def test_line_from_mass_points(self, tmp_path, capsys):
        src = tmp_path / "pts.csv"
        src.write_text("0,0.5\n1,0.5\n")
        out = tmp_path / "line.json"
        assert main(["build", "line", "--input", str(src), "--out", str(out)]) == 0
        assert "nodes=2" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["edges"] == [{"u": "(0)", "v": "(1)", "w": 1.0}]

    def test_vote_hypercube(self, tmp_path, capsys):
        src = tmp_path / "votes.csv"
        src.write_text("voter,bill_1,bill_2\nalice,0,0\nbob,1,1\ncarol,1,1\n")
        assert main(["build", "votes", "--input", str(src)]) == 0
        assert "nodes=4 edges=4 total_mass=3" in capsys.readouterr().out

    def test_built_network_feeds_back_into_compute(self, tmp_path, capsys):
        src = tmp_path / "pts.csv"
        src.write_text("0,0.5\n1,0.5\n")
        net = tmp_path / "net.json"
        main(["build", "line", "--input", str(src), "--out", str(net)])
        capsys.readouterr()
        assert main(["compute", "--network", str(net)]) == 0
        assert "value=0.25" in capsys.readouterr().out

    def test_preferences(self, tmp_path, capsys):
        src = tmp_path / "prefs.csv"
        src.write_text("ranking,count\na>b>c,2\nc>b>a,4\n")
        assert main(["build", "prefs", "--input", str(src)]) == 0
        assert "nodes=6" in capsys.readouterr().out

    def test_lattice_norm_flag(self, tmp_path, capsys):
        src = tmp_path / "pts.csv"
        src.write_text("0,0,1\n1,1,1\n")
        assert main(["build", "lattice", "--input", str(src),
                     "--norm", "euclidean"]) == 0
        assert "nodes=2" in capsys.readouterr().out

    def test_parties_tie_rule_flag(self, tmp_path):
        # party p ties on bills 1 and 3 and agrees with q on bill 2 only
        src = tmp_path / "votes.csv"
        src.write_text("voter,party,bill_1,bill_2,bill_3\na,p,0,1,1\nb,p,1,1,0\nc,q,0,1,0\n")
        weights = {}
        for rule in ("strict-majority", "exclude-bill"):
            out = tmp_path / f"{rule}.json"
            assert main(["build", "parties", "--input", str(src), "--tie-rule", rule,
                         "--out", str(out)]) == 0
            weights[rule] = json.loads(out.read_text())["edges"][0]["w"]
        assert weights == {"strict-majority": pytest.approx(2.0 / 3.0), "exclude-bill": 0.0}

    @pytest.mark.parametrize("kind, flags", [
        ("votes", ["--tie-rule", "exclude-bill", "--norm", "chebyshev"]),
        ("votes", ["--norm", "chebyshev"]),
        ("line", ["--tie-rule", "exclude-bill"]),
        ("lattice", ["--tie-rule", "exclude-bill"]),
        ("parties", ["--norm", "euclidean"]),
        ("prefs", ["--norm", "manhattan"]),
    ])
    def test_option_the_builder_ignores_exits_two(self, kind, flags, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("voter,bill_1\na,0\n")
        with pytest.raises(SystemExit) as exc:
            main(["build", kind, "--input", str(src)] + flags)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


_ids = st.one_of(st.text(max_size=6), st.sampled_from(["\ud800", "a\udfffb", "\x00\x1f\x7f",
                                                         "\u2028", '"\\', "🙂"]))
_finite = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308, 0.1, 3])


@st.composite
def built_networks(draw):
    ids = draw(st.lists(_ids, min_size=1, max_size=6, unique=True))
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return validate_network([(i, draw(_finite)) for i in ids],
                            [(a, b, draw(_finite)) for a, b in chosen], allow_disconnected=True)


class TestBuildWriter:
    @settings(max_examples=300, deadline=None)
    @given(built_networks())
    def test_same_text_as_json_dumps(self, net):
        want = json.dumps(network_to_dict(net), indent=2, sort_keys=True) + "\n"
        assert _network_json(net) == want


class TestParserReuse:
    """``main`` builds its parser once per process; calls must not leak into each other."""

    @staticmethod
    def fresh(argv):
        # what a newly built parser does with argv
        args = build_parser().parse_args(argv)
        return args.func(args)

    def test_one_parser_per_process(self, capsys):
        main(["alpha-bounds"])
        assert _parser() is _parser()

    def test_consecutive_calls_write_what_a_fresh_parser_writes(self, tmp_path, two_point_file,
                                                                 capsys):
        src = tmp_path / "votes.csv"
        src.write_text("voter,party,bill_1,bill_2,bill_3\na,p,0,1,1\nb,p,1,1,0\nc,q,0,1,0\n")
        out = tmp_path / "report"  # one path, so that the echoed configs can match

        def report(run, argv):
            assert run(argv + ["--out", str(out)]) == 0
            return out.read_text()

        build = ["build", "parties", "--input", str(src)]
        compute = ["compute", "--network", two_point_file]
        exclude = report(main, build + ["--tie-rule", "exclude-bill"])
        plain = report(main, build)
        with pytest.raises(SystemExit) as exc:  # a usage error in between
            main(build + ["--tie-rule", "exclude-bill", "--norm", "euclidean"])
        assert exc.value.code == 2
        plain_after_error = report(main, build)
        compute_flags = report(main, compute + ["--alpha", "2", "--K", "3"])
        compute_plain = report(main, compute)
        assert exclude == report(self.fresh, build + ["--tie-rule", "exclude-bill"]) != plain
        assert plain == plain_after_error == report(self.fresh, build)
        assert compute_plain == report(self.fresh, compute) != compute_flags


class TestAxioms:
    def test_suite_runs_and_reports(self, tmp_path, capsys):
        out = tmp_path / "suite.json"
        assert main(["axioms", "--suite", "A3", "--alpha", "1.0",
                     "--samples", "200", "--seed", "9", "--out", str(out)]) == 0
        assert "failures=0" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["samples"] == 200 and payload["failures"] == 0

    def test_seed_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["axioms", "--suite", "A1", "--samples", "10"])
        assert exc.value.code == 2


class TestAlphaBounds:
    def test_single_ratio(self, capsys):
        assert main(["alpha-bounds", "--c", "2"]) == 0
        out = capsys.readouterr().out
        assert "alpha_lower=none" in out and "alpha_upper=1.59778" in out

    def test_csv_table(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        assert main(["alpha-bounds", "--c-list", "1.5", "2.0", "--tol", "1e-6",
                     "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "c,alpha_lower,alpha_upper"
        assert lines[1].startswith("1.5,0.22") and lines[2].startswith("2,,1.59778")


class TestExtremalCommands:
    def test_extremal_check(self, triangle_file, tmp_path, capsys):
        out = tmp_path / "ext.json"
        assert main(["extremal", "--network", triangle_file, "--step", "0.125",
                     "--out", str(out)]) == 0
        assert "is_bipolar_max=True" in capsys.readouterr().out
        assert json.loads(out.read_text())["is_bipolar_max"] is True

    def test_counterexample_found(self, capsys):
        assert main(["counterexample", "--alpha", "0.5"]) == 0
        assert "witness eps=" in capsys.readouterr().out

    def test_counterexample_absent(self, capsys):
        assert main(["counterexample", "--alpha", "1.5"]) == 0
        assert "witness=none" in capsys.readouterr().out


class TestErrorHandling:
    def test_invalid_json_is_a_domain_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["compute", "--network", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_mass_is_a_domain_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "nodes": [{"id": "a", "mass": -1.0}, {"id": "b", "mass": 1.0}],
            "edges": [{"u": "a", "v": "b", "w": 1.0}],
        }))
        assert main(["compute", "--network", str(bad)]) == 1

    def test_missing_file(self, tmp_path, capsys):
        assert main(["compute", "--network", str(tmp_path / "absent.json")]) == 1

    def test_disconnected_needs_opt_in(self, tmp_path, capsys):
        doc = {"nodes": [{"id": "a", "mass": 1.0}, {"id": "b", "mass": 1.0}],
               "edges": []}
        path = tmp_path / "disc.json"
        path.write_text(json.dumps(doc))
        assert main(["compute", "--network", str(path)]) == 1
        capsys.readouterr()
        assert main(["compute", "--network", str(path),
                     "--allow-disconnected-longest-path"]) == 0

    @pytest.mark.parametrize("doc", [
        {"nodes": 5},
        {"nodes": [{"id": "a", "mass": 1.0}], "edges": None},
        {"nodes": [{"id": "a", "mass": 10 ** 400}]},
    ], ids=["nodes-not-a-list", "edges-null", "integer-beyond-float"])
    def test_malformed_document_is_a_domain_error(self, doc, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["compute", "--network", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [
        b'{"nodes": [{"id": "a", "mass": ' + b"9" * 5000 + b"}]}",
        b"[" * 100_000 + b"]" * 100_000,
        b"\xff\xfe{}",
    ], ids=["integer-over-4300-digits", "nesting-too-deep", "not-utf-8"])
    def test_unparsable_file_is_a_domain_error(self, raw, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        assert main(["compute", "--network", str(path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_overflowing_masses_are_a_domain_error(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "nodes": [{"id": "a", "mass": 1e308}, {"id": "b", "mass": 1e308}],
            "edges": [{"u": "a", "v": "b", "w": 1.0}],
        }))
        out = tmp_path / "report.json"
        assert main(["compute", "--network", str(path), "--out", str(out)]) == 1
        assert "error: P_alpha evaluates to nan" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_alpha_is_a_domain_error(self, two_point_file, capsys):
        assert main(["compute", "--network", two_point_file, "--alpha", "inf"]) == 1
        assert "error: alpha must be positive and finite" in capsys.readouterr().err

    def test_overflowing_path_is_a_domain_error(self, tmp_path, capsys):
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "nodes": [{"id": i, "mass": 1.0} for i in "abc"],
            "edges": [{"u": "a", "v": "b", "w": 1e308}, {"u": "b", "v": "c", "w": 1e308}],
        }))
        assert main(["compute", "--network", str(path)]) == 1
        assert "error: a geodesic distance overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["inf", "nan"])
    @pytest.mark.parametrize("argv", [
        ["axioms", "--suite", "A2", "--seed", "1", "--samples", "50"],
        ["counterexample"],
    ], ids=["axioms", "counterexample"])
    def test_non_finite_alpha_is_a_domain_error(self, argv, alpha, capsys):
        assert main(argv + ["--alpha", alpha]) == 1
        assert "error: alpha must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        *[(["extremal", "--step", step], f"grid step {float(step)} must evenly divide 1")
          for step in ("0", "-0.0", "nan", "1e-320")],
        (["axioms", "--suite", "A3c", "--seed", "1", "--samples", "5", "--c", "nan"],
         "threshold nan leaves no admissible c_bar below 2.0"),
        (["axioms", "--suite", "A2", "--seed", "-1", "--samples", "5"],
         "seed must be non-negative, got -1"),
        (["alpha-bounds", "--tol", "inf"], "tolerance must be positive and finite"),
    ], ids=["step-0", "step-neg-0", "step-nan", "step-subnormal", "c-nan", "seed-neg", "tol-inf"])
    def test_degenerate_numeric_flag_is_a_domain_error(self, argv, message, two_point_file,
                                                       capsys):
        if argv[0] == "extremal":
            argv = argv + ["--network", two_point_file]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a1_at_nan_alpha_fails_within_the_timeout(self):
        # no draw passes the A1 acceptance test at alpha = nan, so a missing
        # check makes the sampler loop forever; a subprocess bounds that
        env = {**os.environ, "PYTHONPATH": str(Path(netpolar.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "netpolar.cli", "axioms", "--suite", "A1", "--seed", "1",
             "--samples", "10", "--alpha", "nan"],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert proc.returncode == 1
        assert "error: alpha must be positive and finite" in proc.stderr

    def test_a1_at_tiny_alpha_fails_within_the_timeout(self):
        # almost no draw passes the A1 acceptance test at alpha = 1e-9; the
        # sampler gives up after a fixed number of draws per scenario
        env = {**os.environ, "PYTHONPATH": str(Path(netpolar.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "netpolar.cli", "axioms", "--suite", "A1", "--seed", "1",
             "--samples", "10", "--alpha", "1e-9"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 1
        assert proc.stderr == ("error: A1 sampler accepted 0 of 100000 draws at alpha=1e-09 "
                               "(observed acceptance rate 0, below 1e-05)\n")

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["compute"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["compute", "--format", "csv"],
        ["distances", "--alpha", "2"],
        ["distances", "--K", "2"],
        ["extremal", "--K", "2"],
        ["extremal", "--format", "csv"],
    ])
    def test_flag_the_command_ignores_exits_two(self, argv, two_point_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + ["--network", two_point_file] + argv[1:])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        *[["axioms", "--suite", suite, "--seed", "1", "--samples", "5", "--c", "1.5"]
          for suite in ("A1", "A2", "A3")],
        ["alpha-bounds", "--c-list"],
    ], ids=["A1-c", "A2-c", "A3-c", "empty-c-list"])
    def test_flag_that_would_be_ignored_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"netpolar {argv[0]}: error: argument --c" in err

    @pytest.mark.parametrize("target", ["missing/r.json", "."], ids=["missing-dir", "directory"])
    @pytest.mark.parametrize("argv", [
        ["compute", "--network", "net.json"],
        ["distances", "--network", "net.json"],
        ["distances", "--network", "net.json", "--format", "csv"],
        ["build", "line", "--input", "pts.csv"],
        ["axioms", "--suite", "A2", "--seed", "1", "--samples", "5"],
        ["alpha-bounds", "--tol", "1e-6"],
        ["alpha-bounds", "--tol", "1e-6", "--format", "csv"],
        ["extremal", "--network", "net.json", "--step", "0.5"],
        ["counterexample", "--alpha", "1.5"],
    ], ids=lambda argv: "-".join(a.lstrip("-") for a in argv[:1] + argv[-2:]))
    def test_unwritable_out_is_one_error_line(self, argv, target, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "net.json").write_text(json.dumps(TWO_POINT))
        (tmp_path / "pts.csv").write_text("0,1\n1,1\n")
        assert main(argv + ["--out", target]) == 1
        reason = "Is a directory" if target == "." else "No such file or directory"
        assert capsys.readouterr().err == f"error: {target}: {reason}\n"

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_out_of_memory_is_one_error_line(self, tmp_path):
        # a 20,000-node chain's distance matrix needs 3.2 GB, over a 2,000,000 KiB cap
        resource = pytest.importorskip("resource")
        n = 20_000
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({
            "nodes": [{"id": f"n{i}", "mass": 1.0} for i in range(n)],
            "edges": [{"u": f"n{i}", "v": f"n{i + 1}", "w": 1.0} for i in range(n - 1)],
        }))
        env = {**os.environ, "PYTHONPATH": str(Path(netpolar.__file__).resolve().parents[1]),
               "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "netpolar.cli", "compute", "--network", str(path)],
            capture_output=True, text=True, timeout=120, env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2_000_000 * 1024,) * 2),
        )
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: out of memory: ")
        assert f"({n}, {n})" in line


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)
NOT_A_NUMBER = JSON_VALUES.filter(lambda v: isinstance(v, bool) or not isinstance(v, (int, float)))
BAD_NUMBERS = (st.sampled_from([float("nan"), float("inf"), float("-inf"), 10 ** 400])
               | st.floats(max_value=-1e-9))
NOT_A_STRING = JSON_VALUES.filter(lambda v: not isinstance(v, str))
MUTATIONS = ("document", "not-a-list", "missing-key", "extra-key", "wrong-type", "bad-number",
             "unknown-endpoint", "overflow", "non-string-id")


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(payload=st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=4),
           lists=st.dictionaries(st.sampled_from(["d", "edges", "nodes", "é"]),
                                 st.lists(JSON_VALUES, max_size=4), max_size=3))
    def test_spliced_lists_give_the_text_of_json_dumps(self, payload, lists):
        def item(value):  # rendered as json.dumps(indent=2) renders it two levels deep
            return textwrap.indent(json.dumps(value, indent=2, sort_keys=True), "    ")
        payload = {k: v for k, v in payload.items() if k not in lists}
        want = json.dumps({**payload, **lists}, indent=2, sort_keys=True) + "\n"
        assert _json(payload, **{k: list(map(item, v)) for k, v in lists.items()}) == want

    def test_theory_reports_keep_their_bytes(self, triangle_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        for argv, report in [
            (["axioms", "--suite", "A3c", "--seed", "4", "--samples", "50", "--c", "1.5"],
             run_suite("A3c", alpha=1.0, count=50, seed=4, c=1.5)),
            (["extremal", "--network", triangle_file, "--step", "0.25"],
             verify_bipolar_max(parse_network_file(triangle_file), grid_step=0.25)),
        ]:
            assert main(argv + ["--out", str(out)]) == 0
            assert out.read_text() == report.to_json() + "\n"


@st.composite
def malformed_networks(draw):
    """A valid chain network with one defect that the reader must reject."""
    n = draw(st.integers(1, 4))
    weights = st.floats(0.0, 10.0)
    doc = {"nodes": [{"id": f"n{i}", "mass": draw(weights)} for i in range(n)],
           "edges": [{"u": f"n{i}", "v": f"n{i + 1}", "w": draw(weights)} for i in range(n - 1)]}
    rec = draw(st.sampled_from(doc["nodes"] + doc["edges"]))
    number = "mass" if "mass" in rec else "w"
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "document":
        return draw(JSON_VALUES.filter(lambda v: not isinstance(v, dict)))
    if kind == "not-a-list":
        doc[draw(st.sampled_from(["nodes", "edges"]))] = draw(
            JSON_VALUES.filter(lambda v: not isinstance(v, list)))
    elif kind == "missing-key":
        del rec[draw(st.sampled_from(sorted(rec)))]
    elif kind == "extra-key":
        target = draw(st.sampled_from([doc, rec]))
        target[draw(st.text(max_size=4).filter(lambda k: k not in target))] = draw(JSON_VALUES)
    elif kind == "wrong-type":
        rec[number] = draw(NOT_A_NUMBER)
    elif kind == "bad-number":
        rec[number] = draw(BAD_NUMBERS)
    elif kind == "non-string-id":
        rec[draw(st.sampled_from(["id"] if "id" in rec else ["u", "v"]))] = draw(NOT_A_STRING)
    elif kind == "unknown-endpoint":
        doc["edges"].append({"u": "n0", "v": "elsewhere", "w": 1.0})
    else:  # masses whose P_alpha overflows the float range
        for node in doc["nodes"]:
            node["mass"] = 1e308
    return doc


def _reject_constant(name):
    raise AssertionError(f"report holds the non-finite value {name}")


class TestMalformedInputFuzz:
    @given(doc=malformed_networks(), normalize=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_rejected_with_a_message_and_no_report(self, doc, normalize):
        with tempfile.TemporaryDirectory() as tmp:
            net, out = Path(tmp) / "net.json", Path(tmp) / "report.json"
            net.write_text(json.dumps(doc), encoding="utf-8")
            argv = ["compute", "--network", str(net), "--out", str(out)]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(argv + ["--normalize"] * normalize)
                except SystemExit as exc:
                    code = exc.code
            assert code in (1, 2)
            assert "Traceback" not in err.getvalue() and "error:" in err.getvalue()
            if out.exists():
                json.loads(out.read_text(encoding="utf-8"), parse_constant=_reject_constant)


# -- build inputs -----------------------------------------------------------------

# no lone surrogates (category Cs): a CSV field must encode as UTF-8
FIELD_TEXT = st.text(st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)),
                     max_size=3)


def _is_float(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


def _is_bit(s):
    try:
        return int(s) in (0, 1)
    except ValueError:
        return False


def _vote_table(draw, kind):
    k, n = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    with_party = kind == "parties" or draw(st.booleans())
    parties = ["p0", "p1"] + [draw(st.sampled_from(["p0", "p1", "p2"])) for _ in range(n - 2)]
    head = ["voter"] + ["party"] * with_party
    rows = [head + [f"b{j}" for j in range(k)]]
    rows += [[f"v{i}"] + [parties[i]] * with_party
             + [draw(st.sampled_from("01")) for _ in range(k)] for i in range(n)]
    defect = draw(st.sampled_from(
        ["bad-first-column", "no-bills", "ragged-row", "non-binary", "duplicate-voter",
         "no-voters", "empty-file"]
        + {"votes": ["too-many-bills"], "reps": ["disconnected"], "cosponsor": ["disconnected"],
           "parties": ["one-party", "no-party-column"]}[kind]))
    first_bill, row = len(head), draw(st.integers(1, n))
    if defect == "bad-first-column":
        rows[0][0] = draw(FIELD_TEXT.filter(lambda s: s.strip() != "voter"))
    elif defect == "no-bills":
        rows = [r[:first_bill] for r in rows]
    elif defect == "ragged-row":
        rows[row] = rows[row][:-1] if draw(st.booleans()) else rows[row] + ["0"]
    elif defect == "non-binary":
        rows[row][draw(st.integers(first_bill, first_bill + k - 1))] = draw(
            FIELD_TEXT.filter(lambda s: not _is_bit(s)))
    elif defect == "duplicate-voter":
        rows[row][0] = rows[row % n + 1][0] if n > 1 else rows[row][0]
    elif defect == "no-voters":
        rows = rows[:1]
    elif defect == "empty-file":
        rows = []
    elif defect == "too-many-bills":
        rows = [r + [f"x{j}" if r is rows[0] else "0" for j in range(21)] for r in rows]
    elif defect == "disconnected":
        # reps: no agreement on any bill; cosponsor: no bill sponsored
        for r in rows[1:]:
            r[first_bill:] = rows[1][first_bill:]
        flip = {"0": "1", "1": "0"} if kind == "reps" else {"0": "0", "1": "0"}
        rows[n][first_bill:] = [flip[b] for b in rows[n][first_bill:]]
    elif defect == "one-party":
        for r in rows[1:]:
            r[1] = "p0"
    else:  # no-party-column
        rows = [r[:1] + r[2:] for r in rows]
    return rows


def _preference_table(draw, kind):
    alts = draw(st.lists(st.sampled_from("abcdefgh"), min_size=2, max_size=4, unique=True))
    ballots = [[">".join(draw(st.permutations(alts))), str(draw(st.integers(1, 9)))]
               for _ in range(draw(st.integers(1, 4)))]
    rows = [["ranking", "count"]] + ballots
    defect = draw(st.sampled_from(["bad-header", "field-count", "bad-count", "not-a-permutation",
                                   "no-ballots", "too-many-alternatives", "empty-file"]))
    row = draw(st.integers(1, len(ballots)))
    if defect == "bad-header":
        rows[0] = draw(st.lists(FIELD_TEXT, max_size=3).filter(
            lambda h: [x.strip() for x in h] != ["ranking", "count"]))
    elif defect == "field-count":
        rows[row] = rows[row][:1] if draw(st.booleans()) else rows[row] + ["1"]
    elif defect == "bad-count":
        rows[row][1] = draw(st.sampled_from(["0", "-1", "-0.5", "nan", "inf", "-inf", "1e400"])
                            | FIELD_TEXT.filter(lambda s: not _is_float(s)))
    elif defect == "not-a-permutation":
        ranking = rows[row][0].split(">")
        ranking[0] = ranking[-1]
        rows[row][0] = ">".join(ranking)
    elif defect == "no-ballots":
        rows = rows[:1]
    elif defect == "too-many-alternatives":
        rows = rows[:1] + [[">".join(draw(st.permutations("abcdefgh"))), "1"]]
    else:  # empty-file
        rows = []
    return rows


def _point_table(draw, kind):
    dim, n = (1 if kind == "line" else draw(st.integers(1, 3))), draw(st.integers(2, 5))
    coords = draw(st.lists(st.tuples(*[st.integers(-9, 9)] * dim), min_size=n, max_size=n,
                           unique=True))
    rows = [[str(x) for x in c] + [str(draw(st.integers(0, 5)))] for c in coords]
    defect = draw(st.sampled_from(
        ["non-numeric", "too-few-fields", "duplicate-position", "non-finite-coordinate",
         "negative-mass", "nan-mass", "mixed-dimensions", "empty-file"]
        + {"line": ["two-dimensional", "huge-coordinates"], "complete": ["one-point"],
           "lattice": ["huge-coordinates"]}[kind]))
    row = draw(st.integers(1, n - 1))  # the first row may be read as a header
    if defect == "non-numeric":
        rows[row][draw(st.integers(0, dim))] = draw(FIELD_TEXT.filter(lambda s: not _is_float(s)))
    elif defect == "too-few-fields":
        rows[row] = rows[row][:1]
    elif defect == "duplicate-position":
        rows[row][:dim] = rows[0][:dim]
    elif defect == "non-finite-coordinate":
        rows[row][draw(st.integers(0, dim - 1))] = draw(
            st.sampled_from(["nan", "inf", "-inf", "1e400"]))
    elif defect == "negative-mass":
        rows[row][-1] = "-1"
    elif defect == "nan-mass":
        rows[row][-1] = "nan"
    elif defect == "mixed-dimensions":
        rows[row] = ["0"] + rows[row]
    elif defect == "empty-file":
        rows = []
    elif defect == "two-dimensional":
        rows = [["0"] + r for r in rows]
    elif defect == "huge-coordinates":  # two points whose distance overflows
        rows = [["-1e308"] + rows[0][1:], ["1e308"] + rows[row][1:]]
    else:  # one-point
        rows = rows[:1]
    if rows and draw(st.booleans()):
        rows.insert(0, [f"x{j}" for j in range(dim)] + ["mass"])
    return rows


BUILD_TABLES = {"votes": _vote_table, "reps": _vote_table, "cosponsor": _vote_table,
                "parties": _vote_table, "prefs": _preference_table, "line": _point_table,
                "complete": _point_table, "lattice": _point_table}


@st.composite
def malformed_build_inputs(draw):
    """A build kind and a CSV file with one defect that it must reject."""
    kind = draw(st.sampled_from(sorted(BUILD_TABLES)))
    data = "".join(",".join(r) + "\r\n" for r in BUILD_TABLES[kind](draw, kind)).encode()
    if draw(st.integers(0, 5)) == 0:  # never valid UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xfe", b"\xc3("])) + data[at:]
    return kind, data


class TestMalformedBuildInputFuzz:
    @given(case=malformed_build_inputs())
    @example(case=("votes", None))  # no such file
    @example(case=("votes", b"\xff\xfevoter,b1\r\na,1\r\n"))
    @example(case=("prefs", "ranking,count\r\nb>a,1\r\n".encode("utf-16")))
    @example(case=("lattice", b"0,0,1\r\n1,\xe9,1\r\n"))
    @settings(max_examples=250, deadline=None)
    def test_rejected_with_a_message_and_no_report(self, case):
        kind, data = case
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "input.csv", Path(tmp) / "net.json"
            if data is not None:
                path.write_bytes(data)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(["build", kind, "--input", str(path), "--out", str(out)])
                except SystemExit as exc:
                    code = exc.code
            assert code in (1, 2)
            assert "Traceback" not in err.getvalue() and "error:" in err.getvalue()
            assert not out.exists()


class TestCheckedWhereDefined:
    @pytest.mark.parametrize("K", ["-1", "0", "nan", "inf"])
    def test_axioms_K_outside_its_domain_is_one_error_line(self, K, tmp_path, capsys):
        out = tmp_path / "axioms.json"
        assert main(["axioms", "--suite", "A2", "--seed", "1", "--samples", "20", "--K", K,
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: K must be positive and finite, got {float(K)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, c_list", [([], [2.0]), (["--c", "1.5"], [1.5]),
                                              (["--c-list", "1.5"], [1.5]),
                                              (["--c", "1.2", "1.5"], [1.2, 1.5])],
                             ids=["default", "c", "c-list", "c-two"])
    def test_alpha_bounds_echoes_the_c_it_used(self, argv, c_list, tmp_path, capsys):
        # --c and --c-list are two spellings of one option
        out = tmp_path / "ab.json"
        assert main(["alpha-bounds", *argv, "--tol", "1e-6", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert "c" not in report["config"]
        assert report["config"]["c_list"] == c_list
        assert [iv["c"] for iv in report["intervals"]] == c_list

    def test_importing_the_cli_leaves_scipy_optimize_unloaded(self):
        # only the exponent bounds' root searches import it, when they run
        env = {**os.environ, "PYTHONPATH": str(Path(netpolar.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, netpolar.cli; "
                                   "print('scipy.optimize' in sys.modules)"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"
