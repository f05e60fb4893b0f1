"""End-to-end exercises of the command-line interface."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netpolar
from netpolar.cli import main

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

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


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
