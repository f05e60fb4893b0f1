"""One workload's closed loop: a single client calling ``netpolar.cli.main``.

Run by ``run.py`` in a fresh process per workload::

    python3 bench/worker.py PLAN.json RESULT.json

``PLAN.json`` holds the op cycle, the run length and the trace flag; the
worker runs in the directory that holds the generated inputs.  Every op's
report is hashed after the op, outside the timed region; the first report of
each op key is kept under ``kept/`` for ``run.py`` to check against the
reference.  With tracing on, the worker alternates whole op cycles: one
cycle through ``cli.main``, untraced, then the same cycle replayed through
``replay_op``, which calls the layers' public functions in the order ``cli``
calls them and records one span per call.  Per-layer totals are divided by
the number of cycles, so they measure a fixed amount of work.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import shutil
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np
from netpolar import builders, cli
from netpolar.alpha_bounds import AlphaInterval, alpha_lower, alpha_upper
from netpolar.axioms import run_suite
from netpolar.extremal import counterexample_search, verify_bipolar_max
from netpolar.graph import geodesic_distances, network_from_dict, network_to_dict
from netpolar.measures import MeasureParams, normalized_polarization, polarization

BUILD_CALLS = {
    "line": (builders.load_mass_points_csv, builders.build_line),
    "lattice": (builders.load_mass_points_csv, builders.build_lattice),
    "votes": (builders.load_votes_csv, builders.build_vote_hypercube),
    "reps": (builders.load_votes_csv, builders.build_representatives),
    "parties": (builders.load_votes_csv, builders.build_parties),
    "cosponsor": (builders.load_votes_csv, builders.build_cosponsorship),
    "prefs": (builders.load_preferences_csv, builders.build_preference_kemeny),
}
SUITES = ("A1", "A2", "A3", "A3c")
Render = Callable[[], str]  # builds the report text; timed as cli.write
_REF_MATRIX = np.random.default_rng(0).random((300, 300))


def _sha(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


class Tracer:
    """Spans (name, start, end, op id) and counters, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()  # name -> max bytes
        self.measured: set[tuple[str, str]] = set()

    @contextlib.contextmanager
    def span(self, name: str, op: int):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter(), op))

    def call_peak(self, name: str, op: int, input_key: str, fn, *args, **kwargs):
        """A span around ``fn``, plus its peak traced bytes for each new input.

        ``tracemalloc`` slows Python-heavy calls (the simplex grid about
        doubles), so the peak comes from one extra call per distinct input,
        whose ``trace.probe`` span is left out of the op time; the layer's
        span covers a call with ``tracemalloc`` off.
        """
        if (name, input_key) not in self.measured:
            self.measured.add((name, input_key))
            tracemalloc.start()
            try:
                with self.span("trace.probe", op):
                    fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.peaks[name] = max(self.peaks[name], peak)
        with self.span(name, op):
            return fn(*args, **kwargs)


# -- traced replay --------------------------------------------------------------

def _render(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _config(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "func"}


def _read_network(tr: Tracer, op: int, args):
    with tr.span("cli.read", op):
        raw = json.loads(Path(args.network).read_text(encoding="utf-8"))
    with tr.span("graph.validate", op):
        return network_from_dict(raw, allow_disconnected=args.allow_disconnected_longest_path)


def _apsp(tr: Tracer, op: int, args, net):
    dist = tr.call_peak("graph.apsp", op, args.network, geodesic_distances, net)
    tr.counts["graph.apsp_calls"] += 1
    tr.counts["graph.apsp_nodes"] += net.n
    tr.counts["graph.support_nodes"] += sum(1 for m in net.masses if m > 0)
    return dist


def _replay_compute(tr, op, args) -> Render:
    net = _read_network(tr, op, args)
    params = MeasureParams(K=args.K, alpha=args.alpha)
    dist = _apsp(tr, op, args, net)
    with tr.span("measures.eval", op):
        fn = normalized_polarization if args.normalize else polarization
        result = fn(net, params, dist)
    tr.counts["measures.calls"] += 1
    return lambda: _render({"config": _config(args), "result": result.to_dict()})


def _replay_distances(tr, op, args) -> Render:
    net = _read_network(tr, op, args)
    dist = _apsp(tr, op, args, net)
    if args.format == "csv":
        def render():
            rows = ["," + ",".join(dist.ids)]
            rows += [i + "," + ",".join(f"{x:.12g}" for x in row)
                     for i, row in zip(dist.ids, dist.d)]
            return "\n".join(rows) + "\n"
        return render
    return lambda: _render({
        "config": _config(args),
        "order": list(dist.ids),
        "d": [[float(x) for x in row] for row in dist.d],
        "diameter": dist.diameter,
        "diameter_pair": list(dist.diameter_pair) if dist.diameter_pair else None,
    })


def _replay_build(tr, op, args) -> Render:
    load, build = BUILD_CALLS[args.kind]
    with tr.span("builders.load", op):
        data = load(args.input)
    kwargs = {"lattice": {"norm": args.norm}, "parties": {"tie_rule": args.tie_rule}}
    with tr.span(f"builders.build.{args.kind}", op):
        net = build(data, **kwargs.get(args.kind, {}))
    tr.counts["builders.nodes_out"] += net.n
    tr.counts["builders.edges_out"] += len(net.edges)
    return lambda: _render(network_to_dict(net))


def _replay_axioms(tr, op, args) -> Render:
    with tr.span(f"axioms.suite.{args.suite}", op):
        report = run_suite(args.suite, alpha=args.alpha, count=args.samples,
                           seed=args.seed, c=args.c, K=args.K)
    tr.counts["axioms.samples"] += report.samples
    return lambda: report.to_json() + "\n"


def _replay_alpha_bounds(tr, op, args) -> Render:
    intervals = []
    for c in args.c_list if args.c_list else [args.c]:
        with tr.span("alpha_bounds.lower", op):
            lower = alpha_lower(c, args.tol)
        with tr.span("alpha_bounds.upper", op):
            upper = alpha_upper(c, args.tol)
        interval = AlphaInterval(c, lower, upper, args.tol)
        if not interval.contains(1.0):
            raise AssertionError(f"alpha = 1 outside {interval}")
        intervals.append(interval)
    tr.counts["alpha_bounds.intervals"] += len(intervals)
    if args.format == "csv":
        def render():
            lines = ["c,alpha_lower,alpha_upper"]
            for iv in intervals:
                lo = "" if iv.lower is None else f"{iv.lower:.12g}"
                lines.append(f"{iv.c:g},{lo},{iv.upper:.12g}")
            return "\n".join(lines) + "\n"
        return render
    return lambda: _render({"config": _config(args),
                            "intervals": [iv.to_dict() for iv in intervals]})


def _replay_extremal(tr, op, args) -> Render:
    net = _read_network(tr, op, args)
    report = tr.call_peak("extremal.verify", op, f"{args.network} {args.step}",
                          verify_bipolar_max, net, alpha=args.alpha, grid_step=args.step)
    units = round(1.0 / args.step)
    tr.counts["extremal.grid_points"] += math.comb(units + net.n - 1, net.n - 1)
    return lambda: report.to_json() + "\n"


def _replay_counterexample(tr, op, args) -> Render:
    with tr.span("extremal.counterexample", op):
        witness = counterexample_search(args.alpha)
    return lambda: _render({"config": _config(args), "witness": witness})


REPLAY = {
    "compute": _replay_compute,
    "distances": _replay_distances,
    "build": _replay_build,
    "axioms": _replay_axioms,
    "alpha-bounds": _replay_alpha_bounds,
    "extremal": _replay_extremal,
    "counterexample": _replay_counterexample,
}


def replay_op(tr: Tracer, op: int, argv: list[str]) -> None:
    """Do what ``cli.main(argv)`` does, one span per layer call."""
    with tr.span("op", op):
        with tr.span("cli.parse", op):
            args = cli.build_parser().parse_args(argv)
        render = REPLAY[args.command](tr, op, args)
        with tr.span("cli.write", op):
            text = render()
            Path(args.out).write_text(text, encoding="utf-8")
        tr.counts["cli.report_bytes"] += len(text.encode("utf-8"))


# -- the loop -------------------------------------------------------------------

def _call_cli(argv: list[str]) -> tuple[int | None, str | None]:
    """``cli.main`` with stdout and stderr captured; failures counted, not raised."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv), None
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2, sink.getvalue()[-300:]
    except Exception as exc:  # noqa: BLE001 - an op failure is a result here
        return None, repr(exc)


def reference_kernel() -> float:
    """Seconds taken by a fixed job: a numpy min-plus sweep, then a Python loop.

    On a shared virtual machine the CPU's speed can drift by tens of percent
    over minutes.  This job is timed after every op; it drifts with the ops,
    so op times divided by its time stay steady while the program is unchanged.
    The Python loop takes about twice as long as the numpy part: of the
    weights tried, that one tracked both numpy-bound and Python-bound ops.
    """
    start = time.perf_counter()
    d = _REF_MATRIX.copy()
    for k in range(40):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    acc = 0
    for i in range(80000):
        acc += i * i % 7
    return time.perf_counter() - start


def run_loop(ops: list[dict], seconds: float, keep: Path, max_ops: int | None = None):
    """Closed loop over the op cycle until ``seconds`` of timed wall time pass.

    The loop stops only between cycles, so every run has the same op mix.
    Hashing and keeping reports, and the reference kernel after each op,
    happen between ops and are excluded from the wall time.
    """
    records, kept = [], set()
    paused = 0.0
    t0 = time.perf_counter()
    for i, op in enumerate(itertools.cycle(ops)):
        if max_ops is not None and i >= max_ops:
            break
        if (max_ops is None and i % len(ops) == 0
                and time.perf_counter() - t0 - paused >= seconds):
            break
        out = Path(op["out"])
        p0 = time.perf_counter()
        out.unlink(missing_ok=True)
        paused += time.perf_counter() - p0
        start = time.perf_counter()
        code, error = _call_cli(op["argv"])
        end = time.perf_counter()
        sha = _sha(out)
        if sha is not None and op["key"] not in kept:
            shutil.copyfile(out, keep / op["key"])
            kept.add(op["key"])
        records.append({"i": i, "key": op["key"], "t": end - start, "code": code,
                        "error": error, "sha": sha, "ref": reference_kernel()})
        paused += time.perf_counter() - end
    wall = time.perf_counter() - t0 - paused
    return records, wall


def replay_cycle(tr: Tracer, ops: list[dict], records: list[dict]) -> list[dict]:
    """Replay the ops of ``records`` in order, traced; return the mismatches."""
    mismatches = []
    for rec, op in zip(records, ops):
        out = Path(op["out"])
        out.unlink(missing_ok=True)
        try:
            replay_op(tr, rec["i"], op["argv"])
        except Exception as exc:  # noqa: BLE001 - a replay failure is a result here
            mismatches.append({"i": rec["i"], "key": rec["key"], "error": repr(exc)})
            continue
        if _sha(out) != rec["sha"]:
            mismatches.append({"i": rec["i"], "key": rec["key"],
                               "error": "replayed report differs from cli.main's"})
    return mismatches


def run_paired(ops: list[dict], seconds: float, keep: Path):
    """Whole cycles, each untraced then traced, within ``seconds`` (at least one).

    Both sides run the same ops close together in time, so their ratio is
    the tracing overhead rather than the machine's drift.  No pair starts
    that would, at the last pair's pace, end after ``seconds``.
    """
    tr, records, mismatches, cycles, pair_s = Tracer(), [], [], 0, 0.0
    t0 = time.perf_counter()
    while not cycles or time.perf_counter() - t0 + pair_s <= seconds:
        p0 = time.perf_counter()
        cycle, _ = run_loop(ops, math.inf, keep, max_ops=len(ops))
        for rec in cycle:
            rec["i"] += cycles * len(ops)
        mismatches += replay_cycle(tr, ops, cycle)
        records += cycle
        cycles += 1
        pair_s = time.perf_counter() - p0
    return records, tr, mismatches, cycles


def layer_metrics(tr: Tracer, untraced_total: float,
                  cycles: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans and counters of a traced replay.

    Times and counts are per op cycle; shares, peaks and ratios are not.
    """
    busy: Counter = Counter()
    for name, start, end, _ in tr.spans:
        busy[name] += end - start
    op_total = busy.pop("op") - busy.pop("trace.probe", 0.0)
    layer_busy: Counter = Counter()
    for name, t in busy.items():
        layer_busy[name.split(".")[0]] += t
    c, mb = tr.counts, 1.0 / 2 ** 20

    def secs(span: str) -> tuple[float, str]:
        return busy[span] / cycles, "s/cycle"

    def count(counter: str) -> tuple[float, str]:
        return c[counter] / cycles, "count/cycle"

    m = {
        "cli.read_s": secs("cli.read"),
        "cli.write_s": secs("cli.write"),
        "cli.report_bytes": (c["cli.report_bytes"] / cycles, "bytes/cycle"),
        "graph.validate_s": secs("graph.validate"),
        "graph.apsp_s": secs("graph.apsp"),
        "graph.apsp_calls": count("graph.apsp_calls"),
        "graph.apsp_nodes": count("graph.apsp_nodes"),
        "graph.support_share": (c["graph.support_nodes"] / c["graph.apsp_nodes"]
                                if c["graph.apsp_nodes"] else 0.0, "ratio"),
        "graph.apsp_peak_mb": (tr.peaks["graph.apsp"] * mb, "MB"),
        "measures.eval_s": secs("measures.eval"),
        "measures.calls": count("measures.calls"),
        "builders.load_s": secs("builders.load"),
        **{f"builders.build_s.{k}": secs(f"builders.build.{k}") for k in BUILD_CALLS},
        "builders.nodes_out": count("builders.nodes_out"),
        "builders.edges_out": count("builders.edges_out"),
        **{f"axioms.suite_s.{s}": secs(f"axioms.suite.{s}") for s in SUITES},
        "axioms.samples": count("axioms.samples"),
        "alpha_bounds.lower_s": secs("alpha_bounds.lower"),
        "alpha_bounds.upper_s": secs("alpha_bounds.upper"),
        "alpha_bounds.intervals": count("alpha_bounds.intervals"),
        "extremal.verify_s": secs("extremal.verify"),
        "extremal.counterexample_s": secs("extremal.counterexample"),
        "extremal.grid_points": count("extremal.grid_points"),
        "extremal.verify_peak_mb": (tr.peaks["extremal.verify"] * mb, "MB"),
    }
    for layer in ("cli", "graph", "measures", "builders", "axioms", "alpha_bounds", "extremal"):
        m[f"{layer}.share"] = (layer_busy[layer] / op_total, "ratio")
    m["trace.overhead_ratio"] = (op_total / untraced_total, "ratio")
    m["trace.unattributed_share"] = (1.0 - sum(layer_busy.values()) / op_total, "ratio")
    return m


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MB.

    ``ru_maxrss`` keeps the parent's peak across ``exec`` on Linux; ``VmHWM``
    belongs to the process's own address space, which ``exec`` replaces.
    """
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("plan")
    ap.add_argument("result")
    a = ap.parse_args(argv)
    plan = json.loads(Path(a.plan).read_text(encoding="utf-8"))
    ops, seconds, trace = plan["ops"], plan["seconds"], plan["trace"]
    keep = Path("kept")
    keep.mkdir(exist_ok=True)
    if trace:
        records, tr, mismatches, cycles = run_paired(ops, seconds, keep)
        result = {"records": records, "replay_mismatches": mismatches, "spans": tr.spans,
                  "layers": layer_metrics(tr, sum(r["t"] for r in records), cycles)}
    else:
        records, wall = run_loop(ops, seconds, keep, plan["max_ops"])
        result = {"records": records, "wall_s": wall, "peak_rss_mb": peak_rss_mb()}
    Path(a.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
