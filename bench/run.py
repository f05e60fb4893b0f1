"""Seeded end-to-end benchmark of the netpolar command line.

Run from the repository root::

    python3 bench/run.py --workload graph-json --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

The workload seed generates every input file; the program under test sees
only those files.  Each workload runs in its own worker process (see
``worker.py``): one client in a closed loop calling ``netpolar.cli.main``.
Afterwards every report is checked against an independent reference (see
``workloads.py``), outside the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates whole
op cycles through ``cli.main`` with traced replays of them through the layers'
public functions, prints the per-layer metrics, and writes the spans to
``bench/results/``.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
# fresh interpreters timed for setup_s; one more runs first and is discarded,
# because it compiles the package's bytecode, which a user pays only once
SETUP_PROBES = 5
# an op's time is divided by the median reference-kernel time of the ops
# within this many places of it, so the divisor follows the machine's drift
REF_WINDOW = 5
SETUP_CODE = ("import time; t = time.perf_counter(); import netpolar.cli as c; "
              "c.build_parser(); print(time.perf_counter() - t)")


def _env() -> dict:
    # one BLAS thread (nproc is 2 here), so runs do not contend with themselves
    threads = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {**os.environ, **threads, "PYTHONPATH": str(SRC)}


def measure_setup() -> float:
    """Median time to import ``netpolar.cli`` and build its parser, fresh each time."""
    times = []
    for k in range(SETUP_PROBES + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env(), cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        if k:
            times.append(float(out.stdout))
    return statistics.median(times)


def ref_ratios(records: list[dict]) -> list[float]:
    """Each op's time over the reference-kernel time around it (see worker.py)."""
    ref = [r["ref"] for r in records]
    return [r["t"] / statistics.median(ref[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            for i, r in enumerate(records)]


def verify(wl, records: list[dict], kept: Path) -> list[str]:
    """One line per failed op: nonzero exit, exception, or reference mismatch.

    The first report of each op key is checked in full; every later report
    of that key must be byte-identical to it.
    """
    good_sha, reasons = {}, {}
    for key in dict.fromkeys(r["key"] for r in records):
        path = kept / key
        try:
            wl.check(key, path)
            good_sha[key] = hashlib.sha256(path.read_bytes()).hexdigest()
        except Exception as exc:  # noqa: BLE001 - every checker error is a failed op
            reasons[key] = f"{type(exc).__name__}: {exc}"
    failed = []
    for r in records:
        if r["code"] != 0 or r["error"]:
            failed.append(f"op {r['i']} {r['key']}: exit {r['code']}: {r['error']}")
        elif r["sha"] != good_sha.get(r["key"]):
            why = reasons.get(r["key"], "report differs from the checked report")
            failed.append(f"op {r['i']} {r['key']}: {why}")
    return failed


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 max_ops: int | None = None) -> dict:
    """Generate, run and check one workload; return the result object.

    ``max_ops`` stops an untraced run after that many ops instead of after
    ``seconds``; a traced run always does whole cycles.
    """
    from workloads import WORKLOADS

    workdir = BENCH / ".work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_s = None if trace else measure_setup()
        wl = WORKLOADS[name](seed, workdir)
        plan = {"ops": wl.ops, "seconds": seconds, "trace": trace, "max_ops": max_ops}
        (workdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        subprocess.run([sys.executable, str(BENCH / "worker.py"), "plan.json", "result.json"],
                       cwd=workdir, env=_env(), timeout=seconds + 100, check=True)
        res = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
        records = res["records"]
        failed = verify(wl, records, workdir / "kept")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times, raw = [r["t"] for r in records], {}
    if trace:
        failed += [f"replay op {m['i']} {m['key']}: {m['error']}"
                   for m in res["replay_mismatches"]]
        metrics = res["layers"]
        attempted = 2 * len(records)
        RESULTS.mkdir(exist_ok=True)
        spans = [{"name": n, "start": s, "end": e, "op": op} for n, s, e, op in res["spans"]]
        (RESULTS / f"trace-{name}-seed{seed}.json").write_text(json.dumps(
            {"workload": name, "seed": seed, "metrics": metrics, "spans": spans}),
            encoding="utf-8")
    else:
        attempted = len(records)
        completed = attempted - len(failed)
        ratios = ref_ratios(records)
        raw = {
            "ops_per_s": (completed / res["wall_s"], "ops/s"),
            "op_s_p50": (statistics.median(times), "s"),
            "op_s_p90": (statistics.quantiles(times, n=10)[-1], "s"),
            "ref_s": (statistics.median(r["ref"] for r in records), "s"),
        }
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_ref": (completed / attempted / statistics.fmean(ratios), "ops/ref"),
            "op_p50_ref": (statistics.median(ratios), "ref"),
            "op_p90_ref": (statistics.quantiles(ratios, n=10)[-1], "ref"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    for line in failed[:20]:
        print(f"[{name}] FAILED {line}", file=sys.stderr)
    print(f"[{name}] seed={seed} ops={attempted} "
          f"failed_op_ratio={len(failed) / attempted:.6g} ratio")
    for key, (value, unit) in {**raw, **metrics}.items():
        print(f"[{name}] {key}={value:.6g} {unit}")
    return {"correct": not failed, "attempted": attempted, "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Seeded end-to-end benchmark of the netpolar CLI")
    ap.add_argument("--workload", required=True,
                    choices=["graph-json", "roll-call-build", "theory", "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args(argv)
    if not (SRC / "netpolar" / "cli.py").is_file():
        print(f"error: no netpolar sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = ["graph-json", "roll-call-build", "theory"] if a.workload == "all" else [a.workload]
    results = {n: run_workload(n, a.seed, a.seconds, bool(a.trace)) for n in names}
    print(json.dumps(results[a.workload] if a.workload != "all" else {"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
