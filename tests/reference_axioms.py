"""The per-sample axiom suites, kept as a reference.

``netpolar.axioms.run_suite`` draws and judges scenarios as arrays, a chunk
at a time.  These functions are the earlier implementation, one scalar draw
and one scalar check per scenario; the equivalence tests require the same
report, byte for byte, or the same error class and message, from both.
``MAX_A1_DRAWS`` is read from ``netpolar.axioms`` at each scenario, so a
test that patches it there patches both sides.
"""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np

import netpolar.axioms as axioms
from netpolar.axioms import (
    C_BAR_MAX,
    DIST_RANGE,
    MASS_RANGE,
    AxiomReport,
    AxiomScenario,
    _OVERFLOW,
)
from netpolar.errors import ConvergenceFailureError, DomainError
from netpolar.measures import _finite, check_params


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))


def _sample_scenario(kind: str, alpha: float, rng: np.random.Generator,
                     c_threshold: float | None) -> AxiomScenario:
    mlo, mhi = MASS_RANGE
    dlo, dhi = DIST_RANGE
    if kind == "A1":
        gain = _finite(lambda: 2.0 ** alpha - 1.0, _OVERFLOW.format(alpha))
        for _ in range(axioms.MAX_A1_DRAWS):
            p = _log_uniform(rng, mlo, mhi)
            q = p * rng.uniform(0.01, 0.99)
            d1 = _log_uniform(rng, dlo, dhi)
            d2 = _log_uniform(rng, dlo, dhi)
            d_xy, d_xz = min(d1, d2), max(d1, d2)
            d_yz = rng.uniform(d_xz - d_xy, d_xz + d_xy)
            if gain * (d_xy + d_xz) * p > 2.0 * q * d_yz:
                return AxiomScenario("A1", alpha, p, q, d_xy=d_xy, d_xz=d_xz, d_yz=d_yz)
        raise ConvergenceFailureError(
            f"A1 sampler accepted 0 of {axioms.MAX_A1_DRAWS} draws at alpha={alpha} "
            f"(observed acceptance rate 0, below {1 / axioms.MAX_A1_DRAWS:g})")
    if kind == "A2":
        p = _log_uniform(rng, mlo, mhi)
        r = p * rng.uniform(0.01, 0.99)
        q = _log_uniform(rng, mlo, mhi)
        d_xy = _log_uniform(rng, dlo, dhi)
        d_yz = d_xy * rng.uniform(0.05, 0.95)
        d_xz = rng.uniform(d_xy, d_xy + d_yz)
        delta = rng.uniform(0.0, min(d_xz - d_xy, d_yz))
        delta = max(delta, 1e-9 * d_xy)
        return AxiomScenario("A2", alpha, p, q, r=r, d_xy=d_xy, d_xz=d_xz,
                             d_yz=d_yz, perturbation=delta)
    c_bar = rng.uniform(c_threshold or np.nextafter(1.0, 2.0), C_BAR_MAX)
    p = _log_uniform(rng, mlo, mhi)
    q = _log_uniform(rng, mlo, mhi)
    d = _log_uniform(rng, dlo, dhi)
    delta = p / 2.0 * rng.uniform(0.01, 1.0)
    return AxiomScenario(kind, alpha, p, q, d=d, c_bar=c_bar,
                         perturbation=delta, c_threshold=c_threshold)


def run_suite(axiom: str, alpha: float, count: int, seed: int, c: float | None = None,
              K: float = 1.0) -> AxiomReport:
    check_params(K, alpha)
    if count < 1:
        raise DomainError("count must be at least 1")
    if axiom not in axioms._CHECKS:
        raise DomainError(f"unknown axiom {axiom!r}")
    if c is not None and axiom != "A3c":
        raise DomainError(f"c applies to the A3c suite only, got c={c} for {axiom}")
    if c is not None and not c < C_BAR_MAX:
        raise DomainError(f"threshold {c} leaves no admissible c_bar below {C_BAR_MAX}")
    if c is not None and not c > 1.0:
        raise DomainError(f"A3c needs a threshold c > 1, got c={c}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    check = axioms._CHECKS[axiom]
    rng = np.random.default_rng(seed)
    failures = 0
    witness = None
    for i in range(count):
        s = _sample_scenario(axiom, alpha, rng, c)
        verdict = check(s, K)
        if not verdict.satisfied:
            failures += 1
            if witness is None:
                witness = {"index": i, "scenario": asdict(s), "verdict": asdict(verdict)}
    return AxiomReport(axiom, alpha, c, count, failures, seed, witness)
