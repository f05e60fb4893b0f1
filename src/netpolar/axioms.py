"""Numerical checks of the three axiom families on small scenarios.

Each scenario is a two- or three-point configuration given by masses and
pairwise geodesic distances; both sides of an axiom's conclusion are
evaluated as explicit P_alpha sums and compared.  Randomized suites sample
valid scenarios from fixed log-uniform intervals and report the first
failing witness.  Scenarios check themselves when they are made.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .alpha_bounds import f_eval
from .errors import ConvergenceFailureError, DomainError
from .measures import check_params

MAX_A1_DRAWS = 100_000  # draws per A1 scenario before the sampler gives up
MASS_RANGE = (0.1, 10.0)  # log-uniform range of the sampled masses
DIST_RANGE = (0.1, 10.0)  # log-uniform range of the sampled distances
C_BAR_MAX = 2.0  # c_bar is drawn from (1, 2), or from [c, 2) under A3c


@dataclass(frozen=True)
class AxiomScenario:
    """One concrete instance of an axiom's antecedent.

    A1 uses masses (p, q, q) at distances (d_xy, d_xz, d_yz) and merges the
    two small groups.  A2 uses masses (p, q, r) and shifts the middle group
    by ``perturbation`` toward the smaller extreme.  A3/A3c use masses
    (p, q, q) with d_xy = d_xz = d, d_yz = c_bar * d, and move
    ``perturbation`` mass from the middle to each lateral node.
    """

    kind: str
    alpha: float
    p: float
    q: float
    r: float | None = None
    d_xy: float | None = None
    d_xz: float | None = None
    d_yz: float | None = None
    d: float | None = None
    c_bar: float | None = None
    perturbation: float | None = None
    c_threshold: float | None = None

    def __post_init__(self):
        check_params(alpha=self.alpha)
        if self.kind == "A1":
            if not (self.p > self.q > 0):
                raise DomainError("A1 needs pi_x > pi_y = pi_z > 0")
            if None in (self.d_xy, self.d_xz, self.d_yz):
                raise DomainError("A1 needs d_xy, d_xz, d_yz")
            if not (0 < self.d_xy <= self.d_xz) or self.d_yz < 0:
                raise DomainError("A1 needs 0 < d_xy <= d_xz and d_yz >= 0")
        elif self.kind == "A2":
            if self.r is None or not (self.p > self.r > 0) or not self.q > 0:
                raise DomainError("A2 needs pi_x > pi_z > 0 and pi_y > 0")
            if None in (self.d_xy, self.d_xz, self.d_yz):
                raise DomainError("A2 needs d_xy, d_xz, d_yz")
            if not (self.d_xz > self.d_xy > self.d_yz > 0):
                raise DomainError("A2 needs d_xz > d_xy > d_yz > 0")
            delta = self.perturbation
            if delta is None or not 0 < delta:
                raise DomainError("A2 needs a positive shift")
            if not (self.d_xy + delta < self.d_xz and self.d_yz - delta > 0):
                raise DomainError("A2 shift outside the admissible window")
        elif self.kind in ("A3", "A3c"):
            if not (self.p > 0 and self.q > 0):
                raise DomainError("A3 needs positive masses")
            if self.d is None or not self.d > 0:
                raise DomainError("A3 needs d > 0")
            if self.c_bar is None or not self.c_bar > 1:
                raise DomainError("A3 needs lateral ratio c_bar > 1")
            delta = self.perturbation
            if delta is None or not (0 < delta <= self.p / 2):
                raise DomainError("A3 needs reallocation in (0, pi_x / 2]")
            if self.kind == "A3c" and self.c_threshold is None:
                raise DomainError("A3c needs a threshold c")
            if self.kind == "A3c" and self.c_bar < self.c_threshold:
                raise DomainError(
                    f"lateral ratio {self.c_bar} below the fixed threshold {self.c_threshold}")
        else:
            raise DomainError(f"unknown scenario kind {self.kind!r}")


@dataclass(frozen=True)
class AxiomVerdict:
    before: float
    after: float
    satisfied: bool
    margin: float
    closed_form: bool | None = None  # A1: proof inequality cross-check
    f_value: float | None = None     # A3: local derivative sign carrier


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    alpha: float
    c: float | None
    samples: int
    failures: int
    seed: int
    witness: dict | None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _p3(masses, distances, alpha: float, K: float) -> float:
    """P_alpha of a three-point configuration with prescribed distances."""
    (mx, my, mz), (dxy, dxz, dyz) = masses, distances
    return K * (
        mx ** (1 + alpha) * (my * dxy + mz * dxz)
        + my ** (1 + alpha) * (mx * dxy + mz * dyz)
        + mz ** (1 + alpha) * (mx * dxz + my * dyz)
    )


def check_axiom1(s: AxiomScenario, K: float = 1.0) -> AxiomVerdict:
    """Merge the two small groups at their average distance from the big one.

    ``closed_form`` reports the proof's equivalent inequality
    (2^alpha - 1)(d_xy + d_xz) p > 2 q d_yz for cross-validation.
    """
    if s.kind != "A1":
        raise DomainError(f"expected kind A1, got {s.kind!r}")
    check_params(K=K)
    a = s.alpha
    before = _p3((s.p, s.q, s.q), (s.d_xy, s.d_xz, s.d_yz), a, K)
    d_merged = (s.d_xy + s.d_xz) / 2.0
    w = 2.0 * s.q
    after = K * (s.p ** (1 + a) * w + w ** (1 + a) * s.p) * d_merged
    margin = after - before
    closed = (2.0 ** a - 1.0) * (s.d_xy + s.d_xz) * s.p > 2.0 * s.q * s.d_yz
    return AxiomVerdict(before, after, margin > 0, margin, closed_form=closed)


def check_axiom2(s: AxiomScenario, K: float = 1.0) -> AxiomVerdict:
    """Shift the middle group toward the smaller extreme by the given step."""
    if s.kind != "A2":
        raise DomainError(f"expected kind A2, got {s.kind!r}")
    check_params(K=K)
    delta = s.perturbation
    masses = (s.p, s.q, s.r)
    before = _p3(masses, (s.d_xy, s.d_xz, s.d_yz), s.alpha, K)
    after = _p3(masses, (s.d_xy + delta, s.d_xz, s.d_yz - delta), s.alpha, K)
    margin = after - before
    return AxiomVerdict(before, after, margin > 0, margin)


def check_axiom3(s: AxiomScenario, K: float = 1.0) -> AxiomVerdict:
    """Move mass from the middle node to the two equidistant lateral nodes.

    ``f_value`` carries f(q/p, alpha, c_bar); a negative value predicts a
    local polarization increase for outward reallocation.
    """
    if s.kind not in ("A3", "A3c"):
        raise DomainError(f"expected kind A3 or A3c, got {s.kind!r}")
    check_params(K=K)
    delta = s.perturbation
    dists = (s.d, s.d, s.c_bar * s.d)
    before = _p3((s.p, s.q, s.q), dists, s.alpha, K)
    after = _p3((s.p - 2 * delta, s.q + delta, s.q + delta), dists, s.alpha, K)
    margin = after - before
    fval = float(f_eval(s.q / s.p, s.alpha, s.c_bar)) if s.c_bar <= 2.0 else None
    return AxiomVerdict(before, after, margin > 0, margin, f_value=fval)


_CHECKS = {"A1": check_axiom1, "A2": check_axiom2, "A3": check_axiom3, "A3c": check_axiom3}


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))


def _sample_scenario(kind: str, alpha: float, rng: np.random.Generator,
                     c_threshold: float | None) -> AxiomScenario:
    mlo, mhi = MASS_RANGE
    dlo, dhi = DIST_RANGE
    if kind == "A1":
        for _ in range(MAX_A1_DRAWS):
            p = _log_uniform(rng, mlo, mhi)
            q = p * rng.uniform(0.01, 0.99)
            d1 = _log_uniform(rng, dlo, dhi)
            d2 = _log_uniform(rng, dlo, dhi)
            d_xy, d_xz = min(d1, d2), max(d1, d2)
            # metric consistency: the three distances satisfy the triangle inequality
            d_yz = rng.uniform(d_xz - d_xy, d_xz + d_xy)
            # keep only draws that satisfy the proof's closed-form inequality
            if (2.0 ** alpha - 1.0) * (d_xy + d_xz) * p > 2.0 * q * d_yz:
                return AxiomScenario("A1", alpha, p, q, d_xy=d_xy, d_xz=d_xz, d_yz=d_yz)
        raise ConvergenceFailureError(
            f"A1 sampler accepted 0 of {MAX_A1_DRAWS} draws at alpha={alpha} "
            f"(observed acceptance rate 0, below {1 / MAX_A1_DRAWS:g})")
    if kind == "A2":
        p = _log_uniform(rng, mlo, mhi)
        r = p * rng.uniform(0.01, 0.99)
        q = _log_uniform(rng, mlo, mhi)
        d_xy = _log_uniform(rng, dlo, dhi)
        d_yz = d_xy * rng.uniform(0.05, 0.95)
        d_xz = rng.uniform(d_xy, d_xy + d_yz)  # triangle-consistent, d_xz > d_xy
        delta = rng.uniform(0.0, min(d_xz - d_xy, d_yz))
        delta = max(delta, 1e-9 * d_xy)
        return AxiomScenario("A2", alpha, p, q, r=r, d_xy=d_xy, d_xz=d_xz,
                             d_yz=d_yz, perturbation=delta)
    # A3 or A3c
    lo = c_threshold or 1.0
    if not lo < C_BAR_MAX:
        raise DomainError(f"threshold {lo} leaves no admissible c_bar below {C_BAR_MAX}")
    c_bar = rng.uniform(max(lo, np.nextafter(1.0, 2.0)), C_BAR_MAX)
    p = _log_uniform(rng, mlo, mhi)
    q = _log_uniform(rng, mlo, mhi)
    d = _log_uniform(rng, dlo, dhi)
    delta = p / 2.0 * rng.uniform(0.01, 1.0)
    return AxiomScenario(kind, alpha, p, q, d=d, c_bar=c_bar,
                         perturbation=delta, c_threshold=c_threshold)


def run_suite(
    axiom: str,
    alpha: float,
    count: int,
    seed: int,
    c: float | None = None,
    K: float = 1.0,
) -> AxiomReport:
    """Run ``count`` seeded random scenarios of one axiom and tally verdicts.

    The witness, when present, is the lowest-index failing scenario together
    with its verdict.  ``c`` is the A3c threshold; the other suites take none.
    """
    check_params(K, alpha)
    if count < 1:
        raise DomainError("count must be at least 1")
    if axiom not in _CHECKS:
        raise DomainError(f"unknown axiom {axiom!r}")
    if c is not None and axiom != "A3c":
        raise DomainError(f"c applies to the A3c suite only, got c={c} for {axiom}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    check = _CHECKS[axiom]
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
