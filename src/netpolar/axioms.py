"""Numerical checks of the three axiom families on small scenarios.

Each scenario is a two- or three-point configuration given by masses and
pairwise geodesic distances; both sides of an axiom's conclusion are
evaluated as explicit P_alpha sums, written once per kind for one scenario
and for a chunk's columns alike, and compared.  Scenarios check themselves
when they are made.

Randomized suites sample scenarios from fixed log-uniform intervals and
report the failure count and the first failing witness.  They draw and judge
the scenarios as numpy arrays, CHUNK at a time, from the random stream that
one scalar draw per value would read.  The arrays settle each margin that
lies clearly away from 0; the scalar checks decide the margins within a
rounding band of 0 and the sides that are not finite, and make the witness.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .alpha_bounds import f_eval
from .errors import ConvergenceFailureError, DomainError
from .measures import _finite, check_params

MAX_A1_DRAWS = 100_000  # draws per A1 scenario before the sampler gives up
CHUNK = 1024  # scenarios (A1: attempts) drawn and judged in one array pass
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
            if self.perturbation is None or not 0 < self.perturbation:
                raise DomainError("A2 needs a positive shift")
            if not _a2_window(vars(self)):
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


# a side beyond the float range: formatted with alpha here, with its value by _finite
_OVERFLOW = "an axiom side evaluates to {{}} at alpha = {}: it overflows the float range"


def _p3_value(masses, distances, alpha: float, K: float):
    """P_alpha of a three-point configuration with prescribed distances.

    The masses and distances are floats, or columns of them.
    """
    (mx, my, mz), (dxy, dxz, dyz) = masses, distances
    return K * (
        mx ** (1 + alpha) * (my * dxy + mz * dxz)
        + my ** (1 + alpha) * (mx * dxy + mz * dyz)
        + mz ** (1 + alpha) * (mx * dxz + my * dyz)
    )


def _a1_closed_form(v, alpha: float):
    """The proof's A1 inequality (2^alpha - 1)(d_xy + d_xz) p > 2 q d_yz, as a thunk
    for its left side, which may overflow, and the value of its right side."""
    return (lambda: (2.0 ** alpha - 1.0) * (v["d_xy"] + v["d_xz"]) * v["p"],
            2.0 * v["q"] * v["d_yz"])


def _a2_window(v):
    """Whether the A2 shift keeps d_xy + delta < d_xz and d_yz - delta > 0."""
    return (v["d_xy"] + v["perturbation"] < v["d_xz"]) & (v["d_yz"] - v["perturbation"] > 0)


def _a1_sides(v, alpha: float, K: float):
    p, q, d_xy, d_xz = v["p"], v["q"], v["d_xy"], v["d_xz"]
    w = 2.0 * q  # the two masses q merged at their mean distance from p
    return (lambda: _p3_value((p, q, q), (d_xy, d_xz, v["d_yz"]), alpha, K),
            lambda: K * (p ** (1 + alpha) * w + w ** (1 + alpha) * p) * ((d_xy + d_xz) / 2.0))


def _a2_sides(v, alpha: float, K: float):
    masses, delta = (v["p"], v["q"], v["r"]), v["perturbation"]
    return (lambda: _p3_value(masses, (v["d_xy"], v["d_xz"], v["d_yz"]), alpha, K),
            lambda: _p3_value(masses, (v["d_xy"] + delta, v["d_xz"], v["d_yz"] - delta), alpha, K))


def _a3_sides(v, alpha: float, K: float):
    p, q, delta, d = v["p"], v["q"], v["perturbation"], v["d"]
    dists = (d, d, v["c_bar"] * d)
    return (lambda: _p3_value((p, q, q), dists, alpha, K),
            lambda: _p3_value((p - 2 * delta, q + delta, q + delta), dists, alpha, K))


# each kind's P_alpha before and after its move, as two thunks over the values
# of one scenario (floats) or of a chunk (columns)
_SIDES = {"A1": _a1_sides, "A2": _a2_sides, "A3": _a3_sides, "A3c": _a3_sides}


def _judged(s: AxiomScenario, kinds: tuple[str, ...], K: float) -> tuple:
    """Before, after, satisfied and margin of ``s``, which must be of one of ``kinds``;
    a side beyond the float range is a :class:`DomainError`."""
    if s.kind not in kinds:
        raise DomainError(f"expected kind {' or '.join(kinds)}, got {s.kind!r}")
    check_params(K=K)
    message = _OVERFLOW.format(s.alpha)
    before, after = (_finite(side, message) for side in _SIDES[s.kind](vars(s), s.alpha, K))
    return before, after, after - before > 0, after - before


def check_axiom1(s: AxiomScenario, K: float = 1.0) -> AxiomVerdict:
    """Merge the two small groups at their average distance from the big one.

    ``closed_form`` reports the proof's equivalent inequality
    (2^alpha - 1)(d_xy + d_xz) p > 2 q d_yz for cross-validation.
    """
    judged = _judged(s, ("A1",), K)
    gain, bound = _a1_closed_form(vars(s), s.alpha)
    return AxiomVerdict(*judged, closed_form=_finite(gain, _OVERFLOW.format(s.alpha)) > bound)


def check_axiom2(s: AxiomScenario, K: float = 1.0) -> AxiomVerdict:
    """Shift the middle group toward the smaller extreme by the given step."""
    return AxiomVerdict(*_judged(s, ("A2",), K))


def check_axiom3(s: AxiomScenario, K: float = 1.0) -> AxiomVerdict:
    """Move mass from the middle node to the two equidistant lateral nodes.

    ``f_value`` carries f(q/p, alpha, c_bar); a negative value predicts a
    local polarization increase for outward reallocation.  It is ``None``
    when c_bar > 2, outside f's domain, and when f is not finite: at large
    alpha its powers of q/p overflow.
    """
    judged = _judged(s, ("A3", "A3c"), K)
    fval = math.nan
    if s.c_bar <= 2.0:
        with np.errstate(over="ignore", invalid="ignore"):
            fval = float(f_eval(s.q / s.p, s.alpha, s.c_bar))
    return AxiomVerdict(*judged, f_value=fval if math.isfinite(fval) else None)


_CHECKS = {"A1": check_axiom1, "A2": check_axiom2, "A3": check_axiom3, "A3c": check_axiom3}

# An array side differs from its scalar value only where numpy's power rounds
# x ** y to another float than float.__pow__ does, by a unit in the last place
# (2^-52 relative).  The sums of positive terms carry that into each side as a
# few units, plus, where a power is subnormal, a few units of 2^-1074 scaled by
# K.  A margin beyond _BAND (|before| + |after|) + _FLOOR (1 + K) from 0 thus
# has the scalar sign, with a factor of hundreds to spare; the scalar check
# decides the rest.  A side that is not finite gives no margin beyond the band.
_BAND = 2.0 ** -40
_FLOOR = 2.0 ** -1000


def _uniform(u, lo, hi):
    """``rng.uniform(lo, hi)`` given the draw ``u`` it takes: the same operations and bits."""
    return lo + (hi - lo) * u


def _exp_uniform(u, lo: float, hi: float):
    """Log-uniform on [lo, hi) given the draw ``u``."""
    return np.exp(_uniform(u, math.log(lo), math.log(hi)))


def _a1_columns(u) -> dict:
    p = _exp_uniform(u[0], *MASS_RANGE)
    q = p * _uniform(u[1], 0.01, 0.99)
    d1, d2 = _exp_uniform(u[2], *DIST_RANGE), _exp_uniform(u[3], *DIST_RANGE)
    d_xy, d_xz = np.minimum(d1, d2), np.maximum(d1, d2)
    # metric consistency: the three distances satisfy the triangle inequality
    d_yz = _uniform(u[4], d_xz - d_xy, d_xz + d_xy)
    return {"p": p, "q": q, "d_xy": d_xy, "d_xz": d_xz, "d_yz": d_yz}


def _a2_columns(u) -> dict:
    p = _exp_uniform(u[0], *MASS_RANGE)
    r = p * _uniform(u[1], 0.01, 0.99)
    q = _exp_uniform(u[2], *MASS_RANGE)
    d_xy = _exp_uniform(u[3], *DIST_RANGE)
    d_yz = d_xy * _uniform(u[4], 0.05, 0.95)
    d_xz = _uniform(u[5], d_xy, d_xy + d_yz)  # triangle-consistent, d_xz > d_xy
    delta = np.maximum(_uniform(u[6], 0.0, np.minimum(d_xz - d_xy, d_yz)), 1e-9 * d_xy)
    return {"p": p, "q": q, "r": r, "d_xy": d_xy, "d_xz": d_xz, "d_yz": d_yz,
            "perturbation": delta}


def _a3_columns(u, c_threshold: float | None) -> dict:
    # run_suite has checked that 1 < c_threshold < C_BAR_MAX
    c_bar = _uniform(u[0], c_threshold or np.nextafter(1.0, 2.0), C_BAR_MAX)
    p = _exp_uniform(u[1], *MASS_RANGE)
    return {"p": p, "q": _exp_uniform(u[2], *MASS_RANGE), "d": _exp_uniform(u[3], *DIST_RANGE),
            "c_bar": c_bar, "perturbation": p / 2.0 * _uniform(u[4], 0.01, 1.0)}


def _chunks(kind: str, alpha: float, count: int, c_threshold: float | None,
            rng: np.random.Generator):
    """The suite's scenarios as columns, at most CHUNK rows at a time, in draw order.

    Each scenario takes its draws, one ``rng.random()`` each, in the order of
    its columns, so row-major blocks of draws give the same scenarios as one
    scalar draw at a time.  Yields ``(columns, error)``: ``error``, when set,
    is what drawing the next scenario raises, due once these rows are checked.
    """
    if kind != "A1":
        for start in range(0, count, CHUNK):
            u = rng.random((min(CHUNK, count - start), 7 if kind == "A2" else 5)).T
            yield (_a2_columns(u) if kind == "A2" else _a3_columns(u, c_threshold)), None
        return
    _finite(lambda: 2.0 ** alpha - 1.0, _OVERFLOW.format(alpha))  # raises from alpha = 1024
    cap = MAX_A1_DRAWS
    need, run = count, 0  # run: draws rejected since the last accepted one
    while need:
        # one row of draws per attempt; the rows past the last scenario go unused
        cols = _a1_columns(rng.random((CHUNK, 5)).T)
        # keep only draws that satisfy the proof's closed-form inequality
        gain, bound = _a1_closed_form(cols, alpha)
        with np.errstate(over="ignore"):  # as float * does, an overflow gives inf
            accepted = gain() > bound
        kept = np.flatnonzero(accepted)[:need]
        gaps = np.diff(kept, prepend=-1 - run) - 1  # draws rejected before each kept one
        if len(kept) < need:
            run = CHUNK - 1 - kept[-1] if len(kept) else run + CHUNK
            gaps = np.append(gaps, run)
        over = np.flatnonzero(gaps >= cap)
        if over.size:
            yield {name: col[kept[:over[0]]] for name, col in cols.items()}, ConvergenceFailureError(
                f"A1 sampler accepted 0 of {cap} draws at alpha={alpha} "
                f"(observed acceptance rate 0, below {1 / cap:g})")
            return
        yield {name: col[kept] for name, col in cols.items()}, None
        need -= len(kept)


def _decided(kind: str, cols: dict, alpha: float, K: float):
    """Which rows the arrays decide, and whether each of those fails.

    A row is left to the scalar check when it may not be a valid scenario
    (an A2 shift at the edge of its window; A1 and A3 draws pass their
    checks by construction), when its A1 closed form is not finite, or when
    its margin lies within the rounding band of 0.
    """
    with np.errstate(all="ignore"):
        before, after = (side() for side in _SIDES[kind](cols, alpha, K))
        valid = (np.isfinite(_a1_closed_form(cols, alpha)[0]()) if kind == "A1"
                 else _a2_window(cols) if kind == "A2" else True)
        margin = after - before
        band = _BAND * (abs(before) + abs(after)) + _FLOOR * (1.0 + K)
        sure = valid & (abs(margin) > band)
    return sure, margin < 0


def _scenario(kind: str, alpha: float, c_threshold: float | None, cols: dict,
              i: int) -> AxiomScenario:
    return AxiomScenario(kind, alpha, c_threshold=c_threshold,
                         **{name: float(col[i]) for name, col in cols.items()})


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
    with its verdict.  ``c`` is the A3c threshold, in (1, C_BAR_MAX); the other
    suites take none.  Scenarios are drawn and judged CHUNK at a time as
    arrays; the scalar check decides each margin within the rounding band of
    0, and makes the witness.  Where drawing or checking scenarios raises,
    the error is that of the first such scenario in draw order.
    """
    check_params(K, alpha)
    if count < 1:
        raise DomainError("count must be at least 1")
    if axiom not in _CHECKS:
        raise DomainError(f"unknown axiom {axiom!r}")
    if c is not None and axiom != "A3c":
        raise DomainError(f"c applies to the A3c suite only, got c={c} for {axiom}")
    if c is not None and not c < C_BAR_MAX:
        raise DomainError(f"threshold {c} leaves no admissible c_bar below {C_BAR_MAX}")
    if c is not None and not c > 1.0:
        raise DomainError(f"A3c needs a threshold c > 1, got c={c}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    check = _CHECKS[axiom]
    failures = 0
    witness = None
    done = 0
    for cols, error in _chunks(axiom, alpha, count, c, np.random.default_rng(seed)):
        sure, fails = _decided(axiom, cols, alpha, K)
        for i in np.flatnonzero(~sure):  # in order: the first that raises decides the error
            fails[i] = not check(_scenario(axiom, alpha, c, cols, i), K).satisfied
        failures += int(np.count_nonzero(fails))
        if witness is None and fails.any():
            i = int(fails.argmax())
            s = _scenario(axiom, alpha, c, cols, i)
            witness = {"index": done + i, "scenario": asdict(s), "verdict": asdict(check(s, K))}
        done += len(fails)
        if error is not None:
            raise error
    return AxiomReport(axiom, alpha, c, count, failures, seed, witness)
