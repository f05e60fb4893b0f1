"""The sign function f(z, alpha, c) and admissible exponent intervals.

f encodes whether moving mass from a middle node to two lateral nodes at
relative distance c raises polarization: the reallocation raises it locally
iff f(q/p, alpha, c) < 0.  The value function v(alpha, c) = max_z f and its
sign changes in alpha deliver the admissible interval
[alpha_lower(c), alpha_upper(c)] by bisection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .errors import ConvergenceFailureError, DomainError

MAX_BISECTION_ITERATIONS = 200
SCAN_START = 1e-3
SCAN_RATIO = 1.05
SCAN_UNBOUNDED_LIMIT = 1e6


@dataclass(frozen=True)
class AlphaInterval:
    """Admissible exponent range for a fixed lateral-distance ratio c.

    ``lower`` is ``None`` when the value function stays negative on the
    whole of [0, 1], in which case every exponent down to 0 is admissible.
    """

    c: float
    lower: float | None
    upper: float
    tolerance: float

    def contains(self, alpha: float) -> bool:
        return (self.lower or 0.0) - self.tolerance <= alpha <= self.upper + self.tolerance

    def to_dict(self) -> dict:
        return {"c": self.c, "alpha_lower": self.lower, "alpha_upper": self.upper,
                "tolerance": self.tolerance}


def f_eval(z, alpha: float, c: float):
    """Evaluate f(z, alpha, c); vectorized over ``z``.

    Defined for z >= 0, alpha >= 0 and c in [1, 2].
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise DomainError("z must be non-negative")
    if alpha < 0:
        raise DomainError("alpha must be non-negative")
    if not 1.0 <= c <= 2.0:
        raise DomainError("c must lie in [1, 2]")
    out = (1.0 + alpha) * (
        z - z ** alpha / 2.0
        + (z ** (1.0 + alpha) / 2.0) * (2.0 - c * (2.0 + alpha)) / (1.0 + alpha)
    ) - 0.5
    return out if out.ndim else float(out)


def v_eval(alpha: float, c: float) -> tuple[float, float]:
    """Maximize f over z >= 0; returns (value, argmax).

    For alpha >= 1, f is concave in z and the unique stationary point of
    2 - alpha z^(alpha-1) + (2 - (2+alpha)c) z^alpha is bracketed and
    solved.  For 0 < alpha < 1 a geometric scan locates the maximum, which
    is then refined locally.  alpha = 0 reduces to a linear function of z:
    unbounded for c < 2 (reported as +inf), constant -1 at c = 2.
    """
    if alpha < 0:
        raise DomainError("alpha must be non-negative")
    if not 1.0 < c <= 2.0:
        raise DomainError("c must lie in (1, 2]")
    if alpha == 0.0:
        if c < 2.0:
            return float("inf"), float("inf")
        return -1.0, 0.0
    if alpha >= 1.0:
        def stationarity(z):
            return 2.0 - alpha * z ** (alpha - 1.0) + (2.0 - (2.0 + alpha) * c) * z ** alpha

        z_hi = 1.0
        for _ in range(MAX_BISECTION_ITERATIONS):
            if stationarity(z_hi) < 0:
                break
            z_hi *= 2.0
        else:
            raise ConvergenceFailureError("no bracket for the stationarity condition")
        root = brentq(stationarity, 1e-300, z_hi, xtol=1e-15, rtol=1e-15)
        return float(f_eval(root, alpha, c)), float(root)

    # 0 < alpha < 1: the z^(1+alpha) coefficient is negative for c > 1, so f
    # eventually decreases; scan geometrically, extending until the tail is
    # clearly past the maximum.
    z_top = 10.0
    while True:
        count = int(np.ceil(np.log(z_top / SCAN_START) / np.log(SCAN_RATIO))) + 1
        zs = SCAN_START * SCAN_RATIO ** np.arange(count)
        vals = f_eval(zs, alpha, c)
        k = int(np.argmax(vals))
        tail_done = k < count - 20 and vals[-1] < min(-1.0, vals[k])
        if tail_done:
            break
        if z_top > SCAN_UNBOUNDED_LIMIT:
            return float("inf"), float("inf")
        z_top *= 2.0
    lo = zs[k - 1] if k > 0 else 0.0
    hi = zs[k + 1]
    res = minimize_scalar(lambda z: -f_eval(z, alpha, c), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-13})
    z_star = float(res.x)
    candidates = [(float(f_eval(z, alpha, c)), z) for z in (z_star, zs[k], 0.0)]
    return max(candidates)


def _check_c_tol(c: float, tol: float) -> None:
    if not 1.0 < c <= 2.0:
        raise DomainError("c must lie in (1, 2]")
    if not tol > 0:
        raise DomainError("tolerance must be positive")


def _bisect(below_root, lo: float, hi: float, tol: float, name: str) -> float:
    """Midpoint of [lo, hi] narrowed to width ``tol`` around one crossing.

    ``below_root(mid)`` says whether the crossing lies above ``mid``.
    """
    for _ in range(MAX_BISECTION_ITERATIONS):
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        if below_root(mid):
            lo = mid
        else:
            hi = mid
    raise ConvergenceFailureError(f"{name} bisection did not converge")


def alpha_upper(c: float, tol: float = 1e-9) -> float:
    """Largest admissible exponent: the zero of v(., c) on (1, 2].

    v is negative at 1 and positive at 2 for every c in (1, 2] and
    increases in alpha on that range, so plain bisection converges.
    """
    _check_c_tol(c, tol)
    if not v_eval(2.0, c)[0] > 0:
        raise ConvergenceFailureError("value function not positive at alpha = 2")
    return _bisect(lambda a: v_eval(a, c)[0] < 0, 1.0, 2.0, tol, "alpha_upper")


def alpha_lower(c: float, tol: float = 1e-9) -> float | None:
    """Smallest admissible exponent: the zero of v(., c) on [0, 1), if any.

    v decreases in alpha wherever it is non-negative, so the admissibility
    boundary below 1 is a single crossing; ``None`` when v < 0 throughout
    [0, 1] (then nothing is excluded from below).
    """
    _check_c_tol(c, tol)
    if not v_eval(0.0, c)[0] >= 0:
        return None
    # v(0) >= 0 and v(1) < 0
    return _bisect(lambda a: v_eval(a, c)[0] >= 0, 0.0, 1.0, tol, "alpha_lower")


def admissible_interval(c: float, tol: float = 1e-9) -> AlphaInterval:
    """Combine the two bounds; alpha = 1 always lies inside."""
    lower = alpha_lower(c, tol)
    upper = alpha_upper(c, tol)
    interval = AlphaInterval(c, lower, upper, tol)
    if not interval.contains(1.0):
        raise ConvergenceFailureError(f"alpha = 1 lies outside the computed interval {interval}")
    return interval


def lemma1_witness(alpha: float, budget: int = 64) -> tuple[float, float]:
    """Find (z, c) with c > 1 and f(z, alpha, c) > 0, for any alpha != 1.

    The search scans z over (1/alpha, 1) for alpha > 1 and (1, 1/alpha)
    for alpha < 1, lowering c toward 1 until positivity appears.
    """
    if alpha < 0:
        raise DomainError("alpha must be non-negative")
    if alpha == 1.0:
        raise DomainError("no witness exists at alpha = 1")
    if alpha > 1.0:
        z_lo, z_hi = 1.0 / alpha, 1.0
    else:
        z_lo = 1.0
        z_hi = min(1.0 / alpha, 1e6) if alpha > 0 else 1e6
    zs = np.linspace(z_lo, z_hi, 400)[1:-1]
    gap = 0.5
    for _ in range(budget):
        c = 1.0 + gap
        if c <= 2.0:
            vals = f_eval(zs, alpha, c)
            k = int(np.argmax(vals))
            if vals[k] > 0:
                return float(zs[k]), c
        gap /= 2.0
    raise ConvergenceFailureError(f"no positivity witness found for alpha = {alpha}")
