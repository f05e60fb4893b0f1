"""The sign function f(z, alpha, c) and admissible exponent intervals.

f encodes whether moving mass from a middle node to two lateral nodes at
relative distance c raises polarization: the reallocation raises it locally
iff f(q/p, alpha, c) < 0.  The value function v(alpha, c) = max_z f and its
sign changes in alpha, each found by Brent's method, deliver the
admissible interval [alpha_lower(c), alpha_upper(c)].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailureError, DomainError

# scipy.optimize is imported where brentq is called: it is slow to load, and
# only the root searches need it, not every import of netpolar

MAX_ITERATIONS = 200


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


def _check_alpha(alpha: float) -> None:
    if not 0 <= alpha < np.inf:
        raise DomainError(f"alpha must be non-negative and finite, got {alpha}")


def f_eval(z, alpha: float, c: float):
    """Evaluate f(z, alpha, c); vectorized over ``z``.

    Defined for finite z >= 0, finite alpha >= 0 and c in [1, 2].
    """
    z = np.asarray(z, dtype=float)
    if not ((0 <= z) & (z < np.inf)).all():
        raise DomainError("z must be non-negative and finite")
    _check_alpha(alpha)
    if not 1.0 <= c <= 2.0:
        raise DomainError("c must lie in [1, 2]")
    out = (1.0 + alpha) * (
        z - z ** alpha / 2.0
        + (z ** (1.0 + alpha) / 2.0) * (2.0 - c * (2.0 + alpha)) / (1.0 + alpha)
    ) - 0.5
    return out if out.ndim else float(out)


def v_eval(alpha: float, c: float) -> tuple[float, float]:
    """Maximize f over z >= 0; returns (value, argmax).

    The slope of f has the sign of g(z) = 2 - alpha z^(alpha-1) + b z^alpha
    with b = 2 - (2+alpha)c < 0.  g rises up to z_lo = max(0, (1-alpha)/-b)
    and falls after it, so f is decreasing (maximum f(0) = -1/2) when
    g(z_lo) <= 0, and otherwise peaks where g turns negative past z_lo,
    unless that peak lies below f(0).  A peak beyond every doubling of the
    bracket is reported as +inf.  alpha = 0 reduces to a linear function of
    z: unbounded for c < 2 (reported as +inf), constant -1 at c = 2.
    """
    _check_alpha(alpha)
    if not 1.0 < c <= 2.0:
        raise DomainError("c must lie in (1, 2]")
    if alpha == 0.0:
        if c < 2.0:
            return float("inf"), float("inf")
        return -1.0, 0.0
    b = 2.0 - (2.0 + alpha) * c

    def stationarity(z):
        return 2.0 - alpha * z ** (alpha - 1.0) + b * z ** alpha

    z_lo = max(0.0, (1.0 - alpha) / -b)
    if stationarity(z_lo) <= 0:
        return -0.5, 0.0
    z_hi = max(1.0, 2.0 * z_lo)
    for _ in range(MAX_ITERATIONS):
        if stationarity(z_hi) < 0:
            break
        z_hi *= 2.0
    else:
        return float("inf"), float("inf")
    from scipy.optimize import brentq
    root = brentq(stationarity, z_lo, z_hi, xtol=1e-15, rtol=1e-15)
    return max((float(f_eval(root, alpha, c)), float(root)), (-0.5, 0.0))


def _check_c_tol(c: float, tol: float) -> None:
    if not 1.0 < c <= 2.0:
        raise DomainError("c must lie in (1, 2]")
    if not 0 < tol < np.inf:
        raise DomainError("tolerance must be positive and finite")


def _sign_change(c: float, lo: float, hi: float, tol: float, name: str) -> float:
    """The alpha in [lo, hi] where v(., c) changes sign, to within ``tol``."""
    from scipy.optimize import brentq
    root, result = brentq(lambda a: v_eval(a, c)[0], lo, hi, xtol=tol,
                          maxiter=MAX_ITERATIONS, full_output=True, disp=False)
    if not result.converged:
        raise ConvergenceFailureError(f"{name} root search did not converge")
    return root


def alpha_upper(c: float, tol: float = 1e-9) -> float:
    """Largest admissible exponent: the zero of v(., c) on (1, 2].

    v is negative at 1 and positive at 2 for every c in (1, 2] and
    increases in alpha on that range, so the sign change is unique.
    """
    _check_c_tol(c, tol)
    if not v_eval(2.0, c)[0] > 0:
        raise ConvergenceFailureError("value function not positive at alpha = 2")
    return _sign_change(c, 1.0, 2.0, tol, "alpha_upper")


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
    return _sign_change(c, 0.0, 1.0, tol, "alpha_lower")


def admissible_interval(c: float, tol: float = 1e-9) -> AlphaInterval:
    """Combine the two bounds; alpha = 1 always lies inside.

    brentq keeps its root inside the bracket, so the lower bound lies in
    [0, 1] and the upper bound in [1, 2].
    """
    return AlphaInterval(c, alpha_lower(c, tol), alpha_upper(c, tol), tol)


def lemma1_witness(alpha: float) -> tuple[float, float]:
    """Construct (z, c) with c > 1 and f(z, alpha, c) > 0, for any alpha != 1.

    f is affine in c: f(z, alpha, c) = f(z, alpha, 1) - (c - 1) s / 2 with
    s = (2 + alpha) z^(1+alpha).  f(., alpha, 1) is 0 at z = 1 with slope
    (1 + alpha)(1 - alpha), so it is positive on the 1/alpha side of 1;
    z = 2 / (1 + alpha) is the harmonic mean of 1 and 1/alpha.
    c = 1 + f(z, alpha, 1) / s, capped at 2 because s underflows to 0 for
    large alpha, keeps at least half of f(z, alpha, 1).  That gain is of
    order (alpha - 1)^2, so within about 2.5e-8 of alpha = 1 rounding
    leaves no witness, and ConvergenceFailureError is raised.
    """
    _check_alpha(alpha)
    if alpha == 1.0:
        raise DomainError("no witness exists at alpha = 1")
    z = 2.0 / (1.0 + alpha)
    gain = f_eval(z, alpha, 1.0)
    s = (2.0 + alpha) * z ** (1.0 + alpha)
    c = 2.0 if gain >= s else 1.0 + gain / s
    if not (c > 1.0 and f_eval(z, alpha, c) > 0):
        raise ConvergenceFailureError(
            f"no positivity witness within float resolution of alpha = 1, got alpha = {alpha}")
    return z, c
