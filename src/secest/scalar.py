"""Closed forms for scalar plants, used as an independent oracle.

For x(k+1) = a x(k) + w, y = c x + v with |a| > 1 everything is elementary:

* critical reception rate: 1 - 1/a^2 (lower and upper brackets coincide);
* eavesdropper floor at rate lam = p*p2:  q / (1 - (1 - lam) a^2);
* receiver ceiling at rate lam = p*p1: the positive root of the quadratic
  obtained by clearing denominators in V = g_lam(V),

      c^2 (a^2 (1 - lam) - 1) V^2 + ((a^2 - 1) r + q c^2) V + q r = 0;

* optimal withholding probability for a floor target M:
      p* = p_c/p2 + q / (M p2 a^2),
  valid once M is at least the no-withholding floor and p2 clears p_c.

These formulas share no code with the matrix solvers in
:mod:`secest.bounds`, which is the point: the test suite drives both routes
over parameter grids and insists they agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import _check_probability
from .errors import ValidationError
from .linmodel import LinearSystem


@dataclass(frozen=True)
class ScalarSystem:
    """Scalar plant parameters. Requires |a| > 1, c != 0, q > 0, r > 0."""

    a: float
    c: float
    q: float
    r: float

    def __post_init__(self):
        if not abs(self.a) > 1.0:
            raise ValidationError(f"|a| must exceed 1, got a = {self.a}")
        if self.c == 0.0:
            raise ValidationError("c must be nonzero")
        if not self.q > 0.0:
            raise ValidationError(f"q must be positive, got {self.q}")
        if not self.r > 0.0:
            raise ValidationError(f"r must be positive, got {self.r}")

    def to_linear(self, sigma0: float = 1.0) -> LinearSystem:
        """Embed as a 1x1 LinearSystem for cross-checking the matrix route."""
        return LinearSystem(A=self.a, C=self.c, Q=self.q, R=self.r, Sigma0=sigma0)


def scalar_critical(s: ScalarSystem) -> float:
    """Critical reception rate 1 - 1/a^2."""
    return 1.0 - 1.0 / (s.a * s.a)


def scalar_S(p: float, p2: float, s: ScalarSystem) -> float:
    """Eavesdropper floor; inf once the effective rate p*p2 drops to critical."""
    p = _check_probability(p, "p")
    p2 = _check_probability(p2, "p2")
    rate = p * p2
    if rate <= scalar_critical(s):
        return math.inf
    return s.q / (1.0 - (1.0 - rate) * s.a * s.a)


def scalar_V(pp1: float, s: ScalarSystem) -> float:
    """Receiver ceiling at effective rate pp1; positive quadratic root."""
    pp1 = _check_probability(pp1, "pp1")
    if pp1 <= scalar_critical(s):
        return math.inf
    a2 = s.a * s.a
    c2 = s.c * s.c
    coef2 = c2 * (a2 * (1.0 - pp1) - 1.0)  # negative above the critical rate
    coef1 = (a2 - 1.0) * s.r + s.q * c2
    coef0 = s.q * s.r
    disc = coef1 * coef1 - 4.0 * coef2 * coef0
    return (coef1 + math.sqrt(disc)) / (2.0 * -coef2)


def scalar_p_star(M: float, p2: float, s: ScalarSystem) -> float:
    """Largest p whose floor still meets the target M, in closed form."""
    p2 = _check_probability(p2, "p2")
    pc = scalar_critical(s)
    if not p2 > pc:
        raise ValidationError(
            f"p2 = {p2} does not exceed the critical rate {pc:.6g}; the floor "
            "is infinite for every p and no finite target constrains the design"
        )
    floor_at_one = scalar_S(1.0, p2, s)
    if not M >= floor_at_one:
        raise ValidationError(
            f"target M = {M} is below the no-withholding floor {floor_at_one:.6g}; "
            "the closed form assumes the secrecy constraint binds"
        )
    p = pc / p2 + s.q / (M * p2 * s.a * s.a)
    return min(max(p, 0.0), 1.0)
