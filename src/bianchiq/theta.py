"""Floating-point evaluation of the level-5 theta functions.

The basic object is the theta series with real characteristic (p, c):

    theta_char(p, c, z, tau) = sum_n exp(pi*i*(n+p)^2*tau + 2*pi*i*(n+p)*(z+c))

for tau in the upper half-plane.  The five curve coordinates come from the
rescaled family

    theta_k(z, tau) = (1/i) * theta_char(1/2 - k/5, 5/2, 5*z, 5*tau)

indexed by k mod 5 (integer and half-integer k both occur).  Only ten
characteristics exist, one per reduced index 0..4 and 1/2..9/2, so
``theta_k`` reads p = 1/2 - k/5 from a table built at import and calls
``reduce_index`` only for an index outside [0, 5).

Summation uses a window centered on the largest term, sized so the first
omitted term is below 1e-30 of the largest included one, and accumulates
terms in descending magnitude (ties in ascending n).  The window, that
order and the operand order of each exponent are fixed: every value is
reproducible to the bit, and the residuals the identity checks report
depend on it.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

TRUNCATION_RATIO = 1e-30
_WINDOW_LOG = -math.log(TRUNCATION_RATIO)
_MAX_WINDOW = 10**6


class DomainError(ValueError):
    """tau outside the upper half-plane."""


class ConvergenceError(ArithmeticError):
    """The summation window would exceed the hard term-count cap."""


def theta_char(p: float, c: float, z: complex, tau: complex, *, extra: float = 0.0) -> complex:
    """Theta series with characteristic (p, c) at (z, tau).

    ``extra`` widens the window (in units of log magnitude); it exists so
    tests can verify that enlarging the window does not change the value.
    """
    z = complex(z)
    tau = complex(tau)
    a = tau.imag
    if a <= 0.0:
        raise DomainError(f"Im(tau) must be positive, got {a}")
    b = z.imag
    # |term(n)| = exp(-pi*a*u^2 + pi*b^2/a) with u = n + p + b/a
    center = -b / a - p
    half = math.sqrt((_WINDOW_LOG + 8.0 + extra) / (math.pi * a)) + 1.0
    n_min = math.floor(center - half)
    n_max = math.ceil(center + half)
    if n_max - n_min > _MAX_WINDOW:
        raise ConvergenceError(f"window of {n_max - n_min} terms exceeds cap; Im(tau) too small")
    ns = sorted(range(n_min, n_max + 1), key=lambda n: abs(n + p - center))
    total = 0.0 + 0.0j
    ipi = 1j * math.pi
    two_ipi = 2 * ipi
    zc = z + c
    exp = cmath.exp
    for n in ns:
        m = n + p
        total += exp(ipi * m * m * tau + two_ipi * m * zc)
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        raise OverflowError("theta summation overflowed binary64")
    return total


def reduce_index(k) -> Fraction:
    """Reduce a theta index (integer or half-integer) modulo 5 into [0, 5)."""
    k = Fraction(k)
    if k.denominator not in (1, 2):
        raise ValueError(f"theta index must be integer or half-integer, got {k}")
    return k % 5


# The ten reduced indices, and p = 1/2 - k/5 for each.  Equal numbers hash
# equal, so an int, float or Fraction spelling of a reduced index finds its
# entry.
INDICES = tuple(Fraction(k) for k in range(5)) + tuple(Fraction(2 * k + 1, 2) for k in range(5))
_CHARACTERISTIC = {k: float(Fraction(1, 2) - k / 5) for k in INDICES}


def theta_k(k, z: complex, tau: complex) -> complex:
    """theta_k(z, tau) = (1/i) theta_char(1/2 - k/5, 5/2, 5z, 5tau); k mod 5."""
    p = _CHARACTERISTIC.get(k)
    if p is None:
        p = _CHARACTERISTIC[reduce_index(k)]
    return theta_char(p, 2.5, 5 * complex(z), 5 * complex(tau)) / 1j


def theta_vector(z: complex, tau: complex) -> tuple[complex, ...]:
    """The projective coordinate vector (theta_0, ..., theta_4)(z, tau)."""
    return tuple(theta_k(k, z, tau) for k in range(5))


def nullwerte(tau: complex) -> tuple[complex, ...]:
    return theta_vector(0.0, tau)


def phi_numeric(tau: complex) -> complex:
    """The degree-5 hauptmodul -theta_1(0)/theta_2(0) at tau."""
    t1 = theta_k(1, 0.0, tau)
    t2 = theta_k(2, 0.0, tau)
    if abs(t2) < 1e-30:
        raise ZeroDivisionError("theta_2(0, tau) vanished; tau outside the usable region")
    return -t1 / t2


# Quasi-periodicity: theta_k(z + shift) = mult(k, z) * theta_{k - down}(z),
# one entry per row of the transformation table.  The z+1 sign depends only
# on whether k is integral or half-integral.

def shift_rules(tau: complex) -> dict:
    """The six shift rules at a fixed tau, as name -> (shift, mult, down)."""
    ipi = 1j * math.pi
    tau = complex(tau)
    return {
        "z+1": (1.0, lambda k, z: -1.0 if Fraction(k).denominator == 1 else 1.0, Fraction(0)),
        "z+tau": (tau, lambda k, z: -cmath.exp(-5 * ipi * tau - 10 * ipi * z), Fraction(0)),
        "z+1/5": (0.2, lambda k, z: -cmath.exp(-2j * math.pi * float(Fraction(k)) / 5), Fraction(0)),
        "z+tau/10": (tau / 10, lambda k, z: -1j * cmath.exp(-ipi * tau / 20 - ipi * z), Fraction(1, 2)),
        "z+tau/5": (tau / 5, lambda k, z: -cmath.exp(-ipi * tau / 5 - 2 * ipi * z), Fraction(1)),
        "z+2tau/5": (2 * tau / 5, lambda k, z: cmath.exp(-4 * ipi * tau / 5 - 4 * ipi * z), Fraction(2)),
    }
