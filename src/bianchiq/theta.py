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

Summation uses a window centered on the largest term, at n = center =
-p - Im z/Im tau, sized so the first omitted term is below 1e-30 of the
largest included one.  Terms are accumulated in ascending |n - t| with
t = center - p, ties in ascending n.  That is |n + 2p + Im z/Im tau|, so the
order is close to descending magnitude but not equal to it: at p = 0.3,
z = 0, tau = i it runs n = -1, 0, -2, 1 while the magnitudes descend over
n = 0, -1, 1, -2.  It is kept because the residuals are pinned.  Term n is
exp(((pi*i*m)*m)*tau + ((2*pi*i)*m)*(z + c)) with m = n + p.

For n1 < n2, term n1 comes first exactly when 2t <= n1 + n2, that is when
cell < n1 + n2 with cell = ceil(2t) - 1.  Over a fixed window the order
therefore depends only on cell, and it is the order of ascending
|4n - 2*cell - 1|, an integer key that never ties: equal keys would need
n1 + n2 = cell + 1/2.  t is the binary64 value center - p and doubling it
is exact, so the order needs no margin and no float key.  Each window's
coefficient pairs are built and sorted once per head and kept in _ORDERS
under (p, n_min, n_max, cell, head), for the ten characteristics and
windows within +-_REACH; any other p or wider window is built the same way
on each call.  The window, the summation order and the operand order of
each exponent are those of the term-by-term sum: every value is
reproducible to the bit, and the residuals the identity checks report
depend on it.

A sum stops once its remaining terms cannot change a bit.  With a = Im tau
and b = Im z, term n has modulus exp(pi*b^2/a - pi*a*(n - center)^2).  Let
S be the sum of the first J terms of the order, |p| <= 1/2.  Then:

  1. the first J terms are at the J integers nearest to t, and the
     (J+1)-th nearest is at least J/2 away, so every later n has
     |n - center| >= |n - t| - |p| >= J/2 - |p| >= 0;
  2. so every later term is at most B = exp(pi*b^2/a - pi*a*(J/2 - |p|)^2);
  3. in round-to-nearest x + d == x whenever |d| < 2^-54 |x|, so if 2^54 B
     is below |Re S| and |Im S|, no later addition moves a bit of S.

The check asks for 2^55 B floored at 2^-1000, with pi*a shrunk by 2^-30:
the factor 2 covers the rounding of B and of each term's exp, the shrink
each exponent's rounding (a few ulps of pi*a*m^2), and the floor keeps
|Re S| and |Im S| off the subnormals, where rounding is absolute.  It runs
on windows within +-_REACH, where the exponents stay small, and only while
Im tau lies within a factor _PLAIN of 1 and Re tau, Re(z + c) within _PLAIN
of 0, so that no later term's phase can overflow; any other window is
summed whole.  J, the head, is set per tau part: the fewest terms whose
bound at |p| = 1/2 lies 2^-54 below exp(pi*b^2/a), 4 or 5 on the numeric
checks.

A sum has a tau part, ``_tau_part`` (tau, Im tau, the window's half-width,
the head and the bound's two rates), and a z part, ``_sum``, the one
summation loop.  ``theta_k`` keeps the tau part of the last tau object it
was given and reuses it while consecutive calls pass that same object.  A
window wider than _MAX_WINDOW terms, or with an end that is not finite,
raises ConvergenceError; a z that is not finite, or a finite z whose terms
leave binary64, raises ValueError naming the z the caller passed.
"""

from __future__ import annotations

import math
from cmath import exp, isfinite
from fractions import Fraction
from math import ceil, floor
from math import exp as _real_exp

_TRUNCATION_RATIO = 1e-30
_WINDOW_LOG = -math.log(_TRUNCATION_RATIO)
_MAX_WINDOW = 10**6
# The tail check; see the module docstring.  _HEAD_LOG sets the head,
# e^_LOG_MARGIN = 2^55 scales the bound and _FLOOR floors it; a bound whose
# log reaches _LOG_MAX, past which math.exp overflows, stops nothing.
_HEAD_LOG = 54 * math.log(2.0)
_LOG_MARGIN = 55 * math.log(2.0)
_FLOOR = 2.0**-1000
_LOG_MAX = 709.0
_PLAIN = 2.0**64


class DomainError(ValueError):
    """tau outside the upper half-plane."""


class ConvergenceError(ArithmeticError):
    """The summation window would exceed the hard term-count cap, or has an
    end that is not finite."""


class CancellationError(ArithmeticError):
    """A theta sum cancelled past the digits its result has to carry."""


def theta_char(p: float, c: float, z: complex, tau: complex, *, extra: float = 0.0) -> complex:
    """Theta series with characteristic (p, c) at (z, tau).

    ``extra`` widens the window (in units of log magnitude); it exists so
    tests can verify that enlarging the window does not change the value.
    """
    if not 0.0 <= extra < math.inf:  # NaN too; a negative extra would narrow the window
        raise ValueError(f"extra must be finite and not negative, got {extra}")
    return _sum(p, c, complex(z), _tau_part(complex(tau), extra))


def _tau_part(tau: complex, extra: float = 0.0) -> tuple:
    """What a sum needs at any z: (tau, Im(tau), the window's half-width,
    the number of terms summed before the tail check, pi/Im(tau), and
    pi*Im(tau) shrunk by 2^-30)."""
    a = tau.imag
    if not a > 0.0:  # NaN too
        raise DomainError(f"Im(tau) must be positive, got {a}")
    half = math.sqrt((_WINDOW_LOG + 8.0 + extra) / (math.pi * a)) + 1.0
    if 1.0 / _PLAIN < a < _PLAIN and abs(tau.real) < _PLAIN:
        head = 1 + ceil(2.0 * math.sqrt(_HEAD_LOG / (math.pi * a)))
    else:  # outside the tail bound's proof: whole windows
        head = _MAX_WINDOW + 1
    return tau, a, half, head, math.pi / a, math.pi * a * (1.0 - 2.0**-30)


def _sum(p: float, c: float, z: complex, tau_part: tuple) -> complex:
    """The theta series with characteristic (p, c) at z and tau_part's tau."""
    tau, a, half, head, spread, decay = tau_part
    b = z.imag
    # |term(n)| = exp(pi*b^2/a - pi*a*(n - center)^2) with b = Im z
    center = -b / a - p
    try:
        n_min, n_max = floor(center - half), ceil(center + half)
    except (OverflowError, ValueError):  # an end at +-inf or NaN
        raise _unsummable(z, tau, center, half) from None
    if n_max - n_min > _MAX_WINDOW:
        raise _unsummable(z, tau, center, half, n_max - n_min)
    # n1 < n2 are summed in that order exactly when 2t <= n1 + n2, t = center - p
    try:
        cell = ceil(2.0 * (center - p)) - 1
    except OverflowError:  # 2t past binary64, and with it the terms
        raise _z_error(z, tau) from None
    key = (p, n_min, n_max, cell, head)
    terms = _ORDERS.get(key)
    if terms is None:
        ordered = _sorted_terms(p, n_min, n_max, cell)
        inside = -_REACH <= n_min and n_max <= _REACH
        if inside and abs(p) <= 0.5:
            terms = ordered[:head], ordered[head:], (0.5 * head - abs(p)) ** 2
        else:  # outside the tail bound's proof: summed whole
            terms = ordered, (), 0.0
        if inside and p in _CHARACTERISTIC.values() and len(_ORDERS) < _MAX_ORDERS:
            _ORDERS[key] = terms
    first, rest, gap = terms
    total = 0.0 + 0.0j
    zc = z + c
    try:
        for tau_coeff, z_coeff in first:
            total += exp(tau_coeff * tau + z_coeff * zc)
        if rest:
            # 2^55 times the bound on every later term; see the module docstring
            log_bound = spread * b * b - decay * gap + _LOG_MARGIN
            if log_bound < _LOG_MAX and -_PLAIN < zc.real < _PLAIN:
                bound = _real_exp(log_bound) + _FLOOR
            else:
                bound = math.inf
            if not (abs(total.real) > bound and abs(total.imag) > bound):
                for tau_coeff, z_coeff in rest:
                    total += exp(tau_coeff * tau + z_coeff * zc)
    except (OverflowError, ValueError):  # cmath.exp of a term past binary64, or of an infinite phase
        raise _z_error(z, tau) from None
    if not isfinite(total):
        if not isfinite(z):
            raise _z_error(z, tau)
        raise OverflowError("theta summation overflowed binary64")
    return total


def _unsummable(z: complex, tau: complex, center: float, half: float, terms: int | None = None) -> Exception:
    """_z_error for a z that is not finite, else ConvergenceError for a
    window past the cap: by its term count, or by its half-width where the
    count is unknown (an end not finite) or longer than 15 digits."""
    if not isfinite(z):
        return _z_error(z, tau)
    size = f"{terms} terms" if terms and terms < 10**15 else f"half-width {half:.3g} about n = {center:.3g}"
    return ConvergenceError(f"window of {size} exceeds cap; Im(tau) too small")


def _z_error(z: complex, tau: complex) -> ValueError:
    """ValueError naming z: not finite, or finite with terms past binary64."""
    if not isfinite(z):
        return ValueError(f"z must be finite, got {z}")
    return ValueError(f"theta terms at z = {z}, tau = {tau} leave binary64")


_IPI = 1j * math.pi
_TWO_IPI = 2 * _IPI
# The farthest n a cached window reaches; the numeric checks stay within
# -6 <= n <= 6.
_REACH = 64
# The most entries kept, one per window and head: 1024 entries as wide as
# the reach allows, 129 terms each, hold 16.6 MiB (tracemalloc), and the
# numeric checks fill 302.
_MAX_ORDERS = 1024
# (p, n_min, n_max, cell, head) -> (the first head terms, the rest,
# (head/2 - |p|)^2), for the ten characteristics; see the module docstring.
_ORDERS = {}


def _sorted_terms(p: float, n_min: int, n_max: int, cell: int) -> tuple:
    """The (pi*i*m*m, 2*pi*i*m) pairs of the window [n_min, n_max], m = n + p,
    in ascending |4n - 2*cell - 1|: ascending |n - t|, ties in ascending n."""
    ns = sorted(range(n_min, n_max + 1), key=lambda n: abs(4 * n - 2 * cell - 1))
    return tuple((_IPI * m * m, _TWO_IPI * m) for m in (n + p for n in ns))


def reduce_index(k) -> Fraction:
    """Reduce a theta index (integer or half-integer) modulo 5 into [0, 5)."""
    if isinstance(k, str):  # Fraction would parse it
        raise TypeError(f"theta index must be a number, got {k!r}")
    reduced = Fraction(k)
    if reduced.denominator not in (1, 2):
        raise ValueError(f"theta index must be integer or half-integer, got {k}")
    return reduced % 5


# The ten reduced indices, and p = 1/2 - k/5 for each, keyed by float(k):
# an int or float index is then a C-level dict hit, and a Fraction finds
# its entry too, since equal numbers hash equal.
INDICES = tuple(range(5)) + tuple(k + 0.5 for k in range(5))
_CHARACTERISTIC = {float(k): float(Fraction(1, 2) - Fraction(k) / 5) for k in INDICES}


# theta_k's last tau object and its _tau_part(5*tau), read once and replaced
# as one tuple, so that no thread pairs one tau with another tau's part.
_last_tau = (None, None)


def theta_k(k, z: complex, tau: complex) -> complex:
    """theta_k(z, tau) = (1/i) theta_char(1/2 - k/5, 5/2, 5z, 5tau); k mod 5."""
    global _last_tau
    p = _CHARACTERISTIC.get(k)
    if p is None:
        p = _CHARACTERISTIC[reduce_index(k)]
    # complex() returns a complex argument itself: call it only on other types
    z = z if type(z) is complex else complex(z)
    tau = tau if type(tau) is complex else complex(tau)
    last = _last_tau
    if last[0] is not tau:  # identity, not ==: taus equal but for a zero's sign stay apart
        last = _last_tau = (tau, _tau_part(5 * tau))
    try:
        return _sum(p, 2.5, 5 * z, last[1]) / 1j
    except ValueError:  # it names 5z and 5tau, and 5z may overflow a finite z
        raise _z_error(z, tau) from None


def theta_vector(z: complex, tau: complex) -> tuple[complex, ...]:
    """The projective coordinate vector (theta_0, ..., theta_4)(z, tau)."""
    return tuple(theta_k(k, z, tau) for k in range(5))


def nullwerte(tau: complex) -> tuple[complex, ...]:
    return theta_vector(0.0, tau)


# The largest relative rounding error phi_numeric lets a nullwert carry.
_PHI_MAX_ERROR = 1e-10


def phi_numeric(tau: complex) -> complex:
    """The degree-5 hauptmodul -theta_1(0)/theta_2(0) at tau.

    With a = 5*Im(tau) and m = n + p, term n of theta_k(0) has modulus
    exp(-pi*a*m^2), at most exp(-pi*a*d^2) for d the distance of p from
    the integers, and phase pi*m^2*Re(5*tau) + 5*pi*m.  The sum of N terms
    is off by about 2^-53 times N*exp(-pi*a*d^2) plus the sum of each
    term's modulus times its phase, whose rounding it carries.  That sum is
    bounded in closed form by the two Gaussian integrals, plus twice the
    peak of each integrand.  Where the bound exceeds _PHI_MAX_ERROR
    relative to |theta_k(0)| for theta_1 or theta_2 (Im(tau) small, where
    the terms cancel), CancellationError is raised instead of a quotient
    that has lost more than ten digits.

    tau -> tau + 5 multiplies theta_1(0) and theta_2(0) by the same
    e^(pi*i/4), since 25*m^2 = (odd)^2/4, so phi has period 5.  Re(tau) is
    first reduced exactly into [-5/2, 5/2], where the phases stay small; a
    tau already there is summed as given, to the bit."""
    tau = complex(math.remainder(tau.real, 5.0), tau.imag)
    t1 = theta_k(1, 0.0, tau)
    t2 = theta_k(2, 0.0, tau)
    if abs(t2) < 1e-30:
        raise ZeroDivisionError("theta_2(0, tau) vanished; tau outside the usable region")
    _, a, half, *_ = _tau_part(5 * tau)
    phases = (abs(5 * tau.real) * (0.5 * a**-1.5 + 2 / (math.e * a))
              + 5 / a + 10 * math.pi / math.sqrt(2 * math.pi * math.e * a))
    for k, value in ((1, t1), (2, t2)):
        p = _CHARACTERISTIC[k]
        n_terms = math.ceil(-p + half) - math.floor(-p - half) + 1
        d = abs(p - round(p))
        error = (n_terms * math.exp(-math.pi * a * d * d) + phases) * 2.0**-53
        # a NaN nullwert compares false here and reaches the quotient
        if error > _PHI_MAX_ERROR * abs(value):
            raise CancellationError(
                f"theta_{k}(0, tau) cancelled: predicted relative error {error / abs(value):.1e} "
                f"exceeds {_PHI_MAX_ERROR:.0e}; Im(tau) too small")
    return -t1 / t2


# Quasi-periodicity: theta_k(z + shift) = mult(k, z) * theta_{k - down}(z),
# one entry per row of the transformation table.  The z+1 and z+1/5
# multipliers depend on k alone (the z+1 sign only on whether k is
# integral); the other four read z and tau, never k.
K_ONLY_RULES = ("z+1", "z+1/5")


def shift_rules(tau: complex) -> dict:
    """The six shift rules at a fixed tau, as name -> (shift, mult, down)."""
    ipi = 1j * math.pi
    tau = complex(tau)
    return {
        "z+1": (1.0, lambda k, z: -1.0 if float(k).is_integer() else 1.0, 0),
        "z+tau": (tau, lambda k, z: -exp(-5 * ipi * tau - 10 * ipi * z), 0),
        "z+1/5": (0.2, lambda k, z: -exp(-2j * math.pi * float(k) / 5), 0),
        "z+tau/10": (tau / 10, lambda k, z: -1j * exp(-ipi * tau / 20 - ipi * z), 0.5),
        "z+tau/5": (tau / 5, lambda k, z: -exp(-ipi * tau / 5 - 2 * ipi * z), 1),
        "z+2tau/5": (2 * tau / 5, lambda k, z: exp(-4 * ipi * tau / 5 - 4 * ipi * z), 2),
    }
