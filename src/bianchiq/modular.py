"""Exact q-expansions of the named modular functions.

Everything is built from the q-Pochhammer product kernel and exact series
arithmetic: the degree-5 hauptmodul phi, the three 2-torsion parameters
g1, g2, g3 and their discriminant delta, the eta quotients j5 and j10, and
the modular j-function.  A process-wide cache serves each name at the
highest order computed so far; callers always receive a view truncated to
exactly the order they asked for, so results do not depend on cache state.
The builders read the series they depend on through that cache (g1..g3,
phi5 and neg_g2_2tau read phi or g2, delta reads g1..g3), so each series
is built once per order rise, not once per dependent.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .exact import PuiseuxSeries, pochhammer_product

# name -> (leading exponent, builder at an order).  A builder looks its function
# up by name when it runs, so a replacement set on the module is the one called.
_CATALOG = {
    "phi": (Fraction(1, 5), lambda o: phi_series(o)),
    "phi5": (1, lambda o: (named_series("phi", o + 1) ** 5).reduce_ram().truncate(o)),
    "g1": (0, lambda o: gi_series(1, o)),
    "g2": (Fraction(1, 2), lambda o: gi_series(2, o)),
    "g3": (Fraction(1, 2), lambda o: gi_series(3, o)),
    "delta": (Fraction(1, 2), lambda o: delta_series(o)),
    "j5": (-1, lambda o: eta_quotient_series([(1, 6), (5, -6)], o)),
    "j10": (-1, lambda o: eta_quotient_series([(2, 1), (5, 5), (1, -1), (10, -5)], o)),
    "j": (-1, lambda o: j_series(o)),
    "eta": (Fraction(1, 24), lambda o: eta_series(o)),
    "neg_g2_2tau": (1, lambda o: (-named_series("g2", o / 2 + 1).subst_q_power(2)).reduce_ram().truncate(o)),
}
LEADING = {name: lead for name, (lead, _) in _CATALOG.items()}
NAMES = tuple(_CATALOG)

ROGERS_RAMANUJAN_FACTORS = ((1, 5, 1), (4, 5, 1), (2, 5, -1), (3, 5, -1))


class UnknownName(KeyError):
    """A series name outside the published catalog."""


def _checked(name: str, order) -> Fraction:
    """order as a Fraction, raising ValueError if it is at or below the
    leading exponent of the named series (no coefficient is then known) or
    at or past sys.maxsize (no list of its coefficients can be sized)."""
    order = Fraction(order)
    if order <= LEADING[name]:
        raise ValueError(f"order must exceed {LEADING[name]}, the leading exponent of {name}")
    if order >= sys.maxsize:
        raise ValueError(f"order of {name} must be below {sys.maxsize}, the largest list size")
    return order


def phi_series(order) -> PuiseuxSeries:
    """q^(1/5) prod (1-q^(5n-1))(1-q^(5n-4)) / ((1-q^(5n-2))(1-q^(5n-3)))."""
    return pochhammer_product(ROGERS_RAMANUJAN_FACTORS, Fraction(1, 5), _checked("phi", order))


def eta_series(order) -> PuiseuxSeries:
    """Dedekind eta: q^(1/24) prod (1-q^n)."""
    return pochhammer_product([(0, 1, 1)], Fraction(1, 24), _checked("eta", order))


def gi_series(i: int, order) -> PuiseuxSeries:
    """The three cubic roots as functions of tau:

    g1 = phi(tau)^2 / phi(2 tau)
    g2 = -phi(tau/2) phi(tau)^2
    g3 = phi(tau) phi(2 tau) / phi(tau/2)

    assembled by exponent substitution, never by solving the cubic, so the
    root property stays a genuine downstream check.
    """
    if i not in (1, 2, 3):
        raise ValueError("root index must be 1, 2, or 3")
    order = _checked(f"g{i}", order)
    phi = named_series("phi", 2 * order + 2)
    if i == 1:
        g = phi ** 2 / phi.subst_q_power(2)
    elif i == 2:
        g = -(phi.subst_q_power(Fraction(1, 2)) * phi ** 2)
    else:
        g = phi * phi.subst_q_power(2) / phi.subst_q_power(Fraction(1, 2))
    return g.reduce_ram().truncate(order)


def delta_series(order) -> PuiseuxSeries:
    """(g1-g2)(g2-g3)(g3-g1), the square root of the cubic discriminant.

    Each difference starts at q^0 or later, so the product is exact through
    the order g1..g3 are read at.  Its exponents lie in 1/2 + Z, so at an
    order on that grid reduce_ram rounds no window down and g1..g3 are read
    at the order itself; at any other order they are read 2 further."""
    order = _checked("delta", order)
    at = order if (2 * order).denominator == 1 else order + 2
    g1, g2, g3 = (named_series(f"g{i}", at) for i in (1, 2, 3))
    return ((g1 - g2) * (g2 - g3) * (g3 - g1)).reduce_ram().truncate(order)


def eta_quotient_series(spec, order) -> PuiseuxSeries:
    """prod over (scale m, exponent e) of eta(m tau)^e: q^(sum m*e/24)
    times one Pochhammer product, since eta(m tau)^e adds e to the exponent
    of (1 - q^n) at every multiple n of m."""
    factors = [(0, m, e) for m, e in spec]
    return pochhammer_product(factors, sum(Fraction(m * e, 24) for _, m, e in factors), order)


def j_series(order) -> PuiseuxSeries:
    """Modular j as E4^3 / eta^24 with E4 = 1 + 240 sum sigma_3(n) q^n."""
    order = _checked("j", order)
    m = int(math.ceil(order)) + 3
    # sigma_3 by a divisor sieve: d^3 goes to every multiple of d below m
    sigma3 = [0] * m
    for d in range(1, m):
        cube = d ** 3
        for n in range(d, m, d):
            sigma3[n] += cube
    e4 = PuiseuxSeries(1, 0, m, [1] + [240 * s for s in sigma3[1:]])
    eta24 = pochhammer_product([(0, 1, 24)], Fraction(1), m)
    return (e4 ** 3 / eta24).reduce_ram().truncate(order)


_cache: dict[str, PuiseuxSeries] = {}


def named_series(name: str, order=30) -> PuiseuxSeries:
    """Memoized lookup of a named expansion at (at least) the given order.

    The returned series is truncated to exactly ``order`` so the value seen
    by callers is independent of what the cache happens to hold.  An order
    at or below the leading exponent raises ValueError, cold or warm.
    """
    if name not in NAMES:
        raise UnknownName(name)
    order = _checked(name, order)
    hit = _cache.get(name)
    if hit is None or hit.order < order:
        hit = _cache[name] = _CATALOG[name][1](order)
    return hit.truncate(order)
