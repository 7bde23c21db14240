"""The Bianchi quintic in P^4 over either coefficient domain.

A point is a plain 5-tuple of coordinates, and one body of formulas serves
two domains: binary64 complex numbers and exact Puiseux series.  The
formulas use only ring operations and ``1 / x``, which both domains
provide.  The domains differ in one place, the zero test ``_vanishes``:
for series it is exact through the known window, for numbers it compares
moduli with a relative threshold times the size of the inputs.
Solving the cubic below needs a complex phi (``cubic_roots`` and
``two_torsion_points``); ``two_torsion_from_roots`` writes the 2-torsion
points once, from roots given in either domain, such as the series g1, g2
and g3.

Curve, for a parameter phi:

    x_k^2 + phi * x_{k+2} x_{k-2} - (1/phi) * x_{k+1} x_{k-1} = 0,  k mod 5

with neutral element O = (0 : phi : -1 : 1 : -phi) and inversion
(x0:x1:x2:x3:x4) -> (x0:x4:x3:x2:x1).

The result is stated through polynomials in t = phi^5, written once here
for series, ``QPoly`` and complex arguments alike: ``cubic(xi, t)`` with
roots g1, g2 and g3, ``disc_factor(t)`` = W with the cubic's discriminant
4 t W, and the Weierstrass coefficients ``p20(t)`` = -48 A, ``p30(t)`` = 864 B.

The Weierstrass map's Y-coordinate admits near-miss transcriptions (a
dropped coefficient 11 in the numerator, a halved prefactor, a doubled
x0-coefficient in one denominator) that still vanish on 2-torsion and so
evade casual spot checks.  ``weierstrass_map`` computes the forms that
satisfy Y^2 = X^3 + A X + B exactly in the series domain;
``weierstrass_map_variant`` runs the same body with the near-miss
coefficients as a mutation control.  The sign variant W + 2 t^2 of the
discriminant factor is the mutant of both exact-poly checks in the
identities module.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .exact import PuiseuxSeries, QPoly

ZETA3 = cmath.exp(2j * math.pi / 3)
ZETA5 = cmath.exp(2j * math.pi / 5)

# Numeric zero tests: coordinates built from points compare against
# ZERO_REL times their size; a curve parameter against VALUE_ZERO_ABS.
ZERO_REL = 1e-12
VALUE_ZERO_ABS = 1e-30


class BothFormulasDegenerate(ArithmeticError):
    """Both addition formulas produced the zero vector: inputs are off the
    curve or numerically invalid."""


class DegenerateResult(ArithmeticError):
    """A duplication formula produced the zero vector."""


class SingularCurve(ValueError):
    """The parameter sits on the discriminant locus phi^5 W(phi^5) = 0."""


class DenominatorVanishes(ZeroDivisionError):
    """The point lies in the exceptional locus of the birational map."""


def _vanishes(values, size=None) -> bool:
    """The zero test of both domains: True when every value is zero.

    Series are zero when every stored coefficient vanishes through the
    known window.  Numbers are zero when every modulus is below ZERO_REL *
    size, where ``size`` is the magnitude the values are built from, or
    below VALUE_ZERO_ABS when no size is given (a curve parameter), and
    always when every value is exactly 0.
    """
    if isinstance(values[0], PuiseuxSeries):
        return all(v.is_zero() for v in values)
    bound = VALUE_ZERO_ABS if size is None else ZERO_REL * size
    # an all-zero vector vanishes even when its size, and so the bound, is 0
    return max(map(abs, values)) < bound or not any(values)


def _worse(worst: float, r: float) -> float:
    """The larger of two residuals, where NaN counts as the worst of all.

    ``max(worst, r)`` drops a NaN ``r`` (``max(0.0, nan)`` is 0.0), which
    would let a check pass on a NaN.  Here a NaN ``r`` is returned and a
    NaN ``worst`` is kept; for other values the result is ``max``'s, bits
    included.
    """
    return r if r > worst or r != r else worst


def _size(P) -> float:
    """The largest coordinate modulus, the scale of the numeric zero test
    (1 for series, whose zero test takes no scale)."""
    return 1.0 if isinstance(P[0], PuiseuxSeries) else max(map(abs, P))


# -- curve membership -------------------------------------------------------

# Quadric k is x_k^2 + phi x_i x_j - (1/phi) x_l x_m, with (k, i, j, l, m)
# one row here: i, j = k +- 2 and l, m = k +- 1, mod 5.
_QUADRICS = tuple((k, (k + 2) % 5, (k - 2) % 5, (k + 1) % 5, (k - 1) % 5) for k in range(5))


def _quadric_monomials(P, phi):
    """(x_k^2, phi x_i x_j, (1/phi) x_l x_m), whose a + b - c is quadric k."""
    inv = 1 / phi
    return [(P[k] * P[k], phi * P[i] * P[j], inv * P[l] * P[m]) for k, i, j, l, m in _QUADRICS]


def quadric_residuals(P, phi):
    """The five quadric values; P lies on the curve iff all are zero."""
    if _vanishes((phi,)):
        raise ZeroDivisionError("phi fails the zero test; the quadrics need 1/phi")
    return tuple(a + b - c for a, b, c in _quadric_monomials(P, phi))


def max_quadric_residual(P, phi) -> float:
    """Largest residual relative to the largest monomial, numeric domain;
    NaN when a coordinate is NaN."""
    worst = 0.0
    for a, b, c in _quadric_monomials(P, phi):
        worst = _worse(worst, abs(a + b - c) / max(abs(a), abs(b), abs(c), 1e-300))
    return worst


# -- group structure --------------------------------------------------------

def neutral(phi):
    """O = (0 : phi : -1 : 1 : -phi)."""
    one = phi ** 0
    zero = one - one
    # zero - one, not -one: at a complex phi that is -1 + 0j, not -1 - 0j
    return (zero, phi, zero - one, one, -phi)


def negate(P):
    """Multiplication by -1: reverse the tail of the coordinate vector."""
    return (P[0], P[4], P[3], P[2], P[1])


def add_a1(x, y):
    """The biquadratic addition formula A1; it vanishes when y is a
    fifth-root-of-unity twist of x."""
    return (
        x[2] * x[3] * y[0] ** 2 - x[0] ** 2 * y[2] * y[3],
        x[0] * x[1] * y[3] ** 2 - x[3] ** 2 * y[0] * y[1],
        x[3] * x[4] * y[1] ** 2 - x[1] ** 2 * y[3] * y[4],
        x[1] * x[2] * y[4] ** 2 - x[4] ** 2 * y[1] * y[2],
        x[4] * x[0] * y[2] ** 2 - x[2] ** 2 * y[4] * y[0],
    )


def add_a2(x, y):
    """The biquadratic addition formula A2, valid where A1 vanishes."""
    return (
        x[1] * x[0] * y[2] ** 2 - x[3] ** 2 * y[0] * y[4],
        x[4] * x[3] * y[0] ** 2 - x[1] ** 2 * y[3] * y[2],
        x[2] * x[1] * y[3] ** 2 - x[4] ** 2 * y[1] * y[0],
        x[0] * x[4] * y[1] ** 2 - x[2] ** 2 * y[4] * y[3],
        x[3] * x[2] * y[4] ** 2 - x[0] ** 2 * y[2] * y[1],
    )


def add(P, Q):
    """P + Q via the biquadratic formula A1, falling back to A2 when A1
    degenerates (Q a fifth-root-of-unity twist of P).

    Degeneracy is detected on the output: the A1 vector fails the nonzero
    invariant.  At least one of the two formulas yields a valid point for
    genuine curve points.
    """
    size = _size(P) ** 2 * _size(Q) ** 2
    z = add_a1(P, Q)
    if not _vanishes(z, size):
        return z
    z = add_a2(P, Q)
    if _vanishes(z, size):
        raise BothFormulasDegenerate("both addition formulas vanished")
    return z


def double(P):
    """2P by the mixed duplication family
    z_k = x_{3k} x_{3k+1} x_{3k+2}^2 - x_{3k} x_{3k-1} x_{3k-2}^2."""
    z = tuple(
        P[(3 * k) % 5] * P[(3 * k + 1) % 5] * P[(3 * k + 2) % 5] ** 2
        - P[(3 * k) % 5] * P[(3 * k - 1) % 5] * P[(3 * k - 2) % 5] ** 2
        for k in range(5)
    )
    if _vanishes(z, _size(P) ** 4):
        raise DegenerateResult("duplication formula vanished")
    return z


def double_cubic(P):
    """2P by the cubic duplication family
    z_k = x_{3k+2} x_{3k+1}^3 - x_{3k-1}^3 x_{3k-2} (cross-check route)."""
    return tuple(
        P[(3 * k + 2) % 5] * P[(3 * k + 1) % 5] ** 3
        - P[(3 * k - 1) % 5] ** 3 * P[(3 * k - 2) % 5]
        for k in range(5)
    )


def multiply(P, n: int):
    """n*P by repeated addition (n >= 1); used for torsion-order checks."""
    if n < 1:
        raise ValueError("multiplier must be >= 1")
    acc = P
    for _ in range(n - 1):
        acc = add(acc, P)
    return acc


# -- projective comparison --------------------------------------------------

def projective_distance(P, Q) -> float:
    """1 - |<P,Q>|^2 / (|P|^2 |Q|^2): scale-invariant, 0 iff proportional,
    NaN when a coordinate is NaN."""
    # left folds from 0, not sum(), which compensates float sums from 3.12 on
    ip = n1 = n2 = 0
    for p, q in zip(P, Q):
        ip += p * q.conjugate()
        n1 += abs(p) ** 2
        n2 += abs(q) ** 2
    return _worse(0.0, 1.0 - abs(ip) ** 2 / (n1 * n2))


def projective_equal_series(P, Q) -> bool:
    """Exact projective equality: all 2x2 minors vanish through the window."""
    for i in range(5):
        for j in range(i + 1, 5):
            if not (P[i] * Q[j] - P[j] * Q[i]).is_zero():
                return False
    return True


def normalize_numeric(P):
    """Divide by the coordinate of largest modulus (first among ties)."""
    idx = max(range(5), key=lambda k: (abs(P[k]), -k))
    piv = P[idx]
    return tuple(c / piv for c in P)


# -- torsion ----------------------------------------------------------------

def cubic_roots(phi):
    """Roots of cubic(xi, phi^5) at a complex phi: Cardano's formula, each
    root polished by Newton steps, sorted by (real, imag)."""
    t = complex(phi) ** 5
    # xi = y + 1/3 gives the depressed cubic y^3 + p y + q
    p = t - 1 / 3
    q = 4 * t / 3 - 2 / 27
    # the larger of the two candidates for u^3 avoids cancellation
    r = cmath.sqrt(q * q / 4 + p ** 3 / 27)
    u3 = max(-q / 2 + r, -q / 2 - r, key=abs)
    u = u3 ** (1 / 3) if u3 else 0j
    roots = []
    for k in range(3):
        uk = u * ZETA3 ** k
        y = uk - p / (3 * uk) if uk else 0j
        roots.append(_newton_polish(y + 1 / 3, t))
    return tuple(sorted(roots, key=lambda v: (v.real, v.imag)))


def _newton_polish(x: complex, t: complex) -> complex:
    """Up to four Newton steps on xi^3 - xi^2 + t xi + t, each kept only
    while it shrinks the residual."""
    f = ((x - 1) * x + t) * x + t
    for _ in range(4):
        d = (3 * x - 2) * x + t
        if not f or not d:
            break
        y = x - f / d
        fy = ((y - 1) * y + t) * y + t
        if abs(fy) >= abs(f):
            break
        x, f = y, fy
    return x


def cubic(xi, t):
    """xi^3 - xi^2 + t xi + t; at t = phi^5 its roots are g1, g2 and g3."""
    return xi ** 3 - xi ** 2 + t * xi + t


def disc_factor(t):
    """W = 1 - 11 t - t^2; at t = phi^5 the cubic's discriminant is 4 t W."""
    return 1 - 11 * t - t * t


def p20(t):
    """-48 A at t = phi^5; its cube is j t W^5."""
    return t ** 4 - 228 * t ** 3 + 494 * t ** 2 + 228 * t + 1


def p30(t):
    """864 B at t = phi^5."""
    return t ** 6 + 522 * t ** 5 - 10005 * t ** 4 - 10005 * t ** 2 - 522 * t + 1


def curve_discriminant_value(phi):
    """4 phi^5 W(phi^5): vanishes exactly on singular fibers."""
    t = phi ** 5
    return 4 * t * disc_factor(t)


def two_torsion_from_roots(phi, roots):
    """The 2-torsion point (phi^3 + phi^3/g : phi : g : g : phi) of each
    given root g of cubic(xi, phi^5), in either domain."""
    phi3 = phi ** 3
    return tuple((phi3 + phi3 / g, phi, g, g, phi) for g in roots)


def two_torsion_points(phi):
    """The three 2-torsion points at a complex phi, from its cubic's roots."""
    # the discriminant's factor phi^5 makes it vanish wherever phi does
    if _vanishes((curve_discriminant_value(phi),)):
        raise SingularCurve("discriminant zero test fired; 2-torsion is degenerate")
    return two_torsion_from_roots(phi, cubic_roots(phi))


def five_torsion_points(phi: complex):
    """All 25 points of order dividing 5: index twists and cyclic shifts of O.

    The twist multiplies coordinate k by zeta5^(-k*m); the shift rotates
    coordinates cyclically.  Each point has exactly one zero coordinate.
    """
    O = neutral(complex(phi))
    pts = []
    for m in range(5):
        twisted = tuple(ZETA5 ** (-k * m) * O[k] for k in range(5))
        for b in range(5):
            pts.append(tuple(twisted[(k - b) % 5] for k in range(5)))
    return tuple(pts)


# -- plane models -----------------------------------------------------------

def plane_model_residual(model: str, coords, phi=None):
    """Evaluate a plane-model polynomial; zero iff the coordinates lie on it.

    quintic      (x0, x1, x2; phi)  degree-5 plane image of the curve
    hulek_craig  (x0, x1, x2)       2-torsion parameter curve, genus 4
    bring2       (x1, x2; phi)      the same curve with x0 eliminated
    weber        (x, y)             y^5 (x-1) - (x+1) x^2
    """
    if model == "quintic":
        x0, x1, x2 = coords
        t = phi ** 5
        return (
            phi ** 6 * x0 ** 5
            + phi * x1 ** 5
            + phi ** 6 * x2 ** 5
            + phi ** 4 * (t + 3) * x0 ** 2 * x1 * x2 ** 2
            - (2 * t + 1) * x0 * x2 * x1 ** 3
        )
    if model == "hulek_craig":
        x0, x1, x2 = coords
        return (
            x0 ** 4 * x1 * x2
            - x0 ** 2 * x1 ** 2 * x2 ** 2
            - x0 * x1 ** 5
            - x0 * x2 ** 5
            + 2 * x1 ** 3 * x2 ** 3
        )
    if model == "bring2":
        x1, x2 = coords
        return phi ** 4 * x1 ** 2 * x2 + phi ** 3 * x1 ** 3 + phi * x2 ** 3 - x1 * x2 ** 2
    if model == "weber":
        x, y = coords
        return y ** 5 * (x - 1) - (x + 1) * x ** 2
    raise ValueError(f"unknown plane model {model!r}")


# -- Weierstrass form -------------------------------------------------------

P20 = p20(QPoly.from_terms({5: 1}))
P30 = p30(QPoly.from_terms({5: 1}))
WEIERSTRASS_A = P20 * Fraction(-1, 48)
WEIERSTRASS_B = P30 * Fraction(1, 864)


def weierstrass_x(P, phi):
    """The X coordinate of the birational map to Y^2 = X^3 + A X + B."""
    x0, x1, x2, x3, x4 = P
    if _vanishes((x0,), _size(P)):
        raise DenominatorVanishes("point lies in the exceptional locus of the map")
    t = phi ** 5
    inv0 = 1 / x0
    inv0sq = inv0 * inv0
    return (
        (phi ** 10 + 30 * t + 1) / 12
        - phi ** 2 * (2 * t + 1) * (x1 + x4) * inv0
        - phi ** 3 * (t - 2) * (x2 + x3) * inv0
        - 5 * phi ** 3 * x2 * inv0
        + 5 * phi ** 4 * x1 * (x1 - phi * x2 + phi * x3 - x4) * inv0sq
        + 5 * phi ** 5 * x2 * x4 * inv0sq
    )


def _weierstrass(P, phi, c6, c, k):
    """(X, Y_a, Y_b) with Y numerator (phi^11 + c6 phi^6 - phi)^2, prefactor
    c of Y_a's denominator and x0-coefficient (7 - k phi^5) phi^3 there."""
    x0, x1, x2, x3, x4 = P
    t = phi ** 5
    s = (phi ** 11 + c6 * phi ** 6 - phi) ** 2
    X = weierstrass_x(P, phi)
    da = c * phi * ((7 - k * t) * phi ** 3 * x0 + (7 * t + 1) * (x1 + x4) + (3 - 4 * t) * phi * (x2 + x3))
    db = 2 * ((7 * t + 1) * x0 + (3 * t + 4) * phi ** 2 * (x1 + x4) - (t - 7) * phi ** 3 * (x2 + x3))
    size = _size(P)
    if _vanishes((da,), size) or _vanishes((db,), size):
        raise DenominatorVanishes("point lies in the exceptional locus of the map")
    return X, s * (x2 - x3) * (1 / da), s * (x1 - x4) * (1 / db)


def weierstrass_map(P, phi):
    """(X, Y_a, Y_b) of the birational map; contract Y_a = Y_b and
    Y^2 = X^3 + A(phi) X + B(phi).

    Y_a = (phi^11 + 11 phi^6 - phi)^2 (x2-x3)
          / (2 phi ((7-phi^5) phi^3 x0 + (7 phi^5+1)(x1+x4) + (3-4 phi^5) phi (x2+x3)))
    Y_b = (phi^11 + 11 phi^6 - phi)^2 (x1-x4)
          / (2 ((7 phi^5+1) x0 + (3 phi^5+4) phi^2 (x1+x4) - (phi^5-7) phi^3 (x2+x3)))
    """
    return _weierstrass(P, phi, 11, 2, 1)


def weierstrass_map_variant(P, phi):
    """Mutation control: the near-miss Y expressions (numerator
    (phi^11 + phi^6 - phi)^2, prefactor 1 in place of 2 in Y_a's
    denominator, x0-coefficient 7 - 2 phi^5).  These vanish on 2-torsion
    like the real map but fail the Weierstrass equation elsewhere, which
    the tests assert."""
    return _weierstrass(P, phi, 1, 1, 2)


def weierstrass_residual(X, Y, phi):
    """Y^2 - (X^3 + A(phi) X + B(phi)) for a numeric or series phi."""
    a = WEIERSTRASS_A(phi)
    b = WEIERSTRASS_B(phi)
    return Y * Y - (X ** 3 + a * X + b)
