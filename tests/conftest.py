"""Shared test helpers.

The dict-based series code here is a deliberately independent oracle: plain
{exponent: Fraction} arithmetic with hard truncation, sharing no code with
the package kernel.

``reference_theta_k`` and ``reference_theta_char`` are the straightforward
theta evaluator the package's fast path must reproduce bit for bit: the
index reduced and p = 1/2 - k/5 computed on every call, every loop
invariant recomputed per term, and the window sorted on every call into the
package's order, ascending |n + 2p + Im z/Im tau| with ties in ascending n,
which is not quite descending magnitude (that would be ascending
|n + p + Im z/Im tau|).  The package sorts a window once and looks its
order up after; this one shares no cache with it.
``reference_terms`` lists the window's terms in that order.
``reference_theta_transforms`` is the ``theta-transforms`` check body with
every theta value evaluated separately.
"""

import cmath
import math
from fractions import Fraction

import pytest

from bianchiq.theta import ConvergenceError, DomainError, shift_rules

_REF_WINDOW_LOG = -math.log(1e-30)
_REF_MAX_WINDOW = 10**6


def reference_theta_char(p: float, c: float, z: complex, tau: complex, *, extra: float = 0.0) -> complex:
    total = 0.0 + 0.0j
    for term in reference_terms(p, c, z, tau, extra=extra):
        total += term
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        raise OverflowError("theta summation overflowed binary64")
    return total


def reference_terms(p: float, c: float, z: complex, tau: complex, *, extra: float = 0.0) -> list:
    """Every term of the window, in the package's summation order."""
    z = complex(z)
    tau = complex(tau)
    a = tau.imag
    if a <= 0.0:
        raise DomainError(f"Im(tau) must be positive, got {a}")
    b = z.imag
    # |term(n)| = exp(-pi*a*u^2 + pi*b^2/a) with u = n + p + b/a
    center = -b / a - p
    half = math.sqrt((_REF_WINDOW_LOG + 8.0 + extra) / (math.pi * a)) + 1.0
    n_min = math.floor(center - half)
    n_max = math.ceil(center + half)
    if n_max - n_min > _REF_MAX_WINDOW:
        raise ConvergenceError(f"window of {n_max - n_min} terms exceeds cap; Im(tau) too small")
    ns = sorted(range(n_min, n_max + 1), key=lambda n: abs(n + p - center))
    ipi = 1j * math.pi
    terms = []
    for n in ns:
        m = n + p
        terms.append(cmath.exp(ipi * m * m * tau + 2 * ipi * m * (z + c)))
    return terms


def _reference_reduce_index(k) -> Fraction:
    k = Fraction(k)
    if k.denominator not in (1, 2):
        raise ValueError(f"theta index must be integer or half-integer, got {k}")
    return k % 5


def reference_theta_k(k, z: complex, tau: complex) -> complex:
    k = _reference_reduce_index(k)
    p = float(Fraction(1, 2) - k / 5)
    return reference_theta_char(p, 2.5, 5 * complex(z), 5 * complex(tau)) / 1j


_REF_INDICES = tuple(Fraction(k) for k in range(5)) + tuple(Fraction(2 * k + 1, 2) for k in range(5))


def _reference_rel(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def reference_theta_transforms(cfg, rng) -> float:
    worst = 0.0
    for _ in range(cfg.samples):
        tau = cfg.random_tau(rng)
        z = cfg.random_z(rng)
        rules = shift_rules(tau)
        for shift, mult, down in rules.values():
            for k in _REF_INDICES:
                lhs = reference_theta_k(k, z + shift, tau)
                rhs = mult(k, z) * reference_theta_k(k - down, z, tau)
                worst = max(worst, _reference_rel(lhs, rhs))
        for k in _REF_INDICES:
            sgn = -1.0 if k.denominator == 1 else 1.0
            worst = max(worst, _reference_rel(reference_theta_k(k, -z, tau), sgn * reference_theta_k(-k, z, tau)))
    return worst


def dict_mul(a: dict, b: dict, cap: Fraction) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if e < cap:
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def dict_add(a: dict, b: dict, cap: Fraction) -> dict:
    out = {}
    for d in (a, b):
        for e, c in d.items():
            if e < cap:
                out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def dict_product_factor(series: dict, n: int, exponent: int, cap: Fraction) -> dict:
    """Multiply by (1 - q^n)^exponent, exponent any integer, truncating at cap."""
    out = dict(series)
    for _ in range(abs(exponent)):
        if exponent > 0:
            out = dict_mul(out, {Fraction(0): Fraction(1), Fraction(n): Fraction(-1)}, cap)
        else:
            # divide by (1 - q^n): multiply by the geometric series
            geo = {Fraction(0): Fraction(1)}
            k = n
            while k < cap:
                geo[Fraction(k)] = Fraction(1)
                k += n
            out = dict_mul(out, geo, cap)
    return out


def brute_force_product(factor_exponents, cap: Fraction, prefactor: Fraction = Fraction(0)) -> dict:
    """prod over (n, e) of (1-q^n)^e times q^prefactor, truncated at cap."""
    out = {Fraction(0): Fraction(1)}
    for n, e in factor_exponents:
        out = dict_product_factor(out, n, e, cap - prefactor)
    if prefactor:
        out = {e + prefactor: c for e, c in out.items()}
    return out


def series_coeff(series, e) -> Fraction:
    return series.coefficient(Fraction(e))


@pytest.fixture(scope="session")
def phi30():
    from bianchiq.modular import named_series

    return named_series("phi", 31)
