"""Registry of every named identity as an executable check.

Three kinds of check:

* ``exact_series``: a residual Puiseux series over Q must vanish in every
  coefficient through the configured order.  No tolerance is consulted.
  Each is a row of ``_EXACT_SERIES``: its input series, a residual taking
  them in order, the input its mutant perturbs, and a description.  The
  Bianchi cubic and W come from ``curve.cubic`` and ``curve.disc_factor``.
  A mutant adds q^7 to that input, and ``run_identity`` looks for its
  first failure at the short target q^10 before the configured order: a
  nonzero coefficient there is the least one at any order.
* ``exact_poly``: polynomials over Q that must be zero, each a row of
  ``_EXACT_POLY``.  The mutant of every row is W's sign variant W + 2 t^2.
* ``numeric``: a theta-function identity sampled at seeded random points in
  the configured tau box.  Its runner, ``runner(cfg, rng)``, is a generator
  of relative residuals, one or more per sample.  ``run_identity`` alone
  folds them into the worst, a NaN counting as the worst of all, and the
  check passes iff that is below the configured tolerance.  A body binds
  ``theta.theta_k`` once, when it starts, so a replacement installed before
  the run (a tracer's) is the one called.

Checks are deterministic given a VerifyConfig: per-check random streams are
derived from the seed and the check name, so results are independent of
execution order.  Where an identity admits a near-miss variant (a flipped
nullwert cube in the uniform duplication line, a sign-variant discriminant
factor, near-miss Weierstrass Y expressions), the registry checks the form
that actually verifies and the variant is kept as a mutation control; see
``duplication_uniform_sign``, the mutant of both exact-poly checks and
``curve.weierstrass_map_variant``.  The registry is built once, at
import.
"""

from __future__ import annotations

import time
from collections import namedtuple
from fractions import Fraction
from functools import partial, reduce

from . import curve, modular, theta
from .curve import _worse
from .exact import PuiseuxSeries, QPoly, product_memo

# hashlib.sha256 from CPython's built-in module, which hashlib falls back to:
# the same digests, without mapping OpenSSL
try:
    from _sha2 import sha256 as _sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

_ORDER_SLACK = 8
# a mutated input is its named series plus q^_MUTATION_EXPONENT
_MUTATION_EXPONENT = 7
# a mutant is looked for at this target before the configured one; it
# exceeds the mutation exponent, so the perturbation lies inside its window
_SHORT_TARGET = 10
assert _SHORT_TARGET > _MUTATION_EXPONENT


class UnknownName(KeyError):
    """A check name outside the registry."""


# The records are namedtuples: immutable, equal and hashed by value.


class VerifyConfig(namedtuple("VerifyConfig", "series_order tol samples seed tau_re tau_im",
                              defaults=(30, 1e-9, 20, 7, (-0.5, 0.5), (0.8, 2.0)))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.series_order < 10:
            raise ValueError("series_order must be >= 10")
        if not (0.0 < self.tol < 1e-4):
            raise ValueError("tol must lie in (0, 1e-4)")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        return self

    @classmethod
    def _make(cls, iterable):  # _replace builds through here: check it too
        return cls(*iterable)

    def rng_for(self, name: str):
        # imported here, as only numeric checks draw
        import random

        h = int.from_bytes(_sha256(name.encode()).digest()[:8], "big")
        return random.Random(self.seed ^ h)

    # rng.uniform(a, b) as CPython computes it, a + (b - a) * rng.random(), real part first
    def random_tau(self, rng) -> complex:
        (a, b), (c, d) = self.tau_re, self.tau_im
        return complex(a + (b - a) * rng.random(), c + (d - c) * rng.random())

    @staticmethod
    def random_z(rng) -> complex:
        return complex(-0.5 + 1.0 * rng.random(), -0.5 + 1.0 * rng.random())


# status: pass | fail
class CheckResult(namedtuple("CheckResult", "name kind status worst_residual first_failing_exponent order samples",
                             defaults=(None,) * 4)):
    __slots__ = ()

    def to_json(self) -> dict:
        out = {"name": self.name, "kind": self.kind, "status": self.status}
        if self.kind == "numeric":
            out["worst_residual"] = self.worst_residual
            out["samples"] = self.samples
        else:
            if self.first_failing_exponent is not None:
                out["first_failing_exponent"] = self.first_failing_exponent
            out["order"] = self.order
        return out


class Report(namedtuple("Report", "config checks passed failed elapsed_ms")):
    __slots__ = ()

    def all_passed(self) -> bool:
        return self.failed == 0

    def to_json(self, with_elapsed: bool = True) -> dict:
        cfg = self.config
        out = {
            "config": {**cfg._asdict(), "tau_re": list(cfg.tau_re), "tau_im": list(cfg.tau_im)},
            "checks": [c.to_json() for c in self.checks],
            "passed": self.passed,
            "failed": self.failed,
        }
        if with_elapsed:
            out["elapsed_ms"] = self.elapsed_ms
        return out

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            if c.kind == "numeric":
                detail = f"worst_residual={c.worst_residual:.3e}"
            elif c.status != "pass":
                detail = f"first_failing_exponent={c.first_failing_exponent}"
            elif c.kind == "exact_poly":
                detail = "exact polynomial equality"
            else:
                detail = f"zero through q^{c.order}"
            lines.append(f"{c.status.upper():4s} {c.name:35s} [{c.kind}] {detail}")
        lines.append(f"passed {self.passed}, failed {self.failed}")
        return "\n".join(lines)


# -- exact-series environment ------------------------------------------------


class SeriesEnv:
    """Named-series fetcher at the working order, with an optional one-term
    mutation of a single input (used to prove checks are not vacuous)."""

    def __init__(self, cfg: VerifyConfig, mutate: str | None = None):
        self.order = Fraction(cfg.series_order) + _ORDER_SLACK
        self.target = Fraction(cfg.series_order)
        self.mutate = mutate

    def get(self, name: str) -> PuiseuxSeries:
        s = modular.named_series(name, self.order)
        if name == self.mutate:
            s = s + PuiseuxSeries.monomial(_MUTATION_EXPONENT, self.order)
        return s


def _first_nonzero(residuals, through: Fraction):
    """First exponent <= `through` with a nonzero coefficient, or None.

    Raises if any residual's provable window fails to cover `through`."""
    worst = None
    for r in residuals:
        if r.order <= through:
            raise ArithmeticError(
                f"residual known only to q^{r.order}, need beyond q^{through}; raise the slack"
            )
        lead = next((e for e, _ in r.terms()), None)
        if lead is not None and lead <= through and (worst is None or lead < worst):
            worst = lead
    return worst


# -- exact-series checks -----------------------------------------------------


def _run_row(inputs, residual, env):
    """The one fetch path of an exact-series check: the named inputs at the
    working order, the mutated one perturbed, passed to the residual in order."""
    return residual(*map(env.get, inputs))


def _on_cubic(xi, t):
    return [curve.cubic(xi, t)]


def _g1g2_weierstrass(g1, g2):
    # X = (2-s)/s, Y = d(2-s)/s^2 with s = g1+g2, d = g1-g2 satisfy
    # Y^2 = X^3 + X^2 - X; cleared by s^4.
    s = g1 + g2
    d = g1 - g2
    w = 2 - s
    return [d ** 2 * w ** 2 - s * w ** 3 - s ** 2 * w ** 2 + s ** 3 * w]


def _defeq_gamma10(g1, t, d):
    # Y^2 (W - Y^2)^2 = X^5 W (W + Y^2)^2 at X = phi, Y = delta/(2 g1),
    # cleared by (4 g1^2)^3: u (W v - u)^2 - t W v (W v + u)^2 with
    # u = delta^2, v = 4 g1^2.
    w = curve.disc_factor(t)
    u = d ** 2
    v = 4 * g1 ** 2
    return [u * (w * v - u) ** 2 - t * w * v * (w * v + u) ** 2]


def _hulek_craig(phi, g1, g2, g3):
    phi3 = phi ** 3
    return [curve.plane_model_residual("hulek_craig", (phi3 + phi3 / g, phi, g)) for g in (g1, g2, g3)]


def _bring2_subst(phi, g1, g2, g3):
    # the 2-torsion parameters satisfy the x0-eliminated model, and the
    # substitution xi = phi x2 / x1 carries it to the cubic at generic xi.
    out = [curve.plane_model_residual("bring2", (phi, g), phi) for g in (g1, g2, g3)]
    t = phi ** 5
    for xi in (phi, 1 + phi, phi ** 2):
        lhs = phi ** 2 * curve.plane_model_residual("bring2", (phi ** 0, xi / phi), phi)
        out.append(lhs - curve.cubic(xi, t))
    return out


# name: (inputs, residual, mutation target, description).  The inputs are
# modular.NAMES; _run_row fetches them and the residual takes them in this
# order and returns the series that must vanish.  W is curve.disc_factor.
_EXACT_SERIES = {
    "sym-e1": (("g1", "g2", "g3"), lambda g1, g2, g3: [g1 + g2 + g3 - 1], "g1",
               "elementary symmetric function e1 of the cubic roots is 1"),
    "sym-e2": (("g1", "g2", "g3", "phi5"), lambda g1, g2, g3, t: [g1 * g2 + g2 * g3 + g3 * g1 - t], "g2",
               "e2 of the cubic roots is phi^5"),
    "sym-e3": (("g1", "g2", "g3", "phi5"), lambda g1, g2, g3, t: [g1 * g2 * g3 + t], "g3",
               "e3 of the cubic roots is -phi^5"),
    "cubic-root-g1": (("g1", "phi5"), _on_cubic, "g1", "g1 is a root of xi^3-xi^2+phi^5 xi+phi^5"),
    "cubic-root-g2": (("g2", "phi5"), _on_cubic, "g2", "g2 is a root of the cubic"),
    "cubic-root-g3": (("g3", "phi5"), _on_cubic, "g3", "g3 is a root of the cubic"),
    "delta-squared": (("delta", "phi5"), lambda d, t: [d ** 2 - 4 * t * curve.disc_factor(t)], "delta",
                      "delta^2 = 4 phi^5 (1-11 phi^5-phi^10)"),
    # g1 = (W - Y^2)/(W + Y^2) at Y = delta/(2 g1), cleared of denominators by 4 g1^2
    "g1-from-XY": (("g1", "phi5", "delta"),
                   lambda g1, t, d: [4 * g1 ** 2 * curve.disc_factor(t) * (g1 - 1) + d ** 2 * (g1 + 1)],
                   "g1", "g1 = (W-Y^2)/(W+Y^2) at X=phi, Y=delta/(2 g1)"),
    "defeq-gamma10": (("g1", "phi5", "delta"), _defeq_gamma10, "delta",
                      "the level-10 principal field equation in X=phi, Y=delta/(2 g1)"),
    "ramanujan-relation": (("neg_g2_2tau", "g1"), lambda ng, g1: [ng * (1 + g1) - (1 - g1)], "neg_g2_2tau",
                           "-g2(2 tau) = (1-g1)/(1+g1)"),
    "g1g2-relation": (("g1", "g2"), lambda x, y: [x ** 2 * y + x * y ** 2 + x ** 2 + y ** 2 - x - y], "g2",
                      "X^2Y+XY^2+X^2+Y^2-X-Y = 0 at X=g1, Y=g2"),
    "g1g2-weierstrass": (("g1", "g2"), _g1g2_weierstrass, "g1",
                         "the g1,g2 curve in Weierstrass form Y^2=X^3+X^2-X"),
    # Y^2 - (X^3 - 11 X^2 - X) at X = -phi^5, Y = delta/2
    "G2-defeq": (("phi5", "delta"), lambda t, d: [(d / 2) ** 2 + t ** 3 + 11 * t ** 2 - t], "delta",
                 "Y^2=X^3-11X^2-X at X=-phi^5, Y=delta/2"),
    # the cubic field equation of the genus-4 group, the cubic at (Y, X^5) = (g1, phi^5)
    "bring-kk": (("phi", "g1"), lambda phi, g1: [curve.plane_model_residual("kk", (g1,), phi)], "phi",
                 "cubic field equation at X=phi, Y=g1"),
    "genus5-defeq": (("phi5", "delta"), lambda t, d: [(d / 2) ** 2 - t * curve.disc_factor(t)], "delta",
                     "Y^2=X^5(1-11X^5-X^10) at X=phi, Y=delta/2"),
    # cleared of its denominator 1 + g1, this is the cubic at g1: cubic-root-g1's residual
    "phi5-from-g1": (("g1", "phi5"), _on_cubic, "g1", "phi^5 = (g1^2-g1^3)/(1+g1)"),
    "j5-phi": (("j5", "phi5"), lambda j5, t: [j5 - (t.inverse() - 11 - t)], "j5", "j5 = 1/phi^5 - 11 - phi^5"),
    "j5-j10": (("j5", "j10"), lambda j5, j10: [j5 * j10 ** 2 - (j10 + 1) * (j10 - 4) ** 2], "j10",
               "j5 j10^2 = (j10+1)(j10-4)^2"),
    # j10 = h - 1/h at h = g2(2 tau) = -neg_g2_2tau, cleared by h
    "j10-g2": (("j10", "neg_g2_2tau"), lambda j10, ng: [1 - j10 * ng - ng ** 2], "j10",
               "j10 = g2(2 tau) - 1/g2(2 tau)"),
    "j10-g1": (("j10", "g1"), lambda j10, g1: [j10 * (1 - g1 ** 2) - 4 * g1], "g1", "j10 = 4 g1/(1-g1^2)"),
    "hulek-craig-2tors": (("phi", "g1", "g2", "g3"), _hulek_craig, "g1",
                          "2-torsion parameters satisfy the genus-4 plane sextic"),
    "bring2-subst": (("phi", "g1", "g2", "g3"), _bring2_subst, "phi",
                     "x0-eliminated model passes to the cubic under xi = phi x2/x1"),
    "weber-model": (("g1", "phi"), lambda g1, phi: [curve.plane_model_residual("weber", (-g1, -phi))], "g1",
                    "y^5=(x+1)x^2(x-1)^(-1) at (x,y)=(-g1,-phi)"),
    # j phi^5 W^5 = P20^3, with j built independently from E4 and eta^24
    "j-cross-check": (("j", "phi5"), lambda j, t: [j * (t * curve.disc_factor(t) ** 5) - curve.p20(t) ** 3],
                      "j", "j against P20^3 over the curve discriminant"),
}


# -- exact-poly checks --------------------------------------------------------


def _cubic_disc(t, w):
    # discriminant 18abc - 4a^3c + a^2b^2 - 4b^3 - 27c^2 of x^3 + a x^2 + b x + c
    # at a=-1, b=c=phi^5, against 4 phi^5 W and -4 phi^5 f1 f2 f3
    a, b, c = -1, t, t
    disc = 18 * a * b * c - 4 * a ** 3 * c + a ** 2 * b ** 2 - 4 * b ** 3 - 27 * c ** 2
    f1 = QPoly([-1, 1, 1])      # phi^2 + phi - 1
    f2 = QPoly([1, -2, 4, -3, 1])
    f3 = QPoly([1, 3, 4, 2, 1])
    return [disc - 4 * t * w, disc + 4 * t * f1 * f2 * f3]


# name: (residual, description).  A residual takes t = phi^5 as a QPoly and
# W = curve.disc_factor(t), and returns the polynomials that must vanish.
_EXACT_POLY = {
    "weierstrass-discriminant": (lambda t, w: [(curve.P20 ** 3 - curve.P30 ** 2) / 1728 - t * w ** 5],
                                 "(P20^3 - P30^2)/1728 = phi^5 (1-11 phi^5-phi^10)^5"),
    "cubic-discriminant-factorization": (
        _cubic_disc, "cubic discriminant 4 phi^5 (1-11 phi^5-phi^10) and its three-factor form"),
}


def _run_poly(residual, mutate: bool = False):
    """An exact-poly check's residuals; its mutant passes W's near-miss sign
    variant W + 2 t^2 = 1 - 11 t + t^2, which agrees with W at t = 0."""
    t = QPoly.from_terms({5: 1})
    w = curve.disc_factor(t)
    if mutate:
        w = w + 2 * t * t
    return residual(t, w)


# -- numeric check bodies ------------------------------------------------------


def _rel(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def _primed(w, x, y, z):
    return ((w + x + y + z) / 2, (w + x - y - z) / 2, (w - x + y - z) / 2, (w - x - y + z) / 2)


H = 0.5

# The four-term identities as (lhs, rhs).  A side is (arguments, products):
# the arguments name one of the tuples (v0, v1, v2, v3) built in _four_term,
# and a product (sign, a, b) is the signed four-term product
# theta_a(v0) theta_b(v1) theta_b(v2) theta_b(v3).  Jacobi's A4 is the main
# identity; CHAIN_FORMULAS are the chain identities 2..10.
JACOBI_A4 = (("plain", ((1, 5 * H, 5 * H), (-1, 0, 0))), ("primed", ((1, 5 * H, 5 * H), (-1, 0, 0))))
CHAIN_FORMULAS = {
    2: (("plain", ((-1, 3 * H, 5 * H), (1, 4, 0))), ("primed", ((1, 2, 2), (-1, 9 * H, 9 * H)))),
    3: (("plain", ((1, 3 * H, 3 * H), (-1, 4, 4))), ("primed", ((1, H, 5 * H), (-1, 3, 0)))),
    4: (("plain", ((-1, H, 3 * H), (1, 3, 4))), ("primed", ((1, 0, 2), (-1, 5 * H, 9 * H)))),
    5: (("plain", ((1, H, H), (-1, 3, 3))), ("primed", ((1, 7 * H, 5 * H), (-1, 1, 0)))),
    6: (("plain", ((-1, 9 * H, H), (1, 2, 3))), ("primed", ((1, 3, 2), (-1, H, 9 * H)))),
    7: (("sum", ((-1, 7 * H, 5 * H), (-1, 1, 0))), ("pairs", ((1, 3, 3), (-1, H, H)))),
    8: (("sum", ((1, H, H), (1, 3, 3))), ("pairs", ((1, 3, 3), (1, H, H)))),
    9: (("sum", ((1, H, H), (-1, 3, 3))), ("sum", ((1, 7 * H, 5 * H), (-1, 1, 0)))),
    10: (("pairs10", ((1, 3, 3),)), ("sum", ((1, 3, 3), (-1, 1, 0)))),
}


def _chain_side(theta_k, tau, side, args) -> complex:
    key, products = side
    total = 0
    for sign, a, b in products:
        p = 1.0 + 0.0j
        for k, v in zip((a, b, b, b), args[key]):
            p *= theta_k(k, v, tau)
        total += p if sign > 0 else -p
    return total


def _four_term(formula, cfg: VerifyConfig, rng):
    theta_k = theta.theta_k
    lhs_side, rhs_side = formula
    for _ in range(cfg.samples):
        tau = cfg.random_tau(rng)
        w, x, y, z = (cfg.random_z(rng) for _ in range(4))
        s = x + y + z
        # chain 10 writes its pair sums in another order than chains 7 and
        # 8; each keeps its own, since the order of the factors moves floats
        args = {"plain": (w, x, y, z), "primed": _primed(w, x, y, z), "sum": (s, x, y, z),
                "pairs": (0, y + z, z + x, x + y), "pairs10": (0, x + y, y + z, z + x)}
        yield _rel(_chain_side(theta_k, tau, lhs_side, args), _chain_side(theta_k, tau, rhs_side, args))


# The 25 addition formulas
# theta3(0)^2 theta_s(x+y) theta_d(x-y)
#   = theta_{p0}(x) theta_{p1}(x) theta_{p2}(y)^2
#   - theta_{m0}(x)^2 theta_{m1}(y) theta_{m2}(y)
# are one orbit (the Heisenberg action): z + tau/5 takes theta_k(z) to a
# multiple of theta_{k-1}(z) (theta.shift_rules, "z+tau/5"), so formula
# 11 + 5i + j is formula 11, (3, 3, (1, 0, 0), (3, 2, 3)), at
# (x + (i+j) tau/5, y + j tau/5) up to one common factor: each index drops
# by its argument's shift in tau/5: x+y by i+2j, x-y by i, x by i+j, y by j.
ADDITION_FORMULAS = {11 + 5 * i + j: ((3 - i - 2 * j) % 5, (3 - i) % 5,
                                      ((1 - i - j) % 5, (0 - i - j) % 5, (0 - j) % 5),
                                      ((3 - i - j) % 5, (2 - j) % 5, (3 - j) % 5))
                     for i in range(5) for j in range(5)}


def _addition_eq(formula, cfg: VerifyConfig, rng):
    theta_k = theta.theta_k
    s, d, p, m = formula
    for _ in range(cfg.samples):
        tau = cfg.random_tau(rng)
        x, y = cfg.random_z(rng), cfg.random_z(rng)
        lhs = theta_k(3, 0, tau) ** 2 * theta_k(s, x + y, tau) * theta_k(d, x - y, tau)
        rhs = (theta_k(p[0], x, tau) * theta_k(p[1], x, tau) * theta_k(p[2], y, tau) ** 2
               - theta_k(m[0], x, tau) ** 2 * theta_k(m[1], y, tau) * theta_k(m[2], y, tau))
        yield _rel(lhs, rhs)


def duplication_uniform_sign(tau: complex = 1.3j, z: complex = 0.21 + 0.11j) -> int:
    """Which nullwert cube the one-line duplication formula needs: +1 for
    theta_2(0)^3, -1 for theta_3(0)^3 (the prefactor the five expanded
    formulas carry).  Measures -1; the two candidates differ by the sign
    coming from theta_3(0) = -theta_2(0)."""
    x = theta.theta_vector(z, tau)
    x2 = theta.theta_vector(2 * z, tau)
    n = theta.nullwerte(tau)
    rhs = x[2] * x[1] ** 3 - x[4] ** 3 * x[3]
    with2 = rhs / (n[2] ** 3 * x2[0])
    return 1 if abs(with2 - 1) < 0.5 else -1


def _duplication(family: str, last: int, cfg: VerifyConfig, rng):
    # theta3(0)^2 theta_last(0) theta(2z) = family(theta(z)); the family is
    # looked up at run time, so a replaced curve function is the one called
    theta_k, theta_vector = theta.theta_k, theta.theta_vector
    for _ in range(cfg.samples):
        tau = cfg.random_tau(rng)
        z = cfg.random_z(rng)
        x = theta_vector(z, tau)
        x2 = theta_vector(2 * z, tau)
        pre = theta_k(3, 0.0, tau) ** 2 * theta_k(last, 0.0, tau)
        for k, rhs in enumerate(getattr(curve, family)(x)):
            yield _rel(pre * x2[k], rhs)


def _transform_tables():
    """theta-transforms as tables over the ten reduced indices: per rule,
    (k, position of the reduced k - down, the multiplier when it depends on
    k alone); and per k, (k, position of the reduced -k, parity sign)."""
    position = {theta.reduce_index(k): i for i, k in enumerate(theta.INDICES)}
    rules = {}
    for name, (_, mult, down) in theta.shift_rules(1j).items():
        k_only = name in theta.K_ONLY_RULES
        rules[name] = tuple((k, position[theta.reduce_index(k - down)], mult(k, 0.0) if k_only else None)
                            for k in theta.INDICES)
    parity = tuple((k, position[theta.reduce_index(-k)], -1.0 if float(k).is_integer() else 1.0)
                   for k in theta.INDICES)
    return rules, parity


_SHIFT_TABLE, _PARITY_TABLE = _transform_tables()


def _theta_transforms(cfg: VerifyConfig, rng):
    theta_k = theta.theta_k
    for _ in range(cfg.samples):
        tau = cfg.random_tau(rng)
        z = cfg.random_z(rng)
        # every right-hand side is theta_j(z) for a reduced index j: evaluate
        # each once per sample
        at_z = [theta_k(k, z, tau) for k in theta.INDICES]
        for name, (shift, mult, _) in theta.shift_rules(tau).items():
            zs = z + shift
            shared = None if name in theta.K_ONLY_RULES else mult(None, z)
            for k, j, factor in _SHIFT_TABLE[name]:
                lhs = theta_k(k, zs, tau)
                rhs = (shared if factor is None else factor) * at_z[j]
                yield _rel(lhs, rhs)
        mz = -z
        for k, j, sign in _PARITY_TABLE:
            yield _rel(theta_k(k, mz, tau), sign * at_z[j])


def _theta_nullwerte(cfg: VerifyConfig, rng):
    for _ in range(cfg.samples):
        tau = cfg.random_tau(rng)
        n = theta.nullwerte(tau)
        scale = max(abs(v) for v in n)
        yield from (abs(n[0]) / scale, abs(n[3] + n[2]) / scale, abs(n[4] + n[1]) / scale)


def _bianchi_quadrics(cfg: VerifyConfig, rng):
    for _ in range(cfg.samples):
        tau = cfg.random_tau(rng)
        z = cfg.random_z(rng)
        phi = theta.phi_numeric(tau)
        yield curve.max_quadric_residual(theta.theta_vector(z, tau), phi)


def _addition_map(cfg: VerifyConfig, rng):
    for _ in range(cfg.samples):
        tau = cfg.random_tau(rng)
        zx, zy = cfg.random_z(rng), cfg.random_z(rng)
        p = theta.theta_vector(zx, tau)
        q = theta.theta_vector(zy, tau)
        s = theta.theta_vector(zx + zy, tau)
        yield curve.projective_distance(curve.add_a1(p, q), s)
        yield curve.projective_distance(curve.add_a2(p, q), s)


def _five_torsion(cfg: VerifyConfig, rng):
    for _ in range(max(1, cfg.samples // 5)):
        tau = cfg.random_tau(rng)
        phi = theta.phi_numeric(tau)
        o = curve.neutral(phi)
        for p in curve.five_torsion_points(phi):
            yield curve.max_quadric_residual(p, phi)
            yield curve.projective_distance(curve.multiply(p, 5), o)


def _weierstrass_map_check(cfg: VerifyConfig, rng):
    for _ in range(cfg.samples):
        tau = cfg.random_tau(rng)
        phi = theta.phi_numeric(tau)
        z = cfg.random_z(rng)
        p = theta.theta_vector(z, tau)
        x, ya, yb = curve.weierstrass_map(p, phi)
        yield _rel(ya, yb)
        res = curve.weierstrass_residual(x, ya, phi)
        scale = max(abs(ya) ** 2, abs(x) ** 3, 1e-300)
        yield abs(res) / scale
    tau = 1.1j
    phi = theta.phi_numeric(tau)
    a = complex(curve.WEIERSTRASS_A(phi))
    b = complex(curve.WEIERSTRASS_B(phi))
    for p in curve.two_torsion_points(phi):
        x, ya, yb = curve.weierstrass_map(p, phi)
        scale = max(abs(x) ** 3, abs(b), 1e-300)
        yield from (abs(ya) / abs(x), abs(yb) / abs(x), abs(x ** 3 + a * x + b) / scale)


_NUMERIC = {
    "jacobi-A4": (partial(_four_term, JACOBI_A4), "the four-term product main identity"),
    "duplication-cubic": (partial(_duplication, "double_cubic", 3),
                          "duplication, cubic family (theta3(0)^3 prefactor)"),
    "duplication-mixed": (partial(_duplication, "double", 1),
                          "duplication, mixed family (theta3(0)^2 theta1(0) prefactor)"),
    "theta-transforms": (_theta_transforms, "the six quasi-periodicity rules and parity"),
    "theta-nullwerte": (_theta_nullwerte, "theta0(0)=0, theta3(0)=-theta2(0), theta4(0)=-theta1(0)"),
    "bianchi-quadrics-theta": (_bianchi_quadrics, "the five quadrics on theta coordinate vectors"),
    "addition-map-A1A2": (_addition_map, "A1/A2 coordinate addition against theta vectors of the sum"),
    "five-torsion": (_five_torsion, "25 points of order 5: membership and additive order"),
    "weierstrass-map": (_weierstrass_map_check,
                        "X,Y map: Y_a=Y_b, the curve equation, and 2-torsion mapping to Y=0"),
    **{f"chain-eq{i}": (partial(_four_term, f), f"derived four-term identity {i} of the shift chain")
       for i, f in CHAIN_FORMULAS.items()},
    **{f"addition-eq{i}": (partial(_addition_eq, f), f"coordinate addition formula {i}")
       for i, f in ADDITION_FORMULAS.items()},
}


# -- registry -----------------------------------------------------------------


# kind: exact_series | exact_poly | numeric
class IdentityCheck(namedtuple("IdentityCheck", "name kind description runner mutation_target", defaults=(None,))):
    __slots__ = ()

    def __repr__(self):  # without the runner, whose repr carries an address
        return (f"IdentityCheck(name={self.name!r}, kind={self.kind!r}, description={self.description!r}, "
                f"mutation_target={self.mutation_target!r})")


def _build_registry() -> tuple[IdentityCheck, ...]:
    checks = []
    for name, (inputs, residual, target, desc) in _EXACT_SERIES.items():
        # an input that names no series, or a mutant that perturbs no input,
        # fails here and not when the check runs; reading modular.NAMES also
        # executes modular along with the registry
        if target not in inputs or not set(inputs) <= set(modular.NAMES):
            raise ValueError(f"{name}: inputs {inputs} must be series names "
                             f"and include the mutation target {target!r}")
        checks.append(IdentityCheck(name, "exact_series", desc, partial(_run_row, inputs, residual), target))
    for name, (residual, desc) in _EXACT_POLY.items():
        checks.append(IdentityCheck(name, "exact_poly", desc, partial(_run_poly, residual)))
    for name, (fn, desc) in _NUMERIC.items():
        checks.append(IdentityCheck(name, "numeric", desc, fn))
    return tuple(sorted(checks, key=lambda c: c.name))


_REGISTRY = _build_registry()
_BY_NAME = {c.name: c for c in _REGISTRY}


def registry() -> tuple[IdentityCheck, ...]:
    """Every check, sorted by name; built once, at import."""
    return _REGISTRY


def get_check(name: str) -> IdentityCheck:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise UnknownName(name) from None


def check_names() -> tuple[str, ...]:
    return tuple(_BY_NAME)


def run_identity(name: str, cfg: VerifyConfig | None = None, *, mutate: bool = False) -> CheckResult:
    """Run one named check; ``mutate`` perturbs the check's designated input
    to show the check is not vacuous (exact kinds; a numeric one raises).

    A mutated exact-series check runs first at the short target
    _SHORT_TARGET and stops at a failure found there, which is the first
    failure at the configured order as well; only a mutant that passes the
    short window is run again at the configured order.  The result reports
    the configured order either way."""
    cfg = cfg or VerifyConfig()
    check = get_check(name)
    if check.kind == "exact_series":
        order = str(Fraction(cfg.series_order))
        # below a residual's window its coefficients are the true ones, so a
        # nonzero one at the short target is the least at the full one too
        short = mutate and cfg.series_order > _SHORT_TARGET
        for window in (cfg._replace(series_order=_SHORT_TARGET), cfg) if short else (cfg,):
            env = SeriesEnv(window, mutate=check.mutation_target if mutate else None)
            # one memo per window: a check's runs repeat products, and sharing
            # them across checks pays only at deep orders
            with product_memo():
                bad = _first_nonzero(check.runner(env), env.target)
            if bad is not None:
                return CheckResult(name, check.kind, "fail", first_failing_exponent=str(bad), order=order)
        return CheckResult(name, check.kind, "pass", order=order)
    if check.kind == "exact_poly":
        ok = all(r.is_zero() for r in check.runner(mutate))
        return CheckResult(name, check.kind, "pass" if ok else "fail",
                           first_failing_exponent=None if ok else "poly", order="exact")
    if mutate:
        raise ValueError(f"{name}: numeric checks have no mutant")
    # the one fold of a numeric check's residuals, NaN counting as worst
    worst = reduce(_worse, check.runner(cfg, cfg.rng_for(name)), 0.0)
    status = "pass" if worst < cfg.tol else "fail"
    return CheckResult(name, check.kind, status, worst_residual=worst, samples=cfg.samples)


def run_all(cfg: VerifyConfig | None = None, names=None) -> Report:
    """Run every check (or the named subset, each name once), deterministically."""
    cfg = cfg or VerifyConfig()
    selected = check_names() if names is None else tuple(names)
    for i, n in enumerate(selected):
        if n not in _BY_NAME:
            raise UnknownName(n)
        if n in selected[:i]:
            raise ValueError(f"check {n!r} is named more than once")
    t0 = time.perf_counter()
    results = tuple(run_identity(n, cfg) for n in sorted(selected))
    elapsed = (time.perf_counter() - t0) * 1000.0
    passed = sum(1 for r in results if r.status == "pass")
    return Report(config=cfg, checks=results, passed=passed, failed=len(results) - passed,
                  elapsed_ms=elapsed)
