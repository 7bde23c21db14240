"""Kernel tests: Puiseux series arithmetic, truncation bookkeeping, the
q-Pochhammer builder, and exact polynomials."""

import math
import operator
import random
import struct
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bianchiq import curve, exact, modular
from bianchiq.exact import (
    OrderExceeded,
    PuiseuxSeries,
    QPoly,
    ZeroLeadingCoefficient,
    _int_mul,
    _of,
    pochhammer_product,
)
from bianchiq.modular import named_series
from bianchiq.theta import phi_numeric

from conftest import brute_force_product, dict_add, dict_mul


def mono(e, order, c=1):
    return PuiseuxSeries.monomial(F(e), F(order), c)


class TestAdd:
    def test_additive_inverse_preserves_trunc(self):
        a = mono(F(1, 5), 4)
        s = a + (-a)
        assert s.is_zero()
        assert s.order == 4

    def test_trunc_min_rule(self):
        a = PuiseuxSeries.from_terms({0: 1, 1: -1}, 3)  # 1 - q mod q^3
        b = PuiseuxSeries.from_terms({1: 1}, 2)  # q mod q^2
        s = a + b
        assert s.order == 2
        assert s.coefficient(0) == 1
        assert s.coefficient(1) == 0
        with pytest.raises(OrderExceeded):
            s.coefficient(2)

    def test_g_sum_is_one_through_30(self):
        from bianchiq.modular import named_series

        g = [named_series(f"g{i}", 31) for i in (1, 2, 3)]
        r = g[0] + g[1] + g[2] - 1
        assert r.is_zero() and r.order >= 31


class TestMul:
    def test_telescoping(self):
        a = PuiseuxSeries.from_terms({0: 1, 1: -1}, 10)
        b = PuiseuxSeries.from_terms({0: 1, 1: 1, 2: 1}, 10)
        p = a * b
        assert p.coefficient(0) == 1
        assert p.coefficient(1) == 0
        assert p.coefficient(2) == 0
        assert p.coefficient(3) == -1

    def test_difference_of_squares_fractional(self):
        a = mono(F(1, 5), 4) - mono(F(6, 5), 4)
        b = mono(F(1, 5), 4) + mono(F(6, 5), 4)
        p = a * b
        assert p.coefficient(F(2, 5)) == 1
        assert p.coefficient(F(12, 5)) == -1
        assert p.coefficient(F(7, 5)) == 0

    def test_g_product_is_minus_phi5(self):
        from bianchiq.modular import named_series

        g = [named_series(f"g{i}", 31) for i in (1, 2, 3)]
        r = g[0] * g[1] * g[2] + named_series("phi5", 31)
        assert r.is_zero() and r.order >= 30

    def test_mul_trunc_rule(self):
        a = PuiseuxSeries.from_terms({1: 1}, 5)  # q mod q^5
        b = PuiseuxSeries.from_terms({2: 1}, 4)  # q^2 mod q^4
        p = a * b
        # min(a.trunc + b.lo, b.trunc + a.lo) = min(5+2, 4+1) = 5
        assert p.order == 5


class TestInverse:
    def test_geometric(self):
        a = PuiseuxSeries.from_terms({0: 1, 1: -1}, 3)
        inv = a.inverse()
        assert [inv.coefficient(k) for k in range(3)] == [1, 1, 1]

    def test_monomial(self):
        inv = mono(F(1, 5), 3).inverse()
        assert inv.valuation() == F(-1, 5)
        assert inv.coefficient(F(-1, 5)) == 1

    def test_j5_expansion(self):
        from bianchiq.modular import named_series

        t = named_series("phi5", 12)
        j5 = t.inverse() - 11 - t
        expected = {-1: 1, 0: -6, 1: 9, 2: 10, 3: -30}
        for e, c in expected.items():
            assert j5.coefficient(e) == c

    def test_zero_leading_raises(self):
        z = PuiseuxSeries.zero(5)
        with pytest.raises(ZeroLeadingCoefficient):
            z.inverse()

    def test_hundred_random_units(self):
        import random

        rng = random.Random(20240)
        for _ in range(100):
            ram = rng.choice((1, 2, 5))
            lo = rng.randint(-3, 4)
            n = rng.randint(1, 12)
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            coeffs[0] = F(rng.randint(1, 9))
            a = PuiseuxSeries(ram, lo, lo + n, coeffs)
            r = a * a.inverse() - 1
            assert r.is_zero()


class TestPow:
    def test_phi5_leading_terms(self, phi30):
        t = phi30 ** 5
        expected = {1: 1, 2: -5, 3: 15, 4: -30, 5: 40}
        for e, c in expected.items():
            assert t.coefficient(e) == c

    def test_power_zero_is_one(self):
        a = PuiseuxSeries.from_terms({F(1, 2): 3, 2: -1}, 6)
        p = a ** 0
        assert p.coefficient(0) == 1
        assert all(c == 0 for e, c in p.terms() if e != 0)

    def test_eta24_against_brute_force(self):
        eta24 = pochhammer_product([(0, 1, 24)], F(1), 21)
        oracle = brute_force_product([(n, 24) for n in range(1, 21)], F(21), F(1))
        for e in range(1, 21):
            assert eta24.coefficient(e) == oracle.get(F(e), 0)

    def test_eta_to_the_24_by_power_operator(self):
        # the 24th power of eta itself, exercising repeated squaring on the
        # 24-fold grid, against the independent product oracle
        eta = pochhammer_product([(0, 1, 1)], F(1, 24), 21)
        eta24 = eta ** 24
        oracle = brute_force_product([(n, 24) for n in range(1, 21)], F(21), F(1))
        for e in range(1, 21):
            assert eta24.coefficient(e) == oracle.get(F(e), 0)

    def test_negative_power(self):
        a = PuiseuxSeries.from_terms({1: 1, 2: -1}, 8)
        p = a ** -2
        r = p * a * a - 1
        assert r.is_zero()


class TestSubstQPower:
    def test_monomial_scale(self):
        s = mono(F(1, 5), 3).subst_q_power(2)
        assert s.valuation() == F(2, 5)

    def test_half_scale_ramification(self, phi30):
        h = phi30.subst_q_power(F(1, 2))
        assert h.ram == 10
        assert h.valuation() == F(1, 10)

    def test_g2_leading_terms(self):
        from bianchiq.modular import named_series

        g2 = named_series("g2", 10)
        expected = {F(1, 2): -1, 1: 1, F(3, 2): 1, 2: -2, 3: 2, F(7, 2): -2}
        for e, c in expected.items():
            assert g2.coefficient(e) == c

    def test_round_trip(self, phi30):
        assert phi30.subst_q_power(2).subst_q_power(F(1, 2)).agrees_with(phi30)


class TestCoefficient:
    def test_phi_reference_values(self, phi30):
        assert phi30.coefficient(F(51, 5)) == 2
        assert phi30.coefficient(F(2, 5)) == 0

    def test_g1_q6(self):
        from bianchiq.modular import named_series

        assert named_series("g1", 10).coefficient(6) == -8

    def test_order_exceeded(self, phi30):
        with pytest.raises(OrderExceeded):
            phi30.coefficient(phi30.order)


class TestPochhammer:
    def test_eta_pentagonal(self):
        eta = pochhammer_product([(0, 1, 1)], F(1, 24), 16)
        pent = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1}
        for k in range(15):
            expected = pent.get(k, 0)
            assert eta.coefficient(F(1, 24) + k) == expected
        oracle = brute_force_product([(n, 1) for n in range(1, 16)], F(16))
        for k in range(15):
            assert eta.coefficient(F(1, 24) + k) == oracle.get(F(k), 0)

    def test_rogers_ramanujan_leading_terms(self, phi30):
        expected = {
            F(1, 5): 1, F(6, 5): -1, F(11, 5): 1, F(16, 5): 0, F(21, 5): -1,
            F(26, 5): 1, F(31, 5): -1, F(36, 5): 1, F(41, 5): 0, F(46, 5): -1,
            F(51, 5): 2,
        }
        for e, c in expected.items():
            assert phi30.coefficient(e) == c

    def test_empty_product_is_one(self):
        one = pochhammer_product([], F(0), 5)
        assert one.coefficient(0) == 1
        assert not any(c for e, c in one.terms() if e != 0)

    @pytest.mark.parametrize("bad", (F(1, 2), F(2), 0.5, 2.0))
    @pytest.mark.parametrize("position", range(3))
    def test_non_integer_factor_data_raises(self, bad, position):
        # (1 - q)^(1/2) is not an integer product, and 2.0 is not a residue
        factor = [0, 1, 1]
        factor[position] = bad
        with pytest.raises(TypeError):
            pochhammer_product([tuple(factor)], F(0), 5)

    @pytest.mark.parametrize("m", (0, -5))
    def test_modulus_below_one_raises(self, m):
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            pochhammer_product([(1, m, 1)], F(0), 5)


class TestQPoly:
    def test_annihilator(self):
        a = QPoly.from_terms({3: 2, 0: -1})
        assert a * QPoly() == QPoly()

    def test_p20_shape(self):
        p = QPoly.from_terms({20: 1, 15: -228, 10: 494, 5: 228, 0: 1})
        assert p.degree() == 20
        assert p.coeffs[0] == 1

    def test_quintic_times_disc_power(self):
        # independent expansion by repeated multiplication
        inner = QPoly.from_terms({10: 1, 5: -11, 0: 1})
        prod = QPoly.from_terms({5: 1})
        for _ in range(5):
            prod = prod * inner
        fast = QPoly.from_terms({5: 1}) * inner ** 5
        assert fast == prod
        assert fast.degree() == 55
        assert fast.coeffs[55] == 1
        assert fast.coeffs[5] == 1

    def test_mul_matches_schoolbook(self):
        rng = random.Random(11)

        def poly():
            return [F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4)) if rng.random() < 0.7 else F(0)
                    for _ in range(rng.randint(1, 30))]

        for _ in range(50):
            a, b = poly(), poly()
            ref = [F(0)] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    ref[i + j] += x * y
            got = (QPoly(a) * QPoly(b)).coeffs
            assert got == QPoly(ref).coeffs
            assert all(type(c) is F for c in got)

    def test_ring_ops_match_fraction_lists(self):
        # every operation against the same one on Fraction lists, with
        # denominators other than 1 and int and Fraction scalars mixed
        rng = random.Random(31)

        def coeff():
            if rng.random() < 0.3:
                return 0
            n = rng.randint(-10 ** 4, 10 ** 4)
            return n if rng.random() < 0.4 else F(n, rng.choice([1, 2, 3, 6, 7, 9, 10 ** 3 + 9]))

        def ref_add(a, b):
            n = max(len(a), len(b))
            return [F(x) + F(y) for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))]

        def ref_mul(a, b):
            out = [F(0)] * max(len(a) + len(b) - 1, 0)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return out

        for _ in range(200):
            a = [coeff() for _ in range(rng.randint(0, 8))]
            b = [coeff() for _ in range(rng.randint(0, 8))]
            s = rng.choice([3, -2, F(2, 3), F(-5, 7), F(6, 4)])
            pa, pb = QPoly(a), QPoly(b)
            assert (pa + pb).coeffs == QPoly(ref_add(a, b)).coeffs
            assert (pa - pb).coeffs == QPoly(ref_add(a, [-x for x in b])).coeffs
            assert (pa * pb).coeffs == QPoly(ref_mul(a, b)).coeffs
            assert (pa * s).coeffs == (s * pa).coeffs == QPoly([x * s for x in a]).coeffs
            assert (pa / s).coeffs == QPoly([F(x) / s for x in a]).coeffs
            assert (pa + s).coeffs == (s + pa).coeffs == QPoly(ref_add(a, [s])).coeffs
            assert (s - pa).coeffs == QPoly(ref_add([s], [-x for x in a])).coeffs
            assert (pa ** 3).coeffs == QPoly(ref_mul(ref_mul(a, a), a)).coeffs

    def test_canonical_form(self):
        # den > 0, lowest terms, no trailing zero numerator
        rng = random.Random(5)
        polys = [QPoly(), QPoly([0, 0]), QPoly([F(2, 4), 0, F(-6, 8), 0]), QPoly([F(3, -6)])]
        for _ in range(100):
            a = QPoly([F(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(rng.randint(0, 6))])
            b = QPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))])
            polys += [a + b, a - a, a * b, a * F(-4, 9), a / -6, (a + 1) ** 2]
        for p in polys:
            assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
            assert not p.nums or p.nums[-1] != 0
            assert all(type(x) is int for x in p.nums) and type(p.nums) is tuple
            assert p.coeffs == tuple(F(x, p.den) for x in p.nums)
            assert all(type(c) is F for c in p.coeffs)

    def test_one_value_built_every_way_is_one_value(self):
        # 1/2 - 3/4 x^2
        ways = [QPoly([F(1, 2), 0, F(-3, 4)]),
                QPoly([F(2, 4), 0, F(-6, 8), 0, 0]),
                QPoly.from_terms({2: F(-3, 4), 0: F(1, 2)}),
                QPoly.from_terms({2: F(-1, 4), 0: F(1, 2), 3: 0}) + QPoly.from_terms({2: F(-1, 2)}),
                QPoly([F(1, 4)]) * QPoly([2, 0, -3]),
                QPoly([2, 0, -3]) / 4,
                QPoly([1, 0, 5]) - QPoly([F(1, 2), 0, F(23, 4)]),
                QPoly([F(1, 2), F(1, 3)]) * QPoly([1, F(-2, 3)]) + QPoly([0, 0, F(-19, 36)]),
                QPoly([0, 1]) * QPoly([0, F(-3, 4)]) + F(1, 2)]
        for p in ways:
            assert p == ways[0] and hash(p) == hash(ways[0])
            assert (p.nums, p.den) == ((2, 0, -3), 4)
        assert len(set(ways)) == 1

    @pytest.mark.parametrize("value", [3, -7, F(1, 2), F(-22, 9), 0])
    def test_a_constant_hashes_as_the_number_it_equals(self, value):
        p = QPoly([value])
        assert p == value and hash(p) == hash(value)
        assert len({p, value}) == 1 and {value: "x"}[p] == "x" and {p: "x"}[value] == "x"
        assert p in {value} and value in {p}

    def test_the_zero_polynomial_hashes_as_zero(self):
        for zero in (QPoly(), QPoly([0, 0]), QPoly([1, 2]) - QPoly([1, 2]), QPoly.from_terms({})):
            assert zero == 0 and zero == F(0) and hash(zero) == hash(0)
            assert len({zero, 0, F(0)}) == 1

    def test_a_polynomial_of_positive_degree_equals_no_number(self):
        p = QPoly([3, 1])
        assert p != 3 and p != QPoly([3]) and len({p, 3}) == 2

    def test_curve_polynomials_keep_their_coefficients(self):
        # the coefficients the Fraction-list QPoly held, written out
        def spread(terms, scale=1):
            return tuple(F(terms.get(i, 0)) * scale for i in range(max(terms) + 1))

        p20 = {0: 1, 5: 228, 10: 494, 15: -228, 20: 1}
        p30 = {0: 1, 5: -522, 10: -10005, 20: -10005, 25: 522, 30: 1}
        assert curve.P20.coeffs == spread(p20)
        assert curve.P30.coeffs == spread(p30)
        assert curve.WEIERSTRASS_A.coeffs == spread(p20, F(-1, 48))
        assert curve.WEIERSTRASS_B.coeffs == spread(p30, F(1, 864))
        assert (curve.WEIERSTRASS_A.den, curve.WEIERSTRASS_B.den) == (48, 864)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            QPoly([1, 2]) / 0
        with pytest.raises(ZeroDivisionError):
            QPoly([1, 2]) / F(0)

    def test_eval_fraction_and_complex(self):
        p = QPoly([1, 0, -2])
        assert p(F(1, 2)) == F(1, 2)
        assert abs(p(1j) - (1 + 2)) < 1e-15


def fraction_horner(p, x):
    """Horner's rule on the Fraction coefficients, each step acc * x + c:
    at a complex x that goes through Fraction.__radd__."""
    acc = None
    for c in reversed(p.coeffs):
        acc = x * 0 + c if acc is None else acc * x + c
    return acc


QPOLYS = {"P20": curve.P20, "P30": curve.P30, "A": curve.WEIERSTRASS_A, "B": curve.WEIERSTRASS_B,
          "non-dyadic": QPoly([F(-1, 3), F(2, 7), 0, F(-5, 11), F(-22, 9), F(1, 3)]),
          # at x = inf a first step without x * 0 would leave inf, not NaN, in the real part
          "linear": QPoly([F(-1, 3), F(2, 7)])}


def _bits(z: complex) -> bytes:
    return struct.pack("<2d", z.real, z.imag)


@pytest.mark.parametrize("name", sorted(QPOLYS))
def test_qpoly_at_complex_points_keeps_the_fraction_horner_bits(name):
    rng = random.Random(97)
    box_phis = [phi_numeric(complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))) for _ in range(20)]
    p = QPoly(QPOLYS[name].coeffs)  # a fresh copy: its first call makes the float tuple
    edges = [0j, complex(-0.0, 0.0), complex(-0.0, -0.0), 1e-200j, complex(1e100, 1), -3 + 0.5j,
             complex("inf"), complex(0.5, float("nan"))]
    for x in edges + box_phis:
        want = _bits(fraction_horner(p, x))
        first, again = p(x), p(x)
        assert type(first) is complex and _bits(first) == want and _bits(again) == want, x


@pytest.mark.parametrize("name", sorted(QPOLYS))
def test_qpoly_at_exact_and_series_points_stays_exact(name):
    p = QPOLYS[name]
    for x in (F(-2, 3), F(5, 4), 3, -1, 0):
        got = p(x)
        assert type(got) is F and got == sum(c * F(x) ** i for i, c in enumerate(p.coeffs))
    assert type(p(0.5)) is float and p(0.5) == fraction_horner(p, 0.5)
    # sum c_i x^i on the common window.  phi and g2 start above q^0, where
    # the value is known at least as far as x; j starts at q^-1, and each
    # of the degree products by x lowers the window by one
    for x in (named_series("phi", 12), named_series("g2", F(25, 2)), named_series("j", 30)):
        got = p(x)
        assert got.agrees_with(sum((c * x ** i for i, c in enumerate(p.coeffs) if c), 0 * x))
        assert not got.is_zero() and got.order >= x.order + p.degree() * min(x.valuation(), 0)


# -- differential test of the integer kernel ---------------------------------
#
# Products are checked against the dict oracle of conftest and inverses
# against the schoolbook recurrence below; the expected window is derived
# here from the truncation rules, not read off the kernel.

LEADING = (F(1), F(2), F(-1), F(-3, 4))


def random_series(rng, lead=None):
    """A series of up to 100 slots on a ram in {1, 2, 5, 10}, nonzero only
    at multiples of a stride in {1, 2, 5, 24}, with small, mixed-denominator
    or beyond-2^64 coefficients.  The leading coefficient is ``lead``, or a
    random one of up to 80 bits."""
    ram = rng.choice((1, 2, 5, 10))
    stride = rng.choice((1, 2, 5, 24))
    lo = rng.randint(-12, 6)
    n = rng.randint(1, 100)
    kind = rng.choice(("small", "mixed", "huge"))
    coeffs = []
    for i in range(n):
        if i % stride or rng.random() < 0.2:
            coeffs.append(F(0))
        elif kind == "small":
            coeffs.append(F(rng.randint(-5, 5)))
        elif kind == "mixed":
            coeffs.append(F(rng.randint(-50, 50), rng.randint(1, 12)))
        else:
            coeffs.append(F(rng.randint(-2 ** 100, 2 ** 100), rng.choice((1, 3, 2 ** 70))))
    coeffs[0] = lead if lead is not None else F(rng.randint(1, 2 ** 80) * rng.choice((1, -1)))
    return PuiseuxSeries(ram, lo, lo + n, coeffs)


def as_dict(s):
    return dict(s.terms())


def window(s):
    return (s.ram, s.lo, s.trunc, s.coeffs)


def schoolbook_inverse(s):
    u = s.coeffs
    n = len(u)
    w = [1 / u[0]]
    for k in range(1, n):
        w.append(-sum((u[i] * w[k - i] for i in range(1, k + 1)), F(0)) / u[0])
    return (s.ram, -s.lo, s.trunc - 2 * s.lo, tuple(w))


@pytest.mark.parametrize("seed", range(8))
def test_kernel_matches_oracles(seed):
    rng = random.Random(seed)
    for lead in LEADING + (None,):
        a, b = random_series(rng, lead), random_series(rng)
        ram = math.lcm(a.ram, b.ram)
        cap = min(a.order + b.valuation(), b.order + a.valuation())
        lo = int((a.valuation() + b.valuation()) * ram)
        trunc = int(cap * ram)
        oracle = dict_mul(as_dict(a), as_dict(b), cap)
        expected = (ram, lo, trunc, tuple(oracle.get(F(k, ram), F(0)) for k in range(lo, trunc)))
        assert window(a * b) == expected
        assert window(a.inverse()) == schoolbook_inverse(a)
        assert_canonical(a * b)
        assert_canonical(a.inverse())


def polynomial_and_inverse(rng, lead):
    """A polynomial of up to 4 terms with coefficients up to 10^6 at a
    stride in {1, 2, 5, 24}, padded to up to 100 slots, and the schoolbook
    inverse of it, whose own inverse is that short polynomial again.  Late
    Newton steps then meet an error series that is all zeros."""
    ram = rng.choice((1, 2, 5, 10))
    stride = rng.choice((1, 2, 5, 24))
    lo = rng.randint(-12, 6)
    n = rng.randint(1, 100)
    coeffs = [F(0)] * n
    for i in range(0, min(n, 4 * stride), stride):
        coeffs[i] = F(rng.randint(-10 ** 6, 10 ** 6))
    coeffs[0] = lead
    p = PuiseuxSeries(ram, lo, lo + n, coeffs)
    return p, PuiseuxSeries(*schoolbook_inverse(p))


def random_factors(rng):
    """Up to 6 factors (a, m, e): moduli 1..12, residues 0, negative or
    past m, exponents in [-30, 30] with 0 and the ends drawn often, and
    some classes repeated under another residue."""
    factors = []
    for _ in range(rng.randint(0, 6)):
        if factors and rng.random() < 0.3:
            a, m, _ = rng.choice(factors)
            a += m * rng.randint(-2, 2)
        else:
            m = rng.randint(1, 12)
            a = rng.choice((0, rng.randint(-12, 24)))
        factors.append((a, m, rng.choice((0, -30, 30, rng.randint(-30, 30)))))
    return factors


def random_order(rng, pre):
    """An integer order, one on a grid of 37ths (off the prefactor's grid
    unless 37 divides the step), or one just above the prefactor."""
    kind = rng.randrange(3)
    if kind == 0:
        return F(math.floor(pre) + rng.randint(1, 14))
    if kind == 1:
        return pre + F(rng.randint(1, 14 * 37), 37)
    return pre + F(1, rng.choice((1, 7, 120)))


@pytest.mark.parametrize("seed", range(8))
def test_pochhammer_product_matches_brute_force(seed):
    rng = random.Random(seed)
    for _ in range(6):
        factors = random_factors(rng)
        pre = F(rng.randint(-48, 48), rng.choice((1, 2, 5, 24)))
        o = random_order(rng, pre)
        s = pochhammer_product(factors, pre, o)
        # every n >= 1 in each class a mod m, below the order, one pass each
        ns = [(n, e) for a, m, e in factors for n in range(1, math.ceil(o - pre)) if (n - a) % m == 0]
        assert s.order == o, (factors, pre, o)
        assert as_dict(s) == brute_force_product(ns, o, pre), (factors, pre, o)
        assert_canonical(s)


def test_inverse_of_short_polynomial_inverse():
    # the truncated 1/(1 - 300q) and a strided variant with u0 = 3
    s = PuiseuxSeries.from_terms({0: 1, 1: 300, 2: 90000, 3: 27000000}, 4)
    assert window(s.inverse()) == (1, 0, 4, (F(1), F(-300), F(0), F(0)))
    p = PuiseuxSeries.from_terms({F(-5, 2): 3, 0: -900}, 30)
    assert window(p.inverse().inverse()) == window(p)


@pytest.mark.parametrize("seed", range(8))
def test_kernel_round_trips_short_polynomials(seed):
    rng = random.Random(seed)
    for lead in LEADING:
        p, a = polynomial_and_inverse(rng, lead)
        assert window(a.inverse()) == window(p)
        assert window(p.inverse()) == window(a)
        cap = min(a.order + p.valuation(), p.order + a.valuation())
        oracle = dict_mul(as_dict(a), as_dict(p), cap)
        assert oracle == {F(0): F(1)}
        assert as_dict(a * p) == oracle


def test_results_are_fractions():
    # to_json accepts stray ints, so the coefficient type is pinned here,
    # also where every coefficient is integral
    a = PuiseuxSeries.from_terms({0: 1, F(2, 5): -3, 2: 4}, 10)
    b = PuiseuxSeries.from_terms({F(1, 2): 2, 3: 1}, 9)
    results = [a * b, a.inverse(), a / b, b / a, a * 3, pochhammer_product([(0, 1, 1)], F(1, 24), 8),
               pochhammer_product([(1, 5, 1), (2, 5, -1)], F(0), 12)]
    for s in results:
        assert s.coeffs
        assert all(type(c) is F for c in s.coeffs)


# -- differential test of the linear operations and changes of grid ---------
#
# Each result is compared with the dict oracle of conftest on the window that
# the truncation rules give, and checked to be in canonical form.

def assert_canonical(s):
    """Integer numerators over a positive denominator, in lowest terms,
    leading zeros trimmed (the zero series has lo == trunc)."""
    assert type(s.nums) is tuple and all(type(x) is int for x in s.nums)
    assert type(s.den) is int and s.den > 0
    assert math.gcd(s.den, *s.nums) == 1
    assert len(s.nums) == s.trunc - s.lo
    assert s.nums[0] != 0 if s.nums else s.lo == s.trunc


def expected_window(ram, cap, terms):
    """(ram, lo, trunc, coeffs) of the {exponent: coefficient} terms below
    cap on the grid ram, with the leading zeros trimmed."""
    trunc = cap * ram
    assert trunc.denominator == 1
    trunc = int(trunc)
    exps = sorted(e for e, c in terms.items() if c and e < cap)
    lo = int(exps[0] * ram) if exps else trunc
    return (ram, lo, trunc, tuple(terms.get(F(k, ram), F(0)) for k in range(lo, trunc)))


def random_window(rng, after=None):
    """A series on a ram in {1, 2, 5, 10} with lo in [-12, 6] (or starting
    at or past the exponent ``after``), up to 40 slots, some zero, and
    coefficient denominators up to 10^6; empty or all-zero windows give
    the zero series."""
    ram = rng.choice((1, 2, 5, 10))
    lo = rng.randint(-12, 6)
    if after is not None:
        lo = math.ceil(after * ram) + rng.randint(0, 3)
    n = rng.choice((0, 1, 2, rng.randint(3, 40)))
    zero = rng.random() < 0.1
    coeffs = [F(0) if zero or rng.random() < 0.3 else
              F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6)) for _ in range(n)]
    return PuiseuxSeries(ram, lo, lo + n, coeffs)


def random_scalar(rng):
    return rng.choice((F(rng.randint(-9, 9)), F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))))


@pytest.mark.parametrize("seed", range(12))
def test_linear_operations_match_oracle(seed):
    rng = random.Random(seed)
    for _ in range(40):
        a = random_window(rng)
        b = random_window(rng, after=a.order if rng.random() < 0.3 else None)
        if rng.random() < 0.5:
            a, b = b, a
        ram = math.lcm(a.ram, b.ram)
        cap = min(a.order, b.order)
        da, db = as_dict(a), as_dict(b)
        neg_b = {e: -c for e, c in db.items()}
        c = random_scalar(rng)
        cases = [
            (a + b, expected_window(ram, cap, dict_add(da, db, cap))),
            (a - b, expected_window(ram, cap, dict_add(da, neg_b, cap))),
            (-a, expected_window(a.ram, a.order, {e: -v for e, v in da.items()})),
            (a * c, expected_window(a.ram, a.order, {e: v * c for e, v in da.items()})),
            (c * a, expected_window(a.ram, a.order, {e: v * c for e, v in da.items()})),
            (a + c, expected_window(a.ram, a.order, dict_add(da, {F(0): c}, a.order))),
        ]
        if c:
            cases.append((a / c, expected_window(a.ram, a.order, {e: v / c for e, v in da.items()})))
        # truncation at an order below, on or off the grid, and above
        o = a.order - F(rng.randint(0, 3 * a.ram), rng.choice((1, 3, a.ram, 7)))
        if o < a.order:
            cases.append((a.truncate(o), expected_window(math.lcm(a.ram, o.denominator), o, da)))
        cases.append((a.truncate(a.order + 1), window(a)))
        # the same window on the coarsest grid carrying the nonzero
        # exponents and the order
        r = math.lcm(a.order.denominator, *(e.denominator for e in da))
        cases.append((a.reduce_ram(), expected_window(r, a.order, da)))
        # q -> q^k maps the grid unit 1/ram to k/ram
        k = F(rng.randint(1, 6), rng.randint(1, 6))
        cases.append((a.subst_q_power(k), expected_window(F(k, a.ram).denominator, a.order * k,
                                                          {e * k: v for e, v in da.items()})))
        for got, expected in cases:
            assert window(got) == expected
            assert_canonical(got)


def test_disjoint_windows_add_nothing_past_the_truncation():
    # b starts past a's window, so a + b is a mod q^2 and a - b likewise
    a = PuiseuxSeries.from_terms({0: 1, 1: 2}, 2)
    b = PuiseuxSeries.from_terms({3: 5, 4: 7}, 6)
    assert window(a + b) == window(a) == window(b + a) == window(a - b)
    c = PuiseuxSeries(2, 9, 12, [F(1, 3), 0, 4])  # q^(9/2) + ..., mod q^6
    assert window(a + c) == (2, 0, 4, (F(1), F(0), F(2), F(0)))


@st.composite
def raw_window_st(draw):
    ram = draw(st.sampled_from((1, 2, 5)))
    lo = draw(st.integers(-4, 4))
    nums = draw(st.lists(st.integers(-50, 50), min_size=0, max_size=8))
    den = draw(st.integers(1, 60))
    return ram, lo, nums, den


@settings(max_examples=80, deadline=None)
@given(raw_window_st(), st.sampled_from((1, 2, 3, 5)), st.integers(-7, 7).filter(bool))
def test_equal_and_hash_agree_across_grids_and_scalings(raw, m, k):
    ram, lo, nums, den = raw
    a = _of(ram, lo, lo + len(nums), nums, den)
    fine = [0] * (len(nums) * m)
    fine[::m] = nums
    b = _of(ram * m, lo * m, (lo + len(nums)) * m, fine, den)
    c = _of(ram, lo, lo + len(nums), [k * x for x in nums], k * den)
    d = PuiseuxSeries(ram, lo, lo + len(nums), [F(x, den) for x in nums])
    for s in (b, c, d, b.reduce_ram()):
        assert_canonical(s)
        assert s == a and hash(s) == hash(a)


# -- ring axioms on random series (property-based) ---------------------------

coeff_st = st.integers(-6, 6).map(F)


@st.composite
def series_st(draw):
    ram = draw(st.sampled_from((1, 2, 5)))
    lo = draw(st.integers(-4, 4))
    n = draw(st.integers(1, 8))
    coeffs = draw(st.lists(coeff_st, min_size=n, max_size=n))
    return PuiseuxSeries(ram, lo, lo + n, coeffs)


@settings(max_examples=60, deadline=None)
@given(series_st(), series_st(), series_st())
def test_ring_axioms(a, b, c):
    assert (a + b).agrees_with(b + a)
    assert ((a + b) + c).agrees_with(a + (b + c))
    assert (a * b).agrees_with(b * a)
    assert ((a * b) * c).agrees_with(a * (b * c))
    assert (a * (b + c)).agrees_with(a * b + a * c)


@settings(max_examples=40, deadline=None)
@given(series_st())
def test_subst_round_trip(a):
    assert a.subst_q_power(2).subst_q_power(F(1, 2)).agrees_with(a)
    assert a.subst_q_power(F(3, 2)).subst_q_power(F(2, 3)).agrees_with(a)


@settings(max_examples=40, deadline=None)
@given(series_st())
def test_json_round_trip(a):
    b = PuiseuxSeries.from_json(a.to_json())
    assert a == b


def test_trunc_bookkeeping_conservative():
    # recomputing at higher order never changes a coefficient inside a
    # previously reported window
    from bianchiq.modular import named_series

    low = named_series("delta", 12)
    high = named_series("delta", 25)
    assert high.truncate(low.order).agrees_with(low)


def test_reduce_ram():
    s = PuiseuxSeries.from_terms({1: 2, 3: -1}, 6, ram=1)._rescaled(10)
    assert s.ram == 10
    r = s.reduce_ram()
    assert (r.ram, r.order, r.coefficient(1), r.coefficient(3)) == (1, 6, 2, -1)
    # an order off the exponents' grid is kept, on the coarsest grid carrying it
    half = s.truncate(F(7, 2)).reduce_ram()
    assert (half.ram, half.order, half.coefficient(3)) == (2, F(7, 2), -1)
    zero = PuiseuxSeries.zero(F(7, 2), ram=10).reduce_ram()
    assert (zero.ram, zero.order, zero.is_zero()) == (2, F(7, 2), True)


def coarsest_ram(s):
    """lcm of the denominators of the order and the nonzero exponents."""
    return math.lcm(s.order.denominator, *(e.denominator for e, _ in s.terms()))


@pytest.mark.parametrize("name", modular.NAMES)
def test_reduce_ram_keeps_every_catalog_window(name):
    for order in (30, F(61, 2), F(100, 37), F(7, 2)):
        if order <= modular.LEADING[name]:
            continue
        s = named_series(name, order)
        for t in (s, s._rescaled(3), s.truncate(order - F(1, 7))):
            r = t.reduce_ram()
            assert r == t and r.order == t.order and r.ram == coarsest_ram(t)
            assert_canonical(r)


# -- the Kronecker product at its slot-width boundaries ---------------------


def schoolbook(a, b, m):
    """The first m coefficients of the product of two integer lists."""
    c = [0] * m
    for i, x in enumerate(a[:m]):
        for j, y in enumerate(b[: m - i]):
            c[i + j] += x * y
    return c


def slot_width(a, b, m):
    """The bytes per slot _int_mul needs, before rounding to a word."""
    a, b = a[:m], b[:m]
    ma, mb = max(map(abs, a)), max(map(abs, b))
    return (max(ma * mb * min(len(a), len(b)), ma, mb).bit_length() + 8) // 8


WIDTHS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17)


def boundary_cases(w, rng):
    """Operand pairs whose slots need exactly w bytes: numerators and
    product slots at +-(2^(8w-1) - 1) with a one-slot factor, a random
    pair just under the bound, an all-zero operand, and one-slot lists."""
    top = (1 << (8 * w - 1)) - 1
    edge = [rng.choice((top, -top, 1, -1, 0)) for _ in range(rng.randint(2, 12))]
    edge[0] = rng.choice((top, -top))
    signs = [rng.choice((1, -1, 0)) for _ in range(rng.randint(2, 12))]
    signs[-1] = -1
    n = rng.randint(2, 40)
    x = math.isqrt(top // n)
    near = [[x] + [rng.choice((x, -x, rng.randint(-x, x))) for _ in range(n - 1)] for _ in range(2)]
    return [
        ([1], edge),
        (edge, [-1]),
        ([-top], signs),
        (signs, [top]),
        near,
        ([0] * n, edge),
        (edge, [0, 0]),
        ([top], [1]),
        ([-top], [-1]),
    ]


@pytest.mark.parametrize("w", WIDTHS)
def test_int_mul_matches_schoolbook_at_slot_widths(w):
    rng = random.Random(w)
    for a, b in boundary_cases(w, rng):
        full = len(a) + len(b) - 1
        assert slot_width(a, b, full) == w
        for m in {1, max(len(a) - 1, 1), full, full + 3}:
            assert _int_mul(a, b, m) == schoolbook(a, b, m), (a, b, m)


@pytest.mark.parametrize("w", WIDTHS)
def test_int_mul_one_past_a_slot_width(w):
    # +-2^(8w-1) leave no room for the sign bit in w bytes
    past = 1 << (8 * w - 1)
    for a, b in (([1], [past, -past, 3]), ([-past], [1, 0, -1]), ([past], [past])):
        assert slot_width(a, b, 3) > w
        assert _int_mul(a, b, 3) == schoolbook(a, b, 3)


@pytest.mark.parametrize("a, b", [
    ([3, -2 ** 40, 0, 7], [-1, 5, 2 ** 20]),
    ([0, 0, 0], [0, 0]),
    ([0], [2 ** 70, -(2 ** 70)]),
])
def test_int_mul_below_and_past_the_operands(a, b):
    for m in range(1, len(a) + len(b) + 3):
        assert _int_mul(a, b, m) == schoolbook(a, b, m)
        assert _int_mul(b, a, m) == schoolbook(a, b, m)


# -- powers -----------------------------------------------------------------


# each built from phi at order 31: phi itself (stride 5), a mutant whose
# q^7 term breaks the stride, a non-unit leading numerator, and a series
# that is zero through its window
POWER_BASES = {
    "phi": lambda phi: phi,
    "phi + 7q^7": lambda phi: phi + mono(7, phi.order, 7),
    "leading 3": lambda phi: PuiseuxSeries.from_terms({F(1, 2): 3, 2: -1, F(7, 2): F(5, 4)}, 9),
    "zero": lambda phi: PuiseuxSeries.zero(F(7, 3), ram=3),
}


@pytest.mark.parametrize("base", POWER_BASES)
def test_power_equals_repeated_products(phi30, base):
    s = POWER_BASES[base](phi30)
    one = PuiseuxSeries.one(F(s.trunc - s.lo, s.ram))
    for n in range(13):
        fold = reduce(operator.mul, [s] * n, one)
        p = s ** n
        assert p == fold
        assert (p.ram, p.lo, p.trunc) == (fold.ram, fold.lo, fold.trunc)


def test_qpoly_power_equals_repeated_products():
    p = QPoly([F(-1, 2), 0, 3, 1])
    for n in range(9):
        assert p ** n == reduce(operator.mul, [p] * n, QPoly([1]))


@pytest.mark.parametrize("n, products", [(2, 1), (3, 2), (5, 3)])
def test_power_products(phi30, monkeypatch, n, products):
    calls = []

    def counted(a, b, m):
        calls.append(m)
        return _int_mul(a, b, m)

    monkeypatch.setattr(exact, "_int_mul", counted)
    phi30 ** n
    assert len(calls) == products


# -- the add kernel at its edges, against a Fraction-level sum ---------------


def summed_by_terms(a, b):
    """a + b as from_terms of the summed {exponent: coefficient} terms."""
    terms = dict(a.terms())
    for e, c in b.terms():
        terms[e] = terms.get(e, 0) + c
    return PuiseuxSeries.from_terms(terms, min(a.order, b.order), ram=math.lcm(a.ram, b.ram))


ADD_EDGES = {
    # numerators rescaled by lcm(den) / den, m != 1 on both sides
    "unequal den": (PuiseuxSeries.from_terms({0: F(1, 3), 1: F(5, 7), 3: F(-2, 9)}, 6),
                    PuiseuxSeries.from_terms({0: F(2, 3), 2: F(1, 14)}, 5)),
    # b starts at, or past, a's truncation: its head is empty
    "starts at t": (PuiseuxSeries.from_terms({0: 1, 1: F(2, 5)}, 3),
                    PuiseuxSeries.from_terms({3: F(7, 2), 4: 1}, 9)),
    "starts past t": (PuiseuxSeries.from_terms({F(1, 2): 1, 2: -4}, F(5, 2)),
                      PuiseuxSeries.from_terms({4: F(1, 3)}, 9)),
    "negative lo": (PuiseuxSeries.from_terms({-3: F(1, 6), -1: 2, 2: 1}, 4),
                    PuiseuxSeries.from_terms({-2: 5, -1: -2, 0: F(3, 4)}, 3)),
    # ram 2 and ram 5 meet on ram 10
    "unequal ram": (PuiseuxSeries.from_terms({F(-1, 2): F(1, 4), F(3, 2): 3}, F(7, 2)),
                    PuiseuxSeries.from_terms({F(-2, 5): 1, F(6, 5): F(-9, 8)}, 4)),
    "cancelling": (PuiseuxSeries.from_terms({F(1, 5): F(2, 3), 1: 1}, 2),
                   PuiseuxSeries.from_terms({F(1, 5): F(-2, 3), F(8, 5): F(1, 2)}, 2)),
}


@pytest.mark.parametrize("edge", ADD_EDGES)
def test_add_matches_the_fraction_sum(edge):
    a, b = ADD_EDGES[edge]
    for x, y in ((a, b), (b, a), (a, -b), (a * 3, b)):
        got = x + y
        assert window(got) == window(summed_by_terms(x, y))
        assert_canonical(got)


# -- strides: one per series, kept on first use ------------------------------


def by_schoolbook(a, b):
    """a * b for operands on one grid, from the schoolbook of the numerators."""
    assert a.ram == b.ram
    t = min(a.trunc + b.lo, b.trunc + a.lo)
    lo = a.lo + b.lo
    return _of(a.ram, lo, t, schoolbook(list(a.nums), list(b.nums), t - lo), a.den * b.den)


def test_a_prefix_keeps_its_own_stride(phi30):
    # 7q^7 breaks phi's stride 5; x * short reads x only below q^6, on x's
    # whole stride 1, which divides every index the prefix holds
    x = phi30 + mono(7, phi30.order, 7)
    short = PuiseuxSeries(5, 0, 30, [1] + [0] * 14 + [F(-2, 3)] + [0] * 14)  # 1 - 2/3 q^3, mod q^6
    for first, second in ((x, short), (x, x), (short, x), (x, short)):
        assert first * second == by_schoolbook(first, second)


def test_a_cached_stride_serves_later_products(phi30):
    x = phi30 * phi30
    for y in (phi30, x, x + mono(F(3, 5), x.order), phi30.truncate(4)):
        for _ in range(2):
            assert x * y == by_schoolbook(x, y)
            assert y * x == by_schoolbook(y, x)


# -- the product memo -----------------------------------------------------


def test_products_outside_a_scope_store_nothing(phi30):
    assert exact._memo is None
    with exact.product_memo() as memo:
        phi30 * phi30
    assert len(memo) == memo.misses == 1
    phi30 * phi30, phi30.inverse(), phi30 ** 3
    assert exact._memo is None and len(memo) == 1


def test_the_memo_serves_both_orders_and_inverses(phi30):
    g = phi30 + 1
    with exact.product_memo() as memo:
        product, inverse = phi30 * g, g.inverse()
        # equal values, built afresh, find the same entries
        assert g * (phi30 + 0) is product
        assert (phi30 + 1).inverse() is inverse
        assert phi30 * 3 == 3 * phi30  # scalar products are not stored
        assert (memo.hits, memo.misses, len(memo)) == (2, 2, 2)
        assert memo.slots == len(product.nums) + len(inverse.nums)
        # a nested scope starts empty, and the outer one resumes after it
        with exact.product_memo() as inner:
            phi30 * g
            assert (inner.hits, inner.misses) == (0, 1) and exact._memo is inner
        assert exact._memo is memo and (memo.hits, memo.misses) == (2, 2)
    assert exact._memo is None


def test_a_full_memo_computes_without_storing(phi30, monkeypatch):
    monkeypatch.setattr(exact, "_MAX_MEMO_SLOTS", 2 * len(phi30.nums))
    with exact.product_memo() as memo:
        powers = [phi30 ** n for n in range(2, 9)]
        again = [phi30 ** n for n in range(2, 9)]
    assert powers == again == [reduce(operator.mul, [phi30] * n) for n in range(2, 9)]
    assert 0 < memo.slots <= 2 * len(phi30.nums)
    assert memo.misses > len(memo)
