"""Named q-expansions against their published leading terms and against
independent brute-force product oracles."""

from fractions import Fraction as F

import pytest

from bianchiq import modular
from bianchiq.modular import (
    NAMES,
    UnknownName,
    delta_series,
    eta_quotient_series,
    gi_series,
    j_series,
    named_series,
    phi_series,
)

from conftest import brute_force_product


FROZEN = {
    # name -> {exponent: coefficient}, frozen reference leading terms
    "phi": {F(1, 5): 1, F(6, 5): -1, F(11, 5): 1, F(21, 5): -1, F(26, 5): 1,
            F(31, 5): -1, F(36, 5): 1, F(46, 5): -1, F(51, 5): 2},
    "phi5": {1: 1, 2: -5, 3: 15, 4: -30, 5: 40},
    "g1": {0: 1, 1: -2, 2: 4, 3: -4, 4: 2, 5: 2, 6: -8},
    "g2": {F(1, 2): -1, 1: 1, F(3, 2): 1, 2: -2, 3: 2, F(7, 2): -2},
    "g3": {F(1, 2): 1, 1: 1, F(3, 2): -1, 2: -2, 3: 2, F(7, 2): 2},
    "j5": {-1: 1, 0: -6, 1: 9, 2: 10, 3: -30},
    "j10": {-1: 1, 0: 1, 1: 1, 2: 2, 3: 2},
    "j": {-1: 1, 0: 744, 1: 196884, 2: 21493760},
    "neg_g2_2tau": {1: 1, 2: -1, 3: -1, 4: 2, 5: 0, 6: -2, 7: 2},
    "eta": {F(1, 24): 1, F(1, 24) + 1: -1, F(1, 24) + 2: -1, F(1, 24) + 5: 1,
            F(1, 24) + 7: 1, F(1, 24) + 12: -1, F(1, 24) + 15: -1},
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_leading_terms(name):
    series = named_series(name, 20)
    for e, c in FROZEN[name].items():
        assert series.coefficient(e) == c, f"{name} at q^{e}"


def test_phi_gap_coefficients():
    phi = phi_series(13)
    assert phi.coefficient(F(16, 5)) == 0
    assert phi.coefficient(F(41, 5)) == 0


def test_phi_against_seventy_factor_product():
    # independent expansion: multiply the first 70 product factors directly
    phi = phi_series(F(70, 5))
    factors = []
    for n in range(1, 71):
        r = n % 5
        if r in (1, 4):
            factors.append((n, 1))
        elif r in (2, 3):
            factors.append((n, -1))
    oracle = brute_force_product(factors, F(70, 5), F(1, 5))
    for e, c in oracle.items():
        assert phi.coefficient(e) == c
    assert phi.coefficient(F(61, 5)) == oracle.get(F(61, 5), 0)


def test_delta_leading_and_antisymmetry():
    d = delta_series(10)
    assert d.coefficient(F(1, 2)) == 2
    g1, g2, g3 = (gi_series(i, 10) for i in (1, 2, 3))
    swapped = (g1 - g3) * (g3 - g2) * (g2 - g1)
    assert (d + swapped).is_zero()


def test_delta_squared_identity():
    d = named_series("delta", 31)
    t = named_series("phi5", 31)
    r = d ** 2 - 4 * t * (1 - 11 * t - t ** 2)
    assert r.is_zero() and r.order >= 30


def test_eta_quotients_match_reference():
    j5 = eta_quotient_series([(1, 6), (5, -6)], 6)
    for e, c in FROZEN["j5"].items():
        assert j5.coefficient(e) == c
    j10 = eta_quotient_series([(2, 1), (5, 5), (1, -1), (10, -5)], 6)
    for e, c in FROZEN["j10"].items():
        assert j10.coefficient(e) == c


def test_eta_quotient_trivial():
    one = eta_quotient_series([(1, 0)], 5)
    assert one.coefficient(0) == 1
    assert all(c == 0 for e, c in one.terms() if e != 0)


def test_j_q3_against_independent_division():
    # E4^3/eta^24 computed independently with dict arithmetic
    cap = F(6)
    sigma3 = lambda n: sum(d ** 3 for d in range(1, n + 1) if n % d == 0)
    e4 = {F(0): F(1), **{F(n): F(240 * sigma3(n)) for n in range(1, 6)}}
    from conftest import dict_mul

    e43 = dict_mul(dict_mul(e4, e4, cap), e4, cap)
    eta24 = brute_force_product([(n, 24) for n in range(1, 6)], cap, F(1))
    # long division of e43 by eta24 (leading term q^1, coefficient 1)
    quotient = {}
    rem = dict(e43)
    for k in range(-1, 4):
        lead = rem.get(F(k + 1), 0)
        quotient[F(k)] = lead
        for e, c in list(eta24.items()):
            rem[e + k] = rem.get(e + k, 0) - lead * c
    j = j_series(4)
    for k in range(-1, 4):
        assert j.coefficient(k) == quotient[F(k)]
    assert j.coefficient(3) == 864299970


def test_j_cross_check_against_weierstrass_data():
    t = named_series("phi5", 25)
    j = named_series("j", 25)
    p20 = t ** 4 - 228 * t ** 3 + 494 * t ** 2 + 228 * t + 1
    disc = t * (1 - 11 * t - t ** 2) ** 5
    r = j * disc - p20 ** 3
    assert r.is_zero() and r.order >= 20


def test_gi_cubic_roots():
    t = named_series("phi5", 31)
    for i in (1, 2, 3):
        g = named_series(f"g{i}", 31)
        r = g ** 3 - g ** 2 + t * g + t
        assert r.is_zero() and r.order >= 30


def test_ramanujan_relation():
    ng = named_series("neg_g2_2tau", 31)
    g1 = named_series("g1", 31)
    r = ng * (1 + g1) - (1 - g1)
    assert r.is_zero() and r.order >= 30


def test_j10_relations():
    j10 = named_series("j10", 31)
    g1 = named_series("g1", 31)
    ng = named_series("neg_g2_2tau", 31)
    assert (j10 * (1 - g1 ** 2) - 4 * g1).is_zero()
    h = -ng
    assert (j10 * h - h ** 2 + 1).is_zero()


def test_memoization_consistency():
    low = named_series("g1", 10)
    high = named_series("g1", 20)
    assert high.truncate(low.order).agrees_with(low)
    again = named_series("g1", 10)
    assert again == low


FRACTIONAL_ORDERS = (F(1, 2), F(3, 2), F(7, 3), F(21, 5), F(11, 4), F(31, 2), F(41, 10))


def _cold_and_warm(monkeypatch, name, order, warm_cache):
    """named_series(name, order) from an empty cache and from warm_cache,
    each as (ram, lo, trunc, coeffs) or as the ValueError message."""
    out = []
    for cache in ({}, warm_cache):
        monkeypatch.setattr(modular, "_cache", cache)
        try:
            s = named_series(name, order)
        except ValueError as exc:
            out.append(str(exc))
        else:
            assert s.order == order, (name, order)
            out.append((s.ram, s.lo, s.trunc, s.coeffs))
    return out


@pytest.fixture(scope="module")
def warm_cache():
    # every name built at order 42, so lower orders are served from it
    saved, modular._cache = modular._cache, {}
    for name in NAMES:
        named_series(name, 42)
    cache, modular._cache = modular._cache, saved
    return cache


# name -> leading exponent, read off the published expansions
LEADING = {"phi": F(1, 5), "phi5": 1, "g1": 0, "g2": F(1, 2), "g3": F(1, 2), "delta": F(1, 2),
           "j5": -1, "j10": -1, "j": -1, "eta": F(1, 24), "neg_g2_2tau": 1}


def test_fractional_orders_do_not_depend_on_cache_state(monkeypatch, warm_cache):
    # an order at or below a leading exponent raises, cold and warm alike
    for name in NAMES:
        for order in FRACTIONAL_ORDERS:
            cold, warm = _cold_and_warm(monkeypatch, name, order, warm_cache)
            assert cold == warm, (name, order)
            assert isinstance(cold, str) == (order <= LEADING[name]), (name, order)


@pytest.mark.parametrize("name", NAMES)
def test_orders_at_or_below_leading_exponent_raise(monkeypatch, warm_cache, name):
    lead = LEADING[name]
    assert warm_cache[name].valuation() == lead
    for order in (lead, lead - F(1, 120)):
        cold, warm = _cold_and_warm(monkeypatch, name, order, warm_cache)
        assert cold == warm == f"order must exceed {lead}, the leading exponent of {name}", order
    # just above the leading exponent the leading term is there, cold and warm
    cold, warm = _cold_and_warm(monkeypatch, name, lead + F(1, 120), warm_cache)
    assert cold == warm and cold[3][0] == warm_cache[name].coefficient(lead) != 0


def test_ramification_divides_120():
    for name in ("phi", "phi5", "g1", "g2", "g3", "delta", "j5", "j10", "j", "eta", "neg_g2_2tau"):
        assert 120 % named_series(name, 12).ram == 0


def test_unknown_name():
    with pytest.raises(UnknownName):
        named_series("nope", 10)
