"""Named q-expansions against their published leading terms and against
independent brute-force product oracles."""

import hashlib
import json
from fractions import Fraction as F
from functools import partial

import pytest

from bianchiq import modular
from bianchiq.exact import pochhammer_product
from bianchiq.modular import (
    NAMES,
    ROGERS_RAMANUJAN_FACTORS,
    UnknownName,
    delta_series,
    eta_quotient_series,
    eta_series,
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


@pytest.mark.parametrize("warm_order, order", [(F(7, 2), 3), (F(100, 37), 2), (F(100, 37), F(5, 2)),
                                               (F(31, 12), F(7, 3))])
def test_a_view_below_a_finer_cached_grid_is_the_cold_build(monkeypatch, warm_order, order):
    # a cache built at warm_order sits on a grid finer than order needs: the
    # view keeps none of its extra slots (g1 at 3 after 7/2 has ram 1, not 2)
    monkeypatch.setattr(modular, "_cache", {})
    for name in NAMES:
        named_series(name, warm_order)
    warm_cache = modular._cache
    for name in NAMES:
        cold, warm = _cold_and_warm(monkeypatch, name, order, warm_cache)
        assert cold == warm, (name, warm_order, order)


# the public builders a name has besides named_series
BUILDERS = {"phi": phi_series, "eta": eta_series, "g1": partial(gi_series, 1), "g2": partial(gi_series, 2),
            "g3": partial(gi_series, 3), "delta": delta_series, "j": j_series}


@pytest.mark.parametrize("name", NAMES)
def test_orders_at_or_below_leading_exponent_raise(monkeypatch, warm_cache, name):
    lead = LEADING[name]
    message = f"order must exceed {lead}, the leading exponent of {name}"
    assert warm_cache[name].valuation() == lead
    for order in (lead, lead - F(1, 120), lead - 1):
        cold, warm = _cold_and_warm(monkeypatch, name, order, warm_cache)
        assert cold == warm == message, order
        if name in BUILDERS:
            with pytest.raises(ValueError) as exc:
                BUILDERS[name](order)
            assert str(exc.value) == message, order
    # just above the leading exponent the leading term is there, cold and warm
    cold, warm = _cold_and_warm(monkeypatch, name, lead + F(1, 120), warm_cache)
    assert cold == warm and cold[3][0] == warm_cache[name].coefficient(lead) != 0
    if name in BUILDERS:
        s = BUILDERS[name](lead + F(1, 120))
        assert (s.ram, s.lo, s.trunc, s.coeffs) == cold


def _sha256(s):
    return hashlib.sha256(json.dumps(s.to_json(), sort_keys=True).encode()).hexdigest()


# sha256 of json.dumps(s.to_json(), sort_keys=True) for cold builds at orders
# the benchmark's digests do not reach: 100/37 lies off every series' grid,
# 301/8 off all but eta's, and 301/7 is the integer 43
COLD_BUILD_SHA256 = {
    ("phi", F(100, 37)): "50bc1bdd8d4371a609098ee2f21974d2c998cd1d182dd427374ad3fe19a48d87",
    ("phi5", F(100, 37)): "14ca6ad0321bcd52183a971270de45b71dc239099aa2c28bd629a3a1ef52ee99",
    ("g1", F(100, 37)): "0085bc6bab03aa1ec2c37ae5933e663f16ad9d483bf47091d34f8356dcf48bb2",
    ("g2", F(100, 37)): "fce9d6d4a18d32bf3fffbbe083635f3dd65de1dc761269b971ba6a10cf583098",
    ("g3", F(100, 37)): "88821674194e79f030c18515983a339a2ae9fe91d0d5d18f145df6841fdd952e",
    ("delta", F(100, 37)): "863b819cfbf4946adbc3e266c3086d4904ef10c795a79a9b136ed224fa7a53d3",
    ("j5", F(100, 37)): "c9562ecffde1b84f5247cd58df8508d1dd765e9f87bd8e6045e8690aac62a6c2",
    ("j10", F(100, 37)): "8c9d9779cec72c4b1b4211a6645a0bf23874329a1e410bf5bddc0be932fd1716",
    ("j", F(100, 37)): "95b685af0863f21557b07d3a88e63c0c9d417ac509e2ad02791a94021ddcdf9a",
    ("eta", F(100, 37)): "c4991144b3e96c84537fa0a2539d439c75e16966052e83dba750e75c78c79e56",
    ("neg_g2_2tau", F(100, 37)): "edbc9343b7c7735b3c90eb0574dcff4a4402ae02e1ef18839f729f5496a36742",
    ("phi", F(301, 7)): "8888a0d5c84eedf3e961ac06520a4b65c1fea428f7341d4c12d9b65db87be0b4",
    ("phi5", F(301, 7)): "d9d536290f2dd4b28d5ad20396e828f19291ee4184cbd424b1469e32c08e67b6",
    ("g1", F(301, 7)): "0058d847dbae5222dbf4b4bbead264a04712cbd6987ca08482efe827d0357f95",
    ("g2", F(301, 7)): "ff95537f7850960aec694aa44b8f3c3e9ef1303f48a3107ec9d6585c61e2e8b8",
    ("g3", F(301, 7)): "d0efed1351ae0fa8d910fbb972cd5360607911f781f5e6083b0e5f7d258d7818",
    ("delta", F(301, 7)): "3cc280f242aac4576b96a3cd89a925bc0c81ad63f47d34f00d8b1cf87245e1ca",
    ("j5", F(301, 7)): "f622c0ffbb01e1f7ba28711c6c748cbcfe4bb11371285b606cfb98bc359453b1",
    ("j10", F(301, 7)): "5b6b40e585ee9498e0dabaeab30486f0d44bf48587236219773f6ccc8191f0d9",
    ("j", F(301, 7)): "8078bf98aae48b70074c1c6caccad2e1eef7101f67bae6949b24e39d2b27fdb8",
    ("eta", F(301, 7)): "e2a2c3c1613e8c0f1c573d364899f822adb58d338e094580c874376a1fc0dbd4",
    ("neg_g2_2tau", F(301, 7)): "115105e812077782304c1b722e4db2c28126a68e82b76e3316434c55c1401d0d",
    ("phi", F(301, 8)): "9710fc6073b31613ceb01c994310ac86ffb5c1e8676e701ba61fe16ed3a5484e",
    ("phi5", F(301, 8)): "b3333a9f6251266c8d5f4899c7eb37b814a4201881b4d91ed66b9f14cbcf77ff",
    ("g1", F(301, 8)): "503ff58466721a0ecbfb5e5d267ece47425b1151e1107df6b29207b1ba631de1",
    ("g2", F(301, 8)): "f39271694fe47df0ea1cf31f313626e09210d839277bac4d379ae77b461ec185",
    ("g3", F(301, 8)): "1eebfef58e32115967f11b33be81500463d4ff7ddfcca1be26941c6662358d80",
    ("delta", F(301, 8)): "9ab32500a771c02ad28958f6ce44fe8c7c5d30e16c5fb548a3d55ac0ab2d0188",
    ("j5", F(301, 8)): "88390fa81b29fa535074f1e7cb9e969e6cb28f6e987ca31dbcf06393eed4372a",
    ("j10", F(301, 8)): "9e685ab6bc25524efd1984e49a3cbfa007bbf8aa46aa5b2072f4d839b61895d3",
    ("j", F(301, 8)): "6285c89f0966d3411fa3500420d007465c3a8dfa15ee864d9c98bee902cfb286",
    ("eta", F(301, 8)): "2916640d1a0a3f7e81f1d982b9ec2b48a04bc38ae48a5789af72bc7307633d9d",
    ("neg_g2_2tau", F(301, 8)): "652c971fca444f7c1903ea741f2303b92e08cd8abb5f4c6caade78ff46251b37",
}

# the same digests for pochhammer_product at order 808
POCHHAMMER_SHA256 = {
    "eta^24": "8cec6a3ae7f927fee2a79492727ce1ab4ec4472dde9d35d7e3f89b557e298a06",
    "eta^-6": "70f64c89ccd4f1495b278b6c63fbe292c02a96ddf77f571694fed5b54596b0be",
    "rogers-ramanujan": "c578bd8778290e9e60dfcb7b5f6e040c1facc09f9395a63840832de510a4d13a",
}


def test_cold_builds_match_recorded_digests(monkeypatch):
    for (name, order), digest in COLD_BUILD_SHA256.items():
        monkeypatch.setattr(modular, "_cache", {})
        assert _sha256(named_series(name, order)) == digest, (name, order)
    products = {"eta^24": ([(0, 1, 24)], 1), "eta^-6": ([(0, 1, -6)], F(-1, 4)),
                "rogers-ramanujan": (ROGERS_RAMANUJAN_FACTORS, F(1, 5))}
    for label, (factors, pre) in products.items():
        assert _sha256(pochhammer_product(factors, pre, 808)) == POCHHAMMER_SHA256[label], label


def test_ramification_divides_120():
    for name in ("phi", "phi5", "g1", "g2", "g3", "delta", "j5", "j10", "j", "eta", "neg_g2_2tau"):
        assert 120 % named_series(name, 12).ram == 0


def test_unknown_name():
    with pytest.raises(UnknownName):
        named_series("nope", 10)
