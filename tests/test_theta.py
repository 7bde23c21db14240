"""Numeric theta evaluation: windowing, transformation table, nullwerte,
and consistency with the exact hauptmodul expansion."""

import cmath
import collections
import hashlib
import math
import random
import sys
import threading
import time
from fractions import Fraction as F

import pytest
from conftest import reference_terms, reference_theta_char, reference_theta_k

from bianchiq import identities, theta
from bianchiq.theta import (
    _CHARACTERISTIC,
    _REACH,
    CancellationError,
    ConvergenceError,
    DomainError,
    phi_numeric,
    shift_rules,
    theta_char,
    theta_k,
    theta_vector,
)

RNG = random.Random(91)
# An offset of 2t = 2(center - p) from an integer: near a tie, but off it.
NEAR_TIE = 1e-9


def rand_z():
    return complex(RNG.uniform(-0.5, 0.5), RNG.uniform(-0.5, 0.5))


def rand_tau():
    return complex(RNG.uniform(-0.5, 0.5), RNG.uniform(0.8, 2.0))


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def brute_force_theta(p, c, z, tau, window=50):
    total = 0j
    for n in range(-window, window + 1):
        m = n + p
        total += cmath.exp(1j * math.pi * m * m * tau + 2j * math.pi * m * (z + c))
    return total


class TestThetaChar:
    def test_against_fixed_window_oracle(self):
        z, tau = 0.3 + 0.2j, 1.1j
        got = theta_char(0.25, 0.5, z, tau)
        want = brute_force_theta(0.25, 0.5, z, tau)
        assert rel(got, want) < 1e-12

    def test_nullwert_through_char(self):
        # theta_0(0, i) via the characteristic form at (p, c) = (1/2, 5/2)
        val = theta_char(0.5, 2.5, 0.0, 5j) / 1j
        scale = abs(theta_char(0.0, 2.5, 0.0, 5j))
        assert abs(val) / scale < 1e-12

    def test_window_doubling_stable(self):
        z, tau = 0.2 - 0.1j, 1j
        a = theta_char(0.3, 0.7, z, tau)
        b = theta_char(0.3, 0.7, z, tau, extra=80.0)
        assert rel(a, b) < 1e-15

    def test_domain_error(self):
        with pytest.raises(DomainError):
            theta_char(0.5, 0.5, 0.0, -1j)

    def test_convergence_error(self):
        with pytest.raises(ConvergenceError):
            theta_char(0.5, 0.5, 0.0, 1e-12j)

    @pytest.mark.parametrize("extra", [-76.9, -1e-300, -80.0, math.inf, math.nan])
    def test_extra_that_would_narrow_the_window_raises(self, extra):
        # -76.9 used to return 0.27940+0.51073i for a sum of 0.27959+0.51086i
        with pytest.raises(ValueError, match="extra must be finite and not negative"):
            theta_char(0.3, 2.5, 0.1 + 0.2j, 0.3j, extra=extra)


class TestThetaK:
    def test_nullwerte(self):
        for tau in (1j, 0.3 + 1.4j):
            v = theta_vector(0.0, tau)
            scale = max(abs(x) for x in v)
            assert abs(v[0]) / scale < 1e-12
            assert abs(v[3] + v[2]) / scale < 1e-12
            assert abs(v[4] + v[1]) / scale < 1e-12

    def test_index_periodicity(self):
        z, tau = rand_z(), rand_tau()
        for k in (0, 1, F(1, 2), F(7, 2)):
            assert rel(theta_k(k + 5, z, tau), theta_k(k, z, tau)) < 1e-14

    def test_z_plus_one_sign(self):
        for _ in range(10):
            z, tau = rand_z(), rand_tau()
            for k in (0, 1, 2, 3, 4):
                assert rel(theta_k(k, z + 1, tau), -theta_k(k, z, tau)) < 1e-11
            for k in (F(1, 2), F(5, 2)):
                assert rel(theta_k(k, z + 1, tau), theta_k(k, z, tau)) < 1e-11

    def test_parity(self):
        for _ in range(10):
            z, tau = rand_z(), rand_tau()
            for k in (0, 1, 2, F(1, 2), F(3, 2)):
                sgn = -1 if F(k).denominator == 1 else 1
                assert rel(theta_k(k, -z, tau), sgn * theta_k(-k, z, tau)) < 1e-11

    def test_all_shift_rules(self):
        for _ in range(15):
            z, tau = rand_z(), rand_tau()
            for shift, mult, down in shift_rules(tau).values():
                for k in (0, 2, 4, F(1, 2), F(9, 2)):
                    lhs = theta_k(k, z + shift, tau)
                    rhs = mult(k, z) * theta_k(F(k) - down, z, tau)
                    assert rel(lhs, rhs) < 1e-10


class TestWindowsThatAreNotFinite:
    """A window end at +-inf or NaN, which floor and ceil cannot take,
    raises ConvergenceError, or ValueError naming z when z is not finite;
    a window past the cap whose count would print past 15 digits shows its
    half-width instead."""

    @pytest.mark.parametrize("z", [complex("inf"), complex("nan"), complex(0.0, float("inf")),
                                   complex("-inf"), complex(0.1, float("nan"))])
    def test_z_that_is_not_finite_raises_value_error_naming_it(self, z):
        for fn, args in ((theta_k, (1, z, 1.1j)), (theta_char, (0.3, 2.5, z, 1.1j))):
            with pytest.raises(ValueError, match="z must be finite") as info:
                fn(*args)
            assert not isinstance(info.value, ConvergenceError)

    @pytest.mark.parametrize("tau", [1e-320j, 5e-324j, complex(0.2, 1e-310)])
    def test_infinite_half_width_raises_convergence_error(self, tau):
        # 5 * Im(tau) is subnormal, and the half-width sqrt(.../(pi * a)) overflows
        with pytest.raises(ConvergenceError, match=r"half-width inf about n = -0\.3 exceeds cap"):
            theta_k(1, 0, tau)

    def test_a_center_past_binary64_raises_convergence_error(self):
        # finite half-width, but Im z / Im tau overflows
        with pytest.raises(ConvergenceError, match=r"half-width 4\.95e\+150 about n = -inf exceeds cap"):
            theta_char(0.3, 2.5, complex(0.0, 1e10), 1e-300j)

    def test_a_huge_window_prints_its_half_width(self):
        with pytest.raises(ConvergenceError) as info:
            theta_k(1, 0.0, 1e-300j)
        assert str(info.value) == "window of half-width 2.22e+150 about n = -0.3 exceeds cap; Im(tau) too small"

    def test_a_countable_window_past_the_cap_keeps_its_count(self):
        with pytest.raises(ConvergenceError, match="^window of 9906475 terms exceeds cap"):
            theta_char(0.5, 0.5, 0.0, 1e-12j)

    def test_nan_tau_is_outside_the_upper_half_plane(self):
        with pytest.raises(DomainError, match="got nan"):
            theta_k(1, 0.1, complex(0.2, float("nan")))

    def test_theta_k_names_the_z_it_was_given(self):
        # not 5z, which is (inf+nanj) here
        with pytest.raises(ValueError, match=r"^z must be finite, got \(inf\+0j\)$"):
            theta_k(1, complex("inf"), 1j)

    @pytest.mark.parametrize("fn, args", [(theta_k, (1, 1e308 + 0j, 1j)), (theta_k, (1, 1e308j, 1j)),
                                          (theta_char, (0.3, 2.5, 1e308 + 0j, 1j)),
                                          (theta_char, (0.3, 2.5, 7e306 + 0j, 1j)),
                                          (theta_char, (0.3, 2.5, 1 + 12j, 0.1 + 0.3j)),
                                          (theta_char, (0.3, 2.5, 1 + 1e5j, 0.1 + 1000j)),
                                          (theta_char, (0.3, 2.5, 1e308j, 1j))])
    def test_a_finite_z_past_binary64_says_so(self, fn, args):
        # theta_k's 5z overflows; theta_char's phases reach inf in cmath.exp,
        # at 7e306 only past the head, so the tail check must not skip them;
        # at 1+12j and 1+1e5j a term's modulus overflows in cmath.exp, and
        # at 1e308j so does 2t = 2(center - p), which orders the window
        with pytest.raises(ValueError) as info:
            fn(*args)
        assert str(info.value) == f"theta terms at z = {args[-2]}, tau = {args[-1]} leave binary64"


# Each of the ten reduced indices, spelled as the callers spell it and
# shifted out of [0, 5) both ways.
INDEX_SPELLINGS = [
    spelling
    for k in range(5)
    for spelling in (k, F(k), float(k), k - 5, k + 5, F(k - 10))
] + [
    spelling
    for k in (F(2 * j + 1, 2) for j in range(5))
    for spelling in (k, float(k), k - 5, float(k + 5), F(k.numerator - 20, 2))
]


class TestBitIdentity:
    """The table-driven theta_k and the hoisted theta_char reproduce the
    straightforward evaluator bit for bit; repr tells signed zeros apart."""

    @staticmethod
    def points(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 3.0))
            yield z, tau

    def test_theta_k_matches_reference(self):
        for z, tau in self.points(2027, 12):
            for k in INDEX_SPELLINGS:
                assert repr(theta_k(k, z, tau)) == repr(reference_theta_k(k, z, tau)), (k, z, tau)

    def test_special_arguments(self):
        for z in (0.0, -0.0, 0j, complex(-0.0, -0.0), 0.5, -0.5j, 1.7 - 0.9j):
            for tau in (1j, 0.05j, 1.1j, 0.1 + 0.9j, -0.5 + 3j):
                for k in (0, 1, 2, 3, 4, F(1, 2), F(9, 2)):
                    assert repr(theta_k(k, z, tau)) == repr(reference_theta_k(k, z, tau))

    def test_theta_char_matches_reference(self):
        # 8p reaches past |p| = 1/2, where a window is summed whole
        rng = random.Random(5)
        for z, tau in self.points(31, 20):
            p, c = rng.uniform(-1, 1), rng.uniform(-3, 3)
            for p, extra in ((p, 0.0), (p, 40.0), (8 * p, 0.0)):
                got = theta_char(p, c, z, tau, extra=extra)
                assert repr(got) == repr(reference_theta_char(p, c, z, tau, extra=extra)), (p, z, tau, extra)

    @pytest.mark.parametrize("k", [0.3, F(1, 3), F(7, 3), -0.25, 12.1])
    def test_invalid_index_raises(self, k):
        # the index as the caller gave it: 0.3, not its binary fraction
        with pytest.raises(ValueError) as info:
            theta_k(k, 0.1j, 1j)
        assert str(info.value) == f"theta index must be integer or half-integer, got {k}"

    @pytest.mark.parametrize("k", ["3", "7/2"])
    def test_a_str_index_raises(self, k):
        with pytest.raises(TypeError, match="theta index must be a number"):
            theta_k(k, 0.1j, 1j)


def outcome(fn, *args, **kwargs):
    """repr of the value, or the name of the exception raised."""
    try:
        return repr(fn(*args, **kwargs))
    except ArithmeticError as exc:
        return type(exc).__name__


class TestCoefficientTables:
    """The cache of summation orders: every window, near n = 0 or far from
    it, inside or beyond the cache's reach, at a tie or off it, cold or
    warm, sums the same terms in the same order as the term-by-term
    reference."""

    @staticmethod
    def far_points(seed, count):
        # centre -Im(z)/Im(tau) - p up to ~50 from n = 0, and Im(tau) down
        # to 0.05 for wide windows; the largest term stays below e^600
        rng = random.Random(seed)
        for _ in range(count):
            ratio = rng.uniform(-50, 50)
            a = rng.uniform(0.05, min(3.0, 600 / (math.pi * ratio * ratio + 1e-9)))
            yield complex(rng.uniform(-2, 2), ratio * a), complex(rng.uniform(-0.5, 0.5), a)

    def test_far_windows_at_random_characteristics(self):
        rng = random.Random(17)
        for z, tau in self.far_points(41, 40):
            p, c = rng.uniform(-1, 1), rng.uniform(-3, 3)
            for extra in (0.0, 40.0):
                assert outcome(theta_char, p, c, z, tau, extra=extra) == \
                    outcome(reference_theta_char, p, c, z, tau, extra=extra), (p, z, tau, extra)

    def test_far_windows_at_the_ten_characteristics(self):
        # cached windows and windows past the reach; both zeros find the
        # entries of p = 0 (k = 5/2)
        ps = sorted(set(_CHARACTERISTIC.values())) + [0.0, -0.0]
        for z, tau in self.far_points(43, 25):
            for p in ps:
                for extra in (0.0, 40.0):
                    assert outcome(theta_char, p, 2.5, z, tau, extra=extra) == \
                        outcome(reference_theta_char, p, 2.5, z, tau, extra=extra), (p, z, tau, extra)
            for k in (0, 4, 2.5, F(7, 2)):
                assert outcome(theta_k, k, z / 5, tau / 5) == outcome(reference_theta_k, k, z / 5, tau / 5)

    def test_index_spellings_agree_with_the_reference(self):
        for z, tau in TestBitIdentity.points(77, 10):
            for spellings in ((1.5, F(3, 2), -3.5, F(-7, 2)), (8, 3, 3.0, F(-2))):
                values = {repr(theta_k(k, z, tau)) for k in spellings}
                assert values == {repr(reference_theta_k(spellings[0], z, tau))}, (spellings, z, tau)

    def test_foreign_characteristics_leave_no_state(self, monkeypatch):
        monkeypatch.setattr(theta, "_ORDERS", {})
        theta_char(0.3, 0.5, 0.3 + 0.1j, 1.1j)
        before = dict(theta._ORDERS)
        rng = random.Random(3)
        for _ in range(200):
            theta_char(rng.uniform(-1, 1), 0.5, 0.3 + 0.1j, 1.1j)
        assert len(before) == 1 and theta._ORDERS == before

    def test_tables_stay_within_their_reach(self, monkeypatch):
        # whatever earlier tests cached: only the ten characteristics, and
        # only windows inside the reach
        for p, n_min, n_max, _, _ in theta._ORDERS:
            assert p in _CHARACTERISTIC.values() and -_REACH <= n_min <= n_max <= _REACH
        # windows centred near n = -1000 and n = 1000, beyond the reach,
        # are summed but not cached (the largest terms are e^628 and e^471)
        monkeypatch.setattr(theta, "_ORDERS", {})
        for z, tau in ((0.04j, 4e-5j), (0.1 - 0.03j, 3e-5j)):
            assert repr(theta_k(1, z, tau)) == repr(reference_theta_k(1, z, tau))
        assert theta._ORDERS == {}

    @staticmethod
    def im_z_at(p, a, twice):
        """Im z at which 2t = 2(center - p) = twice, center = -Im z/a - p,
        rounded as theta_char rounds it: exactly, if some float gets there."""
        b = -a * (twice / 2 + 2 * p)
        for _ in range(8):
            got = 2.0 * ((-b / a - p) - p)
            if got == twice:
                break
            b = math.nextafter(b, math.inf if got > twice else -math.inf)
        return b

    def test_ties_agree_with_a_warm_cache(self, monkeypatch):
        # 2t just off an integer j caches the order of the cell on that
        # side; at 2t = j itself the tie goes to the lower n, which is the
        # order of the cell below, so a tie reads and fills that entry
        for p in _CHARACTERISTIC.values():
            for a in (0.25, 1.0, 4.0, 9.0):
                tau = complex(0.1, a)
                for j in (round(-4 * p) + d for d in (-2, 0, 1, 3)):
                    b = self.im_z_at(p, a, j)
                    ties = [b, math.nextafter(b, math.inf), math.nextafter(b, -math.inf),
                            b + 1e-16 * a, b - 1e-16 * a]
                    warm = [self.im_z_at(p, a, j + s * 3 * NEAR_TIE) for s in (1, -1)]
                    for first, then in ((warm, ties), (ties, warm)):
                        monkeypatch.setattr(theta, "_ORDERS", {})
                        for im_z in first + then:
                            z = complex(0.2, im_z)
                            assert repr(theta_char(p, 2.5, z, tau)) == \
                                repr(reference_theta_char(p, 2.5, z, tau)), (p, a, j, im_z)
                        assert len(theta._ORDERS) == 2, (p, a, j)

    # (p, z, tau) at exact ties, 2t = 2, 0 and 0, where a float key's
    # rounding once summed the higher n first
    EXACT_TIES = [(-0.1, 0.2 - 0.2j, 0.1 + 0.25j), (0.4, 0.2 - 0.2j, 0.1 + 0.25j), (0.4, 0.2 - 0.8j, 0.1 + 1j)]

    @pytest.mark.parametrize("p, z, tau", EXACT_TIES)
    def test_an_exact_tie_sums_the_lower_n_first_and_is_cached(self, p, z, tau, monkeypatch):
        assert (2.0 * ((-z.imag / tau.imag - p) - p)).is_integer()
        monkeypatch.setattr(theta, "_ORDERS", {})
        assert repr(theta_char(p, 2.5, z, tau)) == repr(reference_theta_char(p, 2.5, z, tau))
        assert len(theta._ORDERS) == 1

    def test_a_full_cache_takes_no_more_windows(self, monkeypatch):
        monkeypatch.setattr(theta, "_ORDERS", {})
        monkeypatch.setattr(theta, "_MAX_ORDERS", 3)
        for z, tau in TestBitIdentity.points(8, 6):
            assert repr(theta_k(2, z, tau)) == repr(reference_theta_k(2, z, tau))
        assert len(theta._ORDERS) == 3

    def test_the_numeric_checks_fill_their_count_of_entries(self, monkeypatch):
        # the 43 numeric checks at the benchmark's 200 samples: a key that
        # stopped hitting, or one that split windows finer, changes the count
        monkeypatch.setattr(theta, "_ORDERS", {})
        cfg = identities.VerifyConfig(samples=200, seed=1)
        for check in identities.registry():
            if check.kind == "numeric":
                identities.run_identity(check.name, cfg)
        assert len(theta._ORDERS) == 302

    def test_the_numeric_checks_sum_446339_terms(self, monkeypatch):
        # cmath.exp calls over the same checks: 815,134 with every window
        # summed whole; the tail check stops most sums after their head.
        # theta_k is called as often as before.  identities is executed
        # first, as its ten import-time multipliers would count too.
        cfg = identities.VerifyConfig(samples=200, seed=1)
        counts = collections.Counter()
        for name in ("exp", "theta_k"):
            monkeypatch.setattr(theta, name, lambda *args, name=name, real=getattr(theta, name):
                                counts.update((name,)) or real(*args))
        for check in identities.registry():
            if check.kind == "numeric":
                identities.run_identity(check.name, cfg)
        assert counts == {"exp": 446339, "theta_k": 103882}


class TestTailCheck:
    """A sum stops after its head once 2^55 times the bound on every later
    term is below both parts of the partial sum.  Next to an axis one part
    of the head sum has cancelled, the later terms still move its bits, and
    a looser check would stop too early."""

    # (p, z, tau): one part of the head sum has cancelled until the largest
    # later term is 2^-50 of it, and the tail bound is within 9% of that
    # term.  p = 0.45 is not one of the ten characteristics.
    NEAR_AXIS = [
        (0.5, (-0.024999644979896752-2.0978999999999997j), (0.1+4.2j)),
        (0.5, (0.47499963661842387-2.0978999999999997j), (0.1+4.2j)),
        (0.5, (0.0005895798639031331+0.007500000000000007j), (0.1+7.5j)),
        (0.5, (-0.09258413158941264+0.007500000000000007j), (0.1+7.5j)),
        (0.3, (-0.014956716485705956-0.41579999999999995j), (0.1+4.2j)),
        (0.3, (0.08074695156500883-0.7787j), (0.1+1.3j)),
        (-0.4, (-0.44575987276831613-1.5037500000000001j), (0.1+7.5j)),
        (-0.4, (-0.029709982249292097-1.5037500000000001j), (0.1+7.5j)),
        (-0.4, (-0.3849634397774844-0.26065000000000005j), (0.1+1.3j)),
        (-0.4, (-0.018601516259884203-0.26065000000000005j), (0.1+1.3j)),
        (0.45, (0.255275423121188-1.6779j), (0.1+4.2j)),
        (0.45, (-0.30027559858186503-1.6779j), (0.1+4.2j)),
        (0.45, (-0.1751981059358663+0.7574999999999998j), (0.1+7.5j)),
        (0.45, (0.22864706886664227+0.7574999999999998j), (0.1+7.5j)),
    ]

    @staticmethod
    def head_and_rest(p, z, tau):
        """The sum of the head terms, and the largest later term."""
        terms = reference_terms(p, 2.5, z, tau)
        head = theta._tau_part(tau)[3]
        total = 0.0 + 0.0j
        for term in terms[:head]:
            total += term
        return total, max(abs(term) for term in terms[head:])

    @pytest.mark.parametrize("p, z, tau", NEAR_AXIS)
    def test_next_to_an_axis_the_rest_is_summed(self, p, z, tau):
        partial, largest = self.head_and_rest(p, z, tau)
        assert 2.0**-60 < largest / min(abs(partial.real), abs(partial.imag)) < 2.0**-40
        assert repr(reference_theta_char(p, 2.5, z, tau)) != repr(partial)
        for extra in (0.0, 40.0):
            assert repr(theta_char(p, 2.5, z, tau, extra=extra)) == \
                repr(reference_theta_char(p, 2.5, z, tau, extra=extra)), extra

    def test_away_from_the_axes_the_head_is_the_sum(self):
        # the head alone gives the value: the check stops here
        for p, z, tau in self.NEAR_AXIS:
            z = complex(z.real + 0.1, z.imag)
            partial, _ = self.head_and_rest(p, z, tau)
            assert repr(theta_char(p, 2.5, z, tau)) == repr(partial) == repr(reference_theta_char(p, 2.5, z, tau))


class TestTauCache:
    """theta_k reuses the tau part of the last tau object it was given; no
    value may depend on which object came before."""

    @staticmethod
    def calls(seed, count, taus):
        rng = random.Random(seed)
        return [(rng.choice(INDEX_SPELLINGS), complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
                 rng.choice(taus)) for _ in range(count)]

    def test_alternating_taus_give_the_uncached_values(self):
        tau1, tau2 = 0.2 + 1.1j, complex(-0.0, 0.7)
        for z in (0.1 + 0.2j, -0.3j):
            for tau in (tau1, tau2, tau1, complex(0.0, 0.7), tau2, complex(tau1.real, tau1.imag)):
                for k in (0, 3, F(5, 2), 7):
                    assert repr(theta_k(k, z, tau)) == repr(reference_theta_k(k, z, tau)), (k, z, tau)

    def test_a_lower_half_plane_tau_raises_and_leaves_the_cache_usable(self):
        tau = 0.1 + 0.9j
        theta_k(1, 0.2j, tau)
        for bad in (0.1 - 0.9j, complex(0.1, 0.0), complex(0.1, -0.0)):
            with pytest.raises(DomainError):
                theta_k(1, 0.2j, bad)
            assert theta._last_tau[0] is tau
            assert repr(theta_k(2, 0.3 - 0.1j, tau)) == repr(reference_theta_k(2, 0.3 - 0.1j, tau))

    def test_threads_get_the_serial_values(self, monkeypatch):
        # each thread interleaves its own tau objects; a thread that paired
        # its tau with another thread's tau part would sum a wrong value
        rng = random.Random(29)
        work = [self.calls(i, 2000, [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.5)) for _ in range(2)])
                for i in range(4)]
        serial = [[repr(theta_k(*call)) for call in calls] for calls in work]
        got = [None] * len(work)

        def run(i):
            got[i] = [repr(theta_k(*call)) for call in work[i]]

        # both parts of a sum start with sleep(0), so another thread can run
        # right after the cache was read or replaced
        for name in ("_tau_part", "_sum"):
            monkeypatch.setattr(theta, name, lambda *args, real=getattr(theta, name): time.sleep(0) or real(*args))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(work))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == serial


class TestThetaVector:
    def test_no_common_zero(self):
        for _ in range(1000):
            z, tau = rand_z(), rand_tau()
            assert max(abs(c) for c in theta_vector(z, tau)) > 0

    def test_quadrics(self):
        from bianchiq.curve import max_quadric_residual

        for _ in range(20):
            z, tau = rand_z(), rand_tau()
            phi = phi_numeric(tau)
            assert max_quadric_residual(theta_vector(z, tau), phi) < 1e-10

    def test_vector_at_zero_proportional_to_neutral(self):
        from bianchiq.curve import neutral, projective_distance

        tau = 1.3j
        v = theta_vector(0.0, tau)
        assert projective_distance(v, neutral(phi_numeric(tau))) < 1e-12


class TestPhiNumeric:
    def test_value_at_i_against_product_oracle(self):
        q = math.exp(-2 * math.pi)
        value = q ** 0.2
        for n in range(1, 31):
            r = n % 5
            if r in (1, 4):
                value *= 1 - q ** n
            elif r in (2, 3):
                value /= 1 - q ** n
        got = phi_numeric(1j)
        assert abs(got - value) < 1e-12
        assert abs(got.imag) < 1e-12

    def test_against_series_at_1_1i(self):
        from bianchiq.modular import named_series

        tau = 1.1j
        q = cmath.exp(2j * math.pi * tau)
        series = named_series("phi", 60)
        val = sum(complex(c) * q ** float(e) for e, c in series.terms())
        assert abs(phi_numeric(tau) - val) < 1e-12

    def test_cancelled_nullwerte_raise(self):
        # at 0.01i the quotient is off by 6.4e-9 against a 60-digit sum,
        # and the bound predicts 2.5e-8; at 0.03i it predicts 5.6e-13
        with pytest.raises(CancellationError, match="theta_1"):
            phi_numeric(0.01j)
        assert abs(phi_numeric(0.03j) - (5 ** 0.5 - 1) / 2) < 1e-12

    @staticmethod
    def mpmath_phi(tau):
        """-theta_1(0)/theta_2(0), summed term by term at 60 digits."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            big_tau = 5 * mpmath.mpc(tau.real, tau.imag)
            half = int(math.sqrt(90 / (5 * math.pi * tau.imag))) + 3
            nullwerte = []
            for k in (1, 2):
                p = mpmath.mpf(1) / 2 - mpmath.mpf(k) / 5
                nullwerte.append(mpmath.fsum(
                    mpmath.exp(mpmath.pi * 1j * (n + p) ** 2 * big_tau + 5 * mpmath.pi * 1j * (n + p))
                    for n in range(-half, half + 1)))
            return complex(-nullwerte[0] / nullwerte[1])

    @pytest.mark.parametrize("tau", [0.45 + 0.0004j, 0.37 + 0.001j, -0.26 + 0.0005j,
                                     0.2 + 0.002j, 0.03j, 0.1 + 0.01j])
    def test_bound_covers_the_error_against_mpmath(self, tau, monkeypatch):
        # each term's phase pi m^2 Re(5 tau) + 5 pi m is rounded too: at
        # 0.45+0.0004i the quotient is off by 1.2e-10, 8x what the sum's
        # rounding alone predicts; a limit just under the true error must
        # be crossed
        exact = self.mpmath_phi(tau)
        error = abs(-theta_k(1, 0.0, tau) / theta_k(2, 0.0, tau) - exact) / abs(exact)
        monkeypatch.setattr(theta, "_PHI_MAX_ERROR", 0.99 * error)
        with pytest.raises(CancellationError):
            phi_numeric(tau)

    def test_phase_rounding_past_the_limit_raises(self):
        # off by 1.2e-10 against mpmath, past the 1e-10 limit
        with pytest.raises(CancellationError, match="theta_"):
            phi_numeric(0.45 + 0.0004j)
        assert abs(phi_numeric(0.37 + 0.001j) - self.mpmath_phi(0.37 + 0.001j)) < 1e-12

    def test_the_check_box_stays_quiet(self):
        # the box the numeric checks and `point` draw tau from
        rng = random.Random(19)
        for _ in range(3000):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
            assert phi_numeric(tau) == -theta_k(1, 0.0, tau) / theta_k(2, 0.0, tau)

    def test_re_tau_is_reduced_mod_5_to_the_bit(self):
        # 25 (n + p)^2 = (odd)^2/4 multiplies both nullwerte by e^(pi i/4)
        # under tau -> tau + 5; unreduced, |Re tau| * m^2 rounded each
        # exponent and the guard refused this Im(tau) = 1 as too small
        for shift in (5 * 2**30, -5 * 2**30, 5):
            assert phi_numeric(complex(0.25 + shift, 1.0)) == phi_numeric(0.25 + 1j)

    def test_abs_invariant_under_tau_plus_5(self):
        for tau in (1.2j, 0.3 + 0.9j):
            assert abs(abs(phi_numeric(tau + 5)) - abs(phi_numeric(tau))) < 1e-12


def pinned_line(fn, *args, **kwargs) -> str:
    """repr of the value, or the type and message of the exception raised."""
    try:
        return f"{fn.__name__} {fn(*args, **kwargs)!r}"
    except (ArithmeticError, ValueError) as exc:
        return f"{fn.__name__} {type(exc).__name__}: {exc}"


def pinned_calls(seed):
    """A seeded mix of theta_k, theta_char, theta_vector and phi_numeric
    calls, as (fn, args, kwargs).  Runs of theta_k calls share one tau
    object and are interleaved with other objects, some equal to each
    other but distinct; the mix also reaches ties, windows past the reach,
    Re tau = +-0.0, k outside [0, 5), and every error a call can raise."""
    rng = random.Random(seed)
    taus = [complex(rng.choice((0.0, -0.0, rng.uniform(-0.5, 0.5))), rng.uniform(0.05, 3.0))
            for _ in range(10)]
    taus += [complex(t.real, t.imag) for t in taus[:4]]
    taus += [complex(0.1, -1.0), complex(0.3, 0.0), complex(-0.0, 1e-13), complex(0.2, 0.01)]
    ks = [0, 1, 2, 3, 4, 7, -3, 12.5, -2.5, F(7, 2), F(-1, 2), 9.0, 0.3]
    for _ in range(3000):
        tau = rng.choice(taus)
        for _ in range(rng.randint(1, 14)):
            z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            yield theta_k, (rng.choice(ks), z, tau), {}
        if rng.random() < 0.2:
            yield theta_vector, (z, tau), {}
        if rng.random() < 0.1:
            yield phi_numeric, (tau,), {}
    # 2t within 3 NEAR_TIE of a tie, and on it
    for p in _CHARACTERISTIC.values():
        for a in (0.25, 1.0, 9.0):
            for j in (round(-4 * p) + d for d in (-1, 0, 2)):
                for off in (0.0, 3 * NEAR_TIE, -3 * NEAR_TIE, NEAR_TIE / 2):
                    im_z = TestCoefficientTables.im_z_at(p, a, j + off)
                    yield theta_char, (p, 2.5, complex(0.2, im_z), complex(0.1, a)), {}
                    yield theta_k, (rng.choice(ks[:10]), complex(0.04, im_z / 5), complex(0.02, a / 5)), {}
    # windows past the reach, and a wider window
    for z, tau in TestCoefficientTables.far_points(47, 30):
        p, c = rng.uniform(-1, 1), rng.uniform(-3, 3)
        for extra in (0.0, 80.0):
            yield theta_char, (p, c, z, tau), {"extra": extra}
            yield theta_char, (rng.choice(list(_CHARACTERISTIC.values())), 2.5, z, tau), {"extra": extra}
        yield theta_k, (rng.choice(ks[:10]), z / 5, tau / 5), {}
    for z, tau in ((0.04j, 4e-5j), (0.1 - 0.03j, 3e-5j)):
        yield theta_k, (1, z, tau), {}
    # overflow: of a term, and of the sum of finite terms
    yield theta_k, (1, 2j, 0.01j), {}
    for b in (3.3, 3.35, 3.36, 3.37, 3.4):
        yield theta_char, (0.0, 0.0, complex(0, b), 0.05j), {}
    yield theta_char, (0.5, 0.5, 0.0, 1e-12j), {}
    # phi_numeric where the nullwerte cancel, and across Re tau
    for tau in (0.01j, 0.45 + 0.0004j, 0.37 + 0.001j, 0.03j, complex(-0.0, 1.2), complex(0.0, 1.2),
                complex(0.25 + 5 * 2**30, 1.0), 1e-13j, -1j):
        yield phi_numeric, (tau,), {}


BLOCK = 1000


def theta_digests(lines) -> tuple:
    """sha256 of the newline-joined lines, and of each block of BLOCK lines."""
    def digest(block):
        return hashlib.sha256("\n".join(block).encode()).hexdigest()
    return digest(lines), [digest(lines[i:i + BLOCK]) for i in range(0, len(lines), BLOCK)]


# sha256 of the newline-joined pinned_line of every call in pinned_calls(seed),
# and of each block of BLOCK lines, so that a failure names the first block
# that moved; tests/pins/theta_lines.py prints the lines and the digests
THETA_DIGESTS = {
    23: "1a54d21dab43a3aff45cc42f2437520f371a1c5cc92aa7150d6aa633a70016c8",
}
THETA_BLOCK_DIGESTS = {
    23: [
        "217f2eca843b9c7f2a580829d5643c97bbee2a06777badebd37bf345a7857541",
        "6ae0912f326248875757f21a376311f0b2c64c29a2c9d11d0562a374b84c78d4",
        "e861e72dfffd5072b6d714463c2876f51568bde1ab94c92f19169a6451d353dc",
        "83907e7db19fc5deef56bff95c55c90c690827cce0b4ad04ad98580e847ae211",
        "d961b1645a4480b975aa7e7690c95ff2eed340d9d6d10c32ff373654e672691b",
        "84f182df73a75b37b078ceccb8847efc8b8c03a1cd8bdd917745b25fd86546a7",
        "528352893053109513b4d0bfeebe7b617da8d0751db9c4f4a3fad2eabad685ac",
        "9119bbb9716c9ac33b55560a7e2a32ebf70b6b09ee3fbefbf46aed4130a5d263",
        "98ba7916658de87294b521e7a45c548fca6edea4e3662dd4dc6ab3f3f951724f",
        "c7a2a87abc8cdfeb77089ceecbbb9a0b2ed79a6bc863fcceb366ff50a83b6035",
        "f2b4d5b5b0a110eb8f4a79fe27c72e7085f89f2a8da3097ad7f60d402f9dfc27",
        "9b5cce65977ca0cb894c2766f5a6cb80570fa69dc2dc3ed2757943035685e4e0",
        "b5191897c35be988f2b2d78650d42511151a06f23c0ef1138a8d1858abced5b4",
        "7ff0556a7337511ac74be18539f134ef5e895566c91d6f74da35d04030ed4361",
        "2cd6294e40a0437c40546b91b89b9032e716d50aac55b7b87694fae6f8f577e9",
        "ac6a9550fd28671bcc9bdc6afa915445ffaaae0b8906d0790808409d3d0dddd6",
        "e053c966bd2125ea8f0f160211ed4aaf406fd4a8522689b13e0bebac18f8c998",
        "2f3187b6d104961400796220c914702360b8181361da1db164e3fa51c9c27b2b",
        "acb816f4936b09f3e465d89713838429b454e786bf2cd83d68f46b04412cb4fb",
        "51bc14ec08805c095d755cd243df27c8c353c197ac4c94ce05db519b274d43f9",
        "532f4815fd1cabe1612360cfee2a9b17725842b9ebd8ce1a9f2c2f2e8e75e8e8",
        "6ff6cffa133490dfb1d56ed9f2e805882208495e85c3d166fbc91321ac10c1dd",
        "5b4e2732a5616d8576708a02b9c232a7a6f7f84da589a8b4e59a6707e2fe087d",
        "9a2c9282f8dd0d213a2776709e87ab411a56a60ab6ee2d1c193c45ac85ebaa63",
        "d0617b7b97cc50292d2677c78070ab9b9bb7cbe389895abfed428b38a7a0e2d2",
    ],
}


@pytest.mark.parametrize("seed", sorted(THETA_DIGESTS))
def test_theta_results_keep_their_bits(seed):
    lines = [pinned_line(fn, *args, **kwargs) for fn, args, kwargs in pinned_calls(seed)]
    raised = {line.split()[1].rstrip(":") for line in lines if line.split()[1].endswith(":")}
    assert raised == {"DomainError", "ConvergenceError", "OverflowError", "CancellationError", "ValueError"}
    whole, blocks = theta_digests(lines)
    pinned = THETA_BLOCK_DIGESTS[seed]
    moved = next((i for i, (got, want) in enumerate(zip(blocks, pinned)) if got != want), None)
    assert moved is None, (f"lines {moved * BLOCK + 1}-{min(len(lines), (moved + 1) * BLOCK)} are the first "
                           f"block that moved; diff tests/pins/theta_lines.py {seed} against a checkout before it")
    assert len(blocks) == len(pinned), f"{len(lines)} lines against {len(pinned)} pinned blocks"
    assert whole == THETA_DIGESTS[seed]
