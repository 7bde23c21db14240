"""Group law, torsion, plane models, and the Weierstrass transformation,
over both coefficient domains."""

import cmath
import hashlib
import math
import random
import struct
from fractions import Fraction as F

import pytest

from bianchiq import curve
from bianchiq.exact import PuiseuxSeries
from bianchiq.identities import run_identity
from bianchiq.modular import named_series
from bianchiq.theta import phi_numeric, theta_vector

RNG = random.Random(4712)


def rand_z():
    return complex(RNG.uniform(-0.5, 0.5), RNG.uniform(-0.5, 0.5))


def rand_tau():
    return complex(RNG.uniform(-0.5, 0.5), RNG.uniform(0.8, 2.0))


def series_theta_vector(v, order):
    """Exact theta coordinates of the point z = v*tau, v rational: the
    series sum_n (-1)^(n+k) q^(5(n+pt)^2/2 + 5v(n+pt)) with pt = 1/2 - k/5.

    Gives exact curve points over the series domain, independent of the
    quotient formulas used elsewhere."""
    v = F(v)
    order = F(order)
    out = []
    for k in range(5):
        terms = {}
        for n in range(-30, 31):
            m = n + F(1, 2) - F(k, 5)
            e = F(5, 2) * m * m + 5 * v * m
            if e < order:
                terms[e] = terms.get(e, 0) + (1 if (n + k) % 2 == 0 else -1)
        out.append(PuiseuxSeries.from_terms(terms, order))
    return tuple(out)


class TestNaN:
    """A NaN coordinate gives a NaN residual, never one that reads as 0."""

    @pytest.mark.parametrize("i", range(5))
    def test_max_quadric_residual(self, i):
        phi = phi_numeric(1.1j)
        p = list(theta_vector(0.13 + 0.07j, 1.1j))
        p[i] = complex("nan")
        assert math.isnan(curve.max_quadric_residual(p, phi))

    @pytest.mark.parametrize("i", range(5))
    def test_projective_distance(self, i):
        p = list(theta_vector(0.13 + 0.07j, 1.1j))
        q = list(p)
        q[i] = complex(float("nan"), 0.0)
        assert math.isnan(curve.projective_distance(p, q))
        assert math.isnan(curve.projective_distance(q, p))
        assert curve.projective_distance(p, p) < 1e-15


class TestQuadrics:
    def test_neutral_exact_series(self):
        phi = named_series("phi", 31)
        o = curve.neutral(phi)
        for r in curve.quadric_residuals(o, phi):
            assert r.is_zero()

    def test_neutral_keeps_the_domain_of_phi(self):
        # a complex phi gives the complex coordinates, down to the signs of
        # their zeros; a series phi gives series known through phi's own window
        phi = phi_numeric(0.13 + 1.1j)
        o = curve.neutral(phi)
        assert all(type(c) is complex for c in o)
        assert [struct.pack("<2d", c.real, c.imag) for c in o] == [
            struct.pack("<2d", c.real, c.imag) for c in (0j, phi, -1 + 0j, 1 + 0j, -phi)]
        phi = named_series("phi", 31)
        o = curve.neutral(phi)
        assert all(type(c) is PuiseuxSeries for c in o)
        assert [c.coefficient(0) for c in o] == [0, 0, -1, 1, 0] and o[1] is phi and o[4] == -phi
        assert all(c.order >= phi.order - phi.valuation() for c in o)

    def test_theta_vectors_on_curve(self):
        for _ in range(20):
            tau = rand_tau()
            p = theta_vector(rand_z(), tau)
            assert curve.max_quadric_residual(p, phi_numeric(tau)) < 1e-10

    def test_two_torsion_exact_through_30(self):
        phi = named_series("phi", 36)
        for p in curve.two_torsion_points(phi):
            for r in curve.quadric_residuals(p, phi):
                assert r.is_zero() and r.order >= 30

    def test_exact_series_point(self):
        phi = named_series("phi", 12)
        p = series_theta_vector(F(1, 3), 12)
        for r in curve.quadric_residuals(p, phi):
            assert r.is_zero()

    def test_zero_phi_rejected(self):
        with pytest.raises(ZeroDivisionError):
            curve.quadric_residuals(curve.neutral(1 + 0j), 0j)


class TestNegate:
    def test_negate_neutral_projective(self):
        o = curve.neutral(0.3 + 0.1j)
        assert curve.projective_distance(curve.negate(o), o) < 1e-15

    def test_involution(self):
        for _ in range(10):
            p = theta_vector(rand_z(), rand_tau())
            assert curve.negate(curve.negate(p)) == p

    def test_fixes_two_torsion(self):
        phi = phi_numeric(1.1j)
        for p in curve.two_torsion_points(phi):
            assert curve.projective_distance(curve.negate(p), p) < 1e-14


class TestAdd:
    def test_neutral_law(self):
        for _ in range(10):
            tau = rand_tau()
            phi = phi_numeric(tau)
            p = theta_vector(rand_z(), tau)
            s = curve.add(p, curve.neutral(phi))
            assert curve.projective_distance(s, p) < 1e-12

    def test_matches_torus_addition(self):
        for _ in range(25):
            tau = rand_tau()
            zx, zy = rand_z(), rand_z()
            s = curve.add(theta_vector(zx, tau), theta_vector(zy, tau))
            assert curve.projective_distance(s, theta_vector(zx + zy, tau)) < 1e-9

    def test_commutative(self):
        for _ in range(50):
            tau = rand_tau()
            p, q = theta_vector(rand_z(), tau), theta_vector(rand_z(), tau)
            assert curve.projective_distance(curve.add(p, q), curve.add(q, p)) < 1e-8

    def test_associative(self):
        for _ in range(50):
            tau = rand_tau()
            p, q, r = (theta_vector(rand_z(), tau) for _ in range(3))
            lhs = curve.add(curve.add(p, q), r)
            rhs = curve.add(p, curve.add(q, r))
            assert curve.projective_distance(lhs, rhs) < 1e-8

    def test_inverse_law(self):
        for _ in range(50):
            tau = rand_tau()
            phi = phi_numeric(tau)
            p = theta_vector(rand_z(), tau)
            s = curve.add(p, curve.negate(p))
            assert curve.projective_distance(s, curve.neutral(phi)) < 1e-8

    def test_a1_a2_agree_when_both_valid(self):
        for _ in range(25):
            tau = rand_tau()
            p, q = theta_vector(rand_z(), tau), theta_vector(rand_z(), tau)
            a1 = curve.add_a1(p, q)
            a2 = curve.add_a2(p, q)
            assert curve.projective_distance(a1, a2) < 1e-9

    def test_bad_case_twists(self):
        # Q a fifth-root-of-unity twist of P: A1 vanishes, A2 succeeds
        tau = 1.05j
        z = 0.23 + 0.17j
        p = theta_vector(z, tau)
        scale = max(abs(c) for c in p) ** 4
        for m in range(5):
            q = tuple(curve.ZETA5 ** (-k * m) * p[k] for k in range(5))
            a1 = curve.add_a1(p, q)
            assert max(abs(c) for c in a1) < 1e-12 * scale
            out = curve.add(p, q)  # falls back to A2
            expected = theta_vector(2 * z + m / 5, tau)
            assert curve.projective_distance(out, expected) < 1e-9

    def test_both_degenerate_raises(self):
        p = (1 + 0j, 0j, 0j, 0j, 0j)
        with pytest.raises(curve.BothFormulasDegenerate):
            curve.add(p, p)

    def test_zero_vector_raises(self):
        # the zero vector is no point: its size, and so the zero test's
        # relative bound, is 0, and both formulas give exactly zero
        zero = (0j,) * 5
        p = theta_vector(0.13 + 0.07j, 1.1j)
        for a, b in ((zero, p), (p, zero), (zero, zero)):
            with pytest.raises(curve.BothFormulasDegenerate):
                curve.add(a, b)

    def test_series_domain_neutral_law(self):
        # the same formulas over exact series: P + O is x0-scaled P exactly
        phi = named_series("phi", 12)
        p = series_theta_vector(F(1, 3), 12)
        s = curve.add(p, curve.neutral(phi))
        assert curve.projective_equal_series(s, p)

    def test_series_domain_matches_torus(self):
        # theta(tau/3) + theta(tau/4) = theta(7 tau/12), identically in q
        phi = named_series("phi", 12)
        p = series_theta_vector(F(1, 3), 12)
        q = series_theta_vector(F(1, 4), 12)
        s = curve.add(p, q)
        expected = series_theta_vector(F(7, 12), 12)
        assert curve.projective_equal_series(s, expected)


class TestDouble:
    def test_two_torsion_doubles_to_neutral_exactly(self):
        phi = named_series("phi", 36)
        o = curve.neutral(phi)
        for p in curve.two_torsion_points(phi):
            d = curve.double(p)
            assert curve.projective_equal_series(d, o)

    def test_double_neutral(self):
        phi = phi_numeric(1.2j)
        o = curve.neutral(phi)
        assert curve.projective_distance(curve.double(o), o) < 1e-13

    def test_against_a2_of_pair(self):
        for _ in range(20):
            tau = rand_tau()
            p = theta_vector(rand_z(), tau)
            assert curve.projective_distance(curve.double(p), curve.add_a2(p, p)) < 1e-9

    def test_against_cubic_family(self):
        for _ in range(20):
            tau = rand_tau()
            p = theta_vector(rand_z(), tau)
            assert curve.projective_distance(curve.double(p), curve.double_cubic(p)) < 1e-10

    def test_matches_torus_doubling(self):
        for _ in range(10):
            tau = rand_tau()
            z = rand_z()
            got = curve.double(theta_vector(z, tau))
            assert curve.projective_distance(got, theta_vector(2 * z, tau)) < 1e-10

    def test_degenerate_raises(self):
        for p in ((1 + 0j, 0j, 0j, 0j, 0j), (0j,) * 5, (0.0, -0.0, 0.0, 0j, -0j)):
            with pytest.raises(curve.DegenerateResult):
                curve.double(p)


def test_duplication_uniform_sign_resolved():
    # the one-line duplication formula needs theta_3(0)^3, matching the
    # five expanded formulas; the theta_2(0)^3 variant is off by -1
    from bianchiq.identities import duplication_uniform_sign

    assert duplication_uniform_sign() == -1


class TestCubicRoots:
    def test_root_sum_numeric(self):
        for tau in (1.1j, 0.2 + 0.9j):
            roots = curve.cubic_roots(phi_numeric(tau))
            assert abs(sum(roots) - 1) < 1e-12

    def test_numeric_matches_series_evaluation(self):
        tau = 1.1j
        q = cmath.exp(2j * math.pi * tau)
        roots = curve.cubic_roots(phi_numeric(tau))
        for i in (1, 2, 3):
            g = named_series(f"g{i}", 60)
            val = sum(complex(c) * q ** float(e) for e, c in g.terms())
            assert min(abs(r - val) for r in roots) < 1e-6

    def test_discriminant_value(self):
        phi = phi_numeric(1.3j)
        roots = curve.cubic_roots(phi)
        prod = 1.0
        for i in range(3):
            for j in range(i + 1, 3):
                prod *= (roots[i] - roots[j]) ** 2
        assert abs(prod - curve.curve_discriminant_value(phi)) < 1e-12

    def test_numeric_roots_are_accurate(self):
        # a seeded tau grid in the check box, plus parameters with |phi| >= 1
        rng = random.Random(2718)
        phis = [phi_numeric(complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0)))
                for _ in range(40)]
        phis += [1.0, 1.5, -3.0, 2 + 1j, 1.2j, 10.0, -0.7 + 0.9j]
        for phi in phis:
            t = complex(phi) ** 5
            a, b, c = roots = curve.cubic_roots(phi)
            for x in roots:
                res = abs(x ** 3 - x ** 2 + t * x + t)
                assert res < 1e-12 * max(abs(x) ** 3, abs(x) ** 2, abs(t * x), abs(t)), phi
            assert abs(a + b + c - 1) < 1e-12 * max(1.0, abs(a) + abs(b) + abs(c)), phi
            assert abs(a * b + b * c + c * a - t) < 1e-12 * (abs(a * b) + abs(b * c) + abs(c * a)), phi
            assert abs(a * b * c + t) < 1e-12 * abs(a * b * c), phi
            assert list(roots) == sorted(roots, key=lambda v: (v.real, v.imag))

    # sha256 of the float.hex of each root's parts at 20 seeded box tau
    ROOTS_DIGEST = "9aab6b7a31e0e7a50705df15553287fc59e66e9c69ae3b0fcb93f51bdc4f6cb3"

    def test_numeric_roots_keep_their_bits(self):
        # Newton polishing repairs a wrong Cardano seed inside the box up to
        # the last bits, which only a pin of the bits sees: Cardano's
        # q = 5t/3 - 2/27 and a Newton derivative 4x - 2 pass every other test
        rng = random.Random(1815)
        lines = []
        for _ in range(20):
            phi = phi_numeric(complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0)))
            lines += [f"{r.real.hex()} {r.imag.hex()}" for r in curve.cubic_roots(phi)]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.ROOTS_DIGEST

    @pytest.mark.parametrize("tau", [0.05j, 0.03j, 0.1j])
    def test_roots_solve_the_cubic_outside_the_box(self, tau):
        # phi^5 is near the root of W here, where the cubic has a near-double
        # root; a wrong seed left |cubic| = 1.3e-4 at 0.05i
        phi = phi_numeric(tau)
        t = phi ** 5
        for x in curve.cubic_roots(phi):
            assert abs(curve.cubic(x, t)) <= 1e-15

    def test_series_domain_returns_g(self):
        phi = named_series("phi", 15)
        g = curve.cubic_roots(phi)
        assert g[0].agrees_with(named_series("g1", 15))


class TestTwoTorsion:
    def test_symmetry_by_construction(self):
        phi = phi_numeric(1.1j)
        for p in curve.two_torsion_points(phi):
            assert p[1] == p[4] and p[2] == p[3]

    def test_hulek_craig_exact(self):
        phi = named_series("phi", 38)
        for p in curve.two_torsion_points(phi):
            r = curve.plane_model_residual("hulek_craig", (p[0], p[1], p[2]))
            assert r.is_zero() and r.order >= 30

    def test_kk_substitution_recovers_cubic(self):
        # xi = phi x2 / x1 on the x0-eliminated model gives the cubic
        phi = named_series("phi", 20)
        t = named_series("phi5", 20)
        for xi in (phi, 1 + phi, phi ** 2, named_series("g1", 20)):
            lhs = phi ** 2 * curve.plane_model_residual("bring2", (phi ** 0, xi / phi), phi)
            rhs = xi ** 3 - xi ** 2 + t * xi + t
            assert (lhs - rhs).is_zero()

    def test_singular_curve_raises(self):
        with pytest.raises(curve.SingularCurve):
            curve.two_torsion_points(0j)


class TestFiveTorsion:
    def test_all_25_on_curve(self):
        phi = phi_numeric(1.1j)
        pts = curve.five_torsion_points(phi)
        assert len(pts) == 25
        for p in pts:
            assert curve.max_quadric_residual(p, phi) < 1e-10

    def test_first_twist_of_neutral(self):
        phi = phi_numeric(1.3j)
        z = curve.ZETA5
        expected = (0j, z ** -1 * phi, -(z ** -2), z ** -3, -(z ** -4) * phi)
        got = curve.five_torsion_points(phi)[5]  # m=1, b=0
        assert curve.projective_distance(got, expected) < 1e-14

    def test_exactly_one_zero_coordinate(self):
        phi = phi_numeric(1.1j)
        for p in curve.five_torsion_points(phi):
            scale = max(abs(c) for c in p)
            zeros = sum(1 for c in p if abs(c) < 1e-12 * scale)
            assert zeros == 1

    def test_additive_order_five(self):
        phi = phi_numeric(1.1j)
        o = curve.neutral(phi)
        for p in curve.five_torsion_points(phi):
            assert curve.projective_distance(curve.multiply(p, 5), o) < 1e-8


class TestPlaneModels:
    def test_quintic_at_neutral_image_exact(self):
        phi = named_series("phi", 25)
        one = phi ** 0
        r = curve.plane_model_residual("quintic", (phi, -one, one), phi)
        assert r.is_zero()

    def test_quintic_at_theta_points(self):
        for _ in range(10):
            tau = rand_tau()
            phi = phi_numeric(tau)
            x = theta_vector(rand_z(), tau)
            r = curve.plane_model_residual("quintic", (x[0], x[1], x[2]), phi)
            scale = max(abs(x[0]), abs(x[1]), abs(x[2])) ** 5
            assert abs(r) / scale < 1e-9

    def test_weber_model_exact(self):
        g1 = named_series("g1", 36)
        phi = named_series("phi", 36)
        r = curve.plane_model_residual("weber", (-g1, -phi))
        assert r.is_zero() and r.order >= 30

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            curve.plane_model_residual("nope", (1,))


class TestWeierstrass:
    def test_definition_of_a_b(self):
        assert 48 * curve.WEIERSTRASS_A + curve.P20 == 0
        assert 864 * curve.WEIERSTRASS_B - curve.P30 == 0

    def test_discriminant_identity(self):
        assert run_identity("weierstrass-discriminant").status == "pass"

    def test_sign_variant_discriminant_factor_fails(self):
        # the inner polynomial must be 1 - 11 phi^5 - phi^10; the sign
        # variant phi^10 - 11 phi^5 + 1 does not expand to the same thing
        assert run_identity("weierstrass-discriminant", mutate=True).status == "fail"

    def test_discriminant_sensitive_to_perturbation(self):
        from bianchiq.exact import QPoly

        p20 = curve.P20 + QPoly.from_terms({15: 1})
        lhs = (p20 ** 3 - curve.P30 ** 2) / 1728
        rhs = QPoly.from_terms({5: 1}) * QPoly.from_terms({0: 1, 5: -11, 10: -1}) ** 5
        assert lhs != rhs

    def test_random_points_numeric(self):
        for _ in range(20):
            tau = rand_tau()
            phi = phi_numeric(tau)
            p = theta_vector(rand_z(), tau)
            x, ya, yb = curve.weierstrass_map(p, phi)
            assert abs(ya - yb) / max(abs(ya), abs(yb)) < 1e-9
            res = curve.weierstrass_residual(x, ya, phi)
            assert abs(res) / max(abs(ya) ** 2, abs(x) ** 3, 1e-300) < 1e-8

    def test_exact_series_point(self):
        # the strongest form: exact equality of Y^2 and the cubic in X
        phi = named_series("phi", 14)
        p = series_theta_vector(F(1, 3), 14)
        x, ya, yb = curve.weierstrass_map(p, phi)
        assert (ya - yb).is_zero()
        assert curve.weierstrass_residual(x, yb, phi).is_zero()

    def test_near_miss_y_expressions_fail(self):
        # the variant drops the numerator coefficient 11, halves one
        # prefactor, and doubles one x0-coefficient; it must not verify
        phi = named_series("phi", 14)
        p = series_theta_vector(F(1, 3), 14)
        x, ya, yb = curve.weierstrass_map_variant(p, phi)
        assert not (ya - yb).is_zero()
        assert not curve.weierstrass_residual(x, yb, phi).is_zero()

    def test_two_torsion_maps_to_y_zero(self):
        phi = phi_numeric(1.1j)
        a = complex(curve.WEIERSTRASS_A(phi))
        b = complex(curve.WEIERSTRASS_B(phi))
        for p in curve.two_torsion_points(phi):
            x, ya, yb = curve.weierstrass_map(p, phi)
            assert abs(ya) < 1e-8 * abs(x)
            assert abs(yb) < 1e-8 * abs(x)
            assert abs(x ** 3 + a * x + b) < 1e-8 * max(abs(x) ** 3, abs(b))

    def test_exceptional_locus_reported(self):
        phi = phi_numeric(1.1j)
        p = curve.five_torsion_points(phi)[0]  # x0 = 0
        with pytest.raises(curve.DenominatorVanishes):
            curve.weierstrass_map(p, phi)
