"""Congruence-subgroup computations: orders, images, indices, normality,
quotient shapes, cusp counts, and genus."""

import hashlib
import math
from itertools import combinations_with_replacement

import pytest

from bianchiq.congruence import (
    GenusData,
    NotAGroup,
    NotContained,
    SubgroupSpec,
    UnknownGroup,
    builtin_specs,
    enumerate_group,
    gamma,
    genus_data,
    get_spec,
    image_of,
    lattice,
    lattice_dot,
    mat_mul,
    subgroup_report,
)


class TestEnumeration:
    def test_orders(self):
        assert len(enumerate_group(10)) == 720
        assert len(enumerate_group(2)) == 6
        assert len(enumerate_group(1)) == 1

    def test_crt_cross_check(self):
        assert len(enumerate_group(10)) == len(enumerate_group(2)) * len(enumerate_group(5))

    def test_range_guard(self):
        with pytest.raises(ValueError):
            enumerate_group(31)

    def test_matches_the_brute_force_filter_in_order(self):
        for n in range(1, 31):
            r = range(n)
            brute = [(a, b, c, d) for a in r for b in r for c in r for d in r if (a * d - b * c) % n == 1 % n]
            assert enumerate_group(n) == tuple(brute), n


class TestImages:
    def test_gamma10_image_trivial(self):
        assert image_of(get_spec("Gamma(10)"), 10) == frozenset({(1, 0, 0, 1)})

    def test_g4_image(self):
        img = image_of(get_spec("G4"), 10)
        assert img == frozenset({(1, 0, 0, 1), (1, 5, 5, 6), (6, 5, 5, 1)})
        # closure: the square of one nontrivial element is the other
        assert mat_mul((1, 5, 5, 6), (1, 5, 5, 6), 10) == (6, 5, 5, 1)

    def test_g1_equals_gamma2_meet_gamma1_5(self):
        assert image_of(get_spec("G1"), 10) == image_of(get_spec("Gamma(2)&Gamma1(5)"), 10)

    def test_g3_equals_gamma0_2_meet_gamma5(self):
        assert image_of(get_spec("G3"), 10) == image_of(get_spec("Gamma0(2)&Gamma(5)"), 10)

    def test_image_order_bookkeeping(self):
        g = len(enumerate_group(10))
        for name in ("Gamma(5)", "Gamma1(5)", "Gamma0(10)", "G1", "G2", "G3", "G4"):
            h = image_of(get_spec(name), 10)
            assert g % len(h) == 0

    def test_incompatible_modulus(self):
        with pytest.raises(ValueError):
            image_of(get_spec("G1"), 4)

    def test_not_a_group_detected(self):
        with pytest.raises(NotAGroup):
            SubgroupSpec.from_residues("bogus", 10, [(1, 0, 0, 1), (1, 1, 0, 1)])

    def test_direct_construction_checks_closure(self):
        with pytest.raises(NotAGroup):
            SubgroupSpec("bogus", 10, frozenset({(1, 0, 0, 1), (1, 1, 0, 1)}))
        with pytest.raises(NotAGroup):
            SubgroupSpec("no identity", 10, frozenset({(1, 1, 0, 1)}))

    def test_images_of_builtins_are_subgroups(self):
        # image_of does not re-check closure: the image is the preimage of a
        # subgroup under reduction, which this test confirms for every
        # built-in at its own modulus and at 10
        for spec in builtin_specs().values():
            for n in {spec.modulus, 10}:
                img = image_of(spec, n)
                assert tuple(v % n for v in (1, 0, 0, 1)) in img, (spec.name, n)
                assert all(mat_mul(g, h, n) in img for g in img for h in img), (spec.name, n)


# name -> (modulus, order, sha256 prefix of repr(sorted(residues)))
RESIDUE_PINS = {
    "Gamma(1)": (1, 1, "ca5b5568fba380da"),
    "Gamma1(1)": (1, 1, "ca5b5568fba380da"),
    "Gamma0(1)": (1, 1, "ca5b5568fba380da"),
    "Gamma(2)": (2, 1, "32676ccee9509aba"),
    "Gamma1(2)": (2, 2, "18496e62a6d1c607"),
    "Gamma0(2)": (2, 2, "18496e62a6d1c607"),
    "Gamma(5)": (5, 1, "32676ccee9509aba"),
    "Gamma1(5)": (5, 5, "1a8bb0f508639e01"),
    "Gamma0(5)": (5, 20, "63c7d0e2eb12cbb7"),
    "Gamma(10)": (10, 1, "32676ccee9509aba"),
    "Gamma1(10)": (10, 10, "893a07e1fd88f425"),
    "Gamma0(10)": (10, 40, "0238ae65117dc4e9"),
    "G1": (10, 5, "6609e4cc2eb99ad1"),
    "G2": (10, 15, "ce955ff4a4470b44"),
    "G3": (10, 2, "6edd08197aa3f572"),
    "G4": (10, 3, "1d3617ba75746ce4"),
    "Gamma(2)&Gamma1(5)": (10, 5, "6609e4cc2eb99ad1"),
    "Gamma0(2)&Gamma(5)": (10, 2, "6edd08197aa3f572"),
}


def test_builtin_residues_pinned():
    got = {name: (s.modulus, len(s.residues), hashlib.sha256(repr(sorted(s.residues)).encode()).hexdigest()[:16])
           for name, s in builtin_specs().items()}
    assert got == RESIDUE_PINS


# sha256 of repr((name, modulus, sorted(residues))) over builtin_specs(),
# in insertion order: the catalog's names, order and groups in one figure
BUILTIN_SPECS_SHA256 = "f463e53e37821d9b1a2c9416138da27aa9b301a770eb29175595c0a175f4de28"


def test_builtin_specs_digest():
    h = hashlib.sha256()
    for name, s in builtin_specs().items():
        h.update(repr((name, s.modulus, sorted(s.residues))).encode())
    assert h.hexdigest() == BUILTIN_SPECS_SHA256


def _brute_image(spec, n):
    m = spec.modulus
    return frozenset(g for g in enumerate_group(n) if tuple(v % m for v in g) in spec.residues)


def test_intersect_contains_and_image_match_brute_force():
    specs = list(builtin_specs().values())
    for a, b in combinations_with_replacement(specs, 2):
        m = math.lcm(a.modulus, b.modulus)
        meet = a.intersect(b)
        assert (meet.name, meet.modulus) == (f"{a.name}&{b.name}", m)
        assert meet.residues == _brute_image(a, m) & _brute_image(b, m), meet.name
    for spec in specs:
        image = image_of(spec, 10)
        assert image == _brute_image(spec, 10), spec.name
        # entries outside 0..modulus-1 reduce before the lookup
        for g in enumerate_group(10):
            shifted = (g[0] - 30, g[1] + 10, g[2] - 10, g[3] + 20)
            assert spec.contains(shifted) == (g in image), (spec.name, g)


def test_record_contract():
    g4 = get_spec("G4")
    assert SubgroupSpec("G4", 10, g4.residues) == g4
    assert hash(SubgroupSpec("G4", 10, g4.residues)) == hash(g4)
    assert (g4.name, g4.modulus) == ("G4", 10)
    gd = GenusData(1, 2, 3, 4, 5)
    assert (gd.mu, gd.eps2, gd.eps3, gd.cusps, gd.genus) == (1, 2, 3, 4, 5)
    assert gd == GenusData(mu=1, eps2=2, eps3=3, cusps=4, genus=5) != GenusData(1, 2, 3, 4, 6)
    assert hash(gd) == hash(GenusData(1, 2, 3, 4, 5))
    assert repr(gd) == "GenusData(mu=1, eps2=2, eps3=3, cusps=4, genus=5)"
    for record, attr in ((g4, "modulus"), (g4, "extra"), (gd, "genus"), (gd, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, attr, 0)
    with pytest.raises(NotAGroup, match="identity missing"):
        SubgroupSpec(name="x", modulus=10, residues=frozenset({(1, 1, 0, 1)}))
    with pytest.raises(NotAGroup, match="not closed"):
        g4._replace(residues=g4.residues | {(1, 1, 0, 1)})


GENUS_TABLE = {
    "Gamma0(5)": 0,
    "Gamma1(5)": 0,
    "Gamma0(10)": 0,
    "Gamma1(10)": 0,
    "Gamma(5)": 0,
    "G1": 1,
    "G2": 1,
    "G3": 4,
    "G4": 5,
    "Gamma(10)": 13,
}


@pytest.mark.parametrize("name,genus", sorted(GENUS_TABLE.items()))
def test_genus_table(name, genus):
    assert genus_data(get_spec(name), 10).genus == genus


def test_gamma10_full_data():
    gd = genus_data(get_spec("Gamma(10)"), 10)
    assert gd == GenusData(mu=360, eps2=0, eps3=0, cusps=36, genus=13)


INDEX_TABLE = [
    ("G1", "Gamma1(5)", 6),
    ("Gamma(10)", "G1", 5),
    ("G2", "Gamma1(5)", 2),
    ("G1", "G2", 3),
    ("G3", "Gamma(5)", 3),
    ("Gamma(10)", "G3", 2),
    ("G4", "Gamma(5)", 2),
    ("Gamma(10)", "G4", 3),
]


@pytest.mark.parametrize("inner,outer,index", INDEX_TABLE)
def test_index_table(inner, outer, index):
    assert subgroup_report(get_spec(inner), get_spec(outer), 10)["index"] == index


def test_g1_normal_s3_quotient():
    rep = subgroup_report(get_spec("G1"), get_spec("Gamma1(5)"), 10)
    assert rep["normal"] and rep["quotient_shape"] == "S3"


def test_gamma10_in_gamma5_s3():
    rep = subgroup_report(get_spec("Gamma(10)"), get_spec("Gamma(5)"), 10)
    assert rep["index"] == 6 and rep["normal"] and rep["quotient_shape"] == "S3"


def _cyclic(name, g, n):
    powers, x = [], tuple(v % n for v in (1, 0, 0, 1))
    while x not in powers:
        powers.append(x)
        x = mat_mul(x, g, n)
    return SubgroupSpec.from_residues(name, n, powers)


# Quotients no built-in pair reaches: each outer group over the trivial
# image of Gamma(n), so the quotient is the outer group itself.
@pytest.mark.parametrize("outer,n,order,shape", [
    (lambda: SubgroupSpec.from_residues("V4", 4, [(1, 0, 0, 1), (1, 2, 0, 1), (3, 0, 0, 3), (3, 2, 0, 3)]),
     4, 4, "C2xC2"),
    (lambda: _cyclic("<-T>", (2, 2, 0, 2), 3), 3, 6, "C6"),
    (lambda: _cyclic("<S>", (0, 3, 1, 0), 4), 4, 4, "C4"),
], ids=["V4", "-T", "S"])
def test_quotient_shapes_beyond_the_catalog(outer, n, order, shape):
    rep = subgroup_report(gamma(n), outer(), n)
    assert (rep["index"], rep["normal"], rep["quotient_shape"]) == (order, True, shape)


def test_normality_matches_brute_force_conjugation():
    # H is normal in K iff g*h*g^-1 lies in H for every g in K and h in H;
    # the report reads normality off its coset table instead
    n = 10
    specs = builtin_specs()
    images = {name: image_of(spec, n) for name, spec in specs.items()}
    brute = {}
    checked = 0
    for inner, hi in images.items():
        for outer, ho in images.items():
            if not hi <= ho:
                continue
            if (hi, ho) not in brute:
                brute[hi, ho] = all(
                    mat_mul(mat_mul(g, h, n), (g[3], -g[1] % n, -g[2] % n, g[0]), n) in hi
                    for g in ho for h in hi)
            assert subgroup_report(specs[inner], specs[outer], n)["normal"] == brute[hi, ho], (inner, outer)
            checked += 1
    assert checked == 138 and any(brute.values()) and not all(brute.values())


def test_not_contained():
    with pytest.raises(NotContained):
        subgroup_report(get_spec("Gamma1(5)"), get_spec("Gamma(5)"), 10)


def test_index_multiplicativity_along_paths():
    # [Gamma1(5):Gamma(10)] factors as 6*5 and as 2*3*5 along the two routes
    total = subgroup_report(get_spec("Gamma(10)"), get_spec("Gamma1(5)"), 10)["index"]
    r1 = subgroup_report(get_spec("G1"), get_spec("Gamma1(5)"), 10)["index"]
    r2 = subgroup_report(get_spec("Gamma(10)"), get_spec("G1"), 10)["index"]
    r3 = subgroup_report(get_spec("G2"), get_spec("Gamma1(5)"), 10)["index"]
    r4 = subgroup_report(get_spec("G1"), get_spec("G2"), 10)["index"]
    assert total == r1 * r2 == r3 * r4 * r2 == 30


def test_genus_integrality_guard():
    for name in GENUS_TABLE:
        gd = genus_data(get_spec(name), 10)
        assert (gd.mu + 12 - 3 * gd.eps2 - 4 * gd.eps3 - 6 * gd.cusps) % 12 == gd.genus * 12 % 12


def test_entrywise_g2_variant_is_a_different_group():
    # The nearest entrywise-congruence candidate for G2 (a=d=1 mod 10, b
    # even, c=0 mod 5) is a genus-0 group of index 3 in Gamma1(5) and so
    # cannot carry the field of phi^5 and the root discriminant.  The
    # shipped G2 is the alternating-function stabilizer, which has index 2,
    # genus 1, and quotient C3 over G1 as required.
    variant = SubgroupSpec.from_predicate(
        "G2-entrywise", 10,
        lambda a, b, c, d: a % 10 == 1 and d % 10 == 1 and b % 2 == 0 and c % 5 == 0,
    )
    assert genus_data(variant, 10).genus == 0
    assert subgroup_report(variant, get_spec("Gamma1(5)"), 10)["index"] == 3
    shipped = get_spec("G2")
    assert genus_data(shipped, 10).genus == 1
    assert subgroup_report(shipped, get_spec("Gamma1(5)"), 10)["index"] == 2
    assert subgroup_report(get_spec("G1"), shipped, 10)["quotient_shape"] == "C3"


def test_lattice_nodes_and_edges():
    lat = lattice(10)
    assert len(lat["nodes"]) == 11
    edges = {(a, b): d for a, b, d in lat["edges"]}
    assert edges[("G1", "Gamma(10)")] == 5
    assert edges[("Gamma1(5)", "G2")] == 2
    assert edges[("G2", "G1")] == 3
    assert edges[("Gamma(5)", "G4")] == 2
    assert edges[("G4", "Gamma(10)")] == 3
    assert edges[("Gamma(5)", "G3")] == 3
    assert edges[("G3", "Gamma(10)")] == 2
    assert edges[("Gamma(1)", "Gamma0(5)")] == 6


def test_lattice_dot_renders():
    dot = lattice_dot(10)
    assert dot.startswith("digraph")
    assert '"Gamma(10)"' in dot and "genus 13" in dot


def test_unknown_group():
    with pytest.raises(UnknownGroup):
        get_spec("Gamma7")


def test_builtin_specs_closed():
    # constructing the catalog runs the closure check on every spec
    specs = builtin_specs()
    assert len(specs) >= 14
