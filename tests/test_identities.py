"""The check registry: catalog shape, determinism, exactness separation,
and mutation sensitivity of every exact check."""

import functools
import hashlib
import importlib.util
import json
import math
import pathlib
import random
import re
from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from conftest import reference_theta_k, reference_theta_transforms

from bianchiq import curve, exact, identities, modular, theta
from bianchiq.exact import PuiseuxSeries, ZeroLeadingCoefficient
from bianchiq.identities import (
    ADDITION_FORMULAS,
    CheckResult,
    IdentityCheck,
    Report,
    SeriesEnv,
    UnknownName,
    VerifyConfig,
    _first_nonzero,
    check_names,
    get_check,
    registry,
    run_all,
    run_identity,
)


class TestCatalog:
    def test_size_is_stable(self):
        assert len(registry()) == 69

    def test_addition_block_has_25(self):
        names = check_names()
        adds = [n for n in names if n.startswith("addition-eq")]
        assert sorted(adds) == [f"addition-eq{i}" for i in sorted(range(11, 36), key=str)]
        assert len(adds) == 25

    def test_chain_block_has_9(self):
        names = [n for n in check_names() if n.startswith("chain-eq")]
        assert len(names) == 9

    def test_names_unique_and_sorted(self):
        names = check_names()
        assert len(set(names)) == len(names)
        assert list(names) == sorted(names)

    def test_kinds(self):
        kinds = {c.name: c.kind for c in registry()}
        assert kinds["delta-squared"] == "exact_series"
        assert kinds["weierstrass-discriminant"] == "exact_poly"
        assert kinds["jacobi-A4"] == "numeric"

    def test_every_check_runs_under_small_config(self):
        cfg = VerifyConfig(series_order=12, samples=2, seed=3)
        rep = run_all(cfg)
        assert rep.failed == 0
        assert len(rep.checks) == len(registry())


class TestRunIdentity:
    def test_delta_squared_passes(self):
        r = run_identity("delta-squared", VerifyConfig(series_order=20))
        assert r.status == "pass" and r.first_failing_exponent is None

    def test_defeq_gamma10_deeper_order(self):
        r = run_identity("defeq-gamma10", VerifyConfig(series_order=40))
        assert r.status == "pass"

    def test_numeric_residual_small(self):
        r = run_identity("addition-eq11", VerifyConfig(samples=20, seed=7))
        assert r.status == "pass" and r.worst_residual < 1e-9

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            run_identity("no-such-check")

    def test_a_name_given_twice_raises(self):
        # run twice, it would be counted twice
        with pytest.raises(ValueError, match="'sym-e1'"):
            run_all(VerifyConfig(series_order=12), ["sym-e1", "sym-e3", "sym-e1"])


class TestMutationSensitivity:
    @pytest.mark.parametrize(
        "name", [c.name for c in registry() if c.kind == "exact_series"]
    )
    def test_exact_series_mutation_fails(self, name):
        cfg = VerifyConfig(series_order=14, samples=1)
        assert run_identity(name, cfg).status == "pass"
        mutated = run_identity(name, cfg, mutate=True)
        assert mutated.status == "fail"
        assert mutated.first_failing_exponent is not None

    @pytest.mark.parametrize(
        "name", [c.name for c in registry() if c.kind == "exact_poly"]
    )
    def test_exact_poly_mutation_fails(self, name):
        cfg = VerifyConfig(series_order=12, samples=1)
        assert run_identity(name, cfg).status == "pass"
        assert run_identity(name, cfg, mutate=True).status == "fail"

    @pytest.mark.parametrize("name", sorted(identities._EXACT_POLY))
    def test_exact_poly_rows_vanish_and_not_at_the_sign_variant(self, name):
        residual, _ = identities._EXACT_POLY[name]
        assert all(r.is_zero() for r in identities._run_poly(residual))
        assert not all(r.is_zero() for r in identities._run_poly(residual, mutate=True))

    def test_the_exact_poly_mutant_is_the_sign_variant_of_w(self):
        variant = exact.QPoly.from_terms({0: 1, 5: -11, 10: 1})  # 1 - 11 phi^5 + phi^10
        assert identities._run_poly(lambda t, w: w, mutate=True) == variant
        assert identities._run_poly(lambda t, w: w) == curve.disc_factor(exact.QPoly.from_terms({5: 1}))

    @pytest.mark.parametrize("name", [c.name for c in registry() if c.kind == "numeric"])
    def test_numeric_mutation_raises(self, name):
        # no numeric check has a mutant yet, so asking for one must not pass
        with pytest.raises(ValueError, match=re.escape(name)):
            run_identity(name, VerifyConfig(samples=1), mutate=True)


# sha256 of the 52 lines json.dumps(run_identity(name, cfg, mutate=m).to_json(),
# sort_keys=True) over the 26 exact checks in registry order and m = False,
# True, joined by newlines: every verdict, and the first failing exponent of
# every mutant, at series orders 14 and 30, and at the benchmark's order 60;
# all three were recorded with every mutant run through its full window
EXACT_VERDICT_DIGESTS = {
    14: "b5f2604be0cc8175ec1b1a695b9adf60568761149c768aad233680d2b87ec9af",
    30: "5994bc8726ce0c8063cf948b3c67bd751a647f04b9d8be68dcf9ce35dba897db",
    60: "46416db04c831c042f00590d47f330534b4aaaa545f3fb29dd388e8f7010cb85",
}


@pytest.mark.parametrize("order", sorted(EXACT_VERDICT_DIGESTS))
def test_exact_verdicts_keep_their_digest(order):
    cfg = VerifyConfig(series_order=order, samples=1)
    lines = [json.dumps(run_identity(c.name, cfg, mutate=m).to_json(), sort_keys=True)
             for c in registry() if c.kind != "numeric" for m in (False, True)]
    assert len(lines) == 52
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == EXACT_VERDICT_DIGESTS[order]


# The lines json.dumps(r.to_json(), sort_keys=True), one per residual r of
# the 24 exact-series checks in registry order, each run plain and then
# mutated, joined by newlines: every coefficient at the benchmark's series
# order 60.  Rewrite the file with "\n".join(exact_residual_lines(60)).
EXACT_RESIDUALS_AT_60 = pathlib.Path(__file__).parent / "pins" / "exact_residuals_at_60.txt"


def exact_residual_lines(order):
    cfg = VerifyConfig(series_order=order, samples=1)
    return [json.dumps(r.to_json(), sort_keys=True)
            for c in registry() if c.kind == "exact_series" for m in (False, True)
            for r in c.runner(SeriesEnv(cfg, mutate=c.mutation_target if m else None))]


def test_exact_residuals_keep_their_digest_at_order_60():
    lines = exact_residual_lines(60)
    pinned = EXACT_RESIDUALS_AT_60.read_text().split("\n")
    moved = next((i for i, (a, b) in enumerate(zip(lines, pinned)) if a != b), min(len(lines), len(pinned)))
    assert lines == pinned, (f"{len(lines)} lines against {len(pinned)} pinned; first difference at line "
                             f"{moved + 1}:\n got    {lines[moved:moved + 1]}\n pinned {pinned[moved:moved + 1]}")


def test_each_exact_series_row_reads_named_series_and_mutates_one_it_reads():
    # so a mutant always perturbs a series the residual reads
    for name, (inputs, _, target, _) in identities._EXACT_SERIES.items():
        assert inputs and set(inputs) <= set(modular.NAMES), name
        assert target in inputs, name


@pytest.mark.parametrize("row", [(("phi", "nope"), "phi"), (("phi", "g1"), "g2")])
def test_a_row_off_the_series_catalog_stops_the_registry(monkeypatch, row):
    inputs, target = row
    monkeypatch.setitem(identities._EXACT_SERIES, "bad-row", (inputs, lambda *s: [], target, "bad"))
    with pytest.raises(ValueError, match="bad-row"):
        identities._build_registry()


def test_an_exact_series_check_fetches_exactly_its_inputs_in_order():
    # the table's runner is the only fetch path: each input once, in order
    class Recording(SeriesEnv):
        def get(self, name):
            fetched.append(name)
            return super().get(name)

    for name, (inputs, _, target, _) in identities._EXACT_SERIES.items():
        fetched = []
        get_check(name).runner(Recording(VerifyConfig(series_order=14), mutate=target))
        assert fetched == list(inputs), name


# -- the product memo of each exact-series check ---------------------------


@pytest.fixture
def memos(monkeypatch):
    """The memo of every product_memo scope run_identity opens, in order."""
    opened = []

    @contextmanager
    def recording():
        with exact.product_memo() as memo:
            opened.append(memo)
            yield memo

    monkeypatch.setattr(identities, "product_memo", recording)
    return opened


def test_no_memo_outlives_a_check(monkeypatch):
    assert run_identity("sym-e1", VerifyConfig(series_order=14)).status == "pass"
    assert exact._memo is None
    broken = IdentityCheck("broken", "exact_series", "inverts a zero series",
                           lambda env: [PuiseuxSeries.zero(5).inverse()], "phi")
    monkeypatch.setattr(identities, "get_check", lambda name: broken)
    with pytest.raises(ZeroLeadingCoefficient):
        run_identity("broken")
    assert exact._memo is None


@pytest.mark.parametrize("name", [c.name for c in registry() if c.kind == "exact_series"])
def test_a_mutant_after_its_plain_run_fails_where_it_fails_alone(name, monkeypatch):
    cfg = VerifyConfig(series_order=14, samples=1)
    monkeypatch.setattr(modular, "_cache", {})
    alone = run_identity(name, cfg, mutate=True)
    monkeypatch.setattr(modular, "_cache", {})
    run_identity(name, cfg)
    assert run_identity(name, cfg, mutate=True) == alone


def test_a_small_memo_cap_changes_no_residual(memos, monkeypatch):
    cfg = VerifyConfig(series_order=30, samples=1)
    env = SeriesEnv(cfg)
    names = ("bring2-subst", "hulek-craig-2tors", "defeq-gamma10")
    plain = [[r.to_json() for r in get_check(n).runner(env)] for n in names]
    monkeypatch.setattr(exact, "_MAX_MEMO_SLOTS", 400)
    for name, residuals in zip(names, plain):
        with exact.product_memo() as memo:
            assert [r.to_json() for r in get_check(name).runner(env)] == residuals
        assert 0 < memo.slots <= 400 and memo.misses > len(memo)
        assert run_identity(name, cfg).status == "pass"
    assert all(m.slots <= 400 for m in memos)


# a mutant's one scope, at the short target: products at working order 18
MUTANT_MEMO_AT_SHORT_TARGET = {"bring2-subst": (25, 20), "hulek-craig-2tors": (25, 49)}


# a plain run's one scope at order 60, with the named-series cache warm
MEMO_AT_THE_BENCHMARK_ORDER = {"bring2-subst": (25, 20), "hulek-craig-2tors": (25, 49)}


@pytest.mark.parametrize("name", sorted(MEMO_AT_THE_BENCHMARK_ORDER))
def test_memo_hits_at_the_benchmark_order(name, memos, targets):
    # a key that stopped hitting, or products that stopped repeating,
    # change the counts; the first run warms the named-series cache.  The
    # mutant is certified at the short target, so its counts are pinned on
    # their own
    cfg = VerifyConfig(series_order=60, samples=1)
    for mutate in (False, False, True):
        run_identity(name, cfg, mutate=mutate)
    assert targets == [60, 60, 10] and len(memos) == 3
    assert (memos[1].hits, memos[1].misses) == MEMO_AT_THE_BENCHMARK_ORDER[name]
    assert (memos[2].hits, memos[2].misses) == MUTANT_MEMO_AT_SHORT_TARGET[name]


# -- bring2-subst's generic substitution, proven as polynomials --------------


@pytest.mark.parametrize("broken", [
    lambda xi, t: xi ** 3 - xi ** 2 + t * xi - t,        # the constant term as -t
    lambda xi, t: xi ** 3 - xi ** 2 + 2 * t * xi + t,    # a doubled xi term
    lambda xi, t: xi ** 3 + t * xi + t,                  # the xi^2 term dropped
], ids=["constant", "xi-term", "xi2-term"])
def test_bring2_subst_fails_low_when_the_generic_identity_breaks(monkeypatch, broken):
    # the three series residuals do not read the cubic, so the four
    # polynomial residuals alone catch the break, each a series below q^2
    cfg = VerifyConfig(series_order=30, samples=1)
    assert run_identity("bring2-subst", cfg).status == "pass"
    monkeypatch.setattr(curve, "cubic", broken)
    residuals = get_check("bring2-subst").runner(SeriesEnv(cfg))
    assert len(residuals) == 7 and all(r.is_zero() for r in residuals[:3])
    result = run_identity("bring2-subst", cfg)
    assert result.status == "fail" and F(result.first_failing_exponent) <= 2


def test_bring2_subst_proof_residuals_are_zero_polynomials():
    # R_c = bring2(x, c; x) - x cubic(c, x^5) for c = 0..3, which the check
    # reads at phi
    x = exact.QPoly([0, 1])
    for c in range(4):
        assert (curve.plane_model_residual("bring2", (x, c), x) - x * curve.cubic(c, x ** 5)).is_zero()
        assert not (curve.plane_model_residual("bring2", (x, c), x) - curve.cubic(c, x ** 5)).is_zero()


# -- the short target a mutant is looked for at first ------------------------


def _patched_check(monkeypatch, residual):
    check = IdentityCheck("patched", "exact_series", "one patched residual", lambda env: [residual(env)], "phi")
    monkeypatch.setattr(identities, "get_check", lambda name: check)


@pytest.fixture
def targets(monkeypatch):
    """The target of every SeriesEnv run_identity builds, in order."""
    built = []

    class Recording(SeriesEnv):
        def __init__(self, cfg, mutate=None):
            super().__init__(cfg, mutate)
            built.append(self.target)

    monkeypatch.setattr(identities, "SeriesEnv", Recording)
    return built


def test_a_mutant_past_the_short_target_is_found_at_the_full_one(memos, targets, monkeypatch):
    # nothing fails through the short target, so the full window runs too
    _patched_check(monkeypatch, lambda env: PuiseuxSeries.monomial(12, env.order))
    r = run_identity("patched", VerifyConfig(series_order=30), mutate=True)
    assert (r.status, r.first_failing_exponent, r.order) == ("fail", "12", "30")
    assert len(memos) == 2 and targets == [10, 30]


def test_a_registered_mutant_is_certified_at_the_short_target(memos, targets):
    r = run_identity("bring2-subst", VerifyConfig(series_order=60), mutate=True)
    assert (r.status, r.first_failing_exponent, r.order) == ("fail", "8", "60")
    assert len(memos) == 1 and targets == [10]
    # a plain run, and a mutant at the short target itself, take one window
    run_identity("bring2-subst", VerifyConfig(series_order=60))
    run_identity("bring2-subst", VerifyConfig(series_order=10), mutate=True)
    assert len(memos) == 3 and targets == [10, 60, 10]


def test_a_residual_short_of_its_target_raises_on_a_mutated_run(monkeypatch):
    _patched_check(monkeypatch, lambda env: PuiseuxSeries.zero(env.target))
    with pytest.raises(ArithmeticError, match="raise the slack"):
        run_identity("patched", VerifyConfig(series_order=30), mutate=True)


def test_first_failing_exponent_is_the_least_over_residuals():
    # no registered mutant leaves residuals that first fail at different
    # exponents, so the digests above cannot tell the least from the largest
    residuals = [PuiseuxSeries.monomial(F(39, 5), 20), PuiseuxSeries.zero(20), PuiseuxSeries.monomial(7, 20)]
    assert _first_nonzero(residuals, F(14)) == 7
    assert _first_nonzero(residuals[:2], F(14)) == F(39, 5)
    assert _first_nonzero(residuals, F(6)) is None


class TestDeterminism:
    def test_same_seed_identical_reports(self):
        cfg = VerifyConfig(series_order=12, samples=3, seed=99)
        names = ["jacobi-A4", "chain-eq7", "addition-eq23", "five-torsion", "sym-e1"]
        a = run_all(cfg, names).to_json(with_elapsed=False)
        b = run_all(cfg, names).to_json(with_elapsed=False)
        assert json.dumps(a) == json.dumps(b)

    def test_subset_matches_full_run(self):
        # per-check seeding: results are independent of which checks run
        cfg = VerifyConfig(series_order=12, samples=3, seed=5)
        solo = run_all(cfg, ["duplication-mixed"]).checks[0]
        full = {c.name: c for c in run_all(cfg, ["duplication-mixed", "jacobi-A4", "theta-nullwerte"]).checks}
        assert solo == full["duplication-mixed"]

    def test_entries_sorted_by_name(self):
        cfg = VerifyConfig(series_order=12, samples=2)
        rep = run_all(cfg, ["theta-nullwerte", "chain-eq2", "sym-e3"])
        assert [c.name for c in rep.checks] == sorted(c.name for c in rep.checks)


class TestToleranceSemantics:
    def test_tiny_tol_fails_numeric_not_exact(self):
        cfg = VerifyConfig(series_order=12, samples=2, tol=1e-30)
        rep = run_all(cfg, ["jacobi-A4", "sym-e1", "weierstrass-discriminant"])
        by_name = {c.name: c for c in rep.checks}
        assert by_name["jacobi-A4"].status == "fail"
        assert by_name["sym-e1"].status == "pass"
        assert by_name["weierstrass-discriminant"].status == "pass"

    def test_exact_checks_record_no_residual(self):
        r = run_identity("sym-e2", VerifyConfig(series_order=12))
        assert r.worst_residual is None

    def test_numeric_checks_record_no_exponent(self):
        r = run_identity("theta-nullwerte", VerifyConfig(samples=2))
        assert r.first_failing_exponent is None


class TestReportSchema:
    def test_json_shape(self):
        cfg = VerifyConfig(series_order=12, samples=2)
        rep = run_all(cfg, ["sym-e1", "jacobi-A4"])
        out = rep.to_json()
        assert set(out) == {"config", "checks", "passed", "failed", "elapsed_ms"}
        for entry in out["checks"]:
            assert {"name", "kind", "status"} <= set(entry)
        numeric = next(e for e in out["checks"] if e["kind"] == "numeric")
        assert "worst_residual" in numeric and "samples" in numeric
        exact = next(e for e in out["checks"] if e["kind"] == "exact_series")
        assert "order" in exact

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VerifyConfig(series_order=5)
        with pytest.raises(ValueError):
            VerifyConfig(tol=1.0)
        with pytest.raises(ValueError):
            VerifyConfig(samples=0)

    @pytest.mark.parametrize("kwargs,message", [
        ({"series_order": 9}, "series_order must be >= 10"),
        ({"tol": 0.0}, "tol must lie in (0, 1e-4)"),
        ({"tol": 1e-4}, "tol must lie in (0, 1e-4)"),
        ({"samples": 0}, "samples must be >= 1"),
    ])
    def test_config_validation_messages(self, kwargs, message):
        with pytest.raises(ValueError) as exc:
            VerifyConfig(**kwargs)
        assert str(exc.value) == message
        with pytest.raises(ValueError, match="must"):
            VerifyConfig(*{**VerifyConfig()._asdict(), **kwargs}.values())  # positionally
        with pytest.raises(ValueError, match="must"):
            VerifyConfig()._replace(**kwargs)

    def test_record_contract(self):
        cfg = VerifyConfig()
        assert repr(cfg) == ("VerifyConfig(series_order=30, tol=1e-09, samples=20, seed=7, "
                             "tau_re=(-0.5, 0.5), tau_im=(0.8, 2.0))")
        # field order and defaults, read back by name
        cfg = VerifyConfig(12, 1e-8, 3, 5)
        assert (cfg.series_order, cfg.tol, cfg.samples, cfg.seed) == (12, 1e-8, 3, 5)
        assert (cfg.tau_re, cfg.tau_im) == ((-0.5, 0.5), (0.8, 2.0))
        assert cfg == VerifyConfig(series_order=12, tol=1e-8, samples=3, seed=5) != VerifyConfig()
        assert hash(cfg) == hash(VerifyConfig(series_order=12, tol=1e-8, samples=3, seed=5))
        r = CheckResult("x", "numeric", "pass")
        assert (r.worst_residual, r.first_failing_exponent, r.order, r.samples) == (None,) * 4
        rep = Report(cfg, (r,), 1, 0, 2.5)
        assert (rep.config, rep.checks, rep.passed, rep.failed, rep.elapsed_ms) == (cfg, (r,), 1, 0, 2.5)
        check = IdentityCheck("x", "numeric", "d", len)
        assert (check.runner, check.mutation_target) == (len, None)
        assert repr(check) == "IdentityCheck(name='x', kind='numeric', description='d', mutation_target=None)"
        for record, attr in ((cfg, "seed"), (cfg, "extra"), (r, "status"), (rep, "failed"), (check, "kind")):
            with pytest.raises(AttributeError):
                setattr(record, attr, 0)

    def test_descriptions_present(self):
        for c in registry():
            assert c.description

    def test_get_check(self):
        assert get_check("weierstrass-map").kind == "numeric"
        with pytest.raises(UnknownName):
            get_check("bogus")


NUMERIC = [c.name for c in registry() if c.kind == "numeric"]


@pytest.mark.parametrize("seed", [0, 7])
def test_each_numeric_stream_is_seeded_by_hashlib_sha256(seed):
    # the salt is the first 8 bytes of hashlib's SHA-256 of the name,
    # whichever module computes it
    assert len(NUMERIC) == 43
    cfg = VerifyConfig(seed=seed)
    for name in NUMERIC:
        salt = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")
        assert cfg.rng_for(name).getstate() == random.Random(seed ^ salt).getstate(), name


class CountingRandom(random.Random):
    """Counts its random() calls; any other way of drawing fails."""

    calls = 0

    def random(self):
        self.calls += 1
        return super().random()

    def getrandbits(self, k):
        raise AssertionError("a numeric check drew other than by random()")


@pytest.mark.parametrize("samples", [2, 11])
def test_each_numeric_row_draws_tau_and_its_zs_per_sample_and_nothing_else(samples):
    # one sample per `per` of cfg.samples, at least one, each a tau and the
    # row's z's at two random() calls apiece; the counting stream is the
    # check's own, so its residuals are the ones run_identity folds
    assert {n: r.per for n, r in identities._NUMERIC.items() if r.per != 1} == {"five-torsion": 5}
    cfg = VerifyConfig(samples=samples)
    state = random.getstate()
    for name in NUMERIC:
        row = identities._NUMERIC[name]
        rng = CountingRandom()
        rng.setstate(cfg.rng_for(name).getstate())
        worst = functools.reduce(curve._worse, get_check(name).runner(cfg, rng), 0.0)
        assert rng.calls == max(1, samples // row.per) * 2 * (1 + row.draws), name
        assert worst == run_identity(name, cfg).worst_residual, name
    assert random.getstate() == state


class TestBitIdentity:
    """The numeric checks report, to the bit, what they report when every
    theta value comes from the straightforward reference evaluator."""

    @pytest.mark.parametrize("seed", [7, 403])
    def test_worst_residuals_match_reference_theta(self, seed, monkeypatch):
        cfg = VerifyConfig(samples=5, seed=seed)
        fast = {n: run_identity(n, cfg).worst_residual for n in NUMERIC}
        monkeypatch.setattr(theta, "theta_k", reference_theta_k)
        ref = {n: run_identity(n, cfg).worst_residual for n in NUMERIC}
        assert {n: r.hex() for n, r in fast.items()} == {n: r.hex() for n, r in ref.items()}

    @pytest.mark.parametrize("seed", [7, 403])
    def test_theta_transforms_sharing(self, seed):
        # each sample reads its right-hand sides from one table of ten theta
        # values; the reference evaluates all 140 values separately
        cfg = VerifyConfig(samples=5, seed=seed)
        got = run_identity("theta-transforms", cfg).worst_residual
        assert got.hex() == reference_theta_transforms(cfg, cfg.rng_for("theta-transforms")).hex()


def _addition_terms(row, x, y, tau):
    """The three terms of an addition formula row at (x, y)."""
    s, d, p, m = row
    t = lambda k, a: theta.theta_k(k, a, tau)
    return (t(3, 0) ** 2 * t(s, x + y) * t(d, x - y), t(p[0], x) * t(p[1], x) * t(p[2], y) ** 2,
            t(m[0], x) ** 2 * t(m[1], y) * t(m[2], y))


@pytest.mark.parametrize("seed", range(3))
def test_addition_formulas_are_formula_11_at_translated_points(seed):
    # formula 11 + 5i + j is formula 11 at (x + (i+j) tau/5, y + j tau/5):
    # its three terms there are one common factor times those of row k at
    # (x, y), whatever the table's derivation says
    rng = random.Random(seed)
    cfg = VerifyConfig()
    tau = cfg.random_tau(rng)
    x, y = cfg.random_z(rng), cfg.random_z(rng)
    for i in range(5):
        for j in range(5):
            k = 11 + 5 * i + j
            moved = _addition_terms(ADDITION_FORMULAS[11], x + (i + j) * tau / 5, y + j * tau / 5, tau)
            ratios = [a / b for a, b in zip(moved, _addition_terms(ADDITION_FORMULAS[k], x, y, tau))]
            spread = max(abs(r - ratios[0]) for r in ratios) / abs(ratios[0])
            assert spread <= 1e-10, (k, spread)


# sha256 of the 43 lines "name status worst_residual.hex()", joined by
# newlines in registry order, at the benchmark's 200 samples
RESIDUAL_DIGESTS_AT_200 = {
    7: "055d98b94413d2282ab186b86d0c35c546d9830c426ac275946c69ffef502dfe",
    403: "92a6fe2a24cf361e50c15a2bfaf2ec88416f341e7499d6c8073f3562330992e8",
}


@pytest.mark.parametrize("seed", sorted(RESIDUAL_DIGESTS_AT_200))
def test_numeric_residuals_keep_their_bits_at_200_samples(seed):
    cfg = VerifyConfig(samples=200, seed=seed)
    lines = []
    for name in NUMERIC:
        r = run_identity(name, cfg)
        lines.append(f"{name} {r.status} {r.worst_residual.hex()}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == RESIDUAL_DIGESTS_AT_200[seed]


def _known_failure(name, seed, worst):
    reason = f"{name} at seed {seed}, 200 samples: worst residual {worst} against tol 1e-9 (ROADMAP item 8)"
    return pytest.param(name, seed, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason))


# When item 8 mends these, they pass, the strict xfails fail, and each turns
# into a passing test.
@pytest.mark.parametrize("name, seed", [_known_failure("chain-eq10", 403, "4.85e-9"),
                                        _known_failure("weierstrass-map", 229, "1.048e-9")])
def test_known_numeric_failures_at_200_samples(name, seed):
    assert run_identity(name, VerifyConfig(samples=200, seed=seed)).status == "pass"


class TestNaNResidual:
    """A NaN residual fails its check, wherever in the run it appears."""

    # enough samples to make more than 26 theta calls: theta-nullwerte makes
    # 5 a sample, the quadrics 7, weierstrass-map 7 and 2 more, and
    # five-torsion 2 for each tau, which it draws once per 5 samples
    SAMPLES = {"theta-nullwerte": 6, "bianchi-quadrics-theta": 4, "weierstrass-map": 4, "five-torsion": 70}

    @pytest.mark.parametrize("name", ["chain-eq2", "addition-eq11", "theta-transforms", "jacobi-A4",
                                      "duplication-cubic", "duplication-mixed", "theta-nullwerte",
                                      "bianchi-quadrics-theta", "addition-map-A1A2", "five-torsion",
                                      "weierstrass-map"])
    @pytest.mark.parametrize("nan_call", [0, 25])
    def test_one_nan_theta_value_fails(self, name, nan_call, monkeypatch):
        real = theta.theta_k
        calls = [0]

        def theta_k(k, z, tau):
            calls[0] += 1
            return complex("nan") if calls[0] == nan_call + 1 else real(k, z, tau)

        monkeypatch.setattr(theta, "theta_k", theta_k)
        r = run_identity(name, VerifyConfig(samples=self.SAMPLES.get(name, 3), seed=7))
        assert calls[0] > nan_call + 1
        assert r.status == "fail" and math.isnan(r.worst_residual)


def test_registry_matches_the_benchmark_catalog():
    """The benchmark pins the registry: its worker refuses a registry that
    differs from ``perfbench/ops.py``'s lists, and every op then fails.  A
    change to the names or kinds of the checks therefore needs its own
    change to the benchmark."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "ops.py"
    spec = importlib.util.spec_from_file_location("perfbench_ops_pinned", path)
    ops = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ops)
    by_kind = {}
    for c in registry():
        by_kind.setdefault(c.kind, set()).add(c.name)
    assert by_kind == {
        "exact_series": set(ops.EXACT_SERIES_CHECKS),
        "exact_poly": set(ops.EXACT_POLY_CHECKS),
        "numeric": set(ops.NUMERIC_CHECKS),
    }
