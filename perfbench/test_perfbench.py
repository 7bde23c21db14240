"""Self-test of the benchmark's generator, tracer counts and known answers.

    python3 -m pytest -q perfbench/test_perfbench.py

The numeric-seed and traced-count tests start bianchiq worker processes
from ``src/``; the rest is pure Python.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import known
import ops as catalog
from tracer import mul_slot_products

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_same_seed_same_ops(workload):
    a, b = catalog.generate(workload, 7), catalog.generate(workload, 7)
    assert a == b and catalog.op_hash(a) == catalog.op_hash(b)


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_other_seed_other_order(workload):
    assert catalog.generate(workload, 7) != catalog.generate(workload, 8)


def test_seed_moves_mutants_and_draws():
    mutants = {frozenset(op["check"] for op in catalog.exact_deep(s) if op.get("mutate")) for s in range(20)}
    assert len(mutants) > 5
    sessions = {json.dumps(sorted(op["argv"] for op in catalog.cli_session(s))) for s in range(20)}
    assert len(sessions) == 20
    taus = {op["argv"][2] for s in range(20) for op in catalog.cli_session(s) if op["argv"][0] == "point"}
    assert len(taus) == 20


def test_pass_contents():
    exact = catalog.exact_deep(1)
    builds = [op["build"] for op in exact if "build" in op]
    checks = [op for op in exact if "check" in op]
    assert sorted(builds) == sorted(catalog.BUILD_NAMES) and exact[:len(builds)] == [{"build": b} for b in builds]
    assert sorted(op["check"] for op in checks if not op["mutate"]) == sorted(catalog.EXACT_CHECKS)
    assert [op["expect"] for op in checks if op["mutate"]] == ["fail"] * len(catalog.MUTANT_STRATA)
    assert sorted(op["check"] for op in catalog.numeric_dense(1)) == sorted(catalog.NUMERIC_CHECKS)
    commands = sorted(op["argv"][0] for op in catalog.cli_session(1))
    assert commands == ["expand"] * 4 + ["group"] * 3 + ["list", "point", "verify"]


def test_mutant_strata_partition_the_exact_checks():
    flat = [n for stratum in catalog.MUTANT_STRATA for n in stratum]
    assert sorted(flat) == sorted(catalog.EXACT_CHECKS)
    assert len(catalog.ALL_CHECKS) == 69 and len(catalog.NUMERIC_CHECKS) == 43


def test_mul_slot_products_matches_the_convolution_loop():
    rng = random.Random(5)
    for _ in range(300):
        a = _series(rng)
        b = _series(rng)
        assert mul_slot_products(a, b)[0] == _loop_count(a, b)


def _series(rng):
    ram = rng.choice((1, 2, 5, 10))
    lo = rng.randint(-6, 6)
    trunc = lo + rng.randint(0, 12)
    coeffs = [rng.choice((0, 1, 3)) for _ in range(trunc - lo)]
    if coeffs:
        coeffs[0] = 1
    return SimpleNamespace(ram=ram, lo=lo if coeffs else trunc, trunc=trunc, coeffs=coeffs)


def _loop_count(a, b):
    ram = math.lcm(a.ram, b.ram)
    ma, mb = ram // a.ram, ram // b.ram
    if not a.coeffs or not b.coeffs:
        return 0
    n = min(a.trunc * ma + b.lo * mb, b.trunc * mb + a.lo * ma) - (a.lo * ma + b.lo * mb)
    nb = (b.trunc - b.lo) * mb
    return sum(max(0, min(nb, n - i)) for i in range((a.trunc - a.lo) * ma))


def test_closed_forms():
    assert tuple(known.j_coefficients(len(known.J_HEAD))) == known.J_HEAD
    assert known.eta_lines(8) == ["1/24\t1", "25/24\t-1", "49/24\t-1", "121/24\t1", "169/24\t1"]


def _worker(ops, seed, trace):
    job = json.dumps({"ops": ops, "seed": seed, "pass_id": 0, "trace": trace})
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "pass", repr(time.perf_counter())]
    proc = subprocess.run(argv, input=job, capture_output=True, text=True, env=ENV, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_counts_repeat_exactly():
    ops = [{"check": n, "mutate": False, "expect": "pass"}
           for n in ("sym-e1", "j5-phi", "ramanujan-relation", "theta-nullwerte")]
    first, second = (_worker(ops, 3, True)["trace"] for _ in range(2))

    def counts(t):
        return ({k: v["calls"] for k, v in t["names"].items()}, t["counts"], t["named_series_misses"])

    assert counts(first) == counts(second)
    assert first["counts"]["mul_slot_products"] > 0


def test_every_exact_mutant_fails():
    ops = [{"build": n} for n in catalog.BUILD_NAMES]
    ops += [{"check": n, "mutate": True, "expect": "fail"} for n in catalog.EXACT_CHECKS]
    with open(os.path.join(HERE, known.EXPECTED_FILE)) as f:
        builds = json.load(f)["build"]
    out = _worker(ops, 1, False)
    want = [builds[n] for n in catalog.BUILD_NAMES] + ["fail"] * len(catalog.EXACT_CHECKS)
    assert [r["status"] for r in out["ops"]] == want


@pytest.mark.parametrize("seed", [1, 2, 3, 11, 12345])
def test_numeric_checks_pass_at_seed(seed):
    ops = catalog.numeric_dense(seed)
    out = _worker(ops, seed, False)
    assert out["error"] is None
    assert [r["status"] for r in out["ops"]] == ["pass"] * len(ops)
