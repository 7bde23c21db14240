"""Seeded generator of the benchmark's op lists.

One op list is one pass.  Every pass of a run repeats the run's op list, so
the work of a pass, and every count the traced run reports, depends on the
seed alone.  The generator is pure Python and does not import bianchiq: the
check names are pinned here, and the worker verifies them against the
package's registry before running anything.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("exact-deep", "numeric-dense", "cli-session")

EXACT_ORDER = 60
NUMERIC_SAMPLES = 200

EXACT_SERIES_CHECKS = (
    "G2-defeq", "bring-kk", "bring2-subst", "cubic-root-g1", "cubic-root-g2",
    "cubic-root-g3", "defeq-gamma10", "delta-squared", "g1-from-XY",
    "g1g2-relation", "g1g2-weierstrass", "genus5-defeq", "hulek-craig-2tors",
    "j-cross-check", "j10-g1", "j10-g2", "j5-j10", "j5-phi", "phi5-from-g1",
    "ramanujan-relation", "sym-e1", "sym-e2", "sym-e3", "weber-model",
)
EXACT_POLY_CHECKS = ("cubic-discriminant-factorization", "weierstrass-discriminant")
NUMERIC_CHECKS = tuple(
    [f"addition-eq{i}" for i in range(11, 36)]
    + ["addition-map-A1A2", "bianchi-quadrics-theta"]
    + [f"chain-eq{i}" for i in range(2, 11)]
    + ["duplication-cubic", "duplication-mixed", "five-torsion", "jacobi-A4",
       "theta-nullwerte", "theta-transforms", "weierstrass-map"]
)
EXACT_CHECKS = EXACT_SERIES_CHECKS + EXACT_POLY_CHECKS
ALL_CHECKS = EXACT_CHECKS + NUMERIC_CHECKS

# The exact checks ranked by the cost of a mutated re-run at order 60,
# measured on the commit that introduced the benchmark.  One mutant is drawn
# from each stratum, so every seed does about the same mutant work (the two
# checks of the first stratum cost ~2.5 s each, the others under 0.7 s) and
# the seed moves which checks are mutated, not how long a pass takes.
MUTANT_STRATA = (
    ("bring2-subst", "hulek-craig-2tors"),
    ("g1g2-weierstrass", "defeq-gamma10", "bring-kk", "g1g2-relation",
     "j-cross-check", "cubic-root-g2", "cubic-root-g3", "sym-e2"),
    ("g1-from-XY", "weber-model", "sym-e3", "G2-defeq", "phi5-from-g1",
     "cubic-root-g1", "j5-j10", "delta-squared"),
    ("genus5-defeq", "j10-g1", "j10-g2", "j5-phi", "ramanujan-relation",
     "sym-e1", "weierstrass-discriminant", "cubic-discriminant-factorization"),
)

# The named series the exact checks read, at their working order.  An
# exact-deep pass builds each one as its own op before the checks run, so a
# check's latency is its own work and not whichever cold builds the seed's
# order happened to put in front of it.
BUILD_NAMES = ("phi", "phi5", "g1", "g2", "g3", "delta", "j", "j5", "j10", "neg_g2_2tau")

# Series the cli session expands.  `delta` at order 100 is always expanded:
# its cold build (g1, g2, g3 and their phi builds) is the heaviest `expand`.
# `g1` and `g3` are left out of the draw because their cold cost at order
# 100 (1.3-2.1 s) would make a session's length depend on the seed; their
# builders already run inside `delta`.
EXPAND_HEAVY = ("delta", 100)
EXPAND_LIGHT = ("phi", "phi5", "g2", "j5", "j10", "j", "eta", "neg_g2_2tau")
EXPAND_ORDERS = (30, 100)
GROUPS = ("Gamma(10)", "Gamma(5)", "Gamma1(5)", "Gamma0(5)", "Gamma1(10)",
          "Gamma0(10)", "G1", "G2", "G3", "G4")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"bianchiq-perfbench:{workload}:{seed}")


def exact_deep(seed: int) -> list[dict]:
    rng = _rng("exact-deep", seed)
    mutants = [rng.choice(stratum) for stratum in MUTANT_STRATA]
    builds = [{"build": n} for n in BUILD_NAMES]
    rng.shuffle(builds)
    checks = [{"check": n, "mutate": False, "expect": "pass"} for n in EXACT_CHECKS]
    checks += [{"check": n, "mutate": True, "expect": "fail"} for n in mutants]
    rng.shuffle(checks)
    return builds + checks


def numeric_dense(seed: int) -> list[dict]:
    rng = _rng("numeric-dense", seed)
    ops = [{"check": n, "mutate": False, "expect": "pass"} for n in NUMERIC_CHECKS]
    rng.shuffle(ops)
    return ops


def _tau_literal(rng: random.Random) -> str:
    # The tau box the numeric checks sample, where theta sums are well
    # conditioned.
    return f"{rng.uniform(-0.5, 0.5):.6f}{rng.uniform(0.8, 2.0):+.6f}i"


def cli_session(seed: int) -> list[dict]:
    rng = _rng("cli-session", seed)
    ops = [{"argv": ["verify", "--all", "--seed", str(seed)]}]
    ops.append({"argv": ["expand", EXPAND_HEAVY[0], "--order", str(EXPAND_HEAVY[1])]})
    for name in rng.sample(EXPAND_LIGHT, 3):
        ops.append({"argv": ["expand", name, "--order", str(rng.randint(*EXPAND_ORDERS))]})
    for name in rng.sample(GROUPS, 2):
        ops.append({"argv": ["group", name]})
    ops.append({"argv": ["group", "--dot"]})
    which = rng.choice(("two-torsion", "five-torsion"))
    ops.append({"argv": ["point", which, f"--tau={_tau_literal(rng)}"]})
    ops.append({"argv": ["list"]})
    rng.shuffle(ops)
    return ops


GENERATORS = {"exact-deep": exact_deep, "numeric-dense": numeric_dense, "cli-session": cli_session}


def generate(workload: str, seed: int) -> list[dict]:
    """The op list of one pass of ``workload`` for ``seed``."""
    return GENERATORS[workload](seed)


def op_hash(ops: list[dict]) -> str:
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()[:16]
