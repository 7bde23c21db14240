"""Known answers for every cli-session op.

Digests of `expand`, `group`, `group --dot` and `list` stdout were recorded
from the commit that introduced the benchmark (see ``make_expected.py``);
`eta` and `j` are also checked against closed forms computed here without
bianchiq, and `group` against the standard invariants of each group.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import ops as catalog

EXPECTED_FILE = "expected.json"
POINT_RESIDUAL_MAX = 1e-9

# (mu, eps2, eps3, cusps, genus) in PSL2(Z); G1..G4 as pinned in the
# package's congruence tests.
GROUP_INVARIANTS = {
    "Gamma(10)": (360, 0, 0, 36, 13),
    "Gamma(5)": (60, 0, 0, 12, 0),
    "Gamma1(5)": (12, 0, 0, 4, 0),
    "Gamma0(5)": (6, 2, 0, 2, 0),
    "Gamma1(10)": (36, 0, 0, 8, 0),
    "Gamma0(10)": (18, 2, 0, 4, 0),
    "G1": (72, 0, 0, 12, 1),
    "G2": (24, 0, 0, 4, 1),
    "G3": (180, 0, 0, 24, 4),
    "G4": (120, 0, 0, 12, 5),
}

# The first coefficients of j = q^-1 + 744 + 196884 q + ...
J_HEAD = (1, 744, 196884, 21493760, 864299970, 20245856256)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def series_digest(series) -> str:
    return digest(json.dumps(series.to_json(), sort_keys=True))


def expand_key(name: str, order: int) -> str:
    return f"{name}@{order}"


def eta_lines(order: int) -> list[str]:
    """Euler: eta = sum over k of (-1)^k q^((6k-1)^2/24)."""
    k_max = math.isqrt(order) + 2
    terms = sorted((Fraction((6 * k - 1) ** 2, 24), -1 if k % 2 else 1)
                   for k in range(-k_max, k_max + 1))
    return [f"{e}\t{c}" for e, c in terms if e < order]


def j_coefficients(count: int) -> list[int]:
    """c(-1), c(0), ... of j = E4^3 / (q prod (1-q^n)^24), in integers."""
    e4 = [1] + [240 * sum(d ** 3 for d in range(1, n + 1) if n % d == 0) for n in range(1, count)]
    e4_cubed = _conv(_conv(e4, e4, count), e4, count)
    prod = [1] + [0] * (count - 1)
    for n in range(1, count):
        for _ in range(24):
            for i in range(count - 1, n - 1, -1):
                prod[i] -= prod[i - n]
    inv = [1] + [0] * (count - 1)
    for k in range(1, count):
        inv[k] = -sum(prod[i] * inv[k - i] for i in range(1, k + 1))
    return _conv(e4_cubed, inv, count)


def _conv(a, b, count):
    c = [0] * count
    for i, x in enumerate(a[:count]):
        for j, y in enumerate(b[: count - i]):
            c[i + j] += x * y
    return c


def j_lines(order: int) -> list[str]:
    coeffs = j_coefficients(order + 1)
    return [f"{e}\t{c}" for e, c in zip(range(-1, order), coeffs) if c]


def check(argv: list, rc: int, stdout: str, expected: dict) -> str | None:
    """None when the op's exit code and stdout are right, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    cmd = argv[0]
    try:
        if cmd == "verify":
            return _check_verify(json.loads(stdout))
        if cmd == "expand":
            return _check_expand(argv[1], int(argv[3]), stdout, expected)
        if cmd == "group":
            return _check_group(argv[1], stdout, expected)
        if cmd == "point":
            return _check_point(argv[1], json.loads(stdout))
        if cmd == "list":
            return None if digest(stdout) == expected["list"] else "list output differs from the recorded digest"
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"
    return f"no known answer for {cmd!r}"


def _check_verify(report: dict) -> str | None:
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    if report["passed"] != len(catalog.ALL_CHECKS) or report["failed"] != 0:
        return f"verify reported passed {report['passed']}, failed {report['failed']}"
    if set(statuses) != set(catalog.ALL_CHECKS) or set(statuses.values()) != {"pass"}:
        return "verify check list or statuses differ from the registry"
    return None


def _check_expand(name: str, order: int, stdout: str, expected: dict) -> str | None:
    if digest(stdout) != expected["expand"].get(expand_key(name, order)):
        return f"expand {name} --order {order} differs from the recorded digest"
    closed = {"eta": eta_lines, "j": j_lines}.get(name)
    if closed is not None and stdout.splitlines() != closed(order):
        return f"expand {name} --order {order} differs from its closed form"
    return None


def _check_group(name: str, stdout: str, expected: dict) -> str | None:
    if name == "--dot":
        if digest(stdout) != expected["dot"]:
            return "group --dot differs from the recorded digest"
        if '"Gamma(10)" [label="Gamma(10)\\ngenus 13"]' not in stdout:
            return "group --dot lacks Gamma(10) with genus 13"
        return None
    out = json.loads(stdout)
    got = (out["mu"], out["eps2"], out["eps3"], out["cusps"], out["genus"])
    if got != GROUP_INVARIANTS[name]:
        return f"group {name}: (mu, eps2, eps3, cusps, genus) = {got}, want {GROUP_INVARIANTS[name]}"
    if digest(stdout) != expected["group"][name]:
        return f"group {name} differs from the recorded digest"
    return None


def _check_point(which: str, out: dict) -> str | None:
    want = {"two-torsion": 3, "five-torsion": 25}[which]
    res = out["max_quadric_residuals"]
    if len(out["points"]) != want or len(res) != want:
        return f"point {which} gave {len(out['points'])} points, want {want}"
    if not max(res) < POINT_RESIDUAL_MAX:
        return f"point {which}: max quadric residual {max(res):.3e} >= {POINT_RESIDUAL_MAX}"
    return None
