"""Command-line front end.

Subcommands:

    expand  NAME            print a named q-expansion (text or JSON)
    verify  [NAMES|--all]   run identity checks, exit 0 iff all pass
    point   OP [POINTS]     curve arithmetic over the complex numbers
    group   [NAME|--dot]    congruence-subgroup invariants and the lattice
    list                    catalog of series, identities, and groups

Exit codes: 0 success / all selected checks pass, 1 verification failure,
2 usage error (unknown name, malformed input), 141 stdout closed by its
reader before all output was written (128 + SIGPIPE, as a shell reports).

Data goes to stdout, diagnostics (including timing) to stderr; `verify`
output for a fixed seed is byte-identical across runs.  The environment
variable BIANCHIQ_ORDER overrides the default series order; explicit flags
always win, and a value that is not an integer is a usage error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys
from fractions import Fraction

from . import congruence, curve, identities, modular, theta

ORDER_ENV = "BIANCHIQ_ORDER"

# The largest relative quadric residual (curve.max_quadric_residual) that
# an input point of `point add` or `point double` may have.
ON_CURVE_TOL = 1e-8

# Each `point` op and the number of point arguments it takes.
_POINT_ARITY = {"add": 2, "double": 1, "neg": 1, "on-curve": 1, "two-torsion": 0, "five-torsion": 0}


def _default_order() -> int:
    text = os.environ.get(ORDER_ENV, "30")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{ORDER_ENV} must be an integer, got {text!r}") from None


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' literals: '1.1i', '0.3+1.4i', '-2', 'i', '0.5-i'.

    Whitespace is ignored, and a trailing 'i' marks the imaginary part;
    the rest is Python's complex() syntax with '.' as the decimal
    separator, less its 'j' suffix and its parentheses.  A non-finite
    value (nan, inf, or one that overflows binary64) is rejected."""
    s = "".join(text.split())
    try:
        if any(ch in "jJ()" for ch in s):
            raise ValueError("use 'i' for the imaginary unit, without parentheses")
        z = complex(s[:-1] + "j" if s.endswith("i") else s)
    except ValueError as exc:
        raise ValueError(f"malformed complex literal {text!r}") from exc
    if not cmath.isfinite(z):
        raise ValueError(f"complex literal must be finite, got {text!r}")
    return z


def _parse_point(text: str):
    try:
        arr = json.loads(text)
        if not (isinstance(arr, list) and len(arr) == 5):
            raise ValueError
        pt = tuple(complex(float(c[0]), float(c[1])) for c in arr)
    except (ValueError, TypeError, IndexError) as exc:
        raise ValueError(f"point must be a JSON array of five [re, im] pairs: {text!r}") from exc
    if not all(cmath.isfinite(c) for c in pt) or not any(pt):
        raise ValueError(f"point coordinates must be finite and not all zero: {text!r}")
    return pt


def _point_json(p) -> list:
    return [[c.real, c.imag] for c in p]


def _resolve_phi(args) -> complex:
    if args.tau is not None:
        tau = parse_complex(args.tau)
        if tau.imag <= 0:
            raise ValueError("tau must lie in the upper half-plane")
        try:
            return theta.phi_numeric(tau)
        except ArithmeticError as exc:
            raise ValueError(f"tau = {args.tau}: {exc}") from None
    return parse_complex(args.phi)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bianchiq",
        description="Verification kernel for the Bianchi quintic and the level-10 modular function fields.",
        epilog=f"The environment variable {ORDER_ENV} sets the default series order (30 when unset); flags always win.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="print a named q-expansion")
    p.set_defaults(run=_cmd_expand)
    p.add_argument("name", help="a series name; `bianchiq list` prints them")
    p.add_argument("--order", default=None, help="exponent bound (integer or fraction)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="run identity checks")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("names", nargs="*", help="check names (default: requires --all)")
    p.add_argument("--all", action="store_true", help="run the full registry")
    p.add_argument("--order", type=int, default=None, help="series order for exact checks")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("point", help="curve arithmetic over the complex numbers")
    p.set_defaults(run=_cmd_point)
    p.add_argument("op", choices=_POINT_ARITY)
    p.add_argument("points", nargs="*", help="points as JSON arrays of five [re, im] pairs")
    where = p.add_mutually_exclusive_group(required=True)
    where.add_argument("--tau", default=None, help="tau in the upper half-plane, e.g. 1.1i or 0.3+1.4i")
    where.add_argument("--phi", default=None, help="curve parameter as a complex literal")

    p = sub.add_parser("group", help="congruence-subgroup invariants")
    p.set_defaults(run=_cmd_group)
    p.add_argument("name", nargs="?", default=None,
                   help="e.g. Gamma(10), Gamma0(5), Gamma1(5), G1..G4")
    p.add_argument("--dot", action="store_true", help="emit the function-field lattice in DOT")
    p.add_argument("-N", type=int, default=10, help="working modulus (default 10)")

    sub.add_parser("list", help="print the catalogs of series, identities, and groups").set_defaults(run=_cmd_list)
    return ap


def _cmd_expand(args) -> int:
    try:
        order = Fraction(args.order) if args.order is not None else Fraction(_default_order())
    except ZeroDivisionError:
        raise ValueError(f"order has a zero denominator: {args.order!r}") from None
    try:
        series = modular.named_series(args.name, order)
    except modular.UnknownName:
        print(f"unknown series name {args.name!r}; known: {', '.join(modular.NAMES)}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(series.to_json()))
    else:
        for e, c in series.terms():
            print(f"{e}\t{c}")
    return 0


def _cmd_verify(args) -> int:
    if bool(args.names) == args.all:
        print("verify: give check names or --all, not both", file=sys.stderr)
        return 2
    cfg = identities.VerifyConfig(
        series_order=args.order if args.order is not None else _default_order(),
        tol=args.tol, samples=args.samples, seed=args.seed,
    )
    names = None if args.all else args.names
    try:
        report = identities.run_all(cfg, names)
    except identities.UnknownName as exc:
        print(f"unknown identity name: {exc}", file=sys.stderr)
        return 2
    if args.format == "text":
        print(report.to_text())
    else:
        print(json.dumps(report.to_json(with_elapsed=False)))
    print(f"elapsed {report.elapsed_ms:.0f} ms", file=sys.stderr)
    return 0 if report.all_passed() else 1


def _cmd_point(args) -> int:
    phi = _resolve_phi(args)
    try:
        return _point_op(args, phi)
    except (ZeroDivisionError, OverflowError) as exc:
        # a degenerate parameter (phi = 0: the quadrics need 1/phi) or one
        # whose powers leave binary64
        raise ValueError(f"{args.op} is undefined at phi = {phi}: {exc}") from None


def _point_op(args, phi) -> int:
    pts = [_parse_point(s) for s in args.points]
    op = args.op
    n = _POINT_ARITY[op]
    if len(pts) != n:
        raise ValueError(f"{op} takes {('no', 'one', 'two')[n]} point argument{'s' * (n != 1)}, got {len(pts)}")
    if op in ("add", "double"):
        for text, p in zip(args.points, pts):
            res = curve.max_quadric_residual(p, phi)
            if not res <= ON_CURVE_TOL:
                raise ValueError(f"point {text} is not on the curve: "
                                 f"residual {res:.3e} exceeds {ON_CURVE_TOL:g}")
        out = curve.normalize_numeric(curve.add(*pts) if op == "add" else curve.double(pts[0]))
        print(f"residual {curve.max_quadric_residual(out, phi):.3e}", file=sys.stderr)
        print(json.dumps(_point_json(out)))
    elif op == "neg":
        out = curve.normalize_numeric(curve.negate(pts[0]))
        print(json.dumps(_point_json(out)))
    elif op == "on-curve":
        res = [abs(r) for r in curve.quadric_residuals(pts[0], phi)]
        print(json.dumps({"residuals": res, "max_relative": curve.max_quadric_residual(pts[0], phi)}))
    else:
        torsion = curve.two_torsion_points if op == "two-torsion" else curve.five_torsion_points
        points = [curve.normalize_numeric(p) for p in torsion(phi)]
        print(json.dumps({
            "phi": [phi.real, phi.imag],
            "points": [_point_json(p) for p in points],
            "max_quadric_residuals": [curve.max_quadric_residual(p, phi) for p in points],
        }))
    return 0


# Containments reported alongside a group, as (inner, outer) pairs.
_GROUP_RELATIONS = {
    "G1": [("G1", "Gamma1(5)"), ("Gamma(10)", "G1"), ("G1", "G2"), ("G1", "Gamma1(10)")],
    "G2": [("G2", "Gamma1(5)"), ("G1", "G2")],
    "G3": [("G3", "Gamma(5)"), ("Gamma(10)", "G3")],
    "G4": [("G4", "Gamma(5)"), ("Gamma(10)", "G4")],
    "Gamma(10)": [("Gamma(10)", "Gamma(5)"), ("Gamma(10)", "G1")],
    "Gamma(5)": [("Gamma(5)", "Gamma1(5)")],
    "Gamma1(10)": [("Gamma1(10)", "Gamma1(5)"), ("Gamma1(10)", "Gamma0(10)")],
    "Gamma1(5)": [("Gamma1(5)", "Gamma0(5)")],
    "Gamma0(10)": [("Gamma0(10)", "Gamma0(5)")],
}


def _cmd_group(args) -> int:
    if args.dot and args.name is None:
        print(congruence.lattice_dot(args.N))
        return 0
    if args.name is None:
        print("group: give a group name or --dot", file=sys.stderr)
        return 2
    try:
        spec = congruence.get_spec(args.name)
    except congruence.UnknownGroup as exc:
        # str() of a KeyError is the repr of its message
        print(exc.args[0], file=sys.stderr)
        return 2
    gd = congruence.genus_data(spec, args.N)
    out = {
        "name": spec.name,
        "mu": gd.mu, "eps2": gd.eps2, "eps3": gd.eps3,
        "cusps": gd.cusps, "genus": gd.genus,
        "relations": [],
    }
    for inner, outer in _GROUP_RELATIONS.get(args.name, []):
        rep = congruence.subgroup_report(
            congruence.get_spec(inner), congruence.get_spec(outer), args.N
        )
        out["relations"].append(rep)
    print(json.dumps(out))
    if args.dot:
        print(congruence.lattice_dot(args.N))
    return 0


def _cmd_list(args) -> int:
    print("series:")
    for n in modular.NAMES:
        print(f"  {n}")
    print("identities:")
    for c in identities.registry():
        print(f"  {c.name:36s} [{c.kind}] {c.description}")
    print("groups:")
    for n in sorted(congruence.builtin_specs()):
        print(f"  {n}")
    return 0


def main(argv=None) -> int:
    ap = _build_parser()
    # argparse reads a separate value that starts with '-' (tau = -0.3+1.1i)
    # as an option, so `--tau X` and `--phi X`, or any abbreviation such as
    # `--ta X`, are passed on as `--tau=X`
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        flag = argv[i - 1]
        if len(flag) > 2 and ("--tau".startswith(flag) or "--phi".startswith(flag)):
            argv[i - 1:i + 1] = [f"{flag}={argv[i]}"]
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors and 0 for --help
        return int(exc.code or 0)
    try:
        return args.run(args)
    except curve.BothFormulasDegenerate as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`list | head -1`): the exit flush must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
