"""Record the digests of every cli-session output the generator can draw.

    PYTHONPATH=src python3 perfbench/make_expected.py

Run it from the repository root on the commit whose outputs are the known
answers; it rewrites ``perfbench/expected.json``.  The outputs are made in
one process: the package guarantees that a named series is the same
whatever its cache holds, and the benchmark checks that claim every time it
compares a cold `expand` against these digests.
"""

import contextlib
import io
import json
import os
import sys

from bianchiq import cli, identities, modular

import known
import ops as catalog


def stdout_of(argv: list) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"bianchiq {' '.join(argv)} exited {rc}")
    return buf.getvalue()


def expand_draws():
    yield catalog.EXPAND_HEAVY
    lo, hi = catalog.EXPAND_ORDERS
    for name in catalog.EXPAND_LIGHT:
        yield from ((name, o) for o in range(hi, lo - 1, -1))


def build_digests() -> dict:
    """Digest of each series an exact-deep pass builds, at the checks' order."""
    order = identities.SeriesEnv(identities.VerifyConfig(series_order=catalog.EXACT_ORDER)).order
    return {n: known.series_digest(modular.named_series(n, order)) for n in catalog.BUILD_NAMES}


def main():
    expected = {
        "build": build_digests(),
        "expand": {known.expand_key(n, o): known.digest(stdout_of(["expand", n, "--order", str(o)]))
                   for n, o in expand_draws()},
        "group": {g: known.digest(stdout_of(["group", g])) for g in catalog.GROUPS},
        "dot": known.digest(stdout_of(["group", "--dot"])),
        "list": known.digest(stdout_of(["list"])),
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), known.EXPECTED_FILE)
    with open(path, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(expected['expand'])} expand digests to {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
