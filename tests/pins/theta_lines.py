"""Print the lines that THETA_DIGESTS hashes, one per call of pinned_calls.

    PYTHONPATH=src python tests/pins/theta_lines.py [SEED] > lines.txt
    PYTHONPATH=src python tests/pins/theta_lines.py [SEED] --digests

SEED defaults to 23.  Run it in two checkouts and diff the outputs to see
which theta results a change moved.  With --digests it prints instead the
whole digest and the block digests, as tests/test_theta.py records them.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import test_theta  # noqa: E402


def main(argv: list) -> None:
    seeds = [arg for arg in argv if arg != "--digests"]
    seed = int(seeds[0]) if seeds else 23
    lines = [test_theta.pinned_line(fn, *args, **kwargs) for fn, args, kwargs in test_theta.pinned_calls(seed)]
    if "--digests" in argv:
        whole, blocks = test_theta.theta_digests(lines)
        print(whole)
        print("\n".join(blocks))
    else:
        print("\n".join(lines))


if __name__ == "__main__":
    main(sys.argv[1:])
