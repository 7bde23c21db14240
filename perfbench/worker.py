"""Worker process of the benchmark; every pass or traced cli op is one.

    python3 perfbench/worker.py pass SPAWN_TS < job.json
    python3 perfbench/worker.py cli PASS_ID ARG...

``pass`` imports bianchiq, builds the registry and the subgroup catalog (the
set-up a user pays), then runs the job's ops (checks and series builds)
and prints one JSON object.
``cli`` is the traced launcher of the cli session: it installs the tracer,
calls ``bianchiq.cli.main(ARG...)`` and appends its trace to stderr as the
line ``PERFBENCH-TRACE <json>``; stdout stays the CLI's own.

SPAWN_TS is the parent's ``time.perf_counter()`` just before the spawn.  On
Linux that clock is CLOCK_MONOTONIC, shared by all processes, so the worker
can report its spawn-to-ready time itself.
"""

import sys
import time

TRACE_PREFIX = "PERFBENCH-TRACE "

# The host-speed kernel runs between ops, once at least this many seconds
# of ops have run since it last did; each op is then also expressed in
# units of the mean of the kernel times on either side of it (``cu``).
SEGMENT_S = 0.5


def run_pass(spawn_ts: float) -> int:
    from bianchiq import congruence, identities, modular

    identities.registry()
    congruence.builtin_specs()
    ready = time.perf_counter()

    import json

    import known
    import ops as catalog
    from calib import time_kernel

    out = {"setup_s": ready - spawn_ts, "setup_calib_s": time_kernel(),
           "ops": [], "calib_s": [], "trace": None, "error": None}
    job = json.load(sys.stdin)
    kinds = {c.name: c.kind for c in identities.registry()}
    pinned = {**{n: "exact_series" for n in catalog.EXACT_SERIES_CHECKS},
              **{n: "exact_poly" for n in catalog.EXACT_POLY_CHECKS},
              **{n: "numeric" for n in catalog.NUMERIC_CHECKS}}
    if kinds != pinned:
        out["error"] = "the package's check registry differs from the benchmark's pinned list"
        print(json.dumps(out))
        return 0
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer(job["pass_id"])
        tracer.install()
    cfg = identities.VerifyConfig(series_order=catalog.EXACT_ORDER,
                                  samples=catalog.NUMERIC_SAMPLES, seed=job["seed"])
    build_order = identities.SeriesEnv(cfg).order
    segment = []
    out["calib_s"] = [time_kernel()]
    for i, op in enumerate(job["ops"]):
        t0 = time.perf_counter()
        try:
            if "build" in op:
                status = known.series_digest(modular.named_series(op["build"], build_order))
            else:
                status = identities.run_identity(op["check"], cfg, mutate=op["mutate"]).status
        except Exception as exc:  # a crash is a failed op: report it, run the rest
            status = f"error: {type(exc).__name__}: {exc}"
        rec = {"status": status, "s": time.perf_counter() - t0}
        out["ops"].append(rec)
        segment.append(rec)
        if sum(r["s"] for r in segment) >= SEGMENT_S or i == len(job["ops"]) - 1:
            out["calib_s"].append(time_kernel())
            unit = (out["calib_s"][-2] + out["calib_s"][-1]) / 2
            for r in segment:
                r["cu"] = r["s"] / unit
            segment = []
    if tracer is not None:
        out["trace"] = tracer.summary()
    print(json.dumps(out))
    return 0


def run_cli(pass_id: int, argv: list) -> int:
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed on its own: the package's only dependency)

    t1 = time.perf_counter()
    import bianchiq.cli

    t2 = time.perf_counter()
    import json

    from tracer import Tracer

    tracer = Tracer(pass_id)
    tracer.install()
    t3 = time.perf_counter()
    try:
        rc = bianchiq.cli.main(argv)
    finally:
        main_s = time.perf_counter() - t3
        sys.stdout.flush()
        info = {"main_s": main_s, "import_s": t2 - t0, "import_numpy_s": t1 - t0,
                "trace": tracer.summary()}
        print(TRACE_PREFIX + json.dumps(info), file=sys.stderr)
    return rc


if __name__ == "__main__":
    if sys.argv[1] == "pass":
        sys.exit(run_pass(float(sys.argv[2])))
    sys.exit(run_cli(int(sys.argv[2]), sys.argv[3:]))
