"""The bianchiq benchmark.

    python3 perfbench/run.py --workload exact-deep --seed 1 --seconds 32 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
It is a closed loop with one client: one worker process at a time, each
started only after the previous one ended.  Every pass (and, in
``cli-session``, every CLI op) runs in a fresh process, because the package's
series cache lives only inside a process and a user's invocation starts cold.

Workloads (one pass is one op list from ``ops.generate``):

* ``exact-deep``: cold builds of the named series the checks read, then the
  26 exact checks at series order 60 plus four mutated re-runs, which must
  fail.  The exact layer does ~99% of the work.
* ``numeric-dense``: the 43 numeric checks at 200 samples, seeded by the
  workload seed.  The theta layer does almost all of it; no exact series
  is multiplied.
* ``cli-session``: `python -m bianchiq` subprocesses (verify --all, expand,
  group, group --dot, point, list), each starting cold.

Passes start while fewer than ``--seconds`` have elapsed.  This process and
its workers are pinned to one CPU.  Host speed is sampled by a fixed
pure-Python kernel (``calib.py``) between ops, and the gated times are
expressed in its units.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the first
pass untraced and the rest under the outside-in tracer (``tracer.py``) and
reports the per-layer metrics.  Every op is checked against a known answer
(``known.py``, ``worker.py``); a wrong answer is a failed op.  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it are the same figures for a reader.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import known  # noqa: E402
import ops as catalog  # noqa: E402
from worker import TRACE_PREFIX  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 7        # bare worker starts per run, on top of the pass workers
PROCESS_TIMEOUT = 100   # seconds before a hung worker is killed (its ops fail)
CLI_CALIB_REPEATS = 3   # kernel runs before each cli op


class Child:
    """One finished subprocess: exit code, output, wall time, peak RSS."""

    def __init__(self, argv, env, stdin_text=None, timeout=PROCESS_TIMEOUT):
        self.spawn_ts = time.perf_counter()
        argv = [a.replace("{spawn}", repr(self.spawn_ts)) for a in argv]
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, text=True,
                                stdin=subprocess.PIPE if stdin_text is not None else subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        err = []
        drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        drain.start()
        try:
            if stdin_text is not None:
                try:
                    proc.stdin.write(stdin_text)
                    proc.stdin.close()
                except BrokenPipeError:
                    pass  # the child died before reading its job; its exit code says why
            self.stdout = proc.stdout.read()
            drain.join()
            # wait4 reaps the child and gives its own peak RSS (KiB on Linux)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        self.wall_s = time.perf_counter() - self.spawn_ts
        self.returncode = proc.returncode
        self.stderr = err[0] if err else ""
        self.rss_mb = usage.ru_maxrss / 1024.0
        proc.stdout.close()
        proc.stderr.close()


class Run:
    """All passes of one benchmark run and what they measured."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.ops = catalog.generate(workload, seed)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        with open(os.path.join(HERE, known.EXPECTED_FILE)) as f:
            self.expected = json.load(f)
        self.setup_wall = []  # spawn-to-ready seconds of every worker start
        self.setup = []       # the same at the reference host speed
        self.rss = []         # peak RSS of every worker, MiB
        self.op_s = []        # latency of every op, seconds
        self.op_cu = []       # the same in calibration units
        self.calib_s = []     # every run of the calibration kernel, seconds
        self.passes = []      # dicts: pass_s, pass_cu, wall_s, traced, layers
        self.attempted = 0
        self.failures = []

    # -- workers --------------------------------------------------------------

    def _worker(self, ops, pass_id, traced) -> dict:
        job = json.dumps({"ops": ops, "seed": self.seed, "pass_id": pass_id, "trace": traced})
        child = Child([sys.executable, WORKER, "pass", "{spawn}"], self.env, job)
        self.rss.append(child.rss_mb)
        try:
            out = json.loads(child.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            last = (child.stderr.strip().splitlines() or ["no output"])[-1]
            out = {"error": f"worker exited {child.returncode}: {last}"}
        out["wall_s"] = child.wall_s
        if "setup_s" in out:
            self.setup_wall.append(out["setup_s"])
            self.setup.append(out["setup_s"] * calib.REFERENCE_S / out["setup_calib_s"])
        return out

    def _check_pass(self, pass_id, traced) -> dict:
        out = self._worker(self.ops, pass_id, traced)
        results = out.get("ops") or []
        self.attempted += len(self.ops)
        missing = len(self.ops) - len(results)
        if out.get("error") or missing:
            reason = out.get("error") or "worker output incomplete"
            self.failures.extend([f"pass {pass_id}: {reason}"] * max(missing, 1))
        for op, res in zip(self.ops, results):
            self.op_s.append(res["s"])
            self.op_cu.append(res["cu"])
            want = op["expect"] if "check" in op else self.expected["build"][op["build"]]
            if res["status"] != want:
                what = f"build {op['build']}" if "build" in op else (
                    f"mutant of {op['check']}" if op["mutate"] else op["check"])
                self.failures.append(f"{what}: {res['status']}, want {want}")
        self.calib_s.extend(out.get("calib_s", []))
        return {"pass_s": sum(r["s"] for r in results), "pass_cu": sum(r["cu"] for r in results),
                "wall_s": out["wall_s"], "layers": _layers(out["trace"]) if out.get("trace") else None}

    def _cli_pass(self, pass_id, traced) -> dict:
        pass_s, layers = 0.0, _empty_cli_layers() if traced else None
        for op in self.ops:
            argv = op["argv"]
            cmd = ([sys.executable, WORKER, "cli", str(pass_id)] if traced
                   else [sys.executable, "-m", "bianchiq"]) + argv
            self.calib_s.extend(calib.time_kernel() for _ in range(CLI_CALIB_REPEATS))
            child = Child(cmd, self.env)
            self.rss.append(child.rss_mb)
            self.op_s.append(child.wall_s)
            pass_s += child.wall_s
            self.attempted += 1
            problem = known.check(argv, child.returncode, child.stdout, self.expected)
            if problem:
                self.failures.append(f"bianchiq {' '.join(argv)}: {problem}")
            if traced:
                _add_cli_op(layers, child)
        return {"pass_s": pass_s, "wall_s": pass_s, "layers": layers and _cli_layers(layers)}

    def execute(self):
        # The first start compiles the package's bytecode; it is not timed.
        Child([sys.executable, "-c", "import bianchiq.cli, bianchiq.identities"], self.env)
        for _ in range(SETUP_PROBES):
            self._worker([], -1, False)
        run_pass = self._cli_pass if self.workload == "cli-session" else self._check_pass
        start = time.perf_counter()
        while time.perf_counter() - start < self.seconds or (self.trace and len(self.passes) < 2):
            pass_id = len(self.passes)
            traced = self.trace and pass_id > 0
            rec = run_pass(pass_id, traced)
            rec["traced"] = traced
            self.passes.append(rec)
        if self.workload == "cli-session":
            # Kernel samples taken between cold processes scatter on their
            # own, so a session is expressed in the run's median sample.
            unit = statistics.median(self.calib_s)
            self.op_cu = [s / unit for s in self.op_s]
            for p in self.passes:
                p["pass_cu"] = p["pass_s"] / unit

    # -- results --------------------------------------------------------------

    def end_to_end(self) -> dict:
        """The gated metrics.  Op and pass times are in calibration units
        (cu), see ``calib.py``; a pass's time is the sum of its ops' times.
        Set-up time is in seconds at the reference host speed: each worker
        times the kernel right after it is ready."""
        return {
            "setup_s": (statistics.median(self.setup), "s"),
            "verdict_cu": (statistics.median(p["pass_cu"] for p in self.passes), "cu"),
            "op_cu_p90": (_p90(self.op_cu), "cu"),
            "peak_rss_mb": (max(self.rss), "MiB"),
        }

    def ungated(self) -> dict:
        """Figures printed for a reader but too unsteady on a shared host to
        gate on: wall times, and the median op in calibration units, which
        in cli-session is a cold start the kernel does not track."""
        return {
            "op_cu_p50": (statistics.median(self.op_cu), "cu"),
            "setup_wall_s": (statistics.median(self.setup_wall), "s"),
            "verdict_s": (statistics.median(p["pass_s"] for p in self.passes), "s"),
            "op_ms_p50": (1000 * statistics.median(self.op_s), "ms"),
            "op_ms_p90": (1000 * _p90(self.op_s), "ms"),
            "ops_per_s": (len(self.op_s) / sum(p["wall_s"] for p in self.passes), "1/s"),
            "fail_ratio": (len(self.failures) / self.attempted, "ratio"),
        }

    def per_layer(self) -> dict:
        traced = [p for p in self.passes if p["traced"]]
        untraced = [p["pass_cu"] for p in self.passes if not p["traced"]]
        out = {name: (statistics.median(p["layers"][name] for p in traced), unit)
               for name, unit in layer_units().items()}
        out["host.calib_ms"] = (1000 * statistics.median(self.calib_s), "ms")
        out["trace.overhead_ratio"] = (
            statistics.median(p["pass_cu"] for p in traced) / statistics.median(untraced), "ratio")
        return out


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# -- per-layer metrics ----------------------------------------------------------

def layer_units() -> dict:
    """Every per-layer metric the traced passes give, with its unit."""
    units = {}
    for spec in LAYER_METRICS:
        name = spec[0]
        units[name] = "count" if name.endswith((".calls", ".slot_products", ".builds")) else (
            "ratio" if name.endswith(("_share", "_ratio")) else "1/s" if name.endswith("_per_s") else "s")
    for check in catalog.ALL_CHECKS:
        units[f"check.{check}_s"] = "s"
    return units


def _calls(name):
    return lambda t: t["names"].get(name, {}).get("calls", 0)


def _self(name):
    return lambda t: t["names"].get(name, {}).get("self_s", 0.0)


def _incl(name):
    return lambda t: t["names"].get(name, {}).get("incl_s", 0.0)


def _layer_self(prefix):
    return lambda t: sum(v["self_s"] for k, v in t["names"].items() if k.startswith(prefix))


def _kind_s(checks):
    return lambda t: sum(t["checks"].get(c, 0.0) for c in checks)


def _ratio(num, den):
    return lambda t: num(t) / den(t) if den(t) else 0.0


def _hit_ratio(t):
    # a named_series call that reached a public builder missed the cache
    calls = _calls("modular.named_series")(t)
    return 1 - t["named_series_misses"] / calls if calls else 0.0


LAYER_METRICS = (
    ("exact.mul.calls", _calls("exact.mul")),
    ("exact.mul.self_s", _self("exact.mul")),
    ("exact.mul.slot_products", lambda t: t["counts"].get("mul_slot_products", 0)),
    ("exact.mul.nonzero_share", _ratio(lambda t: t["counts"].get("mul_nonzero", 0),
                                       lambda t: t["counts"].get("mul_slots", 0))),
    ("exact.inverse.calls", _calls("exact.inverse")),
    ("exact.inverse.self_s", _self("exact.inverse")),
    ("exact.inverse.slot_products", lambda t: t["counts"].get("inverse_slot_products", 0)),
    ("exact.add.calls", _calls("exact.add")),
    ("exact.add.self_s", _self("exact.add")),
    ("exact.pochhammer.calls", _calls("exact.pochhammer_product")),
    ("exact.pochhammer.self_s", _self("exact.pochhammer_product")),
    ("exact.self_s", _layer_self("exact.")),
    ("modular.named_series.calls", _calls("modular.named_series")),
    ("modular.named_series.hit_ratio", _hit_ratio),
    ("modular.builds", lambda t: t["named_series_misses"]),
    ("modular.phi_series.calls", _calls("modular.phi_series")),
    ("modular.build_s", lambda t: t["named_series_miss_s"]),
    ("modular.self_s", _layer_self("modular.")),
    ("theta.theta_char.calls", _calls("theta.theta_char")),
    ("theta.theta_char.self_s", _self("theta.theta_char")),
    ("theta.theta_k.calls", _calls("theta.theta_k")),
    ("theta.theta_k.self_s", _self("theta.theta_k")),
    ("theta.evals_per_s", _ratio(_calls("theta.theta_char"), _incl("theta.theta_char"))),
    ("theta.self_s", _layer_self("theta.")),
    ("curve.add.calls", _calls("curve.add")),
    ("curve.add.self_s", _self("curve.add")),
    ("curve.plane_model_residual.calls", _calls("curve.plane_model_residual")),
    ("curve.plane_model_residual.self_s", _self("curve.plane_model_residual")),
    ("curve.max_quadric_residual.self_s", _self("curve.max_quadric_residual")),
    ("curve.weierstrass_map.self_s", _self("curve.weierstrass_map")),
    ("curve.cubic_roots.self_s", _self("curve.cubic_roots")),
    ("curve.self_s", _layer_self("curve.")),
    ("identities.run_identity.calls", _calls("identities.run_identity")),
    ("identities.registry.calls", _calls("identities.registry")),
    ("identities.exact_series_s", _kind_s(catalog.EXACT_SERIES_CHECKS)),
    ("identities.exact_poly_s", _kind_s(catalog.EXACT_POLY_CHECKS)),
    ("identities.numeric_s", _kind_s(catalog.NUMERIC_CHECKS)),
    ("identities.self_s", _layer_self("identities.")),
    ("congruence.enumerate_group.calls", _calls("congruence.enumerate_group")),
    ("congruence.image_of.calls", _calls("congruence.image_of")),
    ("congruence.image_of.self_s", _self("congruence.image_of")),
    ("congruence.genus_data.self_s", _self("congruence.genus_data")),
    ("congruence.subgroup_report.self_s", _self("congruence.subgroup_report")),
    ("congruence.lattice_s", _incl("congruence.lattice")),
    ("congruence.self_s", _layer_self("congruence.")),
    ("cli.main_s", lambda t: t["cli"]["main_s"]),
    ("cli.startup_s", lambda t: t["cli"]["startup_s"]),
    ("cli.import_s", lambda t: t["cli"]["import_s"]),
    ("cli.import_numpy_s", lambda t: t["cli"]["import_numpy_s"]),
)


def _layers(trace: dict) -> dict:
    """Per-layer metrics of one traced pass from its tracer summary."""
    trace.setdefault("cli", {"main_s": 0.0, "startup_s": 0.0, "import_s": 0.0, "import_numpy_s": 0.0})
    out = {name: fn(trace) for name, fn in LAYER_METRICS}
    for check in catalog.ALL_CHECKS:
        out[f"check.{check}_s"] = trace["checks"].get(check, 0.0)
    return out


def _empty_cli_layers() -> dict:
    return {"names": {}, "checks": {}, "counts": {}, "named_series_misses": 0,
            "named_series_miss_s": 0.0, "main_s": 0.0, "startup_s": 0.0,
            "import_s": [], "import_numpy_s": []}


def _add_cli_op(acc: dict, child: Child):
    """Fold one traced CLI op's summary into its session's totals."""
    line = next((l for l in reversed(child.stderr.splitlines()) if l.startswith(TRACE_PREFIX)), None)
    if line is None:
        return
    info = json.loads(line[len(TRACE_PREFIX):])
    trace = info["trace"]
    for name, row in trace["names"].items():
        tot = acc["names"].setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for k in tot:
            tot[k] += row[k]
    for key in ("checks", "counts"):
        for k, v in trace[key].items():
            acc[key][k] = acc[key].get(k, 0) + v
    acc["named_series_misses"] += trace["named_series_misses"]
    acc["named_series_miss_s"] += trace["named_series_miss_s"]
    acc["main_s"] += info["main_s"]
    acc["startup_s"] += child.wall_s - info["main_s"]
    acc["import_s"].append(info["import_s"])
    acc["import_numpy_s"].append(info["import_numpy_s"])


def _cli_layers(acc: dict) -> dict:
    """Session totals of main and start-up time; per-op medians of import."""
    acc["cli"] = {"main_s": acc["main_s"], "startup_s": acc["startup_s"],
                  "import_s": statistics.median(acc["import_s"] or [0.0]),
                  "import_numpy_s": statistics.median(acc["import_numpy_s"] or [0.0])}
    return _layers(acc)


# -- entry point ----------------------------------------------------------------

def host_line() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"host: python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"cpu {platform.processor() or platform.machine()}, load {load}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=catalog.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Let a SIGTERM unwind through Child, which kills the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # This process and its workers share one CPU, so the calibration kernel
    # measures the CPU the work ran on; the workers inherit the mask.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(SRC, "bianchiq", "__init__.py")):
        print(f"perfbench: no bianchiq package under {SRC}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(host_line())
    print(f"workload {args.workload}, seed {args.seed}, op list {catalog.op_hash(run.ops)} "
          f"({len(run.ops)} ops per pass), trace {args.trace}")
    run.execute()
    if not run.op_s:
        print(f"perfbench: no op finished; first failure: {run.failures[0]}", file=sys.stderr)
        return 1
    metrics = run.per_layer() if args.trace else run.end_to_end()
    failed = len(run.failures)
    print(f"{len(run.passes)} passes, {run.attempted} ops, {len(run.setup)} worker starts")
    for name, (value, unit) in {**metrics, **run.ungated()}.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    for problem in run.failures[:20]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
