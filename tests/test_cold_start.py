"""Cold start: which layers each command executes, the lazy layers'
namespaces, and their first access from many threads at once.

The subprocess tests start a fresh interpreter, where no layer has executed
yet."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import bianchiq

CHILD_ENV = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))

LAYERS = ("exact", "theta", "modular", "curve", "identities", "congruence")

# Runs `bianchiq.cli.main(ARGS)`, then prints to stderr, as its last line,
# the executed layers and the hash modules loaded.
_CHILD = """
import json, sys
import bianchiq.cli
bianchiq.cli.main(sys.argv[1:])
sys.stdout.flush()
executed = [l for l in %r if f"bianchiq.{l}" not in bianchiq._unexecuted]
print(json.dumps([executed, [m for m in ("hashlib", "_hashlib") if m in sys.modules]]), file=sys.stderr)
""" % (LAYERS,)


def _child(*argv):
    r = subprocess.run([sys.executable, "-c", _CHILD, *argv], capture_output=True, text=True,
                       env=CHILD_ENV, timeout=120)
    assert r.stderr, r
    return json.loads(r.stderr.splitlines()[-1])


@pytest.mark.parametrize("argv,executed", [
    # the parser's `expand` help lists modular.NAMES, so every command
    # executes modular and the exact layer it imports
    (["group", "G1"], ["exact", "modular", "congruence"]),
    (["group", "--dot"], ["exact", "modular", "congruence"]),
    (["expand", "delta", "--order", "12"], ["exact", "modular"]),
    (["point", "two-torsion", "--tau", "1.1i"], ["exact", "theta", "modular", "curve"]),
    (["verify", "addition-eq11", "--samples", "2"], ["exact", "theta", "modular", "curve", "identities"]),
    (["list"], list(LAYERS)),
])
def test_each_command_executes_only_the_layers_it_uses(argv, executed):
    assert _child(*argv)[0] == executed


def test_numeric_checks_leave_openssl_unloaded():
    assert _child("verify", "addition-eq11", "--samples", "2")[1] == []


def test_import_executes_no_layer_but_registers_each():
    code = ("import sys, bianchiq\n"
            "print(all(sys.modules[f'bianchiq.{l}'] is getattr(bianchiq, l) for l in %r))\n"
            "print(len(bianchiq._unexecuted))\n" % (LAYERS,))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV, timeout=120)
    assert r.stdout.split() == ["True", "6"], r.stderr


def test_vars_of_an_unexecuted_layer_is_its_full_namespace():
    # the benchmark's tracer reads vars(sys.modules["bianchiq.<layer>"])
    code = ("import json, sys, bianchiq\n"
            "print(json.dumps({l: sorted(vars(sys.modules[f'bianchiq.{l}'])) for l in %r}))\n" % (LAYERS,))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV, timeout=120)
    assert r.returncode == 0, r.stderr
    cold = json.loads(r.stdout)
    for layer in LAYERS:
        assert cold[layer] == sorted(vars(getattr(bianchiq, layer))), layer


def test_a_layer_whose_run_is_interrupted_runs_again_at_the_next_access():
    code = ("import bianchiq\n"
            "loader = bianchiq._unexecuted['bianchiq.congruence'].loader\n"
            "run, runs = loader.exec_module, []\n"
            "def interrupted_once(module):\n"
            "    runs.append(module)\n"
            "    if len(runs) == 1:\n"
            "        raise KeyboardInterrupt\n"
            "    run(module)\n"
            "loader.exec_module = interrupted_once\n"
            "try:\n"
            "    bianchiq.congruence.enumerate_group\n"
            "except KeyboardInterrupt:\n"
            "    print('interrupted')\n"
            "print(len(bianchiq.congruence.enumerate_group(2)), len(runs))\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV, timeout=120)
    assert r.stdout.split() == ["interrupted", "6", "2"], r.stderr


def test_the_reexports_are_the_layers_own_objects():
    assert bianchiq.__all__ == [
        "PuiseuxSeries", "QPoly", "Report", "VerifyConfig", "named_series", "phi_numeric",
        "pochhammer_product", "run_all", "run_identity", "theta_k", "theta_vector", "__version__",
    ]
    for name, layer in bianchiq._EXPORTS.items():
        assert getattr(bianchiq, name) is getattr(getattr(bianchiq, layer), name)
    with pytest.raises(AttributeError):
        bianchiq.no_such_name


# Eight threads released at once make the first access to each layer in
# turn; curve comes first, so exact executes inside its run.  Prints the
# failures, one per line.
_RACE = """
import sys, threading
import bianchiq
sys.setswitchinterval(1e-6)
failures = []
for layer, attr in (("curve", "two_torsion_points"), ("modular", "NAMES"), ("theta", "theta_k"),
                    ("identities", "registry"), ("congruence", "enumerate_group")):
    module = getattr(bianchiq, layer)
    barrier = threading.Barrier(8)
    seen = []

    def first_access():
        barrier.wait()
        try:
            seen.append(getattr(module, attr))
        except Exception as exc:
            failures.append(f"{layer}: {exc!r}")

    threads = [threading.Thread(target=first_access) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    if any(t.is_alive() for t in threads) or len(seen) != 8 or len(set(map(id, seen))) != 1:
        failures.append(f"{layer}: {len(seen)} of 8 threads read it")
print("\\n".join(failures))
"""


@pytest.mark.parametrize("run", range(4))
def test_first_access_from_eight_threads_at_once(run):
    r = subprocess.run([sys.executable, "-c", _RACE], capture_output=True, text=True, env=CHILD_ENV,
                       timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == ""
