"""bianchiq: exact and numeric verification kernel for the Bianchi elliptic
quintic, its 2- and 5-torsion, and the modular function fields of level 10.

The package has six layers:

* :mod:`bianchiq.exact` - rationals, polynomials over Q, truncated Puiseux
  series with per-series precision tracking;
* :mod:`bianchiq.theta` - binary64 evaluation of the level-5 theta family;
* :mod:`bianchiq.modular` - exact q-expansions of the named functions
  (phi, g1..g3, delta, j5, j10, j, eta);
* :mod:`bianchiq.curve` - the quintic in P^4: quadrics, group law, torsion,
  plane models, the Weierstrass transformation;
* :mod:`bianchiq.identities` - every named identity as an executable check;
* :mod:`bianchiq.congruence` - SL2(Z/N) images, indices, cusps, genus.

``import bianchiq`` registers the six layers without executing them, both in
``sys.modules`` and as attributes of the package, so a command pays only for
the layers it uses.  A layer executes at its first attribute access of any
kind, ``__dict__`` included (``vars(bianchiq.exact)`` sees the full
namespace), exactly once, under one re-entrant lock shared by all layers: a
thread that reaches a layer while another executes it waits, and a layer
executing may reach the next on the same thread.  The re-exports below
resolve through the module ``__getattr__``.
"""

import importlib.util
import sys
import threading
import types

__version__ = "0.1.0"

# each re-exported name and the layer that defines it
_EXPORTS = {
    "PuiseuxSeries": "exact", "QPoly": "exact", "Report": "identities", "VerifyConfig": "identities",
    "named_series": "modular", "phi_numeric": "theta", "pochhammer_product": "exact",
    "run_all": "identities", "run_identity": "identities", "theta_k": "theta", "theta_vector": "theta",
}
__all__ = [*_EXPORTS, "__version__"]

_lock = threading.RLock()
# the spec of every layer not yet executed, by module name
_unexecuted = {}


class _Layer(types.ModuleType):
    """A registered layer that has not executed yet."""

    def __getattribute__(self, attr):
        with _lock:
            name = types.ModuleType.__getattribute__(self, "__name__")
            spec = _unexecuted.pop(name, None)
            if spec is not None:
                try:
                    spec.loader.exec_module(self)
                except BaseException:
                    _unexecuted[name] = spec
                    raise
                # after it ran: a thread that saw a plain module before
                # then would have read a partial namespace
                self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, attr)


for _name in ("exact", "theta", "modular", "curve", "identities", "congruence"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _module = importlib.util.module_from_spec(_spec)
    _unexecuted[_spec.name] = _spec
    _module.__class__ = _Layer
    sys.modules[_spec.name] = globals()[_name] = _module
del _name, _spec, _module


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_EXPORTS[name]], name)
