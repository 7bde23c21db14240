"""Outside-in tracer for the traced run.

It replaces the public callables of each bianchiq layer with wrappers that
record a span (name, start, end, parent, pass id) and, for the exact kernel,
the work counts.  Nothing inside the package changes; the wrappers are
installed from the benchmark's own files, in the worker or the cli launcher,
after the package is imported and before any op runs.  Spans stay in memory
and are folded into per-name totals by ``summary`` when the process ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

LAYERS = ("exact", "modular", "theta", "curve", "identities", "congruence")

# Leaf helpers called once per matrix product or element: wrapping them
# would multiply the traced run's cost, and their time lands in the self
# time of their congruence callers anyway.
SKIP = {"congruence": {"mat_mul", "mat_neg"}}

BUILDERS = ("modular.phi_series", "modular.eta_series", "modular.gi_series",
            "modular.delta_series", "modular.eta_quotient_series", "modular.j_series")

# Methods of the exact classes, by the span name they record.  The
# reflected dunders are separate class attributes, so they are wrapped
# separately under the same name as the forward ones.
_SERIES_METHODS = {
    "__mul__": "mul", "__rmul__": "mul", "__add__": "add", "__radd__": "add",
    "__sub__": "sub", "__rsub__": "sub", "__neg__": "neg",
    "__truediv__": "truediv", "__rtruediv__": "truediv", "__pow__": "pow",
    "inverse": "inverse", "truncate": "truncate", "reduce_ram": "reduce_ram",
    "subst_q_power": "subst_q_power", "agrees_with": "agrees_with",
    "coefficient": "coefficient", "monomial": "monomial", "from_terms": "from_terms",
    "one": "one", "zero": "zero",
}
_QPOLY_METHODS = {
    "__mul__": "qpoly_mul", "__rmul__": "qpoly_mul", "__add__": "qpoly_add",
    "__radd__": "qpoly_add", "__sub__": "qpoly_sub", "__rsub__": "qpoly_sub",
    "__neg__": "qpoly_neg", "__pow__": "qpoly_pow", "__truediv__": "qpoly_truediv",
    "__call__": "qpoly_call", "in_power": "qpoly_in_power", "from_terms": "qpoly_from_terms",
}


def mul_slot_products(a, b) -> tuple[int, int, int]:
    """(slot products, nonzero operand coefficients, operand slots) of the
    dense convolution a*b, on the operands' common ramification grid."""
    ram = math.lcm(a.ram, b.ram)
    ma, mb = ram // a.ram, ram // b.ram
    na, nb = (a.trunc - a.lo) * ma, (b.trunc - b.lo) * mb
    nonzero = sum(1 for c in a.coeffs if c) + sum(1 for c in b.coeffs if c)
    if not a.coeffs or not b.coeffs:
        return 0, nonzero, na + nb
    n = min(a.trunc * ma + b.lo * mb, b.trunc * mb + a.lo * ma) - (a.lo * ma + b.lo * mb)
    # row i of a meets min(nb, n - i) slots of b, and none once i >= n
    full = max(0, min(na, n - nb + 1))
    end = max(full, min(na, n))
    partial = (2 * n - full - end + 1) * (end - full) // 2
    return full * nb + partial, nonzero, na + nb


class Tracer:
    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans: list = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name, fn, detail=None, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(self, args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.pass_id,
                              detail(args) if detail else None)

        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every layer's public functions and the exact classes."""
        import bianchiq
        from bianchiq import exact

        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[f"bianchiq.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in SKIP.get(layer, ())):
                    detail = (lambda args: args[0]) if attr == "run_identity" else None
                    replaced[obj] = self.wrap(f"{layer}.{attr}", obj, detail=detail)
        # Names bound by import elsewhere (modular.pochhammer_product, the
        # package's re-exports) must see the wrapper too.
        for mod in [bianchiq] + [sys.modules[f"bianchiq.{l}"] for l in LAYERS]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
        self._wrap_class(exact.PuiseuxSeries, _SERIES_METHODS)
        self._wrap_class(exact.QPoly, _QPOLY_METHODS)

    def _wrap_class(self, cls, methods):
        for attr, short in methods.items():
            obj = vars(cls)[attr]
            name = "exact." + short
            if isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, obj.__func__)))
            else:
                setattr(cls, attr, self.wrap(name, obj, count=_COUNTERS.get(name)))

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds; per-check inclusive
        seconds; named_series misses; and the exact-kernel counts."""
        spans = self.spans
        child = [0.0] * len(spans)
        builder_below = [False] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
                if name in BUILDERS:
                    builder_below[parent] = True
        names: dict[str, list] = {}
        checks: dict[str, float] = defaultdict(float)
        misses, miss_s = 0, 0.0
        for i, (name, t0, t1, _, _, detail) in enumerate(spans):
            row = names.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[i]
            if detail is not None:
                checks[detail] += t1 - t0
            if name == "modular.named_series" and builder_below[i]:
                misses += 1
                miss_s += t1 - t0
        return {
            "spans": len(spans),
            "names": {k: {"calls": c, "incl_s": inc, "self_s": s} for k, (c, inc, s) in names.items()},
            "checks": dict(checks),
            "named_series_misses": misses,
            "named_series_miss_s": miss_s,
            "counts": dict(self.counts),
        }


def _count_mul(tracer, args):
    a, b = args
    if type(b) is type(a):
        products, nonzero, slots = mul_slot_products(a, b)
        tracer.counts["mul_slot_products"] += products
        tracer.counts["mul_nonzero"] += nonzero
        tracer.counts["mul_slots"] += slots


def _count_inverse(tracer, args):
    n = args[0].trunc - args[0].lo
    tracer.counts["inverse_slot_products"] += n * (n - 1) // 2


_COUNTERS = {"exact.mul": _count_mul, "exact.inverse": _count_inverse}
