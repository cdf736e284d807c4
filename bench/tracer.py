"""Per-layer tracing from outside the program.

``install`` replaces each public function named in ``TARGETS`` by a wrapper
at every ``multishift`` module (or class) that binds it, so calls made
through ``from .shift_core import least_word`` are seen too.  The wrappers
keep an in-memory stack to split each call's time into self time and the
time spent in other wrapped functions, aggregate calls and self time per
function, and roll self time up per layer (module) for the op running at
the time.  Nothing is written until ``Tracer.dump``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (module, attribute path) of every traced function
TARGETS = (
    ("shift_core", "partial_extendable"),
    ("shift_core", "build_graph"),
    ("shift_core", "least_word"),
    ("shift_core", "decide"),
    ("shift_core", "mixing_gap_index"),
    ("lambda_arith", "decompose"),
    ("mult_shift", "Pattern.fibers"),
    ("mult_shift", "inadmissible_classes"),
    ("mult_shift", "multiplier_constraints"),
    ("mult_shift", "assemble"),
    ("oracle", "campaign"),
    ("oracle", "probe_directional_q"),
    ("oracle", "probe_transitive_X"),
    ("oracle", "verify_certificate"),
    ("witness", "try_certificate"),
    ("witness", "witness_transitive"),
    ("witness", "witness_directional_power"),
    ("witness", "witness_mixing"),
    ("witness", "certificate_to_dict"),
    ("witness", "certificate_from_dict"),
    ("cli", "main"),
)
VERDICTS = ("witnessed", "proved_negative", "inconclusive_negative")


def metric_names():
    """Every per-layer metric a traced run reports, with its unit and better direction."""
    out = []
    for mod, attr in TARGETS:
        out.append((f"{mod}.{attr}.calls", "count", "lower"))
        out.append((f"{mod}.{attr}.self_s", "s", "lower"))
    out.append(("shift_core.partial_extendable.distinct", "count", "lower"))
    out += [(f"oracle.probe_directional_q.{v}", "count", "lower" if v.startswith("inconclusive") else "higher")
            for v in VERDICTS]
    out.append(("witness.try_certificate.prefix_symbols", "count", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    return out


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.extra = {"shift_core.partial_extendable.distinct": 0,
                      "witness.try_certificate.prefix_symbols": 0}
        self.extra.update({f"oracle.probe_directional_q.{v}": 0 for v in VERDICTS})
        self.stack = [0.0]
        self.pins_seen = set()
        self.graphs_seen = set()
        self.op_layers = {}
        self.spans = []

    def install(self):
        for mod, _ in TARGETS:
            importlib.import_module(f"multishift.{mod}")
        modules = [m for name, m in sys.modules.items() if name == "multishift" or name.startswith("multishift.")]
        for mod, attr in TARGETS:
            owner = sys.modules[f"multishift.{mod}"]
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
            wrapper = self._wrap(f"{mod}.{attr}", mod, original)
            setattr(owner, name, wrapper)
            if not path:
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)

    def _wrap(self, key, layer, fn):
        self.calls[key] = 0
        self.self_s[key] = 0.0
        stack, calls, self_s, op_layers = self.stack, self.calls, self.self_s, self.op_layers
        perf = time.perf_counter
        extra = self.extra
        pins_seen = self.pins_seen

        def finish(t0):
            dt = perf() - t0
            inner = stack.pop()
            stack[-1] += dt
            calls[key] += 1
            own = dt - inner
            self_s[key] += own
            op_layers[layer] = op_layers.get(layer, 0.0) + own

        if key == "shift_core.partial_extendable":
            def wrapper(spec, constraints):
                constraints = tuple(constraints)
                pins = (spec, frozenset(constraints))
                if pins not in pins_seen:
                    pins_seen.add(pins)
                    extra["shift_core.partial_extendable.distinct"] += 1
                stack.append(0.0)
                t0 = perf()
                try:
                    return fn(spec, constraints)
                finally:
                    finish(t0)
        elif key in ("oracle.probe_directional_q", "witness.try_certificate"):
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = perf()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    finish(t0)
                if key == "oracle.probe_directional_q":
                    extra[f"oracle.probe_directional_q.{out.status}"] += 1
                elif out is not None:
                    extra["witness.try_certificate.prefix_symbols"] += len(out.prefix)
                return out
        else:
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    finish(t0)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def first_sight(self, spec):
        """Build the window graph of a finite-type spec the round has not seen, as its first call."""
        from multishift import shift_core

        if isinstance(spec, shift_core.SftSpec) and spec not in self.graphs_seen:
            self.graphs_seen.add(spec)
            shift_core.build_graph(spec)

    def begin_op(self):
        self.op_layers.clear()

    def end_op(self, name, start, end):
        self.spans.append({"op": name, "start": start, "end": end,
                           "self_s": {k: round(v, 9) for k, v in sorted(self.op_layers.items())}})

    def metrics(self):
        out = {}
        for key in self.calls:
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.self_s"] = self.self_s[key]
        out.update(self.extra)
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"totals": self.metrics()}) + "\n")
