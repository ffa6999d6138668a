"""Spans around waylab's public functions, recorded from outside the package.

A :class:`Tracer` wraps each function listed in :data:`WRAPPED` and rebinds the
wrapper wherever a ``waylab.*`` module namespace, a module-level dict (such as
``cli._BUILDERS``) or a class holds the original object, so that calls made
inside the package are recorded too.  Nothing under ``src/`` changes;
:meth:`Tracer.uninstall` puts every original back.

Spans are kept in memory as ``[name, start, end, parent, op_id, error]`` lists
and turned into per-function totals (calls, self time, errors) and the size
counts of :data:`SIZES` when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time

# (metric key, module, attribute path) of every wrapped function.  Several
# attributes may share one key; their spans are summed under it.
WRAPPED = (
    ("graded.g_twirl", "waylab.graded", "g_twirl"),
    ("graded.tensor", "waylab.graded", "tensor"),
    ("graded.states", "waylab.graded", "coherent_state"),
    ("graded.states", "waylab.graded", "uniform_state"),
    ("graded.states", "waylab.graded", "opt_phase_state"),
    ("convert.deterministic_convertible", "waylab.convert", "deterministic_convertible"),
    ("convert.compare", "waylab.convert", "compare"),
    ("discrimination.raynal_reduce", "waylab.discrimination", "raynal_reduce"),
    ("discrimination.ud_two_states", "waylab.discrimination", "ud_two_states"),
    ("discrimination.mle_two_states", "waylab.discrimination", "mle_two_states"),
    ("discrimination.discriminate", "waylab.discrimination", "discriminate"),
    ("discrimination.perfect_discrimination_possible", "waylab.discrimination",
     "perfect_discrimination_possible"),
    ("models.twirled_pair_ensemble", "waylab.models", "twirled_pair_ensemble"),
    ("models.closed_form", "waylab.models", "uniform_ud_success"),
    ("models.closed_form", "waylab.models", "uniform_mle_success"),
    ("models.closed_form", "waylab.models", "coherent_ud_success"),
    ("models.closed_form", "waylab.models", "coherent_ud_success_smooth"),
    ("models.closed_form", "waylab.models", "coherent_mle_success"),
    ("models.closed_form", "waylab.models", "opt_phase_mle_success"),
    ("models.way_feasibility", "waylab.models", "way_feasibility"),
    ("models.ozawa_bound", "waylab.models", "ozawa_bound"),
    ("circuits.composite_of", "waylab.circuits", "CompositeSpace.of"),
    ("circuits.build", "waylab.circuits", "build_ud_unitary"),
    ("circuits.build", "waylab.circuits", "build_mle_unitary"),
    ("circuits.build", "waylab.circuits", "build_repeatable_variant"),
    ("circuits.check", "waylab.circuits", "ConservingUnitary.__post_init__"),
    ("circuits.verify_conservation", "waylab.circuits", "verify_conservation"),
    ("circuits.verify_yanase", "waylab.circuits", "verify_yanase"),
    ("circuits.simulate_measurement", "waylab.circuits", "simulate_measurement"),
    ("circuits.noise", "waylab.circuits", "MeasurementModel.noise"),
    ("circuits.noise_bound", "waylab.circuits", "MeasurementModel.noise_bound"),
    ("serialize.dumps", "waylab.serialize", "dumps"),
    ("cli.main", "waylab.cli", "main"),
)

FUNCTIONS = tuple(dict.fromkeys(key for key, _, _ in WRAPPED))
LAYERS = tuple(dict.fromkeys(key.split(".")[0] for key in FUNCTIONS))


def _lp_vars(args, kwargs, result):
    p, q = args[0], args[1]
    shifts = (p.max_charge() - q.min_charge()) - (p.min_charge() - q.max_charge()) + 1
    lo = min(p.min_charge(), p.min_charge() - q.max_charge() + q.min_charge())
    hi = max(p.max_charge(), p.max_charge() - q.min_charge() + q.max_charge())
    return shifts + (hi - lo + 1)


def _dense_bytes(args, kwargs, result):
    d = args[0].space.total_dim
    return 16 * d * d


# Size counts, computed from a call's inputs (or, where named so, its output):
# metric name -> (function key, how to count one call, combine: "sum" or "max").
SIZES = {
    "graded.g_twirl.dim_sum": ("graded.g_twirl", lambda a, k, r: a[1].total_dim, "sum"),
    "graded.g_twirl.dense_bytes": ("graded.g_twirl", lambda a, k, r: a[0].nbytes, "sum"),
    "graded.tensor.dim_sum": ("graded.tensor",
                              lambda a, k, r: a[0].total_dim * a[1].total_dim, "sum"),
    "convert.lp_vars_sum": ("convert.deterministic_convertible", _lp_vars, "sum"),
    "convert.feasible": ("convert.deterministic_convertible",
                         lambda a, k, r: int(r.feasible), "sum"),
    "discrimination.sectors": ("discrimination.discriminate",
                               lambda a, k, r: len(a[0].space.charges), "sum"),
    "circuits.unitary_dim_max": ("circuits.check",
                                 lambda a, k, r: a[0].space.total_dim, "max"),
    "circuits.dense_bytes": ("circuits.check", _dense_bytes, "sum"),
    "serialize.bytes_out": ("serialize.dumps", lambda a, k, r: len(r), "sum"),
}


def _resolve(module: str, path: str):
    """(holder, attribute name, function object) for a dotted attribute path."""
    holder = sys.modules[module]
    *owners, name = path.split(".")
    for owner in owners:
        holder = getattr(holder, owner)
    raw = vars(holder)[name]
    return holder, name, raw


class Tracer:
    """Wraps waylab's public functions and records one span per call.

    ``active`` gates recording: outside-op work such as correctness checks runs
    with it off, so only the calls an op makes are counted.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.sizes: dict[str, float] = {name: 0 for name in SIZES}
        self.active = False
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, key: str, fn):
        sizes = [(name, count, how) for name, (fkey, count, how) in SIZES.items()
                 if fkey == key]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [key, clock(), 0.0, stack[-1] if stack else -1, self.op_id, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            for name, count, how in sizes:
                value = count(args, kwargs, result)
                self.sizes[name] = (self.sizes[name] + value if how == "sum"
                                    else max(self.sizes[name], value))
            return result

        return traced

    def op(self, op_id: int, fn):
        """Run ``fn`` as the root span ``op`` of op ``op_id`` and return its result."""
        self.op_id = op_id
        self.active = True
        try:
            return self._wrap("op", fn)()
        finally:
            self.active = False

    # -- rebinding --------------------------------------------------------

    def install(self) -> None:
        """Rebind every wrapped function wherever a waylab namespace holds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "waylab" or name.startswith("waylab.")]
        for key, module, path in WRAPPED:
            holder, name, raw = _resolve(module, path)
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapper = self._wrap(key, fn)
            new = staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper
            self._rebind(holder, name, raw, new)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, attr, fn, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is fn:
                                self._rebind(value, k, fn, wrapper)

    def _rebind(self, holder, name, old, new) -> None:
        if isinstance(holder, dict):
            holder[name] = new
        else:
            setattr(holder, name, new)
        self._undo.append((holder, name, old))

    def uninstall(self) -> None:
        while self._undo:
            holder, name, old = self._undo.pop()
            if isinstance(holder, dict):
                holder[name] = old
            else:
                setattr(holder, name, old)

    # -- reduction --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def summary(self) -> dict:
        """Per-function calls, self seconds and errors, plus op totals."""
        own = self.self_times()
        out = {key: {"calls": 0, "self_s": 0.0, "errors": 0} for key in FUNCTIONS}
        op_wall = op_self = 0.0
        for s, t in zip(self.spans, own):
            if s[0] == "op":
                op_wall += s[2] - s[1]
                op_self += t
                continue
            entry = out[s[0]]
            entry["calls"] += 1
            entry["self_s"] += t
            entry["errors"] += s[5]
        return {"functions": out, "op_wall_s": op_wall, "op_unattributed_s": op_self,
                "sizes": dict(self.sizes)}


SIZE_UNITS = {"dense_bytes": "B", "bytes_out": "B"}
# Measured once per traced run from fresh interpreters (see worker.import_metrics).
IMPORT_METRICS = (("cli.interpreter_s", "s"), ("cli.import_s", "s"),
                  ("cli.import_scipy_optimize_s", "s"), ("cli.import_scipy_optimize_share", "1"))


def per_layer_spec() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    spec = []
    for key in FUNCTIONS:
        spec += [(f"{key}.calls", "count"), (f"{key}.self_share", "1"),
                 (f"{key}.errors", "count")]
    spec += [(f"{layer}.self_share", "1") for layer in LAYERS]
    spec.append(("ops.unattributed_share", "1"))
    spec += [(name, SIZE_UNITS.get(name.rsplit(".", 1)[1], "count")) for name in SIZES]
    spec += list(IMPORT_METRICS)
    spec.append(("trace.overhead_ratio", "1"))
    return spec


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer values from the spans of ``passes`` identical traced passes.

    Counts are per pass.  Self time is given as a share of the op wall time, so
    a layer that a workload never calls reads 0 rather than a constant time.
    """
    summary = tracer.summary()
    wall = summary["op_wall_s"]
    out = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for key, entry in summary["functions"].items():
        out[f"{key}.calls"] = entry["calls"] / passes
        out[f"{key}.self_share"] = entry["self_s"] / wall
        out[f"{key}.errors"] = entry["errors"] / passes
        layer_self[key.split(".")[0]] += entry["self_s"]
    for layer, seconds in layer_self.items():
        out[f"{layer}.self_share"] = seconds / wall
    out["ops.unattributed_share"] = summary["op_unattributed_s"] / wall
    for name, value in summary["sizes"].items():
        out[name] = value if SIZES[name][2] == "max" else value / passes
    return out
