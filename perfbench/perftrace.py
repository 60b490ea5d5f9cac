"""Per-layer tracing of wpdcert from outside the package.

`Tracer.install` wraps the public functions of the wpdcert layers, both where
they are defined and at every ``from``-import binding in the package, plus the
operator methods that carry the arithmetic.  Each wrapped call is timed on a
stack, so a function's self time is its duration minus the time of the
wrapped calls it makes.  Calls at a layer boundary are also recorded as spans
(id, name, start, end, parent span, task id), which stay in memory until
`write_spans`.  The innermost arithmetic (class and polynomial operators,
pairings, label constructors) runs hundreds of thousands of times per task, so
it is aggregated into call counts and self time without a span, and the field
operations, which run millions of times, are only counted.
"""

from __future__ import annotations

import inspect
import itertools
import json
from collections import Counter, defaultdict
from time import perf_counter

#: Functions aggregated without a span of their own.
HOT = frozenset(
    {
        "lattice.add",
        "lattice.mul",
        "lattice.intersect",
        "lattice.exceptional",
        "lattice.line_class",
        "lattice.p_label",
        "lattice.q_label",
        "lattice.anon_label",
        "lattice.format_rational",
        "action.base_points",
        "action.exceptional_block",
        "action.orbit_label",
        "polymaps.mul",
        "polymaps.subst",
        "polymaps.compose",
        "polymaps.affine_map",
        "hyperbolic.as_vector",
        "hyperbolic.mdot",
        "hyperbolic.distance",
        "report.fmt_real",
        "report.fmt_rational",
    }
)

#: Layers whose public module-level functions are wrapped, by metric prefix.
LAYERS = ("lattice", "action", "polymaps", "hyperbolic", "certifier", "report", "cli", "kernel")

FIELD_OPS = ("coerce", "add", "sub", "mul", "neg", "inv", "pow")
FIELD_PROPERTIES = ("zero", "one")


class Tracer:
    """Wraps the layers of one loaded wpdcert package; undo with `uninstall`."""

    def __init__(self, mods):
        self.mods = mods
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.field_ops = 0
        self.max_support = 0
        self.henon_steps = 0
        self.candidates = 0
        self.survivors = 0
        self.spans = []
        self.task_id = None
        self._ids = itertools.count()
        self._stack = [[0.0, None]]  # frames: [time of wrapped children, enclosing span id]
        self._undo = []

    # -- wrapping -----------------------------------------------------------

    def _timed(self, name, fn, post=None):
        stack, spans, ids = self._stack, self.spans, self._ids
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        span = name not in HOT

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = next(ids) if span else parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                parent[0] += d
                calls[name] += 1
                self_s[name] += d - frame[0]
                total_s[name] += d
                if span:
                    spans.append((sid, name, t0, t1, parent[1], self.task_id))
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def _counted(self, fn):
        def wrapper(*args, **kwargs):
            self.field_ops += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _post_add(self, args, result):
        if len(result.exc) > self.max_support:
            self.max_support = len(result.exc)

    def _post_henon(self, args, result):
        power = args[2] if len(args) > 2 else 0
        self.henon_steps += abs(power)

    def _post_kernel(self, args, result):
        p = args[1]
        self.candidates += p * p * (p - 1) * (p - 1)
        self.survivors += len(result)

    def install(self):
        m = self.mods
        lattice, polymaps, fields = m.lattice, m.polymaps, m.fields
        methods = {
            "lattice.add": (lattice.PMClass, ("__add__",), self._post_add),
            "lattice.mul": (lattice.PMClass, ("__mul__", "__rmul__"), self._post_add),
            "polymaps.mul": (polymaps.Poly2, ("__mul__",), None),
            "polymaps.subst": (polymaps.Poly2, ("subst",), None),
        }
        for name, (cls, attrs, post) in methods.items():
            wrapper = self._timed(name, cls.__dict__[attrs[0]], post)
            for attr in attrs:
                self._set(cls, attr, wrapper)
        for cls in (fields.PrimeField, fields.RationalField):
            for attr in FIELD_OPS:
                self._set(cls, attr, self._counted(cls.__dict__[attr]))
            for attr in FIELD_PROPERTIES:
                self._set(cls, attr, property(self._counted(cls.__dict__[attr].fget)))

        posts = {"action.henon_act": self._post_henon, "kernel.enumerate_fix_candidates": self._post_kernel}
        package = [mod for mod in vars(m).values() if inspect.ismodule(mod)]
        for prefix in LAYERS:
            module = getattr(m, prefix)
            for attr, fn in list(vars(module).items()):
                name = f"{prefix}.{attr}"
                if attr.startswith("_") or name in methods or not callable(fn) or inspect.isclass(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue  # imported here; wrapped where it is defined
                wrapper = self._timed(name, fn, posts.get(name))
                for mod in package:
                    for bound, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, bound, wrapper)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- tasks and spans ----------------------------------------------------

    def run_task(self, task_id, label, fn):
        """Call fn() as the root span of one task."""
        self.task_id = task_id
        sid = next(self._ids)
        frame = [0.0, sid]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append((sid, f"task.{label}", t0, t1, None, task_id))
            self.task_id = None

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, task in sorted(self.spans):
                fh.write(
                    json.dumps({"id": sid, "name": name, "start": start, "end": end, "parent": parent, "task": task})
                    + "\n"
                )

    # -- per-layer metrics ----------------------------------------------------

    def layer_metrics(self) -> dict:
        calls, self_s = self.calls, self.self_s
        out = {}

        def pair(name):
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")

        for name in ("lattice.add", "lattice.mul", "lattice.intersect"):
            pair(name)
        out["lattice.max_support"] = (self.max_support, "count")
        pair("action.axis_classes")
        out["action.henon_act.calls"] = (calls["action.henon_act"], "count")
        out["action.henon_act.steps"] = (self.henon_steps, "count")
        out["action.henon_act.self_s"] = (self_s["action.henon_act"], "s")
        for stage in (
            "epsilon_window",
            "exclusion_data",
            "fix_monotonicity_check",
            "fix_set_symbolic",
            "fix_set_bruteforce",
            "certify",
        ):
            out[f"certifier.{stage}.self_s"] = (self_s[f"certifier.{stage}"], "s")
        kernel_s = self.total_s["kernel.enumerate_fix_candidates"]
        out["kernel.candidates"] = (self.candidates, "count")
        out["kernel.survivors"] = (self.survivors, "count")
        out["kernel.candidates_per_s"] = (self.candidates / kernel_s if kernel_s else 0.0, "1/s")
        out["kernel.compose_per_candidate"] = (
            calls["polymaps.compose"] / self.candidates if self.candidates else 0.0,
            "ratio",
        )
        out["kernel.self_s"] = (self_s["kernel.enumerate_fix_candidates"], "s")
        for name in ("polymaps.compose", "polymaps.subst", "polymaps.mul"):
            pair(name)
        out["fields.ops.calls"] = (self.field_ops, "count")
        for name in ("hyperbolic.as_vector", "hyperbolic.distance"):
            pair(name)
        out["hyperbolic.geodesic_point.self_s"] = (self_s["hyperbolic.geodesic_point"], "s")
        tube = ("tube_radius", "tube_traverses", "traversal_offset", "wpd_exponents")
        out["hyperbolic.tube.self_s"] = (sum(self_s[f"hyperbolic.{t}"] for t in tube), "s")
        out["report.cert_report_json.self_s"] = (self_s["report.cert_report_json"], "s")
        out["lattice.to_json_dict.self_s"] = (self_s["lattice.to_json_dict"], "s")
        out["cli.main.self_s"] = (self_s["cli.main"], "s")
        return out

    def layer_shares(self, wall_s: float) -> dict:
        """Self time summed per layer prefix, as a share of wall_s."""
        shares = defaultdict(float)
        for name, s in self.self_s.items():
            shares[name.split(".")[0]] += s / wall_s
        return dict(sorted(shares.items()))
