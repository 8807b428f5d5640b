"""Spans and counters around fractalcalc's public functions, for the traced run.

Tracing lives entirely in the benchmark: ``Tracer.install`` replaces each
traced function at every module binding that other modules call it through
(``fractalcalc.staircase.generate``, ``fractalcalc.cli.build_staircase``,
``fractalcalc.lyapunov.warp_time``, ...) with a wrapper that records a span
(name, start, end, parent).  Functions called once per element only count
calls, and the callables inside ready-made systems get counting,
signature-preserving wrappers so the library's signature probes still see
the original parameters.  ``restore`` puts every original back.

Spans stay in memory; ``layer_metrics`` folds them into the per-layer
metrics and ``dump`` writes them out when the run ends.
"""

import functools
import math
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

# traced functions the workloads reach, by defining module; the span name is
# "<module>.<function>"
SPANNED = {
    "cantor": ("generate", "contains"),
    "staircase": ("build_staircase", "eval_staircase", "gamma_dimension", "dimension_sweep"),
    "fde": ("solve_first_order", "solve_second_order", "warp_time", "_integrate"),
    "lyapunov": ("verify_theorem1", "verify_theorem2", "classify_stability",
                 "check_assumptions", "_batch_integrate"),
    "calculus": ("set_samples", "derivative_grid", "fractal_integral"),
    "expressions": ("compile_expression",),
    "cli": ("main",),
}
# called once per element: a span each would cost more than the call
COUNTED = {"calculus": ("in_set",)}
# linear_damped_system is left out: the theorem toys call it through the
# systems module, and wrapping both would count every call twice
SYSTEM_BUILDERS = ("example1_field", "example1_exact", "example3_field",
                   "example2_system", "example3_system", "theorem1_toy", "theorem2_toy")
SYSTEM_FIELDS = ("u", "v", "f", "h", "q", "r1", "r2", "h_integral",
                 "h_derivative", "v_derivative")
MODULES = tuple(SPANNED)

# counters derived from array sizes or report meta rather than timed
COMPUTED = ("cantor.intervals", "staircase.table_bytes", "fde.state_steps",
            "lyapunov.state_steps")


def _size(x):
    return int(getattr(x, "size", 1))


def _n_steps(tau_end, dtau):
    # the same step count fde._integrate and lyapunov._batch_integrate use
    return max(int(math.ceil(float(tau_end) / float(dtau) - 1e-12)), 0)


class Tracer:
    """Span recorder and counters for one traced run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.peak_alloc = 0
        self.rhs_depth = 0
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _system_callable(self, fn):
        counts, spans, stack = self.counts, self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["systems.calls"] += 1
            # calls the stability layer makes outside its integrator RHS:
            # grid sweeps, certificate pieces, per-element and quad fallbacks
            if (self.rhs_depth == 0 and stack
                    and spans[stack[-1]][0].startswith("lyapunov.")):
                counts["lyapunov.user_fn_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counting_rhs(self, key, rhs):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            self.rhs_depth += 1
            try:
                return rhs(*args)
            finally:
                self.rhs_depth -= 1

        return wrapper

    def _wrap_system(self, obj):
        if callable(obj) and not hasattr(obj, "rhs"):
            return self._system_callable(obj)
        for name in SYSTEM_FIELDS:
            fn = getattr(obj, name, None)
            if fn is not None:
                setattr(obj, name, self._system_callable(fn))
        return obj

    # -- per-function hooks (counters read from arguments and results) ----

    def _hooks(self):
        c = self.counts

        def generate_after(args, kwargs, result):
            c["cantor.intervals"] += 2 ** int(args[0].depth)

        def contains_after(args, kwargs, result):
            c["cantor.contains_points"] += _size(result)

        def build_after(args, kwargs, table):
            c["staircase.build_calls"] += 1
            c["staircase.table_bytes"] += int(table.t.nbytes + table.s.nbytes)

        def eval_after(args, kwargs, result):
            c["staircase.eval_points"] += _size(result)

        def warp_after(args, kwargs, result):
            c["fde.warp_points"] += _size(result)

        def fde_integrate_before(args, kwargs):
            rhs, tau_end, _state0, dtau = args[:4]
            c["fde.state_steps"] += _n_steps(tau_end, dtau)
            return (self._counting_rhs("fde.rhs_calls", rhs),) + tuple(args[1:]), kwargs

        def batch_integrate_before(args, kwargs):
            rhs, _dim, y0, tau_end, dtau = args[:5]
            columns = len(y0[0])
            steps = _n_steps(tau_end, dtau)
            c["lyapunov.steps"] += steps
            c["lyapunov.state_steps"] += steps * columns
            return (self._counting_rhs("lyapunov.rhs_calls", rhs),) + tuple(args[1:]), kwargs

        def from_function_after(args, kwargs, result):
            c["calculus.points"] += len(result)

        return {
            "cantor.generate": (None, generate_after),
            "cantor.contains": (None, contains_after),
            "staircase.build_staircase": (None, build_after),
            "staircase.eval_staircase": (None, eval_after),
            "fde.warp_time": (None, warp_after),
            "fde._integrate": (fde_integrate_before, None),
            "lyapunov._batch_integrate": (batch_integrate_before, None),
            "calculus.from_function": (None, from_function_after),
        }

    def _with_alloc_peak(self, fn):
        """tracemalloc peak around the call, outside its span's timing."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                if started:
                    tracemalloc.stop()

        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap the traced functions at every binding inside ``package``."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        hooks = self._hooks()
        replace = {}
        for short, names in SPANNED.items():
            mod = sys.modules[f"{package.__name__}.{short}"]
            for fname in names:
                orig = getattr(mod, fname)
                span_name = f"{short}.{fname}"
                before, after = hooks.get(span_name, (None, None))
                wrapped = self._span(span_name, orig, before, after)
                if span_name == "staircase.build_staircase":
                    wrapped = self._with_alloc_peak(wrapped)
                replace[id(orig)] = wrapped
        for short, names in COUNTED.items():
            mod = sys.modules[f"{package.__name__}.{short}"]
            for fname in names:
                orig = getattr(mod, fname)
                replace[id(orig)] = self._counted(f"{short}.{fname}_calls", orig)
        systems = sys.modules[f"{package.__name__}.systems"]
        for fname in SYSTEM_BUILDERS:
            orig = getattr(systems, fname)
            if fname in ("example1_field", "example1_exact"):
                replace[id(orig)] = self._system_callable(orig)
            else:
                replace[id(orig)] = functools.wraps(orig)(
                    lambda *a, _orig=orig, **k: self._wrap_system(_orig(*a, **k)))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replace and callable(value):
                    self._patch(mod, attr, replace[id(value)])

        calculus = sys.modules[f"{package.__name__}.calculus"]
        grid_fn = calculus.GridFunction
        orig = grid_fn.__dict__["from_function"].__func__
        before, after = hooks["calculus.from_function"]
        self._patch(grid_fn, "from_function", classmethod(
            self._span("calculus.from_function", orig, before, after)))
        expr = sys.modules[f"{package.__name__}.expressions"].Expression
        self._patch(expr, "__call__",
                    self._counted("expressions.eval_calls", expr.__dict__["__call__"]))

    def restore(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def totals(self):
        """Inclusive and self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive = defaultdict(float)
        own = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += end - start - child[i]
        return inclusive, own

    def layer_metrics(self, passes):
        """Per-layer metrics as averages over ``passes`` traced passes."""
        inc, own = self.totals()
        c = self.counts
        n = float(passes)

        def per_pass(x):
            return x / n

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        m = {}
        for mod in MODULES:
            m[f"{mod}.self_s"] = per_pass(sum(v for k, v in own.items()
                                               if k.startswith(mod + ".")))
        m["cantor.generate_s"] = per_pass(inc["cantor.generate"])
        m["cantor.intervals"] = per_pass(c["cantor.intervals"])
        m["cantor.contains_s"] = per_pass(inc["cantor.contains"])
        m["cantor.contains_points"] = per_pass(c["cantor.contains_points"])

        m["staircase.build_s"] = per_pass(inc["staircase.build_staircase"])
        m["staircase.build_calls"] = per_pass(c["staircase.build_calls"])
        m["staircase.table_bytes"] = per_pass(c["staircase.table_bytes"])
        m["staircase.peak_alloc_mb"] = self.peak_alloc / 2 ** 20
        m["staircase.eval_s"] = per_pass(inc["staircase.eval_staircase"])
        m["staircase.eval_points"] = per_pass(c["staircase.eval_points"])
        m["staircase.gamma_dimension_s"] = per_pass(inc["staircase.gamma_dimension"])

        solve = inc["fde.solve_first_order"] + inc["fde.solve_second_order"]
        m["fde.solve_s"] = per_pass(solve)
        m["fde.integrate_s"] = per_pass(inc["fde._integrate"])
        m["fde.state_steps"] = per_pass(c["fde.state_steps"])
        m["fde.us_per_state_step"] = ratio(inc["fde._integrate"], c["fde.state_steps"], 1e6)
        m["fde.rhs_calls_per_step"] = ratio(c["fde.rhs_calls"], c["fde.state_steps"])
        m["fde.warp_time_s"] = per_pass(inc["fde.warp_time"])
        m["fde.warp_points"] = per_pass(c["fde.warp_points"])

        m["lyapunov.verify_self_s"] = per_pass(own["lyapunov.verify_theorem1"]
                                               + own["lyapunov.verify_theorem2"])
        m["lyapunov.classify_self_s"] = per_pass(own["lyapunov.classify_stability"])
        m["lyapunov.assumptions_s"] = per_pass(inc["lyapunov.check_assumptions"])
        m["lyapunov.integrate_s"] = per_pass(inc["lyapunov._batch_integrate"])
        m["lyapunov.state_steps"] = per_pass(c["lyapunov.state_steps"])
        m["lyapunov.us_per_state_step"] = ratio(inc["lyapunov._batch_integrate"],
                                                c["lyapunov.state_steps"], 1e6)
        m["lyapunov.rhs_calls_per_step"] = ratio(c["lyapunov.rhs_calls"], c["lyapunov.steps"])
        m["lyapunov.user_fn_calls"] = per_pass(c["lyapunov.user_fn_calls"])

        m["calculus.from_function_s"] = per_pass(inc["calculus.from_function"])
        m["calculus.points"] = per_pass(c["calculus.points"])
        m["calculus.us_per_point"] = ratio(inc["calculus.from_function"],
                                           c["calculus.points"], 1e6)
        m["calculus.in_set_calls"] = per_pass(c["calculus.in_set_calls"])
        m["calculus.derivative_s"] = per_pass(inc["calculus.derivative_grid"])
        m["calculus.integral_s"] = per_pass(inc["calculus.fractal_integral"])

        m["expressions.compile_s"] = per_pass(inc["expressions.compile_expression"])
        m["expressions.eval_calls"] = per_pass(c["expressions.eval_calls"])
        m["systems.calls"] = per_pass(c["systems.calls"])
        m["trace.spans"] = per_pass(len(self.spans))
        m["trace.self_total_s"] = per_pass(sum(own.values()))
        return m

    def dump(self):
        return [{"name": name, "start": start, "end": end, "parent": parent}
                for name, start, end, parent in self.spans]
