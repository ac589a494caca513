"""Per-layer tracing of degenmfem, installed from outside the package.

The tracer replaces public names in the modules that call them (for
example ``degenmfem.schemes.solve``, the name ``l_type_iterate`` looks up
on every iteration) with timing wrappers, and puts the originals back on
``uninstall``.  Nothing under ``src/`` is edited.

Two levels:

* ``detail=False`` wraps only the drivers (``compute_reference``,
  ``run_table``, ``run_time_series`` and the per-step iterate functions),
  a few hundred calls per workload.  It reads the returned
  ``IterationReport``s, so the untimed run still gets exact iteration,
  escalation and factorization counts.
* ``detail=True`` also opens a span for every ``factorize`` and
  ``assemble`` call and adds per-iteration calls (``solve``, the two
  norms, the storage functions) to counters on the enclosing span.
  Recording a span per iteration would cost more than the work itself on
  small meshes, so those calls only increment counters and timers.

A name that has moved or been renamed makes ``install`` raise
``TracerError`` naming it, and ``check_exercised`` raises when a layer the
workload must run recorded no calls, so a layer never reads 0 s because
its hook missed.
"""

import importlib
import time
from collections import Counter

clock = time.perf_counter

# Per-iteration calls, aggregated into counters on the enclosing span.
COUNTED = {
    "solve": [("degenmfem.schemes", "solve")],
    "norm": [("degenmfem.schemes", "l2_norm_scalar"),
             ("degenmfem.schemes", "l2_norm_flux")],
    "storage": [("degenmfem.schemes", "b_value"),
                ("degenmfem.schemes", "b_eps"),
                ("degenmfem.schemes", "b_eps_prime"),
                ("degenmfem.benchmark", "b_value")],
}
# Calls that open a span of their own.  The first four kinds are the
# drivers and are wrapped at both levels.
SPANNED = {
    "reference": [("degenmfem.benchmark", "compute_reference")],
    "table": [("degenmfem.benchmark", "run_table")],
    "series": [("degenmfem.schemes", "run_time_series"),
               ("degenmfem.benchmark", "run_time_series")],
    "iterate": [("degenmfem.schemes", "hl_iterate"),
                ("degenmfem.schemes", "regularized_l_iterate"),
                ("degenmfem.schemes", "newton_iterate"),
                ("degenmfem.benchmark", "hl_iterate")],
    "factorize": [("degenmfem.schemes", "factorize"),
                  ("degenmfem.benchmark", "factorize")],
    "assemble": [("degenmfem.schemes", "assemble"),
                 ("degenmfem.benchmark", "assemble")],
}
DRIVER_KINDS = ("reference", "table", "series", "iterate")
# Slots of Span.acc: calls and seconds for each counted kind.
SLOT = {kind: 2 * i for i, kind in enumerate(COUNTED)}
FAILURE_REASONS = ("max_iterations", "divergence", "singular_system")


class TracerError(RuntimeError):
    """A wrapped name is missing or a layer recorded no calls."""


class Span:
    __slots__ = ("kind", "parent", "start", "end", "excluded_s", "child_s",
                 "acc", "info")

    def __init__(self, kind, parent):
        self.kind = kind
        self.parent = parent
        self.start = self.end = 0.0
        # Tracer bookkeeping inside the span, left out of its duration.
        self.excluded_s = 0.0
        self.child_s = 0.0
        self.acc = [0, 0.0] * len(COUNTED)
        self.info = None

    @property
    def duration(self):
        return self.end - self.start - self.excluded_s

    @property
    def self_s(self):
        return self.duration - self.child_s - sum(self.acc[1::2])


def _lookup(module_name, name):
    module = importlib.import_module(module_name)
    fn = getattr(module, name, None)
    if not callable(fn):
        raise TracerError(
            f"{module_name}.{name} is gone or not callable; the tracer wraps "
            f"it, so it must be updated where the name moved")
    return module, fn


def _argument(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    """Spans and counters for one pass of a workload."""

    def __init__(self, detail):
        from degenmfem.linear_system import SingularSystemError

        self.detail = detail
        self.singular_error = SingularSystemError
        self.root = Span("run", None)
        self.stack = [self.root]
        self.spans = []
        self.singular = Counter()
        self.factor_nnz = 0
        self._saved = []

    # -- installation ---------------------------------------------------

    def install(self):
        targets = [(kind, mod, name) for kind in SPANNED
                   if self.detail or kind in DRIVER_KINDS
                   for mod, name in SPANNED[kind]]
        if self.detail:
            targets += [(kind, mod, name) for kind in COUNTED
                        for mod, name in COUNTED[kind]]
        resolved = [(kind, name, *_lookup(mod, name))
                    for kind, mod, name in targets]
        for kind, name, module, fn in resolved:
            if kind in COUNTED:
                wrapper = self._counted(fn, kind)
            else:
                wrapper = self._spanned(fn, kind)
            self._saved.append((module, name, fn))
            setattr(module, name, wrapper)
        self.root.start = clock()
        return self

    def uninstall(self):
        self.root.end = clock()
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers -------------------------------------------------------

    def _counted(self, fn, kind):
        stack, slot, singular = self.stack, SLOT[kind], self.singular_error
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except singular:
                tracer.singular[kind] += 1
                raise
            finally:
                acc = stack[-1].acc
                acc[slot] += 1
                acc[slot + 1] += clock() - t0

        return wrapper

    def _spanned(self, fn, kind):
        stack, spans, singular = self.stack, self.spans, self.singular_error
        on_return = getattr(self, f"_after_{kind}", None)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = Span(kind, parent)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except singular:
                tracer.singular[kind] += 1
                raise
            finally:
                span.end = clock()
                stack.pop()
                parent.child_s += span.duration
            if on_return is not None:
                t0 = clock()
                on_return(span, args, kwargs, result)
                spent = clock() - t0
                for open_span in stack:
                    open_span.excluded_s += spent
            return result

        return wrapper

    def _after_table(self, span, args, kwargs, result):
        span.info = _argument(args, kwargs, 0, "kind")

    def _after_series(self, span, args, kwargs, result):
        span.info = _argument(args, kwargs, 0, "config").kind

    def _after_iterate(self, span, args, kwargs, result):
        config = _argument(args, kwargs, 1, "config")
        report = result[2]
        span.info = (config.kind, config.L, report.iterations_used,
                     report.converged, report.failure_reason)

    def _after_factorize(self, span, args, kwargs, result):
        lu = result.lu
        self.factor_nnz = max(self.factor_nnz, lu.L.nnz + lu.U.nnz)

    # -- results --------------------------------------------------------

    @property
    def wall_s(self):
        return self.root.duration

    def of_kind(self, kind):
        return [s for s in self.spans if s.kind == kind]

    def counts(self):
        """Exact counts read off the returned reports.

        Factorizations are derived from what the drivers do: one per
        distinct L in a reference, one per L-type series and one per
        Newton iteration.
        """
        calls = self.of_kind("iterate")
        # A call that raised returned no report.
        steps = [s for s in calls if s.info is not None]
        failed = Counter(other=len(calls) - len(steps))
        for s in steps:
            _, _, _, converged, reason = s.info
            if not converged:
                key = (reason or "").replace(" ", "_")
                failed[key if key in FAILURE_REASONS else "other"] += 1
        ref_steps = [s for s in steps if s.parent.kind == "reference"]
        factorizations = sum(len({s.info[1] for s in ref_steps
                                  if s.parent is ref})
                             for ref in self.of_kind("reference"))
        factorizations += sum(1 for s in self.of_kind("series")
                              if s.info in ("hl", "lreg"))
        factorizations += sum(s.info[2] for s in steps
                              if s.info[0] == "newton")
        counts = {
            "schemes.steps": len(calls),
            "schemes.iterations": sum(s.info[2] for s in steps),
            "benchmark.reference_iterations":
                sum(s.info[2] for s in ref_steps),
            "benchmark.reference_useful_iterations":
                sum(s.info[2] for s in ref_steps if s.info[3]),
            "benchmark.reference_escalations":
                sum(1 for s in ref_steps if not s.info[3]),
            "linear_system.factorizations": factorizations,
        }
        for reason in FAILURE_REASONS + ("other",):
            counts[f"schemes.steps_failed.{reason}"] = failed[reason]
        return counts

    def layer_totals(self):
        """Calls and seconds per layer; every time here is self time."""
        calls = Counter()
        seconds = Counter()
        for span in [self.root] + self.spans:
            for kind, slot in SLOT.items():
                calls[kind] += span.acc[slot]
                seconds[kind] += span.acc[slot + 1]
            if span.kind in ("factorize", "assemble"):
                calls[span.kind] += 1
                seconds[span.kind] += span.duration
            elif span.kind == "iterate":
                calls["iterate"] += 1
                seconds["iterate_span"] += span.duration
                seconds["schemes_self"] += span.self_s
            elif span.kind in ("reference", "table", "series"):
                seconds["benchmark_self"] += span.self_s
        for span in self.of_kind("reference"):
            seconds["reference_span"] += span.duration
        for span in self.of_kind("table"):
            seconds[f"table_span.{span.info}"] += span.duration
        return calls, seconds

    def check_exercised(self, layers):
        """Raise when a layer the workload must run recorded no calls."""
        calls, _ = self.layer_totals()
        spans = Counter(s.kind for s in self.spans)
        for layer in layers:
            if calls[layer] == 0 and spans[layer] == 0:
                names = ", ".join(f"{m}.{n}" for m, n in
                                  COUNTED.get(layer, SPANNED.get(layer, [])))
                raise TracerError(
                    f"layer {layer!r} recorded no calls; none of {names} "
                    f"was called, so the code no longer reaches it through "
                    f"these names")
