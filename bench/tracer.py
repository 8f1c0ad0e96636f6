"""Outside-in tracing of the boundaries between ptdyson's modules.

Nothing in src/ knows about this file.  After the package is imported, the
tracer rebinds, in each module's namespace, every function that module
imported from another ptdyson module, so each call across a module boundary
passes through a wrapper that opens a span.  It also wraps

  * the TimeProfile methods evaluate, derivative, cumulative and __call__;
  * each validation check (as a span labelled with the check's name);
  * numpy.linalg.eigh and numpy.linalg.svd, counted against the innermost
    span's layer;
  * the execution of each module body at import time, so a layer that a
    workload never calls still shows its import cost.

A layer's calls count only calls that enter it from another layer; its self
time is the time inside its spans minus the time of the spans nested in
them.  Calls to methods of other classes (AlgebraElement, Scenario, ...)
are not wrapped, so their time counts toward the calling layer.  Spans are
aggregated in memory per layer and per caller -> callee edge.
"""

import functools
import importlib.machinery
import inspect
import sys
import time

# Imported before ptdyson so numpy's own import cost lands in no layer, and
# so numpy.linalg can be wrapped before any layer looks it up.
import numpy

LAYERS = (
    "profiles",
    "algebra_u2",
    "dyson",
    "invariants",
    "energy",
    "modes",
    "static_models",
    "fock_oracle",
    "validation",
    "cli",
)
PROFILE_METHODS = ("evaluate", "derivative", "cumulative", "__call__")
COUNTED_LINALG = ("eigh", "svd")
ROOT = "harness"


class _ImportSpans:
    """Meta-path finder that runs each layer's module body inside a span."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, name, path=None, target=None):
        package, _, layer = name.partition(".")
        if package != "ptdyson" or layer not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        tracer = self.tracer

        def traced_exec(module):
            tracer.span(layer, exec_module, (module,), {}, count=False)

        spec.loader.exec_module = traced_exec
        return spec


class Tracer:
    """Per-layer call counts and self times, aggregated in memory."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.edges = {}
        self.linalg = {}
        self.check_s = {}
        # each frame is [layer, time covered by child spans]
        self._stack = [[ROOT, 0.0]]

    def span(self, layer, fn, args, kwargs, count=True, label=None):
        stack = self._stack
        caller = stack[-1][0]
        if count and caller != layer:
            self.calls[layer] += 1
            edge = f"{caller}->{layer}"
            self.edges[edge] = self.edges.get(edge, 0) + 1
        frame = [layer, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            self.self_s[layer] += duration - frame[1]
            stack[-1][1] += duration
            if label is not None:
                self.check_s[label] = self.check_s.get(label, 0.0) + duration

    def wrap(self, layer, fn, label=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if label is None and tracer._stack[-1][0] == layer:
                return fn(*args, **kwargs)
            return tracer.span(layer, fn, args, kwargs, label=label)

        traced.bench_traced = True
        return traced

    def install_import_spans(self):
        """Call before the first `import ptdyson`."""
        sys.meta_path.insert(0, _ImportSpans(self))

    def wrap_package(self):
        """Rebind the module boundaries; call after `import ptdyson.cli`."""
        modules = {layer: sys.modules[f"ptdyson.{layer}"] for layer in LAYERS}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if inspect.ismodule(obj):
                    owner = _layer_of(obj.__name__)
                    if owner is not None and owner != layer:
                        self._wrap_own_functions(owner, obj)
                elif inspect.isfunction(obj) and not hasattr(obj, "bench_traced"):
                    owner = _layer_of(obj.__module__)
                    if owner is not None and owner != layer:
                        setattr(module, name, self.wrap(owner, obj))

        profile_cls = modules["profiles"].TimeProfile
        for name in PROFILE_METHODS:
            setattr(profile_cls, name, self.wrap("profiles", getattr(profile_cls, name)))

        validation = modules["validation"]
        validation._CHECKS = tuple(
            self.wrap("validation", fn, label=fn.__name__) for fn in validation._CHECKS
        )

        for name in COUNTED_LINALG:
            setattr(numpy.linalg, name, self._counted(name, getattr(numpy.linalg, name)))

    def _wrap_own_functions(self, layer, module):
        # A module imported whole (`from . import validation`) is called
        # through its attributes, so wrap its functions where they live;
        # calls from inside the same layer pass straight through.
        for name, obj in list(vars(module).items()):
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not hasattr(obj, "bench_traced")
            ):
                setattr(module, name, self.wrap(layer, obj))

    def _counted(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            key = f"{tracer._stack[-1][0]}.{name}"
            tracer.linalg[key] = tracer.linalg.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def report(self):
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "edges": dict(sorted(self.edges.items())),
            "linalg": dict(sorted(self.linalg.items())),
            "check_s": dict(self.check_s),
        }


def _layer_of(module_name):
    package, _, layer = module_name.partition(".")
    if package == "ptdyson" and layer in LAYERS:
        return layer
    return None
