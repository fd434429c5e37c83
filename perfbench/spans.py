"""Outside-in layer tracing for the benchmark.

The program is not instrumented.  Its public functions are wrapped from
here: methods are replaced on their classes, so that calls through
``self.`` are caught, and free functions in every package module that
binds them, because ``from .linalg import padic_kernel`` copies the name
into the importing module and patching ``linalg`` alone would record
nothing.  Nothing is wrapped until ``install_layers`` or ``count_ops`` is
called, and ``Patches.undo`` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from dataclasses import dataclass

PACKAGE = "affine_chabauty"

# (module, class or None for a free function, function); the metric prefix
# is "<module>.<function>".
LAYERS = (
    ("hyperelliptic", "HyperellipticModel", "frobenius_data"),
    ("hyperelliptic", "HyperellipticModel", "basis_integrals"),
    ("hyperelliptic", "HyperellipticModel", "tiny_basis_integrals"),
    ("hyperelliptic", "HyperellipticModel", "dagger_eval"),
    ("hyperelliptic", "HyperellipticModel", "disc_series"),
    ("integration", "Integrator", "basis_integral_vector"),
    ("integration", "Integrator", "expand_differential_on_disc"),
    ("integration", "Integrator", "disc_parametrization"),
    ("integration", "Integrator", "tiny_integral"),
    ("engine", "Engine", "assemble_M"),
    ("engine", "Engine", "annihilator"),
    ("engine", "Engine", "constant_c"),
    ("engine", "Engine", "disc_locus"),
    ("engine", "Engine", "determinant_criterion"),
    ("linalg", None, "padic_kernel"),
    ("linalg", None, "padic_solve"),
    ("linalg", None, "padic_det"),
    ("series", None, "strassmann_roots"),
    ("series", None, "nth_root_series"),
    ("series", None, "sqrt_series"),
    ("models", None, "selmer_target"),
    ("models", None, "enumerate_reduction_types"),
)

# Arithmetic counted in a pass of its own: wrapping these costs ~20% of a
# solve, which would distort the self times of the traced pass.
# (module, class, counter, methods); the metric is "<module>.<counter>.calls".
OPS = (
    ("padics", "PadicNumber", "mul", ("__mul__", "__rmul__")),
    ("padics", "PadicNumber", "add", ("__add__", "__radd__")),
    ("padics", "PadicNumber", "inverse", ("inverse",)),
    ("series", "TruncatedSeries", "mul", ("__mul__", "__rmul__")),
    ("series", "TruncatedSeries", "inverse", ("inverse",)),
)

FROBENIUS = "hyperelliptic.frobenius_data"
PAIR_VECTOR = "integration.basis_integral_vector"
DISC_LOCUS = "engine.disc_locus"

# What a span remembers of its call, for the derived per-layer counts.
TAGS = {
    FROBENIUS: lambda args, result: id(args[0]),     # the model
    DISC_LOCUS: lambda args, result: result.status,  # 'ok' | 'unresolved' | 'cuspidal'
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int            # index into Tracer.spans, -1 at the top
    tag: object = None


class Tracer:
    """Records one span per wrapped call, in memory, in call order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name, fn, tag=None):
        spans, open_, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if tag is not None:
                    span.tag = tag(args, result)
                return result
            finally:
                span.end = clock()
                open_.pop()

        return traced


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def undo(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def package_modules() -> list:
    """Every module of the package, imported now so that no later import
    can bind a wrapper that outlives ``undo``."""
    pkg = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")
    return [m for n, m in list(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")]


def layer_target(module: str, cls: str | None):
    """The class or module that defines a layer; raises if it was renamed."""
    mod = importlib.import_module(f"{PACKAGE}.{module}")
    return getattr(mod, cls) if cls else mod


def _patch_everywhere(patches: Patches, owner, fn: str, make, modules):
    original = vars(owner)[fn]
    replacement = make(original)
    if isinstance(owner, type):
        patches.set(owner, fn, replacement)
        return
    for mod in modules:
        for attr in [a for a, v in vars(mod).items() if v is original]:
            patches.set(mod, attr, replacement)


def install_layers(tracer: Tracer) -> Patches:
    """Wrap every function in LAYERS so that each call records a span."""
    modules = package_modules()
    patches = Patches()
    try:
        for module, cls, fn in LAYERS:
            name = f"{module}.{fn}"
            _patch_everywhere(patches, layer_target(module, cls), fn,
                              lambda f: tracer.wrap(name, f, TAGS.get(name)), modules)
    except BaseException:
        patches.undo()
        raise
    return patches


def _counted(fn, counts: dict, key: str):
    @functools.wraps(fn)
    def counting(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return counting


def count_ops(counts: dict) -> Patches:
    """Count the arithmetic in OPS into ``counts`` (keys from op_metric_names)."""
    patches = Patches()
    try:
        for module, cls, op, methods in OPS:
            key = f"{module}.{op}.calls"
            counts.setdefault(key, 0)
            owner = layer_target(module, cls)
            for m in methods:
                patches.set(owner, m, _counted(vars(owner)[m], counts, key))
    except BaseException:
        patches.undo()
        raise
    return patches


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer calls, self and inclusive seconds, and the derived counts.

    Self time is a span's duration minus the time its child spans cover.
    Inclusive time counts only the outermost span of a name, so that a
    layer that reaches itself again is not counted twice.
    """
    out = {}
    for module, _, fn in LAYERS:
        for key in ("calls", "self_s", "incl_s"):
            out[f"{module}.{fn}.{key}"] = 0
    covered = [0.0] * len(spans)
    has_child = [False] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
            has_child[s.parent] = True
    for i, s in enumerate(spans):
        dur = s.end - s.start
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += dur - covered[i]
        if not _inside_same_name(spans, i):
            out[f"{s.name}.incl_s"] += dur
    frob = [s for s in spans if s.name == FROBENIUS]
    loci = [s for s in spans if s.name == DISC_LOCUS and s.tag != "cuspidal"]
    out[f"{FROBENIUS}.models"] = len({s.tag for s in frob})
    out[f"{PAIR_VECTOR}.computed"] = sum(
        1 for i, s in enumerate(spans) if s.name == PAIR_VECTOR and has_child[i])
    # with no disc attempted, none was left unresolved
    out[f"{DISC_LOCUS}.ok_ratio"] = (
        sum(1 for s in loci if s.tag == "ok") / len(loci) if loci else 1.0)
    return out


def _inside_same_name(spans: list[Span], i: int) -> bool:
    j = spans[i].parent
    while j >= 0:
        if spans[j].name == spans[i].name:
            return True
        j = spans[j].parent
    return False


def op_metric_names() -> list[str]:
    return [f"{module}.{op}.calls" for module, _, op, _ in OPS]


def per_layer_declarations() -> list[dict]:
    """The per-layer metrics the traced run reports, as BENCHMARK.json lists them."""
    decl = []
    for module, _, fn in LAYERS:
        decl += [{"name": f"{module}.{fn}.calls", "unit": "count", "better": "lower"},
                 {"name": f"{module}.{fn}.self_s", "unit": "s", "better": "lower"},
                 {"name": f"{module}.{fn}.incl_s", "unit": "s", "better": "lower"}]
    decl += [{"name": f"{FROBENIUS}.models", "unit": "count", "better": "lower"},
             {"name": f"{PAIR_VECTOR}.computed", "unit": "count", "better": "lower"},
             {"name": f"{DISC_LOCUS}.ok_ratio", "unit": "ratio", "better": "higher"}]
    decl += [{"name": n, "unit": "count", "better": "lower"} for n in op_metric_names()]
    decl.append({"name": "trace.overhead_s", "unit": "s", "better": "lower"})
    return decl
