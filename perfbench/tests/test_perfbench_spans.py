"""Tests of the benchmark's outside-in tracing (perfbench/spans.py)."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402

# The ``from .x import f`` bindings through which the program calls these
# layers; each must be patched, or its calls would go unrecorded.
IMPORTED = (
    ("engine", "padic_kernel"), ("engine", "padic_det"),
    ("engine", "strassmann_roots"), ("engine", "selmer_target"),
    ("engine", "enumerate_reduction_types"),
    ("hyperelliptic", "padic_solve"), ("hyperelliptic", "padic_det"),
    ("hyperelliptic", "sqrt_series"), ("integration", "nth_root_series"),
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_calls_give_self_and_inclusive_times():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        leaf_t()
        leaf_t()
        clock.now += 0.5

    leaf_t = tracer.wrap("linalg.padic_det", leaf)
    middle_t = tracer.wrap("engine.determinant_criterion", middle)
    middle_t()
    m = spans.layer_metrics(tracer.spans)
    assert m["engine.determinant_criterion.calls"] == 1
    assert m["engine.determinant_criterion.incl_s"] == pytest.approx(5.5)
    assert m["engine.determinant_criterion.self_s"] == pytest.approx(1.5)
    assert m["linalg.padic_det.calls"] == 2
    assert m["linalg.padic_det.self_s"] == pytest.approx(4.0)
    assert m["linalg.padic_det.incl_s"] == pytest.approx(4.0)
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]


def test_reentered_layer_counts_inclusive_time_once():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def outer(depth):
        clock.now += 1.0
        if depth:
            outer_t(depth - 1)

    outer_t = tracer.wrap("series.strassmann_roots", outer)
    outer_t(2)
    m = spans.layer_metrics(tracer.spans)
    assert m["series.strassmann_roots.calls"] == 3
    assert m["series.strassmann_roots.incl_s"] == pytest.approx(3.0)
    assert m["series.strassmann_roots.self_s"] == pytest.approx(3.0)


def test_exception_closes_its_span_and_propagates():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def boom():
        clock.now += 3.0
        raise KeyError("inside")

    boom_t = tracer.wrap("engine.disc_locus", boom, spans.TAGS["engine.disc_locus"])
    with pytest.raises(KeyError):
        boom_t()
    assert tracer._open == []
    (span,) = tracer.spans
    assert span.end - span.start == pytest.approx(3.0)
    m = spans.layer_metrics(tracer.spans)
    assert m["engine.disc_locus.calls"] == 1
    assert m["engine.disc_locus.ok_ratio"] == 0.0


def _bindings(originals):
    """Every (module, attribute) in the package bound to a traced original."""
    found = []
    for mod in spans.package_modules():
        for attr, value in vars(mod).items():
            if any(value is o for o in originals):
                found.append((mod.__name__, attr))
    return found


def test_every_traced_name_exists_and_uninstall_restores_it():
    owners = [spans.layer_target(module, cls) for module, cls, _ in spans.LAYERS]
    before = [vars(owner)[fn] for owner, (_, _, fn) in zip(owners, spans.LAYERS)]
    free = [f for f, (_, cls, _) in zip(before, spans.LAYERS) if cls is None]
    bound_before = _bindings(free)
    for module, name in IMPORTED:
        assert (f"{spans.PACKAGE}.{module}", name) in bound_before
    patches = spans.install_layers(spans.Tracer())
    try:
        for owner, (_, _, fn), orig in zip(owners, spans.LAYERS, before):
            assert vars(owner)[fn] is not orig
            assert vars(owner)[fn].__wrapped__ is orig
        assert _bindings(free) == []  # no module kept an unwrapped original
    finally:
        patches.undo()
    assert [vars(owner)[fn] for owner, (_, _, fn) in zip(owners, spans.LAYERS)] == before
    assert _bindings(free) == bound_before


def test_op_counters_count_and_uninstall():
    from affine_chabauty.padics import PadicNumber
    originals = {m: vars(PadicNumber)[m] for m in ("__mul__", "__rmul__", "__add__")}
    counts = {}
    patches = spans.count_ops(counts)
    try:
        x = PadicNumber.from_int(3, 7, 10)
        _ = x * x + x
        _ = 2 * x
    finally:
        patches.undo()
    assert counts["padics.mul.calls"] == 2
    assert counts["padics.add.calls"] == 1
    assert sorted(counts) == sorted(spans.op_metric_names())
    assert {m: vars(PadicNumber)[m] for m in originals} == originals


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert bench["per_layer"] == spans.per_layer_declarations()
    import run
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == \
        [(k, u, b) for k, (u, b) in run.END_TO_END.items()]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
