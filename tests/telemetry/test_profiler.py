"""Continuous guest profiler: sampled stacks and flamegraph exports."""

from __future__ import annotations

import pytest

from repro.faaslet import Faaslet, FunctionDefinition
from repro.host import StandaloneEnvironment
from repro.minilang import build
from repro.telemetry import ContinuousProfiler
from repro.telemetry.profiler import (
    SPEEDSCOPE_SCHEMA,
    load_collapsed,
    load_speedscope,
    to_collapsed,
    to_speedscope,
)
from repro.wasm.codegen import compile_module

NESTED_SRC = """
int inner(int x) { return x * 2 + 1; }
int middle(int x) {
    int acc = 0;
    for (int i = 0; i < 8; i = i + 1) { acc = acc + inner(x + i); }
    return acc;
}
export int main() {
    int acc = 0;
    for (int i = 0; i < 32; i = i + 1) { acc = acc + middle(i); }
    return acc - acc;
}
"""


def _faaslet(tier=None):
    module = build(NESTED_SRC)
    definition = FunctionDefinition(
        name="nested", module=module,
        compiled=compile_module(module), entry="main",
    )
    return Faaslet(definition, StandaloneEnvironment(), tier=tier)


@pytest.mark.parametrize("tier", ["compiled", "interp"])
def test_sampling_captures_nested_stacks(tier):
    profiler = ContinuousProfiler(interval=1)  # sample every guest call
    faaslet = _faaslet(tier=tier)
    profiler.attach(faaslet.instance, "nested")
    code, _ = faaslet.call(b"")
    assert code == 0
    assert profiler.functions() == ["nested"]
    stacks = profiler.stacks("nested")
    assert profiler.sample_count("nested") > 0
    # The nested call chain appears as a 3-deep stack, weighted.
    assert any(
        stack[-3:] == ("main", "middle", "inner") for stack in stacks
    ), stacks
    assert all(weight >= 1 for weight in stacks.values())


def test_interval_thins_samples():
    dense, sparse = ContinuousProfiler(interval=1), ContinuousProfiler(interval=64)
    for profiler in (dense, sparse):
        faaslet = _faaslet()
        profiler.attach(faaslet.instance, "nested")
        assert faaslet.call(b"")[0] == 0
    assert 0 < sparse.sample_count("nested") < dense.sample_count("nested")


def test_unprofiled_instance_has_no_tap():
    faaslet = _faaslet()
    assert faaslet.instance._profiler is None
    assert faaslet.call(b"")[0] == 0


def test_attach_is_idempotent_and_detachable():
    profiler = ContinuousProfiler(interval=1)
    faaslet = _faaslet()
    profiler.attach(faaslet.instance, "nested")
    tap = faaslet.instance._profiler
    profiler.attach(faaslet.instance, "nested")
    assert faaslet.instance._profiler is tap
    profiler.detach(faaslet.instance)
    assert faaslet.instance._profiler is None


def test_invalid_interval_rejected():
    with pytest.raises(ValueError):
        ContinuousProfiler(interval=0)


def test_collapsed_round_trip_is_exact():
    stacks = {
        ("main",): 10,
        ("main", "middle"): 7,
        ("main", "middle", "inner"): 23,
    }
    text = to_collapsed(stacks)
    assert "main;middle;inner 23" in text.splitlines()
    assert load_collapsed(text) == stacks


def test_speedscope_round_trip_is_exact():
    stacks = {
        ("main",): 4,
        ("main", "helper"): 9,
    }
    doc = to_speedscope("nested", stacks)
    assert doc["$schema"] == SPEEDSCOPE_SCHEMA
    profile = doc["profiles"][0]
    assert profile["type"] == "sampled"
    assert len(profile["samples"]) == len(profile["weights"]) == len(stacks)
    assert load_speedscope(doc) == stacks


def test_live_exports_parse_back():
    profiler = ContinuousProfiler(interval=1)
    faaslet = _faaslet()
    profiler.attach(faaslet.instance, "nested")
    assert faaslet.call(b"")[0] == 0
    stacks = profiler.stacks("nested")
    assert load_collapsed(profiler.collapsed("nested")) == stacks
    assert load_speedscope(profiler.speedscope("nested")) == stacks
