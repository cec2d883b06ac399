"""Trace mining: cluster runs -> per-function access profiles -> store.

The tentpole scenario: a chained multi-host run must yield mined
profiles showing state keys with byte-ranges, snapshot pages, chain
fan-out and phase breakdowns — and the profiles must round-trip through
the content-addressed object store unchanged.
"""

from __future__ import annotations

import threading

import pytest

from repro.host.filesystem import GlobalObjectStore
from repro.runtime import FaasmCluster
from repro.telemetry import AccessProfile, ProfileStore, Telemetry, TraceContext

KERNEL_SRC = """
global int ready = 0;
export void init() {
    int[] warm = new int[65536];
    for (int i = 0; i < 65536; i = i + 2048) { warm[i] = i + 1; }
    ready = 1;
}
export int main() { return 0; }
"""

CHUNK = 4096
GRID = 4 * CHUNK


def _pipeline(ctx):
    ctx.state.get_state("grid", GRID)
    ctx.state.push_state("grid")
    cids = [ctx.chain("stage", str(i).encode()) for i in range(4)]
    ctx.await_all(cids)
    ctx.write_output(b"done")


def _stage(ctx):
    slot = int(ctx.input())
    offset = slot * CHUNK
    view = ctx.state.get_state_offset("grid", offset, CHUNK)
    view[0] = (view[0] + 1) % 256
    ctx.state.push_state_offset("grid", offset, CHUNK)
    ctx.write_output(b"ok")


@pytest.fixture
def mined_cluster():
    telemetry = Telemetry(enabled=True, per_function=True)
    cluster = FaasmCluster(n_hosts=2, telemetry=telemetry)
    cluster.register_python("pipeline", _pipeline)
    cluster.register_python("stage", _stage)
    cluster.upload("kernel", KERNEL_SRC, init="init")
    # Share stages to the other host so state movement is real.
    cluster.warm_sets.add("stage", "host-1")
    yield cluster
    cluster.shutdown()


def _drive(cluster, rounds=3):
    for _ in range(rounds):
        assert cluster.invoke("pipeline")[0] == 0
        assert cluster.invoke("kernel")[0] == 0


class TestMinedProfiles:
    def test_chained_run_mines_all_functions(self, mined_cluster):
        _drive(mined_cluster)
        miner = mined_cluster.profiles
        assert miner.functions() == ["kernel", "pipeline", "stage"]
        assert miner.spans_mined > 0

    def test_miner_holds_no_span(self, mined_cluster):
        _drive(mined_cluster)
        miner = mined_cluster.profiles
        # Every span is folded as it finishes: the only collection the
        # miner keeps is one profile per function, nothing per trace.
        containers = {
            name for name, value in vars(miner).items()
            if isinstance(value, (dict, list, set, tuple))
        }
        assert containers == {"_profiles"}
        assert len(miner.profiles()) == 3
        assert all(
            isinstance(p, AccessProfile) for p in miner.profiles().values()
        )

    def test_state_key_and_byte_range_profiles(self, mined_cluster):
        _drive(mined_cluster)
        stage = mined_cluster.profiles.profile("stage")
        assert stage.calls == 12
        kp = stage.state["grid"]
        assert kp.pushes == 12
        assert kp.bytes_pushed == 12 * CHUNK
        # Remote placement makes at least some pulls real.
        assert kp.pulls > 0

    def test_chain_fanout_and_phases(self, mined_cluster):
        _drive(mined_cluster)
        pipeline = mined_cluster.profiles.profile("pipeline")
        assert pipeline.chains == {"stage": 12}
        for phase in ("guest.exec", "queue.wait", "call.dispatch"):
            count, total = pipeline.phases[phase]
            assert count > 0 and total >= 0.0
        assert pipeline.latency.count == pipeline.calls == 3

    def test_snapshot_page_profile(self, mined_cluster):
        _drive(mined_cluster)
        kernel = mined_cluster.profiles.profile("kernel")
        snap = kernel.snapshot
        assert snap["restores"] >= 1
        assert snap["payload_pages"] > 0
        assert snap["bytes_shipped"] > 0
        assert kernel.cold_starts >= 1
        assert kernel.fuel.count == kernel.calls

    def test_object_store_round_trip(self, mined_cluster):
        _drive(mined_cluster)
        digests = cluster_digests = mined_cluster.persist_profiles()
        assert set(cluster_digests) == {"kernel", "pipeline", "stage"}
        for fn, digest in digests.items():
            mined = mined_cluster.profiles.profile(fn)
            loaded = mined_cluster.load_profile(fn)
            assert loaded.to_dict() == mined.to_dict()
            assert mined_cluster.profile_store.head(fn) == digest
        # Identical content re-saves to the same digest (dedup).
        assert mined_cluster.persist_profiles() == digests


class TestProfileStore:
    def test_head_flips_between_versions(self):
        store = ProfileStore(GlobalObjectStore())
        p1 = AccessProfile("fn")
        p1.calls = 1
        d1 = store.save(p1)
        p1.calls = 2
        d2 = store.save(p1)
        assert d1 != d2
        assert store.head("fn") == d2
        assert store.load("fn").calls == 2
        assert store.load("fn", d1).calls == 1
        assert store.digests("fn") == sorted([d1, d2])

    def test_function_names_with_slashes(self):
        store = ProfileStore(GlobalObjectStore())
        profile = AccessProfile("ns/sub/fn")
        store.save(profile)
        assert store.functions() == ["ns/sub/fn"]
        assert store.load("ns/sub/fn").function == "ns/sub/fn"

    def test_missing_profile_is_none(self):
        store = ProfileStore(GlobalObjectStore())
        assert store.load("ghost") is None
        assert store.head("ghost") is None


class TestMinerMechanics:
    def test_retry_span_folds_cause(self):
        telemetry = Telemetry(enabled=True, per_function=True)
        with telemetry.tracer.trace(
            "call.retry", host="h", function="flaky", attempt=1
        ) as sp:
            sp.set_attr("fault", "drop")
        with telemetry.tracer.trace(
            "call.retry", host="h", function="flaky", attempt=2,
            reason="attempt timed out",
        ):
            pass
        profile = telemetry.profiles.profile("flaky")
        assert profile.retries == 2
        assert profile.fault_causes == {"drop": 1, "attempt timed out": 1}

    def test_long_call_keeps_its_state_under_a_flood(self):
        # A call that is still running while more than 4 096 other calls
        # finish must keep every span it opened: its state push is folded
        # when the push ends, not when the call does.
        telemetry = Telemetry(enabled=True, per_function=True)
        cluster = FaasmCluster(n_hosts=2, telemetry=telemetry)
        release = threading.Event()

        def slow(ctx):
            ctx.state.get_state("k", CHUNK)
            ctx.state.push_state("k")
            release.wait(60)
            ctx.write_output(b"ok")

        try:
            cluster.register_python("slow", slow)
            cluster.register_python("noop", lambda ctx: ctx.write_output(b"ok"))
            slow_id = cluster.dispatch("slow")
            flood = [cluster.dispatch("noop") for _ in range(4200)]
            for call_id in flood:
                assert cluster.calls.wait(call_id, 60) == 0
            release.set()
            assert cluster.calls.wait(slow_id, 60) == 0
            cluster.drain()
            profile = cluster.profiles.profile("slow")
            assert profile.calls == 1
            kp = profile.state["k"]
            assert (kp.pushes, kp.bytes_pushed) == (1, CHUNK)
            assert profile.phases["state.push"][0] == 1
            assert cluster.profiles.profile("noop").calls == 4200
        finally:
            release.set()
            cluster.shutdown()

    def test_spans_outside_a_call_are_not_folded(self):
        telemetry = Telemetry(enabled=True, per_function=True)
        with telemetry.tracer.trace("call.dispatch", host="h", function="f"):
            with telemetry.tracer.trace("schedule"):
                pass
        assert telemetry.profiles.profiles() == {}
        assert telemetry.profiles.spans_mined == 0

    def test_fuel_series_only_for_functions_that_burn_fuel(self):
        telemetry = Telemetry(enabled=True, per_function=True)
        tracer = telemetry.tracer
        for function, fuel in (("wasm", 120), ("py", None)):
            with tracer.activate(
                TraceContext("t" + function, None), "h", function=function
            ):
                with tracer.trace("call.invoke", function=function):
                    with tracer.trace("guest.exec", function=function) as sp:
                        if fuel is not None:
                            sp.set_attr("fuel_consumed", fuel)
        metrics, miner = telemetry.metrics, telemetry.profiles
        assert set(metrics.series("function.fuel")) == {
            "function.fuel{function=wasm}"
        }
        # The live profile's distributions are the registry's series.
        assert miner.profile("wasm").fuel is metrics.histogram(
            "function.fuel", function="wasm"
        )
        assert miner.profile("py").latency is metrics.histogram(
            "function.latency", function="py"
        )
        assert miner.profile("py").fuel.count == 0
