"""Ingestion plane tests: WFQ admission, batched dispatch, autoscaling.

Covers the open-loop million-call plane of DESIGN.md §11 — the
AdmissionController's stride-scheduling fairness bound (as a hypothesis
property), shed/defer backpressure, batched end-to-end execution through
``ExecuteBatch``, the batched scheduler, the warm-set epoch cache's
global-tier round-trip elimination, and the reactive autoscaler.
"""

import itertools
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import CallStatus, FaasmCluster
from repro.runtime.autoscale import Autoscaler, AutoscalePolicy
from repro.runtime.ingest import (
    AdmissionController,
    IngestionConfig,
    TenantSpec,
)
from repro.runtime.monitor import RetryPolicy
from repro.runtime.scheduler import LocalScheduler, WarmSetRegistry
from repro.state.kv import GlobalStateStore
from tests.conftest import wait_for


def _echo(ctx):
    ctx.write_output(b"ok:" + ctx.input())
    return 0


def _slow(ctx):
    time.sleep(0.05)
    ctx.write_output(b"done")
    return 0


# ---------------------------------------------------------------------------
# Admission control: weighted fairness and backpressure
# ---------------------------------------------------------------------------


@given(
    weights=st.lists(
        st.sampled_from([0.5, 1.0, 2.0, 4.0]), min_size=2, max_size=4
    ),
    batch=st.integers(min_value=1, max_value=16),
    draws=st.integers(min_value=1, max_value=40),
    extra_offers=st.lists(
        st.integers(min_value=0, max_value=3), max_size=60
    ),
)
@settings(max_examples=100, deadline=None)
def test_wfq_never_exceeds_weight_share_by_more_than_one_batch(
    weights, batch, draws, extra_offers
):
    """The stride-scheduling bound: a continuously-backlogged tenant's
    service never exceeds its weight share of total service by more than
    one batch (the service quantum), at every step of any interleaving."""
    names = [f"t{i}" for i in range(len(weights))]
    config = IngestionConfig(
        batch_size=batch,
        tenants=tuple(
            TenantSpec(name, weight=w, queue_limit=10**9)
            for name, w in zip(names, weights)
        ),
    )
    admission = AdmissionController(config)
    # Pre-fill deep enough that every tenant stays backlogged throughout.
    for name in names:
        for _ in range(batch * draws):
            admission.offer(name, object)
    extras = iter(extra_offers)
    weight_sum = sum(weights)
    served = dict.fromkeys(names, 0)
    total = 0
    for _ in range(draws):
        # Adversarial interleaving: more offers land mid-stream.
        for tenant_index in itertools.islice(extras, 2):
            if tenant_index < len(names):
                admission.offer(names[tenant_index], object)
        name, items = admission.next_batch(batch)
        assert name is not None and items
        served[name] += len(items)
        total += len(items)
        for tenant, weight in zip(names, weights):
            share = (weight / weight_sum) * total
            assert served[tenant] <= share + batch + 1e-9, (
                f"{tenant} served {served[tenant]} of {total}, "
                f"fair share {share:.2f} + quantum {batch}"
            )


def test_admission_defers_then_admits_again():
    config = IngestionConfig(
        tenants=(TenantSpec("a", queue_limit=2, on_full="defer"),)
    )
    admission = AdmissionController(config)
    assert admission.offer("a", object)[0] == "admitted"
    assert admission.offer("a", object)[0] == "admitted"
    outcome, item = admission.offer("a", object)
    assert outcome == "deferred" and item is None
    admission.next_batch(1)
    assert admission.offer("a", object)[0] == "admitted"


def test_admission_shed_never_calls_make_item():
    """Shed offers must create no call record — nothing to strand."""
    config = IngestionConfig(
        tenants=(TenantSpec("a", queue_limit=1, on_full="shed"),)
    )
    admission = AdmissionController(config)
    made = []
    admission.offer("a", lambda: made.append(1))
    outcome, _ = admission.offer("a", lambda: made.append(1))
    assert outcome == "shed"
    assert len(made) == 1


def test_idle_tenant_earns_no_credit():
    """A tenant re-entering the backlog is caught up to virtual time: its
    idle period cannot be banked as a service burst."""
    config = IngestionConfig(
        batch_size=4,
        tenants=(
            TenantSpec("busy", weight=1.0, queue_limit=10**6),
            TenantSpec("lurker", weight=1.0, queue_limit=10**6),
        ),
    )
    admission = AdmissionController(config)
    for _ in range(400):
        admission.offer("busy", object)
    for _ in range(50):
        admission.next_batch(4)
    # The lurker arrives late; it must not monopolise service to "repay"
    # its idle time — with equal weights, service alternates.
    for _ in range(400):
        admission.offer("lurker", object)
    first_eight = [
        admission.next_batch(4)[0] for _ in range(8)
    ]
    assert first_eight.count("lurker") <= 5


def test_unknown_tenant_uses_defaults():
    config = IngestionConfig(default_weight=2.5, default_queue_limit=7)
    admission = AdmissionController(config)
    assert admission.offer("walk-in", object)[0] == "admitted"
    stats = admission.stats()
    assert stats["walk-in"]["weight"] == 2.5
    assert stats["walk-in"]["queue_limit"] == 7


@pytest.mark.parametrize("bad", [
    {"on_full": "drop"},
    {"weight": 0.0},
    {"weight": float("nan")},
    {"queue_limit": -1},
], ids=["on_full-drop", "weight-zero", "weight-nan", "queue_limit-negative"])
def test_tenant_spec_refuses_a_bad_contract(bad):
    with pytest.raises(ValueError):
        TenantSpec("t", **bad)


@pytest.mark.parametrize("bad", [
    {"default_on_full": "drop"},
    {"default_weight": 0.0},
    {"default_weight": float("nan")},
    {"default_queue_limit": -1},
], ids=["on_full-drop", "weight-zero", "weight-nan", "queue_limit-negative"])
def test_ingestion_config_refuses_bad_defaults_when_built(bad):
    # Refused at construction, before any unknown tenant offers a call.
    with pytest.raises(ValueError):
        IngestionConfig(**bad)


# ---------------------------------------------------------------------------
# Batched dispatch end-to-end
# ---------------------------------------------------------------------------


def test_batched_ingestion_end_to_end():
    """One bulk ``submit_many`` queues all its calls before placing any,
    so they travel as batches."""
    cluster = FaasmCluster(n_hosts=2)
    try:
        cluster.register_python("echo", _echo)
        plane = cluster.ingestion(IngestionConfig(batch_size=16))
        inputs = [str(i).encode() for i in range(200)]
        results = cluster.submit_many("echo", inputs)
        assert [outcome for _, outcome in results] == ["admitted"] * 200
        plane.drain(timeout=30.0)
        for data, (call_id, _) in zip(inputs, results):
            record = cluster.calls.get(call_id)
            assert record.status is CallStatus.SUCCEEDED
            assert record.output_data == b"ok:" + data
        stats = cluster.bus.stats
        assert stats.batched_calls == 200 > stats.batches
    finally:
        cluster.shutdown()


def test_submit_unknown_function_raises():
    cluster = FaasmCluster(n_hosts=1)
    try:
        with pytest.raises(KeyError):
            cluster.submit("ghost")
    finally:
        cluster.shutdown()


def _hold(target, attr, thread_name, when=lambda result: True):
    """Replace ``target.attr`` so that the thread named ``thread_name``
    stops in it (after the real call, once ``when(result)``) until
    ``release`` is set; ``held`` is set when it stops."""
    held, release = threading.Event(), threading.Event()
    real = getattr(target, attr)

    def gated(*args, **kwargs):
        result = real(*args, **kwargs)
        if threading.current_thread().name == thread_name and when(result):
            held.set()
            release.wait(10.0)
        return result

    setattr(target, attr, gated)
    return held, release


def _submit_in_thread(cluster, name, *args, **kwargs):
    """Run ``cluster.submit`` on a thread called ``name``; returns the
    thread and a list its result lands in."""
    result = []
    thread = threading.Thread(
        target=lambda: result.append(cluster.submit(*args, **kwargs)),
        name=name,
    )
    thread.start()
    return thread, result


def test_submit_tenant_backpressure_defers():
    """While one submitter is placing, the bounded queue fills and the
    next offer hits backpressure deterministically."""
    cluster = FaasmCluster(n_hosts=1)
    try:
        cluster.register_python("echo", _echo)
        plane = cluster.ingestion(
            IngestionConfig(tenants=(TenantSpec("tiny", queue_limit=1),))
        )
        held, release = _hold(cluster, "dispatch_batch", "submitter-a")
        thread, first = _submit_in_thread(
            cluster, "submitter-a", "echo", b"a", tenant="tiny"
        )
        assert held.wait(5.0)
        call_b, outcome = cluster.submit("echo", b"b", tenant="tiny")
        assert outcome == "admitted"
        assert cluster.submit("echo", b"c", tenant="tiny") == (None, "deferred")
        release.set()
        thread.join(10.0)
        plane.drain(timeout=10.0)
        for call_id in (first[0][0], call_b):
            assert cluster.calls.get(call_id).status is CallStatus.SUCCEEDED
    finally:
        cluster.shutdown()


@pytest.mark.parametrize("held_in", ["dispatch_batch", "last_pick"])
def test_no_admitted_call_strands(held_in):
    """Submitter B offers while submitter A holds the serving lock, and
    returns with its call still queued; A places it once released —
    within its loop (held in ``dispatch_batch``) or by the backlog
    re-check after letting go of the lock (held after the empty pick that
    ended its loop). Nobody calls ``drain``."""
    cluster = FaasmCluster(n_hosts=1)
    try:
        cluster.register_python("echo", _echo)
        plane = cluster.ingestion()
        if held_in == "dispatch_batch":
            held, release = _hold(cluster, "dispatch_batch", "submitter-a")
        else:
            held, release = _hold(
                plane.admission, "next_batch", "submitter-a",
                when=lambda result: not result[1],
            )
        thread, first = _submit_in_thread(cluster, "submitter-a", "echo", b"a")
        assert held.wait(5.0)
        # B must find the bus empty, or it would leave its call to the
        # worker that takes A's message.
        wait_for(lambda: not cluster.bus.total_pending())
        call_b, outcome = cluster.submit("echo", b"b")
        assert outcome == "admitted"
        record = cluster.calls.get(call_b)
        assert record.status is CallStatus.PENDING
        assert plane.admission.backlog() == 1
        release.set()
        assert record.done.wait(10.0), "B's call stranded in admission"
        assert record.status is CallStatus.SUCCEEDED
        thread.join(10.0)
        assert cluster.calls.get(first[0][0]).done.wait(10.0)
    finally:
        cluster.shutdown()


def test_a_burst_of_submits_travels_in_batches():
    """A submitter that keeps the GIL leaves its calls behind the message
    still on the bus, and the worker that takes it places them as
    batches; every call finishes without a ``drain``."""
    cluster = FaasmCluster(n_hosts=2)
    interval = sys.getswitchinterval()
    try:
        cluster.register_python("echo", _echo)
        cluster.ingestion(IngestionConfig(batch_size=64))
        sys.setswitchinterval(1.0)  # no worker runs until the loop ends
        ids = [cluster.submit("echo", b"%d" % i)[0] for i in range(200)]
        sys.setswitchinterval(interval)
        for record in cluster.calls.get_many(ids):
            assert record.done.wait(10.0), f"call {record.call_id} stranded"
            assert record.status is CallStatus.SUCCEEDED
        stats = cluster.bus.stats
        # The first call alone, then 199 in batches of at most 64 (one
        # message per target host each).
        assert stats.batched_calls == 200
        assert stats.batches <= 1 + 4 * 2
    finally:
        sys.setswitchinterval(interval)
        cluster.shutdown()


def test_no_admitted_call_strands_under_contention():
    """Six submitters racing for the serving lock with the GIL switching
    as often as it can: every admitted call finishes, and none waits for
    a ``drain`` to be placed."""
    cluster = FaasmCluster(n_hosts=2)
    interval = sys.getswitchinterval()
    try:
        cluster.register_python("echo", _echo)
        plane = cluster.ingestion(IngestionConfig(batch_size=4))
        ids: list = []

        def submitter():
            for i in range(200):
                call_id, outcome = cluster.submit("echo", b"%d" % i)
                assert outcome == "admitted"
                ids.append(call_id)

        sys.setswitchinterval(1e-6)
        threads = [
            threading.Thread(target=submitter) for _ in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert len(ids) == 1200
        for record in cluster.calls.get_many(ids):
            assert record.done.wait(30.0), f"call {record.call_id} stranded"
            assert record.status is CallStatus.SUCCEEDED
        assert plane.admission.backlog() == 0
    finally:
        sys.setswitchinterval(interval)
        cluster.shutdown()


def test_chained_calls_still_work_under_ingestion():
    """Workers running pooled parents must never deadlock on chained calls:
    a chained call is unpooled, so it never waits for an occupied worker."""

    def parent(ctx):
        cid = ctx.chain("child", b"7")
        code = ctx.await_call(cid)
        ctx.write_output(b"via:" + ctx.call_output(cid))
        return code

    def child(ctx):
        ctx.write_output(b"c" + ctx.input())
        return 0

    cluster = FaasmCluster(n_hosts=2, capacity=2)
    try:
        cluster.register_python("parent", parent)
        cluster.register_python("child", child)
        plane = cluster.ingestion(IngestionConfig(batch_size=8))
        ids = [cluster.submit("parent")[0] for _ in range(24)]
        plane.drain(timeout=30.0)
        for call_id in ids:
            record = cluster.calls.get(call_id)
            assert record.status is CallStatus.SUCCEEDED
            assert record.output_data == b"via:c7"
    finally:
        cluster.shutdown()


def test_submit_yields_the_same_span_tree_as_dispatch():
    """An ingested call is traced like a directly dispatched one: its own
    ``call.dispatch`` root, the receiving executor's ``call.invoke`` under
    it across the bus hop, ``guest.exec`` under that."""
    from repro.telemetry import Telemetry
    from repro.telemetry.export import build_trees

    cluster = FaasmCluster(n_hosts=2, telemetry=Telemetry(enabled=True))
    try:
        cluster.register_python("echo", _echo)
        direct = cluster.dispatch("echo", b"a")
        cluster.calls.wait(direct, 10.0)
        admitted, outcome = cluster.submit("echo", b"b")
        assert outcome == "admitted"
        cluster.ingestion().drain(timeout=10.0)
        roots = {
            root.span.attrs["call_id"]: root
            for root in build_trees(cluster.trace_spans())
        }
        assert set(roots) == {direct, admitted}
        shapes = {}
        for call_id, root in roots.items():
            assert root.name == "call.dispatch"
            (invoke,) = [c for c in root.children if c.name == "call.invoke"]
            assert invoke.span.attrs["call_id"] == call_id
            assert "guest.exec" in [c.name for c in invoke.children]
            shapes[call_id] = sorted(node.name for node in root.walk())
        assert shapes[direct] == shapes[admitted]
        assert roots[direct].span.trace_id != roots[admitted].span.trace_id
    finally:
        cluster.shutdown()


def test_submit_leaving_its_entry_host_is_one_shared_batch():
    """An ingested call placed on a peer rides the one road as a single
    shared batch (the work message itself carries no state hints: what a
    forced pull moves is decided by the pull)."""
    cluster = FaasmCluster(n_hosts=2)
    try:
        cluster.register_python("echo", _echo)
        # echo is warm on host-1 only, so the batch crosses hosts.
        cluster.warm_sets.add("echo", "host-1")
        sent = []
        send_many = cluster.bus.send_many
        cluster.bus.send_many = lambda host, messages: (
            sent.extend((host, m) for m in messages),
            send_many(host, messages),
        )
        call_id, _ = cluster.submit("echo", b"x")
        cluster.ingestion().drain(timeout=10.0)
        assert cluster.calls.get(call_id).status is CallStatus.SUCCEEDED
        ((host, batch),) = sent
        assert host == "host-1" and batch.shared
        assert not hasattr(batch, "invalidate")
    finally:
        cluster.shutdown()


def test_drain_waits_for_a_batch_between_queue_and_bus():
    """A batch a submitter has taken from admission but not yet placed
    is in neither queue; ``drain`` must still wait for it."""
    cluster = FaasmCluster(n_hosts=1)
    try:
        cluster.register_python("echo", _echo)
        plane = cluster.ingestion()
        held, release = _hold(cluster, "dispatch_batch", "submitter")
        thread, result = _submit_in_thread(cluster, "submitter", "echo", b"x")
        assert held.wait(5.0)
        threading.Timer(0.2, release.set).start()
        plane.drain(timeout=10.0)
        thread.join(10.0)
        call_id, _ = result[0]
        assert cluster.calls.get(call_id).status is CallStatus.SUCCEEDED
    finally:
        cluster.shutdown()


def test_ingestion_stats_shape():
    cluster = FaasmCluster(n_hosts=1)
    try:
        assert cluster.ingestion_stats() == {}
        cluster.register_python("echo", _echo)
        plane = cluster.ingestion()
        cluster.submit("echo", b"1", tenant="gold")
        plane.drain(timeout=10.0)
        stats = cluster.ingestion_stats()
        assert set(stats) == {"sojourn_p50_s", "sojourn_p99_s", "tenants"}
        assert stats["tenants"]["gold"]["served"] == 1
    finally:
        cluster.shutdown()


def test_ingestion_config_not_hot_swappable():
    cluster = FaasmCluster(n_hosts=1)
    try:
        cluster.ingestion(IngestionConfig(batch_size=8))
        with pytest.raises(RuntimeError):
            cluster.ingestion(IngestionConfig(batch_size=16))
    finally:
        cluster.shutdown()


# ---------------------------------------------------------------------------
# Batched scheduling and the warm-set epoch cache
# ---------------------------------------------------------------------------


def _scheduler(store, host="host-0", capacity=4, peers=("host-0", "host-1")):
    warm_sets = WarmSetRegistry(store)
    return warm_sets, LocalScheduler(
        host,
        warm_sets,
        capacity_fn=lambda: capacity,
        peer_capacity_fn=lambda h: capacity,
        peers_fn=lambda: list(peers),
    )


def test_schedule_batch_fills_warm_then_overflows_round_robin():
    store = GlobalStateStore()
    warm_sets, scheduler = _scheduler(store, capacity=3)
    warm_sets.add("fn", "host-0")
    warm_sets.add("fn", "host-1")
    decisions = scheduler.schedule_batch("fn", 10)
    assert len(decisions) == 10
    hosts = [d.host for d in decisions]
    # Tier 1: 3 local warm + 3 shared; tier 3: overflow round-robins.
    assert hosts[:3] == ["host-0"] * 3
    assert hosts[3:6] == ["host-1"] * 3
    assert set(hosts[6:]) == {"host-0", "host-1"}
    assert abs(hosts[6:].count("host-0") - hosts[6:].count("host-1")) <= 1


def test_schedule_batch_cold_spreads_over_live_hosts():
    store = GlobalStateStore()
    warm_sets, scheduler = _scheduler(
        store, capacity=2, peers=("host-0", "host-1", "host-2")
    )
    decisions = scheduler.schedule_batch("cold-fn", 9)
    hosts = {d.host for d in decisions}
    assert hosts == {"host-0", "host-1", "host-2"}
    reasons = {d.reason for d in decisions}
    assert "cold-spread" in reasons
    # The placed hosts are advertised warm for the next round.
    assert warm_sets.warm_hosts("cold-fn") == hosts


def test_warm_set_cache_elides_global_tier_reads():
    """Satellite regression: N same-function schedules must not cost N
    global-tier round trips — the epoch cache absorbs repeats."""
    store = GlobalStateStore()
    reads = {"n": 0}
    original = store.get_value_versioned

    def counting(key):
        reads["n"] += 1
        return original(key)

    store.get_value_versioned = counting
    warm_sets, scheduler = _scheduler(store, capacity=8)
    warm_sets.add("fn", "host-0")
    baseline = reads["n"]
    for _ in range(200):
        scheduler.schedule("fn")
    # 200 schedules each consult the warm snapshot: uncached that is 200
    # round trips; the epoch cache collapses it to the first read (plus
    # TTL refreshes, absent here because the loop runs well under a TTL).
    assert reads["n"] - baseline <= 4
    info = warm_sets.cache_info()
    assert info["hits"] >= 190


def test_warm_set_cache_invalidates_on_mutation():
    store = GlobalStateStore()
    warm_sets = WarmSetRegistry(store)
    warm_sets.add("fn", "host-0")
    assert warm_sets.warm_hosts("fn") == {"host-0"}
    warm_sets.add("fn", "host-1")
    assert warm_sets.warm_hosts("fn") == {"host-0", "host-1"}
    warm_sets.remove("fn", "host-0")
    assert warm_sets.warm_hosts("fn") == {"host-1"}


def test_dispatch_path_round_trips_bounded():
    """End-to-end flavour of the same regression: dispatching N calls of
    one warm function costs O(1) global-tier reads, not O(N)."""
    cluster = FaasmCluster(n_hosts=2)
    try:
        cluster.register_python("echo", _echo)
        cluster.invoke("echo", b"warm")  # cold start + warm-set insert
        reads = {"n": 0}
        original = cluster.global_state.get_value_versioned

        def counting(key):
            reads["n"] += 1
            return original(key)

        cluster.global_state.get_value_versioned = counting
        ids = [cluster.dispatch("echo", b"x") for _ in range(50)]
        cluster.drain(timeout=15.0)
        for call_id in ids:
            assert cluster.calls.get(call_id).status is CallStatus.SUCCEEDED
        assert reads["n"] <= 12, (
            f"{reads['n']} global-tier reads for 50 dispatches"
        )
    finally:
        cluster.shutdown()


# ---------------------------------------------------------------------------
# Autoscaler and host lifecycle
# ---------------------------------------------------------------------------


def test_add_host_revives_dead_then_grows():
    cluster = FaasmCluster(n_hosts=2)
    try:
        cluster.instances[1].kill()
        added = cluster.add_host(2)
        # The dead host-1 is revived first, then a fresh host-2 appears.
        assert added == ["host-1", "host-2"]
        assert sorted(cluster.live_hosts()) == ["host-0", "host-1", "host-2"]
        cluster.register_python("echo", _echo)
        assert cluster.invoke("echo", b"hi")[1] == b"ok:hi"
    finally:
        cluster.shutdown()


def test_retire_host_graceful():
    cluster = FaasmCluster(n_hosts=2)
    try:
        cluster.register_python("echo", _echo)
        for _ in range(6):
            cluster.invoke("echo", b"x")
        assert cluster.retire_host("host-1", timeout=5.0)
        assert cluster.live_hosts() == ["host-0"]
        assert "host-1" not in cluster.warm_sets.warm_hosts("echo")
        # The survivor still serves traffic; the last host can't retire.
        assert cluster.invoke("echo", b"y")[1] == b"ok:y"
        assert not cluster.retire_host("host-0")
    finally:
        cluster.shutdown()


def test_autoscaler_grows_on_backlog_and_shrinks_when_idle():
    cluster = FaasmCluster(
        n_hosts=1, capacity=2,
        retry_policy=RetryPolicy(attempt_timeout=30.0),
    )
    try:
        cluster.register_python("slow", _slow)
        scaler = Autoscaler(
            cluster,
            AutoscalePolicy(
                min_hosts=1, max_hosts=3, queue_high=4,
                idle_grace_s=0.2, churn="proto",
            ),
        )
        plane = cluster.ingestion(IngestionConfig(batch_size=8))
        for i in range(40):
            cluster.submit("slow", str(i).encode())
        deadline = time.monotonic() + 5.0
        while scaler.backlog() <= 4 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert scaler.tick() == "up"
        assert len(cluster.live_hosts()) > 1
        assert scaler.events[-1]["action"] == "up"
        assert scaler.events[-1]["churn_cost_s"] >= 0.0

        plane.drain(timeout=30.0)
        # Simulated clock: first idle tick arms the grace period, the
        # second (past it) retires one host.
        now = time.monotonic()
        assert scaler.tick(now=now) == "hold"
        assert scaler.tick(now=now + 1.0) == "down"
        assert scaler.events[-1]["action"] == "down"
        # Retired hosts left the scheduling universe.
        assert all(
            cluster.placement_ok(h) for h in cluster.live_hosts()
        )
    finally:
        cluster.shutdown()


def test_autoscaler_respects_churn_cooldown():
    cluster = FaasmCluster(n_hosts=1, capacity=1)
    try:
        scaler = Autoscaler(
            cluster,
            AutoscalePolicy(max_hosts=8, queue_high=4, churn="docker"),
        )
        # Fake a persistent backlog without touching real queues.
        scaler.backlog = lambda: 10
        assert scaler.tick(now=0.0) == "up"
        # Docker churn prices a multi-second cooldown: an immediate next
        # tick must hold even though the backlog keeps growing.
        assert scaler._cooldown_until > 0.5
        scaler.backlog = lambda: 1000
        assert scaler.tick(now=0.01) == "hold"
        assert scaler.tick(now=scaler._cooldown_until + 0.01) == "up"
    finally:
        cluster.shutdown()


def test_autoscaler_unknown_churn_model_rejected():
    cluster = FaasmCluster(n_hosts=1)
    try:
        with pytest.raises(ValueError):
            Autoscaler(cluster, AutoscalePolicy(churn="vmware"))
    finally:
        cluster.shutdown()


def test_monitor_backlog_grace_excuses_queued_attempts():
    """A SENT attempt whose live target is visibly backlogged is excused
    from the delivery timeout (deep queues are normal under open loop)."""
    cluster = FaasmCluster(
        n_hosts=1,
        retry_policy=RetryPolicy(
            attempt_timeout=0.01, backlog_grace=60.0,
        ),
    )
    try:
        cluster.register_python("slow", _slow)
        plane = cluster.ingestion(IngestionConfig(batch_size=64))
        ids = [cluster.submit("slow")[0] for _ in range(30)]
        plane.drain(timeout=30.0)
        records = [cluster.calls.get(call_id) for call_id in ids]
        assert all(r.status is CallStatus.SUCCEEDED for r in records)
        # The grace must have prevented a retry storm of queued work.
        assert sum(r.retries for r in records) == 0
    finally:
        cluster.shutdown()
