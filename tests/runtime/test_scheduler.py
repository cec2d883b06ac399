"""Shared-state scheduler tests (§5.1) and warm-set registry behaviour."""

import json
import sys
import threading
import time
import zlib

import pytest

from repro.chaos import ChaosEngine, ChaosPlan, StripeOutage
from repro.chaos.state import ChaosStateStore
from repro.runtime.scheduler import LocalScheduler, SchedulingDecision, WarmSetRegistry
from repro.state.kv import GlobalStateStore


@pytest.fixture
def store():
    return GlobalStateStore()


@pytest.fixture
def warm_sets(store):
    return WarmSetRegistry(store)


def make_scheduler(host, warm_sets, capacity=2, peers=None):
    peers = peers if peers is not None else {}
    return LocalScheduler(
        host,
        warm_sets,
        capacity_fn=lambda: capacity,
        peer_capacity_fn=lambda h: peers.get(h, 0),
    )


class TestWarmSetRegistry:
    def test_empty_initially(self, warm_sets):
        assert warm_sets.warm_hosts("fn") == set()

    def test_add_remove(self, warm_sets):
        warm_sets.add("fn", "h1")
        warm_sets.add("fn", "h2")
        assert warm_sets.warm_hosts("fn") == {"h1", "h2"}
        warm_sets.remove("fn", "h1")
        assert warm_sets.warm_hosts("fn") == {"h2"}

    def test_add_is_idempotent(self, warm_sets):
        warm_sets.add("fn", "h1")
        warm_sets.add("fn", "h1")
        assert warm_sets.warm_hosts("fn") == {"h1"}

    def test_sets_live_in_global_state_tier(self, store, warm_sets):
        """The paper stores warm sets in the FAASM global tier."""
        warm_sets.add("fn", "h1")
        raw = store.get_value("faasm/sched/warm/fn")
        assert json.loads(raw.decode()) == ["h1"]

    def test_per_function_isolation(self, warm_sets):
        warm_sets.add("a", "h1")
        warm_sets.add("b", "h2")
        assert warm_sets.warm_hosts("a") == {"h1"}
        assert warm_sets.warm_hosts("b") == {"h2"}


class TestLocalScheduler:
    def test_cold_start_registers_warm(self, warm_sets):
        sched = make_scheduler("h1", warm_sets)
        decision = sched.schedule("fn")
        assert decision.host == "h1"
        assert decision.reason == "cold-local"
        assert decision.is_cold
        assert warm_sets.warm_hosts("fn") == {"h1"}

    def test_warm_local_preferred(self, warm_sets):
        warm_sets.add("fn", "h1")
        sched = make_scheduler("h1", warm_sets)
        decision = sched.schedule("fn")
        assert decision.reason == "warm-local"
        assert decision.host == "h1"

    def test_shared_to_warm_peer_when_not_warm_here(self, warm_sets):
        warm_sets.add("fn", "h2")
        sched = make_scheduler("h1", warm_sets, peers={"h2": 3})
        decision = sched.schedule("fn")
        assert decision.reason == "shared"
        assert decision.host == "h2"

    def test_no_capacity_anywhere_cold_starts_locally(self, warm_sets):
        warm_sets.add("fn", "h2")
        sched = make_scheduler("h1", warm_sets, peers={"h2": 0})
        decision = sched.schedule("fn")
        assert decision.reason == "cold-local"
        assert decision.host == "h1"

    def test_local_full_shares_with_peer(self, warm_sets):
        warm_sets.add("fn", "h1")
        warm_sets.add("fn", "h2")
        sched = make_scheduler("h1", warm_sets, capacity=0, peers={"h2": 1})
        decision = sched.schedule("fn")
        assert decision.reason == "shared"
        assert decision.host == "h2"

    def test_decision_counters(self, warm_sets):
        sched = make_scheduler("h1", warm_sets)
        sched.schedule("fn")  # cold
        sched.schedule("fn")  # warm-local now
        assert sched.decisions["cold-local"] == 1
        assert sched.decisions["warm-local"] == 1

    def test_two_schedulers_share_state(self, warm_sets):
        """Omega-style: schedulers coordinate only through the shared
        warm sets, never directly."""
        s1 = make_scheduler("h1", warm_sets, peers={"h2": 1})
        s2 = make_scheduler("h2", warm_sets, peers={"h1": 1})
        d1 = s1.schedule("fn")
        assert d1.reason == "cold-local"
        # h2's scheduler sees h1's registration through the global tier.
        d2 = s2.schedule("fn")
        assert d2.reason == "shared"
        assert d2.host == "h1"


class TestSnapshotLocality:
    def test_resident_beats_cold_when_no_warm_hosts(self, warm_sets):
        """A repeat invocation lands on the page-resident host when no
        warm host exists: the restore ships only the missing delta."""
        warm_sets.advertise_residency("fn", "h2", 1.0)
        sched = make_scheduler("h1", warm_sets, peers={"h2": 3})
        decision = sched.schedule("fn")
        assert decision.reason == "resident"
        assert decision.host == "h2"
        assert decision.is_cold  # the pool is cold; only the pages are warm
        # The optimistic warm claim mirrors cold-local's.
        assert warm_sets.warm_hosts("fn") == {"h2"}

    def test_warm_local_outranks_residency(self, warm_sets):
        warm_sets.add("fn", "h1")
        warm_sets.advertise_residency("fn", "h2", 1.0)
        sched = make_scheduler("h1", warm_sets, peers={"h2": 3})
        assert sched.schedule("fn").reason == "warm-local"

    def test_shared_outranks_residency(self, warm_sets):
        """A warm peer (live pool) beats a merely page-resident peer."""
        warm_sets.add("fn", "h2")
        warm_sets.advertise_residency("fn", "h3", 1.0)
        sched = make_scheduler("h1", warm_sets, peers={"h2": 1, "h3": 5})
        decision = sched.schedule("fn")
        assert decision.reason == "shared"
        assert decision.host == "h2"

    def test_highest_coverage_host_wins(self, warm_sets):
        warm_sets.advertise_residency("fn", "h2", 0.4)
        warm_sets.advertise_residency("fn", "h3", 0.9)
        sched = make_scheduler("h1", warm_sets, peers={"h2": 3, "h3": 3})
        assert sched.schedule("fn").host == "h3"

    def test_resident_host_needs_capacity_and_liveness(self, warm_sets):
        warm_sets.advertise_residency("fn", "h2", 1.0)
        warm_sets.advertise_residency("fn", "h3", 0.8)
        # h2 is full, h3 is dead: fall back to a local cold start.
        sched = LocalScheduler(
            "h1",
            warm_sets,
            capacity_fn=lambda: 2,
            peer_capacity_fn=lambda h: {"h2": 0, "h3": 5}.get(h, 0),
            live_fn=lambda h: h != "h3",
        )
        decision = sched.schedule("fn")
        assert decision.reason == "cold-local"
        assert decision.host == "h1"

    def test_self_residency_uses_local_capacity(self, warm_sets):
        """The scheduling host itself can be the resident candidate."""
        warm_sets.advertise_residency("fn", "h1", 1.0)
        sched = make_scheduler("h1", warm_sets, capacity=1)
        decision = sched.schedule("fn")
        assert decision.reason == "resident"
        assert decision.host == "h1"

    def test_zero_coverage_advert_ignored(self, warm_sets):
        warm_sets.advertise_residency("fn", "h2", 0.0)
        sched = make_scheduler("h1", warm_sets, peers={"h2": 3})
        assert sched.schedule("fn").reason == "cold-local"

    def test_withdraw_residency(self, warm_sets):
        warm_sets.advertise_residency("fn", "h2", 1.0)
        warm_sets.withdraw_residency("fn", "h2")
        assert warm_sets.resident_hosts("fn") == {}

    def test_evict_host_withdraws_residency(self, warm_sets):
        warm_sets.add("fn", "h2")
        warm_sets.advertise_residency("fn", "h2", 1.0)
        warm_sets.advertise_residency("fn", "h3", 0.5)
        warm_sets.evict_host("h2")
        assert warm_sets.resident_hosts("fn") == {"h3": 0.5}
        assert warm_sets.warm_hosts("fn") == set()

    def test_adverts_live_in_global_state_tier(self, store, warm_sets):
        warm_sets.advertise_residency("fn", "h2", 0.75)
        raw = store.get_value("faasm/sched/resident/fn")
        assert json.loads(raw.decode()) == {"h2": 0.75}


class TestEviction:
    def test_evict_host_clears_every_warm_set(self, warm_sets):
        warm_sets.add("f1", "h1")
        warm_sets.add("f1", "h2")
        warm_sets.add("f2", "h1")
        warm_sets.add("f3", "h2")
        assert warm_sets.evict_host("h1") == 2
        assert warm_sets.warm_hosts("f1") == {"h2"}
        assert warm_sets.warm_hosts("f2") == set()
        assert warm_sets.warm_hosts("f3") == {"h2"}
        # Idempotent: a second eviction finds nothing to remove.
        assert warm_sets.evict_host("h1") == 0

    def test_functions_lists_registered_warm_sets(self, warm_sets):
        warm_sets.add("alpha", "h1")
        warm_sets.add("beta", "h2")
        assert sorted(warm_sets.functions()) == ["alpha", "beta"]

    def test_remove_racing_add_loses_no_updates(self, warm_sets):
        """Concurrent add/remove on one warm set must linearise through
        the store's atomic_update: no lost updates, valid JSON always."""
        import threading

        hosts = [f"h{i}" for i in range(8)]
        # h-keep is added concurrently with removals of other hosts;
        # every add of h-keep must survive every remove of the others.
        for h in hosts:
            warm_sets.add("fn", h)

        def remover(h):
            for _ in range(50):
                warm_sets.remove("fn", h)
                warm_sets.add("fn", h)
            warm_sets.remove("fn", h)

        def keeper():
            for _ in range(200):
                warm_sets.add("fn", "h-keep")

        threads = [threading.Thread(target=remover, args=(h,)) for h in hosts]
        threads.append(threading.Thread(target=keeper))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        final = warm_sets.warm_hosts("fn")
        assert final == {"h-keep"}, final

    def test_all_warm_hosts_evicted_falls_back_to_cold_local(self, warm_sets):
        """When every warm host died, the scheduler must not route to the
        corpses: with liveness wired in it cold-starts locally instead."""
        warm_sets.add("fn", "h2")
        warm_sets.add("fn", "h3")
        live = {"h1"}  # h2/h3 are dead
        sched = LocalScheduler(
            "h1",
            warm_sets,
            capacity_fn=lambda: 2,
            peer_capacity_fn=lambda h: 5,  # capacity alone would pick them
            live_fn=lambda h: h in live,
        )
        decision = sched.schedule("fn")
        assert decision.reason == "cold-local"
        assert decision.host == "h1"
        # Without the liveness filter the same state routes to a corpse.
        blind = LocalScheduler(
            "h4", warm_sets, capacity_fn=lambda: 2, peer_capacity_fn=lambda h: 5
        )
        assert blind.schedule("fn").reason == "shared"


class TestWriteThroughCache:
    """A mutation installs the snapshot it computed, at the bumped epoch, in
    store order — the next placement pass hits instead of re-reading."""

    KEY = "faasm/sched/warm/fn"

    def test_mutations_write_through_and_noops_take_no_store_trip(self, store, warm_sets):
        trips = {"update": 0, "read": 0}
        update, read = store.atomic_update, store.get_value_versioned

        def counting_update(key, fn):
            trips["update"] += 1
            return update(key, fn)

        def counting_read(key):
            trips["read"] += 1
            return read(key)

        store.atomic_update, store.get_value_versioned = counting_update, counting_read
        warm_sets.add("fn", "h1")
        warm_sets.add("fn", "h1")  # already there
        warm_sets.remove("fn", "h2")  # never was
        warm_sets.advertise_residency("fn", "h1", 1.0)
        warm_sets.advertise_residency("fn", "h1", 1.0)
        warm_sets.withdraw_residency("fn", "h2")
        assert warm_sets.warm_hosts("fn") == {"h1"}
        assert warm_sets.resident_hosts("fn") == {"h1": 1.0}
        warm_sets.remove("fn", "h1")
        assert warm_sets.warm_hosts("fn") == set()
        assert trips == {"update": 3, "read": 0}
        assert warm_sets.cache_info()["misses"] == 0
        assert json.loads(store.get_value(self.KEY)) == []

    def test_racing_add_and_remove_leave_cache_equal_to_store(self, store, warm_sets):
        """Two threads add and remove their own host under one key, so
        every mutation is a store trip racing the other thread's; whenever
        both are done, what ``warm_hosts`` serves (always from the cache:
        no read ever misses) is what the store holds."""
        rounds, mismatches = 2000, []

        def check():
            stored = set(json.loads(store.get_value(self.KEY)))
            cached = warm_sets.warm_hosts("fn")
            if cached != stored:
                mismatches.append((cached, stored))

        barrier = threading.Barrier(2, action=check)

        def racer(host):
            for round_ in range(rounds):
                warm_sets.add("fn", host)
                warm_sets.remove("fn", host)
                if round_ % 2:
                    warm_sets.add("fn", host)
                barrier.wait(timeout=30)

        threads = [threading.Thread(target=racer, args=(host,)) for host in ("h1", "h2")]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert warm_sets.cache_info()["misses"] == 0

    def test_outage_during_add_caches_nothing(self):
        stripe = zlib.crc32(self.KEY.encode()) % 16
        engine = ChaosEngine(ChaosPlan(seed=1, stripe_outages=(StripeOutage(stripe, 1, 1),)))
        warm_sets = WarmSetRegistry(ChaosStateStore(engine))
        warm_sets.add("fn", "h1")  # op 0 lands and is written through
        assert warm_sets.cache_info()["entries"] == 1
        warm_sets.add("fn", "h2")  # op 1: the stripe is dark, the write is dropped
        entry, _epoch = warm_sets._live_entry(self.KEY, time.monotonic())
        assert entry is None  # the old snapshot is dead, nothing took its place
        assert warm_sets.warm_hosts("fn") == {"h1"}  # op 2: re-read from the store
        assert warm_sets.cache_info()["misses"] == 1
