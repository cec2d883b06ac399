"""Distributed shared-state scheduling (§5.1) with snapshot locality.

FAASM's local schedulers cooperate through the global state tier, in the
style of Omega: the set of warm hosts for each function lives under a state
key, and every scheduler may read and atomically update it while making a
placement decision. An incoming call is executed locally when the receiving
host is warm and has capacity, shared with another warm host when one
exists, and otherwise cold-started — preferring a *page-resident* host
(one whose PageStore already covers the function's snapshot manifest, so
the restore ships no or few pages) over a genuinely cold one. Placement
quality is therefore warm > mostly-resident > cold, which is what keeps
Fig. 10 churn migration cost at O(delta) instead of O(snapshot size).

Residency advertisements live next to the warm sets in the global tier and
are, like them, advisory: stale or missing entries only cost transfer
bytes, never correctness.

**The dispatch hot path is de-locked** (DESIGN.md §11): parsed warm-set
and residency snapshots are memoised per function behind an epoch + TTL
cache, so back-to-back dispatches of the same function cost zero
global-tier reads — the registry bumps a per-key epoch on every mutation
it performs (every mutation in this in-process deployment goes through the
shared registry), and the TTL bounds staleness against writers the epoch
cannot see. A stale snapshot is at worst a slightly worse *advisory*
placement, never a correctness issue. :meth:`LocalScheduler.schedule_batch`
is the one placement rule: it amortises one snapshot read and one capacity
survey over however many calls the cluster places at once (one for a
dispatched or chained call, a batch for the ingestion plane).
"""

from __future__ import annotations

import json
import threading
import time
from collections import namedtuple
from dataclasses import dataclass

from repro.state.kv import (
    GlobalStateStore,
    StateKeyError,
    StateUnavailableError,
)
from repro.telemetry import MetricsRegistry, span

_WARM_PREFIX = "faasm/sched/warm/"
_RESIDENT_PREFIX = "faasm/sched/resident/"

#: How long a cached warm-set/residency snapshot may serve reads without
#: revalidation. The per-key epoch catches every mutation made through
#: the shared registry instantly; the TTL only bounds staleness against
#: out-of-band writers (tests poking the store, a future multi-process
#: deployment), so it can be generous.
DEFAULT_CACHE_TTL = 0.5


#: Placements that start a new Faaslet on the target (restore or boot).
_COLD_REASONS = frozenset({"cold-local", "resident", "cold-spread"})


@dataclass
class SchedulingDecision:
    host: str
    #: "warm-local", "shared", "resident", "cold-local", or "cold-spread"
    #: (a batch's cold overflow placed on a live peer).
    reason: str

    @property
    def is_cold(self) -> bool:
        """True when the target must cold-start (restore or boot) — both
        genuinely cold and page-resident placements start a new Faaslet."""
        return self.reason in _COLD_REASONS


#: The two kinds of advisory record as ``(parse, default, dump)`` between
#: stored bytes (a sorted JSON list of warm hosts; a key-sorted JSON object
#: ``host -> coverage``) and the cached snapshot, which is never mutated:
#: every change builds a new one, so all readers may share it.
_WARM = (
    lambda raw: frozenset(json.loads(raw.decode())),
    frozenset(),
    lambda hosts: json.dumps(sorted(hosts)).encode(),
)
_RESIDENT = (
    lambda raw: {h: float(c) for h, c in json.loads(raw.decode()).items()},
    {},
    lambda entries: json.dumps(entries, sort_keys=True).encode(),
)


_CacheEntry = namedtuple("_CacheEntry", "epoch expires value raw")


class WarmSetRegistry:
    """The per-function warm-host sets, held in the global state tier.

    Warm sets are *advisory* routing data: when the global tier is
    transiently unavailable (a chaos stripe outage), reads degrade to "no
    warm hosts" (the scheduler cold-starts locally) and writes are dropped
    — the set self-heals on the next cold start — instead of taking the
    dispatch path down with the state tier.

    Reads are served from a per-key **epoch/TTL cache** of the parsed
    snapshot: a mutation through this registry bumps the key's epoch and
    **writes through** (caches the snapshot it computed at the new epoch, so
    the next placement pass hits), and entries also expire after
    ``cache_ttl`` seconds as a backstop against writers the epoch cannot
    observe. The cache takes the global-tier round trip and the JSON parse
    off the dispatch hot path (``sched.cache_hits`` / ``sched.cache_misses``).
    """

    def __init__(
        self,
        store: GlobalStateStore,
        cache_ttl: float = DEFAULT_CACHE_TTL,
        metrics: MetricsRegistry | None = None,
    ):
        self.store = store
        self.cache_ttl = cache_ttl
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._cache_hits = metrics.counter("sched.cache_hits")
        self._cache_misses = metrics.counter("sched.cache_misses")
        self._cache: dict[str, _CacheEntry] = {}
        self._epochs: dict[str, int] = {}
        self._cache_lock = threading.Lock()

    def _key(self, function: str) -> str:
        return _WARM_PREFIX + function

    # ------------------------------------------------------------------
    # Epoch/TTL snapshot cache
    # ------------------------------------------------------------------
    def _install(self, key: str, value=None, raw=None) -> None:
        """A mutation went through this registry: bump the key's epoch so
        every cached parse of it is dead and, when the store took it, cache
        the new snapshot (``value``, stored as ``raw``) at the new epoch."""
        with self._cache_lock:
            epoch = self._epochs[key] = self._epochs.get(key, 0) + 1
            if value is not None:
                expires = time.monotonic() + self.cache_ttl
                self._cache[key] = _CacheEntry(epoch, expires, value, raw)

    def _live_entry(self, key: str, now: float) -> tuple[_CacheEntry | None, int]:
        """``key``'s cached entry when its epoch still matches and the TTL
        has not lapsed at ``now`` (else None), and the key's current epoch."""
        with self._cache_lock:
            entry = self._cache.get(key)
            epoch = self._epochs.get(key, 0)
        live = entry is not None and entry.epoch == epoch and now < entry.expires
        return (entry if live else None), epoch

    def _mutate(self, key: str, codec, change) -> None:
        """The one write path: apply ``change`` to ``key``'s parsed snapshot
        atomically in the store and write the result through to the cache
        *from inside the update*, while the key's stripe is held, so cache
        installs happen in store order. A ``change`` the live cached snapshot
        already satisfies is no store trip; a dark tier caches nothing."""
        parse, default, dump = codec
        entry, _epoch = self._live_entry(key, time.monotonic())
        if entry is not None and change(entry.value) == entry.value:
            return

        def update(old: bytes | None) -> bytes:
            # Stored bytes the cached snapshot stands for need no second parse.
            known = entry is not None and old == entry.raw
            value = change(entry.value if known else parse(old) if old else default)
            raw = dump(value)
            self._install(key, value, raw)
            return raw

        try:
            self.store.atomic_update(key, update)
        except StateUnavailableError:
            self._install(key)

    def _cached_read(self, key: str, codec):
        """The memoised read-through: parsed snapshot of ``key``, from
        cache when its epoch still matches and the TTL has not lapsed."""
        parse, default, _dump = codec
        now = time.monotonic()
        entry, epoch = self._live_entry(key, now)
        if entry is not None:
            self._cache_hits.inc()
            return entry.value
        self._cache_misses.inc()
        try:
            raw, _version = self.store.get_value_versioned(key)
            value = parse(raw)
        except StateKeyError:
            raw, value = None, default
        except StateUnavailableError:
            # Degrade without caching: the tier is dark, answer "empty"
            # now but re-probe as soon as it is back.
            return default
        with self._cache_lock:
            # Tagged with the epoch read *before* the store round trip: a
            # concurrent mutation at worst wastes this entry, never lets
            # a stale parse outlive its epoch.
            self._cache[key] = _CacheEntry(epoch, now + self.cache_ttl, value, raw)
        return value

    def cache_info(self) -> dict:
        """Hit/miss counters and entry count (tests, ``repro ingest``)."""
        with self._cache_lock:
            entries = len(self._cache)
        return {
            "hits": int(self._cache_hits.value),
            "misses": int(self._cache_misses.value),
            "entries": entries,
        }

    # ------------------------------------------------------------------
    # Warm sets
    # ------------------------------------------------------------------
    def warm_hosts(self, function: str) -> set[str]:
        return set(self._cached_read(self._key(function), _WARM))

    def add(self, function: str, host: str) -> None:
        self._mutate(self._key(function), _WARM, lambda hosts: hosts | {host})

    def remove(self, function: str, host: str) -> None:
        self._mutate(self._key(function), _WARM, lambda hosts: hosts - {host})

    def functions(self) -> list[str]:
        """Every function that currently has a warm set."""
        return [
            key[len(_WARM_PREFIX):]
            for key in self.store.keys()
            if key.startswith(_WARM_PREFIX)
        ]

    # ------------------------------------------------------------------
    # Snapshot residency advertisements (locality-aware placement)
    # ------------------------------------------------------------------
    def _resident_key(self, function: str) -> str:
        return _RESIDENT_PREFIX + function

    def resident_hosts(self, function: str) -> dict[str, float]:
        """Hosts whose PageStore (partially) covers ``function``'s current
        snapshot, mapped to their advertised coverage fraction."""
        return dict(self._cached_read(self._resident_key(function), _RESIDENT))

    def advertise_residency(self, function: str, host: str, coverage: float) -> None:
        """A host just materialised (or refreshed) ``function``'s snapshot:
        record what fraction of the manifest's pages it holds."""
        key, mine = self._resident_key(function), {host: round(float(coverage), 4)}
        self._mutate(key, _RESIDENT, lambda entries: {**entries, **mine})

    def withdraw_residency(self, function: str, host: str) -> None:
        key = self._resident_key(function)
        self._mutate(key, _RESIDENT, lambda old: {h: old[h] for h in old if h != host})

    def resident_functions(self) -> list[str]:
        return [
            key[len(_RESIDENT_PREFIX):]
            for key in self.store.keys()
            if key.startswith(_RESIDENT_PREFIX)
        ]

    def evict_host(self, host: str) -> int:
        """Drop ``host`` from every function's warm set and residency map
        (the host died — its pools *and* its page cache are gone); returns
        the number of warm sets it was actually removed from."""
        evicted = 0
        for function in self.functions():
            if host in self.warm_hosts(function):
                self.remove(function, host)
                evicted += 1
        for function in self.resident_functions():
            if host in self.resident_hosts(function):
                self.withdraw_residency(function, host)
        return evicted


class LocalScheduler:
    """One host's scheduler; consults and updates the shared warm sets."""

    def __init__(
        self,
        host: str,
        warm_sets: WarmSetRegistry,
        capacity_fn,
        peer_capacity_fn,
        live_fn=None,
        peers_fn=None,
    ):
        """``capacity_fn() -> int`` reports this host's free slots;
        ``peer_capacity_fn(host) -> int`` reports a peer's;
        ``live_fn(host) -> bool`` (optional) reports host liveness so a
        dead host still listed in a warm set is never chosen;
        ``peers_fn() -> list[str]`` (optional) lists every live host, the
        universe :meth:`schedule_batch` spreads cold overflow over."""
        self.host = host
        self.warm_sets = warm_sets
        self._capacity = capacity_fn
        self._peer_capacity = peer_capacity_fn
        self._live = live_fn if live_fn is not None else (lambda host: True)
        self._peers = peers_fn if peers_fn is not None else (lambda: [host])
        #: Decision counters for tests/benchmarks.
        self.decisions: dict[str, int] = {
            "warm-local": 0,
            "shared": 0,
            "resident": 0,
            "cold-local": 0,
            "cold-spread": 0,
        }

    def _resident_candidate(self, function: str, room) -> str | None:
        """The best live page-resident host with a free slot (per the
        pass's capacity model ``room(host)``), or None.

        Candidates rank by advertised PageStore coverage of the function's
        snapshot manifest (then by name, for determinism): restoring where
        the pages already live ships only the missing delta, so a
        mostly-resident host beats a genuinely cold one even though both
        must start a fresh Faaslet.
        """
        resident = self.warm_sets.resident_hosts(function)
        ranked = sorted(resident.items(), key=lambda hc: (-hc[1], hc[0]))
        for host, coverage in ranked:
            if coverage > 0.0 and self._live(host) and room(host) > 0:
                return host
        return None

    def schedule(self, function: str) -> SchedulingDecision:
        """Place one call: the one-element form of :meth:`schedule_batch`."""
        return self.schedule_batch(function, 1)[0]

    def schedule_batch(self, function: str, count: int) -> list[SchedulingDecision]:
        """Place ``count`` calls of one function in a single pass.

        The one placement rule (§5.1), applied in order until every call
        has a host:

        1. **warm capacity** — this host when it is warm and has a free
           slot (``warm-local``), then warm peers by name (``shared``);
        2. **page-resident host** — the best live host whose PageStore
           already covers the snapshot, up to its free slots
           (``resident``): it must restore, but ships few or no pages;
        3. **cold start where a slot is free** — the entry host first
           (``cold-local``), then live peers (``cold-spread``);
        4. **overflow**, only once no live host has a free slot — queue
           round-robin on the warm hosts when some exist (the calls wait
           for warm Faaslets), otherwise spread over the live hosts so a
           cold burst lands cluster-wide instead of serialising on the
           entry host.

        The warm-set and residency snapshots are read once (usually
        straight from the epoch cache) and each candidate's capacity is
        surveyed at most once; placements draw it down against a local
        model instead of re-querying per call. Hosts that will start a
        Faaslet are advertised warm optimistically, so the next pass
        shares work with them.
        """
        if count <= 0:
            return []
        with span("schedule", function=function) as sp:
            me, live = self.host, self._live
            # Candidate lists put the entry host first, then peers by name.
            warm = sorted(filter(live, self.warm_sets.warm_hosts(function)))
            if me in warm:
                warm.remove(me)
                warm.insert(0, me)
            free: dict[str, int] = {}
            starting: set[str] = set()
            decisions: list[SchedulingDecision] = []

            def room(host: str) -> int:
                n = free.get(host)
                if n is None:
                    n = free[host] = max(
                        0,
                        self._capacity() if host == me
                        else self._peer_capacity(host),
                    )
                return n

            def place(host: str, on_self: str, on_peer: str, n: int) -> None:
                n = min(n, count - len(decisions))
                if n > 0:
                    reason = on_self if host == me else on_peer
                    if reason in _COLD_REASONS:
                        starting.add(host)
                    decisions.extend([SchedulingDecision(host, reason)] * n)
                    self.decisions[reason] += n
                    free[host] = free.get(host, 0) - n

            for host in warm:
                place(host, "warm-local", "shared", room(host))
            if len(decisions) < count:
                resident_to = self._resident_candidate(function, room)
                if resident_to is not None:
                    place(resident_to, "resident", "resident", room(resident_to))
            if len(decisions) < count:
                peers = [me] + [h for h in self._peers() if h != me and live(h)]
                for host in peers:
                    place(host, "cold-local", "cold-spread", room(host))
                queue_on, on_self, on_peer = (
                    (warm, "warm-local", "shared") if warm
                    else (peers, "cold-local", "cold-spread")
                )
                share, extra = divmod(count - len(decisions), len(queue_on))
                for i, host in enumerate(queue_on):
                    place(host, on_self, on_peer, share + (i < extra))
            for host in sorted(starting):
                self.warm_sets.add(function, host)
            sp.set_attr("count", count)
            sp.set_attr("reason", decisions[0].reason)
            sp.set_attr("warm_hosts", len(warm))
        return decisions
