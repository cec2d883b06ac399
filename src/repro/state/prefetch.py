"""Profile-driven proactive data delivery (ROADMAP item 3, DESIGN.md §10).

Faasm's two-tier state design (§4.2) pulls state on demand: a function's
first access to a key pays a global-tier round trip, serialised behind the
snapshot restore on the cold path and behind the chain hop on the chained
path. The profiles PR 7 mines (:mod:`repro.telemetry.profiles`) record
exactly which byte ranges each function touches, so the runtime can move
those bytes *before* the guest asks:

* **Prefetch** — on dispatch, the HEAD :class:`AccessProfile`'s hot read
  ranges are pulled into the local tier concurrently with the snapshot
  restore (:meth:`LocalTier.prefetch_spans`).
* **Pre-placement** — the scheduler's residency ranking warms likely-next
  hosts' page stores with a callee's snapshot pages in the background
  (:meth:`HostSnapshotCache.warm_pages`).

Both are governed by one :class:`DeliveryPolicy` and are *semantically
invisible*: every speculative action is either a legal early demand
operation under the §4.1 consistency model or is proven byte-identical via
global write versions before it substitutes for a demand operation. The
differential suite (``tests/state/test_prefetch_differential.py``) and the
chaos plane hold that line.

Failure handling is strictly degrade-to-demand: a speculative pull that
hits :class:`StateUnavailableError` (or anything else) is abandoned —
never re-driven by an outer retry loop — and the call proceeds on the
demand path as if the prefetch had never been scheduled.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.telemetry import MetricsRegistry

from .kv import StateKeyError, StateUnavailableError
from .local import LocalTier


@dataclass(frozen=True)
class DeliveryPolicy:
    """Knobs for the proactive delivery plane, threaded from the cluster
    down to every host's tier, scheduler, and prefetcher.

    ``confidence`` is the fraction of a function's observed calls that
    must have read a byte range before it is worth prefetching — the
    direct lever on the hit/waste ratio ``repro prefetch`` reports.
    """

    mode: str = "off"
    prefetch: bool = False
    pre_place: bool = False
    confidence: float = 0.6
    top_ranges: int = 8
    #: Hard cap on speculative bytes pulled per dispatch.
    max_bytes_per_call: int = 4 * 1024 * 1024
    #: Most keys considered per dispatch.
    max_keys: int = 8
    #: Run speculative work inline on the dispatching thread instead of
    #: overlapped — deterministic ordering for tests and benchmarks.
    synchronous: bool = False

    @property
    def enabled(self) -> bool:
        return self.prefetch or self.pre_place

    @classmethod
    def off(cls) -> "DeliveryPolicy":
        """Demand-only delivery (the default; PR-7-and-earlier behaviour)."""
        return cls()

    @classmethod
    def conservative(cls, **overrides) -> "DeliveryPolicy":
        """Prefetch only, and only for near-certain ranges."""
        defaults = dict(
            mode="conservative",
            prefetch=True,
            confidence=0.9,
            top_ranges=4,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def aggressive(cls, **overrides) -> "DeliveryPolicy":
        """Prefetch and pre-placement, speculating on anything seen in
        half of the profiled calls."""
        defaults = dict(
            mode="aggressive",
            prefetch=True,
            pre_place=True,
            confidence=0.5,
            top_ranges=16,
        )
        defaults.update(overrides)
        return cls(**defaults)


class PrefetchHandle:
    """One dispatch's in-flight speculative pull (joinable)."""

    def __init__(self, function: str, plan):
        self.function = function
        self.plan = plan
        self.bytes_pulled = 0
        self.aborted = False
        self.done = threading.Event()

    def wait(self, timeout: float | None = None) -> bool:
        return self.done.wait(timeout)


class Prefetcher:
    """Per-host driver of profile-guided state prefetch.

    On dispatch the runtime calls :meth:`begin`, which consults the HEAD
    access profile for the function (plans are cached per profile digest,
    so steady state costs one object-store HEAD lookup) and pulls the hot
    read ranges into the local tier on a background thread — overlapped
    with the snapshot restore that the dispatching thread performs.

    The ledger (:meth:`stats`) attributes every prefetched and every
    demand-hit byte to the function whose profile motivated the pull, so
    ``repro prefetch`` can show hit/waste ratios per function.
    """

    def __init__(
        self,
        host: str,
        tier: LocalTier,
        profile_store,
        policy: DeliveryPolicy,
        metrics: MetricsRegistry | None = None,
    ):
        self.host = host
        self.tier = tier
        self.store = profile_store
        self.policy = policy
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._bytes = metrics.counter("prefetch.bytes", host=host)
        self._hits = metrics.counter("prefetch.hit_bytes", host=host)
        self._aborts = metrics.counter("prefetch.aborted", host=host)
        self._begun = metrics.counter("prefetch.begun", host=host)
        self._lock = threading.Lock()
        #: function -> (profile digest, plan) — invalidated when HEAD moves.
        self._plans: dict[str, tuple[str, tuple]] = {}
        #: key -> function whose profile prefetched it (hit attribution).
        self._key_owner: dict[str, str] = {}
        #: function -> {prefetched_bytes, hit_bytes, aborted}
        self._ledger: dict[str, dict] = {}
        self._outstanding: list[PrefetchHandle] = []
        tier.on_prefetch_hit = self._record_hit

    # ------------------------------------------------------------------
    def plan(self, function: str) -> tuple:
        """The function's prefetch plan: ``((key, ((start, end), ...)),
        ...)`` from the HEAD profile's hot read ranges, or ``()`` when no
        profile exists or nothing clears the confidence threshold."""
        head = self.store.head(function)
        if head is None:
            return ()
        with self._lock:
            cached = self._plans.get(function)
            if cached is not None and cached[0] == head:
                return cached[1]
        profile = self.store.load(function, head)
        plan: tuple = ()
        if profile is not None:
            hot = profile.hot_ranges(
                confidence=self.policy.confidence, top=self.policy.top_ranges
            )
            plan = tuple(
                (key, tuple(spans))
                for key, spans in sorted(hot.items())[: self.policy.max_keys]
            )
        with self._lock:
            self._plans[function] = (head, plan)
        return plan

    def begin(self, function: str) -> PrefetchHandle | None:
        """Kick off the speculative pull for one dispatch of ``function``
        (``None`` when the policy is off or nothing is worth pulling)."""
        if not self.policy.prefetch:
            return None
        try:
            plan = self.plan(function)
        except StateUnavailableError:
            self._aborts.inc()
            return None
        if not plan:
            return None
        handle = PrefetchHandle(function, plan)
        self._begun.inc()
        with self._lock:
            self._outstanding = [
                h for h in self._outstanding if not h.done.is_set()
            ]
            self._outstanding.append(handle)
        if self.policy.synchronous:
            self._run(handle)
        else:
            threading.Thread(
                target=self._run,
                args=(handle,),
                name=f"prefetch-{self.host}-{function}",
                daemon=True,
            ).start()
        return handle

    def hint(self, key: str) -> bool:
        """Guest-initiated prefetch hint (the ``prefetch_state`` host
        call, Tab. 2 extension): pull the key's missing bytes in the
        background. Returns False when the policy disables prefetch."""
        if not self.policy.prefetch:
            return False

        def run():
            try:
                size = self.tier.client.size(key)
                pulled = self.tier.prefetch_spans(
                    key, [(0, size)], self.policy.max_bytes_per_call
                )
                self._bytes.inc(pulled)
            except (StateKeyError, StateUnavailableError):
                self._aborts.inc()
            except Exception:
                self._aborts.inc()

        if self.policy.synchronous:
            run()
        else:
            threading.Thread(
                target=run, name=f"prefetch-hint-{self.host}", daemon=True
            ).start()
        return True

    def _run(self, handle: PrefetchHandle) -> None:
        budget = self.policy.max_bytes_per_call
        try:
            for key, spans in handle.plan:
                if budget <= 0:
                    break
                with self._lock:
                    self._key_owner[key] = handle.function
                try:
                    pulled = self.tier.prefetch_spans(key, spans, budget)
                except StateKeyError:
                    continue  # key gone: nothing to deliver early
                except StateUnavailableError:
                    # Degrade to demand: the guest's own access will ride
                    # the client's bounded retries (or surface the fault
                    # exactly as it would without a prefetcher).
                    handle.aborted = True
                    self._aborts.inc()
                    break
                except Exception:
                    handle.aborted = True
                    self._aborts.inc()
                    break
                budget -= pulled
                handle.bytes_pulled += pulled
                if pulled:
                    self._bytes.inc(pulled)
                    with self._lock:
                        row = self._ledger.setdefault(
                            handle.function,
                            {"prefetched_bytes": 0, "hit_bytes": 0, "aborted": 0},
                        )
                        row["prefetched_bytes"] += pulled
            if handle.aborted:
                with self._lock:
                    row = self._ledger.setdefault(
                        handle.function,
                        {"prefetched_bytes": 0, "hit_bytes": 0, "aborted": 0},
                    )
                    row["aborted"] += 1
        finally:
            handle.done.set()

    def _record_hit(self, key: str, nbytes: int) -> None:
        self._hits.inc(nbytes)
        with self._lock:
            function = self._key_owner.get(key)
            if function is None:
                return
            row = self._ledger.setdefault(
                function, {"prefetched_bytes": 0, "hit_bytes": 0, "aborted": 0}
            )
            row["hit_bytes"] += nbytes

    # ------------------------------------------------------------------
    def quiesce(self, timeout: float = 5.0) -> None:
        """Wait for in-flight speculative pulls to finish."""
        with self._lock:
            handles = list(self._outstanding)
        for handle in handles:
            handle.wait(timeout)

    def stats(self) -> dict[str, dict]:
        """Per-function delivery ledger: bytes prefetched, bytes of those
        actually demanded, and the waste (prefetched but never read)."""
        with self._lock:
            out = {}
            for function, row in sorted(self._ledger.items()):
                waste = max(0, row["prefetched_bytes"] - row["hit_bytes"])
                out[function] = dict(row, waste_bytes=waste)
            return out
