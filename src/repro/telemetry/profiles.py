"""The online trace miner: finished spans -> per-function access profiles.

Traces record *what one invocation did*; the experiments need *what a
function habitually does*: which state keys it touches and at which byte
ranges, how many snapshot pages a restore ships, how much fuel it burns,
what it chains into, where its latency goes. A :class:`TraceMiner` folds
every finished span — hooked on :class:`~repro.telemetry.trace.Tracer`'s
``on_finish`` callback, so mining is online and needs no post-hoc span walk
— into one :class:`AccessProfile` per function.

Folding is driven by ``call.invoke`` spans: children always finish
before their parents (the span context manager guarantees it), so when
an invoke span finishes, every span of that invocation is already
buffered. The miner walks the buffered spans' parent chains to claim the
invoke's descendants, attributes them to the invoked function, and drops
them from the buffer. Spans that never fall under an invoke (external
``call.dispatch`` roots, pre-warm ``snapshot.pull``\\ s) age out of the
bounded buffer.

Profiles persist **content-addressed** in the cluster's
:class:`~repro.host.filesystem.GlobalObjectStore` via
:class:`ProfileStore`: the JSON payload's digest names the artifact, a
per-function ``HEAD`` names the latest.
"""

from __future__ import annotations

import hashlib
import json
import threading
from urllib.parse import quote, unquote

from .streaming import StreamingHistogram

#: Span buffer bound: traces older than the newest ``_MAX_TRACES`` are
#: dropped wholesale (an unclaimed dispatch/pre-warm span must not leak).
_MAX_TRACES = 4096
#: Per-profile bound on distinct byte ranges tracked per state key.
_MAX_RANGES = 128
#: Growth factor for profile-embedded histograms.
_HIST_GROWTH = 1.08


class RangeCounter:
    """Byte-range hit counts for one state key, bounded in size.

    Ranges are kept exactly as observed (the access pattern — chunk
    boundaries included — is the signal); when the table is full, the
    coldest range is evicted to admit a new one.
    """

    def __init__(self, max_ranges: int = _MAX_RANGES):
        self.max_ranges = max_ranges
        self._ranges: dict[tuple[int, int], int] = {}

    def add(self, start: int, end: int, hits: int = 1) -> None:
        key = (int(start), int(end))
        current = self._ranges.get(key)
        if current is not None:
            self._ranges[key] = current + hits
            return
        if len(self._ranges) >= self.max_ranges:
            coldest = min(
                self._ranges.items(), key=lambda kv: (kv[1], kv[0])
            )[0]
            if self._ranges[coldest] > hits:
                # The newcomer is colder than everything resident:
                # admitting it would evict a hotter range (and a stream
                # of one-hit ranges could flush the whole table).
                return
            del self._ranges[coldest]
        self._ranges[key] = hits

    def hot(self, top: int | None = None) -> list[tuple[int, int, int]]:
        """(start, end, hits) sorted by hits descending, hottest first."""
        ranked = sorted(
            ((s, e, n) for (s, e), n in self._ranges.items()),
            key=lambda r: (-r[2], r[0], r[1]),
        )
        return ranked if top is None else ranked[:top]

    def total_hits(self) -> int:
        return sum(self._ranges.values())

    def coverage(self) -> int:
        """Bytes covered by at least one tracked range (overlaps merged)."""
        total = 0
        cursor = None
        for s, e in sorted(self._ranges):
            if cursor is None or s > cursor:
                total += e - s
                cursor = e
            elif e > cursor:
                total += e - cursor
                cursor = e
        return total

    def merge(self, other: "RangeCounter") -> None:
        for (s, e), n in other._ranges.items():
            self.add(s, e, n)

    def __len__(self) -> int:
        return len(self._ranges)

    def to_dict(self) -> list[list[int]]:
        return [[s, e, n] for s, e, n in self.hot()]

    @classmethod
    def from_dict(cls, data, max_ranges: int = _MAX_RANGES) -> "RangeCounter":
        counter = cls(max_ranges)
        for s, e, n in data:
            counter.add(s, e, n)
        return counter


class KeyProfile:
    """What one function does to one state key."""

    def __init__(self):
        self.pulls = 0
        self.pushes = 0
        self.bytes_pulled = 0
        self.bytes_pushed = 0
        self.round_trips = 0
        self.reads = RangeCounter()
        self.writes = RangeCounter()

    def to_dict(self) -> dict:
        return {
            "pulls": self.pulls,
            "pushes": self.pushes,
            "bytes_pulled": self.bytes_pulled,
            "bytes_pushed": self.bytes_pushed,
            "round_trips": self.round_trips,
            "reads": self.reads.to_dict(),
            "writes": self.writes.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "KeyProfile":
        kp = cls()
        kp.pulls = data["pulls"]
        kp.pushes = data["pushes"]
        kp.bytes_pulled = data["bytes_pulled"]
        kp.bytes_pushed = data["bytes_pushed"]
        kp.round_trips = data["round_trips"]
        kp.reads = RangeCounter.from_dict(data["reads"])
        kp.writes = RangeCounter.from_dict(data["writes"])
        return kp


class AccessProfile:
    """Everything mined about one function, across all its invocations."""

    SCHEMA = "repro-profile/1"

    def __init__(self, function: str):
        self.function = function
        self.calls = 0
        self.cold_starts = 0
        self.errors = 0
        self.retries = 0
        #: retry/fault cause -> count (chaos attribution, satellite 1).
        self.fault_causes: dict[str, int] = {}
        self.latency = StreamingHistogram(_HIST_GROWTH)
        self.fuel = StreamingHistogram(_HIST_GROWTH)
        #: phase name -> [count, total seconds] over descendant spans.
        self.phases: dict[str, list] = {}
        #: state key -> KeyProfile.
        self.state: dict[str, KeyProfile] = {}
        self.snapshot = {
            "restores": 0,
            "cached": 0,
            "payload_pages": 0,
            "missing_pages": 0,
            "bytes_shipped": 0,
        }
        #: chained callee -> count (fan-out).
        self.chains: dict[str, int] = {}
        #: executing host -> count (placement spread).
        self.hosts: dict[str, int] = {}

    # ------------------------------------------------------------------
    def key_profile(self, key: str) -> KeyProfile:
        kp = self.state.get(key)
        if kp is None:
            kp = self.state[key] = KeyProfile()
        return kp

    def add_phase(self, name: str, duration: float) -> None:
        entry = self.phases.get(name)
        if entry is None:
            self.phases[name] = [1, duration]
        else:
            entry[0] += 1
            entry[1] += duration

    def to_dict(self) -> dict:
        return {
            "schema": self.SCHEMA,
            "function": self.function,
            "calls": self.calls,
            "cold_starts": self.cold_starts,
            "errors": self.errors,
            "retries": self.retries,
            "fault_causes": dict(sorted(self.fault_causes.items())),
            "latency": self.latency.to_dict(),
            "fuel": self.fuel.to_dict(),
            "phases": {
                name: [c, t] for name, (c, t) in sorted(self.phases.items())
            },
            "state": {
                key: kp.to_dict() for key, kp in sorted(self.state.items())
            },
            "snapshot": dict(self.snapshot),
            "chains": dict(sorted(self.chains.items())),
            "hosts": dict(sorted(self.hosts.items())),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AccessProfile":
        profile = cls(data["function"])
        profile.calls = data["calls"]
        profile.cold_starts = data["cold_starts"]
        profile.errors = data["errors"]
        profile.retries = data["retries"]
        profile.fault_causes = dict(data["fault_causes"])
        profile.latency = StreamingHistogram.from_dict(data["latency"])
        profile.fuel = StreamingHistogram.from_dict(data["fuel"])
        profile.phases = {k: list(v) for k, v in data["phases"].items()}
        profile.state = {
            k: KeyProfile.from_dict(v) for k, v in data["state"].items()
        }
        profile.snapshot = dict(data["snapshot"])
        profile.chains = dict(data["chains"])
        profile.hosts = dict(data["hosts"])
        return profile


def _span_ranges(span) -> list[tuple[int, int]]:
    ranges = span.attrs.get("ranges")
    if not ranges:
        return []
    return [(int(s), int(e)) for s, e in ranges]


class TraceMiner:
    """Folds finished spans into per-function :class:`AccessProfile`\\ s."""

    def __init__(self, max_traces: int = _MAX_TRACES):
        self._lock = threading.Lock()
        self.max_traces = max_traces
        #: trace id -> {span id -> Span} for not-yet-claimed spans.
        self._buffer: dict[str, dict[str, object]] = {}
        self._profiles: dict[str, AccessProfile] = {}
        #: Spans folded into a profile (observability of the miner itself).
        self.spans_mined = 0
        #: Spans dropped by the trace-buffer bound without being claimed.
        self.spans_evicted = 0

    # ------------------------------------------------------------------
    # Span intake (Tracer on_finish)
    # ------------------------------------------------------------------
    def fold(self, span) -> None:
        """Consume one finished span (called on the finishing thread)."""
        with self._lock:
            trace = self._buffer.get(span.trace_id)
            if trace is None:
                trace = self._buffer[span.trace_id] = {}
                if len(self._buffer) > self.max_traces:
                    # Evict the oldest trace wholesale (dict preserves
                    # insertion order); its spans were never claimed.
                    oldest = next(iter(self._buffer))
                    self.spans_evicted += len(self._buffer.pop(oldest))
            trace[span.span_id] = span
            if span.name == "call.invoke":
                self._fold_invocation(span, trace)
            elif span.name == "call.retry":
                self._fold_retry(span)

    def _descendants(self, invoke, trace: dict) -> list:
        """Buffered spans whose parent chain reaches ``invoke``."""
        out = []
        for sp in trace.values():
            if sp is invoke:
                continue
            cursor = sp
            for _ in range(64):  # parent chains are shallow; stay bounded
                parent = trace.get(cursor.parent_id)
                if parent is None:
                    break
                if parent is invoke:
                    out.append(sp)
                    break
                cursor = parent
        return out

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    def _fold_invocation(self, invoke, trace: dict) -> None:
        function = invoke.attrs.get("function", "?")
        profile = self._profiles.get(function)
        if profile is None:
            profile = self._profiles[function] = AccessProfile(function)

        profile.calls += 1
        profile.latency.observe(invoke.duration)
        if invoke.attrs.get("cold_start"):
            profile.cold_starts += 1
        if invoke.attrs.get("return_code", 0) not in (0, None):
            profile.errors += 1
        if invoke.host:
            profile.hosts[invoke.host] = profile.hosts.get(invoke.host, 0) + 1
        queue_wait = invoke.attrs.get("queue_wait_s")
        if queue_wait is not None:
            profile.add_phase("queue.wait", queue_wait)

        descendants = self._descendants(invoke, trace)
        for sp in descendants:
            del trace[sp.span_id]
            # An inner chained call's own invoke was folded (and charged
            # to the callee) when it finished; here it only marks time the
            # outer function spent awaiting, already visible in call.await.
            if sp.name != "call.invoke":
                profile.add_phase(sp.name, sp.duration)
            self.spans_mined += 1
            if sp.name == "guest.exec":
                fuel = sp.attrs.get("fuel_consumed")
                if fuel is not None:
                    profile.fuel.observe(fuel)
            elif sp.name == "state.pull":
                kp = profile.key_profile(sp.attrs.get("key", "?"))
                kp.pulls += 1
                kp.bytes_pulled += sp.attrs.get("bytes", 0)
                kp.round_trips += sp.attrs.get("round_trips", 0)
                for s, e in _span_ranges(sp):
                    kp.reads.add(s, e)
            elif sp.name == "state.push":
                kp = profile.key_profile(sp.attrs.get("key", "?"))
                kp.pushes += 1
                kp.bytes_pushed += sp.attrs.get("bytes", 0)
                kp.round_trips += sp.attrs.get("round_trips", 0)
                for s, e in _span_ranges(sp):
                    kp.writes.add(s, e)
            elif sp.name == "state.access":
                kp = profile.key_profile(sp.attrs.get("key", "?"))
                counter = (
                    kp.writes if sp.attrs.get("mode") == "write" else kp.reads
                )
                for s, e in _span_ranges(sp):
                    counter.add(s, e)
            elif sp.name == "snapshot.pull":
                outcome = sp.attrs.get("outcome")
                snap = profile.snapshot
                if outcome == "cached":
                    snap["cached"] += 1
                elif outcome == "pulled":
                    snap["restores"] += 1
                    snap["payload_pages"] += sp.attrs.get("payload_pages", 0)
                    snap["missing_pages"] += sp.attrs.get("missing_pages", 0)
                    snap["bytes_shipped"] += sp.attrs.get("bytes_shipped", 0)
            elif sp.name == "call.dispatch":
                callee = sp.attrs.get("function", "?")
                profile.chains[callee] = profile.chains.get(callee, 0) + 1
        self.spans_mined += 1
        # The invoke span itself stays buffered: an outer invocation (this
        # was a chained call) still claims it as an await marker. Ambient
        # leftovers age out with the trace.

    def _fold_retry(self, retry) -> None:
        function = retry.attrs.get("function", "?")
        profile = self._profiles.get(function)
        if profile is None:
            profile = self._profiles[function] = AccessProfile(function)
        profile.retries += 1
        cause = retry.attrs.get("fault") or retry.attrs.get("reason")
        if cause:
            profile.fault_causes[cause] = profile.fault_causes.get(cause, 0) + 1

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def functions(self) -> list[str]:
        with self._lock:
            return sorted(self._profiles)

    def profile(self, function: str) -> AccessProfile | None:
        with self._lock:
            return self._profiles.get(function)

    def profiles(self) -> dict[str, AccessProfile]:
        with self._lock:
            return dict(self._profiles)

    def buffered_spans(self) -> int:
        with self._lock:
            return sum(len(t) for t in self._buffer.values())


class ProfileStore:
    """Content-addressed persistence for access profiles.

    Layout in the global object store::

        profiles/<function>/<digest>.json   immutable, digest-named payload
        profiles/<function>/HEAD            digest of the latest profile

    The digest is over the canonical JSON payload, so identical profiles
    dedup to one artifact and ``HEAD`` flips atomically between versions.
    Function names are URL-quoted in the path (names may contain ``/``).
    """

    PREFIX = "profiles"

    def __init__(self, store):
        self.store = store

    def _dir(self, function: str) -> str:
        return f"{self.PREFIX}/{quote(function, safe='')}"

    # ------------------------------------------------------------------
    def save(self, profile: AccessProfile) -> str:
        """Persist ``profile``; returns the content digest."""
        payload = json.dumps(
            profile.to_dict(), sort_keys=True, separators=(",", ":")
        ).encode()
        digest = hashlib.blake2b(payload, digest_size=16).hexdigest()
        directory = self._dir(profile.function)
        self.store.upload(f"{directory}/{digest}.json", payload)
        self.store.upload(f"{directory}/HEAD", digest.encode())
        return digest

    def head(self, function: str) -> str | None:
        path = f"{self._dir(function)}/HEAD"
        if not self.store.exists(path):
            return None
        return self.store.get(path).decode()

    def load(self, function: str, digest: str | None = None) -> AccessProfile | None:
        digest = digest or self.head(function)
        if digest is None:
            return None
        path = f"{self._dir(function)}/{digest}.json"
        if not self.store.exists(path):
            return None
        return AccessProfile.from_dict(json.loads(self.store.get(path)))

    def functions(self) -> list[str]:
        seen = set()
        prefix = self.PREFIX + "/"
        for path in self.store.list(self.PREFIX):
            rest = path[len(prefix):] if path.startswith(prefix) else path
            seen.add(unquote(rest.split("/", 1)[0]))
        return sorted(seen)

    def digests(self, function: str) -> list[str]:
        directory = self._dir(function) + "/"
        out = []
        for path in self.store.list(self._dir(function)):
            name = path[len(directory):]
            if name.endswith(".json"):
                out.append(name[: -len(".json")])
        return sorted(out)
