"""The online trace miner: finished spans -> per-function access profiles.

Traces record *what one invocation did*; the experiments need *what a
function habitually does*: which state keys it pulls and pushes and how
many bytes and round trips that costs, how many snapshot pages a restore
ships, how much fuel it burns, what it chains into, where its latency
goes. A :class:`TraceMiner` folds every finished span — hooked on
:class:`~repro.telemetry.trace.Tracer`'s ``on_finish`` callback — into one
:class:`AccessProfile` per function, as the span ends.

A span is attributed when it is opened: the worker running a call
activates the call's trace context together with its function
(:meth:`~repro.telemetry.trace.Tracer.activate`), and every span opened
under it carries that function as its owner. A chained callee's spans are
the callee's, because its worker activates the callee. ``call.invoke``
counts a call; every other owned span adds a phase and its state, snapshot,
fuel or fan-out figures. Spans opened outside any call (external
``call.dispatch`` roots, their ``schedule`` span, pre-warm
``snapshot.pull``\\ s) have no owner and are not folded; ``call.retry``
folds by its ``function`` attribute. Nothing is buffered.

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

class KeyProfile:
    """What one function does to one state key."""

    def __init__(self):
        self.pulls = 0
        self.pushes = 0
        self.bytes_pulled = 0
        self.bytes_pushed = 0
        self.round_trips = 0

    def to_dict(self) -> dict:
        return {
            "pulls": self.pulls,
            "pushes": self.pushes,
            "bytes_pulled": self.bytes_pulled,
            "bytes_pushed": self.bytes_pushed,
            "round_trips": self.round_trips,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "KeyProfile":
        kp = cls()
        kp.pulls = data["pulls"]
        kp.pushes = data["pushes"]
        kp.bytes_pulled = data["bytes_pulled"]
        kp.bytes_pushed = data["bytes_pushed"]
        kp.round_trips = data["round_trips"]
        return kp


class AccessProfile:
    """Everything mined about one function, across all its invocations."""

    SCHEMA = "repro-profile/2"

    def __init__(self, function: str):
        self.function = function
        self.calls = 0
        self.cold_starts = 0
        self.errors = 0
        self.retries = 0
        #: retry/fault cause -> count (chaos attribution, satellite 1).
        self.fault_causes: dict[str, int] = {}
        self.latency = StreamingHistogram()
        self.fuel = StreamingHistogram()
        #: phase name -> [count, total seconds] over the calls' spans.
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


class TraceMiner:
    """Folds finished spans into per-function :class:`AccessProfile`\\ s.

    A live profile's ``latency`` and ``fuel`` are the registry's
    ``function.latency`` / ``function.fuel`` series for that function
    (``Telemetry`` observes them before the span reaches :meth:`fold`), so
    each distribution is kept once."""

    def __init__(self, metrics):
        self._lock = threading.Lock()
        self._metrics = metrics
        self._profiles: dict[str, AccessProfile] = {}
        #: Spans folded into a profile (observability of the miner itself).
        self.spans_mined = 0

    # ------------------------------------------------------------------
    # Span intake (Tracer on_finish)
    # ------------------------------------------------------------------
    def fold(self, span) -> None:
        """Consume one finished span (called on the finishing thread)."""
        name, attrs = span.name, span.attrs
        function = span.function
        if name == "call.retry":
            # Placed from outside the call, a retry names its function.
            function = attrs.get("function", "?")
        if function is None:
            return  # opened outside any call: a dispatch root, a pre-warm
        with self._lock:
            profile = self._profiles.get(function)
            if profile is None:
                profile = self._profiles[function] = AccessProfile(function)
            self.spans_mined += 1
            if name == "call.retry":
                profile.retries += 1
                cause = attrs.get("fault") or attrs.get("reason")
                if cause:
                    causes = profile.fault_causes
                    causes[cause] = causes.get(cause, 0) + 1
            elif name == "call.invoke":
                if not profile.calls:
                    profile.latency = self._metrics.histogram(
                        "function.latency", function=function
                    )
                profile.calls += 1
                if attrs.get("cold_start"):
                    profile.cold_starts += 1
                if attrs.get("return_code", 0) not in (0, None):
                    profile.errors += 1
                if span.host:
                    profile.hosts[span.host] = profile.hosts.get(span.host, 0) + 1
                queue_wait = attrs.get("queue_wait_s")
                if queue_wait is not None:
                    profile.add_phase("queue.wait", queue_wait)
            else:
                self._fold_phase(profile, span)

    def _fold_phase(self, profile: AccessProfile, sp) -> None:
        profile.add_phase(sp.name, sp.duration)
        attrs = sp.attrs
        if sp.name == "guest.exec":
            if attrs.get("fuel_consumed") is not None and not profile.fuel.count:
                profile.fuel = self._metrics.histogram(
                    "function.fuel", function=profile.function
                )
        elif sp.name == "state.pull":
            kp = profile.key_profile(attrs.get("key", "?"))
            kp.pulls += 1
            kp.bytes_pulled += attrs.get("bytes", 0)
            kp.round_trips += attrs.get("round_trips", 0)
        elif sp.name == "state.push":
            kp = profile.key_profile(attrs.get("key", "?"))
            kp.pushes += 1
            kp.bytes_pushed += attrs.get("bytes", 0)
            kp.round_trips += attrs.get("round_trips", 0)
        elif sp.name == "snapshot.pull":
            outcome = attrs.get("outcome")
            snap = profile.snapshot
            if outcome == "cached":
                snap["cached"] += 1
            elif outcome == "pulled":
                snap["restores"] += 1
                snap["payload_pages"] += attrs.get("payload_pages", 0)
                snap["missing_pages"] += attrs.get("missing_pages", 0)
                snap["bytes_shipped"] += attrs.get("bytes_shipped", 0)
        elif sp.name == "call.dispatch":
            callee = attrs.get("function", "?")
            profile.chains[callee] = profile.chains.get(callee, 0) + 1

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
