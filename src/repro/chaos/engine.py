"""The chaos engine: seeded, identity-hashed fault decisions.

Determinism is the whole design. Drawing from a shared sequential RNG
would make each decision depend on *which thread asked first* — exactly
the nondeterminism chaos testing is supposed to shake out, leaking into
the harness itself. Instead every decision is a pure hash of
``(seed, decision-kind, stable identity)``: the fault assignment for call
17's first dispatch is the same no matter when, where, or on which thread
it is evaluated. Two runs with the same plan therefore inject the same
faults and produce the same canonical event log.
"""

from __future__ import annotations

import hashlib
import threading

from repro.state.kv import StateUnavailableError
from repro.telemetry import MetricsRegistry

from .plan import ChaosEventLog, ChaosPlan


def _hash01(seed: int, kind: str, ident: int) -> float:
    """A uniform [0, 1) value, a pure function of its arguments."""
    raw = hashlib.blake2b(
        f"{seed}:{kind}:{ident}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(raw, "big") / 2**64


class ChaosEngine:
    """Evaluates a :class:`ChaosPlan` against runtime events."""

    def __init__(self, plan: ChaosPlan, metrics: MetricsRegistry | None = None):
        self.plan = plan
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.log = ChaosEventLog()
        self._mutex = threading.Lock()
        #: Crash specs that already fired (each kills a host exactly once).
        self._fired: set[tuple[int, str]] = set()
        self._crashes = {(c.call_id, c.phase): c for c in plan.crashes}
        #: Per-stripe operation counters for outage windows.
        self._stripe_ops: dict[int, int] = {}
        # Outage windows are part of the plan, not of runtime behaviour:
        # log them as armed up front so the canonical log covers them even
        # if no operation ever lands in the window.
        for outage in plan.stripe_outages:
            self.log.append(
                "outage-armed",
                -1,
                f"stripe={outage.stripe} ops=[{outage.start_op},"
                f"{outage.start_op + outage.n_ops})",
            )

    # ------------------------------------------------------------------
    # Message-bus faults
    # ------------------------------------------------------------------
    def bus_action(self, call_id: int, attempt: int) -> tuple[str, float] | None:
        """The fault (if any) for this delivery of one carried call:
        ``(kind, delay_seconds)``.

        Only the first dispatch of a call (``attempt == 0``) is faulted;
        retries travel cleanly. Decisions are identity-hashed on the call
        id, so they are stable across threads and runs.
        """
        if attempt != 0:
            return None
        plan = self.plan
        if _hash01(plan.seed, "drop", call_id) < plan.drop_rate:
            self.log.append("drop", call_id)
            self.metrics.counter("bus.dropped").inc()
            return ("drop", 0.0)
        if _hash01(plan.seed, "duplicate", call_id) < plan.duplicate_rate:
            self.log.append("duplicate", call_id)
            self.metrics.counter("bus.duplicated").inc()
            return ("duplicate", 0.0)
        if _hash01(plan.seed, "delay", call_id) < plan.delay_rate:
            ms = 1.0 + _hash01(plan.seed, "delay-ms", call_id) * plan.max_delay_ms
            self.log.append("delay", call_id, f"ms={int(ms)}")
            self.metrics.counter("bus.delayed").inc()
            return ("delay", ms / 1000.0)
        if _hash01(plan.seed, "reorder", call_id) < plan.reorder_rate:
            self.log.append("reorder", call_id)
            self.metrics.counter("bus.reordered").inc()
            return ("reorder", 0.0)
        return None

    # ------------------------------------------------------------------
    # Host crashes
    # ------------------------------------------------------------------
    def on_phase(self, instance, phase: str, call_id: int, attempt: int) -> None:
        """A runtime instance reached ``phase`` for ``call_id``; kill the
        host if the plan says so. Raises
        :class:`~repro.runtime.instance.HostCrashed` after the kill so the
        calling thread unwinds like the host it ran on."""
        spec = self._crashes.get((call_id, phase))
        if spec is None:
            return
        with self._mutex:
            if (call_id, phase) in self._fired:
                return
            self._fired.add((call_id, phase))
        self.log.append("crash", call_id, f"phase={phase}")
        self.metrics.counter("chaos.crashes").inc()
        instance.kill()
        from repro.runtime.instance import HostCrashed

        raise HostCrashed(
            f"injected crash: host {instance.host} died at {phase} of call {call_id}"
        )

    # ------------------------------------------------------------------
    # Global-tier stripe outages
    # ------------------------------------------------------------------
    def check_stripe(self, stripe: int) -> None:
        """Called by the chaos state store before every operation on
        ``stripe``; raises :class:`StateUnavailableError` inside an armed
        outage window (windows are counted in per-stripe operations, not
        time, so they are load-independent)."""
        windows = [o for o in self.plan.stripe_outages if o.stripe == stripe]
        if not windows:
            return
        with self._mutex:
            op = self._stripe_ops.get(stripe, 0)
            self._stripe_ops[stripe] = op + 1
        for outage in windows:
            if outage.start_op <= op < outage.start_op + outage.n_ops:
                self.metrics.counter("state.unavailable").inc()
                raise StateUnavailableError(
                    f"stripe {stripe} unavailable (op {op} in outage window "
                    f"[{outage.start_op}, {outage.start_op + outage.n_ops}))"
                )

    # ------------------------------------------------------------------
    def faults_for(self, call_id: int) -> list[str]:
        """The fault kinds injected against ``call_id`` so far, in
        injection order — the retry plane stamps these on ``call.retry``
        spans so a trace explains *why* the retry happened."""
        return [
            event.kind
            for event in self.log.events()
            if event.call_id == call_id and event.kind != "outage-armed"
        ]

    def crashes_fired(self) -> int:
        with self._mutex:
            return len(self._fired)
