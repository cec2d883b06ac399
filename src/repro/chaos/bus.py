"""A message bus that loses, duplicates, delays and reorders deliveries.

Wraps :class:`~repro.runtime.bus.MessageBus` with the faults a real
network-backed bus exhibits, as decided by a :class:`ChaosEngine`:

* **drop** — the message is never enqueued (the invocation monitor's
  attempt timeout is what recovers it);
* **duplicate** — the message is enqueued twice (the registry's
  attempt-claim protocol must suppress the second execution);
* **delay** — the message is enqueued after a seed-derived delay on a
  timer thread;
* **reorder** — the message is held back and enqueued *after* the next
  message sent to the same host (with a timer fallback so a held message
  on a quiet host is not held forever).

Faults are decided per *carried call* of an
:class:`~repro.runtime.bus.ExecuteBatch`, identity-hashed on the call id,
so the canonical fault log does not depend on how the cluster happened to
group calls into batches. Anything else on the bus (``Shutdown``, metric
scrapes) is never faulted — chaos ends when the cluster does.
"""

from __future__ import annotations

import threading

from repro.runtime.bus import ExecuteBatch, MessageBus
from repro.telemetry import MetricsRegistry

from .engine import ChaosEngine

#: A held (reordered) message is flushed after this long even if no later
#: message arrives to overtake it.
_REORDER_FLUSH_S = 0.05


class ChaosMessageBus(MessageBus):
    """The fault-injecting bus used when a cluster runs under a plan."""

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        engine: ChaosEngine | None = None,
    ):
        super().__init__(metrics)
        self.engine = engine
        self._held: dict[str, list] = {}
        self._held_mutex = threading.Lock()

    def send(self, host: str, message) -> None:
        """Deliver ``message``, injecting the plan's faults into a batch.

        Faulted items are carved out of the batch: drops vanish (the
        monitor's attempt timeout recovers them), duplicates ride the
        clean batch *and* a single-item echo, delays/reorders travel as
        held-back single-item batches.
        """
        if self.engine is None or not isinstance(message, ExecuteBatch):
            self._send_with_flush(host, message)
            return
        clean: list[int] = []
        for index, (call_id, attempt) in enumerate(message.items):
            action = self.engine.bus_action(call_id, attempt)
            if action is None:
                clean.append(index)
                continue
            kind, delay_s = action
            if kind == "drop":
                continue
            single = message.only([index])
            if kind == "duplicate":
                clean.append(index)
                self._send_safely(host, single)
            elif kind == "delay":
                self._later(delay_s, self._send_safely, host, single)
            else:
                # reorder: hold until the next send to this host overtakes
                # it (or the flush timer gives up waiting for one).
                with self._held_mutex:
                    self._held.setdefault(host, []).append(single)
                self._later(_REORDER_FLUSH_S, self._flush_held, host)
        if len(clean) == len(message.items):
            self._send_with_flush(host, message)
        elif clean:
            self._send_with_flush(host, message.only(clean))
        else:
            self._flush_held(host)

    def send_many(self, host: str, messages) -> None:
        """Route every message of a batched send through the fault logic;
        chaos mode trades the single-lock fast path for faithful
        per-delivery fault decisions."""
        for message in messages:
            self.send(host, message)

    @staticmethod
    def _later(delay_s: float, fn, *args) -> None:
        timer = threading.Timer(delay_s, fn, args=args)
        timer.daemon = True
        timer.start()

    def _send_safely(self, host: str, message) -> None:
        """Off-path delivery (timer threads, duplicate echoes) that
        tolerates the host deregistering while the message was in
        flight."""
        try:
            super().send(host, message)
        except KeyError:
            pass

    def _send_with_flush(self, host: str, message) -> None:
        """Deliver ``message``, then any held messages it overtakes."""
        super().send(host, message)
        self._flush_held(host)

    def _flush_held(self, host: str) -> None:
        with self._held_mutex:
            held = self._held.pop(host, [])
        for message in held:
            self._send_safely(host, message)
