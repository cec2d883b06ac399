"""Reactive autoscaling against queue depth (DESIGN.md §11).

A periodic entry on the cluster's one timer (``FaasmCluster.timer``; the
autoscaler has no thread of its own) sizes the cluster to its backlog: when
the undispatched work per live host (bus queues, worker backlogs, the
admission backlog) exceeds the policy's high-water mark, hosts are added —
dead ones revived first — and once the cluster has been idle for a grace
period, the highest-numbered live host begins a graceful retirement
(:meth:`FaasmCluster.begin_retire`: no new placements, evicted from the
warm sets). A tick never waits for the drain: a later tick kills the
host once no open call is placed on it, or ``retire_timeout_s`` on, which
ends its liveness epoch so a raced straggler is re-queued, never
stranded.

Scale-up cadence is priced with the Fig. 10 **churn model**: after growing
by ``k`` hosts the loop holds off for the time the configured isolation
mechanism needs to cold-start that many Faaslet trees (`docker` ≈ seconds,
`faaslet` ≈ milliseconds, `proto` ≈ sub-millisecond) — Fig. 10's point,
recast as control-loop damping.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

from repro.baseline import (
    docker_churn_model,
    faaslet_churn_model,
    proto_faaslet_churn_model,
)

_CHURN_MODELS = {
    "docker": docker_churn_model,
    "faaslet": faaslet_churn_model,
    "proto": proto_faaslet_churn_model,
}


@dataclass(frozen=True)
class AutoscalePolicy:
    """The reactive sizing contract."""

    min_hosts: int = 1
    max_hosts: int = 8
    #: Backlog per live host above which the cluster grows; the target the
    #: grow step sizes to.
    queue_high: int = 64
    #: How long the cluster must be completely idle (no backlog, nothing
    #: executing) before one host is retired.
    idle_grace_s: float = 0.5
    #: Seconds between ticks (a periodic entry on the cluster's timer);
    #: also the window scale-up churn is priced over.
    interval: float = 0.05
    #: Which Fig. 10 churn model prices scale-up cadence:
    #: "docker" | "faaslet" | "proto".
    churn: str = "proto"
    #: Per-retire drain budget: a retiring host still busy this long after
    #: the shrink began is killed anyway (the monitor re-queues its calls).
    retire_timeout_s: float = 5.0


class Autoscaler:
    """Grows/shrinks a cluster's hosts against its queue depth."""

    def __init__(self, cluster, policy: AutoscalePolicy | None = None):
        self.cluster = cluster
        self.policy = policy if policy is not None else AutoscalePolicy()
        try:
            self.churn_model = _CHURN_MODELS[self.policy.churn]()
        except KeyError:
            raise ValueError(
                f"unknown churn model {self.policy.churn!r}; "
                f"expected one of {sorted(_CHURN_MODELS)}"
            ) from None
        #: Scale decisions, for tests and the CLI:
        #: ``{"action", "hosts", "backlog", "live", "churn_cost_s"}``.
        self.events: list[dict] = []
        self._cooldown_until = 0.0
        self._idle_since: float | None = None
        #: The running start()'s token, or None when stopped.
        self._ticking = None
        #: Hosts this autoscaler began retiring -> when their drain ends.
        self._retiring: dict[str, float] = {}

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Tick every ``policy.interval`` on the cluster's timer thread."""
        if self._ticking is None:
            self._ticking = ticking = object()
            self._tick_after(ticking)

    def stop(self) -> None:
        """Stop ticking; the retirements already begun still end."""
        self._ticking = None  # a pending tick of this run finds it gone

    def _tick_after(self, ticking) -> None:
        self.cluster.timer.call_at(
            time.monotonic() + self.policy.interval,
            partial(self._tick_due, ticking),
        )

    def _tick_due(self, ticking) -> None:
        try:
            if ticking is self._ticking:
                self.tick()
            else:
                self._end_retirements(time.monotonic())
        finally:
            if ticking is self._ticking or self._retiring:
                self._tick_after(ticking)

    def _end_retirements(self, now: float) -> None:
        """Kill each host this autoscaler is retiring once no open call is
        placed on it, or once its ``retire_timeout_s`` has passed."""
        if not self._retiring:
            return
        busy = {record.host for record in self.cluster.calls.open_calls()}
        for host, ends in list(self._retiring.items()):
            instance = self.cluster.instance_for(host)
            if not (instance.alive and instance.draining):
                del self._retiring[host]  # it died, or died and came back
            elif host not in busy or now >= ends:
                del self._retiring[host]
                instance.kill()
                self.cluster.telemetry.metrics.counter("host.scaled_down").inc()

    # ------------------------------------------------------------------
    def backlog(self) -> int:
        """Undispatched work: bus queues + worker backlogs + admission."""
        depths = self.cluster.bus.update_queue_gauges()
        total = sum(depths.values())
        total += sum(i.pool_backlog() for i in self.cluster.instances)
        plane = getattr(self.cluster, "_ingest", None)
        if plane is not None:
            total += plane.admission.backlog()
        return total

    def tick(self, now: float | None = None) -> str:
        """One control step (callable directly in tests); returns the
        action taken: "up", "down", or "hold"."""
        now = time.monotonic() if now is None else now
        policy = self.policy
        self._end_retirements(now)
        backlog = self.backlog()
        live = [i for i in self.cluster.instances if i.alive and not i.draining]
        metrics = self.cluster.telemetry.metrics
        metrics.gauge("cluster.hosts_live").set(len(live))
        metrics.gauge("cluster.backlog").set(backlog)

        if (
            backlog > policy.queue_high * len(live)
            and len(live) < policy.max_hosts
            and now >= self._cooldown_until
        ):
            desired = math.ceil(backlog / policy.queue_high)
            grow = min(desired, policy.max_hosts) - len(live)
            if grow > 0:
                added = self.cluster.add_host(grow)
                # Churn-priced damping: hold off until the isolation
                # mechanism has plausibly absorbed this start burst.
                start_rate = len(added) * self.cluster._capacity / max(policy.interval, 1e-3)
                churn_cost = self.churn_model.latency_at_rate(start_rate)
                self._cooldown_until = now + churn_cost
                self._idle_since = None
                self.events.append({
                    "action": "up", "hosts": added, "backlog": backlog,
                    "live": len(live) + len(added), "churn_cost_s": churn_cost,
                })
                return "up"

        if backlog == 0 and all(i.executing() == 0 for i in live):
            if self._idle_since is None:
                self._idle_since = now
            elif (
                now - self._idle_since >= policy.idle_grace_s
                and len(live) > policy.min_hosts
            ):
                victim = max(live, key=lambda i: int(i.host.rsplit("-", 1)[-1]))
                if self.cluster.begin_retire(victim.host):
                    self._retiring[victim.host] = now + policy.retire_timeout_s
                    self._idle_since = now
                    self.events.append({
                        "action": "down", "hosts": [victim.host], "backlog": backlog,
                        "live": len(live) - 1, "churn_cost_s": 0.0,
                    })
                    return "down"
        else:
            self._idle_since = None
        return "hold"
