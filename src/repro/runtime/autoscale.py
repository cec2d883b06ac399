"""Reactive autoscaling against queue depth (DESIGN.md §11).

A background loop sizes the cluster to its backlog: when the undispatched
work per live host (bus queues + worker backlogs + the ingestion
plane's admission backlog) exceeds the policy's high-water mark, hosts are
added — dead hosts are revived first, then fresh ones — and when the
cluster has been fully idle for a grace period, the highest-numbered live
host is gracefully retired through PR 4's liveness/eviction plane
(:meth:`FaasmCluster.retire_host`: drain, evict from the warm sets, then
end the liveness epoch so any raced straggler is re-queued, never
stranded).

Scale-up cadence is priced with the Fig. 10 **churn model**: bringing up a
host means cold-starting its Faaslet trees, so after growing by ``k``
hosts the loop holds off further growth for the time the configured
isolation mechanism needs to absorb that churn (`docker` ≈ seconds,
`faaslet` ≈ milliseconds, `proto` ≈ sub-millisecond). A Docker-priced
cluster therefore scales in cautious, widely-spaced steps while a
Proto-Faaslet one tracks bursts nearly instantaneously — Fig. 10's point,
recast as control-loop damping.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from dataclasses import dataclass

from repro.baseline import (
    docker_churn_model,
    faaslet_churn_model,
    proto_faaslet_churn_model,
)

logger = logging.getLogger(__name__)

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
    #: Control-loop tick.
    interval: float = 0.05
    #: Which Fig. 10 churn model prices scale-up cadence:
    #: "docker" | "faaslet" | "proto".
    churn: str = "proto"
    #: Per-retire drain budget.
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
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        cluster.autoscaler = self

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name="autoscaler"
        )
        self._thread.start()

    def stop(self, timeout: float = 2.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.policy.interval):
            try:
                self.tick()
            except Exception:  # pragma: no cover — the loop must survive
                logger.exception("autoscaler tick failed")

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
        backlog = self.backlog()
        live = [
            i for i in self.cluster.instances
            if i.alive and not i.draining
        ]
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
                start_rate = (
                    len(added) * self.cluster._capacity
                ) / max(policy.interval, 1e-3)
                churn_cost = self.churn_model.latency_at_rate(start_rate)
                self._cooldown_until = now + churn_cost
                self._idle_since = None
                self.events.append({
                    "action": "up",
                    "hosts": added,
                    "backlog": backlog,
                    "live": len(live) + len(added),
                    "churn_cost_s": churn_cost,
                })
                return "up"

        if backlog == 0 and all(i.executing() == 0 for i in live):
            if self._idle_since is None:
                self._idle_since = now
            elif (
                now - self._idle_since >= policy.idle_grace_s
                and len(live) > policy.min_hosts
            ):
                victim = max(
                    live, key=lambda i: int(i.host.rsplit("-", 1)[-1])
                )
                if self.cluster.retire_host(
                    victim.host, timeout=policy.retire_timeout_s
                ):
                    self._idle_since = now
                    self.events.append({
                        "action": "down",
                        "hosts": [victim.host],
                        "backlog": backlog,
                        "live": len(live) - 1,
                        "churn_cost_s": 0.0,
                    })
                    return "down"
        else:
            self._idle_since = None
        return "hold"
