"""The Knative/container baseline platform model (§6.1).

Interprets the same workloads as the FAASM model, with container-world
semantics:

* isolation units are containers: ~8 MB overhead each (§6.2), ~2.8 s cold
  starts (Tab. 3) serialised through a per-host creation bottleneck, one
  in-flight call per container (Knative's default concurrency);
* there is **no local tier**: every state read pulls from the KVS over the
  network and lands in the *container's private memory* — co-located
  containers each hold their own copy (the data-shipping architecture of
  §1); every write ships to the KVS immediately, batching is impossible;
* chained calls go through the Knative HTTP API: connection + routing
  overhead plus the payload over the network;
* container initialisation cannot be snapshotted: language-runtime or
  model-loading init cost (``SimFunction.init_cost_s``) is paid on every
  cold start.

As with the FAASM model, the experiment curves are emergent: nothing here
encodes "Knative is slower" — only the mechanisms above.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.cluster import OutOfMemory, SimCluster, SimHost
from repro.sim.engine import Resource
from repro.sim.platform import SimCall, SimPlatform
from repro.sim.workload import Chain, LoadExternal, SimFunction, StateRead, StateWrite

from .container import (
    CONTAINER_INIT_S,
    CONTAINER_SERIAL_SETUP_S,
    KNATIVE_CONTAINER_OVERHEAD,
    WARM_DISPATCH_S,
)

#: HTTP function-chaining overhead (connection + ingress routing, §6.2:
#: "latency and volume of inter-function communication through the Knative
#: HTTP API").
HTTP_CHAIN_LATENCY_S = 0.008


@dataclass
class SimContainer:
    host: SimHost
    function: str
    memory: int
    #: State keys whose values this container holds private copies of.
    held_keys: set = None
    busy: bool = False

    def __post_init__(self):
        if self.held_keys is None:
            self.held_keys = set()


class KnativeSimPlatform(SimPlatform):
    """Simulated Knative deployment over the same cluster."""

    def __init__(
        self,
        cluster: SimCluster,
        cold_start_s: float = CONTAINER_INIT_S,
        container_overhead: int = KNATIVE_CONTAINER_OVERHEAD,
        chain_latency_s: float = HTTP_CHAIN_LATENCY_S,
        copy_factor: float = 1.35,
    ):
        super().__init__(cluster)
        self.cold_start_s = cold_start_s
        self.container_overhead = container_overhead
        self.chain_latency_s = chain_latency_s
        #: Resident bytes per byte of state read: the container holds both
        #: the fetched serialised buffer and its deserialised working copy.
        self.copy_factor = copy_factor
        self._warm: dict[str, list[SimContainer]] = {}
        #: Container creation serialises on the orchestrator's control path
        #: (image pulls, pod scheduling, namespace setup): a cluster-wide
        #: serial section whose ~3 creations/sec ceiling is what Fig. 10
        #: measures for Docker and what collapses Knative in Fig. 7a.
        self._creator = Resource(cluster.env, 1)
        #: The routing layer (activator/ingress) handles a finite number of
        #: in-flight requests. Requests stuck waiting on container creation
        #: hold their slot, so once cold-start demand exceeds the creation
        #: ceiling, the backlog starves *warm* traffic too — the "queuing
        #: and resource contention" of §6.3 that moves the median.
        self._ingress = Resource(cluster.env, 64)

    # ------------------------------------------------------------------
    # Container lifecycle
    # ------------------------------------------------------------------
    def _acquire_unit(self, call: SimCall):
        yield self._ingress.request()
        pool = self._warm.get(call.function.name, [])
        idle = next((c for c in pool if not c.busy), None)
        if idle is not None:
            self.metrics.warm_starts += 1
            idle.busy = True
            call.unit = idle
            call.host = idle.host
            yield self.env.timeout(WARM_DISPATCH_S)
            self.track_peak(call, idle.memory)
            return
        host = self.least_loaded_host()
        memory = self.container_overhead + call.function.working_set
        try:
            host.allocate(memory)
        except OutOfMemory:
            self._ingress.release()  # placement failed: free the slot
            raise
        container = SimContainer(host, call.function.name, memory, busy=True)
        self._warm.setdefault(call.function.name, []).append(container)
        call.unit = container
        call.host = host
        self.metrics.cold_starts += 1
        # Creation serialises on the orchestrator's control path.
        yield self._creator.request()
        try:
            yield self.env.timeout(CONTAINER_SERIAL_SETUP_S)
        finally:
            self._creator.release()
        yield self.env.timeout(self.cold_start_s - CONTAINER_SERIAL_SETUP_S)
        if call.function.init_cost_s:
            # No snapshotting: runtime/model init is paid on every cold start.
            yield self.env.timeout(call.function.init_cost_s)
        self.track_peak(call, memory)

    def _release_unit(self, call: SimCall):
        self._ingress.release()
        if call.unit is not None:
            call.unit.busy = False
        return
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # Data-shipping state semantics
    # ------------------------------------------------------------------
    def _do_state_read(self, call: SimCall, op: StateRead):
        container: SimContainer = call.unit
        if op.once_per_unit and op.key in container.held_keys:
            # Lifetime-cached read (e.g. the served model): no re-fetch.
            self.track_peak(call, container.memory)
            return
        yield from self.cluster.from_kvs(call.host, op.nbytes, key=op.key)
        if op.key not in container.held_keys:
            # Private duplication: each container holds its own copy (the
            # fetched buffer plus the deserialised working form).
            resident = int(op.nbytes * self.copy_factor)
            call.host.allocate(resident)
            container.memory += resident
            container.held_keys.add(op.key)
        self.track_peak(call, container.memory)

    def _do_state_write(self, call: SimCall, op: StateWrite):
        container: SimContainer = call.unit
        if op.key not in container.held_keys:
            call.host.allocate(op.nbytes)
            container.memory += op.nbytes
            container.held_keys.add(op.key)
        self.track_peak(call, container.memory)
        # No local tier: every write (batched or not) ships to the KVS.
        yield from self.cluster.to_kvs(call.host, op.nbytes, key=op.key)

    def flush_dirty(self):
        """No-op: a container platform has nothing batched to flush."""
        return
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    def _do_load_external(self, call: SimCall, op: LoadExternal):
        yield from self.cluster.network.transfer(None, call.host, op.nbytes)

    def _do_chain(self, call: SimCall, op: Chain):
        # HTTP API: routing overhead + payload over the network.
        yield self.env.timeout(self.chain_latency_s)
        return self.invoke(op.function, op.arg)

    # ------------------------------------------------------------------
    def reclaim_idle(self) -> None:
        for pool in self._warm.values():
            for container in pool:
                if not container.busy:
                    container.host.free(container.memory)
        self._warm = {
            name: [c for c in pool if c.busy] for name, pool in self._warm.items()
        }
