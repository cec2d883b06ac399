"""Simulated hosts and network for cluster-scale experiments.

Models the paper's testbed (§6.1): N hosts, each with a fixed amount of
RAM and a NIC attached to a shared 1 Gbps network, plus a distinct KVS
endpoint (Redis) that all state traffic flows through. Memory is tracked
per host so experiments reproduce the OOM behaviour Knative hits beyond
~30 parallel functions (Fig. 6a).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import Environment, Resource
from .metrics import TransferTotals

#: Testbed parameters from §6.1.
DEFAULT_HOST_RAM = 16 * 1024**3  # 16 GB
DEFAULT_BANDWIDTH = 125_000_000.0  # 1 Gbps in bytes/sec
DEFAULT_NET_LATENCY = 0.0002  # 200 µs RTT-ish LAN latency


class OutOfMemory(Exception):
    """A host could not satisfy an allocation (drives Fig. 6a's Knative
    failure beyond ~30 parallel functions)."""

    def __init__(self, host: "SimHost", requested: int):
        self.host = host
        self.requested = requested
        super().__init__(
            f"{host.name}: cannot allocate {requested} bytes "
            f"({host.mem_used}/{host.ram} in use)"
        )


class SimHost:
    """One machine: RAM accounting plus a serialised NIC."""

    def __init__(self, env: Environment, name: str, ram: int = DEFAULT_HOST_RAM,
                 nic_streams: int = 4):
        self.env = env
        self.name = name
        self.ram = ram
        self.mem_used = 0
        self.mem_peak = 0
        #: Concurrent transfer streams the NIC sustains before queueing.
        self.nic = Resource(env, nic_streams)
        self.tx_bytes = 0
        self.rx_bytes = 0

    # ------------------------------------------------------------------
    def allocate(self, nbytes: int) -> None:
        if self.mem_used + nbytes > self.ram:
            raise OutOfMemory(self, nbytes)
        self.mem_used += nbytes
        self.mem_peak = max(self.mem_peak, self.mem_used)

    def free(self, nbytes: int) -> None:
        self.mem_used = max(0, self.mem_used - nbytes)

    @property
    def mem_free(self) -> int:
        return self.ram - self.mem_used


class SimNetwork:
    """The shared cluster network: transfers take latency + size/bandwidth,
    serialised through each endpoint's NIC streams."""

    def __init__(
        self,
        env: Environment,
        bandwidth: float = DEFAULT_BANDWIDTH,
        latency: float = DEFAULT_NET_LATENCY,
    ):
        self.env = env
        self.bandwidth = bandwidth
        self.latency = latency
        self.totals = TransferTotals()

    def transfer(self, src: SimHost | None, dst: SimHost | None, nbytes: int):
        """Process generator: move ``nbytes`` from src to dst.

        Either endpoint may be ``None`` (an unmodelled externality such as
        the KVS service itself — its NIC contention is charged to the other
        endpoint)."""
        if nbytes <= 0:
            if self.latency:
                yield self.env.timeout(self.latency)
            return
        acquired: list[SimHost] = []
        for host in (src, dst):
            if host is not None:
                yield host.nic.request()
                acquired.append(host)
        try:
            yield self.env.timeout(self.latency + nbytes / self.bandwidth)
            if src is not None:
                src.tx_bytes += nbytes
            if dst is not None:
                dst.rx_bytes += nbytes
            self.totals.record(nbytes)
        finally:
            for host in acquired:
                host.nic.release()


@dataclass
class SimCluster:
    """Hosts + network + KVS endpoint(s), shared by all platform models.

    The global tier is one Redis-like endpoint by default; building with
    ``kvs_shards > 1`` models a sharded tier (Anna/Pocket-style, §7): keys
    hash onto shards, each with its own NIC, removing the single-endpoint
    bottleneck.
    """

    env: Environment
    hosts: list[SimHost]
    network: SimNetwork
    #: The Redis-like global-tier endpoints (empty = external service).
    kvs_hosts: list[SimHost] = field(default_factory=list)

    @classmethod
    def build(
        cls,
        env: Environment,
        n_hosts: int,
        ram: int = DEFAULT_HOST_RAM,
        bandwidth: float = DEFAULT_BANDWIDTH,
        latency: float = DEFAULT_NET_LATENCY,
        kvs_nic_streams: int = 16,
        kvs_shards: int = 1,
    ) -> "SimCluster":
        hosts = [SimHost(env, f"host-{i}", ram) for i in range(n_hosts)]
        network = SimNetwork(env, bandwidth, latency)
        kvs = [
            SimHost(env, f"kvs-{i}", ram, nic_streams=kvs_nic_streams)
            for i in range(kvs_shards)
        ]
        return cls(env, hosts, network, kvs)

    def _kvs_for(self, key: str | None) -> SimHost | None:
        if not self.kvs_hosts:
            return None
        if key is None or len(self.kvs_hosts) == 1:
            return self.kvs_hosts[0]
        import hashlib

        digest = hashlib.blake2s(key.encode(), digest_size=4).digest()
        return self.kvs_hosts[int.from_bytes(digest, "big") % len(self.kvs_hosts)]

    def to_kvs(self, src: SimHost, nbytes: int, key: str | None = None):
        return self.network.transfer(src, self._kvs_for(key), nbytes)

    def from_kvs(self, dst: SimHost, nbytes: int, key: str | None = None):
        return self.network.transfer(self._kvs_for(key), dst, nbytes)

    def total_transferred_gb(self) -> float:
        return self.network.totals.gigabytes
