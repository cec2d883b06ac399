"""The five benchmark workloads: what they deploy, send and expect back.

A workload generates every input from its seed in ``__init__`` and hands
the program generated bytes only. ``deploy`` touches a fresh cluster
(functions, seeded state, placement pins) and is what ``setup_s`` times;
``round`` returns one fixed multiset of calls in a seeded order, so a new
seed changes the inputs and their order but never the amount of work.
Every call carries the output the driver expects, computed here from the
seeded bytes and never by the program under test.

``broken=True`` deploys a guest that returns wrong bytes; ``selfcheck.py``
uses it to prove that a wrong output reaches ``failed_share``.
"""

from __future__ import annotations

import random
import struct
import zlib
from dataclasses import dataclass

from repro.apps.kernels import KERNELS
from repro.runtime.ingest import IngestionConfig, TenantSpec
from repro.sim.workload import multi_tenant_trace


@dataclass(frozen=True)
class Call:
    function: str
    payload: bytes
    expected: bytes
    tenant: str = "default"


def _corrupt(output: bytes) -> bytes:
    return bytes([output[0] ^ 0xFF]) + output[1:]


def _identity(output: bytes) -> bytes:
    return output


class Workload:
    name = ""
    open_loop = False
    #: Rounds run (and checked) before the measured window: first calls
    #: pay lazy threading, pool start and replica creation.
    warmup_rounds = 3
    #: State bytes one call's guests write / read — the denominators of
    #: ``state.push_amplification`` and ``state.pull_amplification``.
    guest_writes = 0
    guest_reads = 0
    #: ``peak_rss_mb`` is read once this many measured calls returned: call
    #: records accumulate, so a footprint read after a fixed time would
    #: grow with throughput and punish a faster program.
    RSS_CALLS = 0

    def __init__(self, seed: int, broken: bool = False):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        #: Applied by every Python guest to its output; the broken variant
        #: flips the first byte, which is what a wrong result looks like
        #: from outside.
        self.finish = _corrupt if broken else _identity
        self.calls: list[Call] = []

    def deploy(self, cluster) -> None:
        raise NotImplementedError

    def round(self) -> list[Call]:
        order = list(self.calls)
        self.rng.shuffle(order)
        return order

    def before_call(self, cluster, index: int) -> None:
        """Driver-side step before call number ``index`` (cold-churn's
        reclaim); inside the segment wall, outside the sojourn."""

    def wrong_state(self, cluster, executed: list[Call]) -> int:
        """Calls whose effect on shared state is wrong, checked once after
        the window against the driver's own copy."""
        return 0


# ----------------------------------------------------------------------
class IngestEcho(Workload):
    """Open loop through ``cluster.submit``: three tenants offer 60/30/10 %
    of ``RATE`` calls/s (weights 6:3:1) to a host-native echo guest."""

    name = "ingest-echo"
    open_loop = True
    RATE = 2000.0
    TENANTS = (("gold", 6.0, 0.6), ("silver", 3.0, 0.3), ("bronze", 1.0, 0.1))
    PAYLOAD = 64
    BATCH_SIZE = 128
    WARMUP_CALLS = 512

    def deploy(self, cluster) -> None:
        finish = self.finish

        def echo(ctx):
            ctx.write_output(finish(ctx.input()))
            return 0

        cluster.register_python("echo", echo)
        cluster.ingestion(
            IngestionConfig(
                batch_size=self.BATCH_SIZE,
                tenants=tuple(
                    TenantSpec(name, weight) for name, weight, _ in self.TENANTS
                ),
            )
        )

    def _calls(self, tenants: list[str]) -> list[Call]:
        blob = self.rng.randbytes(self.PAYLOAD * len(tenants))
        return [
            Call("echo", payload, payload, tenant)
            for tenant, payload in zip(
                tenants,
                (
                    blob[i : i + self.PAYLOAD]
                    for i in range(0, len(blob), self.PAYLOAD)
                ),
            )
        ]

    def warmup_calls(self) -> list[Call]:
        names = [name for name, _, _ in self.TENANTS]
        return self._calls(
            [names[i % len(names)] for i in range(self.WARMUP_CALLS)]
        )

    def trace(self, seconds: float) -> tuple[list[float], list[Call]]:
        """Due times (seconds from window start) and the call due at each."""
        events = multi_tenant_trace(
            {name: share * self.RATE for name, _, share in self.TENANTS},
            seconds,
            seed=self.seed,
            functions=("echo",),
        )
        return [e.at for e in events], self._calls([e.tenant for e in events])


# ----------------------------------------------------------------------
class PolyExec(Workload):
    """Closed loop over three warm wasm Polybench guests, one call of each
    per round; the output is the kernel's checksum as one f64."""

    name = "poly-exec"
    RSS_CALLS = 300
    KERNEL_SIZES = (("jacobi-1d", 48), ("atax", 48), ("2mm", 14))
    MAIN = """
extern void write_call_output(int buf, int len);
export int main() {
    float[] out = new float[1];
    out[0] = kernel(%d);
    write_call_output(ptr(out), 8);
    return 0;
}
"""

    def __init__(self, seed: int, broken: bool = False):
        super().__init__(seed, broken)
        self.sources = {}
        for name, n in self.KERNEL_SIZES:
            kernel = KERNELS[name]
            guest_n = n - 1 if broken else n
            self.sources[name] = kernel.source + self.MAIN % guest_n
            self.calls.append(
                Call(name, b"", struct.pack("<d", kernel.native(n)))
            )

    def deploy(self, cluster) -> None:
        for name, source in self.sources.items():
            cluster.upload(name, source)


# ----------------------------------------------------------------------
class StateWrite(Workload):
    """Closed loop: a parent on host-0 writes 16 x 4 KiB spans of a 1 MiB
    key, pushes, and chains a child on host-1 that pulls the key and
    returns the checksum of those spans."""

    name = "state-write"
    RSS_CALLS = 4000
    KEY = "e2e/grid"
    SIZE = 1 << 20
    SPAN = 4096
    SPANS = 16
    CALLS_PER_ROUND = 16
    guest_writes = SPANS * SPAN
    guest_reads = SPANS * SPAN

    def __init__(self, seed: int, broken: bool = False):
        super().__init__(seed, broken)
        self.initial = self.rng.randbytes(self.SIZE)
        pool = self.rng.randbytes(self.SIZE)
        nbytes = self.SPANS * self.SPAN
        for _ in range(self.CALLS_PER_ROUND):
            # Distinct 4 KiB slots shifted by one common sub-page offset:
            # unaligned spans that never overlap within a call.
            shift = self.rng.randrange(self.SPAN // 2)
            slots = self.rng.sample(range(self.SIZE // self.SPAN - 1), self.SPANS)
            offsets = [slot * self.SPAN + shift for slot in slots]
            at = self.rng.randrange(self.SIZE - nbytes)
            data = pool[at : at + nbytes]
            self.calls.append(
                Call(
                    "writer",
                    struct.pack(f"<{self.SPANS}I", *offsets) + data,
                    struct.pack("<I", zlib.adler32(data)),
                )
            )

    def deploy(self, cluster) -> None:
        key, span, spans = self.KEY, self.SPAN, self.SPANS
        head = 4 * spans
        finish = self.finish

        def writer(ctx):
            payload = ctx.input()
            offsets = struct.unpack_from(f"<{spans}I", payload)
            # Ensures a full-size replica (a pull on the first call only),
            # so the delta push below never shortens the global value.
            ctx.state.get_state(key, mark_dirty=False)
            for i, offset in enumerate(offsets):
                ctx.state.set_state_offset(
                    key, payload[head + i * span : head + (i + 1) * span], offset
                )
            ctx.state.push_state(key)
            child = ctx.chain("checker", payload[:head])
            code = ctx.await_call(child)
            ctx.write_output(ctx.call_output(child))
            return code

        def checker(ctx):
            offsets = struct.unpack_from(f"<{spans}I", ctx.input())
            ctx.state.pull_state(key)
            checksum = 1
            for offset in offsets:
                checksum = zlib.adler32(
                    ctx.state.get_state_offset(key, offset, span, mark_dirty=False),
                    checksum,
                )
            ctx.write_output(finish(struct.pack("<I", checksum)))
            return 0

        cluster.global_state.set_value(key, self.initial)
        cluster.register_python("writer", writer)
        cluster.register_python("checker", checker)
        # Pin the two ends of the chain to different hosts so the state
        # crosses the global tier on every call.
        cluster.warm_sets.add("writer", "host-0")
        cluster.warm_sets.add("checker", "host-1")

    def wrong_state(self, cluster, executed: list[Call]) -> int:
        shadow = bytearray(self.initial)
        head = 4 * self.SPANS
        for call in executed:
            offsets = struct.unpack_from(f"<{self.SPANS}I", call.payload)
            for i, offset in enumerate(offsets):
                shadow[offset : offset + self.SPAN] = call.payload[
                    head + i * self.SPAN : head + (i + 1) * self.SPAN
                ]
        return int(cluster.global_state.get_value(self.KEY) != shadow)


# ----------------------------------------------------------------------
class StateRead(Workload):
    """Closed loop: each call reads a resident 4 MiB model key in place and
    force-pulls one 256 KiB chunk of a 16 MiB dataset at a Zipf offset."""

    name = "state-read"
    RSS_CALLS = 15000
    MODEL = "e2e/model"
    DATA = "e2e/dataset"
    MODEL_SIZE = 4 << 20
    DATA_SIZE = 16 << 20
    CHUNK = 256 << 10
    PROBE = 4096
    #: The guest checksums every ``STRIDE``-th byte of the pulled chunk: a
    #: wrong, stale or shifted chunk of random bytes cannot pass, and the
    #: guest's own work stays small beside the state layer's.
    STRIDE = 61
    CALLS_PER_ROUND = 16
    guest_reads = CHUNK + PROBE

    def __init__(self, seed: int, broken: bool = False):
        super().__init__(seed, broken)
        self.model = self.rng.randbytes(self.MODEL_SIZE)
        self.data = self.rng.randbytes(self.DATA_SIZE)
        chunks = list(range(self.DATA_SIZE // self.CHUNK))
        self.rng.shuffle(chunks)
        weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(chunks))]
        for chunk in self.rng.choices(chunks, weights, k=self.CALLS_PER_ROUND):
            at = chunk * self.CHUNK
            probe = self.rng.randrange(self.MODEL_SIZE - self.PROBE)
            checksum = zlib.adler32(
                self.model[probe : probe + self.PROBE],
                zlib.adler32(self.data[at : at + self.CHUNK : self.STRIDE]),
            )
            self.calls.append(
                Call(
                    "reader",
                    struct.pack("<II", at, probe),
                    struct.pack("<I", checksum),
                )
            )

    def deploy(self, cluster) -> None:
        model_key, data_key = self.MODEL, self.DATA
        chunk, probe_len, stride = self.CHUNK, self.PROBE, self.STRIDE
        finish = self.finish

        def reader(ctx):
            at, probe = struct.unpack("<II", ctx.input())
            model = ctx.state.get_state(model_key, mark_dirty=False)
            ctx.state.pull_state_offset(data_key, at, chunk)
            view = ctx.state.get_state_offset(
                data_key, at, chunk, mark_dirty=False
            )
            checksum = zlib.adler32(
                model[probe : probe + probe_len],
                zlib.adler32(bytes(view[::stride])),
            )
            ctx.write_output(finish(struct.pack("<I", checksum)))
            return 0

        cluster.global_state.set_value(model_key, self.model)
        cluster.global_state.set_value(data_key, self.data)
        cluster.register_python("reader", reader)
        cluster.warm_sets.add("reader", "host-0")


# ----------------------------------------------------------------------
class ColdChurn(Workload):
    """Closed loop where every call cold-restores: the driver reclaims all
    idle Faaslets before each call and empties the host page caches before
    every fourth, so that restore pulls its pages from the repository."""

    name = "cold-churn"
    RSS_CALLS = 8000
    TABLE = 65536
    CALLS_PER_ROUND = 4
    SOURCE = """
extern int read_call_input(int buf, int len);
extern void write_call_output(int buf, int len);
global int table = 0;
export void init() {
    int[] t = new int[%d];
    for (int i = 0; i < %d; i = i + 1) { t[i] = (i * 7919 + %d) %% 65521; }
    table = ptr(t);
}
export int main() {
    int[] in = new int[1];
    read_call_input(ptr(in), 4);
    int[] t = iarr(table);
    int[] out = new int[1];
    out[0] = t[in[0]];
    write_call_output(ptr(out), 4);
    return 0;
}
"""

    def __init__(self, seed: int, broken: bool = False):
        super().__init__(seed, broken)
        self.source = self.SOURCE % (self.TABLE, self.TABLE, 14 if broken else 13)
        for _ in range(self.CALLS_PER_ROUND):
            index = self.rng.randrange(self.TABLE)
            self.calls.append(
                Call(
                    "lookup",
                    struct.pack("<i", index),
                    struct.pack("<i", (index * 7919 + 13) % 65521),
                )
            )

    def deploy(self, cluster) -> None:
        cluster.upload("lookup", self.source, init="init")

    def before_call(self, cluster, index: int) -> None:
        for instance in cluster.instances:
            instance.reclaim_idle()
            if index % self.CALLS_PER_ROUND == 0:
                instance.snapshots.clear()


WORKLOADS = {
    cls.name: cls
    for cls in (IngestEcho, PolyExec, StateWrite, StateRead, ColdChurn)
}
