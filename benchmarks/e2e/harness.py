"""One workload, one process: set up, warm up, measure, check, report.

``run_child`` is what ``run.py`` starts in a fresh subprocess per workload.
Untraced (``trace=False``) it sets up, measures one window of ``SEGMENTS``
equal segments, times ``SETUPS - 1`` more set-ups and returns the
end-to-end metrics. Traced, it measures three windows of a third of the
length each — untraced reference, benchmark-owned spans, and the
program's own ``Telemetry`` fully on — and returns the per-layer metrics.

A timing metric is the good-side quartile (:func:`steady`) of its
per-segment values, which in the closed loops are first scaled to the
reference machine speed (:func:`calibrate`); in the open loop it is their
median, over the calls submitted on time (:func:`_open_loop`); counts are
totals over the window divided by completed calls. README.md says why.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import threading
import time

from repro.runtime import FaasmCluster
from repro.telemetry import Telemetry
from repro.wasm.codecache import global_code_cache

from trace import Tracer
from workloads import WORKLOADS

SEGMENTS = 40
#: Full set-ups timed per untraced run; ``setup_s`` is taken over them.
SETUPS = 5
CALL_TIMEOUT_S = 30.0
#: ``wasm.instr_per_call`` is exact over the first this many guest calls of
#: the traced window (whole rounds of every workload).
INSTR_CALLS = 48
#: Open-loop validity: the generator's own lateness may not pass this.
LATE_LIMIT_MS = 1.0
#: Open loop: a call counts towards the latency percentiles when the
#: generator submitted it and the ``ON_TIME_RUN`` calls before it within
#: this many seconds of their due instants (see ``_open_loop``).
ON_TIME_S = 0.3e-3
ON_TIME_RUN = 4

E2E_UNITS = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "sojourn_p50_ms": "ms",
    "sojourn_p95_ms": "ms",
    "cpu_ms_per_call": "ms",
    "global_bytes_per_call": "B",
    "peak_rss_mb": "MB",
    "failed_share": "share",
}

LAYER_UNITS = {
    "ingest.admit_us_per_call": "us",
    "ingest.queue_wait_p50_ms": "ms",
    "ingest.calls_per_batch": "count",
    "ingest.refused_share": "share",
    "scheduler.place_us_per_call": "us",
    "scheduler.warm_cache_hit_share": "share",
    "scheduler.cold_decision_share": "share",
    "bus.send_us_per_call": "us",
    "bus.hop_wait_p50_ms": "ms",
    "bus.msgs_per_call": "count",
    "calls.registry_us_per_call": "us",
    "calls.retries_per_call": "count",
    "instance.pool_wait_p50_ms": "ms",
    "instance.execute_self_us": "us",
    "instance.cold_start_share": "share",
    "instance.cold_init_ms_mean": "ms",
    "pagestore.get_proto_us": "us",
    "pagestore.bytes_per_cold": "B",
    "pagestore.round_trips_per_cold": "count",
    "pagestore.dedup_hit_share": "share",
    "snapshot.restore_us": "us",
    "snapshot.capture_ms": "ms",
    "faaslet.call_ms_p50": "ms",
    "wasm.instr_per_call": "count",
    "wasm.ns_per_instr": "ns",
    "wasm.codecache_hit_share": "share",
    "minilang.compile_ms": "ms",
    "state.push_us_per_call": "us",
    "state.pull_us_per_call": "us",
    "state.local_read_us_per_call": "us",
    "state.pushed_bytes_per_call": "B",
    "state.pulled_bytes_per_call": "B",
    "state.round_trips_per_call": "count",
    "state.push_amplification": "ratio",
    "state.pull_amplification": "ratio",
    "kv.op_us": "us",
    "telemetry.full_cpu_overhead_pct": "%",
    "loadgen.late_p95_ms": "ms",
    "loadgen.offered_per_s": "1/s",
    "loadgen.on_time_share": "share",
    "proc.threads_peak": "count",
    "proc.gc_gen2_collections": "count",
    "bench.trace_overhead_pct": "%",
    "share.runtime_pct": "%",
    "share.faaslet_pct": "%",
    "share.wasm_pct": "%",
    "share.state_pct": "%",
    "share.guest_pct": "%",
}


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def _checked(call, code, output) -> bool:
    return code == 0 and output == call.expected


def build(workload, telemetry=None, tracer=None):
    """Everything before the first measured call: cluster construction,
    upload / compile / Proto-Faaslet capture, state seeding, warm-up."""
    # Each set-up compiles its guests, as the first one in a process does.
    global_code_cache().clear()
    cluster = FaasmCluster(n_hosts=2, telemetry=telemetry)
    if tracer is not None:
        tracer.attach(cluster)
    workload.deploy(cluster)
    if workload.open_loop:
        if tracer is not None:
            tracer.attach_ingestion(cluster.ingestion())
        calls = workload.warmup_calls()
        ids = [cluster.submit(c.function, c.payload, c.tenant)[0] for c in calls]
        _await_all(cluster, ids)
        wrong = sum(
            not _checked(call, *_finished(cluster, call_id))
            for call, call_id in zip(calls, ids)
        )
    else:
        wrong, index = 0, 0
        for _ in range(workload.warmup_rounds):
            for call in workload.round():
                workload.before_call(cluster, index)
                index += 1
                code, output = cluster.invoke(
                    call.function, call.payload, timeout=CALL_TIMEOUT_S
                )
                wrong += not _checked(call, code, output)
    return cluster, wrong


def _await_all(cluster, ids) -> None:
    """Block until every admitted call finished or the timeout ran out.
    (``IngestionPlane.drain`` polls in 5 ms steps, which is coarser than
    the set-up time being measured.)"""
    deadline = time.monotonic() + CALL_TIMEOUT_S
    for call_id in ids:
        if call_id is not None:
            try:
                cluster.calls.wait(call_id, max(0.0, deadline - time.monotonic()))
            except TimeoutError:
                return


def _finished(cluster, call_id):
    """(return code, output) of a submitted call; a refused or unfinished
    call reads as a failure."""
    if call_id is None:
        return None, b""
    record = cluster.calls.get(call_id)
    if not record.done.is_set():
        return None, b""
    return record.return_code, record.output_data


# ----------------------------------------------------------------------
# Program counters, read through public accessors only
# ----------------------------------------------------------------------
def counters(cluster) -> dict[str, float]:
    aggregates = cluster.metrics_snapshot()["aggregates"]
    hosts = cluster.snapshot_stats()["hosts"].values()
    cache = cluster.warm_sets.cache_info()
    code = cluster.registry.code_cache_stats()
    decisions: dict[str, int] = {}
    for instance in cluster.instances:
        for reason, n in instance.scheduler.decisions.items():
            decisions[reason] = decisions.get(reason, 0) + n
    out = {
        "state_bytes": cluster.total_network_bytes(),
        "snapshot_bytes": sum(h["bytes_shipped"] for h in hosts),
        "snapshot_trips": sum(h["round_trips"] for h in hosts),
        "snapshot_pages": sum(h["pages_shipped"] for h in hosts),
        "snapshot_dedup": sum(h["pull_dedup_hits"] for h in hosts),
        "bus_sent": cluster.bus.stats.sent,
        "bus_batches": cluster.bus.stats.batches,
        "bus_batched_calls": cluster.bus.stats.batched_calls,
        "sched_hits": cache["hits"],
        "sched_misses": cache["misses"],
        "code_hits": code["hits"],
        "code_misses": code["misses"],
        "decisions": sum(decisions.values()),
        "cold_decisions": sum(
            decisions.get(r, 0) for r in ("cold-local", "resident", "cold-spread")
        ),
        "executed": sum(i.metrics.calls_executed for i in cluster.instances),
        "cold_starts": sum(i.metrics.cold_starts for i in cluster.instances),
        "init_time": sum(i.metrics.init_time_total for i in cluster.instances),
        "gc_gen2": gc.get_stats()[2]["collections"],
    }
    for name in ("state.bytes_sent", "state.bytes_received", "state.round_trips",
                 "call.retries", "ingest.deferred", "ingest.shed"):
        out[name] = aggregates[name]
    return out


# ----------------------------------------------------------------------
# The measured window
# ----------------------------------------------------------------------
def steady(values: list[float], better: str = "lower") -> float:
    """The quartile of the per-segment values on the undisturbed side.

    A shared VM disturbs in one direction only: for seconds at a time
    everything runs 1.2-2x slower, never faster. The median of the
    segments then reports how much of the window happened to be disturbed;
    the quartile on the good side reports the program and repeats across
    runs (README.md, "How a number is taken")."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[0] if better == "lower" else quartiles[2]


#: What the reference loop of :func:`calibrate` takes on this VM when
#: nothing disturbs it; times are reported at that machine speed.
REFERENCE_S = 1.0e-3


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now (best of 5).

    Measured at every closed-loop segment boundary and around every
    set-up. A segment's times are multiplied by ``REFERENCE_S`` over the
    mean of its two marks, which takes out the part of the VM's
    disturbance that slows all code alike — whole runs sit on a 10-40 %
    slower plateau — and leaves what the program does."""
    clock, best = time.perf_counter, float("inf")
    for _ in range(5):
        start, x = clock(), 0
        for i in range(20000):
            x += i * i % 7
        best = min(best, clock() - start)
    return best


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Window:
    """What one measured window saw."""

    def __init__(self, open_loop: bool = False) -> None:
        self.open_loop = open_loop
        self.attempted = 0
        self.failed = 0
        #: Why the measurement (not the program) is in doubt: the open
        #: loop's generator ran late, or its backlog grew.
        self.invalid = ""
        #: The program left wrong bytes in shared state.
        self.wrong_state = False
        #: Per segment: sojourns (s) of its correct calls, its wall and
        #: process CPU time (s), and how many calls were correct.
        self.sojourns: list[list[float]] = [[] for _ in range(SEGMENTS)]
        self.walls: list[float] = [0.0] * SEGMENTS
        self.cpus: list[float] = [0.0] * SEGMENTS
        #: Per segment: seconds the reference loop took around it.
        self.speeds: list[float] = [REFERENCE_S] * SEGMENTS
        self.correct: list[int] = [0] * SEGMENTS
        self.payload_bytes = 0
        #: The process's high-water RSS when the workload's
        #: ``RSS_CALLS``-th measured call had returned (0 if never).
        self.rss_mb = 0.0
        self.before: dict = {}
        self.after: dict = {}
        self.began = 0.0
        self.ended = 0.0
        self.late: list[float] = []
        #: Open loop: sojourns (s) of every correct call, on time or not.
        self.tail: list[float] = []
        #: Open loop: the share of calls that count as submitted on time.
        self.on_time_share = 0.0
        self.threads_peak = 0

    @property
    def completed(self) -> int:
        return sum(self.correct)

    def delta(self, name: str) -> float:
        return self.after[name] - self.before[name]

    def per_call(self, name: str) -> float:
        return self.delta(name) / max(1, self.completed)

    def timing(self) -> dict[str, list[float]]:
        """Per-segment values of the timing metrics."""
        busy = [i for i in range(SEGMENTS) if self.correct[i] and self.walls[i]]
        timed = [i for i in busy if self.sojourns[i]]
        scale = [REFERENCE_S / speed for speed in self.speeds]
        return {
            "calls_per_s": [
                self.correct[i] / (self.walls[i] * scale[i]) for i in busy],
            "sojourn_p50_ms": [
                percentile(self.sojourns[i], 0.50) * 1e3 * scale[i] for i in timed],
            "sojourn_p95_ms": [
                percentile(self.sojourns[i], 0.95) * 1e3 * scale[i] for i in timed],
            "cpu_ms_per_call": [
                self.cpus[i] * 1e3 * scale[i] / self.correct[i] for i in busy],
        }

    @property
    def late_p95_ms(self) -> float:
        """Open loop: the median over the segments of how late (p95) the
        generator submitted the calls due in each."""
        if not self.late:
            return 0.0
        size = -(-len(self.late) // SEGMENTS)
        return statistics.median(
            percentile(self.late[i : i + size], 0.95)
            for i in range(0, len(self.late), size)
        ) * 1e3

    def steady(self, name: str, values: list[float]) -> float:
        """The window's value of timing metric ``name`` from its
        per-segment values. The open loop's segments are already rid of
        what the host did to them (the on-time calls), and over 16 runs
        their median repeated better than their quartile (p95 7 % against
        11 %, CPU time 6 % against 8 %)."""
        if self.open_loop:
            return statistics.median(values) if values else 0.0
        return steady(values, "higher" if name == "calls_per_s" else "lower")

    @property
    def cpu_ms_per_call(self) -> float:
        return self.steady("cpu_ms_per_call", self.timing()["cpu_ms_per_call"])

    @property
    def bytes_per_call(self) -> float:
        moved = (
            self.delta("state_bytes") + self.delta("snapshot_bytes")
            + self.payload_bytes
        )
        return moved / max(1, self.completed)


def measure(cluster, workload, seconds: float) -> Window:
    gc.collect()
    window = Window(workload.open_loop)
    window.before = counters(cluster)
    window.began = time.perf_counter()
    if workload.open_loop:
        _open_loop(cluster, workload, seconds, window)
    else:
        _closed_loop(cluster, workload, seconds, window)
    window.ended = time.perf_counter()
    window.after = counters(cluster)
    return window


def _closed_loop(cluster, workload, seconds, window) -> None:
    """One client: the next call is sent when the previous one returned.
    A segment is as many whole rounds as fit its share of ``seconds``."""
    clock, cpu_clock, invoke = time.perf_counter, time.process_time, cluster.invoke
    executed, outputs = [], []
    index = workload.warmup_rounds * len(workload.calls)
    marks = [calibrate()]
    for segment in range(SEGMENTS):
        sojourns = window.sojourns[segment]
        first = len(executed)
        start, cpu = clock(), cpu_clock()
        deadline = start + seconds / SEGMENTS
        while clock() < deadline:
            for call in workload.round():
                workload.before_call(cluster, index)
                index += 1
                sent = clock()
                try:
                    result = invoke(call.function, call.payload, CALL_TIMEOUT_S)
                except TimeoutError:
                    result = (None, b"")
                sojourns.append(clock() - sent)
                executed.append(call)
                outputs.append(result)
        window.walls[segment] = clock() - start
        window.cpus[segment] = cpu_clock() - cpu
        marks.append(calibrate())
        window.speeds[segment] = (marks[-2] + marks[-1]) / 2
        window.threads_peak = max(window.threads_peak, threading.active_count())
        if not window.rss_mb and len(executed) >= workload.RSS_CALLS:
            window.rss_mb = peak_rss_mb()
        # Checked after the segment's clocks stopped; a wrong call also
        # loses its place among the latencies.
        good = [
            _checked(call, *result)
            for call, result in zip(executed[first:], outputs[first:])
        ]
        window.sojourns[segment] = [s for s, ok in zip(sojourns, good) if ok]
        window.correct[segment] = sum(good)
    window.attempted = len(executed)
    window.failed = window.attempted - window.completed
    window.wrong_state = bool(workload.wrong_state(cluster, executed))
    window.payload_bytes = sum(
        len(call.payload) + len(result[1])
        for call, result in zip(executed, outputs)
    )


def _open_loop(cluster, workload, seconds, window) -> None:
    """Calls are submitted when the trace says they are due, whether or
    not earlier ones finished; sojourn runs from the due instant.

    The generator sleeps until each due instant, so how late it wakes is a
    reading, two thousand times a second, of how long the host takes to
    wake this virtual CPU: 0.2 ms at p95 in one minute, 2 ms in the next,
    with the same program. A call due inside such a stall, or right behind
    one, queues for a reason the program cannot change, and with every call
    counted the p95 read 0.58 or 2.0 ms by the phase of the host. The
    latency percentiles are therefore taken over the calls the generator
    submitted on time, ``on_time_share`` of them all; every call still
    counts for correctness, throughput, CPU time and the p99 diagnostic."""
    due, calls = workload.trace(seconds)
    ids: list = [None] * len(calls)
    late = [0.0] * len(calls)
    clock, sleep, submit = time.monotonic, time.sleep, cluster.submit
    cpu_clock = time.process_time
    length = seconds / SEGMENTS
    admission = cluster.ingestion().admission
    backlog = [admission.backlog()]
    start = clock() + 0.005
    segment, boundary, cpu = 0, length, cpu_clock()
    for i, call in enumerate(calls):
        if due[i] >= boundary and segment < SEGMENTS - 1:
            # The segment's CPU time is read as its last call is sent; the
            # few calls still in flight are charged to the next one. No
            # speed marks here: a mark would stall the generator, and the
            # open loop's numbers did not follow the marks when tried.
            now = cpu_clock()
            window.cpus[segment] = now - cpu
            backlog.append(admission.backlog())
            segment, boundary, cpu = segment + 1, boundary + length, now
        at = start + due[i]
        wait = at - clock()
        if wait > 0:
            sleep(wait)
        late[i] = clock() - at
        ids[i] = submit(call.function, call.payload, call.tenant)[0]
    backlog.append(admission.backlog())
    window.threads_peak = threading.active_count()
    _await_all(cluster, ids)
    window.cpus[segment] = cpu_clock() - cpu
    window.rss_mb = peak_rss_mb()
    on_time = 0
    every: list[list[float]] = [[] for _ in range(SEGMENTS)]
    for i, call in enumerate(calls):
        segment = min(SEGMENTS - 1, int(due[i] / length))
        quiet = max(late[max(0, i - ON_TIME_RUN) : i + 1]) < ON_TIME_S
        on_time += quiet
        code, output = _finished(cluster, ids[i])
        if _checked(call, code, output):
            record = cluster.calls.get(ids[i])
            sojourn = record.finished_at - (start + due[i])
            every[segment].append(sojourn)
            if quiet:
                window.sojourns[segment].append(sojourn)
            window.correct[segment] += 1
            window.payload_bytes += len(call.payload) + len(output)
    window.on_time_share = on_time / max(1, len(calls))
    window.tail = [s for segment in every for s in segment]
    for segment in range(SEGMENTS):
        # A segment the host disturbed throughout still gives a value.
        if not window.sojourns[segment]:
            window.sojourns[segment] = every[segment]
    window.walls = [length] * SEGMENTS
    window.attempted = len(calls)
    window.failed = window.attempted - window.completed
    window.late = late
    # Validity, judged like the metrics: by what most of the window did,
    # so that one stalled instant of the VM does not void the run.
    quarter = max(1, len(backlog) // 4)
    early = statistics.median(backlog[:quarter])
    final = statistics.median(backlog[-quarter:])
    if window.late_p95_ms > LATE_LIMIT_MS:
        window.invalid = (
            f"load generator ran late: p95 {window.late_p95_ms:.3f} ms")
    elif final > early + workload.BATCH_SIZE:
        # Up to one dispatch quantum is simply the round in flight.
        window.invalid = (
            f"admission backlog grew over the window: {early} -> {final}")


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def end_to_end(window: Window, setups: list[float]) -> tuple[dict, dict, dict]:
    """(metrics, per-segment values, sample counts)."""
    segments = window.timing()
    values = {name: window.steady(name, v) for name, v in segments.items()}
    values["setup_s"] = steady(setups)
    values["global_bytes_per_call"] = window.bytes_per_call
    values["peak_rss_mb"] = window.rss_mb or peak_rss_mb()
    values["failed_share"] = window.failed / max(1, window.attempted)
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in E2E_UNITS.items()
    }
    samples = {name: len(v) for name, v in segments.items()}
    samples["setup_s"] = len(setups)
    samples["calls"] = window.completed
    return metrics, segments, samples


def layer_metrics(tracer, window, workload, setup_began, reference, telemetry_on):
    """Per-layer metrics of the traced window. ``reference`` and
    ``telemetry_on`` are the untraced windows it is compared with."""
    seconds, count = tracer.self_time(window.began, window.ended)
    setup_seconds, _ = tracer.self_time(setup_began, window.began)
    calls = max(1, window.completed)
    colds = max(1, window.delta("cold_starts"))

    def us_per_call(*names):
        return sum(seconds[n] for n in names) * 1e6 / calls

    def us_each(name):
        return seconds[name] * 1e6 / count[name] if count[name] else 0.0

    def share(part, whole):
        return part / whole if whole else 0.0

    def p50_ms(waits):
        inside = [w for at, w in waits if window.began <= at < window.ended]
        return percentile(inside, 0.50) * 1e3 if inside else 0.0

    guest = [g for g in tracer.guest_calls if window.began <= g[0] < window.ended]
    guest_s = sum(g[1] for g in guest)
    instructions = sum(g[2] for g in guest)
    # A guest's count drifts by a few instructions as its bump heap crosses
    # pages, so the exact count is taken over a fixed number of calls.
    counted = guest[:INSTR_CALLS]
    pushed = window.delta("state.bytes_sent")
    pulled = window.delta("state.bytes_received")
    offered = window.attempted
    shares = tracer.layer_shares(seconds)

    def group(prefix):
        return 100.0 * sum(v for k, v in shares.items() if k.startswith(prefix))

    values = {
        "ingest.admit_us_per_call": us_per_call("ingest.submit"),
        "ingest.queue_wait_p50_ms": p50_ms(tracer.queue_wait),
        "ingest.calls_per_batch": share(
            window.delta("bus_batched_calls"), window.delta("bus_batches")),
        "ingest.refused_share": share(
            window.delta("ingest.deferred") + window.delta("ingest.shed"), offered),
        "scheduler.place_us_per_call": us_per_call(
            "scheduler.schedule", "scheduler.schedule_batch"),
        "scheduler.warm_cache_hit_share": share(
            window.delta("sched_hits"),
            window.delta("sched_hits") + window.delta("sched_misses")),
        "scheduler.cold_decision_share": share(
            window.delta("cold_decisions"), window.delta("decisions")),
        "bus.send_us_per_call": us_per_call("bus.send", "bus.send_many"),
        "bus.hop_wait_p50_ms": p50_ms(tracer.hop_wait),
        "bus.msgs_per_call": window.per_call("bus_sent"),
        "calls.registry_us_per_call": us_per_call("calls.registry"),
        "calls.retries_per_call": window.per_call("call.retries"),
        "instance.pool_wait_p50_ms": p50_ms(tracer.pool_wait),
        "instance.execute_self_us": us_each("instance.execute"),
        "instance.cold_start_share": share(
            window.delta("cold_starts"), window.delta("executed")),
        "instance.cold_init_ms_mean": window.delta("init_time") * 1e3 / colds,
        "pagestore.get_proto_us": us_each("pagestore.get_proto"),
        "pagestore.bytes_per_cold": window.delta("snapshot_bytes") / colds,
        "pagestore.round_trips_per_cold": window.delta("snapshot_trips") / colds,
        "pagestore.dedup_hit_share": share(
            window.delta("snapshot_dedup"),
            window.delta("snapshot_dedup") + window.delta("snapshot_pages")),
        "snapshot.restore_us": us_each("snapshot.restore"),
        "snapshot.capture_ms": setup_seconds["snapshot.capture"] * 1e3,
        "faaslet.call_ms_p50": (
            percentile([g[1] for g in guest], 0.50) * 1e3 if guest else 0.0),
        "wasm.instr_per_call": share(sum(g[2] for g in counted), len(counted)),
        "wasm.ns_per_instr": share(guest_s * 1e9, instructions),
        "wasm.codecache_hit_share": share(
            window.after["code_hits"],
            window.after["code_hits"] + window.after["code_misses"]),
        "minilang.compile_ms": setup_seconds["registry.upload"] * 1e3,
        "state.push_us_per_call": us_per_call("state.push"),
        "state.pull_us_per_call": us_per_call("state.pull"),
        "state.local_read_us_per_call": us_per_call("state.local_read"),
        "state.pushed_bytes_per_call": pushed / calls,
        "state.pulled_bytes_per_call": pulled / calls,
        "state.round_trips_per_call": window.per_call("state.round_trips"),
        "state.push_amplification": share(pushed / calls, workload.guest_writes),
        "state.pull_amplification": share(pulled / calls, workload.guest_reads),
        "kv.op_us": us_each("kv.op"),
        "telemetry.full_cpu_overhead_pct": 100.0 * (
            share(telemetry_on.cpu_ms_per_call, reference.cpu_ms_per_call) - 1.0),
        "loadgen.late_p95_ms": window.late_p95_ms,
        "loadgen.offered_per_s": (
            share(offered, sum(window.walls)) if workload.open_loop else 0.0),
        "loadgen.on_time_share": window.on_time_share,
        "proc.threads_peak": window.threads_peak,
        "proc.gc_gen2_collections": window.delta("gc_gen2"),
        "bench.trace_overhead_pct": 100.0 * (
            share(window.cpu_ms_per_call, reference.cpu_ms_per_call) - 1.0),
        "share.runtime_pct": group("runtime."),
        "share.faaslet_pct": group("faaslet."),
        "share.wasm_pct": group("wasm"),
        "share.state_pct": group("state."),
        "share.guest_pct": group("guest"),
    }
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in LAYER_UNITS.items()
    }
    return metrics, shares


def _window(workload, seconds, **how) -> tuple[Window, int]:
    """Set up a fresh cluster, measure one window on it, take it down.
    Returns the window and the number of wrong warm-up calls."""
    cluster, wrong = build(workload, **how)
    try:
        return measure(cluster, workload, seconds), wrong
    finally:
        cluster.shutdown()


def _untraced(workload, seconds) -> dict:
    setups: list[float] = []
    wrong = 0

    def timed_build():
        nonlocal wrong
        mark = calibrate()
        began = time.perf_counter()
        cluster, bad = build(workload)
        elapsed = time.perf_counter() - began
        setups.append(elapsed * REFERENCE_S * 2 / (mark + calibrate()))
        wrong += bad
        return cluster

    # The window runs on the first deployment, so that peak_rss_mb is one
    # deployment's footprint; the other set-ups are timed after it.
    cluster = timed_build()
    try:
        window = measure(cluster, workload, seconds)
    finally:
        cluster.shutdown()
    for _ in range(SETUPS - 1):
        cluster = None
        gc.collect()
        cluster = timed_build()
        cluster.shutdown()
    metrics, segments, samples = end_to_end(window, setups)
    tail = window.tail or [s for segment in window.sojourns for s in segment]
    return {
        "metrics": metrics, "segments": segments, "samples": samples,
        "speeds": window.speeds, "windows": [window], "wrong": wrong,
        "diagnostics": {
            "tail.sojourn_p99_ms": percentile(tail, 0.99) * 1e3 if tail else 0.0,
            "tail.samples": len(tail),
            "setup_s.samples": setups,
            "rss_calls_reached": bool(window.rss_mb),
            "loadgen.on_time_share": window.on_time_share,
        },
    }


def _traced(workload, seconds, trace_path) -> dict:
    third = seconds / 3.0
    reference, wrong = _window(workload, third)
    tracer = Tracer()
    setup_began = time.perf_counter()
    window, bad = _window(workload, third, tracer=tracer)
    wrong += bad
    telemetry_on, bad = _window(
        workload, third, telemetry=Telemetry(enabled=True, sample_rate=1.0))
    wrong += bad
    metrics, shares = layer_metrics(
        tracer, window, workload, setup_began, reference, telemetry_on)
    if trace_path is not None:
        tracer.write(trace_path, (window.began, window.ended),
                     workload=workload.name, seed=workload.seed)
    return {
        "metrics": metrics, "layer_shares": shares,
        "points": tracer.points, "missing_points": tracer.missing_points,
        "samples": {"calls": window.completed, "spans": len(tracer.spans)},
        "windows": [reference, window, telemetry_on], "wrong": wrong,
        "diagnostics": {},
    }


def run_child(name, seed, seconds, trace, broken=False, trace_path=None) -> dict:
    """Measure one workload in this process; returns the result document."""
    workload = WORKLOADS[name](seed, broken=broken)
    result = (
        _traced(workload, seconds, trace_path) if trace
        else _untraced(workload, seconds)
    )
    windows, wrong = result.pop("windows"), result.pop("wrong")
    result["diagnostics"]["warmup_wrong"] = wrong
    invalid = "; ".join(w.invalid for w in windows if w.invalid)
    wrong_state = any(w.wrong_state for w in windows)
    failed = sum(w.failed for w in windows) + wrong
    result.update(
        workload=name, seconds=seconds, traced=trace,
        env={
            "seed": seed,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "hashseed": os.environ.get("PYTHONHASHSEED", ""),
        },
        attempted=sum(w.attempted for w in windows),
        failed=failed, invalid=invalid, wrong_state=wrong_state,
        # What the program did. ``invalid`` is about the measurement: a
        # shared VM makes the generator late without any call going wrong.
        correct=failed == 0 and not wrong_state,
    )
    return result
