"""Base class for simulated serverless platforms.

Concrete models — :class:`~repro.sim.faasm_platform.FaasmSimPlatform` and
:class:`~repro.baseline.knative.KnativeSimPlatform` — share the execution
skeleton here: scheduling a call onto a host, walking the workload's op
generator, and recording latency/billable-memory metrics. They differ in
the hooks: isolation-unit acquisition (cold vs warm), state-op semantics
and chaining cost, which is exactly where the paper's two systems differ.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from .cluster import OutOfMemory, SimCluster, SimHost
from .engine import Environment, all_of
from .metrics import ExperimentMetrics
from .workload import (
    Await,
    CallHandle,
    Chain,
    Compute,
    LoadExternal,
    SimFunction,
    StateRead,
    StateWrite,
)


@dataclass
class SimCall:
    """Bookkeeping for one invocation on a simulated platform."""

    function: SimFunction
    arg: object
    host: SimHost | None = None
    #: Isolation unit (container / faaslet model), platform-specific.
    unit: object = None
    #: Host of the chaining caller, when this call was chained.
    origin: SimHost | None = None
    submitted: float = 0.0
    started: float = 0.0
    peak_memory: int = 0
    failed: bool = False


class SimPlatform(ABC):
    """Shared machinery for simulated serverless platforms."""

    def __init__(self, cluster: SimCluster):
        self.cluster = cluster
        self.env: Environment = cluster.env
        self.metrics = ExperimentMetrics()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def invoke(self, function: SimFunction, arg=None, origin: SimHost | None = None) -> CallHandle:
        """Submit a call; returns a handle whose process yields on finish.

        ``origin`` is the chaining caller's host, used by locality-aware
        platforms for placement.
        """
        process = self.env.process(self._run_call(function, arg, origin))
        return CallHandle(process, function.name)

    def invoke_many(self, function: SimFunction, args: list) -> list[CallHandle]:
        return [self.invoke(function, arg) for arg in args]

    # ------------------------------------------------------------------
    # Call skeleton
    # ------------------------------------------------------------------
    def _run_call(self, function: SimFunction, arg, origin: SimHost | None = None):
        call = SimCall(function, arg, origin=origin, submitted=self.env.now)
        try:
            yield from self._acquire_unit(call)
        except OutOfMemory:
            # The platform could not place the call: the paper's Knative
            # runs hit exactly this beyond ~30 parallel functions (§6.2).
            self.metrics.failures += 1
            call.failed = True
            return
        call.started = self.env.now
        try:
            yield from self._interpret(call)
        except OutOfMemory:
            self.metrics.failures += 1
            call.failed = True
        finally:
            finished = self.env.now
            if not call.failed:
                self.metrics.latency.record(finished - call.submitted)
                self.metrics.billable.record(
                    call.peak_memory, finished - call.started
                )
            yield from self._release_unit(call)

    def _interpret(self, call: SimCall):
        generator = call.function.body(call.arg)
        to_send = None
        while True:
            try:
                op = generator.send(to_send)
            except StopIteration:
                return
            to_send = None
            if isinstance(op, Compute):
                yield from self._do_compute(call, op)
            elif isinstance(op, StateRead):
                yield from self._do_state_read(call, op)
            elif isinstance(op, StateWrite):
                yield from self._do_state_write(call, op)
            elif isinstance(op, LoadExternal):
                yield from self._do_load_external(call, op)
            elif isinstance(op, Chain):
                to_send = yield from self._do_chain(call, op)
            elif isinstance(op, Await):
                yield all_of(self.env, [h.process for h in op.handles])
            else:
                raise TypeError(f"unknown workload op {op!r}")

    def _do_compute(self, call: SimCall, op: Compute):
        if op.seconds > 0:
            yield self.env.timeout(op.seconds * self.compute_slowdown())
        return
        yield  # pragma: no cover - keeps this a generator when seconds == 0

    def compute_slowdown(self) -> float:
        """Multiplier on compute time (e.g. wasm overhead in Faasm)."""
        return 1.0

    # ------------------------------------------------------------------
    # Platform-specific hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def _acquire_unit(self, call: SimCall):
        """Pick a host and an isolation unit (cold or warm); a generator."""

    @abstractmethod
    def _release_unit(self, call: SimCall):
        """Return the unit to the warm pool / reclaim; a generator."""

    @abstractmethod
    def _do_state_read(self, call: SimCall, op: StateRead):
        ...

    @abstractmethod
    def _do_state_write(self, call: SimCall, op: StateWrite):
        ...

    @abstractmethod
    def _do_load_external(self, call: SimCall, op: LoadExternal):
        ...

    @abstractmethod
    def _do_chain(self, call: SimCall, op: Chain):
        """Issue a chained call; returns (via generator return) a handle."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def least_loaded_host(self) -> SimHost:
        return min(self.cluster.hosts, key=lambda h: h.mem_used)

    def track_peak(self, call: SimCall, unit_memory: int) -> None:
        call.peak_memory = max(call.peak_memory, unit_memory)
