"""Continuous guest profiler: sampled call-stacks -> flamegraph artifacts.

The interpreter's ``profile=True`` mode counts every opcode — exact, but
interp-tier only and far too slow to leave on. This module is the
*continuous* profiler: a per-instance tap keeps a shadow stack of guest
function indices (pushed/popped in ``Instance._call``, the chokepoint
both execution tiers share) and, every ``interval``-th guest call,
records the stack weighted by the instance's dispatch counter delta
(``instructions_executed`` — the compiled tier's superblock-batched
fuel meter). Off means one ``is not None`` check per guest call; on costs an
append/pop plus a counter decrement, with the weighted sample taken only
at the sampling period.

Artifacts export in the two formats flamegraph tooling speaks:

* **collapsed stacks** (``frame;frame;frame weight`` lines) — pipe into
  ``flamegraph.pl`` or load in speedscope;
* **speedscope JSON** (``"type": "sampled"`` profiles) — open directly
  at https://www.speedscope.app.

Both round-trip: :func:`load_collapsed` / :func:`load_speedscope`
recover the exact stack->weight table, which is how the exporter tests
verify them.
"""

from __future__ import annotations

import json
import threading

SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"

#: Default sampling period, in guest function calls.
DEFAULT_INTERVAL = 16


class FunctionProfile:
    """Aggregated samples for one deployed function."""

    __slots__ = ("stacks", "samples", "weight")

    def __init__(self):
        #: stack (tuple of frame names, outermost first) -> total weight.
        self.stacks: dict[tuple, int] = {}
        self.samples = 0
        self.weight = 0

    def record(self, stack: tuple, weight: int) -> None:
        self.stacks[stack] = self.stacks.get(stack, 0) + weight
        self.samples += 1
        self.weight += weight


class _ProfilerTap:
    """Per-instance shadow stack; installed as ``instance._profiler``."""

    __slots__ = ("profiler", "function", "names", "stack", "countdown",
                 "interval", "last_executed")

    def __init__(self, profiler: "ContinuousProfiler", instance, function: str):
        self.profiler = profiler
        self.function = function
        self.interval = profiler.interval
        self.countdown = profiler.interval
        self.last_executed = instance.instructions_executed
        self.stack: list[int] = []
        #: function index -> display name, resolved lazily.
        self.names: dict[int, str] = {}

    def _name(self, instance, index: int) -> str:
        name = self.names.get(index)
        if name is None:
            fn = instance.funcs[index]
            name = getattr(fn, "name", None)
            if not name:
                for export_name, export in instance.module.export_map().items():
                    if export.kind == "func" and export.index == index:
                        name = export_name
                        break
            if not name:
                name = f"fn{index}"
            self.names[index] = name
        return name

    def enter(self, instance, index: int) -> None:
        self.stack.append(index)
        self.countdown -= 1
        if self.countdown <= 0:
            self.countdown = self.interval
            executed = instance.instructions_executed
            weight = max(1, executed - self.last_executed)
            self.last_executed = executed
            frames = tuple(self._name(instance, i) for i in self.stack)
            self.profiler._record(self.function, frames, weight)

    def exit(self) -> None:
        if self.stack:
            self.stack.pop()


class ContinuousProfiler:
    """Collects sampled guest stacks across every attached instance."""

    def __init__(self, interval: int = DEFAULT_INTERVAL):
        if interval < 1:
            raise ValueError("sampling interval must be >= 1")
        self.interval = interval
        self._lock = threading.Lock()
        self._functions: dict[str, FunctionProfile] = {}

    # ------------------------------------------------------------------
    def attach(self, instance, function: str) -> None:
        """Install a tap on ``instance``, attributing samples to
        ``function``. Idempotent per instance."""
        tap = getattr(instance, "_profiler", None)
        if tap is not None and tap.function == function:
            return
        instance._profiler = _ProfilerTap(self, instance, function)

    def detach(self, instance) -> None:
        instance._profiler = None

    def _record(self, function: str, stack: tuple, weight: int) -> None:
        with self._lock:
            profile = self._functions.get(function)
            if profile is None:
                profile = self._functions[function] = FunctionProfile()
            profile.record(stack, weight)

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def functions(self) -> list[str]:
        with self._lock:
            return sorted(self._functions)

    def stacks(self, function: str) -> dict[tuple, int]:
        with self._lock:
            profile = self._functions.get(function)
            return dict(profile.stacks) if profile else {}

    def sample_count(self, function: str) -> int:
        with self._lock:
            profile = self._functions.get(function)
            return profile.samples if profile else 0

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def collapsed(self, function: str) -> str:
        """Brendan Gregg collapsed-stack format, one line per stack."""
        return to_collapsed(self.stacks(function))

    def speedscope(self, function: str) -> dict:
        """A speedscope-compatible sampled-profile document."""
        return to_speedscope(function, self.stacks(function))


# ----------------------------------------------------------------------
# Format round-trips
# ----------------------------------------------------------------------
def to_collapsed(stacks: dict[tuple, int]) -> str:
    """Render ``{stack-tuple: weight}`` as Brendan-Gregg collapsed-stack
    text (``frame;frame weight`` per line), flamegraph.pl-compatible."""
    lines = [
        ";".join(frames) + f" {weight}"
        for frames, weight in sorted(stacks.items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def load_collapsed(text: str) -> dict[tuple, int]:
    """Inverse of :func:`to_collapsed`; duplicate stacks sum weights."""
    stacks: dict[tuple, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        frames, _, weight = line.rpartition(" ")
        key = tuple(frames.split(";"))
        stacks[key] = stacks.get(key, 0) + int(weight)
    return stacks


def to_speedscope(name: str, stacks: dict[tuple, int]) -> dict:
    """Render stacks as a speedscope ``sampled``-type profile document
    (one sample per distinct stack, fuel as the weight unit)."""
    frame_index: dict[str, int] = {}
    frames: list[dict] = []
    samples: list[list[int]] = []
    weights: list[int] = []
    for stack, weight in sorted(stacks.items()):
        sample = []
        for frame in stack:
            idx = frame_index.get(frame)
            if idx is None:
                idx = frame_index[frame] = len(frames)
                frames.append({"name": frame})
            sample.append(idx)
        samples.append(sample)
        weights.append(weight)
    total = sum(weights)
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "none",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }
        ],
        "exporter": "repro-telemetry",
        "name": name,
    }


def load_speedscope(doc: dict | str) -> dict[tuple, int]:
    """Inverse of :func:`to_speedscope`; accepts the dict or its JSON."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    if doc.get("$schema") != SPEEDSCOPE_SCHEMA:
        raise ValueError("not a speedscope document")
    frames = [f["name"] for f in doc["shared"]["frames"]]
    stacks: dict[tuple, int] = {}
    for profile in doc["profiles"]:
        for sample, weight in zip(profile["samples"], profile["weights"]):
            key = tuple(frames[i] for i in sample)
            stacks[key] = stacks.get(key, 0) + int(weight)
    return stacks
