"""Seeded chaos soak: many calls, many faults, exactly-one outcome each.

The soak is the chaos plane's headline experiment (and the CLI's
``repro chaos`` subcommand): build a plan from a seed, run a few hundred
stateful calls through a multi-host cluster under that plan, and verify
the invariant the invocation plane promises — **every accepted call
reaches exactly one terminal state** (SUCCEEDED, FAILED, or CALL_FAILED),
no matter how many messages were dropped, hosts crashed, or state stripes
went dark. A second run with the same seed must reproduce the same
canonical fault log byte for byte.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.runtime.calls import CallStatus
from repro.runtime.cluster import FaasmCluster
from repro.runtime.monitor import RetryPolicy
from repro.state.kv import StateKeyError, StateUnavailableError

from .plan import ChaosPlan, CrashSpec, StripeOutage

_PHASES = ("mid-guest", "pre-complete", "pre-dispatch")

#: Aggressive retries sized for an in-process soak: sub-second attempt
#: timeouts so dropped messages are recovered quickly, and a budget deep
#: enough that drop + crash + outage on one call still converges.
SOAK_RETRY_POLICY = RetryPolicy(
    max_attempts=8,
    attempt_timeout=0.6,
    base_delay=0.02,
    max_delay=0.25,
    jitter=0.2,
)


def build_plan(
    seed: int,
    calls: int = 500,
    drop_rate: float = 0.10,
    duplicate_rate: float = 0.05,
    delay_rate: float = 0.05,
    reorder_rate: float = 0.03,
    n_crashes: int = 2,
    n_outages: int = 1,
) -> ChaosPlan:
    """A soak plan for ``calls`` invocations, derived entirely from ``seed``.

    Crash targets are drawn from the middle half of the call-id range (so
    the cluster is warm and loaded when hosts die), cycling through the
    three crash phases; outage windows land early enough in each stripe's
    operation count that soak traffic actually reaches them.
    """
    rng = random.Random(seed)
    lo, hi = max(1, calls // 4), max(2, (3 * calls) // 4)
    crash_ids = rng.sample(range(lo, hi), min(n_crashes, hi - lo))
    crashes = tuple(
        CrashSpec(call_id, _PHASES[i % len(_PHASES)])
        for i, call_id in enumerate(crash_ids)
    )
    outages = tuple(
        StripeOutage(
            stripe=rng.randrange(16),
            start_op=rng.randrange(40, 120),
            n_ops=30,
        )
        for _ in range(n_outages)
    )
    return ChaosPlan(
        seed=seed,
        drop_rate=drop_rate,
        duplicate_rate=duplicate_rate,
        delay_rate=delay_rate,
        reorder_rate=reorder_rate,
        crashes=crashes,
        stripe_outages=outages,
    )


def chaos_target(ctx):
    """The soak's guest: a stateful read-then-write-then-publish per call."""
    idx = ctx.input().decode() or "0"
    try:
        # Shared hot read (seeded by run_soak when present): the stable
        # access every call makes, and so part of the canonical fault
        # log. Reading it is optional — a cluster that never seeded the
        # key just skips it.
        ctx.state.get_state_offset("chaos/config", 0, 64, mark_dirty=False)
    except StateKeyError:
        pass
    key = f"chaos/out/{idx}"
    ctx.state.set_state(key, f"done-{idx}".encode())
    ctx.state.push_state(key)
    ctx.write_output(f"ok-{idx}".encode())
    return 0


@dataclass
class SoakReport:
    """What happened to every call dispatched by a soak run."""

    seed: int
    calls: int
    completed: int
    guest_failed: int
    call_failed: int
    stranded: list[int]
    retries: int
    crashes_fired: int
    duration_s: float
    digest: str
    #: Errors the cluster's watchdog loops caught and survived
    #: (``errors.swallowed``, every site).
    swallowed: int
    log_lines: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """The soak invariant: no call left without a terminal state."""
        return not self.stranded

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "calls": self.calls,
            "completed": self.completed,
            "guest_failed": self.guest_failed,
            "call_failed": self.call_failed,
            "stranded": self.stranded,
            "retries": self.retries,
            "crashes_fired": self.crashes_fired,
            "duration_s": round(self.duration_s, 3),
            "digest": self.digest,
            "swallowed": self.swallowed,
            "ok": self.ok,
        }


def run_soak(
    seed: int,
    calls: int = 500,
    hosts: int = 4,
    drop_rate: float = 0.10,
    n_crashes: int = 2,
    n_outages: int = 1,
    timeout: float = 20.0,
    plan: ChaosPlan | None = None,
    ingest: bool = False,
) -> SoakReport:
    """Run a full seeded soak and report every call's fate.

    With ``ingest=True`` the calls enter through the ingestion plane
    (admission + batched dispatch + ``ExecuteBatch`` pool execution,
    DESIGN.md §11) instead of per-call ``dispatch`` — the batched plane
    must preserve both the exactly-once invariant and the seed's
    byte-identical canonical fault log, since every fault decision is
    identity-hashed on the call id, never on batch composition.
    """
    plan = plan if plan is not None else build_plan(
        seed, calls=calls, drop_rate=drop_rate,
        n_crashes=n_crashes, n_outages=n_outages,
    )
    cluster = FaasmCluster(
        n_hosts=hosts, chaos=plan, retry_policy=SOAK_RETRY_POLICY
    )
    start = time.monotonic()
    try:
        cluster.register_python("chaos-target", chaos_target)
        try:
            # The shared hot key every call reads; seeded before any fault
            # window can arm so its absence never depends on the plan.
            cluster.global_state.set_value("chaos/config", b"\x07" * 64)
        except StateUnavailableError:
            pass
        if ingest:
            from repro.runtime.ingest import IngestionConfig

            cluster.ingestion(
                IngestionConfig(default_queue_limit=calls + 16)
            )
            ids = []
            for i in range(calls):
                call_id, outcome = cluster.submit(
                    "chaos-target", str(i).encode()
                )
                assert outcome == "admitted", outcome
                ids.append(call_id)
        else:
            ids = [
                cluster.dispatch("chaos-target", str(i).encode())
                for i in range(calls)
            ]
        deadline = start + timeout
        records = [cluster.calls.get(call_id) for call_id in ids]
        for record in records:
            record.done.wait(max(0.0, deadline - time.monotonic()))
        completed = sum(
            1 for r in records if r.status is CallStatus.SUCCEEDED
        )
        guest_failed = sum(1 for r in records if r.status is CallStatus.FAILED)
        call_failed = sum(
            1 for r in records if r.status is CallStatus.CALL_FAILED
        )
        stranded = [r.call_id for r in records if not r.done.is_set()]
        retries = sum(r.retries for r in records)
        engine = cluster.chaos
        return SoakReport(
            seed=plan.seed,
            calls=calls,
            completed=completed,
            guest_failed=guest_failed,
            call_failed=call_failed,
            stranded=stranded,
            retries=retries,
            crashes_fired=engine.crashes_fired(),
            duration_s=time.monotonic() - start,
            digest=engine.log.digest(),
            swallowed=int(cluster.telemetry.metrics.aggregate("errors.swallowed")),
            log_lines=engine.log.canonical_lines(),
        )
    finally:
        cluster.shutdown()
