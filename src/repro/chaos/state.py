"""A global state store whose stripes can go dark.

:class:`ChaosStateStore` subclasses the real
:class:`~repro.state.kv.GlobalStateStore` and interposes on stripe-lock
lookup — the single choke point every keyed operation (gets, sets, range
ops, atomic updates) passes through — so an armed
:class:`~repro.chaos.plan.StripeOutage` makes the affected operations
raise :class:`~repro.state.kv.StateUnavailableError` with zero changes to
the store's own code paths.

Recovery happens in the layers above: :class:`~repro.state.kv.StateClient`
rides out short windows with bounded in-place retries, the warm-set
registry degrades to advisory no-ops, and an executor that still sees the
error parks its attempt for the invocation monitor to re-dispatch.
"""

from __future__ import annotations

from repro.state.kv import DEFAULT_STRIPES, GlobalStateStore

from .engine import ChaosEngine


class ChaosStateStore(GlobalStateStore):
    """A :class:`GlobalStateStore` under a chaos engine's outage windows."""

    def __init__(self, engine: ChaosEngine, n_stripes: int = DEFAULT_STRIPES):
        super().__init__(n_stripes)
        self.engine = engine

    def _stripe(self, key: str):
        index = self.stripe_of(key)
        self.engine.check_stripe(index)
        return self._stripes[index]
