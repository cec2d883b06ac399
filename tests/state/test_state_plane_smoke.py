"""Tier-1 regression guard for the delta-sync state plane.

The full benchmark (``benchmarks/bench_state_plane.py``) measures the
data plane at 1 MiB scale; this smoke test is its fast tier-1 proxy: a
sparse-update push on a smaller value must still save at least the
bytes-saved floor stored in ``benchmarks/results/state_plane.json``. The
metric is a deterministic byte count (meter accounting), not a timing, so
the guard is machine-independent — it catches regressions that silently
fall back to full-value pushes (lost dirty tracking, a listener that
stopped firing, spans not clipped).

Run just this guard with ``python benchmarks/bench_state_plane.py
--smoke`` or ``pytest -m smoke``.
"""


import pytest

from repro.state import GlobalStateStore, LocalTier, StateClient
from tests.conftest import stored_floor

#: Used when the results file is missing (fresh checkout, no bench run).
_DEFAULT_FLOOR = 10.0


@pytest.mark.smoke
def test_sparse_push_bytes_saved_floor():
    """A ≤1% sparse update must push ≥floor× fewer bytes than a full push."""
    size = 128 * 1024
    store = GlobalStateStore()
    store.set_value("v", b"\x00" * size)
    tier = LocalTier("smoke", StateClient(store))
    tier.pull("v")

    n_writes, span = 16, 64  # 1 KiB dirty = 0.78% of the value
    step = size // n_writes
    for i in range(n_writes):
        tier.write_local("v", b"\x7f" * span, i * step)

    meter = tier.client.meter
    meter.reset()
    tier.push("v")

    # Semantics first: the guard is meaningless if the push is wrong.
    value = store.get_value("v")
    assert value.count(0x7F) == n_writes * span
    assert meter.round_trips == 1, "dirty spans must batch into one trip"

    ratio = size / meter.sent_bytes
    floor = stored_floor("state_plane", _DEFAULT_FLOOR)
    assert ratio >= floor, (
        f"sparse push saved only {ratio:.1f}x bytes, below the stored "
        f"floor {floor}x ({meter.sent_bytes} of {size} bytes shipped)"
    )
