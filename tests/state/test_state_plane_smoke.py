"""Tier-1 guard for the delta-sync state plane, in exact byte counts.

A sparse-update push must ship exactly the dirty bytes in one round trip,
and a chunked pull must fill every gap of a replica in one round trip
that carries exactly the missing bytes. Both are meter counts, not
timings, so a fallback to full-value pushes (lost dirty tracking, a
listener that stopped firing, spans not clipped) or to one RPC per gap
changes a number and fails here on any machine.
"""


import pytest

from repro.state import GlobalStateStore, LocalTier, StateClient


@pytest.mark.smoke
def test_sparse_push_bytes_saved_floor():
    """A 0.78 % sparse update pushes its 1 KiB of dirty bytes and no more:
    128x fewer than the 128 KiB full push."""
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

    value = store.get_value("v")
    for i in range(n_writes):
        assert value[i * step : i * step + span] == b"\x7f" * span
    assert value.count(0x7F) == n_writes * span
    assert meter.round_trips == 1, "dirty spans must batch into one trip"
    assert meter.sent_bytes == n_writes * span


@pytest.mark.smoke
def test_chunked_pull_fills_every_gap_in_one_trip():
    """A replica of a 1 MiB value with 32 missing gaps back-fills them in
    ONE round trip that carries exactly the missing half."""
    size = 1024 * 1024
    store = GlobalStateStore()
    store.set_value("v", bytes(i % 251 for i in range(size)))
    tier = LocalTier("smoke", StateClient(store))

    n_gaps = 32
    step = size // (n_gaps * 2)
    for i in range(n_gaps):  # alternate stripes: 32 holes between them
        tier.pull_chunk("v", (2 * i) * step, step)

    meter = tier.client.meter
    meter.reset()
    tier.pull_chunk("v", 0, size)
    assert tier.read_local("v", 0, size) == store.get_value("v")
    assert meter.round_trips == 1
    assert meter.received_bytes == size // 2
