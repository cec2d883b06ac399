"""Fully-sandboxed HOGWILD SGD tests (Listing 1 in wasm)."""

import sys

import numpy as np
import pytest

from repro.apps.wasm_sgd import (
    W_KEY,
    X_KEY,
    Y_KEY,
    make_linear_dataset,
    run_wasm_sgd,
    setup_wasm_sgd,
)
from repro.runtime import FaasmCluster


def test_converges_single_worker():
    X, y, true_w = make_linear_dataset(n=150, d=6)
    cluster = FaasmCluster(n_hosts=1)
    setup_wasm_sgd(cluster, X, y)
    w = run_wasm_sgd(cluster, 150, 6, n_workers=1, epochs=6, lr=0.05)
    assert float(np.mean((X @ w - y) ** 2)) < 0.01
    assert np.linalg.norm(w - true_w) < 0.3


def test_hogwild_concurrent_workers_converge():
    """Four workers race lock-free on one mapped weights region and the
    model still converges — the HOGWILD property the paper leans on."""
    X, y, true_w = make_linear_dataset(n=240, d=8)
    cluster = FaasmCluster(n_hosts=1, capacity=8)
    setup_wasm_sgd(cluster, X, y)
    w = run_wasm_sgd(cluster, 240, 8, n_workers=4, epochs=5, lr=0.05)
    assert float(np.mean((X @ w - y) ** 2)) < 0.01


def test_colocated_workers_share_one_dataset_replica():
    """The training matrix crosses the network once per host, not once per
    worker (the §4.2 local-tier claim, now for wasm guests)."""
    n = 1600
    X, y, _ = make_linear_dataset(n=n, d=8)
    cluster = FaasmCluster(n_hosts=1, capacity=8)
    setup_wasm_sgd(cluster, X, y)
    # Enough work per call that the four dispatches overlap and the pool
    # grows past one Faaslet (sized for the compiled tier's guest speed).
    run_wasm_sgd(cluster, n, 8, n_workers=4, epochs=8, lr=0.02)
    meter = cluster.instances[0].state_client.meter
    x_bytes = n * 8 * 8
    # Received: X once, y once, w once — NOT multiplied by the 4 workers.
    assert meter.received_bytes <= x_bytes + n * 8 + 8 * 8 + 1024

    replica = cluster.instances[0].local_tier.replica(X_KEY)
    # At least two Faaslets ran concurrently, each mapping the SAME region.
    assert replica.region.mapping_count >= 2


def test_warm_calls_leave_one_mapping_per_pooled_faaslet():
    """Each warm call unmaps what the call before it mapped and a reclaimed
    Faaslet unmaps what it held, so a region's mappings are bounded by the
    pool, not by the number of calls — with workers racing at a short
    switch interval too."""
    X, y, _ = make_linear_dataset(n=60, d=4)
    cluster = FaasmCluster(n_hosts=1, capacity=8)
    setup_wasm_sgd(cluster, X, y)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(6):
            run_wasm_sgd(cluster, 60, 4, n_workers=3, epochs=1, lr=0.05)
    finally:
        sys.setswitchinterval(interval)
    instance = cluster.instances[0]
    pooled = instance.warm_count("wsgd_worker")
    assert instance.metrics.cold_starts == pooled
    assert instance.metrics.warm_hits == 18 - pooled
    regions = [instance.local_tier.replica(k).region for k in (X_KEY, Y_KEY, W_KEY)]
    for region in regions:
        assert 1 <= region.mapping_count <= pooled
        assert len(region._mapped_pages) <= pooled * region.n_pages
    instance.reclaim_idle()
    assert [(r.mapping_count, r._mapped_pages) for r in regions] == [(0, [])] * 3


def test_weights_pushed_to_global_tier():
    X, y, _ = make_linear_dataset(n=60, d=4)
    cluster = FaasmCluster(n_hosts=1)
    setup_wasm_sgd(cluster, X, y)
    w = run_wasm_sgd(cluster, 60, 4, n_workers=2, epochs=2, lr=0.05)
    stored = np.frombuffer(cluster.global_state.get_value(W_KEY), dtype=np.float64)
    np.testing.assert_array_equal(stored, w)
    assert np.any(stored != 0)


def test_bad_learning_rate_rejected():
    cluster = FaasmCluster(n_hosts=1)
    X, y, _ = make_linear_dataset(n=20, d=2)
    setup_wasm_sgd(cluster, X, y)
    with pytest.raises(ValueError):
        run_wasm_sgd(cluster, 20, 2, lr=1.5)
