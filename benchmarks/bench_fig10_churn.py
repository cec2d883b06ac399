"""Fig. 10 — function churn: creation latency vs creation rate.

Two parts:

* **measured** — the maximum sustainable creation rate of our real
  Faaslets and Proto-Faaslet restores on this machine (the analogue of the
  Faaslet/Proto-Faaslet saturation points);
* **modelled** — the full latency-vs-rate curves for Docker, Faaslets and
  Proto-Faaslets using the calibrated churn model (M/D/1 queueing at a
  serial creation bottleneck), reproducing the knees of Fig. 10: ~3/s for
  Docker, ~600/s for Faaslets, ~4000/s for Proto-Faaslets.
"""

from __future__ import annotations

import time

import pytest

from conftest import report
from repro.baseline import (
    docker_churn_model,
    faaslet_churn_model,
    proto_faaslet_churn_model,
)
from repro.faaslet import Faaslet, FunctionDefinition, ProtoFaaslet
from repro.host import StandaloneEnvironment
from repro.minilang import build

RATES = [0.5, 1, 3, 10, 30, 100, 300, 600, 1000, 2000, 4000, 8000]


def test_fig10_churn_curves(benchmark):
    models = [docker_churn_model(), faaslet_churn_model(), proto_faaslet_churn_model()]

    def sweep():
        rows = []
        for rate in RATES:
            row = {"rate_per_s": rate}
            for model in models:
                row[f"{model.name.lower()}_ms"] = round(
                    model.latency_at_rate(rate) * 1e3, 3
                )
            rows.append(row)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("fig10_churn", "Fig. 10: creation latency vs churn rate", rows)

    by_rate = {r["rate_per_s"]: r for r in rows}
    # Below saturation: flat plateaus at ~2 s / ~5 ms / ~0.5 ms.
    assert 1500 < by_rate[1]["docker_ms"] < 3000
    assert 4 < by_rate[100]["faaslet_ms"] < 10
    assert 0.3 < by_rate[1000]["proto-faaslet_ms"] < 1.5
    # Past the knees, latency blows up: Docker by 10/s, Faaslets by 1000/s,
    # Proto-Faaslets by 8000/s.
    assert by_rate[10]["docker_ms"] > 10 * by_rate[1]["docker_ms"]
    assert by_rate[1000]["faaslet_ms"] > 10 * by_rate[100]["faaslet_ms"]
    assert by_rate[8000]["proto-faaslet_ms"] > 10 * by_rate[1000]["proto-faaslet_ms"]
    # Ordering holds everywhere: proto < faaslet < docker.
    for row in rows:
        assert row["proto-faaslet_ms"] < row["faaslet_ms"] < row["docker_ms"]


def test_fig10_measured_creation_rates(benchmark):
    """Sustained creation throughput of the real implementation."""
    env = StandaloneEnvironment()
    definition = FunctionDefinition.build("noop", build("export int main() { return 0; }"))
    proto = ProtoFaaslet.capture(definition, env)

    def burst(fn, count=200):
        start = time.perf_counter()
        for _ in range(count):
            fn()
        return count / (time.perf_counter() - start)

    faaslet_rate = burst(lambda: Faaslet(definition, env))
    proto_rate = burst(lambda: proto.restore(env))
    benchmark.pedantic(lambda: proto.restore(env), rounds=50, iterations=10)

    rows = [
        {"mechanism": "faaslet (measured)", "creations_per_s": round(faaslet_rate),
         "paper_ceiling": "~600/s"},
        {"mechanism": "proto-faaslet (measured)", "creations_per_s": round(proto_rate),
         "paper_ceiling": "~4000/s"},
        {"mechanism": "docker (modelled)", "creations_per_s": 3,
         "paper_ceiling": "~3/s"},
    ]
    report("fig10_measured", "Fig. 10: measured creation rates", rows)
    # Orders of magnitude: real Faaslets outpace the modelled Docker
    # ceiling by at least the paper's knee ratio (~600/s over ~3/s), and
    # proto restores are at least as fast as full instantiation.
    docker_ceiling = docker_churn_model().saturation_rate
    knee_ratio = faaslet_churn_model().saturation_rate / docker_ceiling
    assert faaslet_rate / docker_ceiling >= knee_ratio
    assert proto_rate >= faaslet_rate * 0.8
