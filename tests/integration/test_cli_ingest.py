"""``repro ingest``: open-loop trace replay through the ingestion plane."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def test_ingest_multi_tenant_plain(capsys):
    assert main([
        "ingest", "--trace", "multi", "--tenants", "2",
        "--rate", "400", "--duration", "0.5", "--hosts", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "trace multi:" in out
    assert "admitted" in out and "deferred" in out and "shed" in out
    assert "throughput" in out and "batches" in out
    assert "sojourn p50" in out and "p99" in out
    # Fairness table: both tenants and their weight/share columns.
    assert "tenant-0" in out and "tenant-1" in out
    assert "weight" in out and "fair" in out


def test_ingest_poisson_json(capsys):
    assert main([
        "ingest", "--trace", "poisson", "--tenants", "1",
        "--rate", "300", "--duration", "0.5", "--hosts", "2", "--json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trace"] == "poisson"
    assert doc["events"] > 0
    assert doc["admitted"] == doc["events"]  # no backpressure at this rate
    assert doc["deferred"] == 0 and doc["shed"] == 0
    assert doc["throughput_cps"] > 0
    assert doc["batched_calls"] == doc["admitted"]
    assert doc["sojourn_p99_ms"] >= doc["sojourn_p50_ms"] >= 0
    tenants = doc["tenants"]
    assert set(tenants) == {"tenant-0"}
    assert tenants["tenant-0"]["served"] == doc["admitted"]


def test_ingest_named_tenant_weights(capsys):
    assert main([
        "ingest", "--trace", "multi", "--tenants", "gold:3,bronze:1",
        "--rate", "400", "--duration", "0.5", "--hosts", "2", "--json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["tenants"]) == {"gold", "bronze"}
    assert doc["tenants"]["gold"]["weight"] == 3.0
    assert doc["tenants"]["bronze"]["fair_share"] == 0.25


def test_ingest_bare_tenant_name_weighs_one(capsys):
    assert main([
        "ingest", "--trace", "poisson", "--tenants", "gold",
        "--rate", "200", "--duration", "0.2", "--hosts", "2", "--json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["tenants"]) == {"gold"}
    assert doc["tenants"]["gold"]["weight"] == 1.0
    assert doc["tenants"]["gold"]["fair_share"] == 1.0


@pytest.mark.parametrize("spec", ["gold:-1,free:1", "gold:0", "gold:nan", "gold:x"])
def test_ingest_refuses_non_positive_or_non_finite_weights(spec, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([
            "ingest", "--tenants", spec,
            "--rate", "200", "--duration", "0.2", "--json",
        ])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--tenants" in err and "weight" in err
    assert "Traceback" not in err
