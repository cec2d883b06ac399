"""CLI observability commands: profiles, top, report."""

from __future__ import annotations

import json

from repro.cli import main
from repro.telemetry.profiler import load_collapsed, load_speedscope


def test_profiles_prints_mined_state_and_snapshot_data(capsys):
    assert main(["profiles", "--hosts", "2", "--calls", "3"]) == 0
    out = capsys.readouterr().out
    assert "persisted content-addressed" in out
    for fn in ("pipeline", "stage", "kernel"):
        assert f"== {fn} ==" in out
    assert "hot write ranges:" in out
    assert "grid:" in out
    assert "snapshot:" in out and "payload" in out
    assert "chains: stage" in out


def test_profiles_single_function_and_json(capsys):
    assert main(["profiles", "stage", "--calls", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"stage"}
    profile = doc["stage"]
    assert profile["schema"] == "repro-profile/1"
    assert profile["calls"] > 0
    assert "grid" in profile["state"]


def test_profiles_unknown_function_fails(capsys):
    assert main(["profiles", "ghost", "--calls", "1"]) == 1
    assert "no profile for 'ghost'" in capsys.readouterr().err


def test_profiles_writes_flamegraph_artifacts(tmp_path, capsys):
    flame_dir = tmp_path / "flames"
    assert main([
        "profiles", "--calls", "2", "--flame-dir", str(flame_dir),
    ]) == 0
    collapsed = (flame_dir / "kernel.collapsed").read_text()
    stacks = load_collapsed(collapsed)
    assert stacks, "continuous profiler produced no samples"
    doc = json.loads((flame_dir / "kernel.speedscope.json").read_text())
    assert load_speedscope(doc) == stacks


def test_top_renders_frames(capsys):
    assert main([
        "top", "--frames", "2", "--interval", "0.2", "--plain",
    ]) == 0
    out = capsys.readouterr().out
    assert out.count("repro top —") == 2
    assert "frame 2/2" in out
    assert "p99ms" in out and "burn" in out
    # The ingestion row is always present; the demo cluster has no
    # ingestion plane, so it shows the bus-depth fallback form.
    assert "ingest" in out and "queued" in out and "sojourn" in out
    for fn in ("pipeline", "stage", "kernel"):
        assert fn in out


def test_report_markdown(capsys):
    assert main(["report", "--calls", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# repro cluster report")
    assert "## Cluster aggregates" in out
    assert "## Service levels" in out
    assert "### `stage`" in out
    assert "`instance.calls_executed`" in out
    # The forced-pull counters, by fall-back cause.
    assert "`state.delta_pulls`" in out and "`state.bytes_saved`" in out
    for cause in ("unknown-version", "partial", "overflow", "resized"):
        assert f"`state.full_fallbacks{{cause={cause}}}`" in out
    assert "OpenMetrics endpoint served" in out


def test_report_html_to_file(tmp_path, capsys):
    out_file = tmp_path / "report.html"
    assert main([
        "report", "--calls", "1", "--html", "--out", str(out_file),
    ]) == 0
    doc = out_file.read_text()
    assert doc.startswith("<!DOCTYPE html>")
    assert "<table>" in doc and "</body></html>" in doc
    assert "<code>kernel</code>" in doc
