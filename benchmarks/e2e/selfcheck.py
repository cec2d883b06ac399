"""Checks the benchmark itself, on a smoke run (about two minutes).

    python3 benchmarks/e2e/selfcheck.py

Asserts that every metric BENCHMARK.json names is reported with a unit by
every workload, that every wrap point of the per-layer table resolves on
the current tree, that a deliberately broken guest drives ``failed_share``
above 0 and the command to a non-zero exit, and that a smoke document is
refused as a ``--compare`` baseline.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: Every class.method the per-layer table in README.md wraps.
WRAP_POINTS = {
    "IngestionPlane.submit", "AdmissionController.next_batch",
    "FaasmCluster.dispatch", "FaasmCluster.dispatch_batch",
    "LocalScheduler.schedule", "LocalScheduler.schedule_batch",
    "MessageBus.send", "MessageBus.send_many", "MessageBus.receive",
    "InvocationRegistry.create", "InvocationRegistry.create_many",
    "InvocationRegistry.create_or_get", "InvocationRegistry.new_attempt",
    "InvocationRegistry.new_attempts", "InvocationRegistry.begin_attempt",
    "InvocationRegistry.complete_attempt", "InvocationRegistry.complete",
    "InvocationRegistry.wait", "FaasmRuntimeInstance.execute",
    "HostSnapshotCache.get_proto", "ProtoFaaslet.restore", "Faaslet.call",
    "FunctionRegistry.upload", "FunctionRegistry.generate_proto",
    "LocalTier.push", "LocalTier.push_chunk", "LocalTier.pull",
    "LocalTier.pull_chunk", "LocalTier.write_local",
    "StateAPI.get_state", "StateAPI.get_state_offset",
    "GlobalStateStore.get_ranges_into",
    "GlobalStateStore.get_ranges_into_versioned",
    "GlobalStateStore.set_ranges", "GlobalStateStore.set_ranges_versioned",
    "GlobalStateStore.get_value", "GlobalStateStore.get_value_versioned",
    "GlobalStateStore.set_value", "python guest",
}


def run(*args: str) -> int:
    command = [sys.executable, str(HERE / "run.py"), *args]
    print("$", " ".join(command), flush=True)
    return subprocess.run(command, cwd=ROOT).returncode


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")


def check_metric(result: dict, name: str, unit: str | None, where: str) -> None:
    metric = result["metrics"].get(name)
    check(metric is not None, f"{where}: metric {name} is missing")
    check(bool(metric.get("unit")), f"{where}: metric {name} has no unit")
    check(unit is None or metric["unit"] == unit,
          f"{where}: metric {name} is in {metric['unit']}, "
          f"BENCHMARK.json says {unit}")
    check(isinstance(metric.get("value"), (int, float)),
          f"{where}: metric {name} has no numeric value")


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as f:
        contract = json.load(f)
    good = OUT / "selfcheck.json"
    check(run("--smoke", "--seed", "7", "--out", str(good)) == 0,
          "the smoke run failed on the unmodified tree")
    with open(good) as f:
        document = json.load(f)
    check(document["smoke"] is True, "a smoke run must be stamped smoke: true")
    resolved: set[str] = set()
    for workload in (w["name"] for w in contract["workloads"]):
        sides = document["workloads"].get(workload)
        check(sides is not None, f"workload {workload} did not run")
        check_metric(sides["end_to_end"], "failed_share", None, workload)
        for metric in contract["end_to_end"]:
            check_metric(sides["end_to_end"], metric["name"], metric["unit"], workload)
        for metric in contract["per_layer"]:
            check_metric(sides["per_layer"], metric["name"], metric["unit"], workload)
        check(not sides["per_layer"]["missing_points"],
              f"{workload}: unresolved wrap points "
              f"{sides['per_layer']['missing_points']}")
        check(sides["end_to_end"]["metrics"]["failed_share"]["value"] == 0,
              f"{workload}: failed_share above 0 on the unmodified tree")
        resolved.update(sides["per_layer"]["points"])
    check(WRAP_POINTS <= resolved,
          f"wrap points never reached: {sorted(WRAP_POINTS - resolved)}")

    broken = OUT / "selfcheck_broken.json"
    code = run("--smoke", "--seed", "7", "--broken-guest", "--only",
               "ingest-echo", "cold-churn", "--out", str(broken))
    check(code != 0, "a broken guest must make the command exit non-zero")
    with open(broken) as f:
        document = json.load(f)
    for workload, sides in document["workloads"].items():
        share = sides["end_to_end"]["metrics"]["failed_share"]["value"]
        check(share > 0, f"{workload}: a broken guest left failed_share at 0")

    check(run("--compare", str(good), str(good)) != 0,
          "--compare must refuse a smoke document")
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
