"""The front-door benchmark: five workloads, end-to-end and per-layer.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload in a fresh subprocess; the last line of standard
        output is the result object BENCHMARK.json's contract asks for.
    python3 benchmarks/e2e/run.py --seed N [--smoke] [--out FILE]
        every workload, untraced and then traced, as one table and one
        JSON document; exits non-zero if any call failed. A run whose load
        generator ran late is marked INVALID in both, loudly, but is not a
        failure of the program.
    python3 benchmarks/e2e/run.py --compare A.json B.json
        two such documents (or two comma-separated lists of them, compared
        by their medians), metric by metric, against the bounds.

See README.md beside this file for what each name means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
#: ``--smoke`` window: the identical code path with 0.3 s segments.
SMOKE_SECONDS = 3.0
#: A child that has not answered by then is stopped (the contract's limit
#: for one run is 180 s).
CHILD_TIMEOUT_S = 170.0


def contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def workload_names() -> list[str]:
    return [w["name"] for w in contract()["workloads"]]


def commit() -> str:
    # Asked only where this checkout itself is a repository: elsewhere git
    # would search the parent directories, outside the checkout.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


# ----------------------------------------------------------------------
# One workload, one subprocess
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, seconds: float, trace: bool,
          broken: bool = False) -> dict:
    """Run ``workload`` in a fresh interpreter with a fixed hash seed and
    return its result document."""
    OUT.mkdir(exist_ok=True)
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(int(trace)),
    ]
    if broken:
        command.append("--broken-guest")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    child = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, text=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise SystemExit(f"{workload}: no result within {CHILD_TIMEOUT_S:.0f} s")
    if child.returncode != 0:
        raise SystemExit(f"{workload}: child exited with {child.returncode}")
    result = json.loads(stdout.splitlines()[-1])
    result["env"]["commit"] = commit()
    return result


def child_main(opts) -> int:
    # One CPU for the whole child. Under the GIL one thread runs at a time
    # anyway, and on a 2-vCPU VM every metric otherwise flips between two
    # modes a factor of two apart, depending on whether the kernel happens
    # to keep the call's threads on one vCPU (cheap wake-ups) or spreads
    # them over both (a cross-CPU interrupt per hand-off).
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        import harness
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    trace_path = OUT / f"trace_{opts.workload}.json" if opts.trace else None
    result = harness.run_child(
        opts.workload, opts.seed, opts.seconds, bool(opts.trace),
        broken=opts.broken_guest, trace_path=trace_path,
    )
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def show(result: dict) -> None:
    kind = "per-layer (traced)" if result["traced"] else "end-to-end"
    env = result["env"]
    print(f"== {result['workload']}: {kind}, seed {env['seed']}, "
          f"{result['seconds']:g} s, {result['samples']['calls']} calls "
          f"(commit {env['commit'][:12]}, nproc {env['nproc']}, "
          f"python {env['python']})")
    for name, metric in result["metrics"].items():
        n = result["samples"].get(name)
        note = f"   (over {n})" if n else ""
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}{note}")
    for name, value in result["diagnostics"].items():
        print(f"  {name:34s} {value}")
    if result["traced"]:
        shares = ", ".join(
            f"{layer} {100 * share:.1f}%"
            for layer, share in sorted(
                result["layer_shares"].items(), key=lambda kv: -kv[1])
        )
        print(f"  self-time share by layer: {shares}")
        if result["missing_points"]:
            print(f"  missing wrap points: {result['missing_points']}")
    if result["invalid"]:
        # The measurement is in doubt, not the program: said on both streams.
        print(f"  INVALID: {result['invalid']}")
        print(f"{result['workload']}: INVALID: {result['invalid']}",
              file=sys.stderr)
    if result["wrong_state"]:
        print("  WRONG: shared state differs from the driver's shadow copy")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")


def driver_main(opts) -> int:
    """The contract's form: one workload, one result object last."""
    result = spawn(opts.workload, opts.seed, opts.seconds, bool(opts.trace))
    show(result)
    gated = [m["name"] for m in contract()[
        "per_layer" if opts.trace else "end_to_end"]]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name] for name in gated},
    }))
    return 0 if result["correct"] else 1


def suite_main(opts) -> int:
    seconds = SMOKE_SECONDS if opts.smoke else opts.seconds
    document = {
        "smoke": bool(opts.smoke), "seed": opts.seed, "seconds": seconds,
        "workloads": {},
    }
    ok, invalid = True, {}
    for workload in opts.only or workload_names():
        untraced = spawn(workload, opts.seed, seconds, False, opts.broken_guest)
        show(untraced)
        traced = spawn(workload, opts.seed, seconds, True, opts.broken_guest)
        show(traced)
        document["workloads"][workload] = {
            "end_to_end": untraced, "per_layer": traced}
        document.setdefault("env", untraced["env"])
        ok = ok and untraced["correct"] and traced["correct"]
        if untraced["invalid"]:
            invalid[workload] = untraced["invalid"]
    document["invalid"] = invalid
    path = Path(opts.out) if opts.out else OUT / (
        f"{'smoke' if opts.smoke else 'e2e'}_{opts.seed}.json")
    with open(path, "w") as f:
        json.dump(document, f, indent=1)
    print(f"wrote {path}" + ("  (smoke: not a baseline)" if opts.smoke else ""))
    for workload, why in invalid.items():
        print(f"INVALID, not a baseline for {workload}: {why}", file=sys.stderr)
    if not ok:
        print("FAILED: a call failed or left wrong state", file=sys.stderr)
    return 0 if ok else 1


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def load_side(paths: str) -> list[dict]:
    """One side of a comparison: one document, or several separated by
    commas (runs of the same commit, whose medians are compared)."""
    documents = []
    for path in paths.split(","):
        with open(path) as f:
            documents.append(json.load(f))
        if documents[-1].get("smoke"):
            raise SystemExit(f"{path} is a smoke run and cannot be compared")
    return documents


def side_values(documents, workload, name) -> tuple[float, list[float]]:
    """(the side's value, the values its quartile range is taken over):
    over the documents when there are several, else over the one
    document's own segments (set-ups for ``setup_s``)."""
    runs = [d["workloads"][workload]["end_to_end"] for d in documents
            if workload in d["workloads"]]
    values = [run["metrics"][name]["value"] for run in runs]
    if len(runs) > 1:
        return statistics.median(values), values
    if name == "setup_s":
        return values[0], runs[0]["diagnostics"]["setup_s.samples"]
    return values[0], runs[0]["segments"].get(name, values)


def compare_main(paths_a: str, paths_b: str) -> int:
    side_a, side_b = load_side(paths_a), load_side(paths_b)
    gates = {m["name"]: m for m in contract()["end_to_end"]}
    gates["failed_share"] = {"better": "lower", "bound": 0.0}
    for label, paths, side in (("A", paths_a, side_a), ("B", paths_b, side_b)):
        print(f"{label} = {paths} ({side[0]['env']['commit'][:12]}, "
              f"seeds {[d['seed'] for d in side]})")
        for document in side:
            for workload, why in document.get("invalid", {}).items():
                print(f"  seed {document['seed']}: {workload} INVALID: {why}")
    print(f"{'workload':12s} {'metric':22s} {'A':>14s} {'B':>14s} "
          f"{'B worse by':>11s} {'bound':>7s}  verdict")
    bad = 0
    for workload in side_a[0]["workloads"]:
        if not any(workload in d["workloads"] for d in side_b):
            continue
        for name, gate in gates.items():
            va, range_a = side_values(side_a, workload, name)
            vb, range_b = side_values(side_b, workload, name)
            worse = (vb - va) if gate["better"] == "lower" else (va - vb)
            rel = worse / abs(va) if va else (float("inf") if worse > 0 else 0.0)
            word = "ok"
            if rel > gate["bound"]:
                (a1, a3), (b1, b3) = quartiles(range_a), quartiles(range_b)
                word = "unresolved" if a1 <= b3 and b1 <= a3 else "worse"
                bad += 1
            print(f"{workload:12s} {name:22s} {va:14.6g} {vb:14.6g} "
                  f"{100 * rel:+10.2f}% {100 * gate['bound']:6.1f}%  {word}"
                  f"  (of A = {va:.6g})")
    return 1 if bad else 0


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--only", nargs="+", choices=workload_names(),
                        help="suite mode: run only these workloads")
    parser.add_argument("--out", help="suite mode: where to write the document")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--broken-guest", action="store_true",
                        help=argparse.SUPPRESS)
    opts = parser.parse_args()
    if opts.child:
        return child_main(opts)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program under test at {ROOT / 'src'}", file=sys.stderr)
        return 2
    if opts.compare:
        return compare_main(*opts.compare)
    if opts.seconds is None:
        opts.seconds = float(contract()["run_seconds"])
    if opts.workload:
        return driver_main(opts)
    return suite_main(opts)


if __name__ == "__main__":
    sys.exit(main())
