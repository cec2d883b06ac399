"""Command-line interface: ``python -m repro <command>``.

Commands::

    run <file.ml|file.wat> [--entry NAME] [--input TEXT] [--arg N ...]
        [--tier compiled|interp]
        Compile (minilang) or assemble (WAT), validate, and execute the
        module inside a Faaslet; prints output/result and exit code.

    profile <file.ml|file.wat|file.obj> [--entry NAME] [--arg N ...]
        [--top N] [--export FILE]
        Execute on the reference interpreter with per-opcode dispatch
        counters and print the hottest opcodes and opcode pairs — the
        sequences the compiled tier's expression folding must cover.
        ``--export`` writes the unified telemetry artifact (spans +
        metrics + dispatch counts) as JSON.

    trace <file.ml|file.wat|file.obj> [--entry NAME] [--arg N ...]
        [--format tree|chrome|jsonl] [--out FILE] [--profile]
        Run the guest with span tracing enabled and export the trace:
        an indented tree + latency table (default), Chrome trace-event
        JSON (load in chrome://tracing / Perfetto), or JSON-lines.

    metrics <file.ml|file.wat|file.obj> [--entry NAME] [--arg N ...]
        [--json]
        Run the guest and dump the metrics registry (span latency
        histograms, code-cache counters, the state tier's delta-pull
        counters) as a table or JSON.

    disasm <file.ml|file.wat|file.obj>
        Print the module's text-format disassembly.

    objdump <file.obj>
        Summarise an object file (sections, functions, metadata).

    kernels [--n SIZE]
        Run the Polybench suite in the sandbox and vs native, printing the
        Fig. 9a-style ratio table.

    snapshots [file.ml] [--init NAME] [--hosts N] [--calls N] [--json]
        Drive a function through a cluster and print the content-addressed
        snapshot plane's view: per-host PageStore residency and dedup
        stats, delta-pull transfer counters, the repository's page pool,
        and the residency advertisements the scheduler places against.
        Without a file, a built-in demo function is used.

    chaos [--seed N] [--calls N] [--hosts N] [--drop-rate R]
        [--crashes N] [--outages N] [--timeout S] [--json] [--log FILE]
        Run a seeded chaos soak: dispatch calls through a cluster under a
        deterministic fault plan (message drops/duplicates/delays/
        reordering, host crashes, state-stripe outages) and report every
        call's fate. Exit code 0 iff no call was left without a terminal
        state. ``--log`` writes the canonical fault log (replays
        byte-identically for the same seed).

    profiles [function] [--hosts N] [--calls N] [--json] [--flame-dir DIR]
        Drive the built-in mixed workload (a chained pipeline over
        byte-ranges of a shared state key plus a snapshotted wasm kernel)
        through a cluster with trace mining on, persist the mined
        per-function access profiles content-addressed in the object
        store, and print them back *from the store*: state keys with hot
        read/write byte-ranges, snapshot pages restored, fuel and latency
        distributions, phase breakdown, chain fan-out. ``--flame-dir``
        also writes collapsed-stack and speedscope flamegraph artifacts
        from the continuous guest profiler.

    top [--hosts N] [--interval S] [--frames N] [--plain]
        Live cluster dashboard: churns the demo workload in the
        background and refreshes a per-function table (calls, streaming
        p50/p95/p99, SLO burn rate, placement spread) every interval.
        ``--plain`` appends frames instead of redrawing (for logs/CI).

    report [--hosts N] [--calls N] [--html] [--out FILE]
        Drive the demo workload and emit a cluster report (markdown, or
        HTML with ``--html``): aggregate counters (the state tier's
        delta-pull counters among them), SLO compliance table, and every
        persisted access profile.
"""

from __future__ import annotations

import argparse
import sys
import time


def _load_module(path: str):
    from repro.minilang import build as build_minilang
    from repro.wasm import parse_module, validate_module
    from repro.wasm.objectfile import read_object

    if path.endswith(".obj"):
        with open(path, "rb") as f:
            module, compiled, meta = read_object(f.read())
        return module, compiled, meta
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    if path.endswith(".wat"):
        module = parse_module(text)
        validate_module(module)
    else:
        module = build_minilang(text)
    return module, None, {}


def _make_definition(args):
    """Load ``args.file`` and wrap it as a deployable FunctionDefinition."""
    from repro.faaslet import FunctionDefinition
    from repro.wasm.codegen import compile_module

    module, compiled, meta = _load_module(args.file)
    return FunctionDefinition(
        name=args.file,
        module=module,
        compiled=compiled if compiled is not None else compile_module(module),
        entry=args.entry or meta.get("entry", "main"),
    )


def _invoke(faaslet, args) -> int:
    """Run the guest the way the flags ask for; returns the exit code."""
    if args.arg:
        result = faaslet.invoke_export(faaslet.definition.entry, *args.arg)
        print(f"result: {result}", file=sys.stderr)
        return 0
    code, _ = faaslet.call((args.input or "").encode())
    print(f"exit code: {code}", file=sys.stderr)
    return code


def cmd_run(args) -> int:
    """``repro run``: execute a guest in a Faaslet."""
    from repro.faaslet import Faaslet
    from repro.host import StandaloneEnvironment

    definition = _make_definition(args)
    faaslet = Faaslet(definition, StandaloneEnvironment(), tier=args.tier)
    start = time.perf_counter()
    if args.arg:
        result = faaslet.invoke_export(definition.entry, *args.arg)
        elapsed = time.perf_counter() - start
        print(f"result: {result}")
        code = 0
    else:
        code, output = faaslet.call((args.input or "").encode())
        elapsed = time.perf_counter() - start
        if output:
            sys.stdout.buffer.write(output)
            if not output.endswith(b"\n"):
                print()
        print(f"exit code: {code}")
    print(
        f"[{elapsed * 1e3:.2f} ms, "
        f"{faaslet.instance.instructions_executed:,} guest instructions]",
        file=sys.stderr,
    )
    return code


def cmd_profile(args) -> int:
    """``repro profile``: per-opcode dispatch counts for a guest run."""
    import json

    from repro.faaslet import Faaslet
    from repro.host import StandaloneEnvironment
    from repro.telemetry import Telemetry, export

    definition = _make_definition(args)
    # Tracing rides along so --export can emit the unified artifact
    # (spans + dispatch counts); its overhead is noise next to the
    # profiled interpreter's.
    telemetry = Telemetry(enabled=True)
    with telemetry.tracer.trace("cli.run", host="local", file=args.file):
        faaslet = Faaslet(definition, StandaloneEnvironment(), profile=True)
        _invoke(faaslet, args)

    inst = faaslet.instance
    total = inst.instructions_executed or 1
    top = args.top or 20
    print(f"{total:,} instructions dispatched; top {top} opcodes:")
    print(f"{'opcode':<24}{'count':>14}{'share':>9}")
    for op, count in inst.dispatch_report(top):
        print(f"{op:<24}{count:>14,}{count / total:>8.1%}")
    families = inst.dispatch_family_report()
    print("\nby opcode family:")
    print(f"{'family':<24}{'count':>14}{'share':>9}")
    for family, count in families:
        print(f"{family:<24}{count:>14,}{count / total:>8.1%}")
    family_counts = dict(families)
    # Expose the vector/atomic workload as metrics series alongside the
    # guest-thread counters (thread.spawned / atomic.waits).
    telemetry.metrics.counter("simd.ops").inc(family_counts.get("simd", 0))
    telemetry.metrics.counter("atomic.ops").inc(family_counts.get("atomic", 0))
    pairs = inst.pair_counts.most_common(top)
    if pairs:
        print(f"\ntop {top} opcode pairs (fusion candidates):")
        print(f"{'pair':<40}{'count':>14}{'share':>9}")
        for (a, b), count in pairs:
            print(f"{a + ' ; ' + b:<40}{count:>14,}{count / total:>8.1%}")
    if args.export:
        artifact = export.build_artifact(
            telemetry.spans(),
            metrics=telemetry.metrics.snapshot(),
            dispatch=export.dispatch_section(inst),
        )
        with open(args.export, "w") as f:
            json.dump(artifact, f)
        print(f"wrote telemetry artifact to {args.export}", file=sys.stderr)
    return 0


def cmd_trace(args) -> int:
    """``repro trace``: run a guest with tracing on and export the spans."""
    import json

    from repro.faaslet import Faaslet
    from repro.host import StandaloneEnvironment
    from repro.telemetry import Telemetry, export

    definition = _make_definition(args)
    telemetry = Telemetry(enabled=True)
    profile = bool(args.profile)
    with telemetry.tracer.trace("cli.run", host="local", file=args.file):
        faaslet = Faaslet(
            definition,
            StandaloneEnvironment(),
            tier=None if profile else args.tier,
            profile=profile,
        )
        code = _invoke(faaslet, args)
    spans = telemetry.spans()
    metrics = telemetry.metrics.snapshot()
    dispatch = export.dispatch_section(faaslet.instance) if profile else None
    if args.format == "chrome":
        payload = json.dumps(
            export.to_chrome_trace(spans, metrics=metrics, dispatch=dispatch)
        ) + "\n"
    elif args.format == "jsonl":
        payload = export.to_jsonl(spans, metrics=metrics, dispatch=dispatch)
    else:
        payload = (
            export.tree_summary(spans) + "\n\n" + export.text_summary(spans) + "\n"
        )
    if args.out:
        with open(args.out, "w") as f:
            f.write(payload)
        print(
            f"wrote {len(spans)} spans to {args.out} ({args.format})",
            file=sys.stderr,
        )
    else:
        sys.stdout.write(payload)
    return code


def _pull_counters(tiers) -> dict[str, int]:
    """The local tiers' ``pull_stats()`` summed into metric series: delta
    pulls, the bytes they did not move, whole-value fall-backs by cause."""
    from collections import Counter

    counters: Counter = Counter()
    for tier in tiers:
        stats = tier.pull_stats()
        counters["state.delta_pulls"] += stats["delta_pulls"]
        counters["state.bytes_saved"] += stats["bytes_saved"]
        for cause, count in stats["full_fallbacks"].items():
            counters[f"state.full_fallbacks{{cause={cause}}}"] += count
    return counters


def cmd_metrics(args) -> int:
    """``repro metrics``: run a guest and dump the metrics registry."""
    import json

    from repro.faaslet import Faaslet
    from repro.host import StandaloneEnvironment
    from repro.telemetry import Telemetry
    from repro.wasm.codecache import GLOBAL_CODE_CACHE

    definition = _make_definition(args)
    telemetry = Telemetry(enabled=True)
    environment = StandaloneEnvironment()
    with telemetry.tracer.trace("cli.run", host="local", file=args.file):
        faaslet = Faaslet(
            definition, environment,
            tier=None if args.profile else args.tier,
            profile=bool(args.profile),
        )
        code = _invoke(faaslet, args)
    if args.profile:
        # Fold the opcode-family rollups into the registry so the dump
        # shows the ISA-level series (simd.ops / atomic.ops) alongside
        # the guest-thread counters.
        families = dict(faaslet.instance.dispatch_family_report())
        telemetry.metrics.counter("simd.ops").inc(families.get("simd", 0))
        telemetry.metrics.counter("atomic.ops").inc(families.get("atomic", 0))
    snapshot = telemetry.metrics.snapshot()
    # The code cache keeps its counters in its own (process-global)
    # registry; fold them in so one dump covers the run.
    for kind, series in GLOBAL_CODE_CACHE.metrics.snapshot().items():
        snapshot[kind].update(series)
    snapshot["counters"].update(_pull_counters([environment.state.tier]))
    if args.json:
        print(json.dumps(snapshot, indent=2))
        return code
    for kind in ("counters", "gauges"):
        for series, value in snapshot[kind].items():
            print(f"{series:<44}{value:>14}")
    for series, summary in snapshot["histograms"].items():
        print(
            f"{series:<44}{summary['count']:>6} obs"
            f"  mean {summary['mean'] * 1e3:9.3f} ms"
            f"  p50 {summary['p50'] * 1e3:9.3f} ms"
            f"  p99 {summary['p99'] * 1e3:9.3f} ms"
        )
    return code


def cmd_disasm(args) -> int:
    """``repro disasm``: print the module's text form."""
    from repro.wasm.printer import print_module

    module, _, _ = _load_module(args.file)
    print(print_module(module))
    return 0


def cmd_objdump(args) -> int:
    """``repro objdump``: summarise an object file."""
    module, compiled, meta = _load_module(args.file)
    if compiled is None:
        print("not an object file (use disasm for sources)", file=sys.stderr)
        return 1
    print(f"object file: {args.file}")
    print(f"  meta: {meta}")
    print(f"  imports: {len(module.imports)}")
    for imp in module.imports:
        print(f"    {imp.module}.{imp.name} {imp.type}")
    mem = module.memory.limits if module.memory else None
    print(f"  memory: {mem.minimum if mem else 0} pages"
          + (f" (max {mem.maximum})" if mem and mem.maximum else ""))
    print(f"  globals: {len(module.globals_)}, data segments: {len(module.data)}")
    print(f"  functions ({len(compiled)}):")
    for i, fn in enumerate(compiled):
        exported = next(
            (e.name for e in module.exports
             if e.kind == "func" and e.index == len(module.imports) + i),
            None,
        )
        marker = f" [export {exported!r}]" if exported else ""
        print(f"    {fn.name or i}: {fn.type} "
              f"{len(fn.code)} instrs, {fn.n_locals} locals{marker}")
    return 0


def cmd_kernels(args) -> int:
    """``repro kernels``: Polybench suite, sandbox vs native."""
    from repro.apps.kernels import KERNELS, run_kernel_in_faaslet, run_kernel_native

    print(f"{'kernel':<16}{'sandboxed':>12}{'native':>12}{'ratio':>8}")
    for name in sorted(KERNELS):
        kernel = KERNELS[name]
        n = args.n or kernel.default_n
        t0 = time.perf_counter()
        sandboxed = run_kernel_in_faaslet(kernel, n)
        t_sand = time.perf_counter() - t0
        t0 = time.perf_counter()
        native = run_kernel_native(kernel, n)
        t_nat = time.perf_counter() - t0
        status = "" if abs(sandboxed - native) < 1e-9 * max(1, abs(native)) else "  MISMATCH"
        print(f"{name:<16}{t_sand * 1e3:>10.1f}ms{t_nat * 1e3:>10.2f}ms"
              f"{t_sand / t_nat:>8.1f}{status}")
    return 0


#: Demo function for ``repro snapshots`` when no source file is given:
#: the init dirties a spread of pages so the snapshot has a real payload.
_SNAPSHOT_DEMO_SRC = """
global int ready = 0;
export void init() {
    int[] data = new int[65536];
    for (int i = 0; i < 65536; i = i + 2048) { data[i] = i + 1; }
    ready = 1;
}
export int main() { return ready; }
"""


def cmd_snapshots(args) -> int:
    """``repro snapshots``: per-host PageStore residency/dedup stats."""
    import json

    from repro.runtime import FaasmCluster

    if args.file:
        with open(args.file, "r", encoding="utf-8") as f:
            source = f.read()
        name = args.file
        init = args.init
    else:
        source, name, init = _SNAPSHOT_DEMO_SRC, "demo", "init"

    cluster = FaasmCluster(n_hosts=args.hosts)
    try:
        cluster.upload(name, source, init=init)
        for _ in range(args.calls):
            code, _ = cluster.invoke(name)
            if code != 0 and args.file:
                print(f"warning: {name} exited {code}", file=sys.stderr)
        stats = cluster.snapshot_stats()
        residency = {
            fn: cluster.warm_sets.resident_hosts(fn)
            for fn in cluster.warm_sets.resident_functions()
        }
        if args.json:
            print(json.dumps({**stats, "residency": residency}, indent=2))
            return 0

        repo = stats["repository"]
        print(
            f"repository: {repo['functions']} function(s), "
            f"{repo['resident_pages']} pages "
            f"({repo['resident_bytes'] / 2**20:.2f} MiB), "
            f"{repo['dedup_hits']} dedup hits"
        )
        header = (
            f"{'host':<10}{'pages':>7}{'MiB':>8}{'pulled':>8}{'MiB':>8}"
            f"{'trips':>7}{'dedup':>7}{'cached':>8}"
        )
        print(header)
        print("-" * len(header))
        for host, s in sorted(stats["hosts"].items()):
            print(
                f"{host:<10}{s['resident_pages']:>7}"
                f"{s['resident_bytes'] / 2**20:>8.2f}"
                f"{s['pages_shipped']:>8}"
                f"{s['bytes_shipped'] / 2**20:>8.2f}"
                f"{s['round_trips']:>7}{s['pull_dedup_hits']:>7}"
                f"{s['snapshots_cached']:>8}"
            )
        if residency:
            print("residency advertisements (scheduler locality signal):")
            for fn, hosts in sorted(residency.items()):
                ads = ", ".join(
                    f"{h}={c:g}" for h, c in sorted(hosts.items())
                )
                print(f"  {fn}: {ads}")
        return 0
    finally:
        cluster.shutdown()


def cmd_chaos(args) -> int:
    """``repro chaos``: a seeded fault-injection soak against the cluster."""
    import json
    import logging

    from repro.chaos import run_soak

    # The recovery path logs every re-queue at WARNING; that is soak noise
    # unless the user asks for it.
    logging.getLogger("repro").setLevel(logging.ERROR)
    report = run_soak(
        seed=args.seed,
        calls=args.calls,
        hosts=args.hosts,
        drop_rate=args.drop_rate,
        n_crashes=args.crashes,
        n_outages=args.outages,
        timeout=args.timeout,
    )
    if args.log:
        with open(args.log, "wb") as f:
            f.write(b"".join(line.encode() + b"\n" for line in report.log_lines))
        print(f"wrote {len(report.log_lines)} fault-log lines to {args.log}",
              file=sys.stderr)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        d = report.to_dict()
        for key in ("seed", "calls", "completed", "guest_failed",
                    "call_failed", "retries", "crashes_fired", "swallowed",
                    "duration_s"):
            print(f"{key:<16}{d[key]}")
        print(f"{'digest':<16}{report.digest}")
        if report.stranded:
            print(f"STRANDED calls (no terminal state): {report.stranded}")
        else:
            print("every call reached exactly one terminal state")
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# Observability plane: profiles / top / report
# ---------------------------------------------------------------------------

#: The demo workload the observability commands drive when the user does
#: not bring their own cluster: a chained pipeline whose stages touch
#: distinct byte-ranges of one shared state key (so mined profiles show
#: real hot ranges and fan-out), plus a snapshotted wasm kernel with
#: nested calls (so snapshot-page counters, fuel distributions, and the
#: continuous profiler's stacks all have data).
_GRID_KEY = "grid"
_GRID_SIZE = 64 * 1024
_GRID_CHUNK = 4 * 1024

_PROFILES_KERNEL_SRC = """
global int ready = 0;
export void init() {
    int[] warm = new int[65536];
    for (int i = 0; i < 65536; i = i + 2048) { warm[i] = i + 1; }
    ready = 1;
}
int mix(int x) { return (x * 31 + 7) % 1001; }
int work(int i) { return mix(i) + mix(i + 1); }
export int main() {
    int acc = 0;
    for (int i = 0; i < 200; i = i + 1) { acc = acc + work(i); }
    return acc - acc;
}
"""


def _pipeline_fn(ctx):
    import pickle

    stages = pickle.loads(ctx.input()) if ctx.input() else 4
    ctx.state.get_state(_GRID_KEY, _GRID_SIZE)
    ctx.state.push_state(_GRID_KEY)
    cids = [ctx.chain_object("stage", {"slot": i}) for i in range(stages)]
    ctx.await_all(cids)
    total = sum(ctx.call_output_object(cid) for cid in cids)
    ctx.write_output_object(total)


def _stage_fn(ctx):
    slot = ctx.input_object()["slot"]
    offset = (slot * _GRID_CHUNK) % _GRID_SIZE
    view = ctx.state.get_state_offset(_GRID_KEY, offset, _GRID_CHUNK)
    view[0] = (view[0] + 1) % 256
    ctx.state.push_state_offset(_GRID_KEY, offset, _GRID_CHUNK)
    ctx.write_output_object(int(view[0]))


def _observability_cluster(hosts: int):
    """A cluster with the full observability plane on and the demo
    workload registered."""
    from repro.runtime import FaasmCluster
    from repro.telemetry import Telemetry

    telemetry = Telemetry(
        enabled=True, mine_profiles=True, guest_profiler=True,
        slos=True, profiler_interval=16,
    )
    cluster = FaasmCluster(n_hosts=hosts, telemetry=telemetry)
    cluster.register_python("pipeline", _pipeline_fn)
    cluster.register_python("stage", _stage_fn)
    cluster.upload("kernel", _PROFILES_KERNEL_SRC, init="init")
    if hosts > 1:
        # Advertise stage as warm on the last host so chained stages are
        # shared across the bus: the mined profiles then show genuinely
        # remote state pulls (byte-range gaps, round-trips), not just
        # same-host replica hits.
        cluster.warm_sets.add("stage", f"host-{hosts - 1}")
    return cluster


def _drive_demo(cluster, rounds: int, stages: int = 4) -> None:
    import pickle

    for _ in range(rounds):
        cluster.invoke("pipeline", pickle.dumps(stages))
        cluster.invoke("kernel")


def _render_profile(fn: str, profile, digest: str | None = None) -> str:
    lines = [f"== {fn} ==" + (f"  [{digest}]" if digest else "")]
    lines.append(
        f"calls {profile.calls}  cold {profile.cold_starts}"
        f"  errors {profile.errors}  retries {profile.retries}"
        + (
            "  faults " + ", ".join(
                f"{cause} x{n}"
                for cause, n in sorted(profile.fault_causes.items())
            )
            if profile.fault_causes else ""
        )
    )
    if profile.latency.count:
        lat = profile.latency
        lines.append(
            f"latency ms  p50 {lat.percentile(50) * 1e3:.2f}"
            f"  p95 {lat.percentile(95) * 1e3:.2f}"
            f"  p99 {lat.percentile(99) * 1e3:.2f}"
        )
    if profile.fuel.count:
        lines.append(
            f"fuel        p50 {profile.fuel.percentile(50):,.0f}"
            f"  p99 {profile.fuel.percentile(99):,.0f} instructions"
        )
    if profile.phases:
        lines.append("phases:")
        for name, (count, total) in sorted(
            profile.phases.items(), key=lambda kv: -kv[1][1]
        ):
            lines.append(f"  {name:<16}{count:>6}x{total * 1e3:>10.2f} ms")
    if profile.state:
        lines.append("state keys:")
        for key, kp in sorted(profile.state.items()):
            lines.append(
                f"  {key}: {kp.pulls} pulls / {kp.pushes} pushes, "
                f"{kp.bytes_pulled:,} B in / {kp.bytes_pushed:,} B out, "
                f"{kp.round_trips} round-trips"
            )
            for mode, counter in (("read", kp.reads), ("write", kp.writes)):
                hot = counter.hot(4)
                if hot:
                    ranges = "  ".join(f"[{s},{e})x{n}" for s, e, n in hot)
                    lines.append(f"    hot {mode} ranges: {ranges}")
    snap = profile.snapshot
    if any(snap.values()):
        lines.append(
            f"snapshot: {snap['restores']} restores"
            f" ({snap['cached']} cache hits), {snap['payload_pages']} payload"
            f" / {snap['missing_pages']} missing pages,"
            f" {snap['bytes_shipped']:,} bytes shipped"
        )
    if profile.chains:
        lines.append("chains: " + "  ".join(
            f"{callee} x{n}" for callee, n in sorted(profile.chains.items())
        ))
    if profile.hosts:
        lines.append("hosts:  " + "  ".join(
            f"{host}:{n}" for host, n in sorted(profile.hosts.items())
        ))
    return "\n".join(lines)


def cmd_profiles(args) -> int:
    """``repro profiles``: mine, persist, and print access profiles."""
    import json
    import os
    from urllib.parse import quote

    cluster = _observability_cluster(args.hosts)
    try:
        _drive_demo(cluster, args.calls)
        digests = cluster.persist_profiles()
        functions = [args.function] if args.function else sorted(digests)
        # Print what the object store holds, not what the miner holds:
        # the round-trip through the content-addressed artifact is the
        # path any consumer will take.
        loaded = {}
        for fn in functions:
            profile = cluster.load_profile(fn)
            if profile is None:
                print(
                    f"no profile for {fn!r}; mined: {sorted(digests)}",
                    file=sys.stderr,
                )
                return 1
            loaded[fn] = profile
        if args.json:
            print(json.dumps(
                {fn: p.to_dict() for fn, p in loaded.items()}, indent=2
            ))
        else:
            miner = cluster.profiles
            print(
                f"{len(digests)} profile(s) persisted content-addressed"
                f" ({miner.spans_mined} spans folded,"
                f" {miner.buffered_spans()} still buffered)"
            )
            for fn, profile in loaded.items():
                print()
                print(_render_profile(fn, profile, digests.get(fn)))
        if args.flame_dir:
            profiler = cluster.telemetry.profiler
            os.makedirs(args.flame_dir, exist_ok=True)
            for fn in profiler.functions():
                base = os.path.join(args.flame_dir, quote(fn, safe=""))
                with open(base + ".collapsed", "w") as f:
                    f.write(profiler.collapsed(fn))
                with open(base + ".speedscope.json", "w") as f:
                    json.dump(profiler.speedscope(fn), f)
            print(
                f"wrote flamegraph artifacts for "
                f"{len(profiler.functions())} function(s) to {args.flame_dir}",
                file=sys.stderr,
            )
        return 0
    finally:
        cluster.shutdown()


def _render_ingest_row(cluster) -> str:
    """The dashboard's ingestion row: arrival rate, total queue depth
    (admission + bus + executor pools), and p99 sojourn. Clusters without
    an ingestion plane still show their bus queue depth."""
    stats = cluster.ingestion_stats()
    if stats:
        depth = (
            stats["admission_backlog"]
            + stats["bus_pending"]
            + stats["pool_backlog"]
        )
        return (
            f"ingest {stats['arrival_rate']:7.0f}/s"
            f"  queued {depth}"
            f"  p99 sojourn {stats['sojourn_p99_s'] * 1e3:.1f} ms"
        )
    depths = cluster.bus.update_queue_gauges()
    return f"ingest       -/s  queued {sum(depths.values())}  p99 sojourn -"


def _render_top_frame(cluster, frame: int, frames: int, started: float) -> str:
    telemetry = cluster.telemetry
    agg = cluster.metrics_snapshot()["aggregates"]
    uptime = time.perf_counter() - started
    lines = [
        f"repro top — {len(cluster.instances)} hosts, up {uptime:5.1f}s"
        f"   frame {frame}/{frames}",
        f"calls {agg['instance.calls_executed']:.0f}"
        f"  cold {agg['instance.cold_starts']:.0f}"
        f"  warm {agg['instance.warm_hits']:.0f}"
        f"  retries {agg['call.retries']:.0f}"
        f"  failed {agg['call.failed']:.0f}"
        f"  state {(agg['state.bytes_sent'] + agg['state.bytes_received']) / 2**20:.2f} MiB"
        f"  simd {agg['simd.ops']:.0f}"
        f"  threads {agg['thread.spawned']:.0f}"
        f"  workers {agg['instance.workers']:.0f}"
        f" ({agg['instance.workers_born']:.0f} born)",
        _render_ingest_row(cluster),
        "",
        f"{'function':<12}{'calls':>7}{'p50ms':>9}{'p95ms':>9}{'p99ms':>9}"
        f"{'burn':>7}{'slo':>6}  hosts",
    ]
    report = telemetry.slos.report() if telemetry.slos is not None else {}
    miner = telemetry.profiles
    for fn in sorted(report):
        slo = report[fn]
        hist = telemetry.metrics.histogram(
            "function.latency", function=fn
        )
        profile = miner.profile(fn) if miner is not None else None
        hosts = (
            " ".join(f"{h}:{n}" for h, n in sorted(profile.hosts.items()))
            if profile is not None else ""
        )
        lines.append(
            f"{fn:<12}{slo['good'] + slo['bad']:>7}"
            f"{hist.percentile(50) * 1e3:>9.2f}"
            f"{hist.percentile(95) * 1e3:>9.2f}"
            f"{hist.percentile(99) * 1e3:>9.2f}"
            f"{slo['burn_rate']:>7.2f}"
            f"{'FIRE' if slo['alerting'] else 'ok':>6}  {hosts}"
        )
    return "\n".join(lines)


def cmd_top(args) -> int:
    """``repro top``: live per-function dashboard over a churning cluster."""
    import threading

    cluster = _observability_cluster(args.hosts)
    stop = threading.Event()

    def churn():
        while not stop.is_set():
            _drive_demo(cluster, 1)

    worker = threading.Thread(target=churn, daemon=True, name="top-churn")
    try:
        worker.start()
        started = time.perf_counter()
        for frame in range(1, args.frames + 1):
            time.sleep(args.interval)
            body = _render_top_frame(cluster, frame, args.frames, started)
            if not args.plain:
                sys.stdout.write("\x1b[2J\x1b[H")
            print(body, flush=True)
        return 0
    finally:
        stop.set()
        worker.join(timeout=10.0)
        cluster.shutdown()


def _parse_tenant_weights(spec: str, count: int) -> dict[str, float]:
    """``--tenants`` accepts either a count ("3") handled by the caller or
    explicit "name:weight,name:weight" pairs; this parses the pairs."""
    weights: dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            name, _, raw = part.partition(":")
            weights[name.strip()] = float(raw)
        else:
            weights[part] = 1.0
    return weights


def _ingest_echo(ctx):
    ctx.write_output(b"ok:" + ctx.input())
    return 0


def cmd_ingest(args) -> int:
    """``repro ingest``: replay an open-loop arrival trace through the
    ingestion plane and report throughput, latency and fairness."""
    import json

    from repro.runtime import FaasmCluster
    from repro.runtime.ingest import IngestionConfig, TenantSpec
    from repro.sim import workload
    from repro.telemetry import Telemetry

    if ":" in args.tenants or "," in args.tenants:
        weights = _parse_tenant_weights(args.tenants, 0)
    else:
        n = max(1, int(args.tenants))
        # Default tenant mix: distinct weights so the fairness column has
        # something to show (tenant-0 weight 1, tenant-1 weight 2, ...).
        weights = {f"tenant-{i}": float(i + 1) for i in range(n)}
    per_tenant_rate = args.rate / max(1, len(weights))

    if args.trace == "multi":
        events = workload.multi_tenant_trace(
            {name: per_tenant_rate for name in weights},
            args.duration, seed=args.seed, functions=("ingest-echo",),
        )
    elif args.trace == "bursty":
        events = workload.bursty_trace(
            args.rate, args.duration, seed=args.seed,
            functions=("ingest-echo",), tenant=next(iter(sorted(weights))),
        )
    else:
        events = workload.poisson_trace(
            args.rate, args.duration, seed=args.seed,
            functions=("ingest-echo",), tenant=next(iter(sorted(weights))),
        )

    config = IngestionConfig(
        batch_size=args.batch,
        tenants=tuple(
            TenantSpec(name, weight=w, queue_limit=args.queue_limit)
            for name, w in sorted(weights.items())
        ),
        default_queue_limit=args.queue_limit,
    )
    cluster = FaasmCluster(
        n_hosts=args.hosts, telemetry=Telemetry(enabled=True)
    )
    try:
        cluster.register_python("ingest-echo", _ingest_echo)
        plane = cluster.ingestion(config)
        started = time.perf_counter()
        outcomes = workload.replay(
            events, cluster.submit, speed=args.speed
        )
        plane.drain(timeout=args.timeout)
        elapsed = time.perf_counter() - started

        admitted = sum(1 for _, o in outcomes if o == "admitted")
        deferred = sum(1 for _, o in outcomes if o == "deferred")
        shed = sum(1 for _, o in outcomes if o == "shed")
        stats = plane.stats()
        bus_stats = cluster.bus.stats
        total_weight = sum(weights.values()) or 1.0
        total_served = sum(
            t["served"] for t in stats["tenants"].values()
        ) or 1
        result = {
            "trace": args.trace,
            "events": len(events),
            "admitted": admitted,
            "deferred": deferred,
            "shed": shed,
            "duration_s": round(elapsed, 4),
            "throughput_cps": round(admitted / max(elapsed, 1e-9), 1),
            "batches": bus_stats.batches,
            "batched_calls": bus_stats.batched_calls,
            "sojourn_p50_ms": round(stats["sojourn_p50_s"] * 1e3, 3),
            "sojourn_p99_ms": round(stats["sojourn_p99_s"] * 1e3, 3),
            "tenants": {
                name: {
                    "weight": t["weight"],
                    "served": t["served"],
                    "share": round(t["served"] / total_served, 4),
                    "fair_share": round(
                        t["weight"] / total_weight, 4
                    ),
                }
                for name, t in stats["tenants"].items()
            },
        }
        if args.json:
            print(json.dumps(result, indent=2))
        else:
            print(
                f"trace {args.trace}: {len(events)} arrivals, "
                f"{admitted} admitted, {deferred} deferred, {shed} shed"
            )
            print(
                f"throughput {result['throughput_cps']:.0f} calls/s "
                f"in {elapsed:.2f}s  "
                f"({bus_stats.batches} batches, "
                f"{bus_stats.batched_calls} batched calls)"
            )
            print(
                f"sojourn p50 {result['sojourn_p50_ms']:.2f} ms  "
                f"p99 {result['sojourn_p99_ms']:.2f} ms"
            )
            print(f"{'tenant':<12}{'weight':>8}{'served':>8}"
                  f"{'share':>8}{'fair':>8}")
            for name, t in result["tenants"].items():
                print(
                    f"{name:<12}{t['weight']:>8.1f}{t['served']:>8}"
                    f"{t['share']:>8.2%}{t['fair_share']:>8.2%}"
                )
        return 0
    finally:
        cluster.shutdown()


def _report_markdown(cluster, digests: dict, rounds: int) -> str:
    telemetry = cluster.telemetry
    agg = cluster.metrics_snapshot()["aggregates"]
    lines = [
        "# repro cluster report",
        "",
        f"{len(cluster.instances)} host(s), {rounds} demo round(s) driven; "
        f"{len(digests)} access profile(s) persisted content-addressed.",
        "",
        "## Cluster aggregates",
        "",
        "| series | total |",
        "| --- | ---: |",
    ]
    agg.update(_pull_counters(i.local_tier for i in cluster.instances))
    for name, value in agg.items():
        lines.append(f"| `{name}` | {value:g} |")
    lines += [
        "",
        "## Service levels",
        "",
        "| function | objective | compliance | burn rate | alerting |",
        "| --- | ---: | ---: | ---: | :---: |",
    ]
    report = telemetry.slos.report() if telemetry.slos is not None else {}
    for fn, slo in sorted(report.items()):
        lines.append(
            f"| `{fn}` | {slo['objective']:.2%} | {slo['compliance']:.2%} "
            f"| {slo['burn_rate']:.2f} | {'yes' if slo['alerting'] else 'no'} |"
        )
    lines += ["", "## Function profiles"]
    for fn in sorted(digests):
        profile = cluster.load_profile(fn)
        if profile is None:
            continue
        lines += [
            "",
            f"### `{fn}`",
            "",
            f"digest `{digests[fn]}` — {profile.calls} calls, "
            f"{profile.cold_starts} cold starts, {profile.errors} errors, "
            f"{profile.retries} retries.",
        ]
        if profile.latency.count:
            lat = profile.latency
            lines += [
                "",
                f"Latency p50/p95/p99: {lat.percentile(50) * 1e3:.2f} / "
                f"{lat.percentile(95) * 1e3:.2f} / "
                f"{lat.percentile(99) * 1e3:.2f} ms.",
            ]
        if profile.phases:
            lines += ["", "| phase | count | total ms |", "| --- | ---: | ---: |"]
            for name, (count, total) in sorted(
                profile.phases.items(), key=lambda kv: -kv[1][1]
            ):
                lines.append(f"| `{name}` | {count} | {total * 1e3:.2f} |")
        if profile.state:
            lines += [
                "",
                "| state key | pulls | pushes | B in | B out | hot ranges |",
                "| --- | ---: | ---: | ---: | ---: | --- |",
            ]
            for key, kp in sorted(profile.state.items()):
                hot = [
                    f"r[{s},{e})x{n}" for s, e, n in kp.reads.hot(2)
                ] + [
                    f"w[{s},{e})x{n}" for s, e, n in kp.writes.hot(2)
                ]
                lines.append(
                    f"| `{key}` | {kp.pulls} | {kp.pushes} | "
                    f"{kp.bytes_pulled} | {kp.bytes_pushed} | "
                    f"{' '.join(hot)} |"
                )
        snap = profile.snapshot
        if any(snap.values()):
            lines += [
                "",
                f"Snapshots: {snap['restores']} restores "
                f"({snap['cached']} cache hits), {snap['payload_pages']} "
                f"payload pages, {snap['bytes_shipped']} bytes shipped.",
            ]
        if profile.chains:
            chains = ", ".join(
                f"`{callee}` x{n}"
                for callee, n in sorted(profile.chains.items())
            )
            lines += ["", f"Chains into: {chains}."]
    exposition = cluster.scrape_metrics()
    samples = sum(
        1 for line in exposition.splitlines() if not line.startswith("#")
    )
    lines += [
        "",
        "## Metrics exposition",
        "",
        f"The OpenMetrics endpoint served {samples} samples across "
        f"{exposition.count('# TYPE')} series in this scrape.",
        "",
    ]
    return "\n".join(lines)


def _markdown_to_html(markdown: str) -> str:
    """A dependency-free subset renderer for the report: headings, tables,
    paragraphs, inline code."""
    import html as html_mod
    import re

    def inline(text: str) -> str:
        escaped = html_mod.escape(text)
        return re.sub(r"`([^`]+)`", r"<code>\1</code>", escaped)

    out = ["<!DOCTYPE html>", "<html><head><meta charset='utf-8'>",
           "<title>repro cluster report</title>",
           "<style>body{font-family:sans-serif;margin:2em}"
           "table{border-collapse:collapse}"
           "td,th{border:1px solid #999;padding:0.25em 0.6em}"
           "code{background:#eee;padding:0 0.2em}</style>",
           "</head><body>"]
    lines = markdown.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("#"):
            level = len(line) - len(line.lstrip("#"))
            out.append(
                f"<h{level}>{inline(line.lstrip('#').strip())}</h{level}>"
            )
            i += 1
        elif line.startswith("|"):
            rows = []
            while i < len(lines) and lines[i].startswith("|"):
                cells = [c.strip() for c in lines[i].strip("|").split("|")]
                if not all(re.fullmatch(r":?-+:?", c) for c in cells):
                    rows.append(cells)
                i += 1
            out.append("<table>")
            for r, cells in enumerate(rows):
                tag = "th" if r == 0 else "td"
                out.append(
                    "<tr>" + "".join(
                        f"<{tag}>{inline(c)}</{tag}>" for c in cells
                    ) + "</tr>"
                )
            out.append("</table>")
        elif line.strip():
            out.append(f"<p>{inline(line.strip())}</p>")
            i += 1
        else:
            i += 1
    out.append("</body></html>")
    return "\n".join(out) + "\n"


def cmd_report(args) -> int:
    """``repro report``: one-shot cluster report (markdown or HTML)."""
    cluster = _observability_cluster(args.hosts)
    try:
        _drive_demo(cluster, args.calls)
        digests = cluster.persist_profiles()
        payload = _report_markdown(cluster, digests, args.calls)
        if args.html:
            payload = _markdown_to_html(payload)
        if args.out:
            with open(args.out, "w") as f:
                f.write(payload)
            print(f"wrote report to {args.out}", file=sys.stderr)
        else:
            sys.stdout.write(payload)
        return 0
    finally:
        cluster.shutdown()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Faasm-reproduction toolchain"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="compile and execute in a Faaslet")
    p_run.add_argument("file")
    p_run.add_argument("--entry", help="exported function (default: main)")
    p_run.add_argument("--input", help="call input passed to the guest")
    p_run.add_argument("--arg", type=int, action="append",
                       help="invoke entry with integer args instead of call I/O")
    from repro.wasm import TIERS

    p_run.add_argument("--tier", choices=TIERS,
                       help="execution tier (default: compiled, or "
                            "$REPRO_WASM_TIER)")
    p_run.set_defaults(fn=cmd_run)

    p_prof = sub.add_parser(
        "profile", help="run with per-opcode dispatch counters"
    )
    p_prof.add_argument("file")
    p_prof.add_argument("--entry", help="exported function (default: main)")
    p_prof.add_argument("--input", help="call input passed to the guest")
    p_prof.add_argument("--arg", type=int, action="append",
                        help="invoke entry with integer args instead of call I/O")
    p_prof.add_argument("--top", type=int, default=20,
                        help="number of opcodes/pairs to print (default 20)")
    p_prof.add_argument("--export",
                        help="write the unified telemetry artifact "
                             "(spans + metrics + dispatch counts) to FILE")
    p_prof.set_defaults(fn=cmd_profile)

    p_tr = sub.add_parser(
        "trace", help="run with span tracing and export the trace"
    )
    p_tr.add_argument("file")
    p_tr.add_argument("--entry", help="exported function (default: main)")
    p_tr.add_argument("--input", help="call input passed to the guest")
    p_tr.add_argument("--arg", type=int, action="append",
                      help="invoke entry with integer args instead of call I/O")
    p_tr.add_argument("--tier", choices=TIERS,
                      help="execution tier (default: compiled)")
    p_tr.add_argument("--format", choices=("tree", "chrome", "jsonl"),
                      default="tree",
                      help="export format (default: tree + latency table)")
    p_tr.add_argument("--out", help="write the export to FILE instead of stdout")
    p_tr.add_argument("--profile", action="store_true",
                      help="also collect opcode-dispatch counters "
                           "(reference interpreter) and embed them")
    p_tr.set_defaults(fn=cmd_trace)

    p_met = sub.add_parser(
        "metrics", help="run a guest and dump the metrics registry"
    )
    p_met.add_argument("file")
    p_met.add_argument("--entry", help="exported function (default: main)")
    p_met.add_argument("--input", help="call input passed to the guest")
    p_met.add_argument("--arg", type=int, action="append",
                       help="invoke entry with integer args instead of call I/O")
    p_met.add_argument("--tier", choices=TIERS,
                       help="execution tier (default: compiled)")
    p_met.add_argument("--json", action="store_true",
                       help="dump as JSON instead of a table")
    p_met.add_argument("--profile", action="store_true",
                       help="run on the counting interpreter and fold the "
                            "opcode-family rollups (simd.ops / atomic.ops) "
                            "into the dump")
    p_met.set_defaults(fn=cmd_metrics)

    p_dis = sub.add_parser("disasm", help="print text-format disassembly")
    p_dis.add_argument("file")
    p_dis.set_defaults(fn=cmd_disasm)

    p_obj = sub.add_parser("objdump", help="summarise an object file")
    p_obj.add_argument("file")
    p_obj.set_defaults(fn=cmd_objdump)

    p_k = sub.add_parser("kernels", help="run the Polybench suite")
    p_k.add_argument("--n", type=int, help="problem size override")
    p_k.set_defaults(fn=cmd_kernels)

    p_sn = sub.add_parser(
        "snapshots",
        help="print per-host PageStore residency/dedup stats for a function",
    )
    p_sn.add_argument("file", nargs="?",
                      help="guest source to upload (default: built-in demo)")
    p_sn.add_argument("--init",
                      help="exported init function to snapshot after")
    p_sn.add_argument("--hosts", type=int, default=2,
                      help="cluster size (default 2)")
    p_sn.add_argument("--calls", type=int, default=8,
                      help="invocations to drive (default 8)")
    p_sn.add_argument("--json", action="store_true",
                      help="dump the stats as JSON")
    p_sn.set_defaults(fn=cmd_snapshots)

    p_ch = sub.add_parser("chaos", help="run a seeded fault-injection soak")
    p_ch.add_argument("--seed", type=int, default=1,
                      help="plan seed (default 1); same seed => same faults")
    p_ch.add_argument("--calls", type=int, default=500,
                      help="number of calls to dispatch (default 500)")
    p_ch.add_argument("--hosts", type=int, default=4,
                      help="cluster size (default 4)")
    p_ch.add_argument("--drop-rate", type=float, default=0.10,
                      help="first-dispatch drop probability (default 0.10)")
    p_ch.add_argument("--crashes", type=int, default=2,
                      help="host crashes to inject (default 2)")
    p_ch.add_argument("--outages", type=int, default=1,
                      help="state-stripe outage windows to arm (default 1)")
    p_ch.add_argument("--timeout", type=float, default=20.0,
                      help="soak deadline in seconds (default 20)")
    p_ch.add_argument("--json", action="store_true",
                      help="print the report as JSON")
    p_ch.add_argument("--log", help="write the canonical fault log to FILE")
    p_ch.set_defaults(fn=cmd_chaos)

    p_ing = sub.add_parser(
        "ingest",
        help="replay an open-loop arrival trace through the ingestion "
             "plane and report throughput/latency/fairness",
    )
    p_ing.add_argument("--trace", choices=("poisson", "bursty", "multi"),
                       default="multi",
                       help="arrival trace kind (default multi)")
    p_ing.add_argument("--tenants", default="2",
                       help="tenant count, or explicit name:weight pairs "
                            "(e.g. 'gold:3,free:1'; default 2)")
    p_ing.add_argument("--rate", type=float, default=2000.0,
                       help="aggregate offered calls/sec (default 2000)")
    p_ing.add_argument("--duration", type=float, default=1.0,
                       help="trace duration in seconds (default 1.0)")
    p_ing.add_argument("--hosts", type=int, default=2,
                       help="cluster size (default 2)")
    p_ing.add_argument("--batch", type=int, default=64,
                       help="dispatch batch size (default 64)")
    p_ing.add_argument("--queue-limit", type=int, default=100_000,
                       help="per-tenant admission queue bound "
                            "(default 100000)")
    p_ing.add_argument("--seed", type=int, default=0,
                       help="trace seed (default 0)")
    p_ing.add_argument("--speed", type=float, default=0.0,
                       help="replay speed multiplier; 0 = as fast as "
                            "possible (default 0)")
    p_ing.add_argument("--timeout", type=float, default=60.0,
                       help="drain deadline in seconds (default 60)")
    p_ing.add_argument("--json", action="store_true",
                       help="print the report as JSON")
    p_ing.set_defaults(fn=cmd_ingest)

    p_pr = sub.add_parser(
        "profiles",
        help="mine, persist, and print per-function access profiles",
    )
    p_pr.add_argument("function", nargs="?",
                      help="show only this function (default: all mined)")
    p_pr.add_argument("--hosts", type=int, default=2,
                      help="cluster size (default 2)")
    p_pr.add_argument("--calls", type=int, default=6,
                      help="demo workload rounds to drive (default 6)")
    p_pr.add_argument("--json", action="store_true",
                      help="dump the persisted profiles as JSON")
    p_pr.add_argument("--flame-dir",
                      help="write collapsed-stack + speedscope flamegraph "
                           "artifacts per function into DIR")
    p_pr.set_defaults(fn=cmd_profiles)

    p_top = sub.add_parser(
        "top", help="live per-function cluster dashboard"
    )
    p_top.add_argument("--hosts", type=int, default=2,
                       help="cluster size (default 2)")
    p_top.add_argument("--interval", type=float, default=1.0,
                       help="seconds between frames (default 1.0)")
    p_top.add_argument("--frames", type=int, default=10,
                       help="frames to render before exiting (default 10)")
    p_top.add_argument("--plain", action="store_true",
                       help="append frames instead of redrawing the screen")
    p_top.set_defaults(fn=cmd_top)

    p_rep = sub.add_parser(
        "report", help="emit a cluster report (markdown or HTML)"
    )
    p_rep.add_argument("--hosts", type=int, default=2,
                       help="cluster size (default 2)")
    p_rep.add_argument("--calls", type=int, default=6,
                       help="demo workload rounds to drive (default 6)")
    p_rep.add_argument("--html", action="store_true",
                       help="render the report as standalone HTML")
    p_rep.add_argument("--out", help="write the report to FILE")
    p_rep.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
