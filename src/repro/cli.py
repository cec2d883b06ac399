"""Command-line interface: ``python -m repro <command>``.

Commands (``python -m repro <command> --help`` lists each one's flags)::

    run FILE      Compile (minilang) or assemble (WAT), validate, and
                  execute the module inside a Faaslet; prints the
                  output/result and exit code.
    profile FILE  Execute on the reference interpreter with per-opcode
                  dispatch counters and print the hottest opcodes and
                  opcode pairs — the sequences the compiled tier's
                  expression folding must cover. ``--export`` writes the
                  unified telemetry artifact (spans + metrics + dispatch
                  counts) as JSON.
    trace FILE    Run the guest with span tracing and export the trace: an
                  indented tree + latency table (default), Chrome
                  trace-event JSON (load in chrome://tracing / Perfetto),
                  or JSON-lines.
    metrics FILE  Run the guest and dump the metrics registry (span latency
                  histograms, code-cache counters, the state tier's
                  delta-pull counters) as tables or JSON.
    disasm FILE   Print the module's text-format disassembly.
    objdump FILE  Summarise an object file (sections, functions, metadata).
    kernels       Run the Polybench suite in the sandbox and vs native,
                  printing the Fig. 9a-style ratio table.
    snapshots     Drive a function (the built-in demo kernel when no file
                  is given) through a cluster and print the content-
                  addressed snapshot plane's view: per-host PageStore
                  residency and dedup stats, delta-pull transfer counters,
                  the repository's page pool, and the residency
                  advertisements the scheduler places against.
    chaos         Run a seeded chaos soak: dispatch calls through a cluster
                  under a deterministic fault plan (message drops/
                  duplicates/delays/reordering, host crashes, state-stripe
                  outages) and report every call's fate. Exit code 0 iff
                  no call was left without a terminal state. ``--log``
                  writes the canonical fault log (replays byte-identically
                  for the same seed).
    ingest        Replay an open-loop arrival trace (Poisson, bursty, or
                  one Poisson stream per weighted tenant) through the
                  ingestion plane and report throughput, sojourn latency
                  and per-tenant fairness.

Two pieces are shared. :func:`_run_guest` is the one guest runner behind
``run``, ``profile``, ``trace`` and ``metrics``, whose guest flags come
from one argparse parent. :func:`_render` lays out every table and
message block as aligned text.
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


# ---------------------------------------------------------------------------
# The one table renderer
# ---------------------------------------------------------------------------

class _Table:
    """Rows under a header, laid out as aligned text: the first column
    left-aligned and the rest right-aligned; a cell is anything ``str()``
    formats."""

    def __init__(self, header, rows=()):
        self.header = header
        self.rows = list(rows)

    def render(self) -> str:
        cells = [[str(c) for c in row] for row in (self.header, *self.rows)]
        widths = [max(map(len, column)) for column in zip(*cells)]
        return "\n".join(
            "  ".join(
                c.rjust(w) if i else c.ljust(w)
                for i, (c, w) in enumerate(zip(row, widths))
            ).rstrip()
            for row in cells
        )


def _render(blocks) -> str:
    """Lay out a list of blocks, each a :class:`_Table` or a line of
    text, one under the other."""
    return "".join(
        (block.render() if isinstance(block, _Table) else block) + "\n"
        for block in blocks
    )


def _emit(payload: str, path: str | None, what: str) -> None:
    """Write ``payload`` to the file ``path`` (saying so on stderr), or to
    stdout when there is none."""
    if path is None:
        sys.stdout.write(payload)
        return
    with open(path, "w") as f:
        f.write(payload)
    print(f"wrote {what} to {path}", file=sys.stderr)


# ---------------------------------------------------------------------------
# The one guest runner: run / profile / trace / metrics
# ---------------------------------------------------------------------------

def _run_guest(args, out=None, traced=True):
    """Load ``args.file`` as a FunctionDefinition, open the ``cli.run``
    trace (recorded only if ``traced``), build the Faaslet and invoke the
    guest the way the flags ask: ``--arg`` calls the entry with integers,
    otherwise ``--input`` is the call input. The result, guest output and
    exit code go to ``out`` (default stderr). With ``args.profile`` the
    guest runs on the counting interpreter and its opcode families are
    folded into the metrics as ``simd.ops`` / ``atomic.ops``. Returns
    ``(faaslet, telemetry, exit code, seconds in the guest)``."""
    from repro.faaslet import Faaslet, FunctionDefinition
    from repro.host import StandaloneEnvironment
    from repro.telemetry import Telemetry
    from repro.wasm.codegen import compile_module

    module, compiled, meta = _load_module(args.file)
    definition = FunctionDefinition(
        name=args.file,
        module=module,
        compiled=compiled if compiled is not None else compile_module(module),
        entry=args.entry or meta.get("entry", "main"),
    )
    # The spans feed --export, trace and the metrics dump; ``run`` reads
    # none, so it times the guest untraced.
    telemetry = Telemetry(enabled=traced)
    out = out or sys.stderr
    with telemetry.tracer.trace("cli.run", host="local", file=args.file):
        faaslet = Faaslet(
            definition, StandaloneEnvironment(),
            tier=None if args.profile else args.tier, profile=args.profile,
        )
        start = time.perf_counter()
        if args.arg:
            result = faaslet.invoke_export(definition.entry, *args.arg)
            elapsed, code = time.perf_counter() - start, 0
            print(f"result: {result}", file=out)
        else:
            code, output = faaslet.call((args.input or "").encode())
            elapsed = time.perf_counter() - start
            if output:
                out.flush()
                out.buffer.write(output)
                if not output.endswith(b"\n"):
                    print(file=out)
            print(f"exit code: {code}", file=out)
    if args.profile:
        families = dict(faaslet.instance.dispatch_family_report())
        for family in ("simd", "atomic"):
            telemetry.metrics.counter(f"{family}.ops").inc(families.get(family, 0))
    return faaslet, telemetry, code, elapsed


def cmd_run(args) -> int:
    """``repro run``: execute a guest in a Faaslet."""
    faaslet, _, code, elapsed = _run_guest(args, out=sys.stdout, traced=False)
    print(
        f"[{elapsed * 1e3:.2f} ms, "
        f"{faaslet.instance.instructions_executed:,} guest instructions]",
        file=sys.stderr,
    )
    return code


def cmd_profile(args) -> int:
    """``repro profile``: per-opcode dispatch counts for a guest run."""
    import json

    from repro.telemetry import export

    faaslet, telemetry, _, _ = _run_guest(args)
    inst = faaslet.instance
    total = inst.instructions_executed or 1
    top = args.top or 20

    def table(name, rows):
        return _Table(
            (name, "count", "share"),
            ((key, f"{n:,}", f"{n / total:.1%}") for key, n in rows),
        )

    pairs = inst.pair_counts.most_common(top)
    blocks = [
        f"{total:,} instructions dispatched; top {top} opcodes:",
        table("opcode", inst.dispatch_report(top)),
        "by opcode family:",
        table("family", inst.dispatch_family_report()),
    ]
    if pairs:
        blocks += [
            f"top {top} opcode pairs (fusion candidates):",
            table("pair", ((f"{a} ; {b}", n) for (a, b), n in pairs)),
        ]
    print(_render(blocks), end="")
    if args.export:
        artifact = export.build_artifact(
            telemetry.spans(),
            metrics=telemetry.metrics.snapshot(),
            dispatch=export.dispatch_section(inst),
        )
        _emit(json.dumps(artifact), args.export, "telemetry artifact")
    return 0


def cmd_trace(args) -> int:
    """``repro trace``: run a guest with tracing on and export the spans."""
    import json

    from repro.telemetry import export

    faaslet, telemetry, code, _ = _run_guest(args)
    spans = telemetry.spans()
    metrics = telemetry.metrics.snapshot()
    dispatch = export.dispatch_section(faaslet.instance) if args.profile else None
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
    _emit(payload, args.out, f"{len(spans)} spans ({args.format})")
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

    from repro.wasm.codecache import GLOBAL_CODE_CACHE

    faaslet, telemetry, code, _ = _run_guest(args)
    snapshot = telemetry.metrics.snapshot()
    # The code cache keeps its counters in its own (process-global)
    # registry; fold them in so one dump covers the run.
    for kind, series in GLOBAL_CODE_CACHE.metrics.snapshot().items():
        snapshot[kind].update(series)
    snapshot["counters"].update(_pull_counters([faaslet.env.state.tier]))
    if args.json:
        print(json.dumps(snapshot, indent=2))
        return code
    print(_render([
        _Table(("series", "value"), (
            *snapshot["counters"].items(), *snapshot["gauges"].items()
        )),
        _Table(("histogram", "obs", "mean ms", "p50 ms", "p99 ms"), (
            (series, h["count"], *(f"{h[k] * 1e3:.3f}" for k in ("mean", "p50", "p99")))
            for series, h in snapshot["histograms"].items()
        )),
    ]), end="")
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

    table = _Table(("kernel", "sandboxed ms", "native ms", "ratio"))
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
        table.rows.append((
            name, f"{t_sand * 1e3:.1f}", f"{t_nat * 1e3:.2f}",
            f"{t_sand / t_nat:.1f}{status}",
        ))
    print(_render([table]), end="")
    return 0


#: The demo wasm guest ``repro snapshots`` drives when no source file is
#: given. Its init dirties a spread of pages, so the snapshot has a real
#: payload.
_DEMO_KERNEL_SRC = """
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
        source, name, init = _DEMO_KERNEL_SRC, "demo", "init"

    cluster = FaasmCluster(n_hosts=args.hosts)
    try:
        cluster.upload(name, source, init=init)
        for _ in range(args.calls):
            code, _ = cluster.invoke(name)
            if code != 0:
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
        blocks = [
            f"repository: {repo['functions']} function(s), "
            f"{repo['resident_pages']} pages "
            f"({repo['resident_bytes'] / 2**20:.2f} MiB), "
            f"{repo['dedup_hits']} dedup hits",
            _Table(
                ("host", "pages", "MiB", "pulled", "MiB", "trips", "dedup", "cached"),
                ((
                    host, s["resident_pages"], f"{s['resident_bytes'] / 2**20:.2f}",
                    s["pages_shipped"], f"{s['bytes_shipped'] / 2**20:.2f}",
                    s["round_trips"], s["pull_dedup_hits"], s["snapshots_cached"],
                ) for host, s in sorted(stats["hosts"].items())),
            ),
        ]
        if residency:
            blocks += [
                "residency advertisements (scheduler locality signal):",
                _Table(("function", "hosts"), (
                    (fn, ", ".join(f"{h}={c:g}" for h, c in sorted(hosts.items())))
                    for fn, hosts in sorted(residency.items())
                )),
            ]
        print(_render(blocks), end="")
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
        _emit("".join(line + "\n" for line in report.log_lines), args.log,
              f"{len(report.log_lines)} fault-log lines")
    d = report.to_dict()
    if args.json:
        print(json.dumps(d, indent=2))
    else:
        keys = ("seed", "calls", "completed", "guest_failed", "call_failed",
                "retries", "crashes_fired", "swallowed", "duration_s")
        print(_render([
            _Table(("soak", "value"), ((key, d[key]) for key in keys)),
            f"digest {report.digest}",
            f"STRANDED calls (no terminal state): {report.stranded}"
            if report.stranded else
            "every call reached exactly one terminal state",
        ]), end="")
    return 0 if report.ok else 1


def _tenant_weights(spec: str) -> dict[str, float]:
    """``--tenants``: a count N (tenants ``tenant-0`` .. weighted 1 .. N,
    so the fairness column has something to show) or comma-separated
    ``name[:weight]`` pairs, a bare name weighing 1. A weight that is not
    a finite positive number is refused."""
    import math

    if spec.strip().isdigit():
        return {f"tenant-{i}": float(i + 1) for i in range(max(1, int(spec)))}
    weights: dict[str, float] = {}
    for part in filter(None, (part.strip() for part in spec.split(","))):
        name, _, raw = part.partition(":")
        try:
            weight = float(raw or 1)
        except ValueError:
            weight = math.nan
        if not name.strip() or not (math.isfinite(weight) and weight > 0):
            raise argparse.ArgumentTypeError(
                f"tenant {part!r}: want name[:weight] with a finite weight > 0"
            )
        weights[name.strip()] = weight
    if not weights:
        raise argparse.ArgumentTypeError(f"no tenants in {spec!r}")
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

    weights = args.tenants
    if args.trace == "multi":
        per_tenant_rate = args.rate / len(weights)
        events = workload.multi_tenant_trace(
            {name: per_tenant_rate for name in weights},
            args.duration, seed=args.seed, functions=("ingest-echo",),
        )
    else:
        # One tenant's trace: the first by name carries it all.
        trace = {"poisson": workload.poisson_trace,
                 "bursty": workload.bursty_trace}[args.trace]
        events = trace(
            args.rate, args.duration, seed=args.seed,
            functions=("ingest-echo",), tenant=min(weights),
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
            return 0
        print(_render([
            f"trace {args.trace}: {len(events)} arrivals, "
            f"{admitted} admitted, {deferred} deferred, {shed} shed",
            f"throughput {result['throughput_cps']:.0f} calls/s "
            f"in {elapsed:.2f}s  ({bus_stats.batches} batches, "
            f"{bus_stats.batched_calls} batched calls)",
            f"sojourn p50 {result['sojourn_p50_ms']:.2f} ms  "
            f"p99 {result['sojourn_p99_ms']:.2f} ms",
            _Table(("tenant", "weight", "served", "share", "fair"), (
                (name, f"{t['weight']:.1f}", t["served"],
                 f"{t['share']:.2%}", f"{t['fair_share']:.2%}")
                for name, t in result["tenants"].items()
            )),
        ]), end="")
        return 0
    finally:
        cluster.shutdown()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.wasm import TIERS

    parser = argparse.ArgumentParser(
        prog="repro", description="Faasm-reproduction toolchain"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(fn, help, parents=(), **defaults):
        """The subcommand ``fn`` (``cmd_<name>``) runs."""
        p = sub.add_parser(fn.__name__[4:], help=help, parents=list(parents))
        p.set_defaults(fn=fn, **defaults)
        return p

    # run / profile / trace / metrics all take a guest and its call.
    guest = argparse.ArgumentParser(add_help=False)
    guest.add_argument("file")
    guest.add_argument("--entry", help="exported function (default: main)")
    guest.add_argument("--input", help="call input passed to the guest")
    guest.add_argument("--arg", type=int, action="append",
                       help="invoke entry with integer args instead of call I/O")
    tiered = argparse.ArgumentParser(add_help=False, parents=[guest])
    tiered.add_argument("--tier", choices=TIERS,
                        help="execution tier (default: compiled)")
    # ... and the cluster commands a cluster size and a JSON switch.
    cluster = argparse.ArgumentParser(add_help=False)
    cluster.add_argument("--hosts", type=int, default=2,
                         help="cluster size (default 2)")
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true",
                         help="print as JSON instead of tables")

    command(cmd_run, "compile and execute in a Faaslet", [tiered],
            profile=False)

    p = command(cmd_profile, "run with per-opcode dispatch counters", [guest],
                profile=True, tier=None)
    p.add_argument("--top", type=int, default=20,
                   help="number of opcodes/pairs to print (default 20)")
    p.add_argument("--export",
                   help="write the unified telemetry artifact "
                        "(spans + metrics + dispatch counts) to FILE")

    p = command(cmd_trace, "run with span tracing and export the trace",
                [tiered])
    p.add_argument("--format", choices=("tree", "chrome", "jsonl"),
                   default="tree",
                   help="export format (default: tree + latency table)")
    p.add_argument("--out", help="write the export to FILE instead of stdout")
    p.add_argument("--profile", action="store_true",
                   help="also collect opcode-dispatch counters "
                        "(reference interpreter) and embed them")

    p = command(cmd_metrics, "run a guest and dump the metrics registry",
                [tiered, as_json])
    p.add_argument("--profile", action="store_true",
                   help="run on the counting interpreter and fold the "
                        "opcode-family rollups (simd.ops / atomic.ops) "
                        "into the dump")

    command(cmd_disasm, "print text-format disassembly").add_argument("file")
    command(cmd_objdump, "summarise an object file").add_argument("file")

    p = command(cmd_kernels, "run the Polybench suite")
    p.add_argument("--n", type=int, help="problem size override")

    p = command(
        cmd_snapshots,
        "print per-host PageStore residency/dedup stats for a function",
        [cluster, as_json],
    )
    p.add_argument("file", nargs="?",
                   help="guest source to upload (default: built-in demo)")
    p.add_argument("--init", help="exported init function to snapshot after")
    p.add_argument("--calls", type=int, default=8,
                   help="invocations to drive (default 8)")

    p = command(cmd_chaos, "run a seeded fault-injection soak", [as_json])
    p.add_argument("--seed", type=int, default=1,
                   help="plan seed (default 1); same seed => same faults")
    p.add_argument("--calls", type=int, default=500,
                   help="number of calls to dispatch (default 500)")
    p.add_argument("--hosts", type=int, default=4,
                   help="cluster size (default 4)")
    p.add_argument("--drop-rate", type=float, default=0.10,
                   help="first-dispatch drop probability (default 0.10)")
    p.add_argument("--crashes", type=int, default=2,
                   help="host crashes to inject (default 2)")
    p.add_argument("--outages", type=int, default=1,
                   help="state-stripe outage windows to arm (default 1)")
    p.add_argument("--timeout", type=float, default=20.0,
                   help="soak deadline in seconds (default 20)")
    p.add_argument("--log", help="write the canonical fault log to FILE")

    p = command(
        cmd_ingest,
        "replay an open-loop arrival trace through the ingestion "
        "plane and report throughput/latency/fairness",
        [cluster, as_json],
    )
    p.add_argument("--trace", choices=("poisson", "bursty", "multi"),
                   default="multi", help="arrival trace kind (default multi)")
    p.add_argument("--tenants", default="2", type=_tenant_weights,
                   help="tenant count, or explicit name:weight pairs "
                        "(e.g. 'gold:3,free:1'; default 2)")
    p.add_argument("--rate", type=float, default=2000.0,
                   help="aggregate offered calls/sec (default 2000)")
    p.add_argument("--duration", type=float, default=1.0,
                   help="trace duration in seconds (default 1.0)")
    p.add_argument("--batch", type=int, default=64,
                   help="dispatch batch size (default 64)")
    p.add_argument("--queue-limit", type=int, default=100_000,
                   help="per-tenant admission queue bound (default 100000)")
    p.add_argument("--seed", type=int, default=0,
                   help="trace seed (default 0)")
    p.add_argument("--speed", type=float, default=0.0,
                   help="replay speed multiplier; 0 = as fast as "
                        "possible (default 0)")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="drain deadline in seconds (default 60)")

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
