"""CLI tests (python -m repro)."""

import pytest

from repro.cli import main


@pytest.fixture
def guest_file(tmp_path):
    path = tmp_path / "double.ml"
    path.write_text(
        """
        extern int input_size();
        extern void write_call_output(int buf, int len);
        export int main() {
            int[] out = new int[1];
            storeb(ptr(out), 48 + input_size() * 2);
            write_call_output(ptr(out), 1);
            return 0;
        }
        export int square(int x) { return x * x; }
        """
    )
    return str(path)


def test_run_with_input(guest_file, capsys):
    assert main(["run", guest_file, "--input", "abc"]) == 0
    out = capsys.readouterr().out
    assert "6" in out  # 3 input bytes doubled -> '6'
    assert "exit code: 0" in out


def test_run_with_entry_and_args(guest_file, capsys):
    assert main(["run", guest_file, "--entry", "square", "--arg", "9"]) == 0
    assert "result: 81" in capsys.readouterr().out


def test_disasm(guest_file, capsys):
    assert main(["disasm", guest_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("(module")
    assert '"square"' in out


def test_run_wat_file(tmp_path, capsys):
    path = tmp_path / "mod.wat"
    path.write_text(
        '(module (func $f (export "main") (result i32) (i32.const 0)))'
    )
    assert main(["run", str(path)]) == 0


def test_objdump_roundtrip(tmp_path, capsys):
    from repro.minilang import build
    from repro.wasm.codegen import compile_module
    from repro.wasm.objectfile import write_object

    module = build("export int main() { return 7; }")
    obj = tmp_path / "fn.obj"
    obj.write_bytes(
        write_object(module, compile_module(module), meta={"entry": "main"})
    )
    assert main(["objdump", str(obj)]) == 0
    out = capsys.readouterr().out
    assert "functions" in out and "main" in out


def test_run_object_file(tmp_path, capsys):
    from repro.minilang import build
    from repro.wasm.codegen import compile_module
    from repro.wasm.objectfile import write_object

    module = build(
        """
        extern void write_call_output(int buf, int len);
        export int main() {
            write_call_output("obj", slen("obj"));
            return 0;
        }
        """
    )
    obj = tmp_path / "fn.obj"
    obj.write_bytes(
        write_object(module, compile_module(module), meta={"entry": "main"})
    )
    assert main(["run", str(obj)]) == 0
    assert "obj" in capsys.readouterr().out


def test_profile_prints_opcodes_and_exports_artifact(guest_file, tmp_path, capsys):
    import json

    artifact = tmp_path / "profile.json"
    assert main([
        "profile", guest_file, "--entry", "square", "--arg", "9",
        "--top", "5", "--export", str(artifact),
    ]) == 0
    captured = capsys.readouterr()
    assert "result: 81" in captured.err
    assert "instructions dispatched" in captured.out
    assert "i32.mul" in captured.out
    assert "by opcode family" in captured.out
    doc = json.loads(artifact.read_text())
    assert {"cli.run", "guest.exec"} <= {s["name"] for s in doc["spans"]}
    assert doc["metrics"]["counters"]["atomic.ops"] == 0
    assert "simd.ops" not in doc["metrics"]["counters"]
    assert doc["dispatch"]["total"] > 0
    assert doc["dispatch"]["opcodes"]["i32.mul"] == 1


def test_trace_tree_chrome_and_jsonl(guest_file, tmp_path, capsys):
    import json

    assert main(["trace", guest_file, "--input", "ab"]) == 0
    captured = capsys.readouterr()
    assert "exit code: 0" in captured.err
    assert "cli.run" in captured.out
    chrome = tmp_path / "trace.json"
    assert main([
        "trace", guest_file, "--entry", "square", "--arg", "3",
        "--format", "chrome", "--out", str(chrome),
    ]) == 0
    doc = json.loads(chrome.read_text())
    assert any(e.get("name") == "cli.run" for e in doc["traceEvents"])
    assert main([
        "trace", guest_file, "--entry", "square", "--arg", "3",
        "--format", "jsonl", "--profile",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    records = [json.loads(line) for line in lines if line]
    assert {r["type"] for r in records} >= {"span", "metrics", "dispatch"}


def test_metrics_json_and_profile_fold(guest_file, capsys):
    import json

    assert main(["metrics", guest_file, "--input", "x", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) >= {"counters", "gauges", "histograms"}
    assert doc["counters"]["state.delta_pulls"] == 0
    # The forced-pull fall-backs, one series per cause.
    for cause in ("unknown-version", "partial", "overflow", "resized"):
        assert doc["counters"][f"state.full_fallbacks{{cause={cause}}}"] == 0
    assert "span.cli.run{host=local}" in doc["histograms"]
    assert "atomic.ops" not in doc["counters"]
    assert main([
        "metrics", guest_file, "--entry", "square", "--arg", "4",
        "--json", "--profile",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counters"]["atomic.ops"] == 0
    assert "simd.ops" not in doc["counters"]
    assert main(["metrics", guest_file, "--input", "x"]) == 0
    assert "state.delta_pulls" in capsys.readouterr().out


def test_snapshots_json(capsys):
    import json

    assert main(["snapshots", "--hosts", "2", "--calls", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {"repository", "hosts", "residency"} <= set(doc)
    assert doc["repository"]["functions"] == 1
    assert set(doc["hosts"]) == {"host-0", "host-1"}
    assert "demo" in doc["residency"]
    assert main(["snapshots", "--hosts", "2", "--calls", "2"]) == 0
    out = capsys.readouterr().out
    assert "repository: 1 function(s)" in out and "host-1" in out


def test_chaos_json_is_seed_deterministic(capsys):
    import json

    args = ["chaos", "--seed", "7", "--calls", "30", "--hosts", "3", "--json"]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["ok"] and first["calls"] == 30 and first["stranded"] == []
    assert first["digest"] == second["digest"]
    assert main(["chaos", "--seed", "7", "--calls", "30", "--hosts", "3"]) == 0
    out = capsys.readouterr().out
    assert first["digest"] in out
    assert "every call reached exactly one terminal state" in out


def test_kernels_prints_one_row_per_kernel(capsys):
    from repro.apps.kernels import KERNELS

    assert main(["kernels", "--n", "4"]) == 0
    out = capsys.readouterr().out
    rows = [line.split()[0] for line in out.splitlines()[1:] if line.strip()]
    assert rows == sorted(KERNELS)
    assert "MISMATCH" not in out
