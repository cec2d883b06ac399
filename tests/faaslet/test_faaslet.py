"""Faaslet lifecycle, host interface, shared regions and snapshots."""

import numpy as np
import pytest

from repro.faaslet import (
    Faaslet,
    FunctionDefinition,
    ProtoFaaslet,
    SharedRegion,
    SnapshotManifest,
)
from repro.host import StandaloneEnvironment
from repro.minilang import build
from repro.state import VectorAsync
from tests.conftest import ship_snapshot


def define(source, name="fn", **kwargs):
    return FunctionDefinition.build(name, build(source), **kwargs)


ECHO_SRC = """
extern int input_size();
extern int read_call_input(int buf, int len);
extern void write_call_output(int buf, int len);

export int main() {
    int n = input_size();
    int[] buf = new int[n];
    read_call_input(ptr(buf), n);
    write_call_output(ptr(buf), n);
    return 0;
}
"""


def test_echo_function():
    env = StandaloneEnvironment()
    faaslet = Faaslet(define(ECHO_SRC, "echo"), env)
    code, output = faaslet.call(b"hello faasm")
    assert code == 0
    assert output == b"hello faasm"


def test_exit_code_propagates():
    src = """
    extern int input_size();
    export int main() { return input_size(); }
    """
    faaslet = Faaslet(define(src), StandaloneEnvironment())
    code, _ = faaslet.call(b"1234")
    assert code == 4


def test_trap_contained_as_exit_code():
    src = """
    export int main() {
        int[] a = new int[2];
        return a[1000000000];
    }
    """
    faaslet = Faaslet(define(src), StandaloneEnvironment())
    code, _ = faaslet.call()
    assert code == 1  # trap → non-zero, host survives


def test_state_via_host_interface():
    src = """
    extern int get_state(int kptr, int klen, int size);
    extern void push_state(int kptr, int klen);

    export int main() {
        int[] key = new int[2];
        storeb(ptr(key), 107);      // 'k'
        int addr = get_state(ptr(key), 1, 32);
        float[] vals = farr(addr);
        vals[0] = 3.5;
        vals[1] = vals[0] * 2.0;
        push_state(ptr(key), 1);
        return 0;
    }
    """
    env = StandaloneEnvironment()
    faaslet = Faaslet(define(src), env)
    code, _ = faaslet.call()
    assert code == 0
    value = env.global_state.get_value("k")
    arr = np.frombuffer(value, dtype=np.float64)
    assert arr[0] == 3.5
    assert arr[1] == 7.0


def test_guest_writes_push_only_dirty_pages():
    """A guest store into a mapped multi-page value dirties only the
    faulted page: the subsequent push ships ≤ one page, not the whole
    value (the mprotect-style dirty tracking of §4.2, here in software)."""
    size = 4 * 64 * 1024  # four pages
    src = """
    extern int get_state(int kptr, int klen, int size);
    extern void push_state(int kptr, int klen);
    export int main() {
        int[] key = new int[2];
        storeb(ptr(key), 112);  // 'p'
        int addr = get_state(ptr(key), 1, 262144);
        float[] vals = farr(addr);
        vals[0] = 9.25;         // one store, first page only
        push_state(ptr(key), 1);
        return 0;
    }
    """
    env = StandaloneEnvironment()
    faaslet = Faaslet(define(src), env)
    meter = env.state.tier.client.meter
    meter.reset()
    assert faaslet.call()[0] == 0
    assert np.frombuffer(env.global_state.get_value("p"), dtype=np.float64)[0] == 9.25
    assert env.global_state.size("p") == size
    assert 0 < meter.sent_bytes <= 64 * 1024, (
        f"push shipped {meter.sent_bytes} bytes; dirty tracking should "
        f"bound it by one 64 KiB page, not the {size}-byte value"
    )


def test_shared_state_between_faaslets_zero_copy():
    """Two Faaslets on the same host share one replica through mapped
    regions — the central claim of §3.3."""
    writer_src = """
    extern int get_state(int kptr, int klen, int size);
    export int main() {
        int[] key = new int[2];
        storeb(ptr(key), 115);  // 's'
        float[] shared = farr(get_state(ptr(key), 1, 64));
        shared[3] = 42.5;
        return 0;
    }
    """
    reader_src = """
    extern int get_state(int kptr, int klen, int size);
    export int main() {
        int[] key = new int[2];
        storeb(ptr(key), 115);
        float[] shared = farr(get_state(ptr(key), 1, 64));
        if (shared[3] == 42.5) { return 7; }
        return 0;
    }
    """
    env = StandaloneEnvironment()
    writer = Faaslet(define(writer_src, "writer"), env)
    reader = Faaslet(define(reader_src, "reader"), env)
    assert writer.call()[0] == 0
    # No push/pull happened: the value flowed through shared memory only.
    assert reader.call()[0] == 7
    assert env.state.tier.client.meter.total_bytes == 0


def test_mapped_region_bounds_still_enforced():
    """A Faaslet can address its mapped region but not beyond memory."""
    src = """
    extern int get_state(int kptr, int klen, int size);
    export int main() {
        int[] key = new int[2];
        storeb(ptr(key), 120);
        int addr = get_state(ptr(key), 1, 64);
        float[] v = farr(addr);
        return (int) v[100000000];
    }
    """
    faaslet = Faaslet(define(src), StandaloneEnvironment())
    assert faaslet.call()[0] == 1  # OOB trap contained


def test_chained_calls():
    env = StandaloneEnvironment()
    env.register_function("double", lambda data: str(int(data) * 2).encode())
    src = """
    extern int chain_call(int np, int nl, int ip, int il);
    extern int await_call(int id);
    extern int get_call_output(int id, int buf, int len);
    extern void write_call_output(int buf, int len);

    export int main() {
        int[] name = new int[2];
        // "double" = 6 chars
        storeb(ptr(name), 100); storeb(ptr(name) + 1, 111);
        storeb(ptr(name) + 2, 117); storeb(ptr(name) + 3, 98);
        storeb(ptr(name) + 4, 108); storeb(ptr(name) + 5, 101);
        int[] arg = new int[1];
        storeb(ptr(arg), 52);  // "4"
        int id = chain_call(ptr(name), 6, ptr(arg), 1);
        if (await_call(id) != 0) { return 1; }
        int[] buf = new int[4];
        int n = get_call_output(id, ptr(buf), 16);
        write_call_output(ptr(buf), n);
        return 0;
    }
    """
    faaslet = Faaslet(define(src), env)
    code, output = faaslet.call()
    assert code == 0
    assert output == b"8"


def test_filesystem_read_global_write_local():
    env = StandaloneEnvironment()
    env.object_store.upload("data/config.txt", b"GLOBAL")
    src = """
    extern int open(int p, int l, int flags);
    extern int read(int fd, int buf, int len);
    extern int write(int fd, int buf, int len);
    extern int close(int fd);
    extern void write_call_output(int buf, int len);

    export int main() {
        int[] path = new int[4];
        // "data/config.txt" is 15 chars
        storeb(ptr(path)+0,100); storeb(ptr(path)+1,97); storeb(ptr(path)+2,116);
        storeb(ptr(path)+3,97); storeb(ptr(path)+4,47); storeb(ptr(path)+5,99);
        storeb(ptr(path)+6,111); storeb(ptr(path)+7,110); storeb(ptr(path)+8,102);
        storeb(ptr(path)+9,105); storeb(ptr(path)+10,103); storeb(ptr(path)+11,46);
        storeb(ptr(path)+12,116); storeb(ptr(path)+13,120); storeb(ptr(path)+14,116);
        int fd = open(ptr(path), 15, 0);
        if (fd < 0) { return 1; }
        int[] buf = new int[4];
        int n = read(fd, ptr(buf), 16);
        write_call_output(ptr(buf), n);
        close(fd);
        // Now write locally (flags O_WRONLY|O_CREAT = 0x41).
        int wfd = open(ptr(path), 15, 65);
        write(wfd, ptr(buf), n);
        close(wfd);
        return 0;
    }
    """
    faaslet = Faaslet(define(src), env)
    code, output = faaslet.call()
    assert code == 0
    assert output == b"GLOBAL"
    # The write landed in the local layer, not the global store.
    assert env.object_store.get("data/config.txt") == b"GLOBAL"
    assert env.filesystem.stat("data/config.txt").local


def test_gettime_and_getrandom():
    src = """
    extern long gettime();
    extern int getrandom(int buf, int len);
    export int main() {
        long t0 = gettime();
        int[] buf = new int[4];
        if (getrandom(ptr(buf), 16) != 16) { return 1; }
        long t1 = gettime();
        if (t1 < t0) { return 2; }
        return 0;
    }
    """
    faaslet = Faaslet(define(src), StandaloneEnvironment())
    assert faaslet.call()[0] == 0


def test_sbrk_respects_memory_limit():
    src = """
    extern int sbrk(int delta);
    export int main() {
        // Try to grow by 100 MiB; limit is far below.
        if (sbrk(104857600) == -1) { return 7; }
        return 0;
    }
    """
    faaslet = Faaslet(define(src, max_pages=16), StandaloneEnvironment())
    assert faaslet.call()[0] == 7


def test_memory_footprint_small():
    """A fresh no-op Faaslet's private footprint is modest (Tab. 3 scale)."""
    faaslet = Faaslet(define("export int main() { return 0; }"), StandaloneEnvironment())
    assert faaslet.memory_footprint() <= 4 * 64 * 1024  # a few pages


class TestProtoFaaslet:
    INIT_SRC = """
    global int initialised = 0;
    export void init() {
        float[] table = new float[1000];
        for (int i = 0; i < 1000; i = i + 1) { table[i] = (float) i * 2.0; }
        initialised = 1;
    }
    export int main() { return initialised; }
    """

    def test_snapshot_preserves_init_state(self):
        env = StandaloneEnvironment()
        definition = define(self.INIT_SRC, "init-fn")
        proto = ProtoFaaslet.capture(definition, env, init="init")
        restored = proto.restore(env)
        # The initialised flag survived the snapshot: no cold-start init.
        assert restored.call()[0] == 1

    def test_cold_faaslet_not_initialised(self):
        env = StandaloneEnvironment()
        faaslet = Faaslet(define(self.INIT_SRC), env)
        assert faaslet.call()[0] == 0

    def test_restore_is_copy_on_write(self):
        env = StandaloneEnvironment()
        proto = ProtoFaaslet.capture(define(self.INIT_SRC), env, init="init")
        restored = proto.restore(env)
        # Before any write, no private pages were copied.
        assert restored.instance.memory.cow_faults == 0
        restored.call()
        # Execution wrote only a few pages (stack/heap writes if any).
        assert restored.instance.memory.cow_faults <= restored.instance.memory.size_pages

    def test_restores_are_independent(self):
        src = """
        global int counter = 0;
        export int main() { counter = counter + 1; return counter; }
        """
        env = StandaloneEnvironment()
        proto = ProtoFaaslet.capture(define(src), env)
        a = proto.restore(env)
        b = proto.restore(env)
        assert a.call()[0] == 1
        assert a.call()[0] == 2
        assert b.call()[0] == 1  # b's globals are fresh


    def test_memory_writes_do_not_leak_between_restores(self):
        src = """
        extern int input_size();
        extern int read_call_input(int buf, int len);
        extern void write_call_output(int buf, int len);
        export int main() {
            int[] buf = new int[16];
            int n = read_call_input(ptr(buf), 64);
            write_call_output(ptr(buf), 64);
            return 0;
        }
        """
        env = StandaloneEnvironment()
        proto = ProtoFaaslet.capture(define(src), env)
        first = proto.restore(env)
        first.call(b"SECRET-TENANT-DATA")
        second = proto.restore(env)
        _, output = second.call(b"")
        assert b"SECRET" not in output

    def test_reset_clears_state_between_calls(self):
        src = """
        global int counter = 0;
        export int main() { counter = counter + 1; return counter; }
        """
        env = StandaloneEnvironment()
        proto = ProtoFaaslet.capture(define(src), env)
        faaslet = proto.restore(env)
        assert faaslet.call()[0] == 1
        assert faaslet.call()[0] == 2
        faaslet.reset()
        assert faaslet.call()[0] == 1  # §5.2: reset restores the snapshot

    def test_cross_host_serialisation(self):
        env_host1 = StandaloneEnvironment(host="host-1")
        definition = define(self.INIT_SRC, "portable")
        proto = ProtoFaaslet.capture(definition, env_host1, init="init")
        # "Ship" to another host and restore there (§5.2: OS-independent).
        env_host2 = StandaloneEnvironment(host="host-2")
        remote_proto, _ = ship_snapshot(definition, proto)
        assert remote_proto is not proto
        restored = remote_proto.restore(env_host2)
        assert restored.call()[0] == 1

    def test_from_bytes_rejects_foreign_and_truncated_buffers(self):
        definition = define(self.INIT_SRC, "portable")
        manifest = ProtoFaaslet.capture(
            definition, StandaloneEnvironment(), init="init"
        ).manifest()
        wire = manifest.to_bytes()
        assert wire[:4] == b"FMAN"
        assert SnapshotManifest.from_bytes(wire) == manifest
        for bad in (
            b"",
            b"FMA",
            b"PF02" + wire[4:],  # some other magic
            wire[:4] + b"\x02" + wire[5:],  # a format this reader predates
            wire[4:],  # headerless
            wire[:24],  # header only
            wire[:-1],  # one byte short of the table blob
        ):
            with pytest.raises(ValueError):
                SnapshotManifest.from_bytes(bad)

    def test_snapshot_rejects_mapped_regions(self):
        env = StandaloneEnvironment()
        faaslet = Faaslet(define(self.INIT_SRC), env)
        env.state.set_state("k", b"\x00" * 64)
        faaslet.map_state_region("k", 64)
        with pytest.raises(Exception):
            ProtoFaaslet.capture_from(faaslet)


def test_dynamic_linking():
    env = StandaloneEnvironment()
    env.object_store.upload(
        "lib/mathlib.ml",
        b"export int triple(int x) { return x * 3; }",
    )
    src = """
    extern int dlopen(int p, int l);
    extern int dlsym(int handle, int np, int nl);
    extern int dlclose(int handle);

    export int main() {
        int[] path = new int[4];
        // "lib/mathlib.ml" = 14 chars
        storeb(ptr(path)+0,108); storeb(ptr(path)+1,105); storeb(ptr(path)+2,98);
        storeb(ptr(path)+3,47); storeb(ptr(path)+4,109); storeb(ptr(path)+5,97);
        storeb(ptr(path)+6,116); storeb(ptr(path)+7,104); storeb(ptr(path)+8,108);
        storeb(ptr(path)+9,105); storeb(ptr(path)+10,98); storeb(ptr(path)+11,46);
        storeb(ptr(path)+12,109); storeb(ptr(path)+13,108);
        int handle = dlopen(ptr(path), 14);
        if (handle < 0) { return 1; }
        int[] name = new int[2];
        storeb(ptr(name)+0,116); storeb(ptr(name)+1,114); storeb(ptr(name)+2,105);
        storeb(ptr(name)+3,112); storeb(ptr(name)+4,108); storeb(ptr(name)+5,101);
        int fn = dlsym(handle, ptr(name), 6);
        if (fn < 0) { return 2; }
        int result = call3(fn, 14);
        dlclose(handle);
        return result;
    }

    int call3(int fn, int x) {
        return icall(fn, x);
    }
    """
    # minilang has no call_indirect syntax; use a hand-assembled trampoline.
    # Instead, exercise dlopen/dlsym through the Faaslet API directly.
    env2 = StandaloneEnvironment()
    env2.object_store.upload(
        "lib/mathlib.ml", b"export int triple(int x) { return x * 3; }"
    )
    faaslet = Faaslet(define("export int main() { return 0; }"), env2)
    handle = faaslet.dlopen("lib/mathlib.ml")
    table_idx = faaslet.dlsym(handle, "triple")
    entry = faaslet.instance.table[table_idx]
    assert isinstance(entry, tuple) and entry[0] == "ext"
    lib_instance = entry[1]
    assert lib_instance.invoke("triple", 5) == 15
    assert faaslet.dlclose(handle) == 0
    assert faaslet.dlclose(handle) == -1
