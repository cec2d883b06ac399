"""A small guest-side standard library for minilang functions.

The paper links guest functions against language-specific libraries
declaring the host interface and common helpers. :data:`PRELUDE` plays
that role here: prepend it to guest source (``with_stdlib``) to get the
full Tab. 2 extern declarations plus byte-buffer helpers (``memcpy``,
``memset``, ``streq``, ``itoa``, ``atoi``).
"""

from __future__ import annotations

#: Extern declarations for the full Tab. 2 host interface.
HOST_DECLS = """
extern int input_size();
extern int read_call_input(int buf, int len);
extern void write_call_output(int buf, int len);
extern int chain_call(int name_ptr, int name_len, int in_ptr, int in_len);
extern int await_call(int call_id);
extern int get_call_output_size(int call_id);
extern int get_call_output(int call_id, int buf, int len);

extern int get_state(int key_ptr, int key_len, int size);
extern int get_state_offset(int key_ptr, int key_len, int off, int len);
extern void set_state(int key_ptr, int key_len, int val_ptr, int val_len);
extern void set_state_offset(int key_ptr, int key_len, int val_ptr, int val_len, int off);
extern void push_state(int key_ptr, int key_len);
extern void pull_state(int key_ptr, int key_len);
extern void push_state_offset(int key_ptr, int key_len, int off, int len);
extern void pull_state_offset(int key_ptr, int key_len, int off, int len);
extern void append_state(int key_ptr, int key_len, int val_ptr, int val_len);
extern int state_size(int key_ptr, int key_len);
extern void lock_state_read(int key_ptr, int key_len);
extern void unlock_state_read(int key_ptr, int key_len);
extern void lock_state_write(int key_ptr, int key_len);
extern void unlock_state_write(int key_ptr, int key_len);
extern void lock_state_global_read(int key_ptr, int key_len);
extern void unlock_state_global_read(int key_ptr, int key_len);
extern void lock_state_global_write(int key_ptr, int key_len);
extern void unlock_state_global_write(int key_ptr, int key_len);

extern int dlopen(int path_ptr, int path_len);
extern int dlsym(int handle, int name_ptr, int name_len);
extern int dlclose(int handle);

extern int sbrk(int delta);
extern int brk(int addr);
extern int mmap(int len);
extern int munmap(int addr, int len);

extern int open(int path_ptr, int path_len, int flags);
extern int close(int fd);
extern int dup(int fd);
extern int read(int fd, int buf, int len);
extern int write(int fd, int buf, int len);
extern int seek(int fd, int off, int whence);
extern int fstat_size(int path_ptr, int path_len);

extern int socket(int family, int type);
extern int connect(int fd, int host_ptr, int host_len, int port);
extern int bind(int fd, int host_ptr, int host_len, int port);
extern int nsend(int fd, int buf, int len);
extern int nrecv(int fd, int buf, int len);
extern int nclose(int fd);

extern long gettime();
extern int getrandom(int buf, int len);

extern int thread_spawn(int elem_index, int argptr);
extern int thread_join(int tid);
"""

#: Byte-buffer and conversion helpers.
HELPERS = """
void memcpy(int dst, int src, int n) {
    for (int i = 0; i < n; i = i + 1) { storeb(dst + i, loadb(src + i)); }
}

void memset_bytes(int dst, int value, int n) {
    for (int i = 0; i < n; i = i + 1) { storeb(dst + i, value); }
}

int streq(int a, int b, int n) {
    for (int i = 0; i < n; i = i + 1) {
        if (loadb(a + i) != loadb(b + i)) { return 0; }
    }
    return 1;
}

// Render v as decimal into buf; returns the number of bytes written.
int itoa(int v, int buf) {
    int len = 0;
    if (v < 0) { storeb(buf, 45); len = 1; v = 0 - v; }
    if (v == 0) { storeb(buf + len, 48); return len + 1; }
    int[] digits = new int[12];
    int nd = 0;
    while (v > 0) { digits[nd] = v % 10; v = v / 10; nd = nd + 1; }
    while (nd > 0) {
        nd = nd - 1;
        storeb(buf + len, 48 + digits[nd]);
        len = len + 1;
    }
    return len;
}

// Parse a decimal integer from buf[0..n).
int atoi(int buf, int n) {
    int v = 0;
    int sign = 1;
    int i = 0;
    if (n > 0 && loadb(buf) == 45) { sign = 0 - 1; i = 1; }
    while (i < n) {
        int c = loadb(buf + i);
        if (c < 48 || c > 57) { return sign * v; }
        v = v * 10 + (c - 48);
        i = i + 1;
    }
    return sign * v;
}

// Write the call output as the decimal rendering of v.
void output_int(int v) {
    int[] buf = new int[4];
    int n = itoa(v, ptr(buf));
    write_call_output(ptr(buf), n);
}

// Read the whole call input into a fresh buffer; returns its address
// (length available via input_size()).
int read_input_buffer() {
    int n = input_size();
    int[] buf = new int[(n + 4) / 4];
    read_call_input(ptr(buf), n);
    return ptr(buf);
}
"""

PRELUDE = HOST_DECLS + HELPERS


def with_stdlib(source: str) -> str:
    """Prepend the guest standard library to ``source``."""
    return PRELUDE + "\n" + source
