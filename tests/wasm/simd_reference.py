"""NumPy v128 lane kernels: the reference the struct kernels in
``repro.wasm.simd`` are checked against.

Element-wise NumPy over ``frombuffer`` views, one table per operator class
with the same mnemonics as ``SIMD_BINOPS`` / ``SIMD_UNOPS`` /
``SIMD_EXTRACT_OPS`` / ``SIMD_REPLACE_OPS``. NumPy is imported
unconditionally: the differential test must never compare the struct
kernels with themselves.
"""

import numpy as np

_M32 = 0xFFFFFFFF

u32 = np.dtype("<u4")
i32 = np.dtype("<i4")
f64 = np.dtype("<f8")


def _bin(dtype, fn):
    def kernel(a, b):
        with np.errstate(all="ignore"):
            out = fn(np.frombuffer(a, dtype), np.frombuffer(b, dtype))
        return out.astype(dtype, copy=False).tobytes()

    return kernel


def _nan_aware(fn, picker):
    # wasm min/max propagate NaN; numpy's minimum/maximum do too.
    def kernel(a, b):
        x = np.frombuffer(a, f64)
        y = np.frombuffer(b, f64)
        with np.errstate(all="ignore"):
            out = picker(x, y)
            # Spec-style signed-zero handling: min(-0, +0) == -0 etc.
            both_zero = (x == 0) & (y == 0)
            if both_zero.any():
                signs = np.signbit(x) | np.signbit(y) if fn == "min" else (
                    np.signbit(x) & np.signbit(y)
                )
                zeros = np.where(signs, -0.0, 0.0)
                out = np.where(both_zero, zeros, out)
        return out.tobytes()

    return kernel


BINOPS = {
    "i32x4.add": _bin(u32, lambda a, b: a + b),
    "i32x4.sub": _bin(u32, lambda a, b: a - b),
    "i32x4.mul": _bin(u32, lambda a, b: a * b),
    "i32x4.min_s": _bin(i32, np.minimum),
    "i32x4.max_s": _bin(i32, np.maximum),
    "f64x2.add": _bin(f64, lambda a, b: a + b),
    "f64x2.sub": _bin(f64, lambda a, b: a - b),
    "f64x2.mul": _bin(f64, lambda a, b: a * b),
    "f64x2.min": _nan_aware("min", np.minimum),
    "f64x2.max": _nan_aware("max", np.maximum),
}


def _splat(dtype, lanes):
    def kernel(x):
        return np.full(lanes, x, dtype).tobytes()

    return kernel


UNOPS = {
    "i32x4.splat": lambda x: np.full(4, x & _M32, u32).tobytes(),
    "f64x2.splat": _splat(f64, 2),
    "i32x4.neg": lambda a: (
        (-np.frombuffer(a, u32)).astype(u32, copy=False).tobytes()
    ),
    "f64x2.neg": lambda a: (-np.frombuffer(a, f64)).tobytes(),
}


EXTRACT_OPS = {
    "i32x4.extract_lane": lambda v, lane: int(np.frombuffer(v, u32)[lane]),
    "f64x2.extract_lane": lambda v, lane: float(np.frombuffer(v, f64)[lane]),
}


def _replace(dtype, mask=None):
    def kernel(v, x, lane):
        arr = np.frombuffer(v, dtype).copy()
        arr[lane] = (x & _M32) if mask else x
        return arr.tobytes()

    return kernel


REPLACE_OPS = {
    "i32x4.replace_lane": _replace(u32, mask=True),
    "f64x2.replace_lane": _replace(f64),
}
