"""Timing of the two hot kernels.

Run as `python -m qphase.bench`. Reports the median of three passes for the
2D wavelet pyramid, which has one numpy path, and for the classical map on
its numpy path and, when numba is installed, its compiled path, so the
speedup of the compiled path is visible at a glance.
"""

from __future__ import annotations

import time

import numpy as np

from . import kernels
from ._accel import HAS_NUMBA


def _median_time(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return sorted(times)[repeats // 2]


def _wavelet_case():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    field = rng.standard_normal((1024, 1024))

    def run():
        from . import wavelet
        wavelet.d4_forward_2d(field)

    return run


def _stdmap_case():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1)))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=1_000_000)
    p = rng.uniform(-np.pi, np.pi, size=1_000_000)

    def run():
        kernels.stdmap_advance(theta.copy(), p.copy(), 2.0, 100)

    return run


def main() -> None:
    wavelet_case = _wavelet_case()
    wavelet_case()
    print(f"{'d4_forward_2d 1024x1024':32s}  numpy: {_median_time(wavelet_case):8.4f}s")
    modes = [("numpy", False)]
    if HAS_NUMBA:
        modes.append(("numba", True))
    else:
        print("numba is not installed; timing the map's numpy path only")
    stdmap_case = _stdmap_case()
    line = [f"{'stdmap 1e6 points x 100 steps':32s}"]
    for name, enabled in modes:
        kernels.use_numba(enabled)
        stdmap_case()  # warm-up covers JIT compilation
        line.append(f"{name}: {_median_time(stdmap_case):8.4f}s")
    print("  ".join(line))
    kernels.use_numba(True)


if __name__ == "__main__":
    main()
