"""Timing of the hot kernels.

Run as `python -m qphase.bench`. Reports the median of three passes for the
kicked-rotator evolution at n_q = 16, with its minor page faults per kick
where the `resource` module exists, the paired-FFT Wigner grid at n_q = 11
and the 2D wavelet pyramid, which have one numpy path each, and for the
classical map on its numpy path and, when numba is installed, its compiled
path, so the speedup of the compiled path is visible at a glance.
"""

from __future__ import annotations

import time

import numpy as np

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import kernels
from .measurement import _rng


def _median_time(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return sorted(times)[repeats // 2]


def _wavelet_case():
    field = _rng(0).standard_normal((1024, 1024))

    def run():
        from . import wavelet
        wavelet.d4_forward_2d(field)

    return run


def _wigner_case():
    rng = _rng(2)
    psi = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
    psi /= np.linalg.norm(psi)

    def run():
        from . import wigner
        wigner.wigner_direct(psi)

    return run


def _evolve_case(t: int):
    from . import rotator
    params = rotator.RotatorParams(n_q=16, K=2.0)
    psi = rotator.initial_band_state(params)

    def run():
        rotator.evolve(psi, params, t)

    return run


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _stdmap_case(advance):
    rng = _rng(1)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=1_000_000)
    p = rng.uniform(-np.pi, np.pi, size=1_000_000)

    def run():
        advance(theta, p, 2.0, 100, True)

    return run


def main() -> None:
    kicks = 200
    evolve_case = _evolve_case(kicks)
    evolve_case()
    label = f"rotator.evolve n_q=16 t={kicks}"
    line = f"{label:32s}  numpy: {_median_time(evolve_case):8.4f}s"
    if resource is not None:
        before = _minor_faults()
        evolve_case()
        line += f"  minor faults/kick: {(_minor_faults() - before) / kicks:.1f}"
    print(line)
    for label, case in (("wigner_direct n_q=11", _wigner_case()),
                        ("d4_forward_2d 1024x1024", _wavelet_case())):
        case()
        print(f"{label:32s}  numpy: {_median_time(case):8.4f}s")
    paths = [("numpy", kernels._stdmap_advance_np)]
    if kernels.HAS_NUMBA:
        paths.append(("numba", kernels._stdmap_advance_nb))
    else:
        print("numba is not installed; timing the map's numpy path only")
    line = [f"{'stdmap 1e6 points x 100 steps':32s}"]
    for name, advance in paths:
        stdmap_case = _stdmap_case(advance)
        stdmap_case()  # warm-up covers JIT compilation
        line.append(f"{name}: {_median_time(stdmap_case):8.4f}s")
    print("  ".join(line))


if __name__ == "__main__":
    main()
