"""Timing of the hot kernels.

Run as `python -m qphase.bench`. Its first line is the number of usable
cores that `kernels.split` reads, which says whether the chunk loops below
ran on two threads or inline. Then it reports the median over five fresh
processes of `import qphase.cli`, with the number of scipy modules it
loaded (0: numpy is the one runtime dependency). Then the median of three
passes for the kicked-rotator evolution at n_q = 16, with its minor page
faults per kick where the `resource` module exists, the paired-FFT Wigner grid at n_q = 11,
the 2D wavelet pyramid, a whole Wigner scan row at n_q = 11, the classical
map's `kernels.stdmap_advance` (also in ns per point-step) and the CSV grid
dump into memory, of a random 1024x1024 grid (every row through the one
"%.17g" row template) and of the Wigner grid that `qphase wigner --nq 9 --K 2
--t 100` writes (every row through the mirrored half-row path). The pyramid
and the scan row also report their tracemalloc peak in one more, untimed
pass, as a multiple of the field or grid they work on. Every kernel has one
numpy path.
"""

from __future__ import annotations

import io
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

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


def _scan_row_case():
    def run():
        from . import analysis
        analysis.wigner_scan_row(2.0, 11, 1000)

    return run


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


def _cli_import() -> tuple:
    """(median seconds, scipy modules loaded) of `import qphase.cli` in 5 fresh processes."""
    src = str(Path(__file__).resolve().parents[1])
    code = (f"import sys, time; sys.path.insert(0, {src!r}); start = time.perf_counter(); "
            "import qphase.cli; print(time.perf_counter() - start, "
            "sum(m.split('.')[0] == 'scipy' for m in sys.modules))")
    runs = [subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                           text=True).stdout.split() for _ in range(5)]
    return statistics.median(float(r[0]) for r in runs), max(int(r[1]) for r in runs)


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


# points and steps of the map case
_MAP_POINTS, _MAP_STEPS = 1_000_000, 100


def _stdmap_case():
    rng = _rng(1)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=_MAP_POINTS)
    p = rng.uniform(-np.pi, np.pi, size=_MAP_POINTS)

    def run():
        kernels.stdmap_advance(theta, p, 2.0, _MAP_STEPS)

    return run


def _wigner_grid():
    # the grid `qphase wigner --nq 9 --K 2 --t 100` dumps
    from . import rotator, wigner
    params = rotator.RotatorParams(n_q=9, K=2.0)
    psi = rotator.evolve(rotator.initial_band_state(params), params, 100)
    return wigner.wigner_from_momentum(psi).values


def _csv_case(grid):
    def run():
        from . import imageio
        imageio.write_grid_csv(grid, io.StringIO())

    return run


def main() -> None:
    cores = kernels.usable_cores()
    path = "halves on two threads" if cores > 1 else "inline, no helper thread"
    print(f"{'usable cores':34s}  {cores}: split chunk loops run {path}")
    seconds, scipy_modules = _cli_import()
    print(f"{'import qphase.cli (fresh process)':34s}  numpy: {seconds:8.4f}s"
          f"  scipy modules: {scipy_modules}")
    kicks = 200
    evolve_case = _evolve_case(kicks)
    evolve_case()
    label = f"rotator.evolve n_q=16 t={kicks}"
    line = f"{label:34s}  numpy: {_median_time(evolve_case):8.4f}s"
    if resource is not None:
        before = _minor_faults()
        evolve_case()
        line += f"  minor faults/kick: {(_minor_faults() - before) / kicks:.1f}"
    print(line)
    # (label, case, (bytes, name) of the array its peak is measured against)
    for label, case, unit in (
            ("wigner_direct n_q=11", _wigner_case(), None),
            ("d4_forward_2d 1024x1024", _wavelet_case(), (1024 * 1024 * 8, "field")),
            ("wigner_scan_row K=2 n_q=11 t=1000", _scan_row_case(), (4096 * 4096 * 8, "grid")),
            ("stdmap 1e6 points x 100 steps", _stdmap_case(), None),
            ("write_grid_csv 1024x1024 random",
             _csv_case(_rng(3).standard_normal((1024, 1024))), None),
            ("write_grid_csv wigner n_q=9 t=100", _csv_case(_wigner_grid()), None)):
        case()
        seconds = _median_time(case)
        line = f"{label:34s}  numpy: {seconds:8.4f}s"
        if unit is not None:
            peak = _traced_peak(case)
            line += f"  peak: {peak / 1e6:.1f} MB = {peak / unit[0]:.2f} x {unit[1]}"
        if label.startswith("stdmap"):
            line += f"  {seconds / (_MAP_POINTS * _MAP_STEPS) * 1e9:.1f} ns/point-step"
        print(line)


if __name__ == "__main__":
    main()
