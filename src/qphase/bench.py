"""Timing of the hot kernels, and the byte-identity list of CLI outputs.

Run as `python -m qphase.bench`. Its first line is the number of usable
cores that `kernels.split` reads, which says whether the chunk loops below
ran on two threads or inline. Then it reports the median over five fresh
processes of `import qphase.cli`, with the number of scipy modules it
loaded (0: numpy is the one runtime dependency). Then the median of three
passes for the kicked-rotator evolution at n_q = 16, with its minor page
faults per kick where the `resource` module exists, the bytes `rotator`
still holds after evolving n_q = 16 at four K and the tracemalloc peak of a
K switch (both as multiples of the state), the paired-FFT Wigner grid at n_q = 11,
the 2D wavelet pyramid, the entropy a Wigner row at n_q = 11 takes
(`entropy_of_squares` of the (4096, 2048) left-half view of a 4096^2 grid
at scale 4N), a whole Wigner scan row at n_q = 11, the classical
map's `kernels.stdmap_advance` (also in ns per point-step) and the CSV grid
dump into memory, of a random 1024x1024 grid (every row through the one
"%.17g" row template) and of the Wigner grid that `qphase wigner --nq 9 --K 2
--t 100` writes (every row through the mirrored half-row path). Every time
is printed with the min-max spread of its runs: three runs cannot tell a
drifting machine from a changed program, so compare alternated runs. The
pyramid, the entropy and the scan row also report their tracemalloc peak in
one more, untimed pass, as a multiple of the field, half-grid or grid they
work on. Every kernel has one numpy path.

`python -m qphase.bench --outputs DIR` times nothing: it runs a fixed list
of `qphase` commands with fixed seeds into DIR and prints the sha256 of
each file they write, one line per file. Two checkouts that print the same
lines write the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
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


def _times(fn, repeats: int = 3) -> list:
    """Seconds of `repeats` calls of fn, sorted."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return sorted(times)


def _timed(times) -> str:
    """The median of sorted times, with their min-max spread."""
    return f"{statistics.median(times):8.4f}s [{times[0]:.4f}-{times[-1]:.4f}]"


def _wavelet_case():
    field = _rng(0).standard_normal((1024, 1024))

    def run():
        from . import wavelet
        wavelet.d4_forward_2d(field)

    return run


# N of the entropy case: a Wigner row's at n_q = 11, whose S is read from
# the (2N, N) left half of its (2N, 2N) grid
_ENTROPY_N = 1 << 11


def _entropy_case():
    full = _rng(4).standard_normal((2 * _ENTROPY_N, 2 * _ENTROPY_N))
    left = full[:, :_ENTROPY_N]
    # the grid sum rule of a Wigner row: 4N sum W^2 = 1 over the left half
    full /= np.sqrt(4 * _ENTROPY_N * np.sum(left * left))

    def run():
        from . import analysis
        analysis.entropy_of_squares(left, 4 * _ENTROPY_N)

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


def _rotator_tables() -> tuple:
    """(bytes `rotator` holds after evolving n_q = 16 at four K, traced peak
    of a K switch at n_q = 16), each as a multiple of the state."""
    from . import rotator
    # a 4-qubit run first, so every n_q = 16 table is built inside the trace
    small = rotator.RotatorParams(n_q=4, K=1.0)
    rotator.evolve(rotator.initial_band_state(small), small, 1)
    sweep = [rotator.RotatorParams(n_q=16, K=K) for K in (0.5, 0.9, 1.5, 2.0)]
    psi = rotator.initial_band_state(sweep[0])
    tracemalloc.start()
    try:
        for params in sweep:
            rotator.evolve(psi, params, 1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    peak = _traced_peak(lambda: rotator.evolve(psi, sweep[0], 1))
    return held / psi.nbytes, peak / psi.nbytes


def _cli_import() -> tuple:
    """(sorted seconds, scipy modules loaded) of `import qphase.cli` in 5 fresh processes."""
    src = str(Path(__file__).resolve().parents[1])
    code = (f"import sys, time; sys.path.insert(0, {src!r}); start = time.perf_counter(); "
            "import qphase.cli; print(time.perf_counter() - start, "
            "sum(m.split('.')[0] == 'scipy' for m in sys.modules))")
    runs = [subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                           text=True).stdout.split() for _ in range(5)]
    return sorted(float(r[0]) for r in runs), max(int(r[1]) for r in runs)


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


def _output_commands(pgm: Path) -> list:
    """(name, argv) of the commands whose output bytes `--outputs` lists:
    the seven of perfbench's `cli_outputs` workload at its full sizes, a
    small Wigner and image scan and a `husimi` grid, each with fixed
    parameters and seeds."""
    return [
        ("wigner", ["wigner", "--nq", "9", "--K", "2", "--t", "100"]),
        ("classical", ["classical", "--K", "2", "--t", "200", "--shots", "100000",
                       "--seed", "1234"]),
        ("reconstruct_topk", ["reconstruct", str(pgm), "--method", "topk", "--k", "2500"]),
        ("reconstruct_tiled", ["reconstruct", str(pgm), "--method", "topk", "--tile", "16",
                               "--k", "2500"]),
        ("reconstruct_montecarlo", ["reconstruct", str(pgm), "--method", "montecarlo",
                                    "--k", "2500", "--seed", "5678"]),
        ("amplify", ["amplify", "--nq", "7", "--K", "2", "--t", "100",
                     "--region", "128:144,64:80"]),
        ("scan_husimi", ["scan", "husimi", "--K", "2", "--t", "1000", "--fit-range", "8:14"]),
        ("scan_wigner", ["scan", "wigner", "--K", "2", "--t", "100", "--fit-range", "5:9"]),
        ("scan_image", ["scan", "image", "--image", "portrait", "--fit-range", "10:18"]),
        ("husimi", ["husimi", "--nq", "12", "--K", "2", "--t", "100"]),
    ]


def outputs(root) -> int:
    """Run the `--outputs` list into root and print `sha256  command/file`
    for every file the manifests list; 1 if a command fails, else 0."""
    from . import cli, imageio
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    pgm = root / "portrait_256.pgm"
    imageio.save_pgm(imageio.corpus_image("portrait", 256), pgm)
    for name, argv in _output_commands(pgm):
        outdir = root / name
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out", str(outdir)])
        if code != 0:
            print(f"qphase {' '.join(argv)} exited {code}", file=sys.stderr)
            return 1
        manifest = json.loads((outdir / "manifest.json").read_text())
        for file, digest in sorted(manifest["outputs"].items()):
            print(f"{digest}  {name}/{file}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m qphase.bench",
                                     description="time the kernels, or list output hashes")
    parser.add_argument("--outputs", metavar="DIR",
                        help="run a fixed list of commands into DIR and print the sha256 "
                             "of every file they write, instead of timing")
    args = parser.parse_args(argv)
    if args.outputs is not None:
        return outputs(args.outputs)
    cores = kernels.usable_cores()
    path = "halves on two threads" if cores > 1 else "inline, no helper thread"
    print(f"{'usable cores':34s}  {cores}: split chunk loops run {path}")
    seconds, scipy_modules = _cli_import()
    print(f"{'import qphase.cli (fresh process)':34s}  numpy: {_timed(seconds)}"
          f"  scipy modules: {scipy_modules}")
    kicks = 200
    evolve_case = _evolve_case(kicks)
    evolve_case()
    label = f"rotator.evolve n_q=16 t={kicks}"
    line = f"{label:34s}  numpy: {_timed(_times(evolve_case))}"
    if resource is not None:
        before = _minor_faults()
        evolve_case()
        line += f"  minor faults/kick: {(_minor_faults() - before) / kicks:.1f}"
    held, switch = _rotator_tables()
    print(f"{line}  held after 4-K sweep: {held:.2f} x state  K-switch peak: {switch:.2f} x state")
    # (label, case, (bytes, name) of the array its peak is measured against)
    for label, case, unit in (
            ("wigner_direct n_q=11", _wigner_case(), None),
            ("d4_forward_2d 1024x1024", _wavelet_case(), (1024 * 1024 * 8, "field")),
            ("entropy_of_squares 4096x2048 view", _entropy_case(),
             (2 * _ENTROPY_N * _ENTROPY_N * 8, "half-grid")),
            ("wigner_scan_row K=2 n_q=11 t=1000", _scan_row_case(), (4096 * 4096 * 8, "grid")),
            ("stdmap 1e6 points x 100 steps", _stdmap_case(), None),
            ("write_grid_csv 1024x1024 random",
             _csv_case(_rng(3).standard_normal((1024, 1024))), None),
            ("write_grid_csv wigner n_q=9 t=100", _csv_case(_wigner_grid()), None)):
        case()
        times = _times(case)
        line = f"{label:34s}  numpy: {_timed(times)}"
        if unit is not None:
            peak = _traced_peak(case)
            line += f"  peak: {peak / 1e6:.1f} MB = {peak / unit[0]:.2f} x {unit[1]}"
        if label.startswith("stdmap"):
            seconds = statistics.median(times)
            line += f"  {seconds / (_MAP_POINTS * _MAP_STEPS) * 1e9:.1f} ns/point-step"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
