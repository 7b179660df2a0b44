"""Timing of the hot kernels, and the byte-identity list of CLI outputs.

Run as `python -m qphase.bench`. It prints the number of usable cores that
`kernels.split` reads (with one, every split loop runs inline; with more, a
loop of more than one piece runs its halves on two threads), the median
over five fresh processes of `import qphase.cli` with the number of scipy
modules it loaded (0: numpy is the one runtime dependency), and the
kicked-rotator evolution at n_q = 16 with its minor page faults per kick
where the `resource` module exists, the bytes `rotator` still holds after
evolving n_q = 16 at four K and the tracemalloc peak of a K switch (both as
multiples of the state). Then it times each case of `_cases`, one line
each: the kernels and whole paths at fixed sizes and seeds, the larger ones
at the n_q = 11 Wigner row's (2N)^2 = 4096^2 grid, far out of L2 cache.

Every time is the median of three calls after one warm-up call, with the
min-max spread of the three: three calls cannot tell a drifting machine
from a changed program, so compare alternated runs. A case with a unit also
reports the tracemalloc peak of one more, untimed call, as a multiple of
the array it works on. Every kernel has one numpy path.

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

from . import analysis, cli, imageio, kernels, rotator, wavelet, wigner
from .measurement import _rng

# points and steps of the map case
_MAP_POINTS, _MAP_STEPS = 1_000_000, 100


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


def _traced(fn) -> tuple:
    """(bytes still held, peak bytes) that tracemalloc saw from a call of fn,
    whose result is dropped first."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _evolve_line(kicks: int = 200) -> str:
    """The `rotator.evolve` line at n_q = 16: its time, minor faults per
    kick, and the bytes `rotator` holds after evolving at four K and the
    peak of a K switch, each as a multiple of the state."""
    sweep = [rotator.RotatorParams(n_q=16, K=K) for K in (0.5, 0.9, 1.5, 2.0)]
    psi = rotator.initial_band_state(sweep[-1])  # the same at every K
    run = lambda: rotator.evolve(psi, sweep[-1], kicks)  # noqa: E731
    run()
    line = f"{f'rotator.evolve n_q=16 t={kicks}':34s}  numpy: {_timed(_times(run))}"
    if resource is not None:
        before = _minor_faults()
        run()
        line += f"  minor faults/kick: {(_minor_faults() - before) / kicks:.1f}"
    # a 4-qubit run first, so every n_q = 16 table is built inside the trace
    small = rotator.RotatorParams(n_q=4, K=1.0)
    rotator.evolve(rotator.initial_band_state(small), small, 1)
    held, _ = _traced(lambda: [rotator.evolve(psi, params, 1) for params in sweep])
    _, switch = _traced(lambda: rotator.evolve(psi, sweep[0], 1))
    return (f"{line}  held after 4-K sweep: {held / psi.nbytes:.2f} x state"
            f"  K-switch peak: {switch / psi.nbytes:.2f} x state")


def _cases():
    """Yield (label, call, unit) of each timed case in print order; unit is
    (bytes, name) of the array its peak is measured against, or None.

    Each input is made in its turn and deleted before the next is made; the
    calls read their inputs from this generator's frame, so a deleted input
    is freed even while a caller still holds its call, and no two 4096^2
    inputs are held at once.
    """
    rng = _rng(2)
    psi = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
    psi /= np.linalg.norm(psi)
    yield "wigner_direct n_q=11", lambda: wigner.wigner_direct(psi), None
    del psi
    for side in (1024, 4096):
        field = _rng(0).standard_normal((side, side))
        yield (f"d4_forward_2d {side}x{side}", lambda: wavelet.d4_forward_2d(field),
               (field.nbytes, "field"))
        del field
    # the entropy call of a Wigner row at n_q = 11, whose S is read from the
    # (2N, N) left half of its (2N, 2N) grid at scale 4N
    n = 1 << 11
    full = _rng(4).standard_normal((2 * n, 2 * n))
    left = full[:, :n]
    # the grid sum rule of a Wigner row: 4N sum W^2 = 1 over the left half
    full /= np.sqrt(4 * n * np.sum(left * left))
    yield ("entropy_of_squares 4096x2048 view", lambda: analysis.entropy_of_squares(left, 4 * n),
           (left.nbytes, "half-grid"))
    del full, left
    yield ("wigner_scan_row K=2 n_q=11 t=1000", lambda: analysis.wigner_scan_row(2.0, 11, 1000),
           (4096 * 4096 * 8, "grid"))
    rng = _rng(1)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=_MAP_POINTS)
    p = rng.uniform(-np.pi, np.pi, size=_MAP_POINTS)
    yield ("stdmap 1e6 points x 100 steps",
           lambda: kernels.stdmap_advance(theta, p, 2.0, _MAP_STEPS), None)
    del theta, p
    grid = _rng(3).standard_normal((1024, 1024))
    yield "write_grid_csv 1024x1024 random", lambda: imageio.write_grid_csv(grid, io.StringIO()), None
    del grid
    # the grid `qphase wigner --nq 9 --K 2 --t 100` dumps
    params = rotator.RotatorParams(n_q=9, K=2.0)
    grid = wigner.wigner_from_momentum(
        rotator.evolve(rotator.initial_band_state(params), params, 100)).values
    yield ("write_grid_csv wigner n_q=9 t=100",
           lambda: imageio.write_grid_csv(grid, io.StringIO()), None)


def _cli_import() -> tuple:
    """(sorted seconds, scipy modules loaded) of `import qphase.cli` in 5 fresh processes."""
    src = str(Path(__file__).resolve().parents[1])
    code = (f"import sys, time; sys.path.insert(0, {src!r}); start = time.perf_counter(); "
            "import qphase.cli; print(time.perf_counter() - start, "
            "sum(m.split('.')[0] == 'scipy' for m in sys.modules))")
    runs = [subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                           text=True).stdout.split() for _ in range(5)]
    return sorted(float(r[0]) for r in runs), max(int(r[1]) for r in runs)


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
    print(_evolve_line())
    for label, call, unit in _cases():
        call()
        times = _times(call)
        line = f"{label:34s}  numpy: {_timed(times)}"
        if unit is not None:
            peak = _traced(call)[1]
            line += f"  peak: {peak / 1e6:.1f} MB = {peak / unit[0]:.2f} x {unit[1]}"
        if label.startswith("stdmap"):
            ns = statistics.median(times) / (_MAP_POINTS * _MAP_STEPS) * 1e9
            line += f"  {ns:.1f} ns/point-step"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
