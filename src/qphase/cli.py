"""Command-line front end.

Subcommands map one-to-one onto the experiments: classical phase portraits,
single Wigner/Husimi grids, localization scans with a scaling fit, sparse
image reconstruction, and the amplification microscope. Every run that writes
files drops a manifest.json beside them recording parameters, library
versions, and SHA-256 checksums, so any output set can be traced back to the
exact invocation that produced it.

Data goes to files, human-readable reports to stdout, progress to stderr.
Exit codes: 0 success, 2 invalid arguments or inputs, 3 resource limits,
4 unreadable data files, 1 anything unexpected.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import logging
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import (__version__, analysis, husimi, imageio, measurement, rotator, stdmap, wavelet,
               wigner)
from .errors import QPhaseError
from .statevec import check_register

log = logging.getLogger("qphase")

STANDARD_K = (0.5, 0.9, 1.5, 2.0)

_EXIT_BY_CATEGORY = {
    "parse": 4,
    "invalid-data": 4,
    "resource": 3,
}


def _fit_range(text: str):
    try:
        a, b = text.split(":")
        lo, hi = int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a:b, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    if lo < 1:
        raise argparse.ArgumentTypeError(f"qubit counts start at 1, got {text!r}")
    return lo, hi


def _region(text: str):
    # t0:t1,n0:n1 half-open rectangle in grid coordinates
    try:
        rows, cols = text.split(",")
        r0, r1 = (int(x) for x in rows.split(":"))
        c0, c1 = (int(x) for x in cols.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected t0:t1,n0:n1, got {text!r}") from None
    if r0 >= r1 or c0 >= c1:
        raise argparse.ArgumentTypeError(f"empty region {text!r}")
    if r0 < 0 or c0 < 0:
        raise argparse.ArgumentTypeError(f"negative coordinate in region {text!r}")
    return r0, r1, c0, c1


def _check_out(out: str) -> None:
    # before any work: an --out whose nearest existing ancestor is a file can
    # never become a directory. Nothing is made here; _outdir makes it later.
    # os.path reads an unreadable path as missing (Path raises before 3.12)
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise QPhaseError("invalid-parameter", f"--out {out}: {path} is not a directory")


def _outdir(args) -> Path:
    # called once every input is checked and the data is computed, just
    # before the first write, so a refused run leaves no directory behind
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file on the path, or no permission to write there
        raise QPhaseError("invalid-parameter", f"--out {out}: {exc.strerror}") from exc
    return out


def _sha256(path: Path) -> str:
    # 1 MiB blocks: a grid dump never sits in memory whole
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(outdir: Path, command: str, params: dict, files) -> None:
    checksums = {name: _sha256(outdir / name) for name in sorted(files)}
    manifest = {
        "command": command,
        "parameters": params,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "qphase": __version__,
        },
        "outputs": checksums,
    }
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_classical(args) -> int:
    ks = [args.K] if args.K is not None else list(STANDARD_K)
    written = []
    for K in ks:
        ens = stdmap.initial_band(K, count=args.shots, seed=args.seed)
        ens = stdmap.evolve_ensemble(ens, args.t)
        density = stdmap.histogram_density(ens, 256, 256)
        # the first K checks every input: the later ones are standard values
        outdir = _outdir(args)
        name = f"classical_K{K:g}_t{args.t}.pgm"
        imageio.render_heatmap(density, signed=False, path=outdir / name)
        written.append(name)
        log.info("K=%g t=%d done", K, args.t)
    _write_manifest(outdir, "classical",
                    {"K": ks, "t": args.t, "seed": args.seed, "count": args.shots},
                    written)
    print(f"wrote {len(written)} phase portraits to {outdir}")
    return 0


def cmd_wigner(args) -> int:
    params = rotator.RotatorParams(n_q=args.nq, K=args.K)
    psi = rotator.evolve(rotator.initial_band_state(params), params, args.t)
    grid = wigner.wigner_from_momentum(psi)
    full = grid.values
    outdir = _outdir(args)
    with open(outdir / "wigner.csv", "w") as fh:
        imageio.write_grid_csv(full, fh)
    imageio.render_heatmap(full, signed=True, path=outdir / "wigner.pgm")
    _write_manifest(outdir, "wigner",
                    {"K": args.K, "nq": args.nq, "t": args.t},
                    ["wigner.csv", "wigner.pgm"])
    xi = analysis.wigner_ipr(full)
    print(f"sum W        = {grid.total():.12f}")
    print(f"sum W^2      = {grid.total_sq():.12e} (target {1.0 / (2 * grid.N):.12e})")
    print(f"max |W|      = {grid.max_abs():.12e} (bound {1.0 / (2 * grid.N):.12e})")
    print(f"imag residue = {grid.imag_residue:.3e}")
    print(f"xi           = {xi:.6f}")
    return 0


def cmd_husimi(args) -> int:
    if args.nq % 2:  # the grid is sqrt(N) x sqrt(N); refuse before evolving
        raise QPhaseError("invalid-parameter", f"need even n_q, got {args.nq}")
    params = rotator.RotatorParams(n_q=args.nq, K=args.K)
    psi = rotator.evolve(rotator.initial_band_state(params), params, args.t)
    grid = husimi.modified_husimi(psi)
    probs = grid.probabilities
    outdir = _outdir(args)
    with open(outdir / "husimi.csv", "w") as fh:
        imageio.write_grid_csv(probs, fh)
    imageio.render_heatmap(probs, signed=False, path=outdir / "husimi.pgm")
    _write_manifest(outdir, "husimi",
                    {"K": args.K, "nq": args.nq, "t": args.t},
                    ["husimi.csv", "husimi.pgm"])
    print(f"sum |H|^2 = {float(probs.sum()):.12f}")
    print(f"xi        = {analysis.ipr(np.abs(grid.H)):.6f}")
    return 0


def _scan_rows(args):
    lo, hi = args.fit_range
    step = 1 if args.distribution == "wigner" else 2  # Husimi and image rows need even n_q
    qubits = range(lo + lo % step, hi + 1, step)
    if args.distribution == "wigner":
        worker = lambda n: analysis.wigner_scan_row(args.K, n, args.t)
    elif args.distribution == "husimi":
        worker = lambda n: analysis.husimi_scan_row(args.K, n, args.t)
    else:
        def worker(n):
            image = imageio.corpus_image(args.image, 1 << (n // 2))
            amps = imageio.encode_wavefunction(image)
            return analysis.image_scan_row(amps.values, n, args.tile)
    # a range has its length and last value without holding its items, so
    # both refusals come before any row runs, however wide --fit-range is
    if len(qubits) < 3:  # the fit needs three rows
        raise QPhaseError("insufficient-data",
                          f"range {lo}:{hi} has {len(qubits)} usable qubit counts; the fit needs 3")
    # refuse the largest row by the rows' own register rule
    n_max = qubits[-1]
    if args.distribution == "image":
        side = 1 << (n_max // 2)
        check_register(n_max, f"a {side}x{side} corpus image")
    else:
        rotator.RotatorParams(n_q=n_max, K=args.K)
    # one row at a time, in order of n_q: the peak memory is the largest row's
    return [worker(n) for n in qubits]


def cmd_scan(args) -> int:
    rows = _scan_rows(args)
    outdir = _outdir(args)
    with open(outdir / "scan.csv", "w") as fh:
        fh.write("K,n_q,xi_raw,xi_wavelet,R,S\n")
        for row in rows:
            fh.write(row.csv() + "\n")
    # each distribution's sub-parser holds only the options its rows read
    params = {key: value for key, value in vars(args).items()
              if key not in ("command", "func", "out", "fit_range")}
    _write_manifest(outdir, "scan", {**params, "range": list(args.fit_range)}, ["scan.csv"])
    for which in ("xi_raw", "xi_wavelet"):
        fit = analysis.fit_scaling([(r.n_q, getattr(r, which)) for r in rows])
        print(f"fit on {which} over n_q in [{fit.range[0]:g}, {fit.range[1]:g}]:")
        print(f"  exponent  = {fit.exponent:.4f} +- {fit.stderr:.4f}")
        print(f"  intercept = {fit.intercept:.4f}")
    return 0


def cmd_reconstruct(args) -> int:
    read, foreign = ("tile", "seed") if args.method == "topk" else ("seed", "tile")
    if getattr(args, foreign):
        raise QPhaseError("invalid-parameter", f"--method {args.method} reads no --{foreign}")
    image = imageio.load_pgm(args.image)
    amps = imageio.encode_wavefunction(image)
    if args.method == "topk":
        if args.tile:
            coeffs = wavelet.tiled_forward_2d(amps.values, args.tile)
        else:
            coeffs = wavelet.d4_forward_2d(amps.values)
        fld, l2, psnr = measurement.topk_reconstruct(coeffs, args.k)
    else:
        fld, l2, psnr = measurement.monte_carlo_reconstruct(amps.values, args.k, args.seed)
    out_px = np.clip(fld, 0.0, None)
    outdir = _outdir(args)
    imageio.render_heatmap(out_px, signed=False, path=outdir / "reconstructed.pgm")
    _write_manifest(outdir, "reconstruct",
                    {"image": str(args.image), "method": args.method, "k": args.k,
                     read: getattr(args, read)},
                    ["reconstructed.pgm"])
    print(f"method = {args.method}, budget = {args.k}")
    print(f"l2 error = {l2:.6e}")
    print(f"psnr     = {psnr:.2f} dB")
    return 0


def cmd_amplify(args) -> int:
    params = rotator.RotatorParams(n_q=args.nq, K=args.K)
    side = 2 * params.N
    r0, r1, c0, c1 = args.region
    if r1 > side or c1 > side:
        raise QPhaseError("invalid-parameter",
                          f"region exceeds the {side}x{side} register grid")
    psi0 = rotator.initial_band_state(params)
    grid, final_state = wigner.wigner_register_pipeline(psi0, params, args.t)
    mask2d = np.zeros((side, side), dtype=bool)
    mask2d[r0:r1, c0:c1] = True
    report = measurement.amplitude_amplify(final_state, mask2d.reshape(-1), "auto")
    print(f"region weight: {report.initial_weight:.6e} -> {report.final_weight:.6f}"
          f" in {report.iterations} iterations")
    print(f"closed-form weight = {report.closed_form:.6f}"
          f" (deviation {abs(report.final_weight - report.closed_form):.2e})")
    # the magnifier is only useful if it preserves structure inside the region
    idx = np.flatnonzero(mask2d.reshape(-1))
    before = final_state[idx]
    after = report.state[idx]
    top = idx[np.argsort(-np.abs(before))[:2]]
    if top.size == 2 and np.abs(final_state[top[1]]) > 0:
        r_before = final_state[top[0]] / final_state[top[1]]
        r_after = report.state[top[0]] / report.state[top[1]]
        print(f"ratio preservation: |before - after| = {abs(r_before - r_after):.2e}")
    gain = np.abs(after[np.abs(before) > 0]) / np.abs(before[np.abs(before) > 0])
    print(f"in-region gain spread = {float(gain.max() - gain.min()):.2e}")
    if args.out:
        outdir = _outdir(args)
        amplified = (np.abs(report.state) ** 2).reshape(side, side)
        imageio.render_heatmap(amplified, signed=False, path=outdir / "amplified.pgm")
        _write_manifest(outdir, "amplify",
                        {"K": args.K, "nq": args.nq, "t": args.t,
                         "region": list(args.region), "iterations": report.iterations},
                        ["amplified.pgm"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    # no prefix abbreviations anywhere: `reconstruct --t 16` would otherwise
    # read as --tile, while --t is the kick count of the rotator commands
    p = argparse.ArgumentParser(prog="qphase", allow_abbrev=False,
                                description="phase-space distributions of the kicked rotator")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, text):
        return sub.add_parser(name, help=text, allow_abbrev=False)

    def common(sp, *, nq=False, K=False, t=False, seed=False, out=False):
        if K:
            sp.add_argument("--K", type=float, required=(K == "req"),
                            help="kick strength" + ("" if K == "req" else
                                                    " (default: the four standard values)"))
        if nq:
            sp.add_argument("--nq", type=int, required=True, help="qubit count")
        if t:
            sp.add_argument("--t", type=int, required=True, help="number of kicks")
        if seed:
            sp.add_argument("--seed", type=int, required=True, help="64-bit RNG seed")
        if out:
            sp.add_argument("--out", required=True, help="output directory")

    sp = command("classical", "standard-map phase portraits")
    common(sp, t=True, seed=True, out=True, K=True)
    sp.add_argument("--shots", type=int, default=stdmap.DEFAULT_ENSEMBLE_SIZE,
                    help="ensemble size")
    sp.set_defaults(func=cmd_classical)

    sp = command("wigner", "Wigner grid of the evolved band state")
    common(sp, nq=True, K="req", t=True, out=True)
    sp.set_defaults(func=cmd_wigner)

    sp = command("husimi", "modified Husimi grid of the evolved band state")
    common(sp, nq=True, K="req", t=True, out=True)
    sp.set_defaults(func=cmd_husimi)

    sp = command("scan", "localization scan over qubit counts")
    sp.set_defaults(func=cmd_scan)
    dist = sp.add_subparsers(dest="distribution", required=True)
    scans = {"wigner": "Wigner grids of the evolved band state",
             "husimi": "modified Husimi grids of the evolved band state (even n_q)",
             "image": "a corpus image as an amplitude register (even n_q)"}
    for name, text in scans.items():
        dp = dist.add_parser(name, help=text, allow_abbrev=False)
        if name == "image":
            dp.add_argument("--tile", type=int, default=0, help="tile size for the transform")
            dp.add_argument("--image", default="portrait", choices=imageio.CORPUS_NAMES,
                            help="corpus image")
        else:
            common(dp, K="req", t=True)
        dp.add_argument("--fit-range", type=_fit_range, required=True, metavar="a:b",
                        help="inclusive qubit-count range to scan and fit")
        dp.add_argument("--out", required=True, help="output directory")

    sp = command("reconstruct", "sparse reconstruction of a PGM image")
    sp.add_argument("image", help="input PGM path")
    sp.add_argument("--method", choices=("topk", "montecarlo"), required=True)
    sp.add_argument("--k", type=int, required=True, help="coefficient or sample budget")
    sp.add_argument("--tile", type=int, default=0, help="tile size for the transform (topk)")
    sp.add_argument("--seed", type=int, default=0, help="64-bit RNG seed (montecarlo)")
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(func=cmd_reconstruct)

    sp = command("amplify", "amplify a register-grid region")
    common(sp, nq=True, K="req", t=True)
    sp.add_argument("--region", type=_region, required=True, metavar="t0:t1,n0:n1",
                    help="half-open grid rectangle to amplify")
    sp.add_argument("--out", default=None, help="optional directory for the amplified grid")
    sp.set_defaults(func=cmd_amplify)
    return p


def _one_malloc_arena() -> None:
    # glibc gives each thread an arena of its own that keeps the thread's freed
    # scratch resident. The split helper is the only thread besides the main
    # one; with this limit perfbench's `cli_outputs` peaked at 83.1 MB of RSS,
    # against 84.4 MB without it (medians of 5 alternated pairs on 2 vCPUs).
    # M_ARENA_MAX binds only threads started later.
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError):  # no confstr, or no such name
        return
    if glibc:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-8, 1)  # -8 is M_ARENA_MAX in <malloc.h>


def main(argv=None) -> int:
    _one_malloc_arena()  # first, before any thread of this process exists
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "out", None) is not None:
            _check_out(args.out)
        return args.func(args)
    except QPhaseError as exc:
        log.error("%s: %s", exc.category, exc)
        return _EXIT_BY_CATEGORY.get(exc.category, 2)
    except MemoryError as exc:
        log.error("resource: out of memory: %s", exc)
        return _EXIT_BY_CATEGORY["resource"]
    except Exception:  # noqa: BLE001 - the CLI must not traceback at users
        log.exception("unexpected failure")
        return 1


if __name__ == "__main__":
    sys.exit(main())
