"""The three workloads: their operations, made from the seed, and the
correctness check each operation must pass.

The package receives only the generated inputs. One pass issues a workload's
operations one after another, each after the previous one returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

STANDARD_K = (0.5, 0.9, 1.5, 2.0)
CORPUS = ("portrait", "texture", "spots", "fractal")

# tolerances of the package's own tests (tests/test_acceptance.py); the
# imaginary-part bound reuses the 1e-12 slack of the |W| <= 1/(2N) rule
NORM_DRIFT_TOL = 1e-10
WIGNER_SUM_TOL = 1e-8
WIGNER_BOUND_SLACK = 1e-12
IMAG_RESIDUE_TOL = 1e-12
EXTENSION_TOL = 1e-9
HUSIMI_SUM_TOL = 1e-10
PARSEVAL_TOL = 1e-10


@dataclass
class Op:
    kind: str                 # names the op span "bench.<kind>"
    label: str
    run: Callable[[], object]
    check: Callable[[object, object], list]  # (result, recorder) -> failures
    largest: bool = False


@dataclass
class Workload:
    name: str
    ops: list
    warmup: Callable[[], object]  # the smallest-size operation
    largest_kind: str


def check_captures(rec, np, need=()) -> list:
    """Check every invariant the hooks recorded during one operation, and
    keep the largest residues in rec.residues.

    need names the captures this operation must have produced, so that a
    missing hook cannot pass a check by recording nothing.
    """
    bad = []
    res = rec.residues
    have = {"evolve": rec.norm_drifts, "grid": rec.grids, "transform": rec.transforms,
            "husimi": rec.husimi_sums, "row": rec.rows, "psnr": rec.psnrs}
    for what in need:
        if not have[what]:
            bad.append(f"no {what} recorded")
    for drift in rec.norm_drifts:
        res["norm_drift"] = max(res["norm_drift"], drift)
        if not drift <= NORM_DRIFT_TOL:
            bad.append(f"norm drift {drift:.3e} > {NORM_DRIFT_TOL:g}")
    for grid in rec.grids:
        target = 1.0 / (2 * grid.N)
        total, total_sq, max_abs = grid.total(), grid.total_sq(), grid.max_abs()
        res["imag_residue"] = max(res["imag_residue"], grid.imag_residue)
        if not abs(total - 1.0) <= WIGNER_SUM_TOL:
            bad.append(f"Wigner sum W - 1 = {total - 1.0:.3e}")
        if not abs(total_sq - target) <= WIGNER_SUM_TOL:
            bad.append(f"Wigner sum W^2 - 1/2N = {total_sq - target:.3e}")
        if not max_abs <= target + WIGNER_BOUND_SLACK:
            bad.append(f"Wigner max |W| = {max_abs:.6e} above 1/2N = {target:.6e}")
        if not grid.imag_residue <= IMAG_RESIDUE_TOL:
            bad.append(f"Wigner imag residue {grid.imag_residue:.3e}")
        if not grid.extension_residue <= EXTENSION_TOL:
            bad.append(f"Wigner extension residue {grid.extension_residue:.3e}")
    for before, after in rec.transforms:
        a = np.asarray(before, dtype=np.float64).reshape(-1)
        b = np.asarray(after, dtype=np.float64).reshape(-1)
        energy = float(np.dot(a, a))
        residue = abs(float(np.dot(b, b)) - energy) / max(energy, 1e-300)
        res["parseval"] = max(res["parseval"], residue)
        if not residue <= PARSEVAL_TOL:
            bad.append(f"D4 Parseval residue {residue:.3e}")
    for s in rec.husimi_sums:
        if not abs(s - 1.0) <= HUSIMI_SUM_TOL:
            bad.append(f"Husimi sum |H|^2 - 1 = {s - 1.0:.3e}")
    for row in rec.rows:
        if not (finite_positive(row.xi_raw) and finite_positive(row.xi_wavelet)
                and finite_positive(row.R) and math.isfinite(row.S)):
            bad.append(f"scan row n_q={row.n_q}: xi or R not finite and positive")
    for p in rec.psnrs:
        if not math.isfinite(p):
            bad.append(f"reconstruction PSNR {p}")
    return bad


def finite_positive(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x > 0


def _late(module, attr, *args):
    """Call module.attr(*args), looking the name up at call time so that
    the worker's hooks, installed after set-up, are reached."""
    return lambda: getattr(module, attr)(*args)


def _kick_count(rng: random.Random, center: int) -> int:
    # a narrow window, so the evolution cost barely depends on the seed
    return center + rng.randint(-center // 200, center // 200)


# ---------------------------------------------------------------- workloads

def wigner_scan(q, seed: int, smoke: bool, workdir: Path, np) -> Workload:
    rng = random.Random(seed)
    sizes = range(5, 7) if smoke else range(5, 12)
    center = 20 if smoke else 1000
    rows = [(K, n, _kick_count(rng, center)) for K in (0.5, 2.0) for n in sizes]
    rng.shuffle(rows)
    ops = []
    for K, n, t in rows:
        ops.append(Op(
            kind="wigner_row", label=f"wigner_scan_row K={K:g} n_q={n} t={t}",
            run=_late(q.analysis, "wigner_scan_row", K, n, t),
            check=lambda row, rec: check_captures(
                rec, np, need=("evolve", "grid", "transform", "row")),
            largest=(n == sizes[-1])))
    smallest = min(rows, key=lambda r: r[1])
    return Workload("wigner_scan", ops,
                    _late(q.analysis, "wigner_scan_row", *smallest), "wigner_row")


def husimi_scan(q, seed: int, smoke: bool, workdir: Path, np) -> Workload:
    rng = random.Random(seed)
    sizes = (4, 6) if smoke else (8, 10, 12, 14, 16)
    center = 20 if smoke else 1000
    rows = [(K, n, _kick_count(rng, center)) for K in STANDARD_K for n in sizes]
    rng.shuffle(rows)
    ops = []
    for K, n, t in rows:
        ops.append(Op(
            kind="husimi_row", label=f"husimi_scan_row K={K:g} n_q={n} t={t}",
            run=_late(q.analysis, "husimi_scan_row", K, n, t),
            check=lambda row, rec: check_captures(
                rec, np, need=("evolve", "husimi", "transform", "row")),
            largest=(n == sizes[-1])))
    smallest = min(rows, key=lambda r: r[1])
    return Workload("husimi_scan", ops,
                    _late(q.analysis, "husimi_scan_row", *smallest), "husimi_row")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_manifest(outdir: Path, expected: set) -> list:
    """The manifest lists exactly the expected files, with their sha256."""
    try:
        manifest = json.loads((outdir / "manifest.json").read_text())
        outputs = manifest["outputs"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"manifest unreadable: {exc}"]
    bad = []
    if set(outputs) != expected:
        bad.append(f"manifest lists {sorted(outputs)}, expected {sorted(expected)}")
    for name, digest in outputs.items():
        path = outdir / name
        if not path.is_file():
            bad.append(f"manifest names missing file {name}")
        elif _sha256(path) != digest:
            bad.append(f"sha256 of {name} does not match the manifest")
    return bad


def cli_outputs(q, seed: int, smoke: bool, workdir: Path, np) -> Workload:
    rng = random.Random(seed)
    side = 32 if smoke else 256
    image = rng.choice(CORPUS)
    pgm = workdir / f"input_{image}_{side}.pgm"
    q.imageio.save_pgm(q.imageio.synthetic_corpus(side)[image], pgm)

    nq_wigner, t_wigner = (5, 10) if smoke else (9, 100)
    nq_amp, t_amp = (4, 10) if smoke else (7, 100)
    t_classical, shots = (20, 2000) if smoke else (200, 100_000)
    budget = 100 if smoke else 2500
    fit_range = "4:8" if smoke else "8:14"
    t_scan = _kick_count(rng, 20 if smoke else 1000)
    # an aligned block of one sixteenth of the register grid's side; at K=2
    # every such block carries enough weight for a short amplification
    grid_side = 2 << nq_amp
    block = grid_side // 16
    r0, c0 = block * rng.randrange(16), block * rng.randrange(16)
    region = f"{r0}:{r0 + block},{c0}:{c0 + block}"
    k_wigner = rng.choice(STANDARD_K)
    k_scan = rng.choice(STANDARD_K)

    commands = [
        ("wigner", ["wigner", "--nq", str(nq_wigner), "--K", f"{k_wigner:g}",
                    "--t", str(t_wigner)], {"wigner.csv", "wigner.pgm"}, ("grid", "evolve")),
        ("classical", ["classical", "--K", "2", "--t", str(t_classical), "--shots", str(shots),
                       "--seed", str(rng.randrange(1 << 31))],
         {f"classical_K2_t{t_classical}.pgm"}, ()),
        ("reconstruct_topk", ["reconstruct", str(pgm), "--method", "topk", "--k", str(budget)],
         {"reconstructed.pgm"}, ("transform", "psnr")),
        ("reconstruct_tiled", ["reconstruct", str(pgm), "--method", "topk", "--tile", "16",
                               "--k", str(budget)],
         {"reconstructed.pgm"}, ("transform", "psnr")),
        ("reconstruct_montecarlo", ["reconstruct", str(pgm), "--method", "montecarlo",
                                    "--k", str(budget), "--seed", str(rng.randrange(1 << 31))],
         {"reconstructed.pgm"}, ("psnr",)),
        ("amplify", ["amplify", "--nq", str(nq_amp), "--K", "2", "--t", str(t_amp),
                     "--region", region], {"amplified.pgm"}, ("grid", "evolve")),
        ("scan", ["scan", "husimi", "--K", f"{k_scan:g}", "--t", str(t_scan),
                  "--fit-range", fit_range], {"scan.csv"}, ("row", "husimi", "transform")),
    ]
    rng.shuffle(commands)

    def make(name, argv, expected, need, outdir):
        full = argv + ["--out", str(outdir)]

        def run():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                return q.cli.main(full)

        def check(code, rec):
            bad = [] if code == 0 else [f"exit code {code}"]
            bad += check_manifest(outdir, expected)
            bad += check_captures(rec, np, need=need)
            shutil.rmtree(outdir, ignore_errors=True)
            return bad

        return run, check

    ops = []
    for name, argv, expected, need in commands:
        run, check = make(name, argv, expected, need, workdir / name)
        ops.append(Op(kind=f"cli_{name}", label="qphase " + " ".join(argv),
                      run=run, check=check, largest=(name == "wigner")))
    amplify = next(op for op in ops if op.kind == "cli_amplify")
    return Workload("cli_outputs", ops, amplify.run, "cli_wigner")


WORKLOADS = {"wigner_scan": wigner_scan, "husimi_scan": husimi_scan,
             "cli_outputs": cli_outputs}
