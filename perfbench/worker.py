"""One workload in one process: set-up, measured passes, checks, trace.

Started by run.py, which times set-up from the moment it starts this
process. Prints one JSON object as its last line of standard output.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        [--probe] [--smoke] --workdir DIR [--spans FILE]

--probe stops after set-up. A pass runs every operation of the workload once,
in the seeded order; passes repeat until the next one would end after
--seconds. With --trace 1 the passes alternate untraced and traced, starting
untraced, and at least one of each runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "QPHASE_NUMBA")
COUNT_NAMES = ("rotator.calls", "rotator.amp_kicks", "wigner.cells",
               "wigner.computed_bytes", "wavelet.samples", "wavelet.computed_bytes",
               "stdmap.point_steps", "imageio.bytes_written",
               "measurement.amplify_iterations")
MAX_FAILURE_NOTES = 20


def import_package():
    """Import qphase from this checkout's src/, and only from there."""
    src = ROOT / "src"
    if not (src / "qphase" / "__init__.py").is_file():
        raise SystemExit(f"no qphase sources under {src}")
    sys.path.insert(0, str(src))
    import qphase
    from qphase import (analysis, cli, husimi, imageio, kernels, measurement, rotator,
                        stdmap, wavelet, wigner)
    if Path(qphase.__file__).resolve().parent != (src / "qphase").resolve():
        raise SystemExit(f"qphase imported from {qphase.__file__}, not from {src}")
    return {"qphase": qphase, "analysis": analysis, "cli": cli, "husimi": husimi,
            "imageio": imageio, "kernels": kernels, "measurement": measurement,
            "rotator": rotator, "stdmap": stdmap, "wavelet": wavelet, "wigner": wigner}


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(mods, np, scipy, workload: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - the record notes what it cannot read
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "qphase": mods["qphase"].__version__,
        "kernel_path": "numba" if mods["kernels"].numba_active() else "numpy",
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
    }


def run_pass(wl, rec, traced: bool, failures: list) -> dict:
    rec.reset()
    rec.spans_on = traced
    op_times = []
    largest = []
    failed = 0
    for op in wl.ops:
        rec.reset_captures()
        span = rec.open(f"{layers.BENCH_LAYER}.{op.kind}") if traced else None
        start = time.perf_counter()
        error = None
        try:
            result = op.run()
        except Exception:  # noqa: BLE001 - a raising operation counts as failed
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if span is not None:
            rec.close(span)
        rec.spans_on = False
        if error is None:
            try:
                bad = op.check(result, rec)
            except Exception:  # noqa: BLE001 - a raising check counts as failed
                bad = [traceback.format_exc(limit=3)]
        else:
            bad = [error]
        rec.spans_on = traced
        rec.reset_captures()
        if bad:
            failed += 1
            if len(failures) < MAX_FAILURE_NOTES:
                failures.append(f"{op.label}: {'; '.join(bad)}")
        op_times.append(elapsed)
        if op.largest:
            largest.append(elapsed)
    rec.spans_on = False
    return {"traced": traced, "wall_s": sum(op_times), "largest_op_s": largest,
            "attempted": len(wl.ops), "failed": failed,
            "counts": {k: rec.counts[k] for k in COUNT_NAMES},
            "residues": dict(rec.residues)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    mods = import_package()
    import numpy as np
    import scipy

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](
            SimpleNamespace(**mods), args.seed, args.smoke, workdir, np)
        wl.warmup()
        ready = time.monotonic()
        if args.probe:
            print(json.dumps({"ready": ready}))
            return 0
        for path in workdir.iterdir():  # warm-up outputs
            if path.is_dir():
                shutil.rmtree(path)

        rec = layers.Recorder()
        restore, notes = layers.install(rec, mods, np)
        passes = []
        failures = []
        traced_spans = []
        start = time.perf_counter()
        try:
            while True:
                traced = bool(args.trace) and len(passes) % 2 == 1
                t0 = time.perf_counter()
                p = run_pass(wl, rec, traced, failures)
                p["duration_s"] = time.perf_counter() - t0
                if traced:
                    p["per_layer"] = layers.per_layer(rec.spans, rec.counts, p["residues"])
                    p["shares"] = layers.layer_shares(rec.spans, wl.largest_kind)
                    traced_spans.append(layers.span_records(rec.spans))
                passes.append(p)
                spent = time.perf_counter() - start
                both = not args.trace or (len(passes) >= 2)
                if both and spent + p["duration_s"] > args.seconds:
                    break
        finally:
            restore()

        usage = resource.getrusage(resource.RUSAGE_SELF)
        counts = [p["counts"] for p in passes]
        repeat_ok = all(c == counts[0] for c in counts)
        if not repeat_ok:
            failures.append("computed counts differ between passes of one run")
        result = {
            "ready": ready,
            "env": environment(mods, np, scipy, args.workload, args.seed),
            "notes": notes,
            "passes": [{k: v for k, v in p.items() if k != "per_layer"} for p in passes],
            "attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
            "counts_repeat": repeat_ok,
            "counts": counts[0],
            "failures": failures,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            # whole process, set-up included: where the time went, and how
            # much of it was page faults
            "cpu_user_s": usage.ru_utime,
            "cpu_sys_s": usage.ru_stime,
            "minor_faults": usage.ru_minflt,
        }
        untraced = [p for p in passes if not p["traced"]]
        result["wall_s"] = statistics.median(p["wall_s"] for p in untraced)
        result["largest_op_s"] = statistics.median(
            t for p in untraced for t in p["largest_op_s"])
        traced = [p for p in passes if p["traced"]]
        if traced:
            per_layer = {k: statistics.median(p["per_layer"][k] for p in traced)
                         for k in traced[0]["per_layer"]}
            per_layer["trace.overhead_s"] = (
                statistics.median(p["wall_s"] for p in traced) - result["wall_s"])
            result["per_layer"] = per_layer
            result["largest_op_shares"] = traced[-1]["shares"]
            if args.spans:
                Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
                Path(args.spans).write_text(json.dumps(
                    {"workload": args.workload, "seed": args.seed, "passes": traced_spans}))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
