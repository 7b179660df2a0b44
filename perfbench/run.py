"""qphase benchmark: one workload per run, each in its own process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --smoke

Workloads: wigner_scan, husimi_scan, cli_outputs (see perfbench/NOTES.md).
Run from anywhere; the checkout is the parent of this directory, and the
package is imported from its src/.

With --trace 0 the last line of standard output is one JSON object holding
the end-to-end metrics of BENCHMARK.json; with --trace 1 it holds the
per-layer metrics, and the spans go to .perfbench_out/traces/. Every run also
writes its full record (environment, passes, failures) to
.perfbench_out/results/. The lines before the last print each metric by name
with its unit. A missing package or a crashed worker exits non-zero without
printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("wigner_scan", "husimi_scan", "cli_outputs")
SETUP_PROBES = 2          # extra fresh processes timed for setup_s
DEADLINE_S = 170.0        # the whole run ends within this
# the benchmark's only threads are the CLI scan pool's
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def worker(args: list, deadline: float) -> tuple:
    """Run worker.py to completion; returns (start monotonic, parsed last line)."""
    env = dict(os.environ)
    for key, value in SINGLE_THREAD_ENV.items():
        env.setdefault(key, value)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker timed out: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    lines = out.strip().splitlines()
    try:
        return started, json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError("worker printed no result") from None


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False) -> dict:
    """Set-up probes, then the measured worker; returns the full record."""
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{name}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "")
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)] + (["--smoke"] if smoke else [])
    setups = []
    for i in range(0 if trace else SETUP_PROBES):
        started, probe = worker(base + ["--probe", "--workdir",
                                        str(OUT / "work" / f"{tag}-probe{i}-{os.getpid()}")],
                                deadline)
        setups.append(probe["ready"] - started)
    spans = OUT / "traces" / f"{tag}.json"
    started, record = worker(base + ["--workdir", str(OUT / "work" / f"{tag}-{os.getpid()}"),
                                     "--spans", str(spans)], deadline)
    setups.append(record["ready"] - started)
    record["setup_samples_s"] = setups
    record["setup_s"] = statistics.median(setups)
    record["success_rate"] = 1.0 - record["failed"] / record["attempted"]
    record["error_rate"] = record["failed"] / record["attempted"]
    if trace:
        record["spans_file"] = str(spans.relative_to(ROOT))
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    return record


def metrics(entries: list, values: dict) -> dict:
    out = {}
    for entry in entries:
        name = entry["name"]
        if name not in values:
            raise BenchError(f"metric {name} was not measured")
        out[name] = {"value": values[name], "unit": entry["unit"]}
    return out


def report(name: str, record: dict, trace: int, bench: dict) -> dict:
    env = record["env"]
    print(f"workload {name}, seed {env['seed']}: {record['attempted']} operations, "
          f"{record['failed']} failed, error_rate {record['error_rate']:.6g}, "
          f"{len(record['passes'])} passes")
    print("env " + json.dumps(env, sort_keys=True))
    for note in record["notes"] + record["failures"]:
        print("note " + note)
    if trace:
        values = record["per_layer"]
        entries = bench["per_layer"]
        print("computed counts (same inputs give the same counts): "
              + ", ".join(f"{k}={v}" for k, v in record["counts"].items()))
        print("largest operation, busy share by layer: "
              + ", ".join(f"{k} {v:.3f}" for k, v in record["largest_op_shares"].items()))
    else:
        values = {k: record[k] for k in ("setup_s", "wall_s", "largest_op_s",
                                         "peak_rss_mb", "success_rate")}
        entries = bench["end_to_end"]
    out = metrics(entries, values)
    for key, m in out.items():
        print(f"  {key:32s} {m['value']:>16.6g} {m['unit']}")
    return out


def smoke(bench: dict) -> int:
    """Every workload once at tiny sizes, traced and untraced; all metrics
    present with their units, and the same seed gives the same counts."""
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            record = run_workload(name, 7, 0.1, trace, smoke=True)
            out = report(name, record, trace, bench)
            entries = bench["per_layer" if trace else "end_to_end"]
            for entry in entries:
                if out.get(entry["name"], {}).get("unit") != entry["unit"]:
                    problems.append(f"{name}: {entry['name']} missing or without its unit")
            if record["failed"]:
                problems.append(f"{name}: {record['failed']} failed operations")
            if not record["counts_repeat"]:
                problems.append(f"{name}: counts differ between passes of one run")
            if trace:
                again = run_workload(name, 7, 0.1, trace, smoke=True)
                if again["counts"] != record["counts"]:
                    problems.append(f"{name}: counts differ between two runs of one seed")
    for p in problems:
        print("SMOKE FAIL " + p)
    print("smoke " + ("ok" if not problems else "failed"))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    try:
        bench = spec()
        if args.smoke:
            return smoke(bench)
        if args.workload is None:
            ap.error("--workload is required")
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        if args.workload != "all":
            record = run_workload(args.workload, args.seed, seconds, args.trace)
            out = report(args.workload, record, args.trace, bench)
            print(json.dumps({"correct": record["failed"] == 0 and record["counts_repeat"],
                              "attempted": record["attempted"], "failed": record["failed"],
                              "metrics": out}))
            return 0
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            record = run_workload(name, args.seed, seconds, args.trace)
            out = report(name, record, args.trace, bench)
            print(f"  {'error_rate':32s} {record['error_rate']:>16.6g} 1")
            summary["correct"] &= record["failed"] == 0 and record["counts_repeat"]
            summary["attempted"] += record["attempted"]
            summary["failed"] += record["failed"]
            summary["metrics"].update({f"{name}.{k}": v for k, v in out.items()})
        print(json.dumps(summary))
        return 0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
