"""Hooks around the public functions of each qphase module, and the spans
and per-layer metrics they give.

The worker installs the hooks for the whole run. Every hook records what the
correctness checks need (norm drift, Wigner grids, wavelet inputs and outputs,
Husimi sums, scan rows, PSNR) and the computed work counts. With spans on, in
the traced passes only, each hooked call also records one span: name, start,
end and parent. Spans stay in memory until the worker writes them out.

A layer is named after its module. The `kernels` spans are counted inside the
busy time of the layer that called them and are also reported on their own.
Nothing under src/ is changed: hooks replace module attributes in the worker
process, and callers that look the name up on the module reach the hook.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import Counter, defaultdict

KERNEL_LAYER = "kernels"
BENCH_LAYER = "bench"

# (module, attribute, required). A missing optional attribute leaves its
# metric at 0 and is reported; a missing required one is an error, because
# the correctness checks depend on what its hook records.
HOOKED = (
    ("rotator", "evolve", True),
    ("wigner", "wigner_direct", True),
    ("wigner", "wigner_register_pipeline", True),
    ("wigner", "wigner_from_momentum", False),
    ("husimi", "modified_husimi", True),
    ("wavelet", "d4_forward_1d", True),
    ("wavelet", "d4_inverse_1d", True),
    ("wavelet", "d4_forward_2d", True),
    ("wavelet", "d4_inverse_2d", True),
    ("wavelet", "tiled_forward_2d", True),
    ("wavelet", "tiled_inverse_2d", True),
    ("wavelet", "inverse", True),
    ("kernels", "d4_analyze", False),
    ("kernels", "d4_synthesize", False),
    ("kernels", "stdmap_advance", True),
    ("analysis", "wigner_scan_row", True),
    ("analysis", "husimi_scan_row", True),
    ("analysis", "image_scan_row", True),
    ("analysis", "fit_scaling", False),
    ("stdmap", "initial_band", False),
    ("stdmap", "evolve_ensemble", False),
    ("stdmap", "histogram_density", False),
    ("measurement", "amplitude_amplify", True),
    ("measurement", "topk_reconstruct", True),
    ("measurement", "monte_carlo_reconstruct", True),
    ("imageio", "load_pgm", False),
    ("imageio", "save_pgm", True),
    ("imageio", "write_grid_csv", True),
    ("imageio", "render_heatmap", False),
    ("imageio", "encode_wavefunction", False),
    ("imageio", "synthetic_corpus", False),
    ("cli", "main", True),
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """What the hooks saw during one pass: spans, counts and check inputs."""

    def __init__(self):
        self.spans_on = False
        self._local = threading.local()
        self._adopt = None  # open pool span: parent of spans in pool threads
        self.reset()

    def reset(self) -> None:
        """Start a pass: no spans, zero counts, zero residues."""
        self.spans = []
        self.counts = Counter()
        self.residues = {"norm_drift": 0.0, "imag_residue": 0.0, "parseval": 0.0}
        self.reset_captures()

    def reset_captures(self) -> None:
        # list.append is atomic under the interpreter lock, so pool threads
        # can record here without a lock
        self.norm_drifts = []
        self.grids = []
        self.transforms = []
        self.husimi_sums = []
        self.rows = []
        self.psnrs = []

    # ---- spans
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, adopt: bool = False) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else self._adopt)
        self.spans.append(span)
        stack.append(span)
        if adopt:
            self._adopt = span
        return span

    def close(self, span: Span, adopt: bool = False) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if adopt:
            self._adopt = None

    # ---- nesting within one layer on this thread
    def enter(self, layer: str) -> int:
        depth = getattr(self._local, "depth", None)
        if depth is None:
            depth = self._local.depth = defaultdict(int)
        outer = depth[layer]
        depth[layer] = outer + 1
        return outer

    def leave(self, layer: str) -> None:
        self._local.depth[layer] -= 1


def _hook(rec: Recorder, fn, name: str, after=None, before=None):
    layer = name.split(".", 1)[0]

    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        token = before(args, kwargs) if before is not None else None
        outer = rec.enter(layer)
        span = rec.open(name) if rec.spans_on else None
        try:
            result = fn(*args, **kwargs)
        finally:
            if span is not None:
                rec.close(span)
            rec.leave(layer)
        if after is not None:
            after(rec, outer, args, kwargs, result, token)
        return result

    return hooked


# ---------------------------------------------------------------- recorders
# Each receives (rec, outer, args, kwargs, result, token); outer is how many
# calls of the same layer were already open on this thread.

def _after_evolve(np):
    def after(rec, outer, args, kwargs, psi, token):
        params = _arg(args, kwargs, 1, "params")
        t = _arg(args, kwargs, 2, "t")
        rec.counts["rotator.calls"] += 1
        rec.counts["rotator.amp_kicks"] += params.N * int(t)
        rec.norm_drifts.append(abs(float(np.linalg.norm(psi)) - 1.0))
    return after


def _count_grid(rec, grid):
    N = grid.N
    rec.counts["wigner.cells"] += 2 * N * N
    # compulsory traffic: the complex input state and the real (2N, N) block
    rec.counts["wigner.computed_bytes"] += 16 * N + 8 * 2 * N * N
    rec.grids.append(grid)


def _after_wigner_direct(rec, outer, args, kwargs, grid, token):
    _count_grid(rec, grid)


def _after_pipeline(rec, outer, args, kwargs, result, token):
    _count_grid(rec, result[0])


def _after_husimi(np):
    def after(rec, outer, args, kwargs, grid, token):
        h = grid.H.reshape(-1)
        rec.husimi_sums.append(float(np.vdot(h, h).real))
    return after


def _pyramid_samples(shape, levels: int) -> int:
    # every level reads the active block along each axis once
    total = 0
    if len(shape) == 1:
        for level in range(levels):
            total += shape[0] >> level
        return total
    for level in range(levels):
        side = shape[0] >> level
        total += 2 * side * side
    return total


def _count_samples(rec, shape, levels):
    samples = _pyramid_samples(shape, levels)
    rec.counts["wavelet.samples"] += samples
    # each sample touched is read and written once, as float64
    rec.counts["wavelet.computed_bytes"] += 16 * samples


def _after_forward(count: bool):
    def after(rec, outer, args, kwargs, coeffs, token):
        field = args[0] if args else kwargs.get("field", kwargs.get("signal"))
        if count:
            _count_samples(rec, coeffs.values.shape, coeffs.levels)
        if outer == 0:
            rec.transforms.append((field, coeffs.values))
    return after


def _after_inverse(count: bool):
    def after(rec, outer, args, kwargs, values, token):
        coeffs = _arg(args, kwargs, 0, "coeffs")
        if count:
            _count_samples(rec, coeffs.values.shape, coeffs.levels)
        if outer == 0:
            rec.transforms.append((coeffs.values, values))
    return after


def _after_stdmap_advance(rec, outer, args, kwargs, result, token):
    theta = _arg(args, kwargs, 0, "theta")
    t = _arg(args, kwargs, 3, "t")
    rec.counts["stdmap.point_steps"] += len(theta) * int(t)


def _after_row(rec, outer, args, kwargs, row, token):
    rec.rows.append(row)


def _after_amplify(rec, outer, args, kwargs, report, token):
    rec.counts["measurement.amplify_iterations"] += int(report.iterations)


def _after_reconstruct(rec, outer, args, kwargs, result, token):
    rec.psnrs.append(float(result[2]))


def _after_save_pgm(rec, outer, args, kwargs, result, token):
    rec.counts["imageio.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _csv_size(fh) -> int:
    fh.flush()
    return os.fstat(fh.fileno()).st_size


def _before_csv(args, kwargs):
    return _csv_size(_arg(args, kwargs, 1, "fh"))


def _after_csv(rec, outer, args, kwargs, result, before):
    rec.counts["imageio.bytes_written"] += _csv_size(_arg(args, kwargs, 1, "fh")) - before


def _pool_class(rec: Recorder, base):
    class TracedPool(base):
        """The CLI scan pool; spans in its threads become its children."""

        def __enter__(self):
            self._span = rec.open("cli.scan_pool", adopt=True) if rec.spans_on else None
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                if self._span is not None:
                    rec.close(self._span, adopt=True)

    return TracedPool


def install(rec: Recorder, modules: dict, np) -> tuple:
    """Replace module attributes with hooks; returns (restore, notes)."""
    special = {
        ("rotator", "evolve"): dict(after=_after_evolve(np)),
        ("wigner", "wigner_direct"): dict(after=_after_wigner_direct),
        ("wigner", "wigner_register_pipeline"): dict(after=_after_pipeline),
        ("husimi", "modified_husimi"): dict(after=_after_husimi(np)),
        ("wavelet", "d4_forward_1d"): dict(after=_after_forward(True)),
        ("wavelet", "d4_forward_2d"): dict(after=_after_forward(True)),
        ("wavelet", "tiled_forward_2d"): dict(after=_after_forward(False)),
        ("wavelet", "d4_inverse_1d"): dict(after=_after_inverse(True)),
        ("wavelet", "d4_inverse_2d"): dict(after=_after_inverse(True)),
        ("wavelet", "tiled_inverse_2d"): dict(after=_after_inverse(False)),
        ("wavelet", "inverse"): dict(after=_after_inverse(False)),
        ("kernels", "stdmap_advance"): dict(after=_after_stdmap_advance),
        ("analysis", "wigner_scan_row"): dict(after=_after_row),
        ("analysis", "husimi_scan_row"): dict(after=_after_row),
        ("analysis", "image_scan_row"): dict(after=_after_row),
        ("measurement", "amplitude_amplify"): dict(after=_after_amplify),
        ("measurement", "topk_reconstruct"): dict(after=_after_reconstruct),
        ("measurement", "monte_carlo_reconstruct"): dict(after=_after_reconstruct),
        ("imageio", "save_pgm"): dict(after=_after_save_pgm),
        ("imageio", "write_grid_csv"): dict(after=_after_csv, before=_before_csv),
    }
    saved = []
    notes = []
    for mod_name, attr, required in HOOKED:
        module = modules[mod_name]
        fn = getattr(module, attr, None)
        if fn is None:
            if required:
                raise RuntimeError(f"qphase.{mod_name}.{attr} is missing; the checks need its hook")
            notes.append(f"qphase.{mod_name}.{attr} not found; its metrics read 0")
            continue
        saved.append((module, attr, fn))
        setattr(module, attr, _hook(rec, fn, f"{mod_name}.{attr}",
                                    **special.get((mod_name, attr), {})))
    cli = modules["cli"]
    pool = getattr(cli, "ThreadPoolExecutor", None)
    if pool is None:
        notes.append("qphase.cli.ThreadPoolExecutor not found; cli.scan_pool_s reads 0")
    else:
        saved.append((cli, "ThreadPoolExecutor", pool))
        cli.ThreadPoolExecutor = _pool_class(rec, pool)

    def restore():
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)

    return restore, notes


# ------------------------------------------------------------- span metrics

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _children(spans) -> dict:
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[id(s.parent)].append(s)
    return kids


def _self_times(spans, fold_kernels: bool) -> dict:
    """Span -> duration minus the part its child spans cover.

    With fold_kernels, time in `kernels` children stays with the caller.
    """
    children = _children(spans)
    out = {}
    for s in spans:
        kids = children.get(id(s), ())
        if fold_kernels and s.layer != KERNEL_LAYER:
            kids = [k for k in kids if k.layer != KERNEL_LAYER]
        covered = _covered((max(k.start, s.start), min(k.end, s.end)) for k in kids)
        out[id(s)] = (s.end - s.start) - covered
    return out


def per_layer(spans, counts, residues) -> dict:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    busy = defaultdict(float)
    by_name = defaultdict(float)
    folded = _self_times(spans, fold_kernels=True)
    strict = _self_times(spans, fold_kernels=False)
    op_time = op_self = 0.0
    for s in spans:
        by_name[s.name] += s.end - s.start
        if s.layer == BENCH_LAYER:
            op_time += s.end - s.start
            op_self += strict[id(s)]
        elif s.layer != KERNEL_LAYER:
            busy[s.layer] += folded[id(s)]

    def rate(num, den):
        return num / den if den > 0 else 0.0

    writes = by_name["imageio.save_pgm"] + by_name["imageio.write_grid_csv"]
    m = {
        "rotator.busy_s": busy["rotator"],
        "rotator.calls": counts["rotator.calls"],
        "rotator.amp_kicks": counts["rotator.amp_kicks"],
        "rotator.amp_kicks_per_s": rate(counts["rotator.amp_kicks"], busy["rotator"]),
        "rotator.norm_drift_max": residues["norm_drift"],
        "wigner.busy_s": busy["wigner"],
        "wigner.cells": counts["wigner.cells"],
        "wigner.computed_bytes": counts["wigner.computed_bytes"],
        "wigner.imag_residue_max": residues["imag_residue"],
        "wavelet.busy_s": busy["wavelet"],
        "wavelet.samples": counts["wavelet.samples"],
        "wavelet.computed_bytes": counts["wavelet.computed_bytes"],
        "wavelet.parseval_residue_max": residues["parseval"],
        "kernels.d4_analyze_s": by_name["kernels.d4_analyze"],
        "kernels.d4_synthesize_s": by_name["kernels.d4_synthesize"],
        "analysis.self_s": busy["analysis"],
        "husimi.busy_s": busy["husimi"],
        "stdmap.busy_s": busy["stdmap"],
        "stdmap.point_steps": counts["stdmap.point_steps"],
        "stdmap.point_steps_per_s": rate(counts["stdmap.point_steps"],
                                         by_name["kernels.stdmap_advance"]),
        "kernels.stdmap_advance_s": by_name["kernels.stdmap_advance"],
        "measurement.busy_s": busy["measurement"],
        "measurement.amplify_iterations": counts["measurement.amplify_iterations"],
        "imageio.busy_s": busy["imageio"],
        "imageio.bytes_written": counts["imageio.bytes_written"],
        "imageio.write_bytes_per_s": rate(counts["imageio.bytes_written"], writes),
        "cli.self_s": busy["cli"],
        "cli.scan_pool_s": by_name["cli.scan_pool"],
        "trace.unattributed_share": rate(op_self, op_time),
    }
    return {k: float(v) for k, v in m.items()}


def layer_shares(spans, op_kind: str) -> dict:
    """Share of the op_kind operations' time spent in each layer (busy)."""
    ops = [s for s in spans if s.name == f"{BENCH_LAYER}.{op_kind}"]
    if not ops:
        return {}
    inside = set()
    children = _children(spans)
    todo = list(ops)
    while todo:
        s = todo.pop()
        inside.add(id(s))
        todo.extend(children.get(id(s), ()))
    folded = _self_times(spans, fold_kernels=True)
    busy = defaultdict(float)
    for s in spans:
        if id(s) in inside and s.layer not in (BENCH_LAYER, KERNEL_LAYER):
            busy[s.layer] += folded[id(s)]
    total = sum(s.end - s.start for s in ops)
    return {layer: t / total for layer, t in sorted(busy.items())}


def span_records(spans) -> list:
    """Spans as plain records: id, name, start, end, parent id, thread."""
    index = {id(s): i for i, s in enumerate(spans)}
    return [{"id": i, "name": s.name, "start": s.start, "end": s.end,
             "parent": index.get(id(s.parent)) if s.parent is not None else None,
             "thread": s.thread}
            for i, s in enumerate(spans)]
