"""Hot numeric kernels: the 4-tap wavelet level stencil, the one blocked
sum rule (np.sum per piece of BLOCK values, the piece sums added left to
right) and the sums of squares and fourth powers by it, the classical map
ensemble advance, the one NaN/inf check, and the one call that runs a loop
over independent pieces on two cores.

All are numpy only. The D4 stencil works along any axis, so 2D transforms
need no transposes. The map advance is one loop of array updates on each
cache-sized piece of the ensemble, and the cell wrap it applies
(`wrap_theta`, `wrap_momentum`) is defined here once. `finite` reads an
array's minimum and maximum, which NaN and inf reach, so it makes no
array-sized temporary.

`split(work, n, size)` cuts range(n) into slices of at most `size` and runs
work on them. With more than one slice, two usable CPUs (`usable_cores`)
and a free helper, the caller runs the first half of twice as many, half as
long slices and the helper, a one-thread executor made on first use, the
second half, so loops whose numpy calls release the interpreter lock use a
second core; otherwise work runs once, inline. Callers compute each output
element from one slice alone, so every result is bit for bit the same on
either path. Starting the helper changes nothing else in the process: a
library process keeps glibc's malloc defaults, and `cli.main` has the
`qphase` command's main thread and the helper share one arena (see there).
The helper is the only thread the package starts: `qphase scan` runs its
rows one at a time.

Filter taps: h = ((1+r3), (3+r3), (3-r3), (1-r3)) / (4 sqrt 2) with r3=sqrt 3,
g_i = (-1)^i h_{3-i}. Coefficient k of a level pairs with samples
(2k, 2k+1, 2k+2, 2k+3) wrapped mod the block length.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

_R3 = math.sqrt(3.0)
_S2 = math.sqrt(2.0)
D4_H = np.array([(1.0 + _R3), (3.0 + _R3), (3.0 - _R3), (1.0 - _R3)]) / (4.0 * _S2)
D4_G = np.array([D4_H[3], -D4_H[2], D4_H[1], -D4_H[0]])


def numba_active() -> bool:
    """Always False: the map has one numpy loop. The benchmark
    (`perfbench/worker.py`) reads it to record the run's kernel path."""
    return False


def usable_cores() -> int:
    """The number of CPUs this process may run on: its affinity mask, so a
    `taskset` limit counts, or os.cpu_count() where there is no mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# the helper, made on first use; `_busy` is held by the one caller whose
# second half it runs
_helper = None
_busy = threading.Lock()


def _forget_helper() -> None:
    # a forked child's copy of the helper believes its dead thread is idle
    # and would never run a job: the child makes its own on first use
    global _helper, _busy
    _helper = None
    _busy = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _slices(n: int, count: int) -> list:
    # count about equal contiguous slices of range(n), in order
    return [slice(n * i // count, n * (i + 1) // count) for i in range(count)]


def split(work, n: int, size: int) -> None:
    """Run work(slices) over about equal contiguous slices of range(n), each
    at most `size` long; work writes its results in place.

    When that gives more than one slice, the process may use two CPUs and
    the helper thread is free, the slices are twice as many and half as
    long: the caller runs work on the first half of them and the helper on
    the second, at the same time, each with buffers sized to its slices, so
    the two together hold the scratch of one inline run. Otherwise work runs
    once, inline, on the undoubled slices, so a caller never waits for the
    helper: while one thread of a library caller holds it, another runs its
    loops inline. An exception from either half is raised once both have
    stopped.
    """
    global _helper
    count = -(-n // size)
    busy = _busy
    if count < 2 or usable_cores() < 2 or not busy.acquire(blocking=False):
        work(_slices(n, count))
        return
    try:
        if _helper is None:
            # imported here: a process that never splits keeps its import-time memory
            from concurrent.futures import ThreadPoolExecutor
            _helper = ThreadPoolExecutor(1, thread_name_prefix="qphase-split")
        pieces = _slices(n, 2 * count)
        second = _helper.submit(work, pieces[count:])
        try:
            work(pieces[:count])
        finally:
            second.exception()  # waits for the helper's half
        second.result()
    finally:
        busy.release()


def _along(ndim: int, axis: int, sl: slice) -> tuple:
    index = [slice(None)] * ndim
    index[axis] = sl
    return tuple(index)


_EVEN = slice(0, None, 2)
_ODD = slice(1, None, 2)


def _d4_level(p, q, axis, taps, step, out):
    """y[k] = t0 p[k] + t1 q[k] + t2 p[k+step] + t3 q[k+step], indices
    wrapped, summed left to right, for each tap row (t0, t1, t2, t3) and
    output y. A shifted term is one product moved by one sample plus its one
    wrapped edge element; one scratch buffer of p's shape holds every
    product, so callers that want it in cache pass cache-sized pieces."""
    head = _along(p.ndim, axis, slice(None, -1))
    tail = _along(p.ndim, axis, slice(1, None))
    last = _along(p.ndim, axis, slice(-1, None))
    first = _along(p.ndim, axis, slice(0, 1))
    # (destination, source) index pairs of y[k] += scratch[k + step]
    shift = ((head, tail), (last, first)) if step > 0 else ((tail, head), (first, last))
    scratch = np.empty(p.shape)
    for (t0, t1, t2, t3), y in zip(taps, out):
        np.multiply(p, t0, out=y)
        np.multiply(q, t1, out=scratch)
        y += scratch
        for tap, samples in ((t2, p), (t3, q)):
            np.multiply(samples, tap, out=scratch)
            for dst, src in shift:
                y[dst] += scratch[src]


def d4_analyze(x: np.ndarray, out, axis: int = -1):
    """One analysis level along `axis`, written into out = (approx, detail).

    Polyphase form: with even samples e and odd samples o, coefficient k is
    h0 e[k] + h1 o[k] + h2 e[k+1] + h3 o[k+1], indices wrapped. The outputs
    have the half-length shape and must not overlap x. The sum is taken left
    to right, so the bits equal those of the plain expression (a regrouped
    sum rounds differently).
    """
    x = np.asarray(x, dtype=np.float64)
    axis %= x.ndim
    _d4_level(x[_along(x.ndim, axis, _EVEN)], x[_along(x.ndim, axis, _ODD)],
              axis, (D4_H, D4_G), 1, out)
    return out


def d4_synthesize(a: np.ndarray, d: np.ndarray, out: np.ndarray, axis: int = -1) -> np.ndarray:
    """Exact inverse of d4_analyze along `axis`, written into out.

    Sample 2k is h0 a[k] + g0 d[k] + h2 a[k-1] + g2 d[k-1], sample 2k+1 the
    same with taps 1 and 3, indices wrapped and summed left to right. out
    has twice the length of a along axis and must not overlap a or d.
    """
    axis %= a.ndim
    h0, h1, h2, h3 = D4_H
    g0, g1, g2, g3 = D4_G
    _d4_level(a, d, axis, ((h0, g0, h2, g2), (h1, g1, h3, g3)), -1,
              (out[_along(out.ndim, axis, _EVEN)], out[_along(out.ndim, axis, _ODD)]))
    return out


# samples per block of the blocked loops (square_sums, analysis.entropy) and
# most points per piece of the map ensemble
BLOCK = 1 << 16


def blocks(n: int) -> list:
    """The pieces of the package's one blocked sum of n values: consecutive
    slices of range(n), each BLOCK values long but the last.

    np.sum is taken per piece and the piece sums are added left to right
    (`add_in_order`), so a sum's bits are set by its values, not by how
    numpy would split a whole array, and no value-sized temporary is needed.
    """
    return [slice(start, min(start + BLOCK, n)) for start in range(0, n, BLOCK)]


def add_in_order(sums) -> float:
    """The piece sums of `blocks`, added left to right. An explicit loop:
    builtin sum() of floats compensates its rounding from Python 3.12 on."""
    total = 0.0
    for piece in sums:
        total += float(piece)
    return total


def square_sums(values) -> tuple:
    """(sum v^2, sum v^4) over every entry of values, by the blocked sum
    rule of `blocks`.

    The squares of each piece are taken in one reused buffer and squared
    again in place, so no field-sized temporary is made. It runs on one
    thread: through `split` it took as long on two threads as on one (36-37
    ms at 4096^2 on a 2-vCPU machine), and the second block buffer would
    double what `WignerGrid.total_sq` allocates.
    """
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    buf = np.empty(min(flat.size, BLOCK))
    second, fourth = [], []
    for piece in blocks(flat.size):
        chunk = flat[piece]
        s = buf[:chunk.size]
        np.multiply(chunk, chunk, out=s)
        second.append(np.sum(s))
        s *= s
        fourth.append(np.sum(s))
    return add_in_order(second), add_in_order(fourth)


def finite(x) -> bool:
    """True when x holds no NaN, +inf or -inf; an empty array is finite.

    NaN propagates through both min and max and each infinity is one of
    them, so two reductions decide it with no temporary. Read a complex
    array through its float64 view.
    """
    x = np.asarray(x)
    return x.size == 0 or bool(-math.inf < x.min() and x.max() < math.inf)


TWO_PI = 2.0 * math.pi
_FOUR_PI = 2.0 * TWO_PI


def _wrap_scratch(x):
    """(below, above, shift): the buffers `_wrap` needs for arrays shaped like x."""
    return np.empty(x.shape, dtype=bool), np.empty(x.shape, dtype=bool), np.empty(x.shape)


def _wrap(x, below, above, shift):
    """x %= 2 pi in place on a float64 array, bit for bit as numpy's `%`.

    For x in [-2 pi, 4 pi) the result is x + 2 pi [x < 0] - 2 pi [x >= 2 pi]:
    the subtraction is exact (Sterbenz), the addition is the same rounded
    `mod += 2 pi` numpy applies, and the added 0.0 turns -0.0 into +0.0 as
    `%` does. Any other input, NaN and inf included, goes to np.remainder.
    """
    if x.size and x.min() >= -TWO_PI and x.max() < _FOUR_PI:
        np.less(x, 0.0, out=below)
        np.greater_equal(x, TWO_PI, out=above)
        np.subtract(below, above, out=shift, dtype=np.float64)
        shift *= TWO_PI
        x += shift
    else:
        np.remainder(x, TWO_PI, out=x)


def wrap_theta(theta):
    """theta mod 2 pi as float64, bit for bit `theta % (2 pi)`.

    The result lies in [0, 2 pi] rather than [0, 2 pi): like `%`, it is
    2 pi itself for negative inputs within round-off of a multiple of 2 pi
    (-1e-17 gives 2 pi).
    """
    x = np.array(theta, dtype=np.float64)
    _wrap(x, *_wrap_scratch(x))
    return x[()]  # a scalar for scalar input, as `%` gives


def wrap_momentum(p):
    """p wrapped into the cell, bit for bit `(p + pi) % (2 pi) - pi`.

    The result lies in [-pi, pi], with the same round-off edge at +pi: the
    double just below -pi gives +pi.
    """
    x = np.array(p, dtype=np.float64)
    x += math.pi
    _wrap(x, *_wrap_scratch(x))
    x -= math.pi
    return x[()]


def stdmap_advance(theta, p, K: float, t: int):
    """Advance (theta, p) ensembles of one shape t map steps; returns float64
    copies.

    Each step is p += K sin(theta), theta = wrap_theta(theta + p), then
    p = wrap_momentum(p). The copies are updated in place with the same
    operations in the same order, so the bits equal those of the plain
    expressions, and a step allocates nothing. Points never interact, so the
    ensemble is cut into about equal pieces of at most BLOCK points by
    `split`, and each piece runs all t steps while it is in cache; the two
    halves of the pieces run at once without meeting between steps.
    """
    theta = np.array(theta, dtype=np.float64)
    p = np.array(p, dtype=np.float64)
    K = float(K)
    flat_theta, flat_p = theta.reshape(-1), p.reshape(-1)

    def advance(parts):
        for part in parts:
            th, mom = flat_theta[part], flat_p[part]
            # the sine buffer doubles as the wrap's shift buffer
            below, above, s = _wrap_scratch(th)
            for _ in range(int(t)):
                np.sin(th, out=s)
                s *= K
                mom += s
                th += mom
                _wrap(th, below, above, s)
                mom += math.pi
                _wrap(mom, below, above, s)
                mom -= math.pi

    split(advance, flat_theta.size, BLOCK)
    return theta, p
