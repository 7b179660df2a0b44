"""Hot numeric kernels: the 4-tap wavelet level stencil, the blocked sums
of squares and fourth powers, and the classical map ensemble advance.

All are numpy only. The D4 stencil works along any axis, so 2D transforms
need no transposes. The map advance is one loop of whole-array updates, and
the cell wrap it applies (`wrap_theta`, `wrap_momentum`) is defined here once.

Filter taps: h = ((1+r3), (3+r3), (3-r3), (1-r3)) / (4 sqrt 2) with r3=sqrt 3,
g_i = (-1)^i h_{3-i}. Coefficient k of a level pairs with samples
(2k, 2k+1, 2k+2, 2k+3) wrapped mod the block length.
"""

from __future__ import annotations

import math

import numpy as np

_R3 = math.sqrt(3.0)
_S2 = math.sqrt(2.0)
D4_H = np.array([(1.0 + _R3), (3.0 + _R3), (3.0 - _R3), (1.0 - _R3)]) / (4.0 * _S2)
D4_G = np.array([D4_H[3], -D4_H[2], D4_H[1], -D4_H[0]])


def numba_active() -> bool:
    """Always False: the map has one numpy loop. The benchmark
    (`perfbench/worker.py`) reads it to record the run's kernel path."""
    return False


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


# samples per block of square_sums
_BLOCK = 1 << 16


def square_sums(values) -> tuple:
    """(sum v^2, sum v^4) over every entry of values.

    The squares are taken in blocks of one reused buffer and squared again
    in place, so no field-sized temporary is made; the block sums are added
    in sequence.
    """
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    buf = np.empty(min(flat.size, _BLOCK))
    second = fourth = 0.0
    for start in range(0, flat.size, _BLOCK):
        chunk = flat[start:start + _BLOCK]
        s = buf[:chunk.size]
        np.multiply(chunk, chunk, out=s)
        second += float(np.sum(s))
        s *= s
        fourth += float(np.sum(s))
    return second, fourth


TWO_PI = 2.0 * math.pi


def wrap_theta(theta):
    """theta mod 2 pi, in [0, 2 pi) up to rounding: numpy's `%` returns 2 pi
    itself for negative inputs within round-off of a multiple of 2 pi."""
    return np.asarray(theta) % TWO_PI


def wrap_momentum(p):
    """p wrapped into the cell [-pi, pi), with the same rounding edge at pi."""
    return (np.asarray(p) + math.pi) % TWO_PI - math.pi


def stdmap_advance(theta, p, K: float, t: int, wrap_p: bool = True):
    """Advance (theta, p) ensembles t map steps; returns float64 copies.

    Each step is p += K sin(theta), theta = wrap_theta(theta + p), then
    p = wrap_momentum(p) when wrap_p is set.
    """
    theta = np.array(theta, dtype=np.float64)
    p = np.array(p, dtype=np.float64)
    K = float(K)
    for _ in range(int(t)):
        p = p + K * np.sin(theta)
        theta = wrap_theta(theta + p)
        if wrap_p:
            p = wrap_momentum(p)
    return theta, p
