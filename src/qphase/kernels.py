"""Hot numeric kernels: the 4-tap wavelet level stencil and the classical
map ensemble advance.

The D4 stencil is numpy only; it works along any axis, so 2D transforms
need no transposes. The map advance exists in a pure-numpy form and a numba
form; `use_numba()` selects between them (initial value from QPHASE_NUMBA
via _accel). The two map paths apply the same update in the same order.

Filter taps: h = ((1+r3), (3+r3), (3-r3), (1-r3)) / (4 sqrt 2) with r3=sqrt 3,
g_i = (-1)^i h_{3-i}. Coefficient k of a level pairs with samples
(2k, 2k+1, 2k+2, 2k+3) wrapped mod the block length.
"""

from __future__ import annotations

import math

import numpy as np

from . import _accel
from ._accel import njit

_R3 = math.sqrt(3.0)
_S2 = math.sqrt(2.0)
D4_H = np.array([(1.0 + _R3), (3.0 + _R3), (3.0 - _R3), (1.0 - _R3)]) / (4.0 * _S2)
D4_G = np.array([D4_H[3], -D4_H[2], D4_H[1], -D4_H[0]])

_use_numba = _accel.USE_NUMBA_DEFAULT


def use_numba(enabled: bool) -> bool:
    """Select the map kernel path; returns the value actually in effect."""
    global _use_numba
    _use_numba = bool(enabled) and _accel.HAS_NUMBA
    return _use_numba


def numba_active() -> bool:
    return _use_numba


def _along(ndim: int, axis: int, sl: slice) -> tuple:
    index = [slice(None)] * ndim
    index[axis] = sl
    return tuple(index)


_EVEN = slice(0, None, 2)
_ODD = slice(1, None, 2)


def d4_analyze(x: np.ndarray, axis: int = -1):
    """One analysis level along `axis`; returns (approx, detail).

    Polyphase form: with even samples e and odd samples o, coefficient k is
    h0 e[k] + h1 o[k] + h2 e[k+1] + h3 o[k+1], indices wrapped.
    """
    x = np.asarray(x, dtype=np.float64)
    e = x[_along(x.ndim, axis, _EVEN)]
    o = x[_along(x.ndim, axis, _ODD)]
    e1 = np.roll(e, -1, axis=axis)
    o1 = np.roll(o, -1, axis=axis)
    h0, h1, h2, h3 = D4_H
    g0, g1, g2, g3 = D4_G
    # taps summed in order 0..3: a regrouped sum rounds differently
    a = h0 * e + h1 * o + h2 * e1 + h3 * o1
    d = g0 * e + g1 * o + g2 * e1 + g3 * o1
    return a, d


def d4_synthesize(a: np.ndarray, d: np.ndarray, axis: int = -1) -> np.ndarray:
    """Exact inverse of d4_analyze along `axis`.

    Sample 2k is h0 a[k] + g0 d[k] + h2 a[k-1] + g2 d[k-1], sample 2k+1 the
    same with taps 1 and 3, indices wrapped.
    """
    a = np.asarray(a, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    a1 = np.roll(a, 1, axis=axis)
    d1 = np.roll(d, 1, axis=axis)
    h0, h1, h2, h3 = D4_H
    g0, g1, g2, g3 = D4_G
    shape = list(a.shape)
    shape[axis] *= 2
    x = np.empty(shape)
    # (current pair) + (previous pair): a regrouped sum rounds differently
    x[_along(x.ndim, axis, _EVEN)] = (h0 * a + g0 * d) + (h2 * a1 + g2 * d1)
    x[_along(x.ndim, axis, _ODD)] = (h1 * a + g1 * d) + (h3 * a1 + g3 * d1)
    return x


def _stdmap_advance_np(theta, p, K, t, wrap_p):
    two_pi = 2.0 * math.pi
    for _ in range(t):
        p = p + K * np.sin(theta)
        theta = (theta + p) % two_pi
        if wrap_p:
            p = (p + math.pi) % two_pi - math.pi
    return theta, p


@njit(cache=True)
def _stdmap_advance_nb(theta, p, K, t, wrap_p):  # pragma: no cover
    two_pi = 2.0 * math.pi
    n = theta.shape[0]
    th = theta.copy()
    pp = p.copy()
    for _ in range(t):
        for i in range(n):
            pi_new = pp[i] + K * math.sin(th[i])
            th[i] = (th[i] + pi_new) % two_pi
            if wrap_p:
                pi_new = (pi_new + math.pi) % two_pi - math.pi
            pp[i] = pi_new
    return th, pp


def stdmap_advance(theta, p, K: float, t: int, wrap_p: bool = True):
    """Advance (theta, p) ensembles t map steps; coordinates stay float64."""
    th = np.ascontiguousarray(theta, dtype=np.float64)
    pp = np.ascontiguousarray(p, dtype=np.float64)
    if _use_numba:
        return _stdmap_advance_nb(th, pp, float(K), int(t), wrap_p)
    return _stdmap_advance_np(th.copy(), pp.copy(), float(K), int(t), wrap_p)
