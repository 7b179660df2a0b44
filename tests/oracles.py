"""Slow reference implementations used to pin the fast code paths.

Everything here is written for clarity, not speed: dense matrices, literal
double and triple loops over definitions. Tests compare the package against
these on small sizes. `traced_peak` measures what a call allocates, and
`on_both_paths` runs a call with `kernels.split` on two threads and inline.
"""

import threading
import tracemalloc

import numpy as np


def traced_peak(fn) -> int:
    # peak bytes allocated during fn(); numpy reports its array buffers to
    # tracemalloc, so this counts every temporary a call makes
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def on_both_paths(monkeypatch, fn) -> tuple:
    """(fn() with kernels.split on two threads, fn() inline, the number of
    threads that ran split work in the first call).

    The two paths come from patching the core count that split reads: 2
    runs the helper thread even on one CPU, so the threaded path is also
    tested under `taskset -c 0`; 1 runs inline.
    """
    from qphase import kernels
    split = kernels.split
    threads = set()

    def recording(work, n, size):
        def traced(parts):
            threads.add(threading.get_ident())
            work(parts)
        split(traced, n, size)

    monkeypatch.setattr(kernels, "split", recording)
    monkeypatch.setattr(kernels, "usable_cores", lambda: 2)
    threaded = fn()
    ran_on = len(threads)
    monkeypatch.setattr(kernels, "usable_cores", lambda: 1)
    inline = fn()
    monkeypatch.setattr(kernels, "split", split)
    return threaded, inline, ran_on


def blocked_sum(x) -> float:
    """The package's sum rule, stated plainly: np.sum of each run of 2^16
    values, the run sums added left to right in a loop."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    total = 0.0
    for start in range(0, x.size, 1 << 16):
        total += float(np.sum(x[start:start + (1 << 16)]))
    return total


def random_state(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


def dft_matrix(n: int, inverse: bool = False) -> np.ndarray:
    sign = 1.0 if inverse else -1.0
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(sign * 2j * np.pi * j * k / n) / np.sqrt(n)


def dft_sum(psi: np.ndarray, inverse: bool = False) -> np.ndarray:
    # literal O(N^2) summation, no matrix shortcuts
    n = len(psi)
    sign = 1.0 if inverse else -1.0
    out = np.zeros(n, dtype=complex)
    for j in range(n):
        acc = 0.0 + 0.0j
        for k in range(n):
            acc += psi[k] * np.exp(sign * 2j * np.pi * j * k / n)
        out[j] = acc / np.sqrt(n)
    return out


def brute_wigner(psi_angle: np.ndarray) -> np.ndarray:
    # W(Theta, n) = (1/2N) sum_{m + m' = Theta} conj(psi_m) psi_m'
    #               * exp(i pi n (m - m') / N)
    # with m, m' both ranging over 0..N-1, so Theta spans 0..2N-2 without
    # any modular wrap, and n runs over the doubled column grid 0..2N-1.
    n_dim = len(psi_angle)
    full = np.zeros((2 * n_dim, 2 * n_dim))
    for theta in range(2 * n_dim):
        for m in range(n_dim):
            mp = theta - m
            if not 0 <= mp < n_dim:
                continue
            for col in range(2 * n_dim):
                term = (np.conj(psi_angle[m]) * psi_angle[mp]
                        * np.exp(1j * np.pi * col * (m - mp) / n_dim))
                full[theta, col] += term.real / (2 * n_dim)
    return full


def dense_step_matrix(n_dim: int, K: float) -> np.ndarray:
    # one kicked-rotator step at the period T = 2 pi / N as an explicit N x N
    # matrix acting on the momentum representation:
    # inverse-DFT . diag(kick) . DFT . diag(free). The free phase
    # e^{-i T n^2 / 2} = e^{-i pi n^2 / N} takes n^2 mod 2N in int64, so its
    # argument stays below 2 pi and the phase is exact to one rounding.
    k = K * n_dim / (2.0 * np.pi)
    n = np.arange(n_dim, dtype=np.int64)
    theta = 2.0 * np.pi * n / n_dim
    free = np.exp(-1j * np.pi / n_dim * ((n * n) % (2 * n_dim)))
    kick = np.exp(1j * k * np.cos(theta))
    fwd = dft_matrix(n_dim)
    inv = dft_matrix(n_dim, inverse=True)
    return inv @ np.diag(kick) @ fwd @ np.diag(free)


def d4_analysis_matrix(length: int) -> np.ndarray:
    # one wrapped analysis sweep as a length x length orthogonal matrix:
    # row k < L/2 holds the scaling taps at samples (2k..2k+3) mod L,
    # row L/2 + k the wavelet taps. += accumulates the tap collision
    # that appears at length 2.
    rt3 = np.sqrt(3.0)
    h = np.array([1.0 + rt3, 3.0 + rt3, 3.0 - rt3, 1.0 - rt3]) / (4.0 * np.sqrt(2.0))
    g = np.array([h[3], -h[2], h[1], -h[0]])
    half = length // 2
    mat = np.zeros((length, length))
    for k in range(half):
        for i in range(4):
            col = (2 * k + i) % length
            mat[k, col] += h[i]
            mat[half + k, col] += g[i]
    return mat


def d4_level_reference(x: np.ndarray, axis: int):
    # one D4 analysis level along axis as the plain polyphase expression,
    # wrapped neighbours taken with np.roll and the taps summed in order
    rt3 = np.sqrt(3.0)
    h = np.array([1.0 + rt3, 3.0 + rt3, 3.0 - rt3, 1.0 - rt3]) / (4.0 * np.sqrt(2.0))
    g = np.array([h[3], -h[2], h[1], -h[0]])
    e = np.take(x, np.arange(0, x.shape[axis], 2), axis=axis)
    o = np.take(x, np.arange(1, x.shape[axis], 2), axis=axis)
    e1 = np.roll(e, -1, axis=axis)
    o1 = np.roll(o, -1, axis=axis)
    a = h[0] * e + h[1] * o + h[2] * e1 + h[3] * o1
    d = g[0] * e + g[1] * o + g[2] * e1 + g[3] * o1
    return a, d


def d4_synthesis_level_reference(a: np.ndarray, d: np.ndarray, axis: int) -> np.ndarray:
    # one D4 synthesis level along axis as the plain expression: sample 2k is
    # h0 a[k] + g0 d[k] + h2 a[k-1] + g2 d[k-1], sample 2k+1 the same with
    # taps 1 and 3, wrapped neighbours taken with np.roll, summed in order
    rt3 = np.sqrt(3.0)
    h = np.array([1.0 + rt3, 3.0 + rt3, 3.0 - rt3, 1.0 - rt3]) / (4.0 * np.sqrt(2.0))
    g = np.array([h[3], -h[2], h[1], -h[0]])
    a1 = np.roll(a, 1, axis=axis)
    d1 = np.roll(d, 1, axis=axis)
    shape = list(a.shape)
    shape[axis] *= 2
    out = np.empty(shape)
    index = [slice(None)] * a.ndim
    index[axis] = slice(0, None, 2)
    out[tuple(index)] = h[0] * a + g[0] * d + h[2] * a1 + g[2] * d1
    index[axis] = slice(1, None, 2)
    out[tuple(index)] = h[1] * a + g[1] * d + h[3] * a1 + g[3] * d1
    return out


def brute_modified_husimi(psi_momentum: np.ndarray) -> np.ndarray:
    # H(l, j) = N^{-1/4} sum_{r=0}^{sqrt(N)-1} exp(i theta0 n) psi(n),
    # n = j sqrt(N) + r, theta0 = 2 pi l / sqrt(N)
    n_dim = len(psi_momentum)
    b = int(round(np.sqrt(n_dim)))
    assert b * b == n_dim
    out = np.zeros((b, b), dtype=complex)
    for l in range(b):
        theta0 = 2.0 * np.pi * l / b
        for j in range(b):
            acc = 0.0 + 0.0j
            for r in range(b):
                n = j * b + r
                acc += np.exp(1j * theta0 * n) * psi_momentum[n]
            out[l, j] = acc / n_dim ** 0.25
    return out


def brute_coherent(n_dim: int, theta0: float, n0: float, a: float) -> np.ndarray:
    # periodic Gaussian wave packet in the momentum representation,
    # image sum over +-4 winding copies, then normalized
    psi = np.zeros(n_dim, dtype=complex)
    for n in range(n_dim):
        env = 0.0
        for image in range(-4, 5):
            d = n - n0 + image * n_dim
            env += np.exp(-d * d / (4.0 * a * a))
        psi[n] = env * np.exp(-1j * theta0 * n)
    return psi / np.linalg.norm(psi)


def periodic_gaussian_smooth(full: np.ndarray, sigma: float) -> np.ndarray:
    # separable circular convolution with a periodic Gaussian, done by
    # shift-and-accumulate so no transform code is shared with the package
    size = full.shape[0]
    reach = min(size // 2, int(np.ceil(6.0 * sigma)))
    shifts = np.arange(-reach, reach + 1)
    weights = np.exp(-shifts.astype(float) ** 2 / (2.0 * sigma * sigma))
    weights /= weights.sum()
    rows = np.zeros_like(full)
    for s, w in zip(shifts, weights):
        rows += w * np.roll(full, s, axis=0)
    out = np.zeros_like(full)
    for s, w in zip(shifts, weights):
        out += w * np.roll(rows, s, axis=1)
    return out


def grid_csv_reference(grid) -> str:
    # the grid dump one f-string per value, as written before the row template
    v = np.asarray(grid, dtype=np.float64)
    return "row,col,value\n" + "".join(
        f"{r},{c},{x:.17g}\n" for r in range(v.shape[0]) for c, x in enumerate(v[r].tolist()))


def stdmap_reference(theta, p, K: float, t: int):
    # the documented map step with numpy's `%` as the wrap, one new array per
    # operation: p += K sin(theta), theta = (theta + p) mod 2 pi, then p
    # wrapped into [-pi, pi)
    theta = np.array(theta, dtype=np.float64)
    p = np.array(p, dtype=np.float64)
    for _ in range(t):
        p = p + K * np.sin(theta)
        theta = (theta + p) % (2 * np.pi)
        p = (p + np.pi) % (2 * np.pi) - np.pi
    return theta, p
