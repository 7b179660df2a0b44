"""Quantum kicked-rotator evolution on a statevector.

One period applies a free-rotation phase diagonal in momentum followed by a
kick phase diagonal in angle:

    psi <- F^{-1} diag(e^{i k cos theta_j}) F P psi,    P = diag(e^{-i T n^2 / 2})

with F the forward unitary DFT (momentum -> angle), theta_j = 2 pi j / N and
n = 0..N-1. The period is fixed at the resonant value T = 2 pi / N (even N),
where the free phase e^{-i pi n^2 / N} is exactly N-periodic in n, so the
single momentum cell n in {0..N-1} is self-consistent. The kick sign lives
in `_phases` alone.

At this period the discrete quadratic Gauss sum sum_n e^{-i pi n^2 / N} =
sqrt(N) e^{-i pi / 4} turns the free rotation, seen in the angle basis, into
a chirp, a DFT and the same chirp:

    F P F^{-1} = e^{-i pi / 4} D F D,    D = diag(e^{i pi (j^2 mod 2N) / N})

with j^2 reduced in int64 before the exponential, so D (and D^2 below) is
exact to one rounding instead of carrying arguments up to pi N rad. The
state therefore stays in the angle basis between kicks: t kicks are one
forward transform and `*= D`, then per kick one forward transform and
`*= M` with M = e^{-i pi / 4} kick D^2, then `*= conj(D)` and one inverse
transform, t + 2 FFTs in all where the split-operator loop runs 2 t. The
inverse is taken as conj(F conj(x)), so every transform is the forward one.
Only the classical simulation takes this route: the quantum algorithm it
simulates (Georgeot and Shepelyansky, PRL 86, 2890, 2001), whose gate count
a readout cost is made of, still applies two QFTs per kick.

Each F is a four-step FFT (Bailey 1990) on the state held as an (N1, N2)
array, N1 = 2^ceil(n_q/2). In the natural layout index j = N2 a + b sits at
[a, b]; a length-N1 FFT down the columns, the twiddles e^{-2 pi i k1 n2 / N}
and a length-N2 FFT along the rows leave output k1 + N1 k2 at [k1, k2], the
permuted layout. The same steps in the other axis order, with the same
twiddle array, take the permuted layout back to the natural one. So
consecutive transforms alternate between the two layouts, M is stored in
both, and an odd t starts from a permuted copy of the state so that the
result lands in the natural layout. Every FFT is `numpy.fft.fft` with
`out=` its own input: it runs in place with scratch of one row or column,
so a kick allocates nothing. Whole-length FFT temporaries, once the
register passes glibc's mmap threshold, would cost a page fault per 4 kB
on every kick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QPhaseError
from .statevec import check_register


@dataclass(frozen=True)
class RotatorParams:
    """Evolution parameters; the period T is the one-cell value 2 pi / N."""

    n_q: int
    K: float

    def __post_init__(self):
        if self.n_q < 1:
            raise QPhaseError("invalid-parameter", f"qubit count must be >= 1, got {self.n_q}")
        if not math.isfinite(self.K) or self.K < 0:
            raise QPhaseError("invalid-parameter", f"K must be finite and >= 0, got {self.K}")
        check_register(self.n_q, "the rotator state")

    @property
    def N(self) -> int:
        return 1 << self.n_q

    @property
    def T(self) -> float:
        return 2.0 * np.pi / self.N

    @property
    def k(self) -> float:
        return self.K / self.T


def _shape(n_q: int) -> tuple:
    n1 = 1 << ((n_q + 1) // 2)
    return n1, (1 << n_q) // n1


@lru_cache(maxsize=8)
def _twiddles(n_q: int):
    n1, n2 = _shape(n_q)
    tw = np.exp(-2j * np.pi / (n1 * n2) * np.outer(np.arange(n1), np.arange(n2)))
    tw.setflags(write=False)
    return tw


@lru_cache(maxsize=8)
def _chirp(n_q: int):
    """D_j = e^{i pi (j^2 mod 2N) / N} over angle j, in natural order."""
    N = 1 << n_q
    j = np.arange(N, dtype=np.int64)
    chirp = np.exp(1j * np.pi / N * ((j * j) % (2 * N)))
    chirp.setflags(write=False)
    return chirp


@lru_cache(maxsize=64)
def _phases(params: RotatorParams):
    """M = e^{-i pi/4} kick D^2 over angle j, at [a, b] with j = N2 a + b
    (natural layout) and at [k1, k2] with j = k1 + N1 k2 (permuted)."""
    N = params.N
    n1, n2 = _shape(params.n_q)
    j = np.arange(N, dtype=np.int64)
    kick = np.exp(1j * params.k * np.cos(2.0 * np.pi * j / N))
    # D^2 = e^{2 pi i (j^2 mod N) / N}; a separate factor keeps the kick's
    # large argument out of the sum, so M is kick times an exact phase
    m = kick * np.exp(1j * (2.0 * np.pi / N * ((j * j) % N) - 0.25 * np.pi))
    natural = m.reshape(n1, n2)
    permuted = np.ascontiguousarray(m.reshape(n2, n1).T)
    natural.setflags(write=False)
    permuted.setflags(write=False)
    return natural, permuted


def initial_band_state(params: RotatorParams) -> np.ndarray:
    """Uniform amplitudes sqrt(8/N) on momentum indices 0..N/8-1."""
    if params.n_q < 3:
        raise QPhaseError("invalid-parameter",
                          f"band state needs n_q >= 3, got {params.n_q}")
    N = params.N
    psi = np.zeros(N, dtype=np.complex128)
    psi[: N // 8] = np.sqrt(8.0 / N)
    return psi


def _fft(a: np.ndarray, tw: np.ndarray, permuted: bool) -> None:
    """Unitary forward DFT in place: natural layout in, permuted out, or the reverse."""
    first = int(permuted)
    np.fft.fft(a, axis=first, norm="ortho", out=a)
    a *= tw
    np.fft.fft(a, axis=1 - first, norm="ortho", out=a)


def evolve(state, params: RotatorParams, t: int) -> np.ndarray:
    """A copy of state advanced by t kick periods (t = 0 returns a copy),
    each kick in place on one (N1, N2) buffer."""
    if t < 0:
        raise QPhaseError("invalid-parameter", f"iteration count must be >= 0, got {t}")
    src = np.asarray(state)
    if src.shape != (params.N,):
        raise QPhaseError("invalid-dimension",
                          f"state length {src.size} does not match N = {params.N}")
    if t == 0:
        return src.astype(np.complex128)
    n1, n2 = _shape(params.n_q)
    tw = _twiddles(params.n_q)
    chirp = _chirp(params.n_q)
    # indexed by the layout flag: natural [a, b] views, permuted [k1, k2]
    chirps = (chirp.reshape(n1, n2), chirp.reshape(n2, n1).T)
    kicks = _phases(params)
    # each of the t + 2 transforms flips the layout, and the result must end
    # natural, so an odd t starts from a permuted copy
    permuted = t % 2 == 1
    a = np.empty((n1, n2), dtype=np.complex128)
    a[...] = src.reshape(n2, n1).T if permuted else src.reshape(n1, n2)
    _fft(a, tw, permuted)
    permuted = not permuted
    a *= chirps[permuted]
    for _ in range(t):
        _fft(a, tw, permuted)
        permuted = not permuted
        a *= kicks[permuted]
    # F^{-1} conj(D) x = conj(F (D conj(x)))
    np.conjugate(a, out=a)
    a *= chirps[permuted]
    _fft(a, tw, permuted)
    np.conjugate(a, out=a)
    return a.reshape(-1)
