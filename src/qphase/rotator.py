"""Quantum kicked-rotator evolution on a statevector.

One period applies a free-rotation phase diagonal in momentum followed by a
kick phase diagonal in angle:

    psi <- F^{-1} diag(e^{i k cos theta_j}) F diag(e^{-i T n^2 / 2}) psi

with F the forward unitary DFT (momentum -> angle), theta_j = 2 pi j / N and
n = 0..N-1. The period is fixed at the resonant value T = 2 pi / N (even N),
where the free phase is exactly N-periodic in n, so the single momentum cell
n in {0..N-1} is self-consistent. The kick sign lives in `_phases` alone.

Each F is a four-step FFT (Bailey 1990) on the state held as an (N1, N2)
array, N1 = 2^ceil(n_q/2), momentum n = N2 n1 + n2 at [n1, n2]: a length-N1
FFT down the columns, the twiddles e^{-2 pi i k1 n2 / N}, then a length-N2
FFT along the rows. That leaves angle index k1 + N1 k2 at [k1, k2], so the
kick phase is stored in that permuted order, and the inverse steps in
reverse return to momentum order with no transpose. Every FFT runs in place
with cache-sized scratch, so a kick allocates nothing; whole-length FFT
temporaries, once the register passes glibc's mmap threshold, cost a page
fault per 4 kB on every kick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import fft as sfft

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
    tw_conj = tw.conj()
    tw.setflags(write=False)
    tw_conj.setflags(write=False)
    return tw, tw_conj


@lru_cache(maxsize=64)
def _phases(params: RotatorParams):
    """Free phase at [n1, n2] and kick phase at [k1, k2] (angle k1 + N1 k2)."""
    N = params.N
    n1, n2 = _shape(params.n_q)
    n = np.arange(N, dtype=np.float64)
    free = np.exp(-0.5j * params.T * n * n).reshape(n1, n2)
    kick = np.exp(1j * params.k * np.cos(2.0 * np.pi * n / N))
    kick = np.ascontiguousarray(kick.reshape(n2, n1).T)
    free.setflags(write=False)
    kick.setflags(write=False)
    return free, kick


def initial_band_state(params: RotatorParams) -> np.ndarray:
    """Uniform amplitudes sqrt(8/N) on momentum indices 0..N/8-1."""
    if params.n_q < 3:
        raise QPhaseError("invalid-parameter",
                          f"band state needs n_q >= 3, got {params.n_q}")
    N = params.N
    psi = np.zeros(N, dtype=np.complex128)
    psi[: N // 8] = np.sqrt(8.0 / N)
    return psi


def _evolved(state, params: RotatorParams, t: int) -> np.ndarray:
    """A copy of state advanced by t kicks, each in place on one (N1, N2) buffer."""
    psi = np.array(state, dtype=np.complex128)
    if psi.shape != (params.N,):
        raise QPhaseError("invalid-dimension",
                          f"state length {psi.size} does not match N = {params.N}")
    free, kick = _phases(params)
    tw, tw_conj = _twiddles(params.n_q)
    a = psi.reshape(free.shape)
    for _ in range(t):
        a *= free
        a = sfft.fft(a, axis=0, norm="ortho", overwrite_x=True)
        a *= tw
        a = sfft.fft(a, axis=1, norm="ortho", overwrite_x=True)
        a *= kick
        a = sfft.ifft(a, axis=1, norm="ortho", overwrite_x=True)
        a *= tw_conj
        a = sfft.ifft(a, axis=0, norm="ortho", overwrite_x=True)
    return a.reshape(-1)


def step(state, params: RotatorParams) -> np.ndarray:
    """One kick period."""
    return _evolved(state, params, 1)


def evolve(state, params: RotatorParams, t: int) -> np.ndarray:
    """t kick periods (t = 0 returns a copy)."""
    if t < 0:
        raise QPhaseError("invalid-parameter", f"iteration count must be >= 0, got {t}")
    return _evolved(state, params, t)
