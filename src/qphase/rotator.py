"""Quantum kicked-rotator evolution on a statevector.

One period applies a free-rotation phase diagonal in momentum followed by a
kick phase diagonal in angle:

    psi <- F^{-1} diag(e^{i k cos theta_j}) F diag(e^{-i T n^2 / 2}) psi

with F the forward unitary DFT (momentum -> angle), theta_j = 2 pi j / N and
n = 0..N-1. The period is fixed at the resonant value T = 2 pi / N (even N),
where the free phase is exactly N-periodic in n, so the single momentum cell
n in {0..N-1} is self-consistent. The kick sign lives in `_phases` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QPhaseError
from .statevec import qft


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

    @property
    def N(self) -> int:
        return 1 << self.n_q

    @property
    def T(self) -> float:
        return 2.0 * np.pi / self.N

    @property
    def k(self) -> float:
        return self.K / self.T


@lru_cache(maxsize=64)
def _phases(params: RotatorParams):
    N = params.N
    n = np.arange(N, dtype=np.float64)
    free = np.exp(-0.5j * params.T * n * n)
    kick = np.exp(1j * params.k * np.cos(2.0 * np.pi * n / N))
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


def step(state, params: RotatorParams) -> np.ndarray:
    """One kick period."""
    psi = np.asarray(state, dtype=np.complex128)
    if psi.shape != (params.N,):
        raise QPhaseError("invalid-dimension",
                          f"state length {psi.size} does not match N = {params.N}")
    free, kick = _phases(params)
    return qft(kick * qft(free * psi, "forward"), "inverse")


def evolve(state, params: RotatorParams, t: int) -> np.ndarray:
    """t kick periods (t = 0 returns a copy)."""
    if t < 0:
        raise QPhaseError("invalid-parameter", f"iteration count must be >= 0, got {t}")
    psi = np.asarray(state, dtype=np.complex128).copy()
    for _ in range(t):
        psi = step(psi, params)
    return psi
