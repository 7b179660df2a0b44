"""Husimi-type phase-space distributions.

The partial-transform (modified) distribution splits the momentum register
into sqrt(N) blocks of sqrt(N) consecutive indices n = j sqrt(N) + r and
applies one inverse unitary DFT over r inside each block:

    H(l, j) = N^{-1/4} sum_{r} e^{+ i theta0 (j sqrt N + r)} psi(j sqrt N + r),
    theta0 = 2 pi l / sqrt N

(the block-offset phase e^{i theta0 j sqrt N} is an integer multiple of 2 pi
and drops). |H|^2 is a genuine probability distribution on the sqrt(N) x
sqrt(N) grid. The Gaussian variant overlaps the state with wrapped coherent
states phi(n) = A e^{-(n - n0)^2 / 4 a^2 - i theta0 n}; the default width
a = sqrt(N / 4 pi) balances angle and momentum resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QPhaseError
from .measurement import grover_iterations
from .statevec import as_state, partial_qft_blocks

DIAGONAL_QUBIT_LIMIT = 10
_WRAP_IMAGES = 4


@dataclass
class HusimiGrid:
    """Complex H(l, j): rows l index the angle within a block, columns j the
    momentum block. Squared moduli sum to 1 (the transform is unitary)."""

    H: np.ndarray
    N: int

    @property
    def probabilities(self) -> np.ndarray:
        return np.abs(self.H) ** 2


@dataclass
class CoherentStateParams:
    """Width a and optional explicit (theta0, n0) centers.

    centers None evaluates the full integer grid: theta0 = 2 pi l / N for all
    l and n0 = 0..N-1.
    """

    a: float
    centers: list | None = None

    def __post_init__(self):
        if self.a <= 0:
            raise QPhaseError("invalid-parameter", f"Gaussian width must be > 0, got {self.a}")


@dataclass
class DiagonalCost:
    """Nominal cost metadata for the diagonal-selection construction.

    diagonal_weight is the projection probability sum |H|^4; its inverse
    square root sets the amplification iteration count; state preparation
    itself scales as cost_scale_per_step (= sqrt N) per map iteration.
    """

    diagonal_weight: float
    amplify_iterations: int
    cost_scale_per_step: float


def _even_qubits(psi: np.ndarray) -> int:
    n_q = psi.size.bit_length() - 1
    if n_q % 2 != 0:
        raise QPhaseError("invalid-parameter", f"need an even qubit count, got n_q = {n_q}")
    return n_q


def modified_husimi(state) -> HusimiGrid:
    """Partial inverse DFT over the low half of the index bits."""
    psi = as_state(state)
    n_q = _even_qubits(psi)
    b = 1 << (n_q // 2)
    H = partial_qft_blocks(psi, b, "inverse").reshape(b, b).T
    return HusimiGrid(H=np.ascontiguousarray(H), N=psi.size)


def default_width(N: int) -> float:
    return math.sqrt(N / (4.0 * math.pi))


def _wrapped_envelope(N: int, n0: float, a: float) -> np.ndarray:
    # e^{-(n - n0)^2 / 4 a^2} summed over the nearest images of the ring
    n = np.arange(N, dtype=np.float64)
    envelope = np.zeros(N)
    for image in range(-_WRAP_IMAGES, _WRAP_IMAGES + 1):
        d = n - n0 + image * N
        envelope += np.exp(-d * d / (4.0 * a * a))
    return envelope


def coherent_state(N: int, theta0: float, n0: float, a: float | None = None) -> np.ndarray:
    """Normalized wrapped Gaussian on the momentum ring."""
    if a is None:
        a = default_width(N)
    if a <= 0:
        raise QPhaseError("invalid-parameter", f"Gaussian width must be > 0, got {a}")
    n = np.arange(N, dtype=np.float64)
    phi = _wrapped_envelope(N, n0, a) * np.exp(-1j * theta0 * n)
    return phi / np.linalg.norm(phi)


def gaussian_husimi(state, params: CoherentStateParams | None = None) -> np.ndarray:
    """|<phi_(theta0, n0)|psi>|^2 over the requested centers.

    With the default full integer grid the result is an N x N array indexed
    [l, n0]; with explicit centers, a 1D array in their order.
    """
    psi = as_state(state)
    N = psi.size
    if params is None:
        params = CoherentStateParams(a=default_width(N))
    if params.centers is not None:
        values = np.empty(len(params.centers))
        for idx, (theta0, n0) in enumerate(params.centers):
            phi = coherent_state(N, theta0, n0, params.a)
            values[idx] = abs(np.vdot(phi, psi)) ** 2
        return values

    envelope = _wrapped_envelope(N, 0.0, params.a)
    amp = 1.0 / np.linalg.norm(envelope)
    # row n0: envelope rolled to its center, times psi
    rows = np.empty((N, N), dtype=np.complex128)
    for n0 in range(N):
        rows[n0] = np.roll(envelope, n0) * psi
    # <phi|psi> picks up e^{+ i theta0 n}: an inverse DFT over n per row
    overlaps = np.fft.ifft(rows, axis=1) * N * amp
    return (np.abs(overlaps) ** 2).T


def husimi_modulus_state(state, max_qubits: int = DIAGONAL_QUBIT_LIMIT):
    """Two-register diagonal selection; returns (statevector, DiagonalCost).

    Models the register H (x) H*, projected onto the diagonal theta =
    theta', n = n' and renormalized. Only that diagonal, H H*, is computed;
    max_qubits caps the modelled register of N^2 = 2^(2 n_q) amplitudes. The
    output components are |H|^2 / sqrt(sum |H|^4) in row-major grid order.
    """
    psi = as_state(state)
    n_q = _even_qubits(psi)
    if n_q > max_qubits:
        raise QPhaseError("resource",
                          f"two-register construction needs N^2 = 2^{2 * n_q} amplitudes; "
                          f"n_q = {n_q} exceeds the limit {max_qubits}")
    grid = modified_husimi(psi)
    h = grid.H.reshape(-1)
    diag = (h * h.conj()).real
    weight = float(np.sum(diag * diag))
    if weight == 0.0:
        raise QPhaseError("degenerate-input", "zero diagonal weight")
    vector = (diag / math.sqrt(weight)).astype(np.complex128)
    cost = DiagonalCost(diagonal_weight=weight,
                        amplify_iterations=grover_iterations(weight),
                        cost_scale_per_step=math.sqrt(grid.N))
    return vector, cost
