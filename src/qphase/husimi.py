"""Husimi-type phase-space distributions.

The partial-transform (modified) distribution splits the momentum register
into sqrt(N) blocks of sqrt(N) consecutive indices n = j sqrt(N) + r and
applies one inverse unitary DFT over r inside each block:

    H(l, j) = N^{-1/4} sum_{r} e^{+ i theta0 (j sqrt N + r)} psi(j sqrt N + r),
    theta0 = 2 pi l / sqrt N

(the block-offset phase e^{i theta0 j sqrt N} is an integer multiple of 2 pi
and drops). |H|^2 is a genuine probability distribution on the sqrt(N) x
sqrt(N) grid. The Gaussian variant overlaps the state with wrapped coherent
states phi(n) = A e^{-(n - n0)^2 / 4 a^2 - i theta0 n} of the one width
a = sqrt(N / 4 pi), which balances angle and momentum resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import QPhaseError
from .measurement import grover_iterations
from .statevec import as_state, check_register, even_qubits, partial_qft_blocks

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
class DiagonalCost:
    """Nominal cost metadata for the diagonal-selection construction.

    diagonal_weight is the projection probability sum |H|^4; its inverse
    square root sets the amplification iteration count; state preparation
    itself scales as cost_scale_per_step (= sqrt N) per map iteration.
    """

    diagonal_weight: float
    amplify_iterations: int
    cost_scale_per_step: float


def modified_husimi(state) -> HusimiGrid:
    """Partial inverse DFT over the low half of the index bits."""
    psi = as_state(state)
    n_q = even_qubits(psi)
    b = 1 << (n_q // 2)
    H = partial_qft_blocks(psi, b, "inverse").reshape(b, b).T
    return HusimiGrid(H=np.ascontiguousarray(H), N=psi.size)


def default_width(N: int) -> float:
    return math.sqrt(N / (4.0 * math.pi))


def _wrapped_envelope(N: int, n0: float) -> np.ndarray:
    # e^{-(n - n0)^2 / 4 a^2} at a = default_width(N), summed over the
    # nearest images of the ring
    a = default_width(N)
    n = np.arange(N, dtype=np.float64)
    envelope = np.zeros(N)
    for image in range(-_WRAP_IMAGES, _WRAP_IMAGES + 1):
        d = n - n0 + image * N
        envelope += np.exp(-d * d / (4.0 * a * a))
    return envelope


def coherent_state(N: int, theta0: float, n0: float) -> np.ndarray:
    """Normalized wrapped Gaussian on the momentum ring, centered at
    (theta0, n0), of width `default_width(N)`."""
    n = np.arange(N, dtype=np.float64)
    phi = _wrapped_envelope(N, n0) * np.exp(-1j * theta0 * n)
    return phi / np.linalg.norm(phi)


def gaussian_husimi(state) -> np.ndarray:
    """|<phi_(theta0, n0)|psi>|^2 over the full integer grid, indexed [l, n0].

    theta0 = 2 pi l / N for l = 0..N-1 and n0 = 0..N-1, every coherent
    state of width `default_width(N)`. One center's value is
    abs(np.vdot(coherent_state(N, theta0, n0), psi)) ** 2.
    """
    psi = as_state(state)
    N = psi.size
    envelope = _wrapped_envelope(N, 0.0)
    amp = 1.0 / np.linalg.norm(envelope)
    # row n0: the envelope moved to its center, doubled[N - n0 : 2N - n0], times psi
    doubled = np.concatenate([envelope, envelope])
    rows = sliding_window_view(doubled, N)[N:0:-1] * psi
    # <phi|psi> picks up e^{+ i theta0 n}: an inverse DFT over n per row
    overlaps = np.fft.ifft(rows, axis=1) * N * amp
    return (np.abs(overlaps) ** 2).T


def husimi_modulus_state(state):
    """Two-register diagonal selection; returns (statevector, DiagonalCost).

    Models the register H (x) H*, projected onto the diagonal theta =
    theta', n = n' and renormalized. Only that diagonal, H H*, is computed,
    but the size check applies to the modelled 2 n_q-qubit register. The
    output components are |H|^2 / sqrt(sum |H|^4) in row-major grid order.
    """
    psi = as_state(state)
    n_q = even_qubits(psi)
    check_register(2 * n_q, f"the diagonal Husimi construction at n_q = {n_q}")
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
