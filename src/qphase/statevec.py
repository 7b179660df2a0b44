"""Statevectors and unitary discrete Fourier transforms.

Every register in the package is a plain complex ndarray of length N = 2^n_q
holding probability amplitudes. The transform convention is fixed once, here:

    forward:  f(k) = (1/sqrt N) sum_n e^{-2 pi i k n / N} f(n)
    inverse:  f(n) = (1/sqrt N) sum_k e^{+2 pi i k n / N} f(k)

Forward is the momentum -> angle direction: applying it to a momentum-basis
vector diagonalizes multiplication by functions of the angle. Both directions
are unitary (1/sqrt N on each), so normalized states stay normalized with no
extra bookkeeping. FFTs do the work; correctness is defined by direct O(N^2)
summation, which the test suite checks against.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import QPhaseError

DIRECTIONS = ("forward", "inverse")

# Largest register a route may model, in qubits: the Wigner pipeline's
# 2 n_q + 2 and the diagonal Husimi route's 2 n_q both stop at n_q = 10.
REGISTER_QUBIT_LIMIT = 22


def log2_exact(n: int, what: str) -> int:
    """log2 n, raising category `invalid-dimension` unless n is a power of two."""
    if n < 1 or (n & (n - 1)) != 0:
        raise QPhaseError("invalid-dimension", f"{what} must be a power of two, got {n}")
    return n.bit_length() - 1


def check_register(qubits: int, what: str) -> None:
    """Raise category `resource` when a modelled register is too large."""
    if qubits > REGISTER_QUBIT_LIMIT:
        raise QPhaseError("resource", f"{what} models {qubits} qubits, "
                                      f"above the limit of {REGISTER_QUBIT_LIMIT}")


def even_qubits(psi: np.ndarray) -> int:
    """Qubit count of a register read as a square grid; raises `invalid-parameter` if odd."""
    n_q = psi.size.bit_length() - 1
    if n_q % 2 != 0:
        raise QPhaseError("invalid-parameter",
                          f"square grid needs an even qubit count, got n_q = {n_q}")
    return n_q


def as_state(amplitudes) -> np.ndarray:
    """Coerce to a normalized complex statevector, checking the register invariants."""
    psi = np.asarray(amplitudes, dtype=np.complex128)
    if psi.ndim != 1:
        raise QPhaseError("invalid-dimension", f"statevector must be 1D, got shape {psi.shape}")
    log2_exact(psi.size, "statevector length")
    if not kernels.finite(psi.view(np.float64)):
        raise QPhaseError("invalid-state", "statevector contains NaN or Inf")
    norm_sq = float(np.vdot(psi, psi).real)
    if abs(norm_sq - 1.0) > 1e-10:
        raise QPhaseError("invalid-state", f"statevector norm^2 = {norm_sq!r}, expected 1")
    return psi


def qft(state, direction: str = "forward") -> np.ndarray:
    """Unitary DFT of the whole amplitude sequence: one block of length N.

    direction "forward" uses the e^{-2 pi i k n / N} kernel, "inverse" its
    conjugate; inverse(forward(x)) = x to machine precision.
    """
    psi = np.asarray(state, dtype=np.complex128)
    return partial_qft_blocks(psi, psi.size, direction)


def partial_qft_blocks(state, block_size: int, direction: str = "forward") -> np.ndarray:
    """Independent block_size-point unitary DFT inside each contiguous block.

    The register splits into N/block_size runs of consecutive amplitudes and
    each run transforms on its own; block_size = N reduces to qft, block_size
    = 1 to the identity.
    """
    psi = np.asarray(state, dtype=np.complex128)
    log2_exact(psi.size, "statevector length")
    log2_exact(block_size, "block_size")
    if block_size > psi.size or psi.size % block_size != 0:
        raise QPhaseError("invalid-dimension",
                          f"block_size {block_size} does not divide state length {psi.size}")
    blocks = psi.reshape(-1, block_size)
    if direction == "forward":
        out = np.fft.fft(blocks, axis=1, norm="ortho")
    elif direction == "inverse":
        out = np.fft.ifft(blocks, axis=1, norm="ortho")
    else:
        raise QPhaseError("invalid-parameter", f"direction must be one of {DIRECTIONS}, got {direction!r}")
    return out.reshape(-1)
