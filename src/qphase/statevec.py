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

from .errors import QPhaseError

DIRECTIONS = ("forward", "inverse")


def _require_power_of_two(n: int, what: str) -> None:
    if n < 1 or (n & (n - 1)) != 0:
        raise QPhaseError("invalid-dimension", f"{what} must be a power of two, got {n}")


def as_state(amplitudes, require_normalized: bool = True) -> np.ndarray:
    """Coerce to a complex statevector, checking the register invariants."""
    psi = np.asarray(amplitudes, dtype=np.complex128)
    if psi.ndim != 1:
        raise QPhaseError("invalid-dimension", f"statevector must be 1D, got shape {psi.shape}")
    _require_power_of_two(psi.size, "statevector length")
    if not np.all(np.isfinite(psi.view(np.float64))):
        raise QPhaseError("invalid-state", "statevector contains NaN or Inf")
    if require_normalized:
        norm_sq = float(np.vdot(psi, psi).real)
        if abs(norm_sq - 1.0) > 1e-10:
            raise QPhaseError("invalid-state", f"statevector norm^2 = {norm_sq!r}, expected 1")
    return psi


def qft(state, direction: str = "forward") -> np.ndarray:
    """Unitary DFT of the amplitude sequence.

    direction "forward" uses the e^{-2 pi i k n / N} kernel, "inverse" its
    conjugate; inverse(forward(x)) = x to machine precision.
    """
    psi = np.asarray(state, dtype=np.complex128)
    _require_power_of_two(psi.size, "statevector length")
    if direction == "forward":
        return np.fft.fft(psi, norm="ortho")
    if direction == "inverse":
        return np.fft.ifft(psi, norm="ortho")
    raise QPhaseError("invalid-parameter", f"direction must be one of {DIRECTIONS}, got {direction!r}")


def partial_qft_blocks(state, block_size: int, direction: str = "forward") -> np.ndarray:
    """Independent block_size-point unitary DFT inside each contiguous block.

    The register splits into N/block_size runs of consecutive amplitudes and
    each run transforms on its own; block_size = N reduces to qft, block_size
    = 1 to the identity.
    """
    psi = np.asarray(state, dtype=np.complex128)
    _require_power_of_two(psi.size, "statevector length")
    _require_power_of_two(block_size, "block_size")
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
