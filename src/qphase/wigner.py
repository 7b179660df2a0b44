"""Discrete Wigner function on the doubled phase-space grid.

Two independent constructions of the same object, kept deliberately separate
so they can verify each other:

* `wigner_direct` evaluates, for an angle-representation state psi(m),

      W(Theta, n) = (1/2N) sum_m e^{-2 pi i n (m - Theta/2)/N}
                              psi*(Theta - m) psi(m)

  over Theta in {0..2N-1}, n in {0..2N-1}. The pair index Theta - m is plain
  integer arithmetic: only terms with both m and Theta - m inside {0..N-1}
  contribute, which is exactly the pair set an adder register can produce.
  The half-integer phase is evaluated exactly as e^{+ pi i n Theta / N}.

* `wigner_register_pipeline` simulates the register construction: two copies
  of the initial state evolved independently (the second conjugated),
  transformed to the angle basis, summed into a carry-extended register
  |theta>|theta'> -> |theta + theta'>|theta'>, second register transformed,
  then split once more and phase-corrected, leaving amplitudes
  sqrt(2N) W(Theta, n).

The grid is stored as its distinct (2N, N) block; the n >= N half follows
from the exact phase relation e^{- pi i (n+N) Theta / N} =
(-1)^Theta e^{- pi i n Theta / N}, so W(Theta, n+N) = (-1)^Theta W(Theta, n).
Sum rules under this convention, used as invariants: sum W = 1,
sum W^2 = 1/(2N), |W| <= 1/(2N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rotator
from .errors import QPhaseError
from .statevec import as_state, check_register, qft


@dataclass
class WignerGrid:
    """W(Theta, n) stored as the (2N, N) block plus the extension rule.

    imag_residue is the largest imaginary part discarded when the grid was
    built; extension_residue is the largest deviation of an independently
    constructed n >= N half from the sign rule (0.0 when the half was
    produced by the rule itself).
    """

    half: np.ndarray
    N: int
    imag_residue: float = 0.0
    extension_residue: float = 0.0

    @property
    def values(self) -> np.ndarray:
        """Full (2N, 2N) grid, materialized on demand."""
        signs = _row_signs(self.N)
        return np.concatenate([self.half, signs * self.half], axis=1)

    def total(self) -> float:
        # odd-Theta rows cancel between the two halves
        return 2.0 * float(self.half[::2, :].sum())

    def total_sq(self) -> float:
        return 2.0 * float(np.sum(self.half * self.half))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.half))) if self.half.size else 0.0


def _row_signs(N: int) -> np.ndarray:
    signs = np.ones((2 * N, 1))
    signs[1::2, 0] = -1.0
    return signs


def _scatter_pair_products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """G[j + m, m] = left[j] * right[m] on a (2N, N) carry-extended grid."""
    N = left.size
    G = np.zeros((2 * N, N), dtype=np.complex128)
    m = np.arange(N)
    G[np.add.outer(m, m), m[None, :]] = np.outer(left, right)
    return G


def wigner_direct(state) -> WignerGrid:
    """Evaluate the distribution for an angle-representation state.

    Momentum-representation states convert with one forward qft before the
    call (see wigner_from_momentum).
    """
    psi = as_state(state)
    N = psi.size
    if N < 2:
        raise QPhaseError("invalid-dimension", "need at least a one-qubit state")
    G = _scatter_pair_products(psi.conj(), psi)
    # column FFT gives sum_m G[Theta, m] e^{-2 pi i n m / N} for n < N
    F = np.fft.fft(G, axis=1)
    Theta = np.arange(2 * N, dtype=np.float64)[:, None]
    n = np.arange(N, dtype=np.float64)[None, :]
    half = F * np.exp(1j * np.pi * Theta * n / N) / (2.0 * N)
    residue = float(np.max(np.abs(half.imag)))
    return WignerGrid(half=half.real, N=N, imag_residue=residue)


def wigner_from_momentum(state) -> WignerGrid:
    """Convenience: forward-transform a momentum state, then wigner_direct."""
    return wigner_direct(qft(np.asarray(state, dtype=np.complex128), "forward"))


def wigner_register_pipeline(psi0, params: rotator.RotatorParams, t: int):
    """Simulate the doubled-register construction; returns (grid, final_state).

    The final statevector has 2N x 2N components laid out as |Theta>|n> with
    amplitudes sqrt(2N) W(Theta, n); the grid is read off by dividing by
    sqrt(2N). Its n >= N half is produced by the pipeline's own phase stage
    and checked against the sign rule (extension_residue).
    """
    check_register(2 * params.n_q + 2, f"the Wigner pipeline at n_q = {params.n_q}")
    psi0 = as_state(psi0)
    if psi0.size != params.N:
        raise QPhaseError("invalid-dimension",
                          f"state length {psi0.size} does not match N = {params.N}")
    N = params.N

    u = rotator.evolve(psi0, params, t)
    v = rotator.evolve(psi0.conj(), params, t, conjugate=True)
    a = qft(u, "forward")            # first register, angle basis
    b = qft(v, "inverse")            # second register, mirrored transform

    T1 = _scatter_pair_products(a, b)                    # carry adder
    T2 = np.fft.ifft(T1, axis=1, norm="ortho")           # second-register QFT
    T3 = np.concatenate([T2, T2], axis=1) / np.sqrt(2.0)  # duplication split
    Theta = np.arange(2 * N, dtype=np.float64)[:, None]
    n_full = np.arange(2 * N, dtype=np.float64)[None, :]
    T3 = T3 * np.exp(-1j * np.pi * Theta * n_full / N)   # phase correction

    final_state = T3.reshape(-1)
    W = T3 / np.sqrt(2.0 * N)
    residue = float(np.max(np.abs(W.imag)))
    W = W.real
    signs = _row_signs(N)
    ext = float(np.max(np.abs(W[:, N:] - signs * W[:, :N])))
    grid = WignerGrid(half=W[:, :N].copy(), N=N, imag_residue=residue,
                      extension_residue=ext)
    return grid, final_state


def wigner_ipr(grid) -> float:
    """xi = 1 / (N^2 sum W^4) over the full doubled grid.

    grid is a WignerGrid, whose n >= N half carries the same fourth powers as
    the stored half, or the full (2N, 2N) grid in any orthonormal basis, such
    as its D4 coefficients. The fourth power, not the second, since W itself
    plays the role of a signed weight on the doubled grid.
    """
    if isinstance(grid, WignerGrid):
        N, fourth = grid.N, 2.0 * float(np.sum(grid.half ** 4))
    else:
        values = np.asarray(grid, dtype=np.float64)
        N, fourth = values.shape[0] // 2, float(np.sum(values ** 4))
    if fourth == 0.0:
        raise QPhaseError("degenerate-input", "all-zero grid has no participation ratio")
    return 1.0 / (N ** 2 * fourth)
