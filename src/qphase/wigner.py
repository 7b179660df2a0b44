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

Both store the whole (2N, 2N) grid. Only its (2N, N) block is distinct:
the exact phase relation e^{- pi i (n+N) Theta / N} =
(-1)^Theta e^{- pi i n Theta / N} gives W(Theta, n+N) = (-1)^Theta W(Theta, n).
`wigner_direct` fills the n >= N half by that sign rule; the pipeline keeps
the half its own phase stage computed and records how far it is from the
rule. Sum rules under this convention, used as invariants: sum W = 1,
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
    """W(Theta, n) on the whole (2N, 2N) doubled grid.

    imag_residue is the largest imaginary part discarded when the grid was
    built; extension_residue is the largest deviation of an independently
    constructed n >= N half from the sign rule (0.0 when the half was
    produced by the rule itself).
    """

    values: np.ndarray
    N: int
    imag_residue: float = 0.0
    extension_residue: float = 0.0

    def total(self) -> float:
        return float(self.values.sum())

    def total_sq(self) -> float:
        return float(np.sum(self.values * self.values))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


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
    h = half.real
    values = np.concatenate([h, _row_signs(N) * h], axis=1)
    return WignerGrid(values=values, N=N, imag_residue=residue)


def wigner_from_momentum(state) -> WignerGrid:
    """Convenience: forward-transform a momentum state, then wigner_direct."""
    return wigner_direct(qft(np.asarray(state, dtype=np.complex128), "forward"))


def wigner_register_pipeline(psi0, params: rotator.RotatorParams, t: int):
    """Simulate the doubled-register construction; returns (grid, final_state).

    The final statevector has 2N x 2N components laid out as |Theta>|n> with
    amplitudes sqrt(2N) W(Theta, n); the grid is read off by dividing by
    sqrt(2N). The grid keeps the n >= N half that the pipeline's own phase
    stage produced; extension_residue is its deviation from the sign rule.
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
    W = W.real.copy()
    ext = float(np.max(np.abs(W[:, N:] - _row_signs(N) * W[:, :N])))
    grid = WignerGrid(values=W, N=N, imag_residue=residue, extension_residue=ext)
    return grid, final_state


def wigner_ipr(values) -> float:
    """xi = 1 / (N^2 sum W^4) over the whole (2N, 2N) grid.

    values is a grid's `values`, or the same grid in any orthonormal basis,
    such as its D4 coefficients. The fourth power, not the second, since W
    itself plays the role of a signed weight on the doubled grid.
    """
    v = np.asarray(values, dtype=np.float64)
    s = v * v
    s *= s
    fourth = float(np.sum(s))
    if fourth == 0.0:
        raise QPhaseError("degenerate-input", "all-zero grid has no participation ratio")
    return 1.0 / ((v.shape[0] // 2) ** 2 * fourth)
