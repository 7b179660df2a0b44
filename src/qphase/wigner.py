"""Discrete Wigner function on the doubled phase-space grid.

Two independent constructions of the same object, kept deliberately separate
so they can verify each other:

* `wigner_direct` evaluates, for an angle-representation state psi(m),

      W(Theta, n) = (1/2N) sum_m e^{-2 pi i n (m - Theta/2)/N}
                              psi*(Theta - m) psi(m)

  over Theta in {0..2N-1}, n in {0..2N-1}. Only terms with both m and
  Theta - m inside {0..N-1} contribute. Writing Theta = 2s + q (q in {0, 1})
  and m = s + k, row Theta is one length-N DFT over k of the pair kernel
  psi*(s+q-k) psi(s+k), with k in [-N/2, N/2) for even rows and
  (-N/2, N/2] for odd rows, times the twiddle (-1)^n (even) or
  (-1)^n e^{-i pi n/N} (odd). Every row is real, and rows Theta and
  Theta + N share a parity, so one complex FFT of
  (kernel of Theta) + i (kernel of Theta + N) gives both rows: the real part
  is row Theta, the imaginary part row Theta + N. The kernels are products of
  two sliding windows over psi zero-padded to 3N, one of them reversed. The
  rows are filled in runs of s of at most `kernels.BLOCK` pair samples, cut
  by `kernels.split`, which may run the two halves of the runs at once, each
  with its own run-sized buffers; np.fft gives each row the same bits
  whatever the batch, so the grid does not depend on the runs.

* `wigner_register_pipeline` simulates the register construction: the first
  register evolves the initial state and transforms it to the angle basis;
  the second register runs U* on psi*, which is conj(U psi), so it is the
  conjugate of the first, with no second evolution. Both are scattered into
  a carry-extended register |theta>|theta'> -> |theta + theta'>|theta'> by
  the adder, the second register is transformed, then split once more and
  phase-corrected, leaving amplitudes sqrt(2N) W(Theta, n).

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
from numpy.lib.stride_tricks import sliding_window_view

from . import kernels, rotator
from .errors import QPhaseError
from .statevec import as_state, check_register, partial_qft_blocks, qft


@dataclass
class WignerGrid:
    """W(Theta, n) on the whole (2N, 2N) doubled grid.

    imag_residue is the largest imaginary part discarded when the grid was
    built. The paired route of `wigner_direct` discards none (round-off moves
    between the two rows of a pair instead), so it reports the largest |Im|
    of one unpaired reference row per parity, rows N - 2 and N - 1, each
    transformed on its own. extension_residue is the largest deviation of an
    independently constructed n >= N half from the sign rule (0.0 when the
    half was produced by the rule itself).
    """

    values: np.ndarray
    N: int
    imag_residue: float = 0.0
    extension_residue: float = 0.0

    def total(self) -> float:
        return float(self.values.sum())

    # the two checks below read the grid without a grid-sized temporary
    def total_sq(self) -> float:
        return kernels.square_sums(self.values)[0]

    def max_abs(self) -> float:
        return abs(max(float(self.values.max()), -float(self.values.min())))


def _row_signs(N: int) -> np.ndarray:
    signs = np.ones((2 * N, 1))
    signs[1::2, 0] = -1.0
    return signs


def wigner_direct(state) -> WignerGrid:
    """Evaluate the distribution for an angle-representation state.

    Momentum-representation states convert with one forward qft before the
    call (see wigner_from_momentum). The pair kernels and row FFTs run in
    runs of s of at most kernels.BLOCK samples cut by kernels.split, which
    runs the two halves of the runs at once, so an n_q >= 9 grid is filled
    on two cores; the grid is the same bits on one.
    """
    psi = as_state(state)
    N = psi.size
    if N < 2:
        raise QPhaseError("invalid-dimension", "need at least a one-qubit state")
    h = N // 2
    padded = np.zeros(3 * N, dtype=np.complex128)
    padded[N:2 * N] = psi
    # left[s, j] = psi*(s + q - k) and right[s + q, j] = psi(s + k), with
    # k = j - N/2 + q: the pair kernel of row Theta = 2s + q is their product
    left = sliding_window_view(padded.conj(), N)[h + 1:h + 1 + N, ::-1]
    right = sliding_window_view(padded, N)[h:h + N + 1]
    n = np.arange(N)
    sign = np.where(n % 2 == 0, 1.0, -1.0) / (2.0 * N)
    twiddles = [sign * np.exp(-1j * np.pi * q * n / N) for q in (0, 1)]
    values = np.empty((2 * N, 2 * N))

    def fill(parts) -> list:
        # each part is a run of s: rows Theta = 2s + q go in the real part of
        # one FFT and rows Theta + N in the imaginary, for both parities q
        buffers = np.empty((2, max(part.stop - part.start for part in parts), N),
                           dtype=np.complex128)
        for part in parts:
            lo, hi = part.start, part.stop
            pair, other = buffers[:, :hi - lo]
            for q in (0, 1):
                np.multiply(left[lo:hi], right[q + lo:q + hi], out=pair)
                np.multiply(left[h + lo:h + hi], right[q + h + lo:q + h + hi], out=other)
                other *= 1j
                pair += other
                np.fft.fft(pair, axis=1, out=pair)
                pair *= twiddles[q]
                rows = values[q::2]
                for dst, half in ((part, pair.real), (slice(h + lo, h + hi), pair.imag)):
                    rows[dst, :N] = half
                    if q:
                        np.negative(rows[dst, :N], out=rows[dst, N:])
                    else:
                        rows[dst, N:] = rows[dst, :N]

    # runs of at most kernels.BLOCK pair samples, each filled while its two
    # buffers are in cache
    kernels.split(fill, h, max(1, kernels.BLOCK // N))
    residue = 0.0
    for q in (0, 1):
        reference = np.fft.fft(left[h - 1] * right[h - 1 + q]) * twiddles[q]
        residue = max(residue, float(np.max(np.abs(reference.imag))))
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

    a = qft(rotator.evolve(psi0, params, t), "forward")  # first register, angle basis
    b = a.conj()                                         # second: U* psi* = conj(U psi)

    # carry adder |theta>|theta'> -> |theta + theta'>|theta'>: T1[j + m, m] = a[j] b[m]
    m = np.arange(N)
    T1 = np.zeros((2 * N, N), dtype=np.complex128)
    T1[np.add.outer(m, m), m[None, :]] = np.outer(a, b)
    T2 = partial_qft_blocks(T1.reshape(-1), N, "inverse").reshape(2 * N, N)  # second-register QFT
    del T1
    T2 /= np.sqrt(2.0)  # duplication split: each (2N, N) half of the final state gets T2
    # phase correction, one half at a time: n runs over [0, N), then [N, 2N);
    # the phase is the left operand, since complex products are not bitwise
    # commutative
    final = np.empty((2 * N, 2 * N), dtype=np.complex128)
    Theta = np.arange(2 * N, dtype=np.float64)[:, None]
    for h in (0, N):
        n_half = np.arange(h, h + N, dtype=np.float64)[None, :]
        np.multiply(np.exp(-1j * np.pi * Theta * n_half / N), T2, out=final[:, h:h + N])
    del T2

    final_state = final.reshape(-1)
    W = final / np.sqrt(2.0 * N)
    residue = float(np.max(np.abs(W.imag)))
    W = W.real.copy()
    ext = float(np.max(np.abs(W[:, N:] - _row_signs(N) * W[:, :N])))
    grid = WignerGrid(values=W, N=N, imag_residue=residue, extension_residue=ext)
    return grid, final_state
