"""Localization measures and scaling fits for phase-space scans."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import husimi as husimi_mod
from . import kernels, rotator, wavelet, wigner
from .errors import QPhaseError

@dataclass(frozen=True)
class ScalingFit:
    """Least-squares line through (n_q, log2 xi)."""

    exponent: float
    intercept: float
    stderr: float
    range: tuple

    def __post_init__(self):
        if self.stderr < 0:
            raise QPhaseError("invalid-parameter", "stderr must be nonnegative")


@dataclass(frozen=True)
class ScanRow:
    """One line of a scan table.

    xi_raw and xi_wavelet are amplitude participation ratios, of the field
    and of its D4 coefficients: `ipr` for Husimi and image rows, and for
    Wigner rows `wigner_ipr`, with its fixed 1/N^2 normalization. R is
    derived from them. S is an entropy in bits: for Wigner rows that of the
    raw weights 2N W^2, for Husimi rows that of |H|^2, and for image rows
    that of the squared wavelet coefficients, the weights whose 2^S tracks
    xi_wavelet. Husimi rows read |H| as the amplitude field, which no
    construction in the package prepares.
    """

    K: float
    n_q: int
    xi_raw: float
    xi_wavelet: float
    S: float

    @property
    def R(self) -> float:
        """The raw-to-wavelet participation ratio, xi_raw / xi_wavelet."""
        return self.xi_raw / self.xi_wavelet

    def csv(self) -> str:
        return (f"{self.K:.17g},{self.n_q},{self.xi_raw:.17g},"
                f"{self.xi_wavelet:.17g},{self.R:.17g},{self.S:.17g}")


def ipr(amplitudes) -> float:
    """Participation ratio xi = (sum a^2)^2 / sum a^4 of a real amplitude
    field, such as |H|, image amplitudes or D4 coefficients; the sign of
    each amplitude does not matter, and xi is scale-invariant."""
    second, fourth = kernels.square_sums(amplitudes)
    if fourth == 0.0:
        raise QPhaseError("degenerate-input", "all amplitudes are zero")
    return second * second / fourth


def wigner_ipr(values) -> float:
    """xi = 1 / (N^2 sum W^4) over the whole (2N, 2N) grid.

    values is a grid's `values`, or the same grid in any orthonormal basis,
    such as its D4 coefficients. On a grid that obeys the sum rule
    sum W^2 = 1/(2N) this is 4 ipr(values); the normalization is fixed at
    1/N^2 rather than taken from the grid's own sum of squares.
    """
    v = np.asarray(values, dtype=np.float64)
    fourth = kernels.square_sums(v)[1]
    if fourth == 0.0:
        raise QPhaseError("degenerate-input", "all-zero grid has no participation ratio")
    return 1.0 / ((v.shape[0] // 2) ** 2 * fourth)


def entropy(weights) -> float:
    """Shannon entropy in bits of a weight vector, renormalized internally.

    One normalized copy is made, one block at a time through
    `kernels.split`, and p ln p is taken in place on each block as
    p ln(p + [p = 0]), so a zero weight gives 0 ln 1 = 0. The terms are then
    summed in one pass over the whole copy.
    """
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if np.any(w < 0):
        raise QPhaseError("invalid-parameter", "weights must be nonnegative")
    total = float(np.sum(w))
    if total == 0.0:
        raise QPhaseError("degenerate-input", "all weights are zero")
    if abs(total - 1.0) > 1e-8:
        warnings.warn(f"weights sum to {total:.6g}; renormalizing")
    p = np.empty_like(w)

    def terms(blocks) -> list:
        buf = np.empty(max(block.stop - block.start for block in blocks))
        for block in blocks:
            chunk = p[block]
            np.divide(w[block], total, out=chunk)
            ln = buf[:chunk.size]
            np.add(chunk, chunk == 0.0, out=ln)
            np.log(ln, out=ln)
            chunk *= ln

    kernels.split(terms, p.size, kernels.BLOCK)
    return -float(np.sum(p)) / math.log(2.0)


def fit_scaling(points) -> ScalingFit:
    """Fit log2 xi = exponent * n_q + intercept by ordinary least squares.

    points is a sequence of (n_q, xi) pairs; at least three, over at least
    two qubit counts, are required for a meaningful slope error.
    """
    pts = [(float(n), float(x)) for n, x in points]
    if len(pts) < 3:
        raise QPhaseError("insufficient-data",
                          f"need at least 3 points for a fit, got {len(pts)}")
    ns = np.array([p[0] for p in pts])
    xs = np.array([p[1] for p in pts])
    if np.any(xs <= 0):
        raise QPhaseError("invalid-parameter", "xi values must be positive")
    if np.unique(ns).size < 2:
        raise QPhaseError("insufficient-data",
                          f"need at least 2 distinct qubit counts for a fit, got {ns[0]:g} only")
    ys = np.log2(xs)
    dx = ns - ns.mean()
    dy = ys - ys.mean()
    sxx = float(dx @ dx)
    slope = float(dx @ dy) / sxx
    intercept = float(ys.mean() - slope * ns.mean())
    resid = dy - slope * dx
    stderr = math.sqrt(float(resid @ resid) / (ns.size - 2) / sxx)
    return ScalingFit(exponent=slope, intercept=intercept, stderr=stderr,
                      range=(min(ns), max(ns)))


def wigner_scan_row(K: float, n_q: int, t: int) -> ScanRow:
    """Evolve the band state and tabulate localization measures.

    S is the entropy of p = 2N W^2 over the whole grid. W^2 is the same in
    the n < N and n >= N halves, so S is taken from the left half alone,
    normalized on its own (4N W^2), plus one bit.
    """
    params = rotator.RotatorParams(n_q=n_q, K=K)
    psi = rotator.evolve(rotator.initial_band_state(params), params, t)
    grid = wigner.wigner_from_momentum(psi)
    full = grid.values
    left = full[:, :grid.N]
    weights = np.multiply(left, left)
    weights *= 4 * grid.N
    S = entropy(weights) + 1.0
    # freed before the transform, so the row holds at most the grid and
    # one more grid-sized array at a time
    del weights
    return ScanRow(K=K, n_q=n_q, xi_raw=wigner_ipr(full),
                   xi_wavelet=wigner_ipr(wavelet.d4_forward_2d(full).values), S=S)


def husimi_scan_row(K: float, n_q: int, t: int) -> ScanRow:
    """Modified-Husimi localization measures for the evolved band state.

    The participation ratios read the modulus |H| as an amplitude field, the
    wavelet one after the D4 transform of |H|; S is the entropy of |H|^2.
    """
    if n_q % 2 != 0:
        raise QPhaseError("invalid-parameter", f"need even n_q, got {n_q}")
    params = rotator.RotatorParams(n_q=n_q, K=K)
    psi = rotator.evolve(rotator.initial_band_state(params), params, t)
    grid = husimi_mod.modified_husimi(psi)
    mod = np.abs(grid.H)
    return ScanRow(K=K, n_q=n_q, xi_raw=ipr(mod),
                   xi_wavelet=ipr(wavelet.d4_forward_2d(mod).values),
                   S=entropy(mod * mod))


def image_scan_row(amplitudes: np.ndarray, n_q: int, tile_size: int = 0) -> ScanRow:
    """Wavelet-domain localization of an image amplitude field; S is the
    entropy of the squared wavelet coefficients."""
    if tile_size:
        coeffs = wavelet.tiled_forward_2d(amplitudes, tile_size)
    else:
        coeffs = wavelet.d4_forward_2d(amplitudes)
    c = coeffs.values
    return ScanRow(K=0.0, n_q=n_q, xi_raw=ipr(amplitudes), xi_wavelet=ipr(c),
                   S=entropy(c * c))
