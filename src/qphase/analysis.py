"""Localization measures and scaling fits for phase-space scans."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import stats

from . import husimi as husimi_mod
from . import rotator, wavelet, wigner
from .errors import QPhaseError
from .wigner import wigner_ipr  # re-export: the grid variant lives with the grid

__all__ = [
    "ScalingFit", "ScanRow", "ipr", "entropy", "ipr_ratio", "fit_scaling",
    "ipr_entropy_compare", "wigner_ipr", "wavelet_weights",
    "wigner_scan_row", "husimi_scan_row", "image_scan_row",
]


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
    """One line of a scan table."""

    K: float
    n_q: int
    xi_raw: float
    xi_wavelet: float
    R: float
    S: float

    def csv(self) -> str:
        return (f"{self.K:.17g},{self.n_q},{self.xi_raw:.17g},"
                f"{self.xi_wavelet:.17g},{self.R:.17g},{self.S:.17g}")


def ipr(weights) -> float:
    """Participation ratio (sum w)^2 / sum w^2; scale-invariant."""
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if np.any(w < 0):
        raise QPhaseError("invalid-parameter", "weights must be nonnegative")
    denom = float(np.sum(w * w))
    if denom == 0.0:
        raise QPhaseError("degenerate-input", "all weights are zero")
    total = float(np.sum(w))
    return total * total / denom


def entropy(weights) -> float:
    """Shannon entropy in bits of a weight vector, renormalized internally."""
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if np.any(w < 0):
        raise QPhaseError("invalid-parameter", "weights must be nonnegative")
    total = float(np.sum(w))
    if total == 0.0:
        raise QPhaseError("degenerate-input", "all weights are zero")
    if abs(total - 1.0) > 1e-8:
        warnings.warn(f"weights sum to {total:.6g}; renormalizing")
    p = w / total
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def ipr_ratio(xi_raw: float, xi_wavelet: float) -> float:
    if xi_wavelet == 0.0:
        raise QPhaseError("degenerate-input", "wavelet participation ratio is zero")
    return xi_raw / xi_wavelet


def fit_scaling(points) -> ScalingFit:
    """Fit log2 xi = exponent * n_q + intercept by ordinary least squares.

    points is a sequence of (n_q, xi) pairs; at least three are required for
    a meaningful slope error.
    """
    pts = [(float(n), float(x)) for n, x in points]
    if len(pts) < 3:
        raise QPhaseError("insufficient-data",
                          f"need at least 3 points for a fit, got {len(pts)}")
    ns = np.array([p[0] for p in pts])
    xs = np.array([p[1] for p in pts])
    if np.any(xs <= 0):
        raise QPhaseError("invalid-parameter", "xi values must be positive")
    res = stats.linregress(ns, np.log2(xs))
    return ScalingFit(exponent=float(res.slope), intercept=float(res.intercept),
                      stderr=float(res.stderr), range=(min(ns), max(ns)))


def ipr_entropy_compare(weights):
    """Return (xi, 2^S); the participation ratio never exceeds 2^S."""
    return ipr(weights), 2.0 ** entropy(weights)


def wavelet_weights(coeffs: wavelet.WaveletCoeffs) -> np.ndarray:
    """Squared coefficients, the weight vector of a transformed field."""
    v = np.asarray(coeffs.values, dtype=np.float64).reshape(-1)
    return v * v


def wigner_scan_row(K: float, n_q: int, t: int) -> ScanRow:
    """Evolve the band state and tabulate localization measures."""
    params = rotator.RotatorParams(n_q=n_q, K=K)
    psi = rotator.evolve(rotator.initial_band_state(params), params, t)
    grid = wigner.wigner_from_momentum(psi)
    full = grid.values
    xi_raw = wigner_ipr(grid)
    coeffs = wavelet.d4_forward_2d(full)
    xi_wav = wigner_ipr(coeffs.values)
    s = entropy(full * full * (2 * grid.N))
    return ScanRow(K=K, n_q=n_q, xi_raw=xi_raw, xi_wavelet=xi_wav,
                   R=ipr_ratio(xi_raw, xi_wav), S=s)


def husimi_scan_row(K: float, n_q: int, t: int) -> ScanRow:
    """Modified-Husimi localization measures for the evolved band state."""
    if n_q % 2 != 0:
        raise QPhaseError("invalid-parameter", f"need even n_q, got {n_q}")
    params = rotator.RotatorParams(n_q=n_q, K=K)
    psi = rotator.evolve(rotator.initial_band_state(params), params, t)
    grid = husimi_mod.modified_husimi(psi)
    mod = np.abs(grid.H)
    probs = mod * mod
    xi_raw = ipr(probs)
    coeffs = wavelet.d4_forward_2d(mod)
    xi_wav = ipr(wavelet_weights(coeffs))
    return ScanRow(K=K, n_q=n_q, xi_raw=xi_raw, xi_wavelet=xi_wav,
                   R=ipr_ratio(xi_raw, xi_wav), S=entropy(probs))


def image_scan_row(amplitudes: np.ndarray, n_q: int, tile_size: int = 0) -> ScanRow:
    """Wavelet-domain localization of an image amplitude field."""
    if tile_size:
        coeffs = wavelet.tiled_forward_2d(amplitudes, tile_size)
    else:
        coeffs = wavelet.d4_forward_2d(amplitudes)
    w = wavelet_weights(coeffs)
    raw = np.asarray(amplitudes, dtype=np.float64).reshape(-1) ** 2
    return ScanRow(K=0.0, n_q=n_q, xi_raw=ipr(raw), xi_wavelet=ipr(w),
                   R=ipr_ratio(ipr(raw), ipr(w)), S=entropy(w))
