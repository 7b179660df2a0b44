"""Pyramidal D4 wavelet transforms: 1D, separable 2D, and tiled 2D.

The analysis pair (kernels.D4_H / D4_G) is orthonormal with periodic wrap, so
every transform here preserves the sum of squares exactly and inverts exactly.
Coefficient layout is the standard in-place pyramid: after each level the
approximation occupies the leading half of the active block and the detail
the trailing half; 2D levels transform rows then columns of the shrinking
top-left block. Full depth (approximation band of 4 samples in 1D, 4x4 in 2D)
is the default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import QPhaseError


@dataclass
class WaveletCoeffs:
    """D4 coefficients plus the metadata needed to invert them.

    tile_size 0 means untiled; otherwise the 2D field was transformed in
    independent tile_size x tile_size blocks, each at full depth.
    """

    values: np.ndarray
    levels: int
    tile_size: int = 0


def _log2_int(n: int, what: str) -> int:
    if n < 1 or (n & (n - 1)) != 0:
        raise QPhaseError("invalid-dimension", f"{what} must be a power of two, got {n}")
    return n.bit_length() - 1


def _check_levels(length: int, levels, what: str) -> int:
    # the last allowed level analyzes a 2-sample block, where the wrapped D4
    # pair collapses to the orthonormal Haar pair (h0+h2 = h1+h3 = 1/sqrt(2))
    max_levels = _log2_int(length, what)
    if levels is None:
        levels = max(1, max_levels - 2)  # stop at a 4-sample approximation band
    if not 1 <= levels <= max_levels:
        raise QPhaseError("invalid-dimension",
                          f"levels must be in [1, {max_levels}] for {what} {length}, got {levels}")
    return int(levels)


def _as_real(data, what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise QPhaseError("invalid-data", f"{what} contains NaN or Inf")
    return arr


def d4_forward_1d(signal, levels: int | None = None) -> WaveletCoeffs:
    x = _as_real(signal, "signal")
    if x.ndim != 1 or x.size < 4:
        raise QPhaseError("invalid-dimension", f"signal must be 1D of length >= 4, got shape {x.shape}")
    levels = _check_levels(x.size, levels, "signal length")
    out = x.copy()
    cur = x.size
    for _ in range(levels):
        a, d = kernels.d4_analyze(out[:cur])
        out[: cur // 2] = a
        out[cur // 2 : cur] = d
        cur //= 2
    return WaveletCoeffs(out, levels)


def d4_inverse_1d(coeffs: WaveletCoeffs) -> np.ndarray:
    out = _as_real(coeffs.values, "coefficients").copy()
    if out.ndim != 1:
        raise QPhaseError("invalid-dimension", f"expected 1D coefficients, got shape {out.shape}")
    _check_levels(out.size, coeffs.levels, "signal length")
    cur = out.size >> coeffs.levels
    for _ in range(coeffs.levels):
        out[: 2 * cur] = kernels.d4_synthesize(out[:cur], out[cur : 2 * cur])
        cur *= 2
    return out


def _check_square(field, what: str) -> np.ndarray:
    arr = _as_real(field, what)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise QPhaseError("invalid-dimension", f"{what} must be square 2D, got shape {arr.shape}")
    if arr.shape[0] < 4:
        raise QPhaseError("invalid-dimension", f"{what} side must be >= 4, got {arr.shape[0]}")
    return arr


def d4_forward_2d(field, levels: int | None = None) -> WaveletCoeffs:
    grid = _check_square(field, "field")
    side = grid.shape[0]
    levels = _check_levels(side, levels, "field side")
    out = grid.copy()
    s = side
    for _ in range(levels):
        block = out[:s, :s]
        a, d = kernels.d4_analyze(block, axis=1)  # rows
        block[:, : s // 2] = a
        block[:, s // 2 :] = d
        a, d = kernels.d4_analyze(block, axis=0)  # columns
        block[: s // 2, :] = a
        block[s // 2 :, :] = d
        s //= 2
    return WaveletCoeffs(out, levels)


def d4_inverse_2d(coeffs: WaveletCoeffs) -> np.ndarray:
    out = _check_square(coeffs.values, "coefficients").copy()
    side = out.shape[0]
    _check_levels(side, coeffs.levels, "field side")
    s = side >> (coeffs.levels - 1)
    for _ in range(coeffs.levels):
        block = out[:s, :s]
        block[:, :] = kernels.d4_synthesize(block[: s // 2, :], block[s // 2 :, :], axis=0)
        block[:, :] = kernels.d4_synthesize(block[:, : s // 2], block[:, s // 2 :], axis=1)
        s *= 2
    return out


def tiled_forward_2d(field, tile_size: int) -> WaveletCoeffs:
    """Independent full-depth 2D transform inside every tile."""
    grid = _check_square(field, "field")
    side = grid.shape[0]
    _log2_int(tile_size, "tile_size")
    if tile_size < 4 or side % tile_size != 0:
        raise QPhaseError("invalid-dimension",
                          f"tile_size {tile_size} must be >= 4 and divide the side {side}")
    out = grid.copy()
    levels = 0
    for r in range(0, side, tile_size):
        for c in range(0, side, tile_size):
            sub = d4_forward_2d(out[r : r + tile_size, c : c + tile_size])
            out[r : r + tile_size, c : c + tile_size] = sub.values
            levels = sub.levels
    return WaveletCoeffs(out, levels, tile_size=tile_size)


def tiled_inverse_2d(coeffs: WaveletCoeffs) -> np.ndarray:
    grid = _check_square(coeffs.values, "coefficients")
    side = grid.shape[0]
    tile = coeffs.tile_size
    if tile < 4 or side % tile != 0:
        raise QPhaseError("invalid-dimension", f"tile_size {tile} does not divide the side {side}")
    out = grid.copy()
    for r in range(0, side, tile):
        for c in range(0, side, tile):
            block = WaveletCoeffs(out[r : r + tile, c : c + tile], coeffs.levels)
            out[r : r + tile, c : c + tile] = d4_inverse_2d(block)
    return out


def inverse(coeffs: WaveletCoeffs) -> np.ndarray:
    """Dispatch on the coefficient metadata (1D / 2D / tiled)."""
    if coeffs.values.ndim == 1:
        return d4_inverse_1d(coeffs)
    if coeffs.tile_size:
        return tiled_inverse_2d(coeffs)
    return d4_inverse_2d(coeffs)
