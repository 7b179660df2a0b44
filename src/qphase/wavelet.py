"""Pyramidal D4 wavelet transforms: 1D, separable 2D, and tiled 2D.

The analysis pair (kernels.D4_H / D4_G) is orthonormal with periodic wrap, so
every transform here preserves the sum of squares exactly and inverts exactly.
Coefficient layout is the standard in-place pyramid: after each level the
approximation occupies the leading half of the active block and the detail
the trailing half; 2D levels transform rows then columns of the shrinking
top-left block. Full depth (approximation band of 4 samples in 1D, 4x4 in 2D)
is the default. All three variants, in both directions, run one pyramid loop;
a tiled field runs it on a 4D view of itself, every tile at once. The loop
works in place on the coefficient array: each pass along an axis goes
through cache-sized chunks of a batch axis, each analysed (or synthesised)
into a chunk-sized scratch and copied back, so no grid-sized workspace is
allocated and a 2D transform costs its input plus one coefficient copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import QPhaseError
from .statevec import log2_exact


@dataclass
class WaveletCoeffs:
    """D4 coefficients plus the metadata needed to invert them.

    tile_size 0 means untiled; otherwise the 2D field was transformed in
    independent tile_size x tile_size blocks, each at full depth.
    """

    values: np.ndarray
    levels: int
    tile_size: int = 0


def _check_levels(length: int, levels, what: str) -> int:
    # the last allowed level analyzes a 2-sample block, where the wrapped D4
    # pair collapses to the orthonormal Haar pair (h0+h2 = h1+h3 = 1/sqrt(2))
    max_levels = log2_exact(length, what)
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


def _active(arr: np.ndarray, axes, n: int) -> np.ndarray:
    """View of arr cut to its leading n entries along each of axes."""
    index = [slice(None)] * arr.ndim
    for ax in axes:
        index[ax] = slice(0, n)
    return arr[tuple(index)]


# samples per chunk of a pass: the chunk, its analysed or synthesised copy
# and the stencil's product buffer stay in cache together
_CHUNK = 1 << 16
# least entries per chunk along a batch axis that is the contiguous last
# axis: a chunk of columns is iterated in runs of this length, and shorter
# runs cost more in loop overhead than the cache saves
_RUN = 64


def _chunks(block: np.ndarray, axis: int) -> list:
    """Index tuples that cut block along its longest axis other than `axis`
    into chunks of about _CHUNK samples, at least _RUN entries wide when that
    axis is the last one; a 1D block is one chunk."""
    if block.ndim == 1:
        return [()]
    batch = max((ax for ax in range(block.ndim) if ax != axis), key=lambda ax: block.shape[ax])
    rows = max(1, _CHUNK * block.shape[batch] // block.size)
    if batch == block.ndim - 1:
        rows = max(rows, _RUN)
    return [kernels._along(block.ndim, batch, slice(i, i + rows))
            for i in range(0, block.shape[batch], rows)]


def _pyramid(out: np.ndarray, axes, levels: int, forward: bool) -> np.ndarray:
    """Run `levels` levels of out in place, along each of axes in turn.

    Every axis in axes has the same length; any other axis is a batch axis,
    so a (side/t, t, side/t, t) view with axes (3, 1) moves all tiles at once.
    The forward direction analyzes from the whole block down; the inverse
    synthesizes from the smallest block up, along the axes in reverse order,
    so it undoes the forward run exactly. Each pass along an axis works on
    cache-sized chunks of a batch axis: a chunk is analysed (or synthesised)
    into a chunk-sized scratch and copied back while it is still in cache,
    so no grid-sized workspace is allocated.
    """
    sizes = [out.shape[axes[0]] >> i for i in range(levels)]
    if not forward:
        sizes.reverse()
        axes = axes[::-1]
    scratch = np.empty(0)
    for n in sizes:
        block = _active(out, axes, n)
        for ax in axes:
            low = kernels._along(block.ndim, ax, slice(0, n // 2))
            high = kernels._along(block.ndim, ax, slice(n // 2, n))
            for part in _chunks(block, ax):
                chunk = block[part]
                if scratch.size < chunk.size:
                    scratch = np.empty(chunk.size)
                done = scratch[:chunk.size].reshape(chunk.shape)
                if forward:
                    kernels.d4_analyze(chunk, (done[low], done[high]), axis=ax)
                else:
                    kernels.d4_synthesize(chunk[low], chunk[high], done, axis=ax)
                chunk[...] = done
    return out


def d4_forward_1d(signal, levels: int | None = None) -> WaveletCoeffs:
    x = _as_real(signal, "signal")
    if x.ndim != 1 or x.size < 4:
        raise QPhaseError("invalid-dimension", f"signal must be 1D of length >= 4, got shape {x.shape}")
    levels = _check_levels(x.size, levels, "signal length")
    return WaveletCoeffs(_pyramid(x.copy(), (0,), levels, True), levels)


def d4_inverse_1d(coeffs: WaveletCoeffs) -> np.ndarray:
    out = _as_real(coeffs.values, "coefficients").copy()
    if out.ndim != 1:
        raise QPhaseError("invalid-dimension", f"expected 1D coefficients, got shape {out.shape}")
    _check_levels(out.size, coeffs.levels, "signal length")
    return _pyramid(out, (0,), coeffs.levels, False)


def _check_square(field, what: str) -> np.ndarray:
    arr = _as_real(field, what)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise QPhaseError("invalid-dimension", f"{what} must be square 2D, got shape {arr.shape}")
    if arr.shape[0] < 4:
        raise QPhaseError("invalid-dimension", f"{what} side must be >= 4, got {arr.shape[0]}")
    return arr


def d4_forward_2d(field, levels: int | None = None) -> WaveletCoeffs:
    grid = _check_square(field, "field")
    levels = _check_levels(grid.shape[0], levels, "field side")
    return WaveletCoeffs(_pyramid(grid.copy(), (1, 0), levels, True), levels)


def d4_inverse_2d(coeffs: WaveletCoeffs) -> np.ndarray:
    out = _check_square(coeffs.values, "coefficients").copy()
    _check_levels(out.shape[0], coeffs.levels, "field side")
    return _pyramid(out, (1, 0), coeffs.levels, False)


def _tiles(grid: np.ndarray, tile: int) -> np.ndarray:
    # tile (R, C) of the C-ordered copy is the view's [R, :, C, :]
    side = grid.shape[0]
    return grid.reshape(side // tile, tile, side // tile, tile)


def tiled_forward_2d(field, tile_size: int) -> WaveletCoeffs:
    """Independent full-depth 2D transform inside every tile."""
    grid = _check_square(field, "field")
    side = grid.shape[0]
    log2_exact(tile_size, "tile_size")
    if tile_size < 4 or side % tile_size != 0:
        raise QPhaseError("invalid-dimension",
                          f"tile_size {tile_size} must be >= 4 and divide the side {side}")
    levels = _check_levels(tile_size, None, "field side")
    out = grid.copy()
    _pyramid(_tiles(out, tile_size), (3, 1), levels, True)
    return WaveletCoeffs(out, levels, tile_size=tile_size)


def tiled_inverse_2d(coeffs: WaveletCoeffs) -> np.ndarray:
    grid = _check_square(coeffs.values, "coefficients")
    side = grid.shape[0]
    tile = coeffs.tile_size
    if tile < 4 or side % tile != 0:
        raise QPhaseError("invalid-dimension", f"tile_size {tile} does not divide the side {side}")
    _check_levels(tile, coeffs.levels, "field side")
    out = grid.copy()
    _pyramid(_tiles(out, tile), (3, 1), coeffs.levels, False)
    return out


def inverse(coeffs: WaveletCoeffs) -> np.ndarray:
    """Dispatch on the coefficient metadata (1D / 2D / tiled)."""
    if coeffs.values.ndim == 1:
        return d4_inverse_1d(coeffs)
    if coeffs.tile_size:
        return tiled_inverse_2d(coeffs)
    return d4_inverse_2d(coeffs)
