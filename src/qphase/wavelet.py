"""Pyramidal D4 wavelet transforms: 1D, separable 2D, and tiled 2D.

The analysis pair (kernels.D4_H / D4_G) is orthonormal with periodic wrap, so
every transform here preserves the sum of squares exactly and inverts exactly.
Coefficient layout is the standard in-place pyramid: after each level the
approximation occupies the leading half of the active block and the detail
the trailing half; 2D levels transform rows then columns of the shrinking
top-left block. Full depth (approximation band of 4 samples in 1D, 4x4 in 2D)
is the default. All three variants, in both directions, run one pyramid loop;
a tiled field runs it on a 4D view of itself, every tile at once. A forward
transform's first level, along both axes of a 2D field, is one sweep over
bands of whole input rows (`_first_level`): each band is checked for NaN and
Inf (`kernels.finite`), row-filtered and column-filtered in cache-sized
buffers, and analysed straight into the new coefficient array, which gets
each first-level coefficient once; the input is never written. Every later
pass, and every pass of an inverse (which starts from a copy of the
coefficients), works in place on the output through cache-sized chunks of a
batch axis, each chunk analysed (or synthesised) into a chunk-sized scratch
and copied back. So no grid-sized workspace is allocated: a forward
transform allocates its coefficient array, an inverse its output, and band-
or chunk-sized scratch. Wide bands, and a pass of more than one chunk, run
their two halves at once through `kernels.split`, each half with its own
scratch; halves never share an output sample, so the coefficients are the
same bits on either path.
"""

from __future__ import annotations

import functools
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


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not kernels.finite(arr):
        raise QPhaseError("invalid-data", f"{what} contains NaN or Inf")


def _as_real(data, what: str) -> np.ndarray:
    arr = kernels.real(data, what)
    _check_finite(arr, what)
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
# runs cost more in loop overhead than the cache saves. On two cores
# `kernels.split` halves it (see _chunks)
_RUN = 64
# a band of a forward transform's first level is _BAND_ROWS source rows, but
# no fewer than _BAND samples and no more than _WIDE; bands of _WIDE samples
# run their two halves at once (see _first_level)
_BAND = 1 << 16
_BAND_ROWS = 64
_WIDE = 1 << 18


def _chunks(block: np.ndarray, axis: int) -> tuple:
    """(batch axis, entries per chunk): block is cut along its longest axis
    other than `axis` into chunks of about _CHUNK samples, at least _RUN
    entries wide when that axis is the last one; a 1D block is one chunk,
    its whole length along axis 0.

    Chunks serve every pass but a forward transform's first level, which
    goes through bands (see _first_level). A block of more than one such
    chunk, when `kernels.split` runs the two halves of its chunks at once,
    gets chunks of half that size and width, so the two halves hold the
    scratch of one chunk between them. Column chunks of a block side of 1024
    or more are then 32 wide, below _RUN; that is the price of the memory
    bound."""
    if block.ndim == 1:
        return 0, block.size
    batch = max((ax for ax in range(block.ndim) if ax != axis), key=lambda ax: block.shape[ax])
    rows = max(1, _CHUNK * block.shape[batch] // block.size)
    if batch == block.ndim - 1:
        rows = max(rows, _RUN)
    return batch, rows


def _first_level(source: np.ndarray, out: np.ndarray, what: str) -> None:
    """A forward transform's first level along every axis, read from source
    and written into out (same shape, no overlap) in one sweep; source is
    checked with `kernels.finite` as it is read and never written.

    out is a signal (no column filter, see `_signal_level`), a square field,
    or the (strips, rows, segments, samples) view of a tiled one: a field is
    one strip of rows of one segment. A field is swept in bands of whole
    source rows (see `_bands`): _BAND_ROWS rows, but at least _BAND and at
    most _WIDE samples, or whole strips when that covers them. Bands of
    _WIDE samples, from a side of 4096 up, run their two halves through
    `kernels.split`, each half in cache; narrower bands run inline, since
    their numpy calls are too short to share two cores (at 1024^2 the first
    level took 7.9 ms inline and 14.5 ms on two threads with half-height
    bands, medians of 80 alternated calls on a 2-vCPU machine)."""
    if out.ndim == 1:
        _signal_level(source, out, what)
        return
    if out.ndim == 2:
        source, out = source[None, :, None], out[None, :, None]
    strips, rows, segments, samples = out.shape
    line = segments * samples
    band_rows = min(max(_BAND_ROWS, _BAND // line), max(2, _WIDE // line))
    unit = rows // 2 if rows <= band_rows else 1  # output row pairs per unit
    per = max(1, band_rows // 2 // unit)
    units = strips * rows // 2 // unit
    work = functools.partial(_bands, source, out, what, unit)
    if 2 * unit * per * line >= _WIDE:
        kernels.split(work, units, per)
    else:
        work(kernels._slices(units, -(-units // per)))


def _signal_level(source, out, what) -> None:
    # a signal's first level: pieces of at most _BAND samples, each
    # wrap-extended by the two samples after it
    n = out.size
    piece = min(n, _BAND)
    rows = source.reshape(-1, piece)
    low = out[:n // 2].reshape(-1, piece // 2)
    high = out[n // 2:].reshape(-1, piece // 2)
    e, o = np.empty((2, piece // 2 + 1))
    for i, row in enumerate(rows):
        after = rows[(i + 1) % len(rows)]
        e[:-1], e[-1] = row[0::2], after[0]
        o[:-1], o[-1] = row[1::2], after[1]
        _check_finite(e, what)
        _check_finite(o, what)
        kernels._d4_level(e, o, 0, (kernels.D4_H, kernels.D4_G), 1, (low[i], high[i]))


def _bands(source, out, what, unit, parts) -> None:
    """The first level of the bands of output row pairs that the slices
    `parts` cut, `unit` pairs at a time, from a (strips, rows, segments,
    samples) source: the row filter runs along samples and wraps within a
    segment, the column filter along rows and wraps within a strip.

    A band that makes output rows k0..k1 (approximation) and half+k0..half+k1
    (detail) reads source rows 2 k0 .. 2 k1 + 1, the last two wrapping to
    rows 0 and 1 at the end of a strip. Each parity of them in turn is
    copied into even and odd polyphase rows, every segment followed by its
    wrap sample, and row-filtered, flat, into the band's filtered rows. The
    column filter then shifts those flat by one row, into the polyphase
    buffer, and the rows it needs are copied into out. The bands of one
    call run in order, so a band that goes on where the last one stopped
    takes its first filtered rows from it. Every sum keeps the order of the
    plain expression, so out holds the bits of two plain passes."""
    strips, rows, segments, samples = out.shape
    half, h = rows // 2, samples // 2
    width = segments * (h + 1)  # one polyphase row: every segment wrap-extended
    most = max(part.stop - part.start for part in parts) * unit
    size = (most + -(-most // half)) * width  # filtered rows of one parity and half
    # even and odd samples of one parity, each with one spare sample that
    # the last row's unused wrap-column output reads; the column filter
    # then writes each of its two outputs into the same buffer
    polyphase = np.zeros(2 * size + 2)
    e, o = polyphase[:size + 1], polyphase[size + 1:]
    filtered = np.empty(4 * size)
    taps = (kernels.D4_H, kernels.D4_G)
    carry = None
    for part in parts:
        start, stop = part.start * unit, part.stop * unit
        while start < stop:
            strip, k0 = divmod(start, half)
            if unit == half:
                band, k1 = slice(strip, stop // half), half
            else:
                band, k1 = slice(strip, strip + 1), min(half, k0 + stop - start)
            b, m = band.stop - band.start, k1 - k0
            # (parity, approx or detail, strip, row, segment, sample)
            f = filtered[:4 * b * (m + 1) * width].reshape(2, 2, b, m + 1, segments, h + 1)
            first = 0
            if carry is not None and carry[0] == start:
                f[:, :, :, 0] = carry[1]
                first = 1
            src = source[band]
            body = src[:, 2 * (k0 + first):min(2 * k1 + 2, rows)]
            count = m + 1 - first
            reads = [body.reshape(b, -1, 2, segments, samples)]
            if reads[0].shape[1] < count:
                reads.append(src[:, None, :2])  # the wrap rows of the strip
            for read in reads:
                _check_finite(read, what)
            n = b * count * width
            pe = e[:n].reshape(b, count, segments, h + 1)
            po = o[:n].reshape(b, count, segments, h + 1)
            for parity in (0, 1):
                at = 0
                for read in reads:
                    x = read[:, :, parity]
                    got = slice(at, at + x.shape[1])
                    pe[:, got, :, :-1], pe[:, got, :, -1] = x[..., 0::2], x[..., 0]
                    po[:, got, :, :-1], po[:, got, :, -1] = x[..., 1::2], x[..., 1]
                    at = got.stop
                # a carry comes only between bands of one strip, so these
                # rows are contiguous and flatten to views
                rows_out = f[parity, :, :, first:]
                kernels._d4_level(e[:n + 1], o[:n + 1], 0, taps, 1,
                                  (rows_out[0].reshape(-1), rows_out[1].reshape(-1)))
            start += b * m
            if k1 < half:
                carry = (start, f[:, :, :, m].copy())
            # a flat shift by one filtered row: the rows that straddle two
            # strips, or the approximation and detail halves, go unused
            lines = 2 * b * (m + 1)
            even, odd = f[0].reshape(lines, width), f[1].reshape(lines, width)
            col = polyphase[:lines * width].reshape(lines, width)
            for tap, k in ((kernels.D4_H, k0), (kernels.D4_G, half + k0)):
                kernels._d4_level(even, odd, 0, (tap,), 1, (col[:-1],))
                done = col.reshape(2, b, m + 1, segments, h + 1)[:, :, :m, :, :h]
                out[band, k:k + m].reshape(b, m, segments, 2, h)[...] = \
                    done.transpose(1, 2, 3, 0, 4)


def _pass(block: np.ndarray, ax: int, forward: bool, batch: int, parts) -> None:
    """One level along ax, in place, on the chunks of block that the slices
    `parts` cut along its batch axis: each chunk is analysed (or
    synthesised) into one chunk-sized scratch and copied back while it is
    still in cache."""
    n = block.shape[ax]
    low = kernels._along(block.ndim, ax, slice(0, n // 2))
    high = kernels._along(block.ndim, ax, slice(n // 2, n))
    scratch = np.empty(0)
    for part in parts:
        chunk = block[kernels._along(block.ndim, batch, part)]
        if scratch.size < chunk.size:
            scratch = np.empty(chunk.size)
        done = scratch[:chunk.size].reshape(chunk.shape)
        if forward:
            kernels.d4_analyze(chunk, (done[low], done[high]), axis=ax)
        else:
            kernels.d4_synthesize(chunk[low], chunk[high], done, axis=ax)
        chunk[...] = done


def _pyramid(out: np.ndarray, axes, levels: int, source=None, what: str = "") -> np.ndarray:
    """Run `levels` levels along each of axes in turn, into out; returns out.

    Every axis in axes has the same length; any other axis is a batch axis,
    so a (side/t, t, side/t, t) view with axes (3, 1) moves all tiles at once.
    With a source, an array of out's shape named `what` in errors, the run
    is forward: its first level, along every axis at once, reads source in
    one sweep of bands and writes out (see `_first_level`, which takes the
    axes (0,), (1, 0) or (3, 1) of the three variants), so source is read
    once and never written; the later levels analyse out in place, from the
    whole block down. Without one, out is synthesized in place from the
    smallest block up, along the axes in reverse order, which undoes the
    forward run exactly. Each of these in-place passes along an axis works
    on cache-sized chunks of a batch axis (see `_pass`), and the two halves
    of its chunks run through `kernels.split`, each with its own scratch, so
    no grid-sized workspace is allocated.
    """
    forward = source is not None
    sizes = [out.shape[axes[0]] >> i for i in range(levels)]
    if forward:
        _first_level(source, out, what)
        sizes = sizes[1:]
    else:
        sizes.reverse()
        axes = axes[::-1]
    for n in sizes:
        block = _active(out, axes, n)
        for ax in axes:
            batch, rows = _chunks(block, ax)
            kernels.split(functools.partial(_pass, block, ax, forward, batch), block.shape[batch], rows)
    return out


def d4_forward_1d(signal, levels: int | None = None) -> WaveletCoeffs:
    x = kernels.real(signal, "signal")
    if x.ndim != 1 or x.size < 4:
        raise QPhaseError("invalid-dimension", f"signal must be 1D of length >= 4, got shape {x.shape}")
    levels = _check_levels(x.size, levels, "signal length")
    return WaveletCoeffs(_pyramid(np.empty(x.shape), (0,), levels, x, "signal"), levels)


def d4_inverse_1d(coeffs: WaveletCoeffs) -> np.ndarray:
    out = _as_real(coeffs.values, "coefficients").copy()
    if out.ndim != 1:
        raise QPhaseError("invalid-dimension", f"expected 1D coefficients, got shape {out.shape}")
    _check_levels(out.size, coeffs.levels, "signal length")
    return _pyramid(out, (0,), coeffs.levels)


def _check_square(data, what: str) -> np.ndarray:
    arr = kernels.real(data, what)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise QPhaseError("invalid-dimension", f"{what} must be square 2D, got shape {arr.shape}")
    if arr.shape[0] < 4:
        raise QPhaseError("invalid-dimension", f"{what} side must be >= 4, got {arr.shape[0]}")
    return arr


def d4_forward_2d(field, levels: int | None = None) -> WaveletCoeffs:
    grid = _check_square(field, "field")
    levels = _check_levels(grid.shape[0], levels, "field side")
    return WaveletCoeffs(_pyramid(np.empty(grid.shape), (1, 0), levels, grid, "field"), levels)


def d4_inverse_2d(coeffs: WaveletCoeffs) -> np.ndarray:
    out = _check_square(_as_real(coeffs.values, "coefficients"), "coefficients").copy()
    _check_levels(out.shape[0], coeffs.levels, "field side")
    return _pyramid(out, (1, 0), coeffs.levels)


def _tiles(grid: np.ndarray, tile: int) -> np.ndarray:
    # tile (R, C) of the square grid is the view's [R, :, C, :]
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
    out = np.empty(grid.shape)
    _pyramid(_tiles(out, tile_size), (3, 1), levels, _tiles(grid, tile_size), "field")
    return WaveletCoeffs(out, levels, tile_size=tile_size)


def tiled_inverse_2d(coeffs: WaveletCoeffs) -> np.ndarray:
    grid = _check_square(_as_real(coeffs.values, "coefficients"), "coefficients")
    side = grid.shape[0]
    tile = coeffs.tile_size
    if tile < 4 or side % tile != 0:
        raise QPhaseError("invalid-dimension", f"tile_size {tile} does not divide the side {side}")
    _check_levels(tile, coeffs.levels, "field side")
    out = grid.copy()
    _pyramid(_tiles(out, tile), (3, 1), coeffs.levels)
    return out


def inverse(coeffs: WaveletCoeffs) -> np.ndarray:
    """Dispatch on the coefficient metadata (1D / 2D / tiled)."""
    if coeffs.values.ndim == 1:
        return d4_inverse_1d(coeffs)
    if coeffs.tile_size:
        return tiled_inverse_2d(coeffs)
    return d4_inverse_2d(coeffs)
