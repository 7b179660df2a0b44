"""PGM input/output, image-to-wavefunction encoding, and heatmap rendering.

PGM is the only external image format: P2 (ASCII) and P5 (binary) with
maxval up to 255. The parser tracks its byte position so malformed files are
reported with the offset of the first offending byte. The synthetic corpus at
the bottom provides four deterministic test images spanning smooth, textured,
sparse, and self-similar content.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .errors import ParseError, QPhaseError
from .measurement import _rng
from .statevec import check_register


@dataclass
class GrayImage:
    """8-bit grayscale raster, row-major."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 2:
            raise QPhaseError("invalid-dimension", f"image must be 2D, got {px.ndim}D")
        if px.dtype != np.uint8:
            if not kernels.finite(px) or np.any(px != np.trunc(px)):
                raise QPhaseError("invalid-data", "pixel values must be finite integers")
            if np.any(px < 0) or np.any(px > 255):
                raise QPhaseError("invalid-data", "pixel values outside [0, 255]")
            px = px.astype(np.uint8)
        self.pixels = px


@dataclass
class ImageAmplitudes:
    """Unit-energy nonnegative amplitude field derived from an image."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        # a NaN energy would pass the unit-energy test below
        if not kernels.finite(v):
            raise QPhaseError("invalid-data", "amplitudes must be finite")
        if np.any(v < 0):
            raise QPhaseError("invalid-data", "amplitudes must be nonnegative")
        total = float(np.sum(v * v))
        if abs(total - 1.0) > 1e-10:
            raise QPhaseError("invalid-data", f"amplitude energy is {total}, not 1")
        self.values = v


# One token per match: a comment only where a token would start, else a
# whitespace-free run (group 1); " \t\r\n" separate tokens.
_TOKEN = re.compile(rb"#[^\n]*|([^ \t\r\n]+)")


def _next_token(tokens, what: str, size: int) -> re.Match:
    for match in tokens:
        if match.lastindex:
            return match
    raise ParseError(f"unexpected end of file while reading {what}", size)


def _integer(match: re.Match, what: str, upper: int) -> int:
    try:
        value = int(match[1])
    except ValueError:
        raise ParseError(f"{what} is not an integer: {match[1]!r}", match.start()) from None
    if not 0 <= value <= upper:
        raise ParseError(f"{what} = {value} outside [0, {upper}]", match.start())
    return value


def load_pgm(path) -> GrayImage:
    """Read a P2 or P5 PGM file; maxval above 255 is rejected."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise QPhaseError("invalid-data", f"cannot read {path}: {exc.strerror}") from None
    tokens = _TOKEN.finditer(data)
    magic = _next_token(tokens, "magic number", len(data))
    if magic[1] not in (b"P2", b"P5"):
        raise ParseError(f"unsupported magic number {magic[1]!r}", magic.start())
    width_tok = _next_token(tokens, "width", len(data))
    width = _integer(width_tok, "width", 1 << 20)
    height_tok = _next_token(tokens, "height", len(data))
    height = _integer(height_tok, "height", 1 << 20)
    if width == 0 or height == 0:
        raise ParseError("image has zero pixels",
                         (width_tok if width == 0 else height_tok).start())
    maxval_tok = _next_token(tokens, "maxval", len(data))
    maxval = _integer(maxval_tok, "maxval", 1 << 16)
    if not 1 <= maxval <= 255:
        raise ParseError(f"maxval {maxval} outside [1, 255]", maxval_tok.start())

    count = width * height
    pos = maxval_tok.end()
    if magic[1] == b"P5":
        # exactly one separator byte between maxval and the payload
        if pos >= len(data) or data[pos:pos + 1] not in b" \t\r\n":
            raise ParseError("missing separator before pixel payload", pos)
        pos += 1
        payload = data[pos:pos + count]
        if len(payload) < count:
            raise ParseError(
                f"truncated pixel payload: expected {count} bytes, got {len(payload)}",
                pos + len(payload))
        px = np.frombuffer(payload, dtype=np.uint8, count=count)
        if maxval < 255 and np.any(px > maxval):
            bad = int(np.argmax(px > maxval))
            raise ParseError(f"pixel value {int(px[bad])} exceeds maxval {maxval}",
                             pos + bad)
    else:
        # each pixel needs a digit, and all but the last a separator
        if 2 * count - 1 > len(data) - pos:
            raise ParseError(f"header declares {count} pixels but only "
                             f"{len(data) - pos} bytes follow", pos)
        px = np.empty(count, dtype=np.uint8)
        for i in range(count):
            match = _next_token(tokens, f"pixel {i}", len(data))
            v = _integer(match, f"pixel {i}", 255)
            if v > maxval:
                raise ParseError(f"pixel value {v} exceeds maxval {maxval}", match.start())
            px[i] = v
    return GrayImage(px.reshape(height, width))


def save_pgm(image: GrayImage, path) -> None:
    """Write binary PGM; load_pgm(save_pgm(x)) is pixel-identical."""
    px = image.pixels
    header = f"P5\n{px.shape[1]} {px.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + px.tobytes())


def encode_wavefunction(image: GrayImage) -> ImageAmplitudes:
    """Pixel intensities as amplitudes: a_i = p_i / sqrt(sum p^2)."""
    px = image.pixels.astype(np.float64)
    norm = float(np.sqrt(np.sum(px * px)))
    if norm == 0.0:
        raise QPhaseError("degenerate-input", "all-black image cannot be normalized")
    return ImageAmplitudes(px / norm)


def render_heatmap(grid, signed: bool, path) -> None:
    """Map a 2D field onto 8-bit gray and write it as PGM.

    Signed fields map [-m, +m] to [0, 255] with zero at 128, so sign
    structure survives as contrast around mid-gray. Unsigned fields map
    [0, max] to [0, 255].
    """
    v = np.asarray(grid, dtype=np.float64)
    if v.ndim != 2:
        raise QPhaseError("invalid-dimension", f"heatmap needs a 2D grid, got {v.ndim}D")
    if not kernels.finite(v):
        raise QPhaseError("invalid-data", "grid contains NaN or Inf")
    if signed:
        m = float(np.max(np.abs(v)))
        if m == 0.0:
            px = np.full(v.shape, 128, dtype=np.uint8)
        else:
            px = np.clip(np.rint(128.0 + (v / m) * 127.5), 0, 255).astype(np.uint8)
    else:
        if np.any(v < 0):
            raise QPhaseError("invalid-data", "unsigned heatmap given negative values")
        m = float(np.max(v))
        if m == 0.0:
            px = np.zeros(v.shape, dtype=np.uint8)
        else:
            px = np.clip(np.rint(v / m * 255.0), 0, 255).astype(np.uint8)
    save_pgm(GrayImage(px), path)


_SIGN_BIT = np.int64(np.iinfo(np.int64).min)


def write_grid_csv(grid, fh) -> None:
    """Dump a 2D grid as row,col,value lines with full float precision.

    A row whose right half is its left half, or the left half with every
    sign bit flipped (the Wigner sign rule), has only its left half
    formatted; the right half reuses those strings.
    """
    v = np.asarray(grid, dtype=np.float64)
    if v.ndim != 2:
        raise QPhaseError("invalid-dimension", f"grid dump needs 2D, got {v.ndim}D")
    fh.write("row,col,value\n")
    rows, cols = v.shape
    if cols == 0:
        return
    # One "%" call formats a whole row. "%.17g" and f"{x:.17g}" share CPython's
    # float formatter, so each line is f"{r},{c},{x:.17g}\n" to the byte. "\0"
    # marks where the row label goes.
    line = "\0" + "\0".join(f",{c},%.17g\n" for c in range(cols))
    half = cols // 2 if cols % 2 == 0 else 0
    if half:
        # the row template that takes formatted strings, and the format of
        # one half with each value "\1"-terminated for the split
        filled = "\0" + "\0".join(f",{c},%s\n" for c in range(cols))
        half_line = "%.17g\1" * half
    for r in range(rows):
        label = str(r)
        if half:
            # compared as bytes of the int64 bits, so -0.0 and NaN payloads count
            bits = v[r].view(np.int64)
            right = bits[half:].tobytes()
            mirrored = bits[:half].tobytes() == right
            if mirrored or (bits[:half] ^ _SIGN_BIT).tobytes() == right:
                texts = (half_line % tuple(v[r, :half].tolist())).split("\1")[:-1]
                # "%.17g" of -x from that of x: "nan" carries no sign
                texts += texts if mirrored else [
                    t[1:] if t[0] == "-" else t if t == "nan" else "-" + t for t in texts]
                fh.write(filled.replace("\0", label) % tuple(texts))
                continue
        # tolist() per row: Python floats format faster than numpy scalars,
        # and only one row of them exists at a time
        fh.write(line.replace("\0", label) % tuple(v[r].tolist()))


# ---------------------------------------------------------------------------
# Synthetic corpus. Four deterministic images with very different sparsity
# structure under the wavelet transform: a smooth portrait-like composition,
# band-limited texture, isolated bright spots, and a self-similar fractal.

def _grid(side: int):
    y, x = np.mgrid[0:side, 0:side]
    return y / side, x / side


def _portrait(side: int) -> np.ndarray:
    y, x = _grid(side)
    img = 0.25 + 0.3 * y
    for (cy, cx, sy, sx, amp) in (
            (0.38, 0.50, 0.18, 0.14, 0.55),
            (0.33, 0.42, 0.030, 0.035, -0.35),
            (0.33, 0.58, 0.030, 0.035, -0.35),
            (0.52, 0.50, 0.045, 0.030, -0.25),
            (0.78, 0.50, 0.22, 0.30, 0.40)):
        img += amp * np.exp(-((y - cy) ** 2 / (2 * sy ** 2) + (x - cx) ** 2 / (2 * sx ** 2)))
    return img


def _texture(side: int) -> np.ndarray:
    rng = _rng(11)
    noise = rng.standard_normal((side, side))
    f = np.fft.fftfreq(side)
    r = np.hypot(*np.meshgrid(f, f, indexing="ij"))
    band = np.exp(-((r - 0.18) / 0.06) ** 2)
    img = np.fft.ifft2(np.fft.fft2(noise) * band).real
    return img - img.min()


def _spots(side: int) -> np.ndarray:
    rng = _rng(7)
    y, x = np.mgrid[0:side, 0:side]
    img = np.full((side, side), 0.02)
    for _ in range(14):
        cy, cx = rng.integers(0, side, size=2)
        amp = 0.5 + 0.5 * rng.random()
        # wrapped so spots near the border stay round
        dy = np.minimum(np.abs(y - cy), side - np.abs(y - cy))
        dx = np.minimum(np.abs(x - cx), side - np.abs(x - cx))
        img += amp * np.exp(-(dy ** 2 + dx ** 2) / (2 * (side / 64.0) ** 2))
    return img


def _fractal(side: int) -> np.ndarray:
    # Weierstrass-type surface: one cosine product per octave with geometric
    # amplitude decay, so every scale contributes the same structure.
    y, x = np.mgrid[0:side, 0:side]
    img = np.zeros((side, side))
    for k in range(int(np.log2(side))):
        s = 1 << k
        img += 0.7 ** k * (np.cos(2 * np.pi * s * y / side + 0.7 * k)
                           * np.cos(2 * np.pi * s * x / side + 1.3 * k))
    return img


_CORPUS = {"portrait": _portrait, "texture": _texture, "spots": _spots, "fractal": _fractal}
CORPUS_NAMES = tuple(_CORPUS)


def corpus_image(name: str, side: int = 128) -> GrayImage:
    """One deterministic corpus image, quantized to 8 bits.

    A side above 2048 would be a register above the 22-qubit cap and raises
    `resource` before anything is allocated.
    """
    if side < 8 or side & (side - 1):
        raise QPhaseError("invalid-parameter", f"side must be a power of two >= 8, got {side}")
    check_register(2 * (side.bit_length() - 1), f"a {side}x{side} corpus image")
    fld = _CORPUS[name](side)
    lo, hi = float(fld.min()), float(fld.max())
    return GrayImage(np.rint((fld - lo) / (hi - lo) * 255.0).astype(np.uint8))


def synthetic_corpus(side: int = 128) -> dict:
    """Every corpus image as GrayImage, keyed by content class."""
    return {name: corpus_image(name, side) for name in CORPUS_NAMES}
