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
    xi_wavelet. Each row squares the field it holds (the grid's left half W,
    |H| or the coefficients) through `entropy_of_squares`, so no row makes
    a squared copy. Husimi rows read |H| as the amplitude field, which no
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


def _check_fourth(fourth: float) -> None:
    # NaN or Inf anywhere, or a^4 past the float range, makes the sum of
    # fourth powers non-finite, and with it every ratio taken from it
    if not math.isfinite(fourth):
        raise QPhaseError("invalid-data", "values hold NaN or Inf, or a^4 overflows")


def ipr(amplitudes) -> float:
    """Participation ratio xi = (sum a^2)^2 / sum a^4 of a real amplitude
    field, such as |H|, image amplitudes or D4 coefficients; the sign of
    each amplitude does not matter, and xi is scale-invariant."""
    second, fourth = kernels.square_sums(amplitudes)
    _check_fourth(fourth)
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
    _check_fourth(fourth)
    if fourth == 0.0:
        raise QPhaseError("degenerate-input", "all-zero grid has no participation ratio")
    return 1.0 / ((v.shape[0] // 2) ** 2 * fourth)


def _entropy(load, n: int, signed: bool) -> float:
    # the two passes of `entropy` and `entropy_of_squares` over the n values
    # that load(piece, buffer) returns, one `kernels.blocks` piece at a time:
    # a view of the weights, or the piece's scaled squares in the buffer
    pieces = kernels.blocks(n)
    # one entry per piece, each written by the one slice that holds the piece
    sums = [0.0] * len(pieces)
    negative = [False] * len(pieces)
    longest = pieces[0].stop if pieces else 0  # no piece is longer than the first

    def check(parts) -> None:
        buf = np.empty(longest)
        for part in parts:
            for i in range(part.start, part.stop):
                chunk = load(pieces[i], buf)
                if signed:
                    negative[i] = bool(np.any(chunk < 0))
                sums[i] = np.sum(chunk)

    kernels.split(check, len(pieces), 1)
    if any(negative):
        raise QPhaseError("invalid-parameter", "weights must be nonnegative")
    total = kernels.add_in_order(sums)
    if not math.isfinite(total):
        raise QPhaseError("invalid-data", f"weights sum to {total}: NaN, Inf or overflow")
    if total == 0.0:
        raise QPhaseError("degenerate-input", "all weights are zero")
    if abs(total - 1.0) > 1e-8:
        warnings.warn(f"weights sum to {total:.6g}; renormalizing")

    def terms(parts) -> None:
        p, ln = np.empty(longest), np.empty(longest)
        for part in parts:
            for i in range(part.start, part.stop):
                chunk = load(pieces[i], p)
                q, lq = p[:chunk.size], ln[:chunk.size]
                np.divide(chunk, total, out=q)
                np.add(q, q == 0.0, out=lq)
                np.log(lq, out=lq)
                q *= lq
                sums[i] = np.sum(q)

    kernels.split(terms, len(pieces), 1)
    return -kernels.add_in_order(sums) / math.log(2.0)


def entropy(weights) -> float:
    """Shannon entropy in bits of a weight vector, renormalized internally.

    The weights are read in the pieces of the blocked sum rule
    (`kernels.blocks`, at most `kernels.BLOCK` samples each), in two passes
    through `kernels.split`. The first checks the signs and sums each piece.
    The second turns each piece into p ln(p + [p = 0]) in a piece buffer, so
    a zero weight gives 0 ln 1 = 0, and sums it. Each pass adds its piece
    sums left to right (`kernels.add_in_order`), so no weight-sized array is
    made and the bits depend on the weights alone, not on the pass order.
    A scan row's weights are squares of a field it holds; it passes the
    field to `entropy_of_squares` instead, which makes no squared copy.
    """
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    return _entropy(lambda piece, buf: w[piece], w.size, signed=True)


def entropy_of_squares(values, scale: float = 1.0) -> float:
    """`entropy` of the weights scale * v^2 over every entry v of values,
    bit for bit, with no field-sized array.

    Both passes square the values of each piece of the blocked sum rule into
    their piece buffer and scale them in place, so each weight has the bits
    of `v * v * scale` taken over the whole field. The values are read
    through row views, so a column slice of a grid is not copied. Squares
    have no sign to check; NaN or Inf in values, or squares past the float
    range, make the total non-finite and raise `invalid-data`. In exact
    arithmetic the entropy does not depend on scale; the rows pass the scale
    that makes their weights sum to about 1, so no renormalization warning
    is raised and S keeps the bits of the weights they once built whole.
    """
    scale = float(scale)
    if not (math.isfinite(scale) and scale > 0.0):
        raise QPhaseError("invalid-parameter", f"scale must be finite and > 0, got {scale}")
    rows = np.asarray(values, dtype=np.float64)
    if rows.ndim != 2:  # a 2D array, a column slice included, is read as it is
        rows = rows.reshape(1, -1)
    width = rows.shape[1]

    def squares(piece, buf):
        # the piece's whole rows in one call, its partial rows one each
        out = buf[:piece.stop - piece.start]
        done = 0
        while done < out.size:
            r, c = divmod(piece.start + done, width)
            if c == 0 and out.size - done >= width:
                m = (out.size - done) // width
                src, dst = rows[r:r + m], out[done:done + m * width].reshape(m, width)
            else:
                m = min(width - c, out.size - done)
                src, dst = rows[r, c:c + m], out[done:done + m]
            np.multiply(src, src, out=dst)
            done += dst.size
        out *= scale
        return out

    return _entropy(squares, rows.size, signed=False)


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
    if not (kernels.finite(ns) and kernels.finite(xs)):
        raise QPhaseError("invalid-data", "n_q and xi values must be finite")
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
    normalized on its own (4N W^2), plus one bit. `entropy_of_squares`
    squares the view full[:, :N] piece by piece, so the row holds at most
    the grid and the one grid-sized array of the D4 transform.
    """
    params = rotator.RotatorParams(n_q=n_q, K=K)
    psi = rotator.evolve(rotator.initial_band_state(params), params, t)
    grid = wigner.wigner_from_momentum(psi)
    full = grid.values
    S = entropy_of_squares(full[:, :grid.N], 4 * grid.N) + 1.0
    return ScanRow(K=K, n_q=n_q, xi_raw=wigner_ipr(full),
                   xi_wavelet=wigner_ipr(wavelet.d4_forward_2d(full).values), S=S)


def husimi_scan_row(K: float, n_q: int, t: int) -> ScanRow:
    """Modified-Husimi localization measures for the evolved band state.

    The participation ratios read the modulus |H| as an amplitude field, the
    wavelet one after the D4 transform of |H|; S is the entropy of |H|^2,
    squared piece by piece from |H|.
    """
    if n_q % 2 != 0:
        raise QPhaseError("invalid-parameter", f"need even n_q, got {n_q}")
    params = rotator.RotatorParams(n_q=n_q, K=K)
    psi = rotator.evolve(rotator.initial_band_state(params), params, t)
    grid = husimi_mod.modified_husimi(psi)
    mod = np.abs(grid.H)
    return ScanRow(K=K, n_q=n_q, xi_raw=ipr(mod),
                   xi_wavelet=ipr(wavelet.d4_forward_2d(mod).values),
                   S=entropy_of_squares(mod))


def image_scan_row(amplitudes: np.ndarray, n_q: int, tile_size: int = 0) -> ScanRow:
    """Wavelet-domain localization of an image amplitude field; S is the
    entropy of the squared wavelet coefficients, squared piece by piece."""
    if tile_size:
        coeffs = wavelet.tiled_forward_2d(amplitudes, tile_size)
    else:
        coeffs = wavelet.d4_forward_2d(amplitudes)
    c = coeffs.values
    return ScanRow(K=0.0, n_q=n_q, xi_raw=ipr(amplitudes), xi_wavelet=ipr(c),
                   S=entropy_of_squares(c))
