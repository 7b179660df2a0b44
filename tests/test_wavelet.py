"""D4 wavelet pyramid: filter identities, exact inversion, energy bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qphase import kernels, wavelet
from qphase.errors import QPhaseError

H = kernels.D4_H
G = kernels.D4_G


def test_filter_tap_identities():
    # exact algebraic properties of the 4-tap pair
    assert abs(H.sum() - np.sqrt(2.0)) < 1e-15          # DC gain
    assert abs(np.sum(H * H) - 1.0) < 1e-15             # unit energy
    assert abs(H[0] * H[2] + H[1] * H[3]) < 1e-15       # shift-2 self-orthogonality
    assert abs(np.sum(H * G)) < 1e-15                   # cross-orthogonality
    assert abs(G.sum()) < 1e-15                         # zeroth vanishing moment
    assert abs(np.sum(np.arange(4) * G)) < 1e-15        # first vanishing moment


def test_analysis_matrix_is_orthogonal():
    for length in (2, 8, 16):
        mat = oracles.d4_analysis_matrix(length)
        assert np.max(np.abs(mat @ mat.T - np.eye(length))) < 1e-14


def test_one_level_matches_dense_matrix():
    rng = np.random.default_rng(0)
    x = rng.normal(size=16)
    coeffs = wavelet.d4_forward_1d(x, levels=1)
    ref = oracles.d4_analysis_matrix(16) @ x
    assert np.max(np.abs(coeffs.values - ref)) < 1e-13


def test_one_2d_level_matches_dense_matrices():
    # rows then columns: one level is M X M^T
    rng = np.random.default_rng(10)
    x = rng.normal(size=(16, 16))
    coeffs = wavelet.d4_forward_2d(x, levels=1)
    mat = oracles.d4_analysis_matrix(16)
    assert np.max(np.abs(coeffs.values - mat @ x @ mat.T)) < 1e-13


def test_roundtrip_1d():
    rng = np.random.default_rng(1)
    x = rng.normal(size=1024)
    back = wavelet.d4_inverse_1d(wavelet.d4_forward_1d(x))
    assert np.max(np.abs(back - x)) < 1e-12


def test_roundtrip_2d():
    rng = np.random.default_rng(2)
    field = rng.normal(size=(256, 256))
    back = wavelet.d4_inverse_2d(wavelet.d4_forward_2d(field))
    assert np.max(np.abs(back - field)) < 1e-12


def test_roundtrip_tiled():
    rng = np.random.default_rng(3)
    field = rng.normal(size=(256, 256))
    coeffs = wavelet.tiled_forward_2d(field, 16)
    assert coeffs.tile_size == 16
    back = wavelet.tiled_inverse_2d(coeffs)
    assert np.max(np.abs(back - field)) < 1e-12


def test_parseval_all_variants():
    rng = np.random.default_rng(4)
    x = rng.normal(size=512)
    field = rng.normal(size=(64, 64))
    for coeffs, data in (
        (wavelet.d4_forward_1d(x), x),
        (wavelet.d4_forward_2d(field), field),
        (wavelet.tiled_forward_2d(field, 16), field),
    ):
        assert abs(np.sum(coeffs.values ** 2) - np.sum(data ** 2)) < 1e-10


def test_transform_preserves_inner_products():
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(2, 256))
    cx = wavelet.d4_forward_1d(x).values
    cy = wavelet.d4_forward_1d(y).values
    assert abs(np.dot(cx, cy) - np.dot(x, y)) < 1e-10


def test_constant_signal_has_zero_details():
    c = 0.731
    coeffs = wavelet.d4_forward_1d(np.full(64, c))
    levels = coeffs.levels
    approx_len = 64 >> levels
    assert np.max(np.abs(coeffs.values[approx_len:])) < 1e-12
    # each level scales the approximation by sqrt(2)
    assert np.allclose(coeffs.values[:approx_len], c * 2.0 ** (levels / 2.0), atol=1e-12)


def test_linear_ramp_detail_localizes_at_wrap():
    # two vanishing moments kill every interior detail of an affine signal;
    # only the coefficient straddling the periodic jump survives
    length = 64
    coeffs = wavelet.d4_forward_1d(np.arange(length, dtype=float), levels=1)
    detail = coeffs.values[length // 2:]
    assert np.max(np.abs(detail[:-1])) < 1e-10
    assert abs(detail[-1]) > 1.0


def test_constant_field_full_depth_single_coefficient():
    c = 2.5
    side = 32
    coeffs = wavelet.d4_forward_2d(np.full((side, side), c), levels=5)
    values = coeffs.values.copy()
    # the lone surviving coefficient carries the whole energy: c * side
    assert abs(values[0, 0] - c * side) < 1e-10
    values[0, 0] = 0.0
    assert np.max(np.abs(values)) < 1e-10


def test_single_approximation_coefficient_inverts_to_constant():
    length = 64
    vals = np.zeros(length)
    vals[0] = 1.0
    back = wavelet.d4_inverse_1d(wavelet.WaveletCoeffs(vals, levels=6))
    assert np.allclose(back, 1.0 / np.sqrt(length), atol=1e-12)
    assert abs(np.linalg.norm(back) - 1.0) < 1e-12


def test_zero_coefficients_invert_to_zero():
    back = wavelet.d4_inverse_1d(wavelet.WaveletCoeffs(np.zeros(16), levels=2))
    assert np.array_equal(back, np.zeros(16))


def test_level_bounds():
    x = np.zeros(16)
    assert wavelet.d4_forward_1d(x).levels == 2          # default log2 - 2
    assert wavelet.d4_forward_1d(x, levels=4).levels == 4  # full depth allowed
    for bad in (0, 5):
        with pytest.raises(QPhaseError) as err:
            wavelet.d4_forward_1d(x, levels=bad)
        assert err.value.category == "invalid-dimension"
    # short signals still get one level by default
    assert wavelet.d4_forward_1d(np.zeros(4)).levels == 1


def test_full_depth_roundtrips():
    rng = np.random.default_rng(6)
    x = rng.normal(size=64)
    back = wavelet.d4_inverse_1d(wavelet.d4_forward_1d(x, levels=6))
    assert np.max(np.abs(back - x)) < 1e-12
    field = rng.normal(size=(16, 16))
    back2 = wavelet.d4_inverse_2d(wavelet.d4_forward_2d(field, levels=4))
    assert np.max(np.abs(back2 - field)) < 1e-12


def test_input_validation():
    with pytest.raises(QPhaseError) as err:
        wavelet.d4_forward_1d(np.zeros(24))
    assert err.value.category == "invalid-dimension"
    with pytest.raises(QPhaseError) as err:
        wavelet.d4_forward_1d(np.zeros(2))
    assert err.value.category == "invalid-dimension"
    with pytest.raises(QPhaseError) as err:
        wavelet.d4_forward_1d(np.array([1.0, np.nan, 0.0, 0.0]))
    assert err.value.category == "invalid-data"
    with pytest.raises(QPhaseError) as err:
        wavelet.d4_forward_2d(np.zeros((8, 4)))
    assert err.value.category == "invalid-dimension"


def test_tile_size_validation():
    field = np.zeros((16, 16))
    for bad in (2, 12, 32):
        with pytest.raises(QPhaseError) as err:
            wavelet.tiled_forward_2d(field, bad)
        assert err.value.category == "invalid-dimension"


def test_tile_spanning_whole_field_matches_untiled():
    rng = np.random.default_rng(7)
    field = rng.normal(size=(32, 32))
    tiled = wavelet.tiled_forward_2d(field, 32)
    plain = wavelet.d4_forward_2d(field)
    assert np.array_equal(tiled.values, plain.values)
    assert tiled.levels == plain.levels


def test_tiles_conserve_energy_independently():
    rng = np.random.default_rng(8)
    field = rng.normal(size=(32, 32))
    coeffs = wavelet.tiled_forward_2d(field, 8)
    for r in range(0, 32, 8):
        for c in range(0, 32, 8):
            tile_energy = np.sum(field[r:r + 8, c:c + 8] ** 2)
            coef_energy = np.sum(coeffs.values[r:r + 8, c:c + 8] ** 2)
            assert abs(tile_energy - coef_energy) < 1e-10


def test_inverse_dispatcher():
    rng = np.random.default_rng(9)
    x = rng.normal(size=32)
    field = rng.normal(size=(16, 16))
    assert np.max(np.abs(wavelet.inverse(wavelet.d4_forward_1d(x)) - x)) < 1e-12
    assert np.max(np.abs(wavelet.inverse(wavelet.d4_forward_2d(field)) - field)) < 1e-12
    assert np.max(np.abs(wavelet.inverse(wavelet.tiled_forward_2d(field, 4)) - field)) < 1e-12


def _reference_levels(x, axes, sizes, forward):
    # the pyramid one whole pass at a time from the plain level expressions,
    # yielding a copy after each level; a forward pass stores (approx,
    # detail) back to back along its axis
    out = x.copy()
    for n in sizes:
        index = [slice(None)] * x.ndim
        for ax in axes:
            index[ax] = slice(0, n)
        block = out[tuple(index)]
        for ax in axes:
            if forward:
                block[...] = np.concatenate(oracles.d4_level_reference(block, ax), axis=ax)
            else:
                block[...] = oracles.d4_synthesis_level_reference(*np.split(block, 2, axis=ax), ax)
        yield out.copy()


@pytest.mark.parametrize("side", [1024, 2048])
def test_chunked_pyramid_is_bit_identical_to_the_plain_levels(side):
    # sides whose passes span several chunks; 1D, 2D and tiled (tile 16),
    # forward and inverse, every level count from one to full depth
    rng = np.random.default_rng(side)
    field = rng.normal(size=(side, side))
    cases = [(rng.normal(size=side), (0,), side),
             (field, (1, 0), side),
             (wavelet._tiles(field.copy(), 16), (3, 1), 16)]
    for x, axes, length in cases:
        sizes = [length >> i for i in range(length.bit_length() - 1)]
        # a forward run of L levels is the first L levels of the deepest one
        for levels, ref in enumerate(_reference_levels(x, axes, sizes, True), 1):
            got = wavelet._pyramid(np.empty(x.shape), axes, levels, x)
            assert np.array_equal(got, ref), (x.shape, levels, "forward")
        for levels in range(1, len(sizes) + 1):
            *_, ref = _reference_levels(x, axes[::-1], sizes[levels - 1::-1], False)
            got = wavelet._pyramid(x.copy(), axes, levels)
            assert np.array_equal(got, ref), (x.shape, levels, "inverse")


def test_forward_2d_needs_no_grid_sized_workspace():
    # the coefficient array is the only input-sized allocation: the first
    # pass analyses the input straight into it, with no copy of the input
    rng = np.random.default_rng(11)
    field = rng.normal(size=(2048, 2048))
    for forward in (wavelet.d4_forward_2d, lambda f: wavelet.tiled_forward_2d(f, 16)):
        peak = oracles.traced_peak(lambda: forward(field))
        assert field.nbytes <= peak <= field.nbytes + (4 << 20)
    # a 1D pass is one chunk: after the first, each pass over a block of n
    # holds a scratch of n and the stencil's products of n/2, so the peak is
    # the coefficients plus a half and a quarter of them (2.5 with a copy)
    signal = rng.normal(size=1 << 20)
    peak = oracles.traced_peak(lambda: wavelet.d4_forward_1d(signal))
    assert peak <= 1.75 * signal.nbytes + (1 << 16)


def test_forward_transforms_never_write_their_input():
    # a read-only input works, and its bytes stay as they were
    rng = np.random.default_rng(12)
    field = rng.normal(size=(512, 512))
    signal = rng.normal(size=1 << 12)
    for forward, x in ((wavelet.d4_forward_1d, signal),
                       (wavelet.d4_forward_2d, field),
                       (lambda f: wavelet.tiled_forward_2d(f, 16), field)):
        before = x.tobytes()
        x.setflags(write=False)
        coeffs = forward(x)
        assert x.tobytes() == before
        assert not np.shares_memory(coeffs.values, x)


# Fixed example sequence and no per-example deadline: the suite must give the
# same verdict on every run, also on a loaded machine.
_PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)
_SEEDS = st.integers(0, 2 ** 32 - 1)


@st.composite
def _side_and_levels(draw, lo: int, hi: int):
    side = 1 << draw(st.integers(lo, hi))
    return side, draw(st.integers(1, side.bit_length() - 1))


@st.composite
def _side_and_tile(draw):
    k = draw(st.integers(2, 5))
    return 1 << draw(st.integers(k, 7)), 1 << k


@_PROPERTY
@given(_side_and_levels(2, 12), _SEEDS)
def test_property_1d_roundtrip_and_parseval(shape, seed):
    length, levels = shape
    x = np.random.default_rng(seed).normal(size=length)
    coeffs = wavelet.d4_forward_1d(x, levels)
    assert np.max(np.abs(wavelet.d4_inverse_1d(coeffs) - x)) < 1e-12
    assert abs(np.sum(coeffs.values ** 2) - np.sum(x ** 2)) < 1e-10


@_PROPERTY
@given(_side_and_levels(2, 7), _SEEDS)
def test_property_2d_roundtrip_and_parseval(shape, seed):
    side, levels = shape
    field = np.random.default_rng(seed).normal(size=(side, side))
    coeffs = wavelet.d4_forward_2d(field, levels)
    assert np.max(np.abs(wavelet.d4_inverse_2d(coeffs) - field)) < 1e-12
    assert abs(np.sum(coeffs.values ** 2) - np.sum(field ** 2)) < 1e-10


@_PROPERTY
@given(_side_and_tile(), _SEEDS)
def test_property_tiled_roundtrip_parseval_and_per_tile_definition(shape, seed):
    side, tile = shape
    field = np.random.default_rng(seed).normal(size=(side, side))
    coeffs = wavelet.tiled_forward_2d(field, tile)
    assert np.max(np.abs(wavelet.tiled_inverse_2d(coeffs) - field)) < 1e-12
    assert abs(np.sum(coeffs.values ** 2) - np.sum(field ** 2)) < 1e-10
    # all tiles move through a level together; each must still equal its own
    # full-depth 2D transform, bit for bit
    for r in range(0, side, tile):
        for c in range(0, side, tile):
            alone = wavelet.d4_forward_2d(field[r:r + tile, c:c + tile])
            assert alone.levels == coeffs.levels
            assert np.array_equal(coeffs.values[r:r + tile, c:c + tile], alone.values)


def test_split_pyramid_is_bit_identical_to_the_inline_pyramid(monkeypatch):
    # 2D and tiled passes at 1024^2 span several chunks, so both halves of
    # their chunks run; every pass of a 1D pyramid is one chunk, run inline
    rng = np.random.default_rng(19)
    field = rng.normal(size=(1024, 1024))
    cases = ((wavelet.d4_forward_1d, rng.normal(size=1 << 17), 1),
             (wavelet.d4_forward_2d, field, 2),
             (lambda f: wavelet.tiled_forward_2d(f, 16), field, 2))
    for forward, x, ran_on in cases:
        two, one, threads = oracles.on_both_paths(monkeypatch, lambda: forward(x))
        assert two.values.tobytes() == one.values.tobytes() and threads == ran_on
        two, one, threads = oracles.on_both_paths(monkeypatch, lambda: wavelet.inverse(two))
        assert two.tobytes() == one.tobytes() and threads == ran_on


def _category(call):
    with pytest.raises(QPhaseError) as exc:
        call()
    return exc.value.category


def test_nan_or_inf_in_the_last_chunk_is_found_on_both_split_paths(monkeypatch):
    # the first level checks each band as it reads it; the last band of a
    # 512^2 field runs on the helper thread when the bands are split, which
    # the first level does for bands of _WIDE samples, here set to the 2^16
    # samples of a 512^2 band
    monkeypatch.setattr(wavelet, "_WIDE", wavelet._BAND)
    for bad in (np.nan, np.inf, -np.inf):
        field = np.zeros((512, 512))
        field[-1, -1] = bad
        for forward in (wavelet.d4_forward_2d, lambda f: wavelet.tiled_forward_2d(f, 16)):
            two, one, threads = oracles.on_both_paths(
                monkeypatch, lambda: _category(lambda: forward(field)))
            assert two == one == "invalid-data" and threads == 2


def test_input_check_finds_nan_and_inf_in_any_block():
    # a bad value anywhere in a large grid, and in a short signal, is found
    for bad in (np.nan, np.inf, -np.inf):
        field = np.zeros((512, 512))
        field[-1, -1] = bad
        signal = np.zeros(64)
        signal[3] = bad
        for call in (lambda: wavelet.d4_forward_2d(field),
                     lambda: wavelet.tiled_forward_2d(field, 16),
                     lambda: wavelet.d4_forward_1d(signal)):
            with pytest.raises(QPhaseError) as exc:
                call()
            assert exc.value.category == "invalid-data"


def _first_level(x, axes):
    return wavelet._pyramid(np.empty(x.shape), axes, 1, x)


def _narrow_bands(monkeypatch, rows: int) -> None:
    # on 64-sample lines: bands of `rows` source rows (rows / 2 output row
    # pairs), 1D pieces of 8 samples, and every band count above one split
    # over two threads
    monkeypatch.setattr(wavelet, "_BAND", 8)
    monkeypatch.setattr(wavelet, "_BAND_ROWS", rows)
    monkeypatch.setattr(wavelet, "_WIDE", rows * 64)


@pytest.mark.parametrize("rows", [2, 6, 10, 32])
def test_first_level_bands_are_bit_identical_to_the_plain_level(monkeypatch, rows):
    # on 64^2 and 64 samples: with 6 rows a band makes 3 row pairs, so the
    # 32 pairs of a 2D field are 11 bands inline (an odd count, the first
    # short) and 22 split; with tile 32 a band runs past the end of a strip
    # and is cut there (a short band that wraps, then the next strip); with
    # 32 rows a band is two whole strips of tile 16. The last band of every
    # strip, and the last piece of the signal, wraps to its first rows
    _narrow_bands(monkeypatch, rows)
    rng = np.random.default_rng(20 + rows)
    field = rng.normal(size=(64, 64))
    cases = [(rng.normal(size=64), (0,), 64), (field, (1, 0), 64),
             (wavelet._tiles(field, 16), (3, 1), 16), (wavelet._tiles(field, 32), (3, 1), 32)]
    for x, axes, length in cases:
        ref = next(_reference_levels(x, axes, [length], True))
        two, one, _ = oracles.on_both_paths(monkeypatch, lambda: _first_level(x, axes))
        assert np.array_equal(two, ref) and np.array_equal(one, ref), (x.shape, rows)


@pytest.mark.parametrize("row", [0, 1, 63])
def test_nan_or_inf_in_a_wrap_row_is_found_on_both_split_paths(monkeypatch, row):
    # rows 0 and 1 are read by the first band and again by the last, as its
    # wrap rows; the last row only by the last band
    _narrow_bands(monkeypatch, 6)
    for bad in (np.nan, np.inf, -np.inf):
        field = np.zeros((64, 64))
        field[row, row] = bad
        signal = np.zeros(64)
        signal[row] = bad
        for forward, x in ((wavelet.d4_forward_2d, field), (wavelet.d4_forward_1d, signal),
                           (lambda f: wavelet.tiled_forward_2d(f, 16), field),
                           (lambda f: wavelet.tiled_forward_2d(f, 32), field)):
            two, one, _ = oracles.on_both_paths(
                monkeypatch, lambda: _category(lambda: forward(x)))
            assert two == one == "invalid-data", (row, bad)


_COMPLEX = np.ones((8, 8)) + 1j


@pytest.mark.parametrize("call", [
    lambda: wavelet.d4_forward_1d(_COMPLEX[0]),
    lambda: wavelet.d4_forward_2d(_COMPLEX),
    lambda: wavelet.tiled_forward_2d(_COMPLEX, 4),
    lambda: wavelet.d4_inverse_1d(wavelet.WaveletCoeffs(_COMPLEX[0], 1)),
    lambda: wavelet.d4_inverse_2d(wavelet.WaveletCoeffs(_COMPLEX, 1)),
    lambda: wavelet.tiled_inverse_2d(wavelet.WaveletCoeffs(_COMPLEX, 1, tile_size=4)),
    lambda: wavelet.inverse(wavelet.WaveletCoeffs(_COMPLEX, 1)),
], ids=["forward_1d", "forward_2d", "tiled_forward", "inverse_1d", "inverse_2d",
        "tiled_inverse", "inverse"])
def test_complex_input_is_refused_not_cast(call):
    # a float64 cast would keep the real part with only a ComplexWarning
    assert _category(call) == "invalid-data"
