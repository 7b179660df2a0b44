"""PGM parsing and writing, wavefunction encoding, heatmaps, the corpus."""

import io
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from qphase import imageio
from qphase.errors import ParseError, QPhaseError

# 2x2 binary fixture used across the parser tests
P5_FIXTURE = b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64])


def test_load_p5_fixture(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(P5_FIXTURE)
    img = imageio.load_pgm(path)
    assert img.pixels.dtype == np.uint8
    assert np.array_equal(img.pixels, [[0, 255], [128, 64]])


def test_load_p2_with_comments(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2\n# a comment\n2 2 # trailing\n255\n0 255\n128 64\n")
    img = imageio.load_pgm(path)
    assert np.array_equal(img.pixels, [[0, 255], [128, 64]])


def test_save_load_roundtrip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(43)
    px = rng.integers(0, 256, size=(17, 9), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    imageio.save_pgm(imageio.GrayImage(px), path)
    again = imageio.load_pgm(path)
    assert np.array_equal(again.pixels, px)
    # writing the loaded image reproduces the file byte for byte
    path2 = tmp_path / "img2.pgm"
    imageio.save_pgm(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_truncated_payload_reports_byte_counts(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128]))  # one byte short
    with pytest.raises(ParseError) as err:
        imageio.load_pgm(path)
    assert "expected 4 bytes, got 3" in str(err.value)
    assert err.value.byte_offset == len(b"P5\n2 2\n255\n") + 3
    assert err.value.category == "parse"


def test_bad_magic_number(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(ParseError) as err:
        imageio.load_pgm(path)
    assert err.value.byte_offset == 0


def test_maxval_out_of_range(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(ParseError) as err:
        imageio.load_pgm(path)
    assert "maxval" in str(err.value)


def test_pixel_above_maxval_located(tmp_path):
    path = tmp_path / "img.pgm"
    header = b"P5\n2 2\n100\n"
    path.write_bytes(header + bytes([0, 99, 101, 5]))
    with pytest.raises(ParseError) as err:
        imageio.load_pgm(path)
    assert err.value.byte_offset == len(header) + 2


def test_p2_pixel_above_maxval_located_at_its_token(tmp_path):
    path = tmp_path / "img.pgm"
    data = b"P2\n2 1\n100\n1   200\n"
    path.write_bytes(data)
    with pytest.raises(ParseError) as err:
        imageio.load_pgm(path)
    assert err.value.byte_offset == data.index(b"200")


def test_p2_maxval_out_of_range_located_at_its_token(tmp_path):
    path = tmp_path / "img.pgm"
    data = b"P2\n2 1\n   300\n1 2\n"
    path.write_bytes(data)
    with pytest.raises(ParseError) as err:
        imageio.load_pgm(path)
    assert err.value.byte_offset == data.index(b"300")


def test_zero_pixel_image_located_at_the_zero(tmp_path):
    # the width token when the width is zero, else the height token
    path = tmp_path / "img.pgm"
    for data, offset in ((b"P2\n0 5\n255\n", 3), (b"P2\n5 0\n255\n", 5)):
        path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            imageio.load_pgm(path)
        assert "zero pixels" in str(err.value)
        assert err.value.byte_offset == offset


def test_p2_non_integer_pixel(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2\n2 1\n255\n12 zz\n")
    with pytest.raises(ParseError) as err:
        imageio.load_pgm(path)
    assert err.value.category == "parse"


def test_p2_header_larger_than_file(tmp_path):
    # 2^40 declared pixels in a 29-byte file: rejected before any allocation
    path = tmp_path / "img.pgm"
    header = b"P2\n1048576 1048576\n255"
    path.write_bytes(header + b"\n0 0 0\n")
    with pytest.raises(ParseError) as err:
        imageio.load_pgm(path)
    assert err.value.byte_offset == len(header)
    assert "1099511627776 pixels" in str(err.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 3.7, 254.5])
def test_gray_image_rejects_non_finite_or_fractional_pixels(bad):
    # NaN used to become an arbitrary byte (with a RuntimeWarning) and 3.7 a 3
    px = np.full((2, 2), 7.0)
    px[1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QPhaseError) as err:
            imageio.GrayImage(px)
    assert err.value.category == "invalid-data"


def test_gray_image_takes_integral_floats_as_bytes():
    img = imageio.GrayImage(np.array([[0.0, 3.0], [128.0, 255.0]]))
    assert img.pixels.dtype == np.uint8
    assert img.pixels.tolist() == [[0, 3], [128, 255]]


def test_encode_uniform_image():
    side = 8
    img = imageio.GrayImage(np.full((side, side), 7, dtype=np.uint8))
    amps = imageio.encode_wavefunction(img)
    assert np.allclose(amps.values, 1.0 / side, atol=1e-15)


def test_encode_single_white_pixel():
    px = np.zeros((4, 4), dtype=np.uint8)
    px[1, 2] = 255
    amps = imageio.encode_wavefunction(imageio.GrayImage(px))
    assert amps.values[1, 2] == 1.0
    assert np.count_nonzero(amps.values) == 1


def test_encode_all_black_rejected():
    with pytest.raises(QPhaseError) as err:
        imageio.encode_wavefunction(imageio.GrayImage(np.zeros((4, 4), dtype=np.uint8)))
    assert err.value.category == "degenerate-input"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_amplitudes_must_be_finite(bad):
    # a NaN energy compares false with everything, so the unit-energy test
    # alone would let NaN through
    values = np.full((4, 4), 0.25)
    values[2, 3] = bad
    with pytest.raises(QPhaseError) as err:
        imageio.ImageAmplitudes(values)
    assert err.value.category == "invalid-data"


def test_encode_decode_within_one_gray_level(tmp_path):
    rng = np.random.default_rng(44)
    px = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    px[0, 0] = 255  # pin the peak so the scale is exactly 255
    amps = imageio.encode_wavefunction(imageio.GrayImage(px))
    path = tmp_path / "back.pgm"
    imageio.render_heatmap(amps.values, signed=False, path=path)
    back = imageio.load_pgm(path)
    assert np.max(np.abs(back.pixels.astype(int) - px.astype(int))) <= 1


def test_signed_heatmap_levels(tmp_path):
    grid = np.array([[-2.0, 0.0], [2.0, 1.0]])
    path = tmp_path / "h.pgm"
    imageio.render_heatmap(grid, signed=True, path=path)
    px = imageio.load_pgm(path).pixels
    assert px[0, 0] == 0      # -m maps to black
    assert px[0, 1] == 128    # zero maps to mid-gray
    assert px[1, 0] == 255    # +m maps to white
    assert 128 < px[1, 1] < 255


def test_signed_heatmap_zero_grid_is_mid_gray(tmp_path):
    path = tmp_path / "h.pgm"
    imageio.render_heatmap(np.zeros((3, 3)), signed=True, path=path)
    assert np.all(imageio.load_pgm(path).pixels == 128)


def test_signed_heatmap_is_monotone(tmp_path):
    values = np.linspace(-1.0, 1.0, 32).reshape(1, -1)
    path = tmp_path / "h.pgm"
    imageio.render_heatmap(values, signed=True, path=path)
    px = imageio.load_pgm(path).pixels[0].astype(int)
    assert np.all(np.diff(px) >= 0)


def test_unsigned_heatmap_rejects_negatives(tmp_path):
    with pytest.raises(QPhaseError) as err:
        imageio.render_heatmap(np.array([[-1.0, 1.0]]), signed=False, path=tmp_path / "h.pgm")
    assert err.value.category == "invalid-data"


def test_heatmap_rejects_nan(tmp_path):
    with pytest.raises(QPhaseError) as err:
        imageio.render_heatmap(np.array([[np.nan, 1.0]]), signed=True, path=tmp_path / "h.pgm")
    assert err.value.category == "invalid-data"


def test_grid_csv_format_and_precision():
    buf = io.StringIO()
    imageio.write_grid_csv(np.array([[1.0 / 3.0, 2.0], [0.0, -5.5]]), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "row,col,value"
    assert len(lines) == 5
    r, c, v = lines[1].split(",")
    assert (r, c) == ("0", "0")
    assert float(v) == 1.0 / 3.0  # 17 significant digits round-trip


@pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
def test_grid_csv_needs_a_2d_grid(shape):
    with pytest.raises(QPhaseError) as exc:
        imageio.write_grid_csv(np.zeros(shape), io.StringIO())
    assert exc.value.category == "invalid-dimension"


def test_corpus_shapes_and_determinism():
    corpus = imageio.synthetic_corpus(64)
    assert sorted(corpus) == ["fractal", "portrait", "spots", "texture"]
    for img in corpus.values():
        assert img.pixels.shape == (64, 64)
        assert img.pixels.dtype == np.uint8
        assert img.pixels.max() == 255  # normalized to full range
    again = imageio.synthetic_corpus(64)
    for key in corpus:
        assert np.array_equal(corpus[key].pixels, again[key].pixels)


def test_corpus_image_is_the_corpus_entry():
    corpus = imageio.synthetic_corpus(32)
    for name in imageio.CORPUS_NAMES:
        assert np.array_equal(imageio.corpus_image(name, 32).pixels, corpus[name].pixels)


def test_corpus_side_validation():
    for bad in (4, 48):
        with pytest.raises(QPhaseError) as err:
            imageio.synthetic_corpus(bad)
        assert err.value.category == "invalid-parameter"
    # a 4096 x 4096 image is a 24-qubit register, above the cap; nothing is allocated
    for big in (1 << 12, 1 << 50):
        with pytest.raises(QPhaseError) as err:
            imageio.synthetic_corpus(big)
        assert err.value.category == "resource"
        with pytest.raises(QPhaseError) as err:
            imageio.corpus_image("spots", big)
        assert err.value.category == "resource"


# Fixed example sequence and no per-example deadline: the suite must give the
# same verdict on every run, also on a loaded machine.
_PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)
P2_FIXTURE = b"P2\n# a comment\n2 2 # trailing\n200\n0 199\n128 64\n"


@pytest.fixture(scope="module")
def pgm_path(tmp_path_factory):
    return tmp_path_factory.mktemp("pgm") / "img.pgm"


def _loads_or_parse_error(path, data: bytes) -> None:
    # a GrayImage or a located ParseError; nothing else may escape
    path.write_bytes(data)
    try:
        img = imageio.load_pgm(path)
    except ParseError as exc:
        assert 0 <= exc.byte_offset <= len(data)
        return
    assert isinstance(img, imageio.GrayImage)
    assert img.pixels.dtype == np.uint8 and img.pixels.size > 0


@st.composite
def _mutated(draw, base: bytes):
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from(b"0123456789 \t\n#P-+\x00\xff"))
        kind = draw(st.sampled_from(("replace", "insert", "delete")))
        if kind == "insert" or i == len(data):
            data.insert(i, byte)
        elif kind == "replace":
            data[i] = byte
        else:
            del data[i]
    return bytes(data)


@_PROPERTY
@given(st.one_of(st.binary(max_size=64),
                 st.builds(bytes.__add__, st.sampled_from((b"P2\n", b"P5\n")),
                           st.binary(max_size=64))))
def test_property_arbitrary_bytes_load_or_raise_parse_error(pgm_path, data):
    _loads_or_parse_error(pgm_path, data)


@_PROPERTY
@given(st.one_of(_mutated(P2_FIXTURE), _mutated(P5_FIXTURE)))
def test_property_mutated_files_load_or_raise_parse_error(pgm_path, data):
    _loads_or_parse_error(pgm_path, data)


_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, float("inf"), float("-inf"), float("nan"),
                1.0 / 3.0, -5.5, 1e16, 1e17, 1e-300)
_CSV_VALUES = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(width=64))


def _edge_grid(shape):
    size = int(np.prod(shape))
    return np.resize(np.array(_EDGE_FLOATS), size).reshape(shape)


def _sign_rule_grid(left, signs):
    # row r is left[r] followed by left[r] (sign +1) or its negation (sign -1),
    # as wigner_direct fills its n >= N half; negation flips NaN's sign bit too
    return np.concatenate([left, np.where(np.asarray(signs)[:, None] > 0, left, -left)], axis=1)


@st.composite
def _sign_rule_grids(draw):
    left = draw(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5)),
                           elements=_CSV_VALUES))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(left), max_size=len(left)))
    return _sign_rule_grid(left, signs)


def _near_miss_grid():
    # rows that miss the sign rule by the sign of one zero: the right half of
    # row 0 is the left half but for -0.0 in place of 0.0, that of row 1 the
    # negated left half but for an unflipped 0.0
    left = np.array([_EDGE_FLOATS, _EDGE_FLOATS])
    grid = _sign_rule_grid(left, (1, -1))
    grid[0, len(_EDGE_FLOATS)] = -0.0
    grid[1, len(_EDGE_FLOATS)] = 0.0
    return grid


_SIGN_RULE_EDGES = _sign_rule_grid(np.array([_EDGE_FLOATS] * 4), (1, -1, -1, 1))


@_PROPERTY
@given(st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=9),
               elements=_CSV_VALUES),
    _sign_rule_grids()))
@example(_edge_grid((1, 15)))
@example(_edge_grid((15, 1)))
@example(_edge_grid((3, 0)))
@example(_edge_grid((0, 3)))
@example(_SIGN_RULE_EDGES)
@example(_near_miss_grid())
@example(np.concatenate([_SIGN_RULE_EDGES, np.ones((4, 1))], axis=1))  # odd column count
def test_property_grid_csv_matches_per_value_formatting(grid):
    buf = io.StringIO()
    imageio.write_grid_csv(grid, buf)
    assert buf.getvalue() == oracles.grid_csv_reference(grid)
