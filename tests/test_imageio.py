"""PGM parsing and writing, wavefunction encoding, heatmaps, the corpus."""

import io

import numpy as np
import pytest

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


def test_encode_decode_within_one_gray_level():
    rng = np.random.default_rng(44)
    px = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    px[0, 0] = 255  # pin the peak so the scale is exactly 255
    amps = imageio.encode_wavefunction(imageio.GrayImage(px))
    back = imageio.decode_wavefunction(amps)
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


def test_corpus_side_validation():
    for bad in (4, 48):
        with pytest.raises(QPhaseError) as err:
            imageio.synthetic_corpus(bad)
        assert err.value.category == "invalid-parameter"
