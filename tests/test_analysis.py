"""Localization measures, entropy bounds, scaling fits, scan rows."""

import math

import numpy as np
import pytest

import oracles
from qphase import analysis, husimi, imageio, kernels, rotator, wavelet, wigner
from qphase.errors import QPhaseError


def test_ipr_examples():
    assert analysis.ipr([1.0]) == 1.0
    assert analysis.ipr(np.full(32, 0.25)) == pytest.approx(32.0)
    assert analysis.ipr([0.5, 0.5, 0.0, 0.0]) == pytest.approx(2.0)


def test_ipr_scale_invariance_is_exact():
    rng = np.random.default_rng(38)
    w = rng.uniform(0.0, 1.0, size=100)
    assert analysis.ipr(4.0 * w) == analysis.ipr(w)  # power-of-two scale: bitwise
    assert analysis.ipr(3.7 * w) == pytest.approx(analysis.ipr(w), abs=1e-12)


def test_ipr_validation():
    with pytest.raises(QPhaseError) as err:
        analysis.ipr(np.zeros(4))
    assert err.value.category == "degenerate-input"


def test_ipr_ignores_the_sign_of_each_amplitude():
    rng = np.random.default_rng(37)
    a = rng.normal(size=300)
    assert analysis.ipr(-a) == analysis.ipr(a)
    assert analysis.ipr(a) == analysis.ipr(np.abs(a))


def test_ipr_matches_the_plain_sums_across_blocks():
    # more than one 2^16-sample block, so the block sums are chained
    rng = np.random.default_rng(36)
    a = rng.normal(size=(300, 700))
    plain = np.sum(a ** 2) ** 2 / np.sum(a ** 4)
    assert analysis.ipr(a) == pytest.approx(plain, rel=1e-13, abs=0.0)


def test_wigner_ipr_is_four_times_ipr_under_the_sum_rule():
    # on a grid with sum W^2 = 1/(2N) the fixed normalization equals 4 ipr
    rng = np.random.default_rng(35)
    N = 32
    values = rng.normal(size=(2 * N, 2 * N))
    values /= np.sqrt(2 * N * np.sum(values ** 2))
    assert analysis.wigner_ipr(values) == pytest.approx(4 * analysis.ipr(values), rel=1e-13)


def test_entropy_examples():
    delta = np.zeros(16)
    delta[3] = 1.0
    assert analysis.entropy(delta) == 0.0
    assert analysis.entropy(np.full(16, 1 / 16)) == pytest.approx(4.0)
    assert analysis.entropy([0.5, 0.5]) == pytest.approx(1.0)


def test_entropy_renormalizes_with_warning():
    with pytest.warns(UserWarning):
        value = analysis.entropy([2.0, 2.0])
    assert value == pytest.approx(1.0)


def test_entropy_validation():
    with pytest.raises(QPhaseError) as err:
        analysis.entropy([-1.0, 2.0])
    assert err.value.category == "invalid-parameter"
    with pytest.raises(QPhaseError) as err:
        analysis.entropy(np.zeros(3))
    assert err.value.category == "degenerate-input"
    for bad in (float("nan"), float("inf")):
        with pytest.raises(QPhaseError) as err:
            analysis.entropy([bad, 1.0])
        assert err.value.category == "invalid-data"


def test_entropy_permutation_invariant_and_maximal_at_uniform():
    rng = np.random.default_rng(39)
    w = rng.uniform(0.0, 1.0, size=64)
    w /= w.sum()
    assert analysis.entropy(rng.permutation(w)) == pytest.approx(analysis.entropy(w), abs=1e-12)
    assert analysis.entropy(w) <= np.log2(64) + 1e-12


def test_fit_recovers_exact_power_laws():
    fit = analysis.fit_scaling([(n, 2.0 ** (2 * n)) for n in range(5, 11)])
    assert fit.exponent == pytest.approx(2.0, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-12)
    assert fit.range == (5, 10)
    fit = analysis.fit_scaling([(n, 2.0 ** (0.6 * n)) for n in range(5, 11)])
    assert fit.exponent == pytest.approx(0.6, abs=1e-12)


def test_fit_matches_scipy_linregress():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(7)
    for _ in range(200):
        ns = rng.integers(2, 20, size=rng.integers(3, 12)).astype(float)
        if np.unique(ns).size < 2:
            continue
        xs = 2.0 ** (rng.normal() * ns + rng.normal(size=ns.size))
        fit = analysis.fit_scaling(zip(ns, xs))
        ref = stats.linregress(ns, np.log2(xs))
        assert abs(fit.exponent - ref.slope) < 1e-10
        assert abs(fit.intercept - ref.intercept) < 1e-10
        assert abs(fit.stderr - ref.stderr) < 1e-10


def test_fit_is_affine_equivariant():
    # scaling every xi by a constant moves the intercept, never the slope
    pts = [(n, 2.0 ** (1.3 * n + 0.2)) for n in range(4, 10)]
    base = analysis.fit_scaling(pts)
    scaled = analysis.fit_scaling([(n, 8.0 * x) for n, x in pts])
    assert scaled.exponent == pytest.approx(base.exponent, abs=1e-12)
    assert scaled.intercept == pytest.approx(base.intercept + 3.0, abs=1e-12)


def test_fit_validation():
    with pytest.raises(QPhaseError) as err:
        analysis.fit_scaling([(5, 2.0), (6, 4.0)])
    assert err.value.category == "insufficient-data"
    with pytest.raises(QPhaseError) as err:
        analysis.fit_scaling([(5, 2.0), (6, 0.0), (7, 4.0)])
    assert err.value.category == "invalid-parameter"
    for point in ((7, float("nan")), (7, float("inf")), (float("nan"), 4.0)):
        with pytest.raises(QPhaseError) as err:
            analysis.fit_scaling([(5, 2.0), (6, 4.0), point, (8, 16.0)])
        assert err.value.category == "invalid-data"


def test_fit_needs_two_distinct_qubit_counts():
    with pytest.raises(QPhaseError) as err:
        analysis.fit_scaling([(5, 1), (5, 2), (5, 3)])
    assert err.value.category == "insufficient-data"
    # two distinct counts among three points leave one degree of freedom
    assert analysis.fit_scaling([(5, 2.0), (5, 4.0), (6, 4.0)]).exponent == pytest.approx(0.5)


@pytest.mark.parametrize("measure", [analysis.ipr, analysis.wigner_ipr])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 1e100])
def test_participation_ratios_reject_non_finite_sums(measure, bad):
    # NaN and Inf reach the sum of fourth powers, and so does an a^4 that
    # overflows; each would otherwise give a NaN or zero ratio
    values = np.full((4, 4), 0.25)
    values[1, 2] = bad
    with np.errstate(over="ignore"), pytest.raises(QPhaseError) as err:
        measure(values)
    assert err.value.category == "invalid-data"


def test_participation_never_exceeds_entropy_bound():
    # xi <= 2^S (Jensen); checked on random weight vectors of mixed sizes
    rng = np.random.default_rng(40)
    for _ in range(200):
        size = int(rng.choice([16, 64, 256]))
        w = rng.uniform(0.0, 1.0, size=size) ** int(rng.integers(1, 4))
        w /= w.sum()
        assert analysis.ipr(np.sqrt(w)) <= 2.0 ** analysis.entropy(w) + 1e-9


def test_compare_on_uniform_weights():
    w = np.full(128, 1 / 128)
    assert analysis.ipr(np.sqrt(w)) == pytest.approx(128.0)
    assert 2.0 ** analysis.entropy(w) == pytest.approx(128.0)


def test_scan_row_csv_format():
    row = analysis.ScanRow(K=0.5, n_q=7, xi_raw=123.456, xi_wavelet=7.0, S=9.9)
    text = row.csv()
    fields = text.split(",")
    assert len(fields) == 6
    assert float(fields[0]) == 0.5 and int(fields[1]) == 7
    # 17-digit fields survive a float round-trip exactly
    assert float(fields[2]) == 123.456
    assert float(fields[4]) == row.R and float(fields[5]) == 9.9


def test_wigner_scan_row_contents():
    row = analysis.wigner_scan_row(0.5, 5, t=10)
    assert row.K == 0.5 and row.n_q == 5
    assert row.xi_raw > 0 and row.xi_wavelet > 0
    assert row.R == row.xi_raw / row.xi_wavelet


def test_wigner_scan_row_entropy_matches_whole_grid():
    # S comes from the left (2N, N) half plus one bit; the whole-grid
    # definition must agree
    for n_q in (5, 6, 7):
        for K in (0.5, 2.0):
            row = analysis.wigner_scan_row(K, n_q, t=50)
            params = rotator.RotatorParams(n_q=n_q, K=K)
            psi = rotator.evolve(rotator.initial_band_state(params), params, 50)
            grid = wigner.wigner_from_momentum(psi)
            whole = analysis.entropy(grid.values * grid.values * (2 * grid.N))
            assert row.S == pytest.approx(whole, rel=1e-12, abs=0.0)
            # and bit for bit the half-grid weights the row once built whole
            left = grid.values[:, :grid.N]
            assert row.S == analysis.entropy(left * left * (4 * grid.N)) + 1.0


def test_husimi_scan_row_entropy_is_that_of_the_squared_modulus():
    # n_q = 18 gives a 512^2 grid of four pieces, so the squares are taken
    # piece by piece
    for n_q in (8, 18):
        row = analysis.husimi_scan_row(2.0, n_q, 5)
        params = rotator.RotatorParams(n_q=n_q, K=2.0)
        psi = rotator.evolve(rotator.initial_band_state(params), params, 5)
        mod = np.abs(husimi.modified_husimi(psi).H)
        assert row.S == analysis.entropy(mod * mod)


def test_wigner_scan_row_holds_at_most_two_grids_and_a_chunk():
    # S is taken from half-grid weights, read leaf by leaf with no second
    # weight-sized array, and the weights are freed before the D4 transform,
    # whose pyramid reads the grid straight into its one coefficient array
    peak = oracles.traced_peak(lambda: analysis.wigner_scan_row(2.0, 9, 50))
    grid_bytes = (2 << 9) ** 2 * 8
    assert peak <= 2.2 * grid_bytes


def test_entropy_matches_the_plain_sum_with_zero_weights():
    rng = np.random.default_rng(6)
    w = rng.uniform(size=1000)
    w[::3] = 0.0
    p = w / w.sum()
    nz = p[p > 0]
    plain = -np.sum(nz * np.log2(nz))
    assert analysis.entropy(p) == pytest.approx(plain, rel=1e-14, abs=0.0)


def test_entropy_matches_scipy_entr():
    # scipy is a test-only oracle: sum entr(p) / ln 2 on weights with exact
    # zeros and magnitudes from 1e-300 to 1, across several blocks
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(17)
    for size in (1, 7, 1000, 3 * (1 << 16) + 5):
        w = 10.0 ** rng.uniform(-300.0, 0.0, size=size)
        w[rng.uniform(size=size) < 0.25] = 0.0
        w[0] = 1.0
        p = w / w.sum()
        oracle = float(np.sum(special.entr(p))) / np.log(2.0)
        assert analysis.entropy(p) == pytest.approx(oracle, rel=1e-14, abs=0.0)


def test_husimi_scan_row_needs_even_qubits():
    with pytest.raises(QPhaseError) as err:
        analysis.husimi_scan_row(2.0, 7, t=1)
    assert err.value.category == "invalid-parameter"


def test_image_scan_row_uses_wavelet_entropy():
    rng = np.random.default_rng(42)
    field = rng.uniform(0.1, 1.0, size=(16, 16))
    field /= np.linalg.norm(field)
    row = analysis.image_scan_row(field, 8)
    assert row.K == 0.0 and row.n_q == 8
    assert row.R == row.xi_raw / row.xi_wavelet
    c = wavelet.d4_forward_2d(field).values
    assert row.S == analysis.entropy(c * c)
    # the raw field's entropy differs, so the assertion tells the two apart
    assert row.S != analysis.entropy(field.reshape(-1) ** 2)


def test_mixed_regime_ratio_grows_slowly_with_system_size():
    # K = 0.9 sits in the mixed regime: the raw-to-wavelet participation
    # ratio grows like a small power of N, far below linear
    pts = [(n, analysis.wigner_scan_row(0.9, n, 1000).R) for n in range(5, 11)]
    fit = analysis.fit_scaling(pts)
    assert 0.08 < fit.exponent < 0.42


def test_chaotic_wavelet_compression_is_strong():
    # K = 2 modulus grids compress well: the wavelet-domain participation
    # ratio grows much more slowly than the raw one
    pts = [(n, analysis.husimi_scan_row(2.0, n, 1000)) for n in (8, 10, 12)]
    wav = analysis.fit_scaling([(n, row.xi_wavelet) for n, row in pts])
    raw = analysis.fit_scaling([(n, row.xi_raw) for n, row in pts])
    assert 0.0 <= wav.exponent < 0.25
    assert wav.exponent < raw.exponent


def _entropy_reference(w, add=oracles.blocked_sum):
    # the plain formula over whole weight-sized arrays, both sums by the
    # package's blocked sum rule, which the entropy must reproduce bit for bit
    total = add(w)
    p = w / total
    p *= np.log(p + (p == 0.0))
    return -add(p) / np.log(2.0)


@pytest.mark.parametrize("size", [1, 7, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 5,
                                  10 ** 6 + 3, 1 << 21])
def test_entropy_equals_the_whole_array_formula(monkeypatch, size):
    # weights with exact zeros and magnitudes over 30 decades, on sizes of
    # one leaf, of one leaf plus one sample and of many leaves
    rng = np.random.default_rng(size)
    w = rng.uniform(size=size) * 10.0 ** rng.uniform(-30.0, 0.0, size=size)
    w[rng.uniform(size=size) < 0.25] = 0.0
    w[0] = 1.0
    w /= w.sum()
    plain = _entropy_reference(w)
    two, one, _ = oracles.on_both_paths(monkeypatch, lambda: analysis.entropy(w))
    assert two == plain and one == plain


def _fsum_of_pieces(x):
    return math.fsum(np.sum(x[start:start + kernels.BLOCK])
                     for start in range(0, x.size, kernels.BLOCK))


def test_entropy_adds_piece_sums_left_to_right(monkeypatch):
    # one piece of uniform weights, S = 16 bits, and two pieces of 2^-72
    # weights whose p ln p sums are each about 0.4 ulp of the first piece's:
    # added left to right each rounds away, while an exactly rounded sum of
    # the piece sums (math.fsum, or sum() from Python 3.12) keeps them
    w = np.full(3 * kernels.BLOCK, 2.0 ** -16)
    w[kernels.BLOCK:] = 2.0 ** -72
    plain = _entropy_reference(w)
    assert plain == 16.0 != _entropy_reference(w, _fsum_of_pieces)
    two, one, _ = oracles.on_both_paths(monkeypatch, lambda: analysis.entropy(w))
    assert two == plain and one == plain


def _field(shape, seed):
    # a signed field with exact zeros and magnitudes over 15 decades
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(shape) * 10.0 ** rng.uniform(-15.0, 0.0, size=shape)
    v[rng.uniform(size=shape) < 0.25] = 0.0
    return v


@pytest.mark.parametrize("shape, columns", [
    ((7,), 7), ((1 << 16,), 1 << 16), ((64, 2048), 1024), ((96, 1500), 1000),
    ((3, 70001), 70001), ((2, 3, 40000), 40000), ((1024, 1024), 1024)])
def test_entropy_of_squares_is_the_entropy_of_the_squared_copy(monkeypatch, shape, columns):
    # a column slice like a Wigner row's left half, pieces that start inside
    # a row and rows longer than a piece, all bit for bit on both paths
    v = _field(shape, columns)[..., :columns]
    scale = 1.0 / float(np.sum(v * v))
    whole = analysis.entropy(v * v * scale)
    two, one, _ = oracles.on_both_paths(monkeypatch,
                                        lambda: analysis.entropy_of_squares(v, scale))
    assert two == whole and one == whole


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_entropy_of_squares_refuses_a_non_finite_total(bad):
    # NaN or Inf anywhere, or a square past the float range, in a late piece
    v = np.full((4, kernels.BLOCK), 1e-3)
    v[3, 17] = bad
    with pytest.raises(QPhaseError) as err:
        analysis.entropy_of_squares(v[:, 1:], 2.0)
    assert err.value.category == "invalid-data"


@pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
def test_entropy_of_squares_needs_a_finite_positive_scale(scale):
    with pytest.raises(QPhaseError) as err:
        analysis.entropy_of_squares([0.5, 0.5], scale)
    assert err.value.category == "invalid-parameter"


def test_entropy_of_squares_reads_signed_values_and_zeros():
    assert analysis.entropy_of_squares([-0.5, 0.5, 0.5, -0.5]) == pytest.approx(2.0)
    assert analysis.entropy_of_squares([0.0, -1.0, 0.0]) == 0.0
    with pytest.raises(QPhaseError) as err:
        analysis.entropy_of_squares(np.zeros((3, 4)))
    assert err.value.category == "degenerate-input"


def test_entropy_of_squares_holds_no_field_sized_array():
    # the left half of a 2048^2 grid, 16 MB, read through its column view
    full = _field((2048, 2048), 3)
    left = full[:, :1024]
    scale = 1.0 / float(np.sum(left * left))
    peak = oracles.traced_peak(lambda: analysis.entropy_of_squares(left, scale))
    assert peak < left.size * 8 // 4


def test_image_scan_row_holds_under_two_fields():
    # the coefficients are the row's one field-sized array: at 1024^2 the
    # traced peak measured 1.27 fields, and 2.27 when S squared a copy
    amps = imageio.encode_wavefunction(imageio.corpus_image("portrait", 1024)).values
    peak = oracles.traced_peak(lambda: analysis.image_scan_row(amps, 20))
    assert peak < 1.6 * amps.nbytes


def test_entropy_holds_no_weight_sized_array():
    w = np.random.default_rng(7).uniform(size=1 << 21)
    w /= w.sum()
    assert oracles.traced_peak(lambda: analysis.entropy(w)) < w.nbytes // 4


def test_entropy_reports_a_negative_weight_before_a_nan_in_another_leaf():
    w = np.full(3 * kernels.BLOCK, 1.0 / (3 * kernels.BLOCK))
    w[5] = np.nan
    w[-1] = -1.0
    with pytest.raises(QPhaseError) as err:
        analysis.entropy(w)
    assert err.value.category == "invalid-parameter"


def test_split_entropy_is_bit_identical_to_the_inline_entropy(monkeypatch):
    rng = np.random.default_rng(19)
    w = rng.uniform(size=3 * kernels.BLOCK + 5)
    w[::3] = 0.0
    w /= w.sum()
    two, one, threads = oracles.on_both_paths(monkeypatch, lambda: analysis.entropy(w))
    assert two == one and threads == 2


def test_one_chunk_rows_run_inline(monkeypatch):
    # a 256^2 Husimi grid and every array of an n_q = 5 Wigner row are one
    # chunk or block each, so no split call hands the helper any work
    for row in (lambda: analysis.husimi_scan_row(2.0, 16, 3),
                lambda: analysis.wigner_scan_row(2.0, 5, 10)):
        two, one, threads = oracles.on_both_paths(monkeypatch, row)
        assert two == one and threads == 1


_COMPLEX = np.ones((8, 8)) + 1j


@pytest.mark.parametrize("call", [
    lambda: analysis.ipr(_COMPLEX),
    lambda: analysis.wigner_ipr(_COMPLEX),
    lambda: analysis.entropy(_COMPLEX.reshape(-1) / 64),
    lambda: analysis.entropy_of_squares(_COMPLEX),
    lambda: kernels.square_sums(_COMPLEX),
], ids=["ipr", "wigner_ipr", "entropy", "entropy_of_squares", "square_sums"])
def test_complex_input_is_refused_not_cast(call):
    # a float64 cast would keep the real part with only a ComplexWarning;
    # complex data is split into its real and imaginary parts by the caller
    with pytest.raises(QPhaseError) as err:
        call()
    assert err.value.category == "invalid-data"
