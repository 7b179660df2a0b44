"""Sampling protocols, amplitude amplification, field reconstruction."""

import math

import numpy as np
import pytest

import oracles
from qphase import measurement, wavelet
from qphase.errors import QPhaseError


# ------------------------------------------------------------------ sampling

def test_delta_state_sampling_is_deterministic():
    psi = np.zeros(8, dtype=complex)
    psi[5] = 1.0
    for seed in (0, 99):
        counts = measurement.sample_computational(psi, 1000, seed)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, [0, 0, 0, 0, 0, 1000, 0, 0])


def test_uniform_sampling_within_5_sigma():
    psi = np.full(4, 0.5, dtype=complex)
    shots = 1_000_000
    counts = measurement.sample_computational(psi, shots, seed=1)
    assert counts.sum() == shots
    sigma = math.sqrt(shots * 0.25 * 0.75)
    for i in range(4):
        assert abs(counts[i] - shots / 4) < 5 * sigma


def test_sampling_error_decays_as_inverse_sqrt_shots():
    # L1 distance between empirical and exact distributions falls like
    # shots^(-1/2); the log-log slope sits near -0.5
    psi = oracles.random_state(256, seed=23)
    probs = np.abs(psi) ** 2
    points = []
    for exp in range(10, 17):
        shots = 1 << exp
        freq = measurement.sample_computational(psi, shots, seed=exp) / shots
        points.append((exp, np.abs(freq - probs).sum()))
    slope = np.polyfit([p[0] for p in points], [np.log2(p[1]) for p in points], 1)[0]
    assert -0.6 < slope < -0.4


def test_sampling_is_seed_reproducible():
    psi = oracles.random_state(64, seed=24)
    a = measurement.sample_computational(psi, 5000, seed=7)
    b = measurement.sample_computational(psi, 5000, seed=7)
    c = measurement.sample_computational(psi, 5000, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampling_validation():
    psi = oracles.random_state(8, seed=0)
    with pytest.raises(QPhaseError) as err:
        measurement.sample_computational(psi, 0, seed=0)
    assert err.value.category == "invalid-parameter"


def test_shots_bounded_by_the_multinomial_count_range():
    psi = oracles.random_state(16, seed=0)
    largest = (1 << 63) - 1
    assert measurement.sample_computational(psi, largest, seed=0).sum() == largest
    # the ancilla's binomial draw takes the same count range
    est, stderr = measurement.ancilla_tomography_sample(0.001, 64, largest, seed=0)
    assert abs(est - 0.001) <= 5 * stderr
    for draw in (lambda n: measurement.sample_computational(psi, n, seed=0),
                 lambda n: measurement.coarse_grained_sample(psi, 1, n, seed=0),
                 lambda n: measurement.monte_carlo_reconstruct(np.abs(psi), n, seed=0),
                 lambda n: measurement.ancilla_tomography_sample(0.001, 64, n, seed=0)):
        for shots in (0, largest + 1):
            with pytest.raises(QPhaseError) as err:
                draw(shots)
            assert err.value.category == "invalid-parameter"


# ------------------------------------------------------- coarse-grained bits

def test_full_resolution_coarse_equals_computational():
    psi = oracles.random_state(64, seed=25)  # 8 x 8 grid
    fine = measurement.sample_computational(psi, 4000, seed=9)
    coarse = measurement.coarse_grained_sample(psi, 3, 4000, seed=9)
    # same probabilities, same stream: counts agree cell for cell
    assert coarse.shape == (8, 8)
    assert np.array_equal(coarse.reshape(-1), fine)


def test_zero_bits_collapse_to_one_cell():
    psi = oracles.random_state(16, seed=26)
    counts = measurement.coarse_grained_sample(psi, 0, 500, seed=0)
    assert np.array_equal(counts, [[500]])


def test_cell_probabilities_match_block_sums():
    psi = oracles.random_state(64, seed=27)
    probs = np.abs(psi.reshape(8, 8)) ** 2
    for n_f in (1, 2, 3):
        cells = 1 << n_f
        fine = 8 // cells
        got = measurement.cell_probabilities(psi, n_f)
        assert got.shape == (cells, cells)
        for r in range(cells):
            for c in range(cells):
                block = probs[r * fine:(r + 1) * fine, c * fine:(c + 1) * fine]
                assert abs(got[r, c] - block.sum()) < 1e-14
        assert abs(got.sum() - 1.0) < 1e-12


def test_coarse_validation():
    psi = oracles.random_state(8, seed=0)  # odd qubit count
    with pytest.raises(QPhaseError) as err:
        measurement.coarse_grained_sample(psi, 1, 10, seed=0)
    assert err.value.category == "invalid-parameter"
    psi = oracles.random_state(16, seed=0)
    with pytest.raises(QPhaseError) as err:
        measurement.coarse_grained_sample(psi, 3, 10, seed=0)
    assert err.value.category == "invalid-parameter"


# ------------------------------------------------------- ancilla tomography

def test_ancilla_extreme_value_is_exact():
    # w = 1/(2N) drives the ancilla mean to +1: every outcome is +1, the
    # estimate is exact and the spread collapses
    N = 64
    est, stderr = measurement.ancilla_tomography_sample(1.0 / (2 * N), N, 1000, seed=0)
    assert est == 1.0 / (2 * N)
    assert stderr == 0.0


def test_ancilla_zero_value_within_noise():
    est, stderr = measurement.ancilla_tomography_sample(0.0, 32, 1_000_000, seed=1)
    assert stderr > 0
    assert abs(est) <= 5 * stderr


def test_ancilla_rejects_out_of_range_values():
    for bad in (0.1, math.nan):
        with pytest.raises(QPhaseError) as err:
            measurement.ancilla_tomography_sample(bad, 64, 100, seed=0)
        assert err.value.category == "invalid-parameter"


def test_shots_to_resolve_basics():
    shots = measurement.shots_to_resolve(64.0 ** -1.5, 64, seed=2)
    assert shots == measurement.shots_to_resolve(64.0 ** -1.5, 64, seed=2)
    # doubling schedule starting at 8
    assert shots >= 8 and (shots & (shots - 1)) == 0
    # w = 0 cannot be resolved; |2 N w| > 1 and NaN are not grid values,
    # refused before the first draw rather than after the whole schedule
    for bad in (0.0, 0.1, math.nan):
        with pytest.raises(QPhaseError) as err:
            measurement.shots_to_resolve(bad, 64, seed=0)
        assert err.value.category == "invalid-parameter"


# -------------------------------------------------------------- amplification

def test_grover_iteration_count():
    assert measurement.grover_iterations(0.25) == 1
    assert measurement.grover_iterations(1.0) == 0
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(QPhaseError) as err:
            measurement.grover_iterations(bad)
        assert err.value.category == "invalid-parameter"


def test_grover_iterations_scale_as_inverse_sqrt_weight():
    # the floor plus the -1/2 offset keep the count within 1.5 of the
    # asymptotic (pi/4) a^{-1/2}
    for a in (1e-2, 1e-4, 1e-6):
        expect = math.pi / (4 * math.sqrt(a))
        assert abs(measurement.grover_iterations(a) - expect) <= 1.5


def test_quarter_weight_amplifies_to_one():
    # a = 1/4 rotates straight onto the region in a single iteration
    psi = np.full(64, 1.0 / 8.0, dtype=complex)
    report = measurement.amplitude_amplify(psi, list(range(16)))
    assert report.iterations == 1
    assert abs(report.initial_weight - 0.25) < 1e-14
    assert abs(report.final_weight - 1.0) < 1e-12
    assert abs(np.linalg.norm(report.state) - 1.0) < 1e-12


def test_amplify_matches_dense_reflection_product():
    # literal operator: (I - 2 |psi0><psi0|) (I - 2 P) applied m times
    N = 64
    psi0 = oracles.random_state(N, seed=28)
    mask = np.zeros(N, dtype=bool)
    mask[10:20] = True
    flip = np.eye(N, dtype=complex)
    flip[mask, mask] = -1.0
    G = (np.eye(N, dtype=complex) - 2.0 * np.outer(psi0, psi0.conj())) @ flip
    for m in (1, 3):
        report = measurement.amplitude_amplify(psi0, mask, iterations=m)
        ref = psi0.copy()
        for _ in range(m):
            ref = G @ ref
        assert np.max(np.abs(report.state - ref)) < 1e-12


def test_one_iteration_component_scales():
    # after one iteration the state is (4a - 3) psi0 on the region and
    # (4a - 1) psi0 on its complement
    N = 32
    psi0 = oracles.random_state(N, seed=29)
    mask = np.zeros(N, dtype=bool)
    mask[:5] = True
    a = float(np.sum(np.abs(psi0[mask]) ** 2))
    report = measurement.amplitude_amplify(psi0, mask, iterations=1)
    assert np.max(np.abs(report.state[mask] - (4 * a - 3) * psi0[mask])) < 1e-12
    assert np.max(np.abs(report.state[~mask] - (4 * a - 1) * psi0[~mask])) < 1e-12


def test_amplify_preserves_region_amplitude_ratios():
    # the magnifier property: relative structure inside the region survives
    psi0 = oracles.random_state(128, seed=30)
    idx = [3, 17, 40, 41]
    report = measurement.amplitude_amplify(psi0, idx, iterations="auto")
    assert report.iterations >= 1
    for i in idx[1:]:
        got = report.state[i] / report.state[idx[0]]
        expect = psi0[i] / psi0[idx[0]]
        assert abs(got - expect) < 1e-12


def test_amplified_weight_follows_closed_form():
    psi0 = oracles.random_state(256, seed=31)
    mask = np.zeros(256, dtype=bool)
    mask[:3] = True
    for m in (0, 1, 5, 17, 50):
        report = measurement.amplitude_amplify(psi0, mask, iterations=m)
        assert abs(np.linalg.norm(report.state) - 1.0) < 1e-12
        assert abs(report.final_weight - report.closed_form) < 1e-9


def test_amplify_region_forms():
    # boolean mask and index list select the same region
    psi0 = oracles.random_state(16, seed=32)
    by_mask = measurement.amplitude_amplify(psi0, np.arange(16) < 4, iterations=2)
    by_list = measurement.amplitude_amplify(psi0, [0, 1, 2, 3], iterations=2)
    assert np.array_equal(by_mask.state, by_list.state)


def test_amplify_empty_region_rejected():
    psi0 = np.zeros(8, dtype=complex)
    psi0[0] = 1.0
    with pytest.raises(QPhaseError) as err:
        measurement.amplitude_amplify(psi0, [5])
    assert err.value.category == "empty-region"


def test_amplify_rejects_out_of_range_indices():
    psi0 = oracles.random_state(8, seed=33)
    for bad in ([8], [-7], [0, 9]):
        with pytest.raises(QPhaseError) as err:
            measurement.amplitude_amplify(psi0, bad)
        assert err.value.category == "invalid-parameter"


def test_amplify_full_region_warns_and_passes_through():
    psi0 = oracles.random_state(8, seed=33)
    with pytest.warns(UserWarning):
        report = measurement.amplitude_amplify(psi0, np.ones(8, dtype=bool))
    assert report.iterations == 0
    assert np.array_equal(report.state, psi0)


def test_amplify_rejects_negative_iterations():
    psi0 = oracles.random_state(8, seed=34)
    with pytest.raises(QPhaseError) as err:
        measurement.amplitude_amplify(psi0, [0], iterations=-1)
    assert err.value.category == "invalid-parameter"


# ------------------------------------------------------------- reconstruction

def test_topk_full_budget_is_exact():
    rng = np.random.default_rng(35)
    field = rng.normal(size=(16, 16))
    coeffs = wavelet.d4_forward_2d(field)
    recon, l2, psnr = measurement.topk_reconstruct(coeffs, 256)
    assert np.max(np.abs(recon - field)) < 1e-10
    assert l2 < 1e-10
    assert psnr == math.inf


def test_topk_single_coefficient_recovers_constant_image():
    # at full depth a constant field lives in one coefficient, so k = 1
    # already reconstructs it exactly
    field = np.full((16, 16), 0.5)
    coeffs = wavelet.d4_forward_2d(field, levels=4)
    recon, l2, psnr = measurement.topk_reconstruct(coeffs, 1)
    assert np.max(np.abs(recon - field)) < 1e-12
    assert psnr == math.inf


def test_topk_ties_break_toward_low_indices():
    vals = np.array([1.0, -1.0, 1.0, 1.0])
    coeffs = wavelet.WaveletCoeffs(vals, levels=1)
    recon, _, _ = measurement.topk_reconstruct(coeffs, 2)
    kept = wavelet.WaveletCoeffs(np.array([1.0, -1.0, 0.0, 0.0]), levels=1)
    assert np.max(np.abs(recon - wavelet.d4_inverse_1d(kept))) < 1e-13


def test_topk_budget_validation():
    coeffs = wavelet.d4_forward_1d(np.arange(8.0))
    for bad in (0, 9):
        with pytest.raises(QPhaseError) as err:
            measurement.topk_reconstruct(coeffs, bad)
        assert err.value.category == "invalid-parameter"


def test_monte_carlo_converges_on_moderate_grid():
    rng = np.random.default_rng(36)
    a = rng.uniform(0.1, 1.0, size=(32, 32))
    a /= np.linalg.norm(a)
    fld, l2, psnr = measurement.monte_carlo_reconstruct(a, 10_000_000, seed=3)
    assert np.abs(fld ** 2 - a ** 2).sum() < 0.02
    assert abs(np.linalg.norm(fld) - 1.0) < 1e-12


def test_monte_carlo_delta_image_exact_after_one_sample():
    a = np.zeros((4, 4))
    a[2, 1] = 1.0
    fld, l2, psnr = measurement.monte_carlo_reconstruct(a, 1, seed=4)
    assert np.array_equal(fld, a)
    assert l2 == 0.0
    assert psnr == math.inf


def test_monte_carlo_seed_reproducible():
    rng = np.random.default_rng(37)
    a = rng.uniform(0.0, 1.0, size=(8, 8))
    a /= np.linalg.norm(a)
    f1, _, _ = measurement.monte_carlo_reconstruct(a, 1000, seed=5)
    f2, _, _ = measurement.monte_carlo_reconstruct(a, 1000, seed=5)
    f3, _, _ = measurement.monte_carlo_reconstruct(a, 1000, seed=6)
    assert np.array_equal(f1, f2)
    assert not np.array_equal(f1, f3)


def test_monte_carlo_validation():
    with pytest.raises(QPhaseError) as err:
        measurement.monte_carlo_reconstruct(-np.ones((4, 4)), 10, seed=0)
    assert err.value.category == "invalid-parameter"
    with pytest.raises(QPhaseError) as err:
        measurement.monte_carlo_reconstruct(np.zeros((4, 4)), 10, seed=0)
    assert err.value.category == "degenerate-input"
    for bad in (math.nan, math.inf):
        a = np.ones((4, 4))
        a[1, 2] = bad
        with pytest.raises(QPhaseError) as err:
            measurement.monte_carlo_reconstruct(a, 10, seed=0)
        assert err.value.category == "invalid-data"


def test_psnr_degenerate_and_known_values():
    with pytest.raises(QPhaseError) as err:
        measurement.field_psnr(np.zeros((4, 4)), np.zeros((4, 4)))
    assert err.value.category == "degenerate-input"
    a = np.ones((4, 4))
    assert measurement.field_psnr(a, a) == math.inf
    # full-scale disagreement on every pixel: mse = 255^2, psnr = 0
    assert measurement.field_psnr(a, np.zeros((4, 4))) == pytest.approx(0.0)
    for bad in (math.nan, math.inf, -math.inf):
        b = np.ones((4, 4))
        b[2, 3] = bad
        for pair in ((b, a), (a, b)):
            with pytest.raises(QPhaseError) as err:
                measurement.field_psnr(*pair)
            assert err.value.category == "invalid-data"
