"""Discrete Wigner distribution: direct evaluation vs register pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qphase import analysis, rotator, wavelet, wigner
from qphase.errors import QPhaseError


def test_direct_matches_brute_force_sum():
    # the full (2N, 2N) grid, extension included, against the literal
    # triple-loop definition, at every register size from 2 to 32; angle
    # deltas at m = 0 and m = N - 1 reach the zero-padded ends of the
    # paired route's sliding windows
    for N in (2, 4, 8, 16, 32):
        states = [oracles.random_state(N, seed=seed) for seed in (0, 1)]
        for m0 in (0, N - 1):
            delta = np.zeros(N, dtype=complex)
            delta[m0] = 1.0
            states.append(delta)
        for psi in states:
            grid = wigner.wigner_direct(psi)
            brute = oracles.brute_wigner(psi)
            assert np.max(np.abs(grid.values - brute)) < 1e-13


def test_imag_residue_is_small_and_reported():
    # the residue comes from one unpaired reference row per parity: finite,
    # within perfbench's 1e-12 bound, and nonzero on a generic state, so it
    # does read the round-off
    for n_q in range(1, 11):
        for seed in (0, 1, 2):
            residue = wigner.wigner_direct(oracles.random_state(1 << n_q, seed=seed)).imag_residue
            assert np.isfinite(residue)
            assert 0.0 <= residue < 1e-12
    assert wigner.wigner_direct(oracles.random_state(64, seed=21)).imag_residue > 0.0


def test_sum_rules_on_random_states():
    rng = np.random.default_rng(10)
    for _ in range(100):
        N = int(rng.choice([8, 16, 32]))
        psi = rng.normal(size=N) + 1j * rng.normal(size=N)
        psi /= np.linalg.norm(psi)
        grid = wigner.wigner_direct(psi)
        assert abs(grid.total() - 1.0) < 1e-10
        assert abs(grid.total_sq() - 1.0 / (2 * N)) < 1e-10
        assert grid.max_abs() <= 1.0 / (2 * N) + 1e-12
        assert grid.imag_residue < 1e-10


def test_grid_checks_make_no_grid_sized_temporary():
    # on a 1024^2 grid both checks stay under 1 MB of allocations; max_abs
    # is bit-equal to the plain expression, total_sq within one rounding
    grid = wigner.wigner_direct(oracles.random_state(512, seed=12))
    v = grid.values
    assert oracles.traced_peak(grid.total_sq) < 1 << 20
    assert oracles.traced_peak(grid.max_abs) < 1 << 20
    plain = np.sum(v * v)
    assert abs(grid.total_sq() - plain) <= 1e-15 * plain
    # the largest |W| is positive on one grid and negative on the other, and
    # an all-negative-zero grid must give +0.0 as np.abs does
    for values in (v, -v, np.full((4, 4), -0.0)):
        got = wigner.WignerGrid(values=values, N=values.shape[0] // 2).max_abs()
        assert np.array(got).tobytes() == np.max(np.abs(values)).tobytes()


def test_angle_delta_fills_one_row():
    # a position delta at m0 pairs only with itself: the row Theta = 2 m0
    # is uniformly 1/(2N) across all 2N columns, everything else vanishes
    N = 8
    for m0 in (0, 3, 7):
        psi = np.zeros(N, dtype=complex)
        psi[m0] = 1.0
        full = wigner.wigner_direct(psi).values
        assert np.allclose(full[2 * m0, :], 1.0 / (2 * N), atol=1e-14)
        rest = np.delete(full, 2 * m0, axis=0)
        assert np.max(np.abs(rest)) < 1e-14


def test_even_row_marginal_gives_position_probability():
    psi = oracles.random_state(16, seed=11)
    grid = wigner.wigner_direct(psi)
    # summing the n < N half of row 2q leaves |psi(q)|^2 / 2
    marginal = grid.values[::2, :16].sum(axis=1)
    assert np.max(np.abs(marginal - np.abs(psi) ** 2 / 2.0)) < 1e-12


def test_column_extension_sign_rule():
    psi = oracles.random_state(8, seed=12)
    full = wigner.wigner_direct(psi).values
    signs = np.where(np.arange(16) % 2 == 0, 1.0, -1.0)[:, None]
    assert np.max(np.abs(full[:, 8:] - signs * full[:, :8])) < 1e-14


def test_pipeline_matches_direct_at_t0():
    params = rotator.RotatorParams(n_q=4, K=1.0)
    psi0 = oracles.random_state(params.N, seed=13)
    grid, final_state = wigner.wigner_register_pipeline(psi0, params, 0)
    ref = wigner.wigner_from_momentum(psi0)
    assert np.max(np.abs(grid.values - ref.values)) < 1e-12
    assert grid.extension_residue < 1e-12


def test_pipeline_final_state_is_normalized():
    params = rotator.RotatorParams(n_q=4, K=2.0)
    psi0 = rotator.initial_band_state(params)
    grid, final_state = wigner.wigner_register_pipeline(psi0, params, 3)
    assert abs(np.linalg.norm(final_state) - 1.0) < 1e-10
    # the register amplitudes are sqrt(2N) W laid out row-major
    N = params.N
    assert np.max(np.abs(final_state.reshape(2 * N, 2 * N).real
                         - np.sqrt(2 * N) * grid.values)) < 1e-12


def test_pipeline_momentum_delta_register_is_real():
    # a t = 0 momentum delta produces a manifestly real register
    params = rotator.RotatorParams(n_q=3, K=0.5)
    psi0 = np.zeros(params.N, dtype=complex)
    psi0[2] = 1.0
    _, final_state = wigner.wigner_register_pipeline(psi0, params, 0)
    assert np.max(np.abs(final_state.imag)) < 1e-10


def test_pipeline_resource_limit():
    params = rotator.RotatorParams(n_q=11, K=1.0)
    psi0 = np.zeros(params.N, dtype=complex)
    psi0[0] = 1.0
    with pytest.raises(QPhaseError) as err:
        wigner.wigner_register_pipeline(psi0, params, 0)
    assert err.value.category == "resource"


def test_pipeline_rejects_unnormalized_state():
    params = rotator.RotatorParams(n_q=3, K=1.0)
    with pytest.raises(QPhaseError) as err:
        wigner.wigner_register_pipeline(np.ones(8, dtype=complex), params, 0)
    assert err.value.category == "invalid-state"


def test_ipr_on_synthetic_grids():
    # N entries of 1/N on the whole (2N, 2N) grid give xi = N; N^2 entries
    # of N^{-3/2} give xi = N^2
    N = 16
    values = np.zeros((2 * N, 2 * N))
    values.flat[:N] = 1.0 / N
    assert analysis.wigner_ipr(values) == pytest.approx(N)
    values = np.zeros((2 * N, 2 * N))
    values.flat[: N * N] = N ** -1.5
    assert analysis.wigner_ipr(values) == pytest.approx(N * N)


def test_ipr_rejects_zero_grid():
    with pytest.raises(QPhaseError) as err:
        analysis.wigner_ipr(np.zeros((8, 8)))
    assert err.value.category == "degenerate-input"


def test_wavelet_transform_preserves_grid_energy():
    # the D4 pyramid on the full grid keeps sum W^2 exactly
    psi = oracles.random_state(16, seed=14)
    grid = wigner.wigner_direct(psi)
    coeffs = wavelet.d4_forward_2d(grid.values)
    assert abs(np.sum(coeffs.values ** 2) - grid.total_sq()) < 1e-10


# Fixed example sequence and no per-example deadline: the suite must give the
# same verdict on every run, also on a loaded machine.
_PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def _states(draw):
    # a random state on a random support, so sparse states occur too
    N = 1 << draw(st.integers(1, 8))
    psi = oracles.random_state(N, seed=draw(st.integers(0, 2 ** 32 - 1)))
    psi[draw(st.integers(1, N)):] = 0.0
    return psi / np.linalg.norm(psi)


@_PROPERTY
@given(_states())
def test_property_whole_grid_sum_rules_sign_rule_and_ipr(psi):
    N = psi.size
    grid = wigner.wigner_direct(psi)
    values = grid.values
    assert values.shape == (2 * N, 2 * N)
    # criterion 2's tolerances
    assert abs(grid.total() - 1.0) < 1e-8
    assert abs(grid.total_sq() - 1.0 / (2 * N)) < 1e-8
    assert grid.max_abs() <= 1.0 / (2 * N) + 1e-12
    signs = np.where(np.arange(2 * N) % 2 == 0, 1.0, -1.0)[:, None]
    assert np.array_equal(values[:, N:], signs * values[:, :N])
    assert analysis.wigner_ipr(values) == pytest.approx(
        1.0 / (N ** 2 * np.sum(values ** 4)), rel=1e-12, abs=0.0)
