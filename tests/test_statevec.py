"""Statevector coercion and unitary DFT behavior."""

import numpy as np
import pytest

import oracles
from qphase import statevec
from qphase.errors import QPhaseError


def test_as_state_rejects_non_1d():
    with pytest.raises(QPhaseError) as err:
        statevec.as_state(np.ones((2, 2)) / 2.0)
    assert err.value.category == "invalid-dimension"


def test_as_state_rejects_non_power_of_two_length():
    with pytest.raises(QPhaseError) as err:
        statevec.as_state(np.ones(3) / np.sqrt(3.0))
    assert err.value.category == "invalid-dimension"


def test_as_state_rejects_nan_and_inf():
    bad = np.array([1.0, np.nan], dtype=complex)
    with pytest.raises(QPhaseError) as err:
        statevec.as_state(bad)
    assert err.value.category == "invalid-state"
    bad = np.array([1.0, np.inf * 1j], dtype=complex)
    with pytest.raises(QPhaseError) as err:
        statevec.as_state(bad)
    assert err.value.category == "invalid-state"


def test_as_state_norm_check_togglable():
    with pytest.raises(QPhaseError) as err:
        statevec.as_state([1.0, 1.0])
    assert err.value.category == "invalid-state"
    # the same amplitudes pass once the normalization requirement is waived
    psi = statevec.as_state([1.0, 1.0], require_normalized=False)
    assert psi.dtype == np.complex128


def test_qft_delta_gives_uniform():
    # four-point transform of |0> is flat with amplitude 1/2
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    out = statevec.qft(psi)
    assert np.allclose(out, 0.5 * np.ones(4), atol=1e-15)


def test_qft_uniform_gives_delta():
    # checked against the literal O(N^2) summation
    n = 16
    psi = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    out = statevec.qft(psi)
    ref = oracles.dft_sum(psi)
    assert np.allclose(out, ref, atol=1e-13)
    expect = np.zeros(n, dtype=complex)
    expect[0] = 1.0
    assert np.allclose(out, expect, atol=1e-13)


def test_qft_roundtrip_recovers_input():
    psi = oracles.random_state(256, seed=42)
    back = statevec.qft(statevec.qft(psi, "forward"), "inverse")
    assert np.max(np.abs(back - psi)) < 1e-12


def test_qft_matches_dense_matrix_both_directions():
    psi = oracles.random_state(32, seed=5)
    for direction, inverse in (("forward", False), ("inverse", True)):
        out = statevec.qft(psi, direction)
        ref = oracles.dft_matrix(32, inverse=inverse) @ psi
        assert np.max(np.abs(out - ref)) < 1e-12


def test_qft_rejects_unknown_direction():
    with pytest.raises(QPhaseError) as err:
        statevec.qft(np.ones(2) / np.sqrt(2.0), "sideways")
    assert err.value.category == "invalid-parameter"


def test_qft_preserves_inner_products():
    # unitarity: <a|b> is invariant under the transform
    a = oracles.random_state(64, seed=1)
    b = oracles.random_state(64, seed=2)
    before = np.vdot(a, b)
    after = np.vdot(statevec.qft(a), statevec.qft(b))
    assert abs(after - before) < 1e-10


def test_partial_blocks_full_size_equals_qft():
    psi = oracles.random_state(64, seed=3)
    assert np.allclose(statevec.partial_qft_blocks(psi, 64), statevec.qft(psi), atol=1e-13)


def test_partial_blocks_size_one_is_identity():
    psi = oracles.random_state(64, seed=4)
    assert np.array_equal(statevec.partial_qft_blocks(psi, 1), psi)


def test_partial_blocks_delta_spreads_within_its_block():
    # N=16, block 4: a delta at index 5 sits at offset 1 of block 1, so that
    # block picks up magnitude 1/2 with phases e^{-2 pi i k / 4}
    psi = np.zeros(16, dtype=complex)
    psi[5] = 1.0
    out = statevec.partial_qft_blocks(psi, 4)
    k = np.arange(4)
    expect = np.zeros(16, dtype=complex)
    expect[4:8] = 0.5 * np.exp(-2j * np.pi * k / 4)
    assert np.allclose(out, expect, atol=1e-14)
    assert np.allclose(np.abs(out[4:8]), 0.5, atol=1e-14)
    assert np.allclose(out[:4], 0.0) and np.allclose(out[8:], 0.0)


def test_partial_blocks_match_per_block_dense_transform():
    psi = oracles.random_state(32, seed=6)
    block = 8
    out = statevec.partial_qft_blocks(psi, block, "inverse")
    mat = oracles.dft_matrix(block, inverse=True)
    ref = np.concatenate([mat @ psi[i:i + block] for i in range(0, 32, block)])
    assert np.max(np.abs(out - ref)) < 1e-12


def test_partial_blocks_rejects_bad_block_size():
    psi = oracles.random_state(8, seed=7)
    with pytest.raises(QPhaseError) as err:
        statevec.partial_qft_blocks(psi, 3)
    assert err.value.category == "invalid-dimension"
    with pytest.raises(QPhaseError) as err:
        statevec.partial_qft_blocks(psi, 16)
    assert err.value.category == "invalid-dimension"
