"""Husimi-type distributions: partial-transform grid and Gaussian overlaps."""

import numpy as np
import pytest

import oracles
from qphase import husimi, rotator, statevec, stdmap, wigner
from qphase.errors import QPhaseError


def test_modified_matches_brute_force_sum():
    for N in (16, 256):
        psi = oracles.random_state(N, seed=N)
        grid = husimi.modified_husimi(psi)
        brute = oracles.brute_modified_husimi(psi)
        assert np.max(np.abs(grid.H - brute)) < 1e-10


def test_modified_equals_blockwise_transform():
    # the grid IS a block-local inverse DFT, reindexed (l, j) <- (j, l)
    N = 64
    b = 8
    psi = oracles.random_state(N, seed=15)
    grid = husimi.modified_husimi(psi)
    blocks = statevec.partial_qft_blocks(psi, b, "inverse").reshape(b, b)
    assert np.array_equal(grid.H, blocks.T)


def test_modified_husimi_allocates_one_grid():
    # the block transforms are written straight into the C-ordered grid
    psi = oracles.random_state(1 << 16, seed=19)
    husimi.modified_husimi(psi)
    peak = oracles.traced_peak(lambda: husimi.modified_husimi(psi))
    assert peak < 1.25 * psi.nbytes


def test_momentum_delta_spreads_over_its_block_column():
    # a delta at n0 = j0 b + r0 lands in column j0 with |H|^2 = 1/sqrt(N)
    # for every angle row
    N, b = 64, 8
    j0, r0 = 5, 3
    psi = np.zeros(N, dtype=complex)
    psi[j0 * b + r0] = 1.0
    prob = husimi.modified_husimi(psi).probabilities
    assert np.allclose(prob[:, j0], 1.0 / b, atol=1e-14)
    assert np.max(np.abs(np.delete(prob, j0, axis=1))) < 1e-14


def test_uniform_block_concentrates_on_one_cell():
    N, b = 64, 8
    j0 = 2
    psi = np.zeros(N, dtype=complex)
    psi[j0 * b : (j0 + 1) * b] = 1.0 / np.sqrt(b)
    prob = husimi.modified_husimi(psi).probabilities
    assert abs(prob[0, j0] - 1.0) < 1e-14
    assert prob.sum() == pytest.approx(1.0)


def test_probabilities_sum_to_one():
    for seed in (16, 17):
        psi = oracles.random_state(256, seed=seed)
        prob = husimi.modified_husimi(psi).probabilities
        assert abs(prob.sum() - 1.0) < 1e-10


def test_modified_needs_even_qubit_count():
    psi = oracles.random_state(8, seed=18)
    with pytest.raises(QPhaseError) as err:
        husimi.modified_husimi(psi)
    assert err.value.category == "invalid-parameter"


def test_coherent_state_basics():
    N = 256
    phi = husimi.coherent_state(N, 0.7, 40.0)
    assert abs(np.linalg.norm(phi) - 1.0) < 1e-12
    assert husimi.default_width(N) == pytest.approx(np.sqrt(N / (4 * np.pi)))
    ref = oracles.brute_coherent(N, 0.7, 40.0, husimi.default_width(N))
    assert np.max(np.abs(phi - ref)) < 1e-13


def test_gaussian_self_overlap_is_one():
    N = 128
    phi = husimi.coherent_state(N, 1.1, 30.0)
    value = abs(np.vdot(husimi.coherent_state(N, 1.1, 30.0), phi)) ** 2
    assert abs(value - 1.0) < 1e-12


def test_distant_coherent_states_are_orthogonal():
    # centers half a ring apart: the envelope product is ~ e^{-N pi / 2}
    N = 256
    phi = husimi.coherent_state(N, 0.0, 64.0)
    assert abs(np.vdot(husimi.coherent_state(N, 0.0, 192.0), phi)) ** 2 < 1e-10


def test_grid_matches_explicit_centers():
    N = 16
    psi = oracles.random_state(N, seed=19)
    grid = husimi.gaussian_husimi(psi)
    assert grid.shape == (N, N)
    for l, n0 in ((0, 0), (3, 7), (15, 12)):
        phi = husimi.coherent_state(N, 2 * np.pi * l / N, float(n0))
        assert abs(grid[l, n0] - abs(np.vdot(phi, psi)) ** 2) < 1e-12


def test_overlap_identity_with_wigner_grids():
    # |<phi|psi>|^2 = 2N sum_{Theta,n} W_phi W_psi over the full doubled grid
    N = 32
    psi = oracles.random_state(N, seed=20)
    phi = oracles.random_state(N, seed=21)
    wp = wigner.wigner_direct(psi).values
    wf = wigner.wigner_direct(phi).values
    lhs = abs(np.vdot(phi, psi)) ** 2
    rhs = 2 * N * np.sum(wp * wf)
    assert abs(lhs - rhs) < 1e-13


def test_gaussian_grid_is_smoothed_wigner():
    # overlapping with width-a Gaussians acts as a periodic Gaussian blur of
    # the doubled-grid distribution, read out on the mirrored sublattice
    N = 64
    rng = np.random.default_rng(3)
    psi = rng.normal(size=N) + 1j * rng.normal(size=N)
    psi /= np.linalg.norm(psi)
    grid = husimi.gaussian_husimi(psi)
    full = wigner.wigner_from_momentum(psi).values
    smooth = oracles.periodic_gaussian_smooth(full, np.sqrt(N / np.pi))
    qq = (-2 * np.arange(N)) % (2 * N)
    approx = smooth[np.ix_(qq, qq)]
    corr = np.corrcoef(grid.ravel(), approx.ravel())[0, 1]
    assert corr > 0.99


def test_modulus_state_single_cell():
    # one occupied grid cell: the diagonal projection is already a delta,
    # carries full weight, and needs no amplification
    N, b = 64, 8
    j0 = 2
    psi = np.zeros(N, dtype=complex)
    psi[j0 * b : (j0 + 1) * b] = 1.0 / np.sqrt(b)
    vector, cost = husimi.husimi_modulus_state(psi)
    expect = np.zeros(N)
    expect[j0] = 1.0  # flat index of cell (l=0, j=j0)
    assert np.max(np.abs(vector - expect)) < 1e-12
    assert cost.diagonal_weight == pytest.approx(1.0)
    assert cost.amplify_iterations == 0
    assert cost.cost_scale_per_step == pytest.approx(b)


def test_modulus_state_uniform_grid():
    # sqrt(N) momentum deltas, one per block: |H|^2 is flat at 1/N, so the
    # diagonal weight collapses to 1/N
    N, b = 64, 8
    psi = np.zeros(N, dtype=complex)
    psi[::b] = 1.0 / np.sqrt(b)
    vector, cost = husimi.husimi_modulus_state(psi)
    assert np.allclose(vector.real, 1.0 / b, atol=1e-12)
    assert cost.diagonal_weight == pytest.approx(1.0 / N)
    assert cost.amplify_iterations == husimi.grover_iterations(1.0 / N)


def test_modulus_state_proportional_to_probabilities():
    psi = oracles.random_state(256, seed=22)
    prob = husimi.modified_husimi(psi).probabilities
    vector, cost = husimi.husimi_modulus_state(psi)
    expect = prob.reshape(-1) / np.sqrt(np.sum(prob.reshape(-1) ** 2))
    assert np.max(np.abs(vector - expect)) < 1e-10
    assert abs(np.linalg.norm(vector) - 1.0) < 1e-12
    assert cost.diagonal_weight == pytest.approx(np.sum(prob ** 2))


def test_modulus_state_resource_limit():
    psi = np.zeros(1 << 12, dtype=complex)
    psi[0] = 1.0
    with pytest.raises(QPhaseError) as err:
        husimi.husimi_modulus_state(psi)
    assert err.value.category == "resource"


def test_chaotic_distribution_avoids_stability_islands():
    # late-time K = 2 distribution vs a classical ensemble on the same grid:
    # the quantum weight sits on the connected chaotic component and stays
    # off the cells the classical flow never reaches
    params = rotator.RotatorParams(n_q=16, K=2.0)
    psi = rotator.evolve(rotator.initial_band_state(params), params, 1000)
    prob = husimi.modified_husimi(psi).probabilities

    ens = stdmap.evolve_ensemble(stdmap.initial_band(2.0, count=200_000, seed=3), 1000)
    dens = stdmap.histogram_density(ens, 256, 256)
    dens = np.roll(dens, 128, axis=1)  # p in [-pi, pi) -> angle-ordered [0, 2 pi)

    forbidden = dens == 0.0
    assert 0.05 < forbidden.mean() < 0.6  # the island structure is resolved
    assert prob[forbidden].sum() < 0.08
    assert prob[~forbidden].sum() > 0.9
