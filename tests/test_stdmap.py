"""Classical standard-map ensembles: stepping, inversion, histograms."""

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from qphase import kernels, stdmap
from qphase.errors import QPhaseError


def single(theta, p, K):
    return stdmap.ClassicalEnsemble(np.array([theta]), np.array([p]), K)


def test_fixed_points_stay_put():
    for theta0 in (0.0, np.pi):
        ens = stdmap.evolve_ensemble(single(theta0, 0.0, 1.7), 1)
        assert abs(ens.theta[0] - theta0) < 1e-12
        assert abs(ens.p[0]) < 1e-12


def test_single_step_by_hand():
    # p' = 0 + 0.5 sin(pi/2) = 0.5, theta' = pi/2 + 0.5
    ens = stdmap.evolve_ensemble(single(np.pi / 2, 0.0, 0.5), 1)
    assert abs(ens.p[0] - 0.5) < 1e-12
    assert abs(ens.theta[0] - (np.pi / 2 + 0.5)) < 1e-12


def test_evolve_zero_steps_is_identity():
    ens = stdmap.initial_band(0.9, count=100, seed=4)
    out = stdmap.evolve_ensemble(ens, 0)
    assert np.array_equal(out.theta, ens.theta)
    assert np.array_equal(out.p, ens.p)
    assert out.theta is not ens.theta  # a copy, not a view


def test_evolve_two_steps_composes_single_steps():
    ens = stdmap.initial_band(1.1, count=50, seed=5)
    twice = stdmap.evolve_ensemble(stdmap.evolve_ensemble(ens, 1), 1)
    out = stdmap.evolve_ensemble(ens, 2)
    assert np.max(np.abs(out.theta - twice.theta)) < 1e-12
    assert np.max(np.abs(out.p - twice.p)) < 1e-12


def test_evolve_rejects_negative_time():
    ens = stdmap.initial_band(1.0, count=10, seed=0)
    with pytest.raises(QPhaseError) as err:
        stdmap.evolve_ensemble(ens, -1)
    assert err.value.category == "invalid-parameter"


@pytest.mark.parametrize("K", [float("nan"), float("inf"), -1.0])
def test_initial_band_rejects_non_finite_kick_strength(K):
    with pytest.raises(QPhaseError) as err:
        stdmap.initial_band(K, count=10, seed=0)
    assert err.value.category == "invalid-parameter"


def test_inverse_map_recovers_preimage():
    # theta = theta' - p', p = p' - K sin(theta); compare wrapped coordinates
    K = 1.4
    ens = stdmap.initial_band(K, count=1000, seed=6)
    out = stdmap.evolve_ensemble(ens, 1)
    theta_back = kernels.wrap_theta(out.theta - out.p)
    p_back = kernels.wrap_momentum(out.p - K * np.sin(theta_back))
    dtheta = np.abs(kernels.wrap_theta(theta_back - ens.theta + np.pi) - np.pi)
    dp = np.abs(kernels.wrap_momentum(p_back - ens.p))
    assert np.max(dtheta) < 1e-12
    assert np.max(dp) < 1e-12


def test_area_preserved_over_one_step():
    # small disc in a smooth region; the map has unit Jacobian, so the hull
    # area of its image should match within a percent
    K = 0.5
    angles = np.linspace(0, 2 * np.pi, 200, endpoint=False)
    theta = np.pi + 0.05 * np.cos(angles)
    p = 0.5 + 0.05 * np.sin(angles)
    before = ConvexHull(np.column_stack([theta, p])).volume
    p_new = p + K * np.sin(theta)
    theta_new = theta + p_new  # unwrapped on purpose: the hull must not tear
    after = ConvexHull(np.column_stack([theta_new, p_new])).volume
    assert abs(after - before) / before < 0.01


def test_histogram_single_point_mass():
    grid = stdmap.histogram_density(single(1.0, 0.3, 1.0), 8, 8)
    assert grid.shape == (8, 8)
    assert np.count_nonzero(grid) == 1
    assert grid.max() == 1.0


def test_histogram_total_mass_is_one():
    ens = stdmap.initial_band(2.0, count=1000, seed=7)
    grid = stdmap.histogram_density(ens, 16, 16)
    assert abs(grid.sum() - 1.0) < 1e-12


def test_histogram_uniform_ensemble_within_5_sigma():
    # 10^6 uniform points over the full cell: each of the 256 bins is a
    # binomial count with q = 1/256, so the mass per bin stays within
    # 5 sqrt(q(1-q)/M) of q
    count = 1_000_000
    rng = np.random.Generator(np.random.Philox(1))
    ens = stdmap.ClassicalEnsemble(
        rng.uniform(0, 2 * np.pi, count), rng.uniform(-np.pi, np.pi, count), 1.0)
    grid = stdmap.histogram_density(ens, 16, 16)
    q = 1.0 / 256
    sigma = np.sqrt(q * (1 - q) / count)
    assert np.max(np.abs(grid - q)) < 5 * sigma


def test_histogram_rejects_empty_bins():
    ens = stdmap.initial_band(1.0, count=10, seed=1)
    with pytest.raises(QPhaseError) as err:
        stdmap.histogram_density(ens, 0, 8)
    assert err.value.category == "invalid-parameter"


def _occupied_momentum_bins(K: float, seed: int) -> float:
    # share of the 64 momentum bins the band reaches after 1000 kicks
    ens = stdmap.evolve_ensemble(stdmap.initial_band(K, count=2000, seed=seed), 1000)
    return float(np.count_nonzero(stdmap.histogram_density(ens, 1, 64))) / 64


def test_band_stays_bounded_in_mixed_regime():
    # K = 0.5 is far below the last-invariant-curve breakup: trajectories stay
    # trapped between tori, so the band keeps to about a third of the cell
    for seed in (8, 9, 10, 11):
        assert _occupied_momentum_bins(0.5, seed) < 0.5, seed


def test_chaotic_spread_exceeds_mixed_spread():
    # K = 2 is past the breakup: the band diffuses over the whole cell
    for seed in (8, 9, 10, 11):
        assert _occupied_momentum_bins(2.0, seed) > 0.9, seed


def test_initial_band_is_seed_reproducible():
    a = stdmap.initial_band(1.0, count=100, seed=13)
    b = stdmap.initial_band(1.0, count=100, seed=13)
    c = stdmap.initial_band(1.0, count=100, seed=14)
    assert np.array_equal(a.theta, b.theta) and np.array_equal(a.p, b.p)
    assert not np.array_equal(a.theta, c.theta)


def test_initial_band_respects_momentum_range():
    ens = stdmap.initial_band(1.0, count=5000, seed=2)
    lo, hi = stdmap.DEFAULT_BAND_P
    assert np.all(ens.p >= lo) and np.all(ens.p < hi)
    assert np.all(ens.theta >= 0) and np.all(ens.theta < 2 * np.pi)


def test_ensemble_validation():
    with pytest.raises(QPhaseError) as err:
        stdmap.ClassicalEnsemble(np.array([1.0]), np.array([1.0, 2.0]), 1.0)
    assert err.value.category == "invalid-dimension"
    with pytest.raises(QPhaseError) as err:
        stdmap.ClassicalEnsemble(np.array([np.nan]), np.array([1.0]), 1.0)
    assert err.value.category == "invalid-data"
