"""The D4 stencil, and equivalence of the numpy and numba map paths."""

import numpy as np
import pytest

import oracles
from qphase import kernels
from qphase.kernels import HAS_NUMBA

needs_numba = pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")


@needs_numba
def test_stdmap_advance_paths_agree():
    rng = np.random.default_rng(2)
    theta = rng.uniform(0, 2 * np.pi, size=1000)
    p = rng.uniform(-np.pi, np.pi, size=1000)
    for wrap in (True, False):
        th_np, p_np = kernels._stdmap_advance_np(theta, p, 1.3, 20, wrap)
        th_nb, p_nb = kernels._stdmap_advance_nb(theta, p, 1.3, 20, wrap)
        # identical update order, so agreement is tight even after 20 steps
        assert np.max(np.abs(th_np - th_nb)) < 1e-9
        assert np.max(np.abs(p_np - p_nb)) < 1e-9


def test_analyze_synthesize_roundtrip_on_active_path():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 128))
    for data, axis in ((x, -1), (x.T, 0)):
        a, d = kernels.d4_analyze(data, axis=axis)
        back = kernels.d4_synthesize(a, d, axis=axis)
        assert np.max(np.abs(back - data)) < 1e-12


def test_stdmap_advance_leaves_inputs_untouched():
    theta = np.array([1.0, 2.0])
    p = np.array([0.5, -0.5])
    kernels.stdmap_advance(theta, p, 2.0, 3)
    assert np.array_equal(theta, [1.0, 2.0])
    assert np.array_equal(p, [0.5, -0.5])


def test_analyze_is_bit_identical_to_the_roll_expression():
    # 1D, 2D along both axes, and the tiled (side/t, t, side/t, t) view along
    # the two axes the tiled pyramid uses; sizes span one chunk and several
    rng = np.random.default_rng(4)
    cases = [(rng.normal(size=n), 0) for n in (2, 4, 64, 1 << 12)]
    for side in (4, 32, 1024):
        field = rng.normal(size=(side, side))
        cases += [(field, 0), (field, 1), (field, -1)]
    for side, tile in ((16, 4), (64, 8), (1024, 16)):
        tiled = rng.normal(size=(side, side)).reshape(side // tile, tile, side // tile, tile)
        cases += [(tiled, 3), (tiled, 1)]
    for x, axis in cases:
        a, d = kernels.d4_analyze(x, axis=axis)
        ref_a, ref_d = oracles.d4_level_reference(x, axis)
        assert np.array_equal(a, ref_a) and np.array_equal(d, ref_d), (x.shape, axis)


def test_analyze_writes_into_given_outputs():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(8, 16))
    out = (np.empty((8, 8)), np.empty((8, 8)))
    result = kernels.d4_analyze(x, axis=1, out=out)
    assert result[0] is out[0] and result[1] is out[1]
    ref_a, ref_d = oracles.d4_level_reference(x, 1)
    assert np.array_equal(out[0], ref_a) and np.array_equal(out[1], ref_d)
