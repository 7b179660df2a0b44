"""The D4 stencil, and equivalence of the numpy and numba map paths."""

import numpy as np
import pytest

from qphase import kernels
from qphase._accel import HAS_NUMBA

needs_numba = pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")


@pytest.fixture
def restore_path():
    # leave the globally selected kernel path as we found it
    before = kernels.numba_active()
    yield
    kernels.use_numba(before)


def test_use_numba_reports_effective_value(restore_path):
    # disabling always sticks; enabling only sticks when numba exists
    assert kernels.use_numba(False) is False
    assert kernels.numba_active() is False
    assert kernels.use_numba(True) == HAS_NUMBA
    assert kernels.numba_active() == HAS_NUMBA


@needs_numba
def test_stdmap_advance_paths_agree(restore_path):
    rng = np.random.default_rng(2)
    theta = rng.uniform(0, 2 * np.pi, size=1000)
    p = rng.uniform(-np.pi, np.pi, size=1000)
    for wrap in (True, False):
        kernels.use_numba(False)
        th_np, p_np = kernels.stdmap_advance(theta, p, 1.3, 20, wrap_p=wrap)
        kernels.use_numba(True)
        th_nb, p_nb = kernels.stdmap_advance(theta, p, 1.3, 20, wrap_p=wrap)
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
