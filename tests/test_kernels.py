"""The D4 stencil, and the classical map advance against its documented step."""

import numpy as np

import oracles
from qphase import kernels


def test_stdmap_advance_is_the_documented_step_bit_for_bit():
    # p += K sin(theta), theta = wrap(theta + p), p = wrap(p) when wrapping
    # is on; the same numpy operations in the same order give the same bits
    rng = np.random.default_rng(2)
    theta0 = rng.uniform(0, 2 * np.pi, size=1000)
    p0 = rng.uniform(-np.pi, np.pi, size=1000)
    K, two_pi = 1.3, 2 * np.pi
    for wrap in (True, False):
        theta, p = theta0, p0
        for _ in range(20):
            p = p + K * np.sin(theta)
            theta = (theta + p) % two_pi
            if wrap:
                p = (p + np.pi) % two_pi - np.pi
        got_theta, got_p = kernels.stdmap_advance(theta0, p0, K, 20, wrap)
        assert np.array_equal(got_theta, theta) and np.array_equal(got_p, p), wrap


def _halves(x, axis):
    # two empty arrays of x's shape halved along axis, for d4_analyze's out
    shape = list(x.shape)
    shape[axis] //= 2
    return np.empty(shape), np.empty(shape)


def test_analyze_synthesize_roundtrip_on_active_path():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 128))
    for data, axis in ((x, -1), (x.T, 0)):
        a, d = kernels.d4_analyze(data, _halves(data, axis), axis=axis)
        back = kernels.d4_synthesize(a, d, np.empty(data.shape), axis=axis)
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
        a, d = kernels.d4_analyze(x, _halves(x, axis), axis=axis)
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


def _synthesis_reference(a, d, axis):
    # the transposed dense analysis matrix applied to [a; d] along axis
    mat = oracles.d4_analysis_matrix(2 * a.shape[axis])
    stacked = np.moveaxis(np.concatenate([a, d], axis=axis), axis, -1)
    return np.moveaxis(stacked @ mat, -1, axis)


def test_synthesize_is_the_transposed_analysis_matrix():
    # 1D, 2D along both axes, and the tiled (side/t, t, side/t, t) view along
    # the two axes the tiled pyramid uses; lengths 1 and 2 hit the wrap twice
    rng = np.random.default_rng(8)
    cases = [(rng.normal(size=n), 0) for n in (1, 2, 32, 1 << 11)]
    for rows, cols in ((3, 8), (64, 64), (512, 256)):
        cases += [(rng.normal(size=(rows, cols)), 1), (rng.normal(size=(cols, rows)), 0)]
    for side, tile in ((16, 4), (64, 8)):
        view = (side // tile, tile // 2, side // tile, tile)
        cases += [(rng.normal(size=view), 1),
                  (rng.normal(size=view[:3] + (tile // 2,)), 3)]
    for a, axis in cases:
        d = rng.normal(size=a.shape)
        shape = list(a.shape)
        shape[axis] *= 2
        got = kernels.d4_synthesize(a, d, np.empty(shape), axis=axis)
        ref = _synthesis_reference(a, d, axis)
        assert np.max(np.abs(got - ref)) < 1e-14, (a.shape, axis)


def test_synthesize_writes_into_given_output():
    rng = np.random.default_rng(9)
    a, d = rng.normal(size=(2, 8, 6))
    out = np.full((8, 12), np.nan)
    result = kernels.d4_synthesize(a, d, out, axis=1)
    assert result is out
    assert np.max(np.abs(out - _synthesis_reference(a, d, 1))) < 1e-14
