"""The D4 stencil, the cell wrap against numpy's `%`, and the classical map
advance against its documented step."""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from qphase import kernels

TWO_PI = 2 * np.pi


def test_stdmap_advance_is_the_documented_step_bit_for_bit():
    # p += K sin(theta), theta = wrap(theta + p), p = wrap(p); the same numpy
    # operations in the same order give the same bits.
    # K = 20 sends theta + p outside [-2 pi, 4 pi), so the wrap's np.remainder
    # fallback runs inside the loop as well
    rng = np.random.default_rng(2)
    theta0 = rng.uniform(0, 2 * np.pi, size=1000)
    p0 = rng.uniform(-np.pi, np.pi, size=1000)
    two_pi = 2 * np.pi
    for K in (1.3, 20.0):
        theta, p = theta0, p0
        for _ in range(20):
            p = p + K * np.sin(theta)
            theta = (theta + p) % two_pi
            p = (p + np.pi) % two_pi - np.pi
        got_theta, got_p = kernels.stdmap_advance(theta0, p0, K, 20)
        assert np.array_equal(got_theta, theta) and np.array_equal(got_p, p), K


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


# inside [-2 pi, 4 pi): zeros of both signs, the range ends and the values
# next to them; -1e-17 rounds to exactly 2 pi under `%` and must still do so
_WRAP_EDGES = (0.0, -0.0, TWO_PI, -TWO_PI, np.nextafter(2 * TWO_PI, 0),
               np.nextafter(-TWO_PI, 0), np.nextafter(TWO_PI, 0), -1e-17)
# outside it, the range ends included: these take the np.remainder fallback
_WRAP_FALLBACK = (2 * TWO_PI, np.nextafter(-TWO_PI, -np.inf),
                  float("nan"), float("inf"), float("-inf"), 1e6, -1e6)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(hnp.arrays(np.float64, st.integers(1, 16),
                  elements=st.one_of(st.floats(-TWO_PI, 2 * TWO_PI, exclude_max=True),
                                     st.sampled_from(_WRAP_EDGES))))
@example(np.array(_WRAP_EDGES))
@example(np.array(_WRAP_EDGES + _WRAP_FALLBACK))
@example(np.array(_WRAP_FALLBACK))
def test_property_wrap_is_numpy_remainder_bit_for_bit(x):
    # int64 views, so +0.0 and -0.0 count as different results; inf % 2 pi
    # is NaN with numpy's invalid-value warning on both sides
    with np.errstate(invalid="ignore"):
        assert np.array_equal(_bits(kernels.wrap_theta(x)), _bits(x % TWO_PI))
        assert np.array_equal(_bits(kernels.wrap_momentum(x)),
                              _bits((x + np.pi) % TWO_PI - np.pi))
        for value in x.tolist():
            assert _bits(kernels.wrap_theta(value)) == _bits(value % TWO_PI), value


def test_wrap_round_off_edges():
    # the `%` edges the wrap keeps: 2 pi itself just below 0, +pi just below -pi
    assert kernels.wrap_theta(-1e-17) == TWO_PI
    assert kernels.wrap_theta(np.array([-1e-17]))[0] == TWO_PI
    assert kernels.wrap_momentum(np.nextafter(-np.pi, -4.0)) == np.pi
    assert _bits(kernels.wrap_theta(-0.0)) == 0


def test_wrap_in_range_never_calls_numpy_remainder(monkeypatch):
    # an ensemble inside [-2 pi, 4 pi) is wrapped by the exact shift alone
    x = np.array(_WRAP_EDGES)
    expected = _bits(x % TWO_PI).copy()

    def refuse(*args, **kwargs):
        raise AssertionError("np.remainder called on an in-range array")

    monkeypatch.setattr(kernels.np, "remainder", refuse)
    assert np.array_equal(_bits(kernels.wrap_theta(x)), expected)
    kernels.stdmap_advance(np.linspace(0, 6, 50), np.linspace(-3, 3, 50), 2.0, 10)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
                  elements=st.floats(allow_nan=False, allow_infinity=False)),
       st.lists(st.tuples(st.integers(0, 1 << 10),
                          st.sampled_from((np.nan, np.inf, -np.inf))), max_size=3))
@example(np.array(1.5), [(0, np.inf)])
@example(np.zeros((0, 3)), [])
def test_property_finite_is_isfinite_all(x, bad):
    # NaN, +inf or -inf at random positions of a float array, 0-d and empty
    # ones included, and of a complex array read through its float64 view
    flat = x.reshape(-1)
    for at, value in bad:
        if flat.size:
            flat[at % flat.size] = value
    assert kernels.finite(x) == bool(np.isfinite(x).all())
    z = np.empty(flat.size, dtype=np.complex128)
    z.real, z.imag = flat, flat[::-1]
    assert kernels.finite(z.view(np.float64)) == bool(np.isfinite(z).all())


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


def test_split_map_is_bit_identical_to_the_inline_map(monkeypatch):
    # three pieces inline and six on two threads, of different lengths;
    # K = 20 takes the wrap's np.remainder fallback in some pieces and steps
    # and not in others
    rng = np.random.default_rng(19)
    theta = rng.uniform(0, TWO_PI, size=2 * kernels.BLOCK + 7)
    p = rng.uniform(-np.pi, np.pi, size=theta.size)
    for K in (1.3, 20.0):
        two, one, threads = oracles.on_both_paths(
            monkeypatch, lambda: kernels.stdmap_advance(theta, p, K, 6))
        assert threads == 2
        for a, b in zip(two, one):
            assert _bits(a).tobytes() == _bits(b).tobytes()


def _split_calls(n: int, size: int) -> list:
    # (thread id, slices) of each work call of kernels.split(work, n, size),
    # the calling thread's first
    calls = []
    kernels.split(lambda parts: calls.append((threading.get_ident(), parts)), n, size)
    return sorted(calls, key=lambda call: call[0] != threading.get_ident())


@pytest.mark.parametrize("cores", [1, 2])
def test_split_slices_cover_the_range_in_order(monkeypatch, cores):
    # one inline call for one slice's worth or one core; otherwise twice as
    # many slices, half as long, the first half on the calling thread and
    # the second on the helper
    monkeypatch.setattr(kernels, "usable_cores", lambda: cores)
    for n, size in ((0, 4), (3, 4), (4, 4), (5, 4), (100_000, kernels.BLOCK), (1 << 20, 128)):
        calls = _split_calls(n, size)
        parts = [part for _, slices in calls for part in slices]
        assert [i for part in parts for i in range(n)[part]] == list(range(n))
        assert all(0 < part.stop - part.start <= size for part in parts)
        count = -(-n // size)
        if count > 1 and cores > 1:
            assert len(parts) == 2 * count and len(calls) == 2
            assert [len(slices) for _, slices in calls] == [count, count]
            assert len({thread for thread, _ in calls}) == 2
        else:
            assert len(parts) == count
            assert [thread for thread, _ in calls] == [threading.get_ident()]


def test_split_runs_inline_while_the_helper_is_busy(monkeypatch):
    # another caller holds the helper: one call on the calling thread, with
    # the undoubled slices
    monkeypatch.setattr(kernels, "usable_cores", lambda: 2)
    with kernels._busy:
        calls = _split_calls(100, 30)
    assert calls == [(threading.get_ident(),
                      [slice(0, 25), slice(25, 50), slice(50, 75), slice(75, 100)])]


def test_split_raises_after_both_halves_stopped_and_recovers(monkeypatch):
    monkeypatch.setattr(kernels, "usable_cores", lambda: 2)
    stopped = []

    def helper_half_fails(parts):
        if parts[0].start == 2:
            raise ValueError("helper half")

    def caller_half_fails(parts):
        if parts[0].start == 0:
            raise ValueError("caller half")
        time.sleep(0.2)
        stopped.append(parts)

    with pytest.raises(ValueError, match="helper half"):
        kernels.split(helper_half_fails, 4, 2)
    with pytest.raises(ValueError, match="caller half"):
        kernels.split(caller_half_fails, 4, 2)
    assert stopped == [[slice(2, 3), slice(3, 4)]]
    assert len(_split_calls(4, 2)) == 2


def _threads_after(code: str) -> int:
    # threading.active_count() in a fresh interpreter once code has run
    src = str(Path(kernels.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c",
                          f"import sys, threading; sys.path.insert(0, {src!r})\n{code}\n"
                          "print(threading.active_count())"],
                         check=True, capture_output=True, text=True, timeout=120)
    return int(run.stdout.split()[-1])


def test_import_loads_no_thread_pool_modules():
    # the helper's executor is imported when it first starts, so a fresh
    # process keeps the import-time memory of `import qphase`
    src = str(Path(kernels.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c",
                          f"import sys; sys.path.insert(0, {src!r})\nimport qphase\n"
                          "print([m for m in ('concurrent.futures', 'queue') if m in sys.modules])"],
                         check=True, capture_output=True, text=True, timeout=120)
    assert run.stdout.split()[-1] == "[]"


def test_one_chunk_inputs_never_start_the_helper():
    assert _threads_after(
        "from qphase import analysis, kernels\n"
        "analysis.husimi_scan_row(2.0, 16, 3); analysis.wigner_scan_row(2.0, 5, 10)\n"
        "kernels.stdmap_advance([0.5] * kernels.BLOCK, [0.1] * kernels.BLOCK, 2.0, 3)") == 1


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity call")
def test_one_usable_cpu_never_starts_the_helper():
    # the process pins itself to one CPU, as `taskset -c 0` does; an n_q = 9
    # row then runs every split loop inline
    code = ("import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from qphase import analysis, kernels\n"
            "assert kernels.usable_cores() == 1\n"
            "analysis.wigner_scan_row(2.0, 9, 10)")
    assert _threads_after(code) == 1
    assert _threads_after("from qphase import kernels\n"
                          "kernels.usable_cores = lambda: 2\n"
                          "kernels.split(list, 2, 1)") == 2


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError):
        return False


@pytest.mark.skipif(not _glibc(), reason="malloc arenas are glibc's")
def test_helper_thread_allocates_from_the_callers_malloc_arena():
    # glibc's malloc_stats prints one "Arena i:" block per arena; the helper
    # allocates chunk scratch, but from the main arena, not one of its own
    src = str(Path(kernels.__file__).resolve().parents[1])
    code = (f"import sys, ctypes; sys.path.insert(0, {src!r})\n"
            "import numpy as np\n"
            "from qphase import kernels\n"
            "kernels.usable_cores = lambda: 2\n"
            "kernels.split(lambda parts: [float(np.ones(1000 * (p.stop)).sum()) for p in parts],"
            " 8, 2)\n"
            "stats = ctypes.CDLL(None).malloc_stats\n"
            "stats.argtypes, stats.restype = (), None\n"
            "stats()\n")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, timeout=120, env=env)
    assert run.stderr.count("Arena ") == 1, run.stderr


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_forked_child_finishes_a_split_call(monkeypatch):
    monkeypatch.setattr(kernels, "usable_cores", lambda: 2)
    kernels.split(list, 2, 1)  # the parent's helper thread is running
    pid = os.fork()
    if pid == 0:  # the child has no helper thread until it starts its own
        status = 1
        try:
            status = 0 if len({thread for thread, _ in _split_calls(4, 2)}) == 2 else 1
        finally:
            os._exit(status)
    deadline = time.monotonic() + 30
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child waited on its parent's helper thread")
        time.sleep(0.01)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
