"""Kicked-rotator quantum evolution."""

import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import oracles
from qphase import rotator
from qphase.errors import QPhaseError
from qphase.statevec import REGISTER_QUBIT_LIMIT, qft


def test_params_default_period_and_kick_strength():
    params = rotator.RotatorParams(n_q=5, K=2.0)
    assert params.N == 32
    assert params.T == pytest.approx(2 * np.pi / 32)
    assert params.k == pytest.approx(2.0 / params.T)


def test_params_validation():
    with pytest.raises(QPhaseError) as err:
        rotator.RotatorParams(n_q=0, K=1.0)
    assert err.value.category == "invalid-parameter"
    with pytest.raises(QPhaseError) as err:
        rotator.RotatorParams(n_q=4, K=-1.0)
    assert err.value.category == "invalid-parameter"
    with pytest.raises(QPhaseError) as err:
        rotator.RotatorParams(n_q=REGISTER_QUBIT_LIMIT + 1, K=1.0)
    assert err.value.category == "resource"


@pytest.mark.parametrize("K", [float("nan"), float("inf")])
def test_params_reject_non_finite_kick_strength(K):
    with pytest.raises(QPhaseError) as err:
        rotator.RotatorParams(n_q=4, K=K)
    assert err.value.category == "invalid-parameter"


def test_free_phase_is_momentum_periodic():
    # at T = 2 pi / N with even N, e^{-iT(n+N)^2/2} = e^{-iTn^2/2}: the extra
    # terms are 2 pi n + pi N, both integer multiples of 2 pi
    params = rotator.RotatorParams(n_q=4, K=0.0)
    n = np.arange(params.N)
    phase = np.exp(-0.5j * params.T * n ** 2)
    shifted = np.exp(-0.5j * params.T * (n + params.N) ** 2)
    assert np.max(np.abs(phase - shifted)) < 1e-12


@pytest.mark.parametrize("n_q", range(1, 9))
def test_free_rotation_is_chirp_dft_chirp_in_the_angle_basis(n_q):
    # the quadratic Gauss sum sum_n e^{-i pi n^2 / N} = sqrt(N) e^{-i pi/4}
    # (N even) gives F P F^{-1} = e^{-i pi/4} D F D with the evolution's chirp D
    N = 1 << n_q
    n = np.arange(N, dtype=np.int64)
    free = np.diag(np.exp(-1j * np.pi / N * ((n * n) % (2 * N))))
    fwd = oracles.dft_matrix(N)
    chirp = np.diag(rotator._chirp(n_q))
    lhs = fwd @ free @ oracles.dft_matrix(N, inverse=True)
    rhs = np.exp(-0.25j * np.pi) * chirp @ fwd @ chirp
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_band_state_examples():
    # n_q = 3: all weight on |0> (N/8 = 1 slot)
    psi = rotator.initial_band_state(rotator.RotatorParams(n_q=3, K=1.0))
    assert psi[0] == 1.0 and np.all(psi[1:] == 0)
    # n_q = 5: amplitude 1/2 on the first four slots
    psi = rotator.initial_band_state(rotator.RotatorParams(n_q=5, K=1.0))
    assert np.allclose(psi[:4], 0.5) and np.all(psi[4:] == 0)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-14


def test_band_state_needs_three_qubits():
    with pytest.raises(QPhaseError) as err:
        rotator.initial_band_state(rotator.RotatorParams(n_q=2, K=1.0))
    assert err.value.category == "invalid-parameter"


def test_zero_kick_only_rotates_phases():
    # K = 0: a momentum delta just picks up its free phase e^{-i T n0^2 / 2}
    params = rotator.RotatorParams(n_q=4, K=0.0)
    for n0 in (0, 3, 11):
        psi = np.zeros(params.N, dtype=complex)
        psi[n0] = 1.0
        out = rotator.evolve(psi, params, 1)
        expect = np.exp(-0.5j * params.T * n0 ** 2)
        assert abs(out[n0] - expect) < 1e-12
        assert np.linalg.norm(np.delete(out, n0)) < 1e-12


@pytest.mark.parametrize("n_q", range(1, 8))
@pytest.mark.parametrize("K", [0.0, 0.5, 2.0])
def test_step_matches_dense_matrix_every_small_register(n_q, K):
    # odd n_q is where the four-step layout is not square (N1 = 2 N2)
    params = rotator.RotatorParams(n_q=n_q, K=K)
    mat = oracles.dense_step_matrix(params.N, K)
    psi = oracles.random_state(params.N, seed=20 + n_q)
    assert np.max(np.abs(rotator.evolve(psi, params, 1) - mat @ psi)) < 1e-12


@pytest.mark.parametrize("n_q", range(1, 8))
@pytest.mark.parametrize("K", [0.0, 0.5, 2.0])
def test_evolve_matches_dense_matrix_powers(n_q, K):
    # t = 1..4 ends the alternating layouts once in each parity, from an odd
    # t's permuted start and an even t's natural one
    params = rotator.RotatorParams(n_q=n_q, K=K)
    mat = oracles.dense_step_matrix(params.N, K)
    psi = oracles.random_state(params.N, seed=40 + n_q)
    expect = psi
    for t in range(1, 5):
        expect = mat @ expect
        assert np.max(np.abs(rotator.evolve(psi, params, t) - expect)) < 1e-12


def test_free_evolution_matches_closed_form_over_1000_kicks():
    # K = 0: t kicks multiply momentum n by e^{-i pi (t n^2 mod 2N) / N}
    params = rotator.RotatorParams(n_q=16, K=0.0)
    t = 1000
    n = np.arange(params.N, dtype=np.int64)
    psi = oracles.random_state(params.N, seed=50)
    expect = np.exp(-1j * np.pi / params.N * ((t * n * n) % (2 * params.N))) * psi
    assert np.max(np.abs(rotator.evolve(psi, params, t) - expect)) < 1e-13


@pytest.mark.parametrize("n_q", [5, 8, 11, 16])
def test_evolve_matches_whole_length_fft_loop(n_q):
    params = rotator.RotatorParams(n_q=n_q, K=2.0)
    n = np.arange(params.N, dtype=np.int64)
    free = np.exp(-1j * np.pi / params.N * ((n * n) % (2 * params.N)))
    kick = np.exp(1j * params.k * np.cos(2.0 * np.pi * n / params.N))
    psi = oracles.random_state(params.N, seed=30 + n_q)
    expect = psi
    for _ in range(20):
        expect = qft(kick * qft(free * expect, "forward"), "inverse")
    assert np.max(np.abs(rotator.evolve(psi, params, 20) - expect)) < 1e-12


def test_evolve_makes_no_per_kick_page_faults():
    # whole-length FFT temporaries at n_q = 16 (1 MB each) cost about 960
    # minor faults per kick; the in-place loop faults only on its one copy.
    # A fresh process, because glibc's malloc thresholds follow what the
    # process allocated before.
    pytest.importorskip("resource")
    src = str(Path(rotator.__file__).resolve().parents[1])
    code = (
        f"import resource, sys\nsys.path.insert(0, {src!r})\n"
        "from qphase import rotator\n"
        "params = rotator.RotatorParams(n_q=16, K=2.0)\n"
        "psi = rotator.initial_band_state(params)\n"
        "rotator.evolve(psi, params, 1)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "rotator.evolve(psi, params, 100)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    run = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True)
    assert int(run.stdout) < 1000


def test_evolve_peak_memory_is_about_one_state():
    # the FFTs write into their input, so the traced peak is the one working
    # buffer plus row-sized scratch; one allocating transform adds a state
    params = rotator.RotatorParams(n_q=16, K=2.0)
    psi = rotator.initial_band_state(params)
    rotator.evolve(psi, params, 1)  # fill the caches outside the trace
    peak = oracles.traced_peak(lambda: rotator.evolve(psi, params, 50))
    assert peak < 1.25 * psi.nbytes


@pytest.mark.parametrize("n_q", [13, 14])
def test_kick_table_is_kick_times_phase_in_that_order(n_q):
    # the two operand orders of a complex product round differently; both
    # layouts of M hold kick * phase on either side of n_q 14, the first
    # size whose table fills 256 KiB
    params = rotator.RotatorParams(n_q=n_q, K=2.0)
    N = params.N
    j = np.arange(N, dtype=np.int64)
    phase = np.exp(1j * (2.0 * np.pi / N * ((j * j) % N) - 0.25 * np.pi))
    kick = np.exp(1j * params.k * np.cos(2.0 * np.pi * j / N))
    expect = kick * phase
    natural, permuted = rotator._phases(params)
    assert np.array_equal(natural.reshape(-1), expect)
    assert np.array_equal(permuted.T.reshape(-1), expect)  # permuted[k1, k2] = M[k1 + N1 k2]


def _band_run(params, t):
    return rotator.evolve(rotator.initial_band_state(params), params, t)


def test_rotator_holds_one_table_set_after_a_parameter_sweep():
    # eight (n_q, K) in one process leave only the last params' tables
    # (twiddles, chirp and M in two layouts, four states' worth) held
    sweep = [rotator.RotatorParams(n_q=n_q, K=K)
             for n_q in (14, 12) for K in (0.5, 0.9, 1.5, 2.0)]
    # numpy's FFT module loads on first use, outside the trace
    _band_run(rotator.RotatorParams(n_q=4, K=1.0), 1)
    tracemalloc.start()
    try:
        for params in sweep:
            _band_run(params, 1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 4 * 16 * sweep[-1].N + 4096


def test_k_switch_peak_is_the_new_kick_tables_and_one_state():
    # at the same n_q the twiddles and chirp stay; M's two layouts are built
    # in place on two state-sized buffers after the old M is dropped, so the
    # peak is M plus the working buffer and row scratch
    params = rotator.RotatorParams(n_q=16, K=2.0)
    psi = rotator.initial_band_state(params)
    rotator.evolve(psi, params, 1)
    switched = rotator.RotatorParams(n_q=16, K=0.5)
    peak = oracles.traced_peak(lambda: rotator.evolve(psi, switched, 2))
    assert peak < 3.25 * psi.nbytes


def _built_afresh(params, t):
    # a 3-qubit run first empties the slot of every table of params.n_q
    _band_run(rotator.RotatorParams(n_q=3, K=0.0), 1)
    return _band_run(params, t)


def test_alternating_params_in_one_thread_are_bit_identical():
    # each switch rebuilds the slot; a K change at the same n_q keeps the
    # twiddles and the chirp but must rebuild M
    sweep = [rotator.RotatorParams(n_q=n_q, K=K) for n_q, K in
             ((10, 0.5), (10, 2.0), (11, 2.0), (10, 0.5), (11, 0.9), (11, 2.0))]
    expect = {p: _built_afresh(p, 5) for p in sweep}
    for p in sweep * 2:
        assert np.array_equal(_band_run(p, 5), expect[p])


def test_two_threads_with_different_params_are_bit_identical_to_serial():
    # a library caller's two threads evolve different (n_q, K) at once and
    # keep replacing each other's table set in the slot
    lanes = ([rotator.RotatorParams(n_q=8, K=0.5), rotator.RotatorParams(n_q=9, K=2.0)] * 100,
             [rotator.RotatorParams(n_q=8, K=2.0), rotator.RotatorParams(n_q=9, K=0.9)] * 100)
    expect = {p: _built_afresh(p, 3) for lane in lanes for p in lane[:2]}
    start = threading.Barrier(2)

    def run(lane):
        start.wait()
        return [_band_run(p, 3) for p in lane]

    # switch threads every microsecond, so slot reads and writes interleave
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            threaded = list(pool.map(run, lanes))
    finally:
        sys.setswitchinterval(interval)
    for lane, got in zip(lanes, threaded):
        assert all(np.array_equal(a, expect[p]) for p, a in zip(lane, got))


def test_double_register_evolution_factorizes():
    # the second register runs conj(U) on conj(psi), which is conj(U psi):
    # u (x) conj(u) agrees with the dense product operator U (x) conj(U)
    # acting on the joint register
    params = rotator.RotatorParams(n_q=4, K=0.8)
    mat = oracles.dense_step_matrix(params.N, params.K)
    joint_op = np.kron(mat, mat.conj())
    psi = oracles.random_state(params.N, seed=12)
    joint = np.kron(psi, psi.conj())
    u = rotator.evolve(psi, params, 1)
    v = u.conj()
    assert np.max(np.abs(np.kron(u, v) - joint_op @ joint)) < 1e-10


def test_step_rejects_wrong_length():
    params = rotator.RotatorParams(n_q=3, K=1.0)
    with pytest.raises(QPhaseError) as err:
        rotator.evolve(np.zeros(4, dtype=complex), params, 1)
    assert err.value.category == "invalid-dimension"


def test_evolve_zero_steps_copies():
    params = rotator.RotatorParams(n_q=4, K=1.0)
    psi = oracles.random_state(params.N, seed=13)
    out = rotator.evolve(psi, params, 0)
    assert np.array_equal(out, psi) and out is not psi


def test_evolve_is_additive_in_time():
    params = rotator.RotatorParams(n_q=5, K=2.0)
    psi = rotator.initial_band_state(params)
    a = rotator.evolve(rotator.evolve(psi, params, 3), params, 4)
    b = rotator.evolve(psi, params, 7)
    assert np.max(np.abs(a - b)) < 1e-12


def test_norm_preserved_per_step_and_long_run():
    params = rotator.RotatorParams(n_q=7, K=0.5)
    psi = rotator.initial_band_state(params)
    one = rotator.evolve(psi, params, 1)
    assert abs(np.linalg.norm(one) - 1.0) < 1e-12
    long = rotator.evolve(psi, params, 1000)
    assert abs(np.linalg.norm(long) - 1.0) < 1e-10


def test_chaotic_band_spreads_over_momentum():
    # K = 2 band after 1000 kicks covers a large fraction of the cell; the
    # participation ratio 1 / sum w^2 stays above N/8
    params = rotator.RotatorParams(n_q=10, K=2.0)
    psi = rotator.evolve(rotator.initial_band_state(params), params, 1000)
    w = np.abs(psi) ** 2
    pr = 1.0 / np.sum(w ** 2)
    assert pr > params.N / 8
