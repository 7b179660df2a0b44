"""End-to-end acceptance checks.

One test per criterion; each prints a single [PASS]/[FAIL] line with the
measured quantities before asserting, so a full run (pytest -v -s) reads as a
checklist. Criteria with runtime budgets assert those too. Expensive evolved
states and scan rows are cached and shared across criteria.
"""

import math
import time
from functools import lru_cache

import numpy as np

from qphase import (analysis, husimi, imageio, measurement, rotator, wavelet,
                    wigner)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


@lru_cache(maxsize=None)
def evolved_band(n_q: int, K: float, t: int) -> np.ndarray:
    params = rotator.RotatorParams(n_q=n_q, K=K)
    return rotator.evolve(rotator.initial_band_state(params), params, t)


@lru_cache(maxsize=None)
def wigner_row(K: float, n_q: int, t: int):
    return analysis.wigner_scan_row(K, n_q, t)


@lru_cache(maxsize=None)
def husimi_row(K: float, n_q: int, t: int):
    return analysis.husimi_scan_row(K, n_q, t)


@lru_cache(maxsize=None)
def corpus128():
    return imageio.synthetic_corpus(128)


def test_criterion_1_pipeline_equals_direct():
    start = time.monotonic()
    worst = 0.0
    for n_q in range(3, 7):
        for K in (0.5, 2.0):
            params = rotator.RotatorParams(n_q=n_q, K=K)
            psi0 = rotator.initial_band_state(params)
            for t in (0, 5):
                grid, _ = wigner.wigner_register_pipeline(psi0, params, t)
                ref = wigner.wigner_from_momentum(rotator.evolve(psi0, params, t))
                worst = max(worst, float(np.max(np.abs(grid.values - ref.values))))
    elapsed = time.monotonic() - start
    ok = worst < 1e-9 and elapsed < 60
    assert report(1, ok, f"pipeline vs direct, n_q 3..6, K {{0.5,2}}, t {{0,5}}: "
                         f"max |diff| = {worst:.2e} (tol 1e-9), {elapsed:.1f}s (< 60s)")


def test_criterion_2_sum_rules():
    rng = np.random.default_rng(0)
    states = []
    for i in range(50):
        N = 1 << (2 + i % 7)  # n_q cycles 2..8
        psi = rng.normal(size=N) + 1j * rng.normal(size=N)
        states.append(psi / np.linalg.norm(psi))
    for n_q in range(3, 9):
        for K in (0.5, 2.0):
            states.append(evolved_band(n_q, K, 50))
    worst_total = worst_sq = worst_bound = 0.0
    for psi in states:
        grid = wigner.wigner_from_momentum(psi)
        N = grid.N
        worst_total = max(worst_total, abs(grid.total() - 1.0))
        worst_sq = max(worst_sq, abs(grid.total_sq() - 1.0 / (2 * N)))
        worst_bound = max(worst_bound, grid.max_abs() - (1.0 / (2 * N) + 1e-12))
    ok = worst_total < 1e-8 and worst_sq < 1e-8 and worst_bound <= 0.0
    assert report(2, ok, f"{len(states)} states: |sum W - 1| = {worst_total:.2e} (tol 1e-8), "
                         f"|sum W^2 - 1/2N| = {worst_sq:.2e} (tol 1e-8), "
                         f"bound excess = {worst_bound:.2e} (<= 0)")


def test_criterion_3_unitarity():
    start = time.monotonic()
    psi = evolved_band(12, 2.0, 1000)
    drift = abs(np.linalg.norm(psi) - 1.0)
    prob_sum = float(husimi.modified_husimi(evolved_band(16, 2.0, 1000)).probabilities.sum())
    husimi_err = abs(prob_sum - 1.0)
    elapsed = time.monotonic() - start
    ok = drift < 1e-10 and husimi_err < 1e-10 and elapsed < 120
    assert report(3, ok, f"norm drift after 1000 steps at n_q=12: {drift:.2e} (tol 1e-10); "
                         f"sum |H|^2 - 1 at n_q=16: {husimi_err:.2e} (tol 1e-10); "
                         f"{elapsed:.1f}s (< 120s)")


def test_criterion_4_wigner_ipr_scaling():
    # Each xi is the mean over five kick counts centred on t = 1000: a single
    # snapshot at small n_q swings by a factor of two from kick to kick. The
    # fit starts at n_q = 6: below it a Planck cell is as large as the island
    # the K = 0.5 state explores, so the quadratic law is not yet reached.
    start = time.monotonic()
    sizes = range(6, 12)
    kicks = range(960, 1041, 20)

    def fit(xis):
        return analysis.fit_scaling(zip(sizes, xis))

    raw_05 = fit([np.mean([analysis.wigner_ipr(wigner.wigner_from_momentum(
                               evolved_band(n, 0.5, t)).values) for t in kicks])
                  for n in sizes])
    rows_2 = [[wigner_row(2.0, n, t) for t in kicks] for n in sizes]
    raw_2 = fit([np.mean([r.xi_raw for r in rows]) for rows in rows_2])
    wav_2 = fit([np.mean([r.xi_wavelet for r in rows]) for rows in rows_2])
    elapsed = time.monotonic() - start
    in_window = 1.75 <= raw_05.exponent <= 2.15
    ordered_k = raw_2.exponent < raw_05.exponent
    ordered_wav = wav_2.exponent < raw_2.exponent
    ok = in_window and ordered_k and ordered_wav and elapsed < 1800
    assert report(4, ok, f"fit over n_q {sizes[0]}..{sizes[-1]}, xi averaged over kicks "
                         f"{kicks[0]}..{kicks[-1]} step {kicks.step}: "
                         f"K=0.5 exponent = {raw_05.exponent:.4f} +- {raw_05.stderr:.4f} "
                         f"(window [1.75, 2.15]{'' if in_window else ' MISSED'}); "
                         f"K=2 raw = {raw_2.exponent:.4f} +- {raw_2.stderr:.4f} "
                         f"< K=0.5: {ordered_k}; "
                         f"K=2 wavelet = {wav_2.exponent:.4f} +- {wav_2.stderr:.4f} "
                         f"< raw: {ordered_wav}; {elapsed:.1f}s (< 1800s)")


def test_criterion_5_husimi_ipr_scaling():
    start = time.monotonic()
    raw = {}
    wav = {}
    ratio_rows = None
    for K in (0.5, 0.9, 1.5, 2.0):
        rows = [husimi_row(K, n, 1000) for n in (8, 10, 12, 14, 16)]
        raw[K] = analysis.fit_scaling([(r.n_q, r.xi_raw) for r in rows]).exponent
        wav[K] = analysis.fit_scaling([(r.n_q, r.xi_wavelet) for r in rows]).exponent
        if K == 2.0:
            ratio_rows = rows
    r_exp = analysis.fit_scaling([(r.n_q, r.R) for r in ratio_rows]).exponent
    elapsed = time.monotonic() - start
    raw_ok = all(0.3 <= raw[K] <= 0.9 for K in raw)
    wav_ok = all(wav[K] <= raw[K] for K in raw)
    r_ok = 0.4 <= r_exp <= 0.9
    ok = raw_ok and wav_ok and r_ok and elapsed < 1200
    raw_txt = ", ".join(f"K={K:g}: {raw[K]:.3f}" for K in raw)
    ok_flag = "ok" if wav_ok else "VIOLATED"
    assert report(5, ok, f"raw exponents {{{raw_txt}}} in [0.3, 0.9]: {raw_ok}; "
                         f"wavelet exponent <= raw for every K: {ok_flag}; "
                         f"K=2 R exponent = {r_exp:.3f} in [0.4, 0.9]: {r_ok}; "
                         f"{elapsed:.1f}s (< 1200s)")


def test_criterion_6_wavelet_correctness():
    rng = np.random.default_rng(1)
    x = rng.normal(size=1024)
    field = rng.normal(size=(256, 256))
    rt1 = float(np.max(np.abs(wavelet.d4_inverse_1d(wavelet.d4_forward_1d(x)) - x)))
    rt2 = float(np.max(np.abs(wavelet.d4_inverse_2d(wavelet.d4_forward_2d(field)) - field)))
    rt3 = float(np.max(np.abs(wavelet.tiled_inverse_2d(wavelet.tiled_forward_2d(field, 16)) - field)))
    coeffs = wavelet.d4_forward_2d(field)
    parseval = abs(float(np.sum(coeffs.values ** 2) - np.sum(field ** 2)))
    const = wavelet.d4_forward_1d(np.full(256, 1.7))
    details = float(np.max(np.abs(const.values[256 >> const.levels:])))
    h, g = wavelet.kernels.D4_H, wavelet.kernels.D4_G
    filt = max(abs(h.sum() - math.sqrt(2)), abs(float(np.sum(h * h)) - 1.0),
               abs(h[0] * h[2] + h[1] * h[3]), abs(float(np.sum(h * g))), abs(g.sum()))
    ok = (max(rt1, rt2, rt3) < 1e-12 and parseval < 1e-10
          and details < 1e-12 and filt < 1e-15)
    assert report(6, ok, f"round-trips (1D/2D/tiled) = {rt1:.1e}/{rt2:.1e}/{rt3:.1e} "
                         f"(tol 1e-12); Parseval = {parseval:.1e} (tol 1e-10); "
                         f"constant details = {details:.1e} (tol 1e-12); "
                         f"filter identities = {filt:.1e} (tol 1e-15)")


def test_criterion_7_amplitude_amplification():
    # quarter weight in one iteration
    psi = np.full(64, 1.0 / 8.0, dtype=complex)
    quarter = measurement.amplitude_amplify(psi, list(range(16)))
    quarter_ok = quarter.iterations == 1 and abs(quarter.final_weight - 1.0) < 1e-12
    # closed form across iteration counts
    rng = np.random.default_rng(2)
    psi0 = rng.normal(size=256) + 1j * rng.normal(size=256)
    psi0 /= np.linalg.norm(psi0)
    mask = np.zeros(256, dtype=bool)
    mask[:3] = True
    reports = [measurement.amplitude_amplify(psi0, mask, iterations=m)
               for m in range(0, 51, 10)]
    worst_cf = max(abs(r.final_weight - r.closed_form) for r in reports)
    # microscope ratio invariance
    idx = [7, 21, 53]
    rep = measurement.amplitude_amplify(psi0, idx, iterations="auto")
    worst_ratio = max(abs(rep.state[i] / rep.state[idx[0]] - psi0[i] / psi0[idx[0]])
                      for i in idx[1:])
    ok = quarter_ok and worst_cf < 1e-9 and worst_ratio < 1e-12
    assert report(7, ok, f"a=1/4: weight {quarter.final_weight:.12f} in "
                         f"{quarter.iterations} iteration (tol 1e-12); "
                         f"closed form m<=50: {worst_cf:.1e} (tol 1e-9); "
                         f"microscope ratios: {worst_ratio:.1e} (tol 1e-12)")


def test_criterion_8_compression_factor():
    row = wigner_row(0.5, 7, 1000)
    ok = 3.0 <= row.R <= 30.0
    assert report(8, ok, f"K=0.5, n_q=7, t=1000: R = {row.R:.2f} (window [3, 30])")


def test_criterion_9_image_reconstruction():
    margins = {}
    exact = 0.0
    for name, img in corpus128().items():
        amps = imageio.encode_wavefunction(img).values
        coeffs = wavelet.d4_forward_2d(amps)
        _, _, psnr_topk = measurement.topk_reconstruct(coeffs, 2500)
        _, _, psnr_mc = measurement.monte_carlo_reconstruct(amps, 2500, seed=0)
        margins[name] = psnr_topk - psnr_mc
        _, l2_full, _ = measurement.topk_reconstruct(coeffs, 128 * 128)
        exact = max(exact, l2_full)
    ok = all(m >= 1.0 for m in margins.values()) and exact < 1e-10
    margin_txt = ", ".join(f"{k}: {v:+.1f} dB" for k, v in sorted(margins.items()))
    assert report(9, ok, f"top-k minus Monte-Carlo PSNR at budget 2500 ({margin_txt}; "
                         f"each >= 1 dB); full-budget residual = {exact:.1e} (tol 1e-10)")


def test_criterion_10_entropy_ipr_consistency():
    rng = np.random.default_rng(3)
    worst = -math.inf
    for _ in range(1000):
        size = int(rng.choice([16, 64, 256, 1024]))
        w = rng.uniform(0.0, 1.0, size=size) ** int(rng.integers(1, 5))
        p = w / w.sum()
        worst = max(worst, analysis.ipr(np.sqrt(p)) - 2.0 ** analysis.entropy(p))
    for img in corpus128().values():
        amps = imageio.encode_wavefunction(img).values
        c = wavelet.d4_forward_2d(amps).values
        worst = max(worst, analysis.ipr(c) - 2.0 ** analysis.entropy(c * c))
    bound_ok = worst < 1e-9
    # slope agreement on the image scans
    worst_gap = 0.0
    for name in corpus128():
        pts_xi, pts_2s = [], []
        for n_q in (6, 8, 10, 12, 14):
            side = 1 << (n_q // 2)
            amps = imageio.encode_wavefunction(imageio.synthetic_corpus(side)[name]).values
            row = analysis.image_scan_row(amps, n_q)
            pts_xi.append((n_q, row.xi_wavelet))
            pts_2s.append((n_q, 2.0 ** row.S))
        gap = abs(analysis.fit_scaling(pts_xi).exponent
                  - analysis.fit_scaling(pts_2s).exponent)
        worst_gap = max(worst_gap, gap)
    ok = bound_ok and worst_gap <= 0.3
    assert report(10, ok, f"max (xi - 2^S) over 1000 random + 4 corpus vectors = "
                          f"{worst:.1e} (tol 1e-9); worst image slope gap = "
                          f"{worst_gap:.3f} (tol 0.3)")


def test_criterion_11_tomography_scaling():
    pts = []
    for N in (64, 128, 256, 512, 1024):
        w = N ** -1.5
        shots = [measurement.shots_to_resolve(w, N, seed=s) for s in range(5)]
        pts.append((math.log2(N), float(np.mean(np.log2(shots)))))
    slope = float(np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)[0])
    ok = 0.7 <= slope <= 1.3
    assert report(11, ok, f"shots to resolve w = N^(-3/2) over N in 64..1024: "
                          f"log-log slope = {slope:.3f} (window 1.0 +- 0.3)")
