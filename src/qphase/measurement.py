"""Simulated measurement protocols and reconstruction experiments.

All randomness flows through numpy's Philox generator, a counter-based bit
generator whose streams are bit-exact across platforms; sub-streams are split
with SeedSequence spawn keys so parallel scans stay reproducible. Fields are
compared through two metrics: L2 error between unit-energy fields, and PSNR
between 8-bit quantizations sharing the original field's peak-to-255 scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernels, wavelet
from .errors import QPhaseError
from .statevec import as_state, even_qubits


def _rng(seed: int, *stream: int) -> np.random.Generator:
    """The package's one seeded generator: Philox keyed by seed and stream."""
    seed = int(seed)
    if seed < 0:
        raise QPhaseError("invalid-parameter", f"seed must be >= 0, got {seed}")
    seq = np.random.SeedSequence(entropy=seed, spawn_key=tuple(stream))
    return np.random.Generator(np.random.Philox(seq))


# numpy's multinomial and binomial take their count as a signed 64-bit integer
_MAX_SHOTS = (1 << 63) - 1
# shots_to_resolve doubles its shot count from _FIRST_SHOTS up to _SHOT_LIMIT
_FIRST_SHOTS = 8
_SHOT_LIMIT = 1 << 26


def _check_shots(shots: int) -> None:
    """The one shot bound, shared by the multinomial and binomial draws."""
    if not 1 <= shots <= _MAX_SHOTS:
        raise QPhaseError("invalid-parameter", f"shots must be in [1, {_MAX_SHOTS}], got {shots}")


def _draw(weights: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Multinomial counts of shots draws over flat weights, normalized here."""
    _check_shots(shots)
    return _rng(seed).multinomial(shots, weights / weights.sum())


@dataclass
class AmplifyReport:
    """Result of a reflection-product amplification run."""

    iterations: int
    initial_weight: float
    final_weight: float
    state: np.ndarray = field(repr=False)

    @property
    def closed_form(self) -> float:
        """sin^2((2m + 1) asin sqrt(a)), the exact two-plane rotation."""
        theta = math.asin(math.sqrt(self.initial_weight))
        return math.sin((2 * self.iterations + 1) * theta) ** 2


def sample_computational(state, shots: int, seed: int) -> np.ndarray:
    """int64 counts of shots draws from |psi_i|^2 over the N basis states, fixed by the seed."""
    return _draw(np.abs(as_state(state)) ** 2, shots, seed)


def coarse_grained_sample(state, n_f: int, shots: int, seed: int) -> np.ndarray:
    """Sample only the leading n_f bits of the row and column index.

    The state is read as a square grid (index = row * side + col); the
    returned (2^n_f, 2^n_f) int64 counts collect, in cell (r, c), the
    integrated probability of its 2^(n_q/2 - n_f)-wide cell. n_f equal to the
    per-axis qubit count reproduces computational sampling cell-for-cell.
    """
    probs = cell_probabilities(state, n_f)
    return _draw(probs.reshape(-1), shots, seed).reshape(probs.shape)


def cell_probabilities(state, n_f: int) -> np.ndarray:
    """Exact integrated cell probabilities for coarse_grained_sample."""
    psi = as_state(state)
    half = even_qubits(psi) // 2
    if not 0 <= n_f <= half:
        raise QPhaseError("invalid-parameter", f"n_f must be in [0, {half}], got {n_f}")
    cells = 1 << n_f
    fine = 1 << (half - n_f)
    return (np.abs(psi) ** 2).reshape(cells, fine, cells, fine).sum(axis=(1, 3))


def _ancilla_estimate(w: float, N: int, shots: int, rng: np.random.Generator):
    _check_shots(shots)
    mean = 2.0 * N * w
    if not abs(mean) <= 1.0 + 1e-12:  # written so that NaN fails it too
        raise QPhaseError("invalid-parameter",
                          f"|2 N w| = {abs(mean)} is not at most 1: not a valid grid value")
    p_plus = min(1.0, max(0.0, 0.5 * (1.0 + mean)))
    plus = int(rng.binomial(shots, p_plus))
    sample_mean = (2 * plus - shots) / shots
    var = shots * max(0.0, 1.0 - sample_mean ** 2) / max(shots - 1, 1)
    stderr = math.sqrt(var) / (2.0 * N * math.sqrt(shots))
    return sample_mean / (2.0 * N), stderr


def ancilla_tomography_sample(w: float, N: int, shots: int, seed: int):
    """Estimate one grid value from +-1 ancilla outcomes with mean 2 N w.

    Returns (estimate, stderr): estimate = sample mean / 2N, stderr = sample
    standard deviation / (2 N sqrt(shots)).
    """
    return _ancilla_estimate(w, N, shots, _rng(seed))


def shots_to_resolve(w: float, N: int, seed: int) -> int:
    """Smallest shot count on a doubling schedule with stderr <= |w|."""
    if w == 0.0:
        raise QPhaseError("invalid-parameter", "cannot resolve w = 0")
    shots = _FIRST_SHOTS
    attempt = 0
    while shots <= _SHOT_LIMIT:
        _, stderr = _ancilla_estimate(w, N, shots, _rng(seed, attempt))
        if stderr <= abs(w):
            return shots
        shots *= 2
        attempt += 1
    raise QPhaseError("insufficient-data",
                      f"stderr did not reach |w| = {abs(w)} within {_SHOT_LIMIT} shots")


def grover_iterations(weight: float) -> int:
    """Iteration count maximizing the amplified weight: floor(pi / (4 asin
    sqrt(a)) - 1/2), never negative."""
    if not 0.0 < weight <= 1.0:
        raise QPhaseError("invalid-parameter", f"weight must be in (0, 1], got {weight}")
    theta = math.asin(math.sqrt(weight))
    # the count is exactly integral at weights like 1/4; nudge past the
    # representation error so the floor lands on the intended side
    return max(0, math.floor(math.pi / (4.0 * theta) - 0.5 + 1e-9))


def _region_mask(region, size: int) -> np.ndarray:
    mask = np.asarray(region)
    if mask.dtype != bool:
        # index list
        idx = np.asarray(region, dtype=np.int64)
        if idx.size and not (0 <= idx.min() and idx.max() < size):
            raise QPhaseError("invalid-parameter",
                              f"region indices must lie in [0, {size}), "
                              f"got [{idx.min()}, {idx.max()}]")
        mask = np.zeros(size, dtype=bool)
        mask[idx] = True
    if mask.shape != (size,):
        raise QPhaseError("invalid-dimension",
                          f"region mask length {mask.shape} does not match state size {size}")
    return mask


def amplitude_amplify(state, region, iterations="auto") -> AmplifyReport:
    """Amplify the weight of a region by exact statevector reflections.

    Each iteration applies the sign flip on the region followed by the
    reflection about the initial state; relative amplitudes inside the region
    are preserved exactly, which is what makes the construction usable as a
    magnifier for small grid patches. region is a boolean mask over the
    amplitudes or a list of their indices.
    """
    psi0 = as_state(state)
    mask = _region_mask(region, psi0.size)
    weight = float(np.sum(np.abs(psi0[mask]) ** 2))
    if weight == 0.0:
        raise QPhaseError("empty-region", "region carries no probability weight")
    if weight >= 1.0 - 1e-12:
        warnings.warn("region already carries the whole state; amplification is a no-op")
        return AmplifyReport(iterations=0, initial_weight=weight,
                             final_weight=weight, state=psi0.copy())
    if iterations == "auto":
        count = grover_iterations(weight)
    else:
        count = int(iterations)
        if count < 0:
            raise QPhaseError("invalid-parameter", f"iterations must be >= 0, got {iterations}")
    psi = psi0.copy()
    # in place, with one scratch vector: no register-sized allocation per iteration
    reflected = np.empty_like(psi)
    for _ in range(count):
        psi[mask] *= -1.0
        np.multiply(2.0 * np.vdot(psi0, psi), psi0, out=reflected)
        psi -= reflected
    final = float(np.sum(np.abs(psi[mask]) ** 2))
    return AmplifyReport(iterations=count, initial_weight=weight,
                         final_weight=final, state=psi)


def _quantize(fld: np.ndarray, scale: float) -> np.ndarray:
    return np.clip(np.rint(np.clip(fld, 0.0, None) * scale), 0, 255)


def field_psnr(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """PSNR between 8-bit quantizations; the original's peak maps to 255."""
    if not (kernels.finite(original) and kernels.finite(reconstructed)):
        raise QPhaseError("invalid-data", "PSNR fields must not contain NaN or Inf")
    peak = float(np.max(original))
    if peak <= 0:
        raise QPhaseError("degenerate-input", "original field has no positive values")
    scale = 255.0 / peak
    qa = _quantize(original, scale)
    qb = _quantize(reconstructed, scale)
    mse = float(np.mean((qa - qb) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 ** 2 / mse)


def topk_reconstruct(coeffs: wavelet.WaveletCoeffs, k: int):
    """Keep the k largest-magnitude coefficients, invert, score.

    Ties break toward the lowest flat index so outputs are reproducible.
    Returns (field, l2_error, psnr) against the full inverse.
    """
    values = np.asarray(coeffs.values, dtype=np.float64)
    total = values.size
    if not 1 <= k <= total:
        raise QPhaseError("invalid-parameter", f"k must be in [1, {total}], got {k}")
    flat = values.reshape(-1)
    order = np.lexsort((np.arange(total), -np.abs(flat)))
    trunc = np.zeros_like(flat)
    keep = order[:k]
    trunc[keep] = flat[keep]
    kept = wavelet.WaveletCoeffs(trunc.reshape(values.shape), coeffs.levels, coeffs.tile_size)
    original = wavelet.inverse(coeffs)
    recon = wavelet.inverse(kept)
    l2 = float(np.linalg.norm(recon - original))
    return recon, l2, field_psnr(original, recon)


def monte_carlo_reconstruct(amplitudes, samples: int, seed: int):
    """Sample positions from |a|^2 and rebuild the field as sqrt(frequency).

    The reconstruction sqrt(counts / samples) carries unit energy by
    construction. Returns (field, l2_error, psnr) against the input field.
    """
    a = np.asarray(amplitudes, dtype=np.float64)
    if not kernels.finite(a):
        raise QPhaseError("invalid-data", "amplitudes contain NaN or Inf")
    if np.any(a < 0):
        raise QPhaseError("invalid-parameter", "amplitudes must be nonnegative")
    probs = (a * a).reshape(-1)
    if probs.sum() <= 0:
        raise QPhaseError("degenerate-input", "zero-energy amplitude field")
    counts = _draw(probs, samples, seed)
    fld = np.sqrt(counts / samples).reshape(a.shape)
    l2 = float(np.linalg.norm(fld - a))
    return fld, l2, field_psnr(a, fld)
