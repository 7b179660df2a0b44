"""Classical standard-map ensembles.

Rescaled variables (theta, p = T n), one phase-space cell:

    p'     = p + K sin(theta)
    theta' = theta + p'

theta wraps into [0, 2 pi), p into [-pi, pi), by `kernels.wrap_theta` and
`kernels.wrap_momentum`, up to one round-off edge that both share with
numpy's `%`: a value within round-off below a multiple of 2 pi lands on
the top of the range, so theta = -1e-17 wraps to exactly 2 pi and the
double just below -pi to +pi. `histogram_density` still counts such points,
because its last bins are closed. The exact inverse is
theta = theta' - p', p = p' - K sin(theta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import QPhaseError
from .measurement import _rng

# initial band in wrapped momentum, a quarter-pi strip at the bottom of the
# cell with uniform theta. It does not match rotator.initial_band_state, which
# covers p = T n in [0, pi/4) and is peaked at theta = 0.
DEFAULT_BAND_P = (-np.pi, -0.75 * np.pi)
DEFAULT_ENSEMBLE_SIZE = 100_000


@dataclass
class ClassicalEnsemble:
    theta: np.ndarray
    p: np.ndarray
    K: float

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        self.p = np.asarray(self.p, dtype=np.float64)
        if self.theta.size == 0 or self.theta.shape != self.p.shape:
            raise QPhaseError("invalid-dimension", "ensemble needs matching nonempty theta/p arrays")
        if not (kernels.finite(self.theta) and kernels.finite(self.p)):
            raise QPhaseError("invalid-data", "ensemble coordinates must be finite")


def initial_band(K: float, count: int = DEFAULT_ENSEMBLE_SIZE,
                 seed: int = 0) -> ClassicalEnsemble:
    """Uniform random band: theta in [0, 2 pi), p in DEFAULT_BAND_P.

    A count whose float64 arrays numpy cannot size raises `resource` before
    anything is allocated.
    """
    if not np.isfinite(K) or K < 0:
        raise QPhaseError("invalid-parameter", f"K must be finite and >= 0, got {K}")
    if count < 1:
        raise QPhaseError("invalid-parameter", f"ensemble size must be >= 1, got {count}")
    if count * 8 > np.iinfo(np.intp).max:
        raise QPhaseError("resource", f"an ensemble of {count} points needs float64 "
                                      "arrays larger than numpy can address")
    rng = _rng(seed)
    theta = rng.uniform(0.0, kernels.TWO_PI, size=count)
    p = rng.uniform(*DEFAULT_BAND_P, size=count)
    return ClassicalEnsemble(theta, p, float(K))


def evolve_ensemble(ens: ClassicalEnsemble, t: int) -> ClassicalEnsemble:
    """t composed map iterations, coordinates wrapped (t = 0 returns copies)."""
    if t < 0:
        raise QPhaseError("invalid-parameter", f"iteration count must be >= 0, got {t}")
    theta, p = kernels.stdmap_advance(ens.theta, ens.p, ens.K, t)
    return ClassicalEnsemble(theta, p, ens.K)


def histogram_density(ens: ClassicalEnsemble, n_theta: int, n_p: int) -> np.ndarray:
    """Normalized occupation histogram, shape (n_theta, n_p), total mass 1."""
    if n_theta < 1 or n_p < 1:
        raise QPhaseError("invalid-parameter", "histogram needs at least one bin per axis")
    grid, _, _ = np.histogram2d(
        kernels.wrap_theta(ens.theta), kernels.wrap_momentum(ens.p),
        bins=(n_theta, n_p),
        range=((0.0, kernels.TWO_PI), (-np.pi, np.pi)),
    )
    return grid / grid.sum()
