"""Wave/particle complementarity functionals and closed-form references.

``coherence_l1`` measures the wave aspect as the summed magnitude of the
off-diagonal density-matrix elements; ``predictability_l1`` measures the
which-way aspect from the diagonal.  For any valid d-dimensional state
their sum stays at or below d-1, with equality exactly on pure states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import check_finite, check_stack, outer

# Populations this close to zero are numerical residue of inversion and
# projection; the square root in the predictability would otherwise blow
# 1e-16-level noise up to 1e-8-level metric error at vanishing populations.
# A floored population zeroes the coherences of its row and column as well,
# so that C + P <= d - 1 holds exactly.
POPULATION_FLOOR = 1e-12


@dataclass(frozen=True)
class ComplementarityPoint:
    coherence: float
    predictability: float
    dim: int

    @property
    def total(self) -> float:
        return self.coherence + self.predictability


def coherence_l1(rho: np.ndarray) -> float | np.ndarray:
    """Sum of |rho_jk| over all off-diagonal entries.

    Entries in the row or column of a population within
    :data:`POPULATION_FLOOR` of zero count as zero.  A stack ``(..., d, d)``
    gives an array over its leading axes.
    """
    return _scalar(l1_metrics(rho)[0])


def predictability_l1(rho: np.ndarray) -> float | np.ndarray:
    """d - 1 minus the sum of sqrt(rho_jj rho_kk) over off-diagonal pairs.

    Diagonal entries within :data:`POPULATION_FLOOR` of zero (negative
    residue or float dust from reconstruction) count as exactly zero before
    the square roots.  A stack ``(..., d, d)`` gives an array over its
    leading axes.
    """
    return _scalar(l1_metrics(rho)[1])


def l1_metrics(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coherence and predictability arrays of a matrix or a stack ``(..., d, d)``."""
    rho = check_stack(rho, "density matrix", 1e-8)  # raw (possibly non-PSD) inputs are allowed
    pops = np.real(np.diagonal(rho, axis1=-2, axis2=-1)).copy()
    kept = pops > POPULATION_FLOOR
    pops[~kept] = 0.0
    mags = np.where(kept[..., :, None] & kept[..., None, :], np.abs(rho), 0.0)
    coherence = mags.sum(axis=(-2, -1)) - np.trace(mags, axis1=-2, axis2=-1)
    root = np.sqrt(pops)
    cross = root[..., :, None] * root[..., None, :]
    predictability = rho.shape[-1] - 1 - (cross.sum(axis=(-2, -1)) - np.trace(cross, axis1=-2, axis2=-1))
    return coherence, predictability


def point_from_density(rho: np.ndarray) -> ComplementarityPoint:
    c, p = l1_metrics(rho)
    return ComplementarityPoint(_scalar(c), _scalar(p), np.shape(rho)[-1])


def bmzi_state(alpha: float) -> np.ndarray:
    """Closed-form final state of the biased Mach-Zehnder interferometer.

    First beam splitter angle ``alpha``; the phase shift and second beam
    splitter are fixed at their reference values (0 and a balanced flip),
    leaving amplitudes (cos(alpha/2), i sin(alpha/2)).  An array of angles
    gives the stack of states, shape ``(..., 2)``.
    """
    check_finite(alpha, "alpha")
    alpha = np.asarray(alpha, dtype=float)
    return np.stack([np.cos(alpha / 2), 1j * np.sin(alpha / 2)], axis=-1)


def pqe_state(phi: float) -> np.ndarray:
    """Closed-form final state of the partial quantum eraser at phase ``phi``.

    Basis order |q1 q0> with q1 the spatial mode and q0 the polarization.
    An array of phases gives the stack of states, shape ``(..., 4)``.
    """
    check_finite(phi, "phi")
    e = np.exp(1j * np.asarray(phi, dtype=float))
    amplitudes = np.broadcast_arrays(e + 1, -np.sqrt(2), -1j * np.sqrt(2) * e, -(e - 1))
    return -np.stack(amplitudes, axis=-1) / (2 * np.sqrt(2))


def theory_bmzi(alpha: float) -> ComplementarityPoint:
    """Noise-free complementarity point of the interferometer at ``alpha``.

    Evaluated numerically through the same metric code path used on
    reconstructed states; equals (|sin alpha|, 1 - |sin alpha|).
    """
    return point_from_density(outer(bmzi_state(alpha)))


def theory_pqe(phi: float) -> ComplementarityPoint:
    """Noise-free complementarity point of the quantum eraser at ``phi``."""
    return point_from_density(outer(pqe_state(phi)))


def _scalar(x: np.ndarray) -> float | np.ndarray:
    return float(x) if np.ndim(x) == 0 else x
