"""State reconstruction from measurement counts.

One measurement circuit per non-identity Pauli string (3 settings for one
qubit, 15 for two), parity estimation of each expectation value, linear
inversion over the Pauli basis and an eigenvalue-clipping projection back to
the physical (PSD, trace-1) set.

Inversion and projection work on stacks: expectation arrays ``(..., S)`` and
matrices ``(..., d, d)``, where the leading axes index independent states.  A
single state is the case with no leading axes.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, unitary
from .errors import ValidationError
from .linalg import PAULI, PSD_MARGIN, check_stack, dagger, kron, require, uncertified

# Rotations mapping each Pauli eigenbasis onto the computational basis.
BASIS_ROTATION = {
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "Y": np.array([[1, -1j], [1, 1j]], dtype=complex) / np.sqrt(2),
}


@dataclass(frozen=True)
class TomographyResult:
    """Raw inversion output and its physical projection."""

    rho_raw: np.ndarray
    rho: np.ndarray
    psd_violation: float


def measurement_settings(n_qubits: int) -> list[str]:
    """All non-identity Pauli strings for ``n_qubits``, in lexicographic order.

    Letters are ordered I < X < Y < Z per qubit; the all-identity string is
    excluded, leaving ``4**n - 1`` settings.  The first character addresses
    the highest qubit, matching bitstring order.
    """
    if n_qubits not in (1, 2):
        raise ValidationError(f"tomography supports 1 or 2 qubits, got {n_qubits}")
    return ["".join(t) for t in itertools.product("IXYZ", repeat=n_qubits) if set(t) != {"I"}]


def basis_change(setting: str) -> Circuit:
    """Pre-measurement rotation circuit for one Pauli string.

    After this circuit, computational-basis outcome parity over the
    non-identity positions estimates the setting's expectation value.
    """
    n = _setting_qubits(setting)
    gates = []
    for pos, letter in enumerate(setting):
        qubit = n - 1 - pos
        if letter in BASIS_ROTATION:
            gates.append(unitary(BASIS_ROTATION[letter], (qubit,)))
    return Circuit(n, tuple(gates))


def expectation_from_counts(counts: dict[str, float], setting: str) -> float:
    """Parity-weighted average of counts taken in the setting's basis, signed by :func:`parity_signs`."""
    if not counts:
        raise ValidationError("counts table is empty")
    n = _setting_qubits(setting)
    signs = parity_signs(n)[measurement_settings(n).index(setting)]
    total = 0.0
    acc = 0.0
    for bits, count in counts.items():
        if len(bits) != n or not set(bits) <= {"0", "1"}:
            raise ValidationError(f"bitstring {bits!r} does not match {n} qubit(s)")
        require(0 <= count < math.inf, lambda _: f"count for outcome {bits!r} must be finite and >= 0, got {count!r}")
        acc += signs[int(bits, 2)] * count
        total += count
    require(total < math.inf, lambda _: "counts table total overflows a float")
    if total <= 0:
        raise ValidationError("counts table has no shots")
    return float(acc / total)


def linear_inversion(expectations: Mapping[str, float] | np.ndarray, n_qubits: int) -> np.ndarray:
    """rho = 2^-n * sum_P <P> P over the full Pauli basis, <I..I> = 1.

    ``expectations`` maps every setting of :func:`measurement_settings` to its
    value, or is an array whose last axis runs over those settings in order;
    the leading axes of such an array give a stack of states ``(..., d, d)``.
    Exact expectations reconstruct the state exactly; finite-shot estimates
    may produce negative eigenvalues, so the result is not validated as PSD.
    """
    required = measurement_settings(n_qubits)
    if isinstance(expectations, Mapping):
        for setting in required:
            if setting not in expectations:
                raise ValidationError(f"missing expectation value for setting {setting!r}")
        for setting in expectations:
            if setting not in required:
                raise ValidationError(f"unexpected setting {setting!r} for {n_qubits} qubit(s)")
        values = np.array([float(expectations[setting]) for setting in required])
    else:
        values = np.asarray(expectations, dtype=float)
        if values.ndim < 1 or values.shape[-1] != len(required):
            raise ValidationError(
                f"expected {len(required)} expectation values per state for {n_qubits} qubit(s), got shape {values.shape}"
            )
    require(
        np.abs(values) <= 1.0 + 1e-9,
        lambda k: f"expectation for {required[k[-1]]!r} is {float(values[k])!r}, outside [-1, 1]",
    )
    dim = 1 << n_qubits
    return (np.eye(dim) + np.einsum("...s,sij->...ij", values, pauli_basis(n_qubits))) / dim


def project_psd(m: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
    """Clip negative eigenvalues and renormalise the trace to 1.

    Returns the projected state together with the clipped negative mass.  A
    stack ``(..., d, d)`` gives an array of masses over its leading axes; one
    matrix gives a float.  A matrix whose smallest eigenvalue is >= 0 comes
    back unchanged with mass 0; only the others are rebuilt from their
    clipped spectra, and an input with none of them comes back as the
    complex input array itself.  Each input matrix must be Hermitian and of
    trace 1 within 1e-6, and so has a positive largest eigenvalue: the
    clipped spectrum never sums to zero.

    Only the matrices that ``linalg.uncertified`` cannot prove to have every eigenvalue above ``PSD_MARGIN``
    (1e-9) go to one stacked ``eigh``, which works on each matrix on its own; ``eigh``, accurate to ``O(eps)``,
    would find no eigenvalue of the others negative.
    """
    m = check_stack(m, "matrix to project", 1e-6, trace=1e-6)
    violation = np.zeros(m.shape[:-2])
    rebuilt = uncertified(m, PSD_MARGIN)
    if rebuilt.any():
        lam, vecs = np.linalg.eigh(m[rebuilt])
        negative = lam[:, 0] < 0.0
        rebuilt[rebuilt] = negative  # narrowed to the decomposed matrices with a negative eigenvalue
        lam, vecs = lam[negative], vecs[negative]  # drops the other vectors: only these cells are rebuilt
        violation[rebuilt] = -np.sum(np.minimum(lam, 0.0), axis=-1)
    violation = float(violation) if violation.ndim == 0 else violation
    if not rebuilt.any():
        return m, violation
    # scaled in place, and both factors freed before m is copied, so at most
    # three stacks of rebuilt cells are held at once
    clipped = np.clip(lam, 0.0, None)
    adjoint = dagger(vecs)
    vecs *= (clipped / clipped.sum(axis=-1)[:, None])[:, None, :]
    projected = vecs @ adjoint
    del vecs, adjoint
    out = m.copy()
    out[rebuilt] = projected
    return out, violation


def reconstruct(expectations: dict[str, float], n_qubits: int) -> TomographyResult:
    """Full pipeline: linear inversion followed by the PSD projection."""
    rho_raw = linear_inversion(expectations, n_qubits)
    rho, violation = project_psd(rho_raw)
    return TomographyResult(rho_raw, rho, violation)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of a - b: two matrices of one shape, each Hermitian within 1e-8."""
    a, b = (check_stack(m, f"matrix {name}", 1e-8) for name, m in (("a", a), ("b", b)))
    if a.ndim != 2 or a.shape != b.shape:
        raise ValidationError(f"trace distance needs two matrices of one shape, got shapes {a.shape} and {b.shape}")
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


@functools.cache
def pauli_basis(n_qubits: int) -> np.ndarray:
    """Pauli matrices of :func:`measurement_settings`, stacked ``(S, d, d)``."""
    basis = np.stack([_pauli_matrix(setting) for setting in measurement_settings(n_qubits)])
    basis.flags.writeable = False
    return basis


@functools.cache
def parity_signs(n_qubits: int) -> np.ndarray:
    """``(S, d)`` table of +-1: outcome k's parity over setting s's non-identity positions.

    Outcome frequencies ``(..., S, d)`` contracted with it over the outcome
    axis give the expectations ``(..., S)`` that :func:`expectation_from_counts`
    computes one setting at a time.
    """
    outcomes = np.arange(1 << n_qubits)
    settings = measurement_settings(n_qubits)
    signs = np.ones((len(settings), outcomes.size))
    for s, setting in enumerate(settings):
        for pos, letter in enumerate(setting):
            if letter != "I":
                signs[s] *= 1 - 2 * ((outcomes >> (n_qubits - 1 - pos)) & 1)
    signs.flags.writeable = False
    return signs


def _pauli_matrix(setting: str) -> np.ndarray:
    m = PAULI[setting[0]]
    for letter in setting[1:]:
        m = kron(m, PAULI[letter])
    return m


def _setting_qubits(setting: str) -> int:
    if not setting or any(letter not in PAULI for letter in setting):
        raise ValidationError(f"invalid Pauli string {setting!r}")
    if set(setting) == {"I"}:
        raise ValidationError("measurement setting needs at least one non-identity letter")
    return len(setting)
