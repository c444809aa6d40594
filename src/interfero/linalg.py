"""Dense complex linear algebra and validated quantum-state carriers.

States and operators are plain ``numpy`` arrays of ``complex128``: state
vectors are 1-D, operators and density matrices 2-D.  The helpers here
validate the physical invariants (normalisation, hermiticity, unit trace,
positivity) that the rest of the package relies on.

Each check is a holding condition, ``error <= tol``, that :func:`require`
raises on at its first False entry, so a NaN fails it.

Tolerances, each with where it applies: 1e-12 for closed-form identities
(gate unitarity, negative readout-confusion entries, the l1 metrics'
population floor); 1e-10 for drift from evolution (state-vector norm, the
hermiticity and trace of :func:`check_density_matrix`, Kraus trace
preservation, readout column sums); 1e-9 for outcome-probability sums and
the expectation range [-1, 1] of linear inversion; 1e-8 for
eigendecomposition residuals (``ATOL_EIG``, the smallest eigenvalue that
:func:`check_density_matrix` accepts), the norm in :func:`outer` and the
hermiticity of the inputs of the l1 metrics and ``tomography.trace_distance``;
1e-6 for the hermiticity and trace of the input of ``tomography.project_psd``,
a raw finite-shot reconstruction.  Both eigenvalue bounds are first proved by
:func:`uncertified` with ``PSD_MARGIN`` (1e-9) to spare; only what it cannot prove is eigendecomposed.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .errors import ValidationError

ATOL_EVOLUTION = 1e-10
ATOL_EIG = 1e-8
#: Margin by which :func:`uncertified` must prove its bound: far above the ~1e-15
#: rounding of a factorisation at d <= 4 and trace 1.
PSD_MARGIN = 1e-9

#: Largest supported Hilbert-space dimension (2 qubits).
MAX_DIM = 4

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two operators; dimensions multiply."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def outer(v: np.ndarray) -> np.ndarray:
    """Density matrix |v><v| of a normalised state vector.

    Parameters
    ----------
    v:
        Complex vector with unit norm (within 1e-8), or a stack of them
        with shape ``(..., d)``.

    Returns
    -------
    Rank-1 Hermitian matrix with unit trace, or the stack ``(..., d, d)``
    of them.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim < 1:
        raise ValidationError(f"state vector must be 1-D or a stack of them, got shape {v.shape}")
    norm = np.linalg.norm(v, axis=-1)
    require(
        np.abs(norm - 1.0) <= 1e-8, lambda k: f"state vector{at_index(k)} is not normalised: |v| = {float(norm[k])!r}"
    )
    return v[..., :, None] * v.conj()[..., None, :]


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2); equals 1 for pure states and 1/d for the maximally mixed one."""
    rho = check_density_matrix(rho)
    return float(np.real(np.trace(rho @ rho)))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def check_state_vector(v: np.ndarray, n_qubits: int | None = None) -> np.ndarray:
    """Validate a circuit-facing state vector (power-of-2 length, unit norm)."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ValidationError(f"state vector must be 1-D, got shape {v.shape}")
    dim = v.shape[0]
    if dim < 1 or dim > MAX_DIM or dim & (dim - 1):
        raise ValidationError(f"state dimension {dim} is not a power of 2 <= {MAX_DIM}")
    if n_qubits is not None and dim != 1 << n_qubits:
        raise ValidationError(f"state has dim {dim}, expected {1 << n_qubits} for {n_qubits} qubit(s)")
    norm = float(np.linalg.norm(v))
    require(abs(norm - 1.0) <= ATOL_EVOLUTION, lambda _: f"state vector is not normalised: |v| = {norm!r}")
    return v


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate hermiticity, unit trace and positivity (smallest eigenvalue >= -ATOL_EIG).

    ``rho`` is a matrix or a stack ``(..., d, d)``; for a stack, a message names the index of the first failing
    matrix.  Only the matrices that :func:`uncertified` cannot prove above ``PSD_MARGIN - ATOL_EIG`` go to ``eigvalsh``.
    """
    rho = check_stack(rho, "density matrix", ATOL_EVOLUTION, trace=ATOL_EVOLUTION)
    lam = np.zeros(rho.shape[:-2])
    flagged = uncertified(rho, PSD_MARGIN - ATOL_EIG)
    if flagged.any():
        lam[flagged] = np.linalg.eigvalsh(rho[flagged])[:, 0]
    require(lam >= -ATOL_EIG, lambda k: f"density matrix{at_index(k)} has negative eigenvalue {float(lam[k])!r}")
    return rho


def uncertified(m: np.ndarray, floor: float) -> np.ndarray:
    """Mask of the matrices whose LDL^H factorisation of ``m - floor * I`` meets a pivot not > 0.

    A factorisation that completes is backward stable (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., ch. 10), so every eigenvalue of ``m`` is above ``floor - O(d**2 eps)``, a trace-1 ``m`` having a diagonal
    of at most about 1.  It reads what ``eigh`` reads, the real diagonal and the lower triangle, held as ``d(d+1)/2``
    arrays over the leading axes; an overflow or a NaN fails ``> 0``.
    """
    d = m.shape[-1]
    # the Schur complement's lower triangle, eliminated one column at a time
    diag = [m[..., i, i].real - floor for i in range(d)]
    lower = {(i, j): m[..., i, j] for i in range(d) for j in range(i)}
    flagged = np.zeros(m.shape[:-2], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j in range(d):
            flagged |= ~(diag[j] > 0.0)
            for i in range(j + 1, d):
                ratio = lower[i, j] / diag[j]
                diag[i] = diag[i] - (ratio.real * lower[i, j].real + ratio.imag * lower[i, j].imag)
                for k in range(j + 1, i):
                    lower[i, k] = lower[i, k] - ratio * np.conj(lower[k, j])
    return flagged


def check_stack(m: np.ndarray, what: str, hermitian: float, trace: float | None = None) -> np.ndarray:
    """``m`` as a complex matrix or stack ``(..., d, d)``, d <= MAX_DIM, checked finite and Hermitian.

    ``hermitian`` bounds :func:`hermitian_residual` and ``trace``, if given,
    ``|Tr m - 1|``.  A message calls the matrix ``what`` and names the index
    of the first failing one in a stack.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if m.shape[-1] > MAX_DIM:
        raise ValidationError(f"dimension {m.shape[-1]} exceeds the supported maximum {MAX_DIM}")
    require(np.isfinite(m).all(axis=(-2, -1)), lambda k: f"{what}{at_index(k)} has a non-finite entry")
    tol = f"{hermitian:g}".replace("e-0", "e-")  # 1e-6 as written, not 1e-06
    require(hermitian_residual(m) <= hermitian, lambda k: f"{what}{at_index(k)} is not Hermitian within {tol}")
    if trace is not None:
        tr = np.trace(m, axis1=-2, axis2=-1)
        require(np.abs(tr - 1.0) <= trace, lambda k: f"{what}{at_index(k)} trace is {complex(tr[k])!r}, expected 1")
    return m


def require(ok: bool | np.ndarray, message: Callable[[tuple[int, ...]], str]) -> None:
    """Raise a ValidationError from ``message(cell)`` at the first False entry ``cell`` of ``ok``.

    ``ok`` is the condition that holds, ``error <= tol``, so a NaN error fails it.
    """
    ok = np.asarray(ok)
    if not ok.all():
        raise ValidationError(message(first(~ok)))


def check_finite(value: float | np.ndarray, name: str) -> None:
    """Require every entry of ``value`` to be finite; the message names it ``name``."""
    if not np.all(np.isfinite(value)):
        raise ValidationError(f"{name} must be finite, got {value!r}")


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.conj(np.swapaxes(m, -1, -2))


def hermitian_residual(m: np.ndarray) -> np.ndarray:
    """``max |m - m^dag|`` of each matrix of a stack ``(..., d, d)``, as an array over the leading axes.

    Bitwise equal to ``np.max(np.abs(m - dagger(m)), axis=(-2, -1))`` with no
    temporary of more than one entry per matrix: entry (j, i) of ``m - m^dag``
    has the modulus of entry (i, j), so the upper triangle gives the maximum.
    """
    d = m.shape[-1]
    out = np.zeros(m.shape[:-2])
    for i in range(d):
        for j in range(i, d):
            np.maximum(out, np.abs(m[..., i, j] - np.conj(m[..., j, i])), out=out)
    return out


def first(mask: np.ndarray) -> tuple[int, ...]:
    """Index of the first True entry of ``mask``, in C order (``()`` for a 0-d mask)."""
    return tuple(int(k) for k in np.unravel_index(np.argmax(mask), mask.shape))


def at_index(cell: tuple[int, ...]) -> str:
    """How a message names entry ``cell`` of a stack: ``""`` for a single item."""
    return f" at index {', '.join(map(str, cell))}" if cell else ""

