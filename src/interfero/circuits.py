"""Gate definitions, circuit representation and exact simulation of 1-2 qubits.

Qubit ordering: qubit ``q`` occupies bit ``q`` of the basis index, so for two
qubits the basis label is ``|q1 q0>`` and the index is ``2*q1 + q0``.  Counts
use bitstrings in the same order (leftmost character = highest qubit).
Two-qubit gate matrices are written in the same ``|q1 q0>`` basis.

Angle-dependent gates accept an array of angles and then carry a leading
angle axis: their matrix is ``(A, k, k)`` instead of ``(k, k)``.  A circuit
with such gates describes ``A`` circuits at once, and
:func:`simulate_density` returns the stack of their states, ``(A, d, d)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import PAULI, at_index, check_density_matrix, check_state_vector, dagger, kron, require
from .noise import NoiseModel

PROJ0 = np.array([[1, 0], [0, 0]], dtype=complex)
PROJ1 = np.array([[0, 0], [0, 1]], dtype=complex)
IX = 1j * PAULI["X"]
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


@dataclass(frozen=True, eq=False)
class Gate:
    """A named unitary on its own qubits (2x2, or 4x4 in the ``|q1 q0>`` basis), or a stack of them."""

    name: str
    qubits: tuple[int, ...]
    matrix: np.ndarray


def rx_neg(theta: float | np.ndarray, qubit: int = 0) -> Gate:
    """Beam splitter: the matrix conventionally written R_X(-theta)."""
    c, s = np.cos(np.asarray(theta) / 2), np.sin(np.asarray(theta) / 2)
    return Gate("rx_neg", (qubit,), _entries(c, 1j * s, 1j * s, c))


def ix(qubit: int = 0) -> Gate:
    """Mirror pair."""
    return Gate("ix", (qubit,), IX.copy())


def phase(phi: float | np.ndarray, qubit: int = 0) -> Gate:
    """Phase shifter P(phi)."""
    return Gate("phase", (qubit,), _entries(1, 0, 0, np.exp(1j * np.asarray(phi))))


def _entries(*entries: complex | np.ndarray) -> np.ndarray:
    """2x2 matrix from its entries in row order, each a scalar or an angle array."""
    values = np.stack(np.broadcast_arrays(*entries), axis=-1).astype(complex)
    return values.reshape(*values.shape[:-1], 2, 2)


def cx(control: int, target: int) -> Gate:
    """Half-wave plate: flip the target when the control is |1>."""
    return _controlled("cx", PAULI["X"], PROJ1, control, target)


def ctrl_h_open(control: int, target: int) -> Gate:
    """Quarter-wave plate: H on the target when the control is |0>."""
    return _controlled("ctrl_h0", HADAMARD, PROJ0, control, target)


def ctrl_ix(control: int, target: int) -> Gate:
    """Polarizing beam splitter: iX on the target when the control is |1>."""
    return _controlled("ctrl_ix", IX, PROJ1, control, target)


def unitary(matrix: np.ndarray, qubits: tuple[int, ...]) -> Gate:
    """Caller-supplied matrix; a two-qubit one is read in the ``|q1 q0>`` basis."""
    return Gate("unitary", tuple(qubits), np.asarray(matrix, dtype=complex))


def _controlled(name: str, applied: np.ndarray, trigger: np.ndarray, control: int, target: int) -> Gate:
    resting = PAULI["I"] - trigger
    if control > target:
        matrix = kron(trigger, applied) + kron(resting, PAULI["I"])
    else:
        matrix = kron(applied, trigger) + kron(PAULI["I"], resting)
    return Gate(name, (control, target), matrix)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over ``n_qubits`` (1 or 2) qubits."""

    n_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 1 <= self.n_qubits <= 2:
            raise ValidationError(f"n_qubits must be in 1..2, got {self.n_qubits}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(q < 0 or q >= self.n_qubits for q in g.qubits):
                raise ValidationError(f"gate {g.name} touches qubit outside 0..{self.n_qubits - 1}")
            if len(set(g.qubits)) != len(g.qubits):
                raise ValidationError(f"gate {g.name} repeats a qubit index")
        stacks = {np.shape(g.matrix)[:-2] for g in self.gates} - {()}
        if len(stacks) > 1:
            raise ValidationError(f"gates carry different angle axes: {sorted(stacks)}")

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def extended(self, other: "Circuit") -> "Circuit":
        """New circuit running ``self`` then ``other``."""
        if other.n_qubits != self.n_qubits:
            raise ValidationError("cannot append a circuit with a different qubit count")
        return Circuit(self.n_qubits, self.gates + other.gates)


def _apply(op: np.ndarray, qubits: tuple[int, ...], n_qubits: int, m: np.ndarray) -> np.ndarray:
    """``op @ m`` with ``op`` placed on ``qubits`` of the register, acting on ``m``'s rows.

    ``m`` is a matrix ``(..., d, c)`` whose rows index the register; a
    stacked ``op`` ``(..., k, k)`` broadcasts against its leading axes.
    """
    if len(qubits) == n_qubits:
        return op @ m
    (q,) = qubits
    out = np.einsum("...ab,...ibj->...iaj", op, m.reshape(*m.shape[:-2], 1 << (n_qubits - 1 - q), 2, -1))
    return out.reshape(*out.shape[:-3], *m.shape[-2:])


def _conjugate(op: np.ndarray, qubits: tuple[int, ...], n_qubits: int, rho: np.ndarray) -> np.ndarray:
    """``op rho op^dag`` for Hermitian ``rho``, as two left applications."""
    return _apply(op, qubits, n_qubits, dagger(_apply(op, qubits, n_qubits, rho)))


def _apply_channel(superoperator: np.ndarray, q: int, n_qubits: int, rho: np.ndarray) -> np.ndarray:
    """One-qubit superoperator ``S[a, b, a', b']`` on qubit ``q`` of ``rho``, bitwise the same for any stack size.

    Four broadcast multiply-adds over ``rho``'s 2x2 blocks on the qubit, summed from +0 in ``(a', b')`` row-major
    order.  For the phase-covariant channels of ``NoiseModel.build``, no sum of more than two nonzero terms, that is
    bitwise ``einsum("abcd,...icjkdl->...iajkbl")``, in under a third of its time on a (3, 60) stack.
    """
    p, r = 1 << (n_qubits - 1 - q), 1 << q
    blocks = np.moveaxis(rho.reshape(*rho.shape[:-2], p, 2, r, p, 2, r), (-5, -2), (-2, -1))[..., None, None, :, :]
    out = blocks[..., 0, 0] * superoperator[..., 0, 0] + 0.0  # all -0 terms sum to +0, as in einsum
    for c, d in ((0, 1), (1, 0), (1, 1)):
        out += blocks[..., c, d] * superoperator[..., c, d]
    return np.moveaxis(out, (-2, -1), (-5, -2)).reshape(rho.shape)


def simulate_statevector(circuit: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Apply the circuit's gates in order to ``initial`` (default |0...0>); one circuit, no angle stack."""
    if initial is None:
        v = np.zeros(circuit.dim, dtype=complex)
        v[0] = 1.0
    else:
        v = check_state_vector(initial, circuit.n_qubits).copy()
    v = v[:, None]
    for g in circuit.gates:
        _check_unitary(g)
        v = _apply(g.matrix, g.qubits, circuit.n_qubits, v)
    return check_state_vector(v[..., 0], circuit.n_qubits)


def simulate_density(
    circuit: Circuit,
    noise: NoiseModel | None = None,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Evolve a density matrix through the circuit with per-gate noise.

    After every gate, the model's composed Kraus superoperator acts on each
    qubit the gate touched.  With an empty noise model the result equals the
    outer product of the statevector simulation.  ``initial`` may be a stack
    ``(A, d, d)``; it and the circuit's stacked gates evolve entry-wise.
    """
    if initial is None:
        rho = np.zeros((circuit.dim, circuit.dim), dtype=complex)
        rho[0, 0] = 1.0
    else:
        rho = check_density_matrix(initial).copy()
    return _evolve_density(circuit, noise, rho)


def _evolve_density(circuit: Circuit, noise: NoiseModel | None, rho: np.ndarray) -> np.ndarray:
    """:func:`simulate_density` from ``rho``, a complex state or stack the caller has already checked."""
    noise = noise or NoiseModel()
    n = circuit.n_qubits
    if rho.ndim > 2 and {np.shape(g.matrix)[:-2] for g in circuit.gates} - {(), rho.shape[:-2]}:
        raise ValidationError(f"initial state stack {rho.shape[:-2]} does not match the gates' angle axis")
    for g in circuit.gates:
        _check_unitary(g)
        rho = _conjugate(g.matrix, g.qubits, n, rho)
        if noise.superoperator is not None:
            for q in g.qubits:
                rho = _apply_channel(noise.superoperator, q, n, rho)
    return check_density_matrix(rho)


def outcome_probabilities(state: np.ndarray) -> np.ndarray:
    """Computational-basis probabilities of a state vector, a density matrix or a stack ``(..., d, d)``."""
    state = np.asarray(state, dtype=complex)
    if state.ndim == 0:
        raise ValidationError("expected a vector or matrices, got ndim=0")
    probs = np.abs(state) ** 2 if state.ndim == 1 else np.real(np.diagonal(state, axis1=-2, axis2=-1)).copy()
    total = probs.sum(axis=-1)
    require(
        np.abs(total - 1.0) <= 1e-9,
        lambda k: f"outcome probabilities{at_index(k)} sum to {float(total[k])!r}, expected 1",
    )
    np.clip(probs, 0.0, None, out=probs)
    return probs / probs.sum(axis=-1, keepdims=True)


def sample_counts(
    state: np.ndarray,
    shots: int | None,
    rng: np.random.Generator | None = None,
) -> dict[str, float]:
    """Multinomial shot counts in the computational basis.

    ``shots=None`` selects the analytic mode and returns the exact outcome
    frequencies instead of sampling.  Sampling draws one multinomial vector
    (memory O(d), not O(shots)), so results are reproducible for a fixed
    generator state.
    """
    return counts_from_probabilities(outcome_probabilities(state), shots, rng)


def counts_from_probabilities(
    probs: np.ndarray,
    shots: int | None,
    rng: np.random.Generator | None = None,
) -> dict[str, float]:
    """Sampling core of :func:`sample_counts` for an outcome distribution over 1 or 2 qubits."""
    probs = np.asarray(probs, dtype=float)
    require(probs.shape in ((2,), (4,)), lambda _: f"expected 2 or 4 outcome probabilities, got shape {probs.shape}")
    require((probs >= 0) & (probs < np.inf), lambda k: f"outcome probability {float(probs[k])!r} is not in [0, inf)")
    require(abs(probs.sum() - 1.0) <= 1e-9, lambda _: f"outcome probabilities sum to {float(probs.sum())!r}, not 1")
    n_bits = int(probs.shape[0]).bit_length() - 1
    if shots is None:
        return {_bits(i, n_bits): float(p) for i, p in enumerate(probs) if p > 0.0}
    if shots < 1:
        raise ValidationError(f"shots must be a positive integer, got {shots}")
    if rng is None:
        raise ValidationError("sampling requires a seeded generator; pass rng=")
    counts = rng.multinomial(shots, probs)
    return {_bits(i, n_bits): int(c) for i, c in enumerate(counts) if c > 0}


def _bits(index: int, n_bits: int) -> str:
    return format(index, f"0{n_bits}b")


def _check_unitary(gate: Gate) -> None:
    u = gate.matrix
    dim = 1 << len(gate.qubits)
    if u.ndim not in (2, 3) or u.shape[-2:] != (dim, dim):
        raise ValidationError(f"gate {gate.name} matrix does not match its qubit count")
    error = np.max(np.abs(dagger(u) @ u - np.eye(dim)), axis=(-2, -1))
    require(error <= 1e-12, lambda k: f"gate {gate.name} matrix{at_index(k)} is not unitary within 1e-12")

