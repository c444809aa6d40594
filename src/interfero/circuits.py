"""Gate definitions, circuit representation and exact simulation.

Qubit ordering: qubit ``q`` occupies bit ``q`` of the basis index, so for two
qubits the basis label is ``|q1 q0>`` and the index is ``2*q1 + q0``.  Counts
use bitstrings in the same order (leftmost character = highest qubit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ValidationError
from .linalg import check_density_matrix, check_state_vector, kron
from .noise import NoiseModel

ID2 = np.eye(2, dtype=complex)
PROJ0 = np.array([[1, 0], [0, 0]], dtype=complex)
PROJ1 = np.array([[0, 0], [0, 1]], dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
IX = 1j * PAULI_X
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class GateKind(Enum):
    """Supported gate families."""

    RX_NEG = "rx_neg"        # beam splitter: matrix conventionally written R_X(-theta)
    IX = "ix"                # mirror pair
    PHASE = "phase"          # phase shifter P(phi)
    CX = "cx"                # half-wave plate: flip target when control is |1>
    CTRL_H_OPEN = "ctrl_h0"  # quarter-wave plate: H on target when control is |0>
    CTRL_IX = "ctrl_ix"      # polarizing beam splitter: iX on target when control is |1>
    UNITARY = "unitary"      # caller-supplied matrix


@dataclass(frozen=True, eq=False)
class Gate:
    kind: GateKind
    qubits: tuple[int, ...]
    param: float = 0.0
    matrix: np.ndarray | None = None


def rx_neg(theta: float, qubit: int = 0) -> Gate:
    return Gate(GateKind.RX_NEG, (qubit,), param=float(theta))


def ix(qubit: int = 0) -> Gate:
    return Gate(GateKind.IX, (qubit,))


def phase(phi: float, qubit: int = 0) -> Gate:
    return Gate(GateKind.PHASE, (qubit,), param=float(phi))


def cx(control: int, target: int) -> Gate:
    return Gate(GateKind.CX, (control, target))


def ctrl_h_open(control: int, target: int) -> Gate:
    return Gate(GateKind.CTRL_H_OPEN, (control, target))


def ctrl_ix(control: int, target: int) -> Gate:
    return Gate(GateKind.CTRL_IX, (control, target))


def unitary(matrix: np.ndarray, qubits: tuple[int, ...]) -> Gate:
    return Gate(GateKind.UNITARY, tuple(qubits), matrix=np.asarray(matrix, dtype=complex))


def gate_matrix(gate: Gate) -> np.ndarray:
    """Unitary matrix of a gate on its own qubits.

    Single-qubit kinds give a 2x2 matrix.  Two-qubit kinds give a 4x4 matrix
    in the ``|q_high q_low>`` basis of the gate's two qubit indices.
    """
    k = gate.kind
    if k is GateKind.RX_NEG:
        c, s = np.cos(gate.param / 2), np.sin(gate.param / 2)
        return np.array([[c, 1j * s], [1j * s, c]])
    if k is GateKind.IX:
        return IX.copy()
    if k is GateKind.PHASE:
        return np.array([[1, 0], [0, np.exp(1j * gate.param)]], dtype=complex)
    if k is GateKind.UNITARY:
        m = gate.matrix
        if m is None or m.shape != (1 << len(gate.qubits),) * 2:
            raise ValidationError("custom gate matrix does not match its qubit count")
        return m
    if k in (GateKind.CX, GateKind.CTRL_H_OPEN, GateKind.CTRL_IX):
        control, target = gate.qubits
        applied = {GateKind.CX: PAULI_X, GateKind.CTRL_H_OPEN: HADAMARD, GateKind.CTRL_IX: IX}[k]
        trigger = PROJ0 if k is GateKind.CTRL_H_OPEN else PROJ1
        resting = PROJ1 if k is GateKind.CTRL_H_OPEN else PROJ0
        if control > target:
            return kron(trigger, applied) + kron(resting, ID2)
        return kron(applied, trigger) + kron(ID2, resting)
    raise ValidationError(f"unknown gate kind {k!r}")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over ``n_qubits`` qubits."""

    n_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 1 <= self.n_qubits <= 4:
            raise ValidationError(f"n_qubits must be in 1..4, got {self.n_qubits}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(q < 0 or q >= self.n_qubits for q in g.qubits):
                raise ValidationError(f"gate {g.kind.value} touches qubit outside 0..{self.n_qubits - 1}")
            if len(set(g.qubits)) != len(g.qubits):
                raise ValidationError(f"gate {g.kind.value} repeats a qubit index")

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def extended(self, other: "Circuit") -> "Circuit":
        """New circuit running ``self`` then ``other``."""
        if other.n_qubits != self.n_qubits:
            raise ValidationError("cannot append a circuit with a different qubit count")
        return Circuit(self.n_qubits, self.gates + other.gates)


def lift_gate(gate: Gate, n_qubits: int) -> np.ndarray:
    """Expand a gate to the full 2^n-dimensional unitary.

    The gate's local matrix indexes its qubits from most to least significant
    as ``sorted(gate.qubits, reverse=True)`` for two-qubit kinds (their
    matrices are built in that basis by :func:`gate_matrix`).
    """
    local = gate_matrix(gate)
    if len(gate.qubits) == 1:
        placed = list(gate.qubits)
    else:
        placed = sorted(gate.qubits, reverse=True)
    _check_unitary(local, gate)
    dim = 1 << n_qubits
    k = len(placed)
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        sub_col = 0
        for pos, q in enumerate(placed):
            sub_col |= ((col >> q) & 1) << (k - 1 - pos)
        base = col
        for q in placed:
            base &= ~(1 << q)
        for sub_row in range(1 << k):
            row = base
            for pos, q in enumerate(placed):
                row |= ((sub_row >> (k - 1 - pos)) & 1) << q
            full[row, col] = local[sub_row, sub_col]
    return full


def simulate_statevector(circuit: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Apply the circuit's gates in order to ``initial`` (default |0...0>)."""
    if initial is None:
        v = np.zeros(circuit.dim, dtype=complex)
        v[0] = 1.0
    else:
        v = check_state_vector(initial, circuit.n_qubits).copy()
    for g in circuit.gates:
        v = lift_gate(g, circuit.n_qubits) @ v
    return check_state_vector(v, circuit.n_qubits)


def simulate_density(
    circuit: Circuit,
    noise: NoiseModel | None = None,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Evolve a density matrix through the circuit with per-gate noise.

    After every gate, each configured Kraus channel acts on each qubit the
    gate touched.  With an empty noise model the result equals the outer
    product of the statevector simulation.
    """
    noise = noise or NoiseModel()
    if initial is None:
        rho = np.zeros((circuit.dim, circuit.dim), dtype=complex)
        rho[0, 0] = 1.0
    else:
        rho = check_density_matrix(initial).copy()
    for g in circuit.gates:
        u = lift_gate(g, circuit.n_qubits)
        rho = u @ rho @ u.conj().T
        for channel in noise.channels:
            for q in g.qubits:
                rho = _apply_channel(rho, channel, q, circuit.n_qubits)
    return check_density_matrix(rho)


def _apply_channel(rho: np.ndarray, kraus: tuple[np.ndarray, ...], qubit: int, n_qubits: int) -> np.ndarray:
    out = np.zeros_like(rho)
    for k in kraus:
        full = lift_operator(k, qubit, n_qubits)
        out += full @ rho @ full.conj().T
    return out


def lift_operator(op2: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """Place a single-qubit operator on ``qubit`` of an n-qubit register."""
    factors = [np.asarray(op2, dtype=complex) if q == qubit else ID2 for q in range(n_qubits - 1, -1, -1)]
    full = factors[0]
    for f in factors[1:]:
        full = np.kron(full, f)
    return full


def outcome_probabilities(state: np.ndarray) -> np.ndarray:
    """Computational-basis probabilities of a state vector or density matrix."""
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        probs = np.abs(state) ** 2
    elif state.ndim == 2:
        probs = np.real(np.diag(state)).copy()
    else:
        raise ValidationError(f"expected a vector or matrix, got ndim={state.ndim}")
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"outcome probabilities sum to {total!r}, expected 1")
    np.clip(probs, 0.0, None, out=probs)
    return probs / probs.sum()


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
    """Sampling core of :func:`sample_counts` for an outcome distribution."""
    probs = np.asarray(probs, dtype=float)
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


def _check_unitary(u: np.ndarray, gate: Gate) -> None:
    dim = u.shape[0]
    if float(np.max(np.abs(u.conj().T @ u - np.eye(dim)))) > 1e-12:
        raise ValidationError(f"gate {gate.kind.value} matrix is not unitary within 1e-12")
