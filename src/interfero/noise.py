"""Kraus noise channels and readout confusion.

A :class:`NoiseModel` bundles single-qubit Kraus channels that fire after
every gate on each qubit the gate touched, composed in order into one
superoperator, and an optional per-qubit readout confusion matrix applied
to the outcome distribution before shots are drawn.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import PAULI, require

KrausChannel = tuple[np.ndarray, ...]


def depolarizing(p: float) -> KrausChannel:
    """Channel rho -> (1-p) rho + p I/2.  Fully mixing at p=1."""
    _check_prob(p, "depolarizing")
    return (np.sqrt(1 - 3 * p / 4) * PAULI["I"], *(np.sqrt(p / 4) * PAULI[letter] for letter in "XYZ"))


def amplitude_damping(gamma: float) -> KrausChannel:
    """Energy relaxation: |1> decays to |0> with probability gamma."""
    _check_prob(gamma, "amplitude damping")
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return (k0, k1)


def phase_damping(lmbda: float) -> KrausChannel:
    """Pure dephasing: off-diagonals shrink, populations untouched."""
    _check_prob(lmbda, "phase damping")
    k0 = np.sqrt(1 - lmbda) * PAULI["I"]
    k1 = np.sqrt(lmbda) * np.array([[1, 0], [0, 0]], dtype=complex)
    k2 = np.sqrt(lmbda) * np.array([[0, 0], [0, 1]], dtype=complex)
    return (k0, k1, k2)


def check_channel(kraus: KrausChannel) -> KrausChannel:
    """Require 2x2 operators, as a channel acts on one qubit, and trace preservation: sum_k K^dag K = I within 1e-10."""
    kraus = tuple(np.asarray(k, dtype=complex) for k in kraus)
    if not kraus:
        raise ValidationError("a Kraus channel needs at least one operator")
    for j, k in enumerate(kraus):
        if k.shape != (2, 2):
            raise ValidationError(f"Kraus operator {j} has shape {k.shape}, expected (2, 2): a channel acts on one qubit")
    total = sum(k.conj().T @ k for k in kraus)
    require(np.max(np.abs(total - np.eye(2))) <= 1e-10, lambda _: "Kraus channel is not trace preserving")
    return kraus


def readout_confusion(flip0: float, flip1: float) -> np.ndarray:
    """Column-stochastic 2x2 matrix M[observed, true] for one qubit.

    ``flip0`` is the probability a true 0 reads as 1; ``flip1`` the reverse.
    """
    _check_prob(flip0, "readout flip0")
    _check_prob(flip1, "readout flip1")
    return np.array([[1 - flip0, flip1], [flip0, 1 - flip1]])


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Per-gate Kraus channels, composed into ``superoperator``, plus an optional readout confusion matrix."""

    channels: tuple[KrausChannel, ...] = field(default_factory=tuple)
    readout: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "channels", tuple(check_channel(c) for c in self.channels))
        # rho'[a, b] = sum S[a, b, a', b'] rho[a', b']; S = S_last @ ... @ S_first, S_j = sum_k K (x) conj(K)
        s = np.eye(4)
        for channel in self.channels:
            s = sum(np.kron(k, k.conj()) for k in channel) @ s
        object.__setattr__(self, "superoperator", s.reshape(2, 2, 2, 2) if self.channels else None)
        if self.readout is not None:
            m = np.asarray(self.readout, dtype=float)
            ok = m.shape == (2, 2) and np.all(m >= -1e-12) and np.max(np.abs(m.sum(axis=0) - 1.0)) <= 1e-10
            require(ok, lambda _: "readout confusion must be a column-stochastic 2x2 matrix")
            object.__setattr__(self, "readout", m)
            # the register's confusion matrix, per qubit count of a circuit (1 or 2)
            object.__setattr__(self, "_confusion", {1: m, 2: np.kron(m, m)})

    @classmethod
    def build(
        cls,
        depolarizing_p: float = 0.0,
        amplitude_damping_gamma: float = 0.0,
        phase_damping_lambda: float = 0.0,
        readout_flip0: float = 0.0,
        readout_flip1: float = 0.0,
    ) -> "NoiseModel":
        """Assemble a model from scalar strengths; zero strengths are dropped."""
        channels = []
        if depolarizing_p > 0.0:
            channels.append(depolarizing(depolarizing_p))
        if amplitude_damping_gamma > 0.0:
            channels.append(amplitude_damping(amplitude_damping_gamma))
        if phase_damping_lambda > 0.0:
            channels.append(phase_damping(phase_damping_lambda))
        readout = None
        if readout_flip0 > 0.0 or readout_flip1 > 0.0:
            readout = readout_confusion(readout_flip0, readout_flip1)
        return cls(channels=tuple(channels), readout=readout)

    def apply_readout(self, probs: np.ndarray, n_qubits: int) -> np.ndarray:
        """Confuse an outcome distribution or a stack ``(..., d)`` of them; identity when no readout noise."""
        require(n_qubits in (1, 2), lambda _: f"readout acts on 1 or 2 qubits, got {n_qubits}")
        d, shape = 1 << n_qubits, np.shape(probs)
        require(shape[-1:] == (d,), lambda _: f"expected {d} outcome probabilities on the last axis, got shape {shape}")
        if self.readout is None:
            return probs
        return (self._confusion[n_qubits] @ probs[..., None])[..., 0]


def _check_prob(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} strength must lie in [0, 1], got {value}")
