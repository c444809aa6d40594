"""Operator placement on the register, checked against full Kronecker matrices.

The reference builds every gate and Kraus operator as a full-register matrix
with ``np.kron`` in the ``|q1 q0>`` order (qubit 1 is the left factor) and
evolves ``rho -> U rho U^dag`` with dense products.  It shares no code with
the simulator beyond the gate factories' parameters.
"""

import numpy as np
import pytest

from interfero import Circuit, NoiseModel, simulate_density, simulate_statevector
from interfero.circuits import ctrl_h_open, ctrl_ix, cx, ix, phase, rx_neg, unitary
from interfero.linalg import random_unitary

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def place(op, qubit, n_qubits):
    """Single-qubit ``op`` on ``qubit`` of an ``n_qubits`` register."""
    if n_qubits == 1:
        return op
    return np.kron(op, I2) if qubit == 1 else np.kron(I2, op)


def controlled(applied, trigger, control, target):
    rest = I2 - trigger
    return place(trigger, control, 2) @ place(applied, target, 2) + place(rest, control, 2)


def random_gate(rng, n_qubits):
    """One gate from a random factory with its full-register reference matrix."""
    theta = rng.uniform(-2 * np.pi, 2 * np.pi)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    q = int(rng.integers(n_qubits))
    one_qubit = [
        (rx_neg(theta, q), np.array([[c, 1j * s], [1j * s, c]])),
        (ix(q), 1j * X),
        (phase(theta, q), np.diag([1.0, np.exp(1j * theta)])),
    ]
    u2 = random_unitary(2, rng)
    one_qubit.append((unitary(u2, (q,)), u2))
    choices = [(g, place(m, q, n_qubits)) for g, m in one_qubit]
    if n_qubits == 2:
        control, target = q, 1 - q
        u4 = random_unitary(4, rng)
        choices += [
            (cx(control, target), controlled(X, P1, control, target)),
            (ctrl_h_open(control, target), controlled(H, P0, control, target)),
            (ctrl_ix(control, target), controlled(1j * X, P1, control, target)),
            (unitary(u4, (control, target)), u4),
        ]
    return choices[int(rng.integers(len(choices)))]


def reference_density(steps, n_qubits, noise):
    dim = 1 << n_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    for gate, full in steps:
        rho = full @ rho @ full.conj().T
        for channel in noise.channels:
            for q in gate.qubits:
                kraus = [place(k, q, n_qubits) for k in channel]
                rho = sum(k @ rho @ k.conj().T for k in kraus)
    return rho


NOISE_MODELS = [
    NoiseModel(),
    NoiseModel.build(depolarizing_p=0.07),
    NoiseModel.build(depolarizing_p=0.02, amplitude_damping_gamma=0.05, phase_damping_lambda=0.03),
]


@pytest.mark.parametrize("n_qubits", [1, 2])
@pytest.mark.parametrize("noise", NOISE_MODELS, ids=["noiseless", "depolarizing", "mixed"])
def test_density_matches_full_kron_reference(n_qubits, noise):
    rng = np.random.default_rng(100 + n_qubits)
    for _ in range(40):
        steps = [random_gate(rng, n_qubits) for _ in range(int(rng.integers(1, 7)))]
        circuit = Circuit(n_qubits, tuple(g for g, _ in steps))
        rho = simulate_density(circuit, noise)
        assert np.max(np.abs(rho - reference_density(steps, n_qubits, noise))) <= 1e-12


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_statevector_matches_full_kron_reference(n_qubits):
    rng = np.random.default_rng(200 + n_qubits)
    for _ in range(40):
        steps = [random_gate(rng, n_qubits) for _ in range(int(rng.integers(1, 7)))]
        v = np.zeros(1 << n_qubits, dtype=complex)
        v[0] = 1.0
        for _, full in steps:
            v = full @ v
        got = simulate_statevector(Circuit(n_qubits, tuple(g for g, _ in steps)))
        assert np.max(np.abs(got - v)) <= 1e-12




def stacked_gate(rng, thetas, n_qubits):
    """An angle-stacked gate and its full-register reference matrix per angle."""
    q = int(rng.integers(n_qubits))
    c, s = np.cos(thetas / 2), np.sin(thetas / 2)
    if rng.random() < 0.5:
        return rx_neg(thetas, q), [place(np.array([[ca, 1j * sa], [1j * sa, ca]]), q, n_qubits) for ca, sa in zip(c, s)]
    return phase(thetas, q), [place(np.diag([1.0, np.exp(1j * t)]), q, n_qubits) for t in thetas]


@pytest.mark.parametrize("n_qubits", [1, 2])
@pytest.mark.parametrize("noise", NOISE_MODELS, ids=["noiseless", "depolarizing", "mixed"])
def test_angle_stacked_density_matches_full_kron_reference_per_angle(n_qubits, noise):
    rng = np.random.default_rng(300 + n_qubits)
    for _ in range(20):
        thetas = rng.uniform(-2 * np.pi, 2 * np.pi, size=5)
        gates, per_angle = [], [[] for _ in thetas]
        for k in range(int(rng.integers(1, 7))):
            if k == 0 or rng.random() < 0.5:
                gate, fulls = stacked_gate(rng, thetas, n_qubits)
            else:
                gate, full = random_gate(rng, n_qubits)
                fulls = [full] * len(thetas)
            gates.append(gate)
            for steps, full in zip(per_angle, fulls):
                steps.append((gate, full))
        rho = simulate_density(Circuit(n_qubits, tuple(gates)), noise)
        assert rho.shape == (len(thetas), 1 << n_qubits, 1 << n_qubits)
        for a, steps in enumerate(per_angle):
            assert np.max(np.abs(rho[a] - reference_density(steps, n_qubits, noise))) <= 1e-12
