import numpy as np
import pytest

from interfero import (
    Circuit,
    NoiseModel,
    ValidationError,
    build_bmzi,
    build_pqe,
    outer,
    purity,
    sample_counts,
    simulate_density,
    simulate_statevector,
)
from interfero.circuits import (
    counts_from_probabilities,
    ctrl_h_open,
    ctrl_ix,
    cx,
    ix,
    phase,
    rx_neg,
    unitary,
)
from interfero.linalg import random_unitary


def bmzi_probabilities(alpha):
    # closed form: amplitudes (cos(a/2), i sin(a/2))
    return np.array([np.cos(alpha / 2) ** 2, np.sin(alpha / 2) ** 2])


def pqe_probabilities(phi):
    # closed-form moduli (cos(phi/2)/sqrt2, 1/2, 1/2, sin(phi/2)/sqrt2)
    return np.array(
        [np.cos(phi / 2) ** 2 / 2, 0.25, 0.25, np.sin(phi / 2) ** 2 / 2]
    )


def test_rx_neg_zero_is_identity():
    assert np.allclose(rx_neg(0.0).matrix, np.eye(2), atol=1e-12)


def test_rx_neg_pi_equals_ix():
    assert np.allclose(rx_neg(np.pi).matrix, ix().matrix, atol=1e-12)


def test_phase_pi_is_z_like():
    assert np.allclose(phase(np.pi).matrix, np.diag([1.0, -1.0]), atol=1e-12)


def test_every_gate_kind_is_unitary():
    rng = np.random.default_rng(21)
    gates = []
    for _ in range(100):
        theta = rng.uniform(-2 * np.pi, 2 * np.pi)
        gates.extend(
            [
                rx_neg(theta),
                phase(theta),
                ix(),
                cx(1, 0),
                cx(0, 1),
                ctrl_h_open(1, 0),
                ctrl_ix(0, 1),
                unitary(random_unitary(2, rng), (0,)),
            ]
        )
    for g in gates:
        u = g.matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= 1e-12


def test_controlled_gate_matrix_conventions():
    # control on the high qubit
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[1, 1] = 1
    expected[3, 2] = expected[2, 3] = 1
    assert np.allclose(cx(1, 0).matrix, expected, atol=1e-12)
    # control on the low qubit: |q1 q0>, flip q1 when q0 = 1
    expected2 = np.zeros((4, 4), dtype=complex)
    expected2[0, 0] = expected2[2, 2] = 1
    expected2[3, 1] = expected2[1, 3] = 1
    assert np.allclose(cx(0, 1).matrix, expected2, atol=1e-12)


def test_lift_single_qubit_gate():
    v = simulate_statevector(Circuit(2, (ix(0),)))
    assert np.allclose(v, [0, 1j, 0, 0], atol=1e-12)  # |00> -> i|01>
    v1 = simulate_statevector(Circuit(2, (ix(1),)))
    assert np.allclose(v1, [0, 0, 1j, 0], atol=1e-12)  # |00> -> i|10>


def test_bmzi_statevector_examples():
    probs0 = np.abs(simulate_statevector(build_bmzi(0.0))) ** 2
    assert np.allclose(probs0, [1.0, 0.0], atol=1e-12)
    probs_half = np.abs(simulate_statevector(build_bmzi(-np.pi / 2))) ** 2
    assert np.allclose(probs_half, [0.5, 0.5], atol=1e-12)


def test_pqe_statevector_example():
    probs = np.abs(simulate_statevector(build_pqe(0.0))) ** 2
    assert np.allclose(probs, [0.5, 0.25, 0.25, 0.0], atol=1e-12)


def test_probability_profiles_match_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(20):
        alpha = rng.uniform(-np.pi, np.pi)
        probs = np.abs(simulate_statevector(build_bmzi(alpha))) ** 2
        assert np.max(np.abs(probs - bmzi_probabilities(alpha))) <= 1e-10
    for _ in range(20):
        phi = rng.uniform(0, 2 * np.pi)
        probs = np.abs(simulate_statevector(build_pqe(phi))) ** 2
        assert np.max(np.abs(probs - pqe_probabilities(phi))) <= 1e-10


def test_statevector_dimension_mismatch():
    with pytest.raises(ValidationError):
        simulate_statevector(build_pqe(0.0), initial=np.array([1.0, 0.0]))


def test_noise_free_density_equals_outer_product():
    for angle in (0.3, -1.1, 2.2):
        rho = simulate_density(build_bmzi(angle))
        v = simulate_statevector(build_bmzi(angle))
        assert np.max(np.abs(rho - outer(v))) <= 1e-10
    rho2 = simulate_density(build_pqe(1.3))
    v2 = simulate_statevector(build_pqe(1.3))
    assert np.max(np.abs(rho2 - outer(v2))) <= 1e-10


def test_noiseless_density_purity():
    rho = simulate_density(build_bmzi(-np.pi / 2))
    assert purity(rho) == pytest.approx(1.0, abs=1e-10)


def test_full_depolarizing_reaches_maximally_mixed():
    noise = NoiseModel.build(depolarizing_p=1.0)
    rho = simulate_density(build_bmzi(0.7), noise)
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_depolarizing_regression_golden():
    # (1-p)^4 survives the four gates: 0.95^4 = 0.81450625
    from interfero import coherence_l1

    noise = NoiseModel.build(depolarizing_p=0.05)
    rho = simulate_density(build_bmzi(-np.pi / 2), noise)
    assert coherence_l1(rho) == pytest.approx(0.81450625, abs=1e-12)
    assert coherence_l1(rho) < 1.0


def test_sample_counts_deterministic_outcome():
    counts = sample_counts(np.array([0.0, 1.0], dtype=complex), 1000, np.random.default_rng(0))
    assert counts.shape == (2,)
    assert counts.tolist() == [0, 1000]


def test_sample_counts_binomial_concentration():
    rng = np.random.default_rng(123)
    counts = sample_counts(np.eye(2, dtype=complex) / 2, 10**6, rng)
    sigma = np.sqrt(10**6 * 0.25)
    for count in counts:
        assert abs(count - 5 * 10**5) <= 3 * sigma


def test_sample_counts_analytic_mode():
    freqs = sample_counts(simulate_statevector(build_pqe(0.0)), None)
    assert freqs.shape == (4,)
    assert freqs == pytest.approx([0.5, 0.25, 0.25, 0.0], abs=1e-12)
    assert freqs[3] == 0.0


def test_sample_counts_rejects_zero_shots():
    with pytest.raises(ValidationError):
        sample_counts(np.array([1.0, 0.0], dtype=complex), 0, np.random.default_rng(0))


@pytest.mark.parametrize("shots", [None, 100])
@pytest.mark.parametrize(
    "probs, message",
    [
        ([0.7, 0.7], r"^outcome probabilities sum to 1\.4, not 1$"),
        ([1.0 + 1e-8, 0.0], r"^outcome probabilities sum to 1\.00000001, not 1$"),
        ([np.nan, 1.0], r"^outcome probability nan is not in \[0, inf\)$"),
        ([0.25, 0.25, -0.5, 1.0], r"^outcome probability -0\.5 is not in \[0, inf\)$"),
        ([np.inf, 0.0], r"^outcome probability inf is not in \[0, inf\)$"),
        ([0.2, 0.3, 0.5], r"^expected 2 or 4 outcome probabilities, got shape \(3,\)$"),
        ([[0.5, 0.5]], r"^expected 2 or 4 outcome probabilities, got shape \(1, 2\)$"),
        (1.0, r"^expected 2 or 4 outcome probabilities, got shape \(\)$"),
    ],
    ids=["sum-1.4", "sum-1+1e-8", "nan", "negative", "inf", "three-outcomes", "2-d", "scalar"],
)
def test_counts_from_probabilities_rejects_what_is_not_a_distribution(probs, message, shots):
    with pytest.raises(ValidationError, match=message):
        counts_from_probabilities(probs, shots, np.random.default_rng(0))


def test_counts_from_probabilities_takes_a_distribution_within_1e_9():
    probs = np.array([0.5, 0.5 + 1e-10])
    freqs = counts_from_probabilities(probs, None)
    assert freqs.tolist() == [0.5, 0.5 + 1e-10]
    assert not np.shares_memory(freqs, probs)
    assert counts_from_probabilities([0.0, 0.0, 0.0, 1.0], 100, np.random.default_rng(0)).tolist() == [0, 0, 0, 100]


def test_sample_counts_reproducible_for_fixed_seed():
    state = simulate_statevector(build_bmzi(0.9))
    a = sample_counts(state, 500, np.random.default_rng(42))
    b = sample_counts(state, 500, np.random.default_rng(42))
    assert a.shape == (2,) and a.sum() == 500
    assert np.array_equal(a, b)


def test_circuit_index_validation():
    with pytest.raises(ValidationError):
        Circuit(1, (ix(1),))
    with pytest.raises(ValidationError):
        Circuit(2, (cx(1, 1),))
    with pytest.raises(ValidationError):
        Circuit(5)
    with pytest.raises(ValidationError, match="1..2"):
        Circuit(3)


def test_custom_unitary_must_be_unitary():
    bad = unitary(np.array([[1.0, 0.0], [0.0, 2.0]]), (0,))
    with pytest.raises(ValidationError):
        simulate_statevector(Circuit(1, (bad,)))


def test_custom_matrix_must_match_its_qubit_count():
    with pytest.raises(ValidationError, match="qubit count"):
        simulate_statevector(Circuit(2, (unitary(np.eye(2), (0, 1)),)))
