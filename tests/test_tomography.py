import tracemalloc

import numpy as np
import pytest

from interfero import (
    ReconstructionError,
    ValidationError,
    basis_change,
    build_bmzi,
    build_pqe,
    expectation_from_counts,
    linear_inversion,
    measurement_settings,
    outer,
    project_psd,
    reconstruct,
    sample_counts,
    simulate_statevector,
    trace_distance,
)
from interfero.tomography import PAULI
from interfero.linalg import kron


def exact_expectations(state, n_qubits):
    """Oracle: <P> = <psi|P|psi> computed directly from Pauli matrices."""
    rho = np.outer(state, state.conj())
    values = {}
    for setting in measurement_settings(n_qubits):
        op = PAULI[setting[0]]
        for letter in setting[1:]:
            op = kron(op, PAULI[letter])
        values[setting] = float(np.real(np.trace(op @ rho)))
    return values


def sampled_expectations(state, n_qubits, shots, rng):
    values = {}
    for setting in measurement_settings(n_qubits):
        circ = basis_change(setting)
        rotated = simulate_statevector(circ, state)
        counts = sample_counts(rotated, shots, rng)
        values[setting] = expectation_from_counts(counts, setting)
    return values


def test_settings_single_qubit():
    assert measurement_settings(1) == ["X", "Y", "Z"]


def test_settings_two_qubits():
    settings = measurement_settings(2)
    assert len(settings) == 15
    for required in ("ZZ", "ZI", "IZ"):
        assert settings.count(required) == 1
    assert "II" not in settings
    assert settings == sorted(settings, key=lambda s: ["IXYZ".index(c) for c in s])


def test_settings_rejects_unsupported_size():
    with pytest.raises(ValidationError):
        measurement_settings(3)


def test_basis_change_z_is_empty():
    assert basis_change("Z").gates == ()


def test_basis_change_x_on_plus_state():
    plus = np.array([1, 1]) / np.sqrt(2)
    rotated = simulate_statevector(basis_change("X"), plus)
    assert abs(rotated[0]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_basis_change_y_on_circular_state():
    state = np.array([1, 1j]) / np.sqrt(2)
    rotated = simulate_statevector(basis_change("Y"), state)
    assert abs(rotated[0]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_expectation_from_counts_examples():
    assert expectation_from_counts({"0": 1000}, "Z") == pytest.approx(1.0)
    assert expectation_from_counts({"00": 500, "10": 500}, "ZI") == pytest.approx(0.0)
    assert expectation_from_counts({"00": 500, "11": 500}, "ZZ") == pytest.approx(1.0)


def test_expectation_from_counts_guards():
    with pytest.raises(ValidationError):
        expectation_from_counts({}, "Z")
    with pytest.raises(ValidationError):
        expectation_from_counts({"00": 10}, "Z")


def test_linear_inversion_examples():
    rho = linear_inversion({"X": 0.0, "Y": 0.0, "Z": 0.0}, 1)
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)
    rho0 = linear_inversion({"X": 0.0, "Y": 0.0, "Z": 1.0}, 1)
    assert np.allclose(rho0, np.diag([1.0, 0.0]), atol=1e-12)


def test_linear_inversion_reconstructs_interferometer_state():
    state = simulate_statevector(build_bmzi(-np.pi / 2))
    values = exact_expectations(state, 1)
    assert values["Y"] == pytest.approx(-1.0, abs=1e-12)
    assert values["X"] == pytest.approx(0.0, abs=1e-12)
    assert values["Z"] == pytest.approx(0.0, abs=1e-12)
    rho = linear_inversion(values, 1)
    assert np.max(np.abs(rho - outer(state))) <= 1e-12


def test_linear_inversion_missing_setting_names_it():
    with pytest.raises(ValidationError, match="'Y'"):
        linear_inversion({"X": 0.0, "Z": 0.0}, 1)


def test_linear_inversion_rejects_foreign_settings():
    values = {"X": 0.0, "Y": 0.0, "Z": 0.0, "II": 0.5}
    with pytest.raises(ValidationError, match="'II'"):
        linear_inversion(values, 1)


def test_project_psd_idempotent_on_physical_input():
    rho = np.diag([0.7, 0.3]).astype(complex)
    out, violation = project_psd(rho)
    assert violation == 0.0
    assert np.max(np.abs(out - rho)) <= 1e-12
    again, _ = project_psd(out)
    assert np.max(np.abs(again - out)) <= 1e-12


def test_project_psd_clips_and_renormalises():
    out, violation = project_psd(np.diag([1.1, -0.1]))
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)
    assert violation == pytest.approx(0.1, abs=1e-12)
    out4, violation4 = project_psd(np.diag([0.9, 0.3, -0.1, -0.1]))
    assert np.allclose(out4, np.diag([0.75, 0.25, 0.0, 0.0]), atol=1e-12)
    assert violation4 == pytest.approx(0.2, abs=1e-12)


def test_project_psd_trace_exactly_one():
    rng = np.random.default_rng(17)
    for _ in range(25):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = (g + g.conj().T) / 2
        m = m / np.trace(m).real
        if abs(np.trace(m) - 1) > 1e-6:
            continue
        out, _ = project_psd(m)
        assert abs(np.trace(out).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(out)[0] >= -1e-12


def test_project_psd_entry_growth_bounded_by_clipped_mass():
    rng = np.random.default_rng(19)
    for _ in range(25):
        # diagonally dominant, trace 1, slightly negative eigenvalues
        diag = np.array([0.55, 0.35, 0.15, -0.05])
        rng.shuffle(diag)
        off = 0.02 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        m = np.diag(diag).astype(complex) + off + off.conj().T
        m = m / np.trace(m).real
        if np.linalg.eigvalsh(m)[0] >= 0:
            continue
        out, violation = project_psd(m)
        growth = float(np.max(np.abs(out) - np.abs(m)))
        assert growth <= violation + 1e-12


def test_project_psd_input_guards():
    with pytest.raises(ValidationError):
        project_psd(np.diag([0.4, 0.4]))
    with pytest.raises(ValidationError):
        project_psd(np.array([[0.5, 0.3], [0.1, 0.5]]))


def test_roundtrip_exact_expectations_random_pure_states():
    rng = np.random.default_rng(29)
    for n_qubits in (1, 2):
        dim = 1 << n_qubits
        for _ in range(25):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            v /= np.linalg.norm(v)
            result = reconstruct(exact_expectations(v, n_qubits), n_qubits)
            assert np.max(np.abs(result.rho - outer(v))) <= 1e-10
            assert result.psd_violation >= 0.0


def test_statistical_consistency_many_shots():
    # 100 seeded trials at 1e5 shots per setting on the eraser state
    state = simulate_statevector(build_pqe(np.pi / 2))
    rho_true = outer(state)
    good = 0
    for trial in range(100):
        rng = np.random.default_rng(np.random.SeedSequence((2024, trial)))
        values = sampled_expectations(state, 2, 10**5, rng)
        result = reconstruct(values, 2)
        if trace_distance(result.rho, rho_true) <= 0.02:
            good += 1
    assert good >= 95


def test_reconstruction_error_type_exists():
    assert issubclass(ReconstructionError, RuntimeError)


def test_linear_inversion_of_a_stack_matches_each_state():
    rng = np.random.default_rng(37)
    for n_qubits in (1, 2):
        settings = measurement_settings(n_qubits)
        values = rng.uniform(-1, 1, size=(3, 2, len(settings)))
        stack = linear_inversion(values, n_qubits)
        assert stack.shape == (3, 2, 1 << n_qubits, 1 << n_qubits)
        for index in np.ndindex(3, 2):
            single = linear_inversion(dict(zip(settings, values[index])), n_qubits)
            assert np.max(np.abs(stack[index] - single)) <= 1e-15


def test_linear_inversion_of_a_stack_names_the_bad_setting():
    values = np.zeros((4, 3))
    values[2, 1] = 1.5
    with pytest.raises(ValidationError, match="'Y'.*outside"):
        linear_inversion(values, 1)
    with pytest.raises(ValidationError, match="3 expectation values"):
        linear_inversion(np.zeros((4, 15)), 1)


def test_project_psd_of_a_stack_matches_each_matrix():
    rng = np.random.default_rng(41)
    stack = []
    for _ in range(12):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = 0.3 * (g + g.conj().T) + np.eye(4)
        stack.append(h / np.trace(h).real)
    stack = np.array(stack).reshape(3, 4, 4, 4)
    rho, violation = project_psd(stack)
    assert rho.shape == stack.shape and violation.shape == (3, 4)
    assert np.any(violation > 0) and np.any(violation == 0)
    for index in np.ndindex(3, 4):
        single, mass = project_psd(stack[index])
        assert isinstance(mass, float)
        assert violation[index] == pytest.approx(mass, abs=1e-15)
        assert np.max(np.abs(rho[index] - single)) <= 1e-14
        if mass == 0.0:
            # physical matrices come back untouched, not rebuilt from eigenvectors
            assert np.array_equal(rho[index], stack[index])


def _mixed_stack(rng, d, shape):
    """Unit-trace Hermitian matrices ``shape + (d, d)``, some with negative eigenvalues."""
    g = rng.standard_normal((*shape, d, d)) + 1j * rng.standard_normal((*shape, d, d))
    h = 0.3 * (g + np.swapaxes(g, -1, -2).conj()) + np.eye(d)
    return h / np.trace(h, axis1=-2, axis2=-1).real[..., None, None]


@pytest.mark.parametrize("d, shape", [(2, (40,)), (4, (3, 7)), (4, ())])
def test_projecting_only_the_negative_matrices_is_bitwise_the_whole_stack_formula(d, shape):
    stack = _mixed_stack(np.random.default_rng(5 + d), d, shape)
    # the whole-stack formula: every matrix rebuilt, the physical ones then put back
    lam, vecs = np.linalg.eigh(stack)
    negative = lam[..., 0] < 0.0
    clipped = np.clip(lam, 0.0, None)
    clipped /= np.where(negative, clipped.sum(axis=-1), 1.0)[..., None]
    rebuilt = (vecs * clipped[..., None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))
    reference = np.where(negative[..., None, None], rebuilt, stack)
    if shape:
        assert negative.any() and not negative.all()
    rho, violation = project_psd(stack)
    assert rho.tobytes() == reference.tobytes()
    assert rho[~negative].tobytes() == stack[~negative].tobytes()
    assert np.all((violation > 0) == negative)


def test_a_physical_stack_comes_back_as_the_input_without_a_rebuilt_copy():
    stack = np.tile(np.eye(4, dtype=complex) / 4, (960, 1, 1))
    tracemalloc.start()
    try:
        rho, violation = project_psd(stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rho is stack and not violation.any()
    # the eigenvectors and the Hermitian check's temporaries; rebuilding every matrix held about 4.4 stacks
    assert peak < 3 * stack.nbytes
