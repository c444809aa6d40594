import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interfero import ValidationError, kron, outer, purity
from interfero.circuits import Circuit, outcome_probabilities, simulate_density, unitary
from interfero.complementarity import coherence_l1, l1_metrics, predictability_l1
from interfero.experiments import ExperimentConfig, setting_probabilities
from interfero.linalg import (
    ATOL_EIG,
    PSD_MARGIN,
    at_index,
    check_density_matrix,
    check_state_vector,
    dagger,
    hermitian_residual,
    random_unitary,
    uncertified,
)
from interfero.noise import NoiseModel, check_channel
from interfero.tomography import project_psd

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_kron_identity_case():
    assert np.allclose(kron(I2, I2), np.eye(4), atol=1e-12)


def test_kron_diagonal_case():
    assert np.allclose(kron(np.diag([1.0, 2.0]), I2), np.diag([1.0, 1.0, 2.0, 2.0]), atol=1e-12)


def test_kron_double_bit_flip():
    v00 = np.array([1, 0, 0, 0], dtype=complex)
    v = kron(X, X) @ v00
    assert np.allclose(v, [0, 0, 0, 1], atol=1e-12)


def test_kron_associative_on_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
        assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) <= 1e-12


def test_outer_basis_state():
    assert np.allclose(outer(np.array([1, 0])), np.diag([1.0, 0.0]), atol=1e-12)


def test_outer_plus_state():
    rho = outer(np.array([1, 1]) / np.sqrt(2))
    assert np.allclose(rho, np.full((2, 2), 0.5), atol=1e-12)


def test_outer_interferometer_state_has_uniform_magnitudes():
    # balanced splitter output (cos(pi/4), i sin(pi/4)) up to sign
    v = np.array([np.cos(-np.pi / 4), 1j * np.sin(-np.pi / 4)])
    rho = outer(v)
    assert np.allclose(np.abs(rho), np.full((2, 2), 0.5), atol=1e-12)


def test_outer_rejects_unnormalised():
    with pytest.raises(ValidationError):
        outer(np.array([1.0, 1.0]))


def test_outer_is_rank_one():
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        lam = np.linalg.eigvalsh(outer(v))
        assert abs(lam[-1] - 1.0) <= 1e-8
        assert np.max(np.abs(lam[:-1])) <= 1e-8


def test_purity_maximally_mixed():
    assert purity(I2 / 2) == pytest.approx(0.5, abs=1e-12)


def test_purity_pure_state():
    assert purity(np.diag([1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)


def test_purity_mixed_diagonal():
    # 0.75^2 + 0.25^2
    assert purity(np.diag([0.75, 0.25])) == pytest.approx(0.625, abs=1e-12)


def test_unitary_evolution_preserves_norm():
    rng = np.random.default_rng(13)
    for dim in (2, 4):
        for _ in range(20):
            u = random_unitary(dim, rng)
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            v /= np.linalg.norm(v)
            assert abs(np.linalg.norm(u @ v) - 1.0) <= 1e-10


def test_check_state_vector_dimension_guard():
    with pytest.raises(ValidationError):
        check_state_vector(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        check_state_vector(np.ones(32) / np.sqrt(32))


def test_check_density_matrix_guards():
    with pytest.raises(ValidationError):
        check_density_matrix(np.diag([0.6, 0.6]))
    with pytest.raises(ValidationError):
        check_density_matrix(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValidationError):
        check_density_matrix(np.diag([1.5, -0.5]))


@pytest.mark.parametrize("d", (2, 4))
@pytest.mark.parametrize("lead", ((), (5,), (3, 7), (0,), (2, 0)))
def test_hermitian_residual_is_bitwise_the_full_stack_form(d, lead):
    rng = np.random.default_rng(len(lead) * 10 + d)
    m = rng.standard_normal((*lead, d, d)) + 1j * rng.standard_normal((*lead, d, d))
    near = 0.5 * (m + dagger(m)) + 1e-9 * m  # nearly Hermitian: residuals from rounding and the 1e-9 part
    for stack in (m, near, m.transpose(*range(len(lead)), -1, -2)):
        expected = np.max(np.abs(stack - dagger(stack)), axis=(-2, -1))
        got = hermitian_residual(stack)
        assert got.shape == expected.shape == lead
        assert got.tobytes() == expected.tobytes()


def test_check_density_matrix_holds_less_than_one_stack():
    rng = np.random.default_rng(5)
    v = rng.standard_normal((20_000, 4)) + 1j * rng.standard_normal((20_000, 4))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    stack = 0.5 * outer(v) + 0.5 * np.eye(4) / 4
    check_density_matrix(stack[:2])  # first-call caches are not per-stack memory
    tracemalloc.start()
    try:
        assert check_density_matrix(stack) is stack
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the Hermitian check holds one entry per matrix at a time; eigvalsh gives (cells, d)
    assert peak < stack.nbytes


def _spectrum_state(seed, lam):
    """A Hermitian matrix with spectrum ``lam`` (trace 1 to rounding) in a random eigenbasis."""
    u = random_unitary(len(lam), np.random.default_rng(seed))
    return (u * np.asarray(lam)) @ dagger(u)


def _eigvalsh_every_matrix(rho):
    """The positivity check before the certificate: ``eigvalsh`` of every matrix, or its error message."""
    lam = np.linalg.eigvalsh(rho)[..., 0]
    failing = [cell for cell in np.ndindex(lam.shape) if not lam[cell] >= -ATOL_EIG]
    if not failing:
        return None
    return f"density matrix{at_index(failing[0])} has negative eigenvalue {float(lam[failing[0]])!r}"


def _message(rho):
    try:
        check_density_matrix(rho)
    except ValidationError as error:
        return str(error)
    return None


#: Smallest eigenvalues on both sides of the certificate's floor, of -ATOL_EIG and of 0.
LOWEST = [0.3, 0.0, 1e-12, -1e-12, -5e-9, -9e-9, -9.5e-9, -9.999e-9, -1.0001e-8, -2e-8, -1e-3, -0.4]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_check_density_matrix_eigendecomposes_only_what_the_certificate_cannot_pass(monkeypatch, d):
    lowest = np.array(LOWEST)
    lowest = lowest[lowest >= -ATOL_EIG]
    stack = np.array([_spectrum_state(k, [x, *[(1 - x) / (d - 1)] * (d - 1)]) for k, x in enumerate(lowest)])
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def counting(m):
        seen.append(m)
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert check_density_matrix(stack) is stack
    # the certificate proves every eigenvalue above -9e-9; the states below it, and only those, go to eigvalsh
    floor = PSD_MARGIN - ATOL_EIG
    flagged = uncertified(stack, floor)
    assert flagged[lowest < floor - 1e-10].all() and not flagged[lowest > floor + 1e-10].any()
    assert len(seen) == 1 and seen[0].tobytes() == stack[flagged].tobytes()
    seen.clear()
    check_density_matrix(stack[lowest > floor + 1e-10])
    noise = dict(depolarizing=0.02, amplitude_damping=0.01, phase_damping=0.01)
    for config in (ExperimentConfig(kind="pqe", **noise), ExperimentConfig(kind="pqe"), ExperimentConfig(kind="bmzi")):
        setting_probabilities(config, config.angles())  # pure states too: 0 is 9e-9 above the floor
    assert seen == []


@pytest.mark.parametrize("lead", [(), (5,), (3, 4)])
def test_check_density_matrix_names_the_first_failing_matrix_as_before(lead):
    rng = np.random.default_rng(len(lead))
    for trial in range(12):
        lowest = rng.choice(LOWEST, size=lead)
        stack = np.array([_spectrum_state(trial * 100 + k, [x, 1 - x]) for k, x in enumerate(lowest.ravel())])
        stack = stack.reshape(*lead, 2, 2)
        assert _message(stack) == _eigvalsh_every_matrix(stack)
    assert _message(np.diag([1 + 2e-8, -2e-8])) == "density matrix has negative eigenvalue -2e-08"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    d=st.integers(2, 4),
    lowest=st.one_of(st.floats(-0.5, -ATOL_EIG * (1 + 1e-6)), st.floats(-ATOL_EIG * (1 - 1e-6), 0.0, exclude_max=True)),
    rest=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_no_matrix_below_minus_atol_eig_is_accepted_and_none_above_is_rejected(d, lowest, rest, seed):
    weights = np.array(rest[: d - 1]) + 1e-3
    rho = _spectrum_state(seed, [lowest, *(weights * (1 - lowest) / weights.sum())])
    message = _message(rho)
    assert message == _eigvalsh_every_matrix(rho)
    assert (message is None) == (lowest >= -ATOL_EIG)


def _nan_stack(d):
    """Four maximally mixed d x d matrices, with a NaN population in those at index 1 and 2."""
    stack = np.stack([np.eye(d, dtype=complex) / d] * 4)
    stack[1:3, 0, 0] = np.nan
    return stack


_NAN_GATE = Circuit(1, (unitary(np.stack([np.eye(2), np.diag([np.nan, 1.0]), np.diag([1.0, np.nan])]), (0,)),))


@pytest.mark.parametrize(
    "check, index",
    [
        pytest.param(lambda: check_density_matrix(_nan_stack(2)), 1, id="check_density_matrix"),
        pytest.param(lambda: project_psd(_nan_stack(4)), 1, id="project_psd"),
        pytest.param(lambda: l1_metrics(_nan_stack(4)), 1, id="l1_metrics"),
        pytest.param(lambda: coherence_l1(np.diag([np.nan, 1.0])), None, id="coherence_l1"),
        pytest.param(lambda: predictability_l1(np.diag([np.nan, 1.0])), None, id="predictability_l1"),
        pytest.param(lambda: outer(np.array([[1.0, 0.0], [np.nan, 0.0], [np.nan, 0.0]])), 1, id="outer"),
        pytest.param(lambda: check_state_vector(np.array([np.nan, 0.0])), None, id="check_state_vector"),
        pytest.param(lambda: outcome_probabilities(_nan_stack(2)), 1, id="outcome_probabilities"),
        pytest.param(lambda: simulate_density(_NAN_GATE), 1, id="check_unitary"),
        pytest.param(lambda: check_channel((np.diag([np.nan, 1.0]),)), None, id="check_channel"),
        pytest.param(lambda: NoiseModel(readout=np.array([[np.nan, 0.0], [0.0, 1.0]])), None, id="readout"),
    ],
)
def test_a_nan_fails_every_check_and_a_stack_names_its_first_nan_matrix(check, index):
    with pytest.raises(ValidationError) as info:
        check()
    message = str(info.value)
    assert message and "\n" not in message
    if index is not None:
        assert f" at index {index} " in message
