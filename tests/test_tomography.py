import re
import tracemalloc

import numpy as np
import pytest

from interfero import (
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
import interfero.tomography as tomography
from interfero.experiments import ExperimentConfig, run_sweep
from interfero.tomography import PAULI, PSD_MARGIN
from interfero.linalg import check_stack, dagger, kron, random_unitary


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
    assert expectation_from_counts(np.array([1000, 0]), "Z") == pytest.approx(1.0)
    assert expectation_from_counts(np.array([500, 0, 500, 0]), "ZI") == pytest.approx(0.0)
    assert expectation_from_counts(np.array([500, 0, 0, 500]), "ZZ") == pytest.approx(1.0)


def test_expectation_from_counts_guards():
    with pytest.raises(ValidationError):
        expectation_from_counts(np.array([]), "Z")
    with pytest.raises(ValidationError):
        expectation_from_counts(np.array([10, 0, 0, 0]), "Z")


@pytest.mark.parametrize(
    "counts, bad",
    [([np.nan, 0], 0), ([1, np.inf], 1), ([5, -1], 1), ([0, -np.inf], 1)],
)
def test_expectation_from_counts_rejects_a_count_that_is_negative_or_not_finite(counts, bad):
    with pytest.raises(ValidationError) as info:
        expectation_from_counts(np.array(counts), "Z")
    assert str(info.value) == f"count for outcome {bad} must be finite and >= 0, got {float(counts[bad])!r}"


@pytest.mark.parametrize("counts", [[1.5e308, 1e308], [1e308, 1e308, 0.0, 0.0]])
def test_expectation_from_counts_rejects_a_total_that_overflows(counts):
    with pytest.raises(ValidationError, match=r"^counts table total overflows a float$"):
        expectation_from_counts(np.array(counts), "Z" * (len(counts) // 2))


@pytest.mark.parametrize(
    "counts, setting",
    [(np.full(4, 10), "Z"), (np.full(2, 10), "ZZ"), (np.full((2, 2), 10), "ZI"), (np.int64(10), "Z")],
    ids=["4-for-Z", "2-for-ZZ", "2-d", "scalar"],
)
def test_expectation_from_counts_rejects_a_vector_of_the_wrong_shape(counts, setting):
    n = len(setting)
    expected = rf"^expected {2**n} counts for {n} qubit\(s\), got shape {re.escape(str(np.shape(counts)))}$"
    with pytest.raises(ValidationError, match=expected):
        expectation_from_counts(counts, setting)


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_expectation_from_counts_is_the_exact_parity_sum_over_integers(n_qubits):
    rng = np.random.default_rng(17 + n_qubits)
    d = 1 << n_qubits
    vectors = [rng.multinomial(shots, rng.dirichlet(np.ones(d))) for shots in (1, 7, 1000, 10**6, 2**40)]
    vectors += [np.eye(d, dtype=np.int64)[k] * 3 for k in range(d)] + [np.array([0] * (d - 1) + [5])]
    for counts in vectors:
        for s, setting in enumerate(measurement_settings(n_qubits)):
            signs = tomography.parity_signs(n_qubits)[s].astype(int).tolist()
            ints = counts.tolist()
            exact = sum(sign * count for sign, count in zip(signs, ints)) / sum(ints)
            got = expectation_from_counts(counts, setting)
            assert type(got) is float
            assert got.hex() == exact.hex(), (counts, setting)


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


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_every_matrix_that_passes_the_check_projects_to_a_trace_one_state(d):
    # an exactly Hermitian H with Tr H >= 1 - 1e-6 keeps an eigenvalue of at least max(Tr H / d, |H| / 3)
    rng = np.random.default_rng(2012 + d)
    n = 3000
    diag = rng.uniform(-1.0, 1.0, (n, d))
    diag += (1.0 + rng.uniform(-1.5e-6, 1.5e-6, (n, 1)) - diag.sum(axis=1, keepdims=True)) / d
    off = 10.0 ** rng.uniform(-20.0, 300.0, (n, 1, 1)) * rng.uniform(0.0, 1.0, (n, d, d))
    upper = np.triu(off * np.exp(2j * np.pi * rng.uniform(size=(n, d, d))), 1)
    stack = upper + np.conj(np.swapaxes(upper, -1, -2)) + diag[:, :, None] * np.eye(d)
    passing = []
    for m in stack:
        try:
            passing.append(check_stack(m, "matrix", 1e-6, trace=1e-6))
        except ValidationError:
            pass
    assert len(passing) > n // 2
    out, violation = project_psd(np.array(passing))
    rebuilt = violation > 0
    trace = np.trace(out, axis1=-2, axis2=-1)
    assert np.isfinite(out).all() and np.isfinite(violation).all()
    assert np.all(np.abs(trace - 1.0) <= 1e-6) and np.all(np.abs(trace[rebuilt] - 1.0) <= 1e-12)
    assert np.all(np.linalg.eigvalsh(out)[:, 0] >= -1e-12)
    assert rebuilt.any() or d == 1


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


def test_trace_distance_is_half_the_trace_norm_of_two_hermitian_matrices():
    assert trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(1.0, abs=1e-15)
    assert trace_distance(np.eye(4) / 4, np.eye(4) / 4) == 0.0
    with pytest.raises(ValidationError, match=r"^matrix a is not Hermitian within 1e-8$"):
        trace_distance([[1, 1], [0, 0]], np.zeros((2, 2)))
    with pytest.raises(ValidationError, match=r"^matrix b has a non-finite entry$"):
        trace_distance(np.eye(2) / 2, np.diag([np.nan, 1.0]))
    with pytest.raises(ValidationError, match=r"^trace distance needs two matrices of one shape, got shapes \(2, 2\)"):
        trace_distance(np.eye(2) / 2, np.eye(4) / 4)
    with pytest.raises(ValidationError, match=r"got shapes \(3, 2, 2\) and \(3, 2, 2\)$"):
        trace_distance(np.zeros((3, 2, 2)), np.zeros((3, 2, 2)))


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


def _einsum_inversion(values, n_qubits):
    """The complex einsum that the inversion's real matrix product replaced, kept as its reference."""
    dim = 1 << n_qubits
    return (np.eye(dim) + np.einsum("...s,sij->...ij", values, tomography.pauli_basis(n_qubits))) / dim


def _inversion_inputs(n_qubits):
    """Uniform values, count fractions and values in {+-1, +-0, +-0.5}, for one state and stacks of six shapes."""
    rng = np.random.default_rng(53 + n_qubits)
    size = len(measurement_settings(n_qubits))
    for shape in [(), (1,), (2,), (5,), (3, 7), (960,), (2048,)]:
        yield rng.uniform(-1, 1, (*shape, size))
        yield rng.integers(0, 1001, (*shape, size)) / 1000 * 2 - 1
        yield rng.choice([1.0, -1.0, 0.0, -0.0, 0.5, -0.5], (*shape, size))


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_the_inversion_is_bitwise_the_einsum(n_qubits):
    settings = measurement_settings(n_qubits)
    for values in _inversion_inputs(n_qubits):
        got, want = linear_inversion(values, n_qubits), _einsum_inversion(values, n_qubits)
        # equal bytes: equal values and equal signbits, zeros included
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        single = values.reshape(-1, len(settings))[-1]
        got = linear_inversion(dict(zip(settings, single)), n_qubits)
        assert got.tobytes() == _einsum_inversion(single, n_qubits).tobytes()


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_the_inversion_is_exactly_hermitian(n_qubits):
    # project_psd's lower-triangle LDL^H certificate and eigh read one triangle only
    settings = measurement_settings(n_qubits)
    for values in _inversion_inputs(n_qubits):
        single = dict(zip(settings, values.reshape(-1, len(settings))[0]))
        for rho in (linear_inversion(values, n_qubits), linear_inversion(single, n_qubits)):
            assert np.all(rho == dagger(rho))
            assert np.all(np.diagonal(rho, axis1=-2, axis2=-1).imag == 0.0)


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


def eigh_every_cell(m):
    """Oracle: the projection of a stack with one ``eigh`` over every matrix, the rebuilt ones put back in place."""
    lam, vecs = np.linalg.eigh(m)
    negative = lam[..., 0] < 0.0
    violation = np.where(negative, -np.sum(np.minimum(lam, 0.0), axis=-1), 0.0)
    clipped = np.clip(lam, 0.0, None)[negative]
    vecs = vecs[negative]
    weights = clipped / clipped.sum(axis=-1)[..., None]
    out = m.copy()
    out[negative] = (vecs * weights[..., None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))
    return out, violation


#: Smallest eigenvalues placed around 0 and around the certificate's margin.
LOWEST = [0.0] + [s * x for x in (1e-17, 1e-15, 1e-12, 1e-10, 1e-8, 1e-6) for s in (1, -1)]
LOWEST += [PSD_MARGIN * (1 + x) for x in (-1e-3, -1e-6, 0.0, 1e-6, 1e-3)]


def _placed_spectrum(rng, d, lowest):
    """A unit-trace Hermitian d x d matrix whose exact spectrum has smallest eigenvalue ``lowest``."""
    rest = rng.uniform(0.05, 1.0, d - 1)
    lam = np.concatenate([[lowest], rest * (1 - lowest) / rest.sum()]) if d > 1 else np.ones(1)
    u = random_unitary(d, rng)
    return (u * lam) @ u.conj().T


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_the_certified_projection_is_bitwise_the_eigh_every_cell_formula(d):
    rng = np.random.default_rng(2012 + d)
    stack = np.array([_placed_spectrum(rng, d, lowest) for lowest in LOWEST * 12]).reshape(3, -1, d, d)
    # a copy whose entries are off Hermitian and off trace 1 by up to 1e-7, which the input check allows
    noisy = stack + 1e-7 * (rng.uniform(-1, 1, stack.shape) + 1j * rng.uniform(-1, 1, stack.shape))
    noisy -= (np.trace(noisy, axis1=-2, axis2=-1) - 1)[..., None, None] * np.eye(d) / d
    for m in (stack, noisy):
        rho, violation = project_psd(m)
        reference, mass = eigh_every_cell(m)
        assert rho.tobytes() == reference.tobytes() and violation.tobytes() == mass.tobytes()
        for index in np.ndindex(m.shape[:-2]):
            single, one = project_psd(m[index])
            assert single.tobytes() == reference[index].tobytes() and one == mass[index]
            assert isinstance(one, float)
    if d > 1:  # both sides of 0 are hit
        assert (violation > 0).any() and (violation == 0).any()


def test_eigh_sees_only_the_cells_the_certificate_cannot_pass(monkeypatch):
    cells = []
    eigh = np.linalg.eigh

    def counting(m):
        cells.append(len(m))
        return eigh(m)

    monkeypatch.setattr(tomography.np.linalg, "eigh", counting)
    noise = dict(depolarizing=0.02, amplitude_damping=0.01, phase_damping=0.01, readout_flip0=0.02, readout_flip1=0.03)
    # no finite-shot state of the default noisy eraser needs clipping, so none needs eigh
    assert not run_sweep(ExperimentConfig(kind="pqe", **noise)).table.psd_violation.any()
    assert cells == []
    # bmzi's four blocks (2048, 2048, 2048 and 1536 cells): each eigh sees only part of its block
    table = run_sweep(ExperimentConfig(kind="bmzi")).table
    assert len(cells) == 4 and all(0 < n < block for n, block in zip(cells, (2048, 2048, 2048, 1536)))
    assert sum(cells) >= np.count_nonzero(table.psd_violation)


def test_a_physical_stack_comes_back_as_the_input_without_a_rebuilt_copy():
    rng = np.random.default_rng(47)
    for d in (2, 4):
        v = rng.standard_normal((960, d)) + 1j * rng.standard_normal((960, d))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        stack = 0.5 * outer(v) + 0.5 * np.eye(d) / d
        project_psd(stack[:2])  # first-call caches are not per-stack memory
        tracemalloc.start()
        try:
            rho, violation = project_psd(stack)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rho is stack and not violation.any()
        # eigh's vectors and workspace; the input checks stay below one stack (m - m^dag held 2.5-3 stacks)
        assert peak < 1.5 * stack.nbytes


def test_projecting_a_mostly_unphysical_stack_holds_at_most_three_stacks():
    stack = _mixed_stack(np.random.default_rng(3), 4, (2048,))
    assert np.mean(np.linalg.eigvalsh(stack)[:, 0] < 0) > 0.8
    project_psd(stack[:2])  # first-call caches are not per-stack memory
    tracemalloc.start()
    try:
        project_psd(stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # at most the clipped cells' vectors, their adjoint and their product, or the product and the output
    assert peak < 3.25 * stack.nbytes


def test_the_hermitian_check_is_the_largest_entry_of_m_minus_its_adjoint():
    rng = np.random.default_rng(43)
    for d in (1, 2, 4):
        for _ in range(200):
            m = np.eye(d, dtype=complex) / d
            i, j = rng.integers(d, size=2)
            m[i, j] += complex(*rng.uniform(-1.2e-6, 1.2e-6, size=2))
            m[range(d), range(d)] -= np.trace(m).real / d - 1 / d  # keep the trace at 1
            if np.max(np.abs(m - m.conj().T)) > 1e-6:
                with pytest.raises(ValidationError, match=r"^matrix to project is not Hermitian within 1e-6$"):
                    project_psd(m)
            else:
                project_psd(m)
