import numpy as np
import pytest

from interfero import (
    bmzi_state,
    coherence_l1,
    outer,
    point_from_density,
    pqe_state,
    predictability_l1,
    theory_bmzi,
    theory_pqe,
)


def brute_coherence(rho):
    """Oracle: explicit double loop over off-diagonal magnitudes."""
    total = 0.0
    d = rho.shape[0]
    for j in range(d):
        for k in range(d):
            if j != k:
                total += abs(rho[j, k])
    return total


def brute_predictability(rho):
    d = rho.shape[0]
    total = 0.0
    for j in range(d):
        for k in range(d):
            if j != k:
                total += np.sqrt(max(rho[j, j].real, 0.0) * max(rho[k, k].real, 0.0))
    return d - 1 - total


def random_pure(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_mixed(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_coherence_trivial_cases():
    assert coherence_l1(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-12)
    plus = np.full((2, 2), 0.5)
    assert coherence_l1(plus) == pytest.approx(1.0, abs=1e-12)


def test_coherence_eraser_state_at_zero_phase():
    rho = outer(pqe_state(0.0))
    expected = 0.5 + np.sqrt(2)
    assert coherence_l1(rho) == pytest.approx(expected, abs=1e-10)
    assert brute_coherence(rho) == pytest.approx(expected, abs=1e-10)


def test_predictability_trivial_cases():
    assert predictability_l1(np.diag([1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)
    assert predictability_l1(np.eye(2) / 2) == pytest.approx(0.0, abs=1e-12)


def test_predictability_eraser_state_at_zero_phase():
    rho = outer(pqe_state(0.0))
    expected = 3 - (0.5 + np.sqrt(2))
    assert predictability_l1(rho) == pytest.approx(expected, abs=1e-10)
    assert brute_predictability(rho) == pytest.approx(expected, abs=1e-10)


def test_metrics_match_brute_force_on_random_states():
    rng = np.random.default_rng(31)
    for dim in (2, 3, 4):
        for _ in range(10):
            rho = random_mixed(dim, rng)
            assert coherence_l1(rho) == pytest.approx(brute_coherence(rho), abs=1e-12)
            assert predictability_l1(rho) == pytest.approx(brute_predictability(rho), abs=1e-12)


def test_theory_bmzi_reference_points():
    p0 = theory_bmzi(0.0)
    assert (p0.coherence, p0.predictability) == (pytest.approx(0.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))
    p1 = theory_bmzi(-np.pi / 2)
    assert p1.coherence == pytest.approx(1.0, abs=1e-12)
    assert p1.predictability == pytest.approx(0.0, abs=1e-12)
    p2 = theory_bmzi(np.pi / 6)
    assert p2.coherence == pytest.approx(0.5, abs=1e-12)
    assert p2.predictability == pytest.approx(0.5, abs=1e-12)


def test_theory_bmzi_closed_form_curve():
    for alpha in np.linspace(-np.pi, np.pi, 41):
        point = theory_bmzi(alpha)
        assert point.coherence == pytest.approx(abs(np.sin(alpha)), abs=1e-12)
        assert point.predictability == pytest.approx(1 - abs(np.sin(alpha)), abs=1e-12)
        assert point.total == pytest.approx(1.0, abs=1e-12)


def test_theory_pqe_reference_points():
    for phi in (0.0, np.pi):
        point = theory_pqe(phi)
        assert point.coherence == pytest.approx(0.5 + np.sqrt(2), abs=1e-12)
        assert point.predictability == pytest.approx(2.5 - np.sqrt(2), abs=1e-12)


def test_theory_pqe_sum_is_three_everywhere():
    for phi in np.linspace(0, 2 * np.pi, 37):
        assert theory_pqe(phi).total == pytest.approx(3.0, abs=1e-12)


def test_pure_state_equality():
    rng = np.random.default_rng(37)
    for dim in (2, 3, 4):
        for _ in range(67):
            rho = outer(random_pure(dim, rng))
            point = point_from_density(rho)
            assert abs(point.total - (dim - 1)) <= 1e-10


def test_mixed_state_inequality():
    rng = np.random.default_rng(41)
    for dim in (2, 3, 4):
        for _ in range(67):
            rho = random_mixed(dim, rng)
            point = point_from_density(rho)
            assert point.total <= dim - 1 + 1e-9
            assert point.coherence >= 0.0
            assert point.predictability >= -1e-9


def test_upper_bound_chain():
    rng = np.random.default_rng(43)
    for dim in (2, 4):
        for _ in range(50):
            rho = random_mixed(dim, rng)
            geometric = (dim - 1) - predictability_l1(rho)
            assert coherence_l1(rho) <= geometric + 1e-9
            assert geometric <= dim - 1 + 1e-9


def test_coherence_is_basis_dependent():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    plus = np.full((2, 2), 0.5)
    assert coherence_l1(plus) == pytest.approx(1.0, abs=1e-12)
    rotated = h @ plus @ h.conj().T
    assert coherence_l1(rotated) == pytest.approx(0.0, abs=1e-12)


def test_bmzi_state_is_normalised():
    for alpha in np.linspace(-np.pi, np.pi, 9):
        assert np.linalg.norm(bmzi_state(alpha)) == pytest.approx(1.0, abs=1e-12)


def test_metrics_of_a_stack_match_each_matrix():
    from interfero.complementarity import l1_metrics

    rng = np.random.default_rng(43)
    for dim in (2, 4):
        g = rng.standard_normal((5, dim, dim)) + 1j * rng.standard_normal((5, dim, dim))
        stack = g @ np.conj(np.swapaxes(g, -1, -2))
        stack /= np.trace(stack, axis1=-2, axis2=-1).real[:, None, None]
        c, p = l1_metrics(stack)
        assert np.array_equal(coherence_l1(stack), c)
        assert np.array_equal(predictability_l1(stack), p)
        for k in range(5):
            assert isinstance(coherence_l1(stack[k]), float)
            assert c[k] == pytest.approx(coherence_l1(stack[k]), abs=1e-15)
            assert p[k] == pytest.approx(predictability_l1(stack[k]), abs=1e-15)


@pytest.mark.parametrize("amplitude", [1e-6, 1e-7, 3e-7])
def test_a_floored_population_zeroes_its_coherences(amplitude):
    # |rho_11| ~ amplitude**2 lies at or below the 1e-12 population floor
    v = np.array([1.0, amplitude], dtype=complex)
    rho = outer(v / np.linalg.norm(v))
    assert coherence_l1(rho) == 0.0
    assert coherence_l1(rho) + predictability_l1(rho) == 1.0
    eraser = np.zeros((3, 4, 4), dtype=complex)
    eraser[:, :3, :3] = outer(np.array([1.0, 0.5, 0.5j]) / np.sqrt(1.5))
    eraser[1] = outer(np.array([1.0, 0.5, 0.5j, amplitude]) / np.sqrt(1.5 + amplitude**2))
    total = coherence_l1(eraser) + predictability_l1(eraser)
    assert np.all(total <= 3.0 + 1e-12)
    assert coherence_l1(eraser)[1] == pytest.approx(coherence_l1(eraser[1][:3, :3]), abs=1e-15)
