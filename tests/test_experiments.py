from dataclasses import replace

import numpy as np
import pytest

from interfero import (
    ExperimentConfig,
    ValidationError,
    build_bmzi,
    build_pqe,
    run_sweep,
    simulate_statevector,
    theory_series,
)
from interfero.experiments import cell_rng
from interfero.report import result_csv


def test_bmzi_circuit_structure():
    circuit = build_bmzi(0.4)
    assert circuit.n_qubits == 1
    assert len(circuit.gates) == 4


def test_bmzi_endpoint_probabilities():
    assert np.allclose(np.abs(simulate_statevector(build_bmzi(0.0))) ** 2, [1, 0], atol=1e-12)
    assert np.allclose(np.abs(simulate_statevector(build_bmzi(-np.pi / 2))) ** 2, [0.5, 0.5], atol=1e-12)


def test_pqe_probabilities_at_reference_phases():
    assert np.allclose(np.abs(simulate_statevector(build_pqe(0.0))) ** 2, [0.5, 0.25, 0.25, 0.0], atol=1e-12)
    assert np.allclose(np.abs(simulate_statevector(build_pqe(np.pi))) ** 2, [0.0, 0.25, 0.25, 0.5], atol=1e-12)


def test_pqe_gate_order_agrees_with_reference_form_up_to_phase():
    # the simulated circuit and the closed-form reference state differ by a
    # pure phase on the |11> amplitude (tensor-order convention); moduli and
    # metrics agree, amplitudes are deliberately not compared
    from interfero import outer, point_from_density, pqe_state, theory_pqe

    rng = np.random.default_rng(83)
    for phi in rng.uniform(0, 2 * np.pi, 10):
        simulated = simulate_statevector(build_pqe(phi))
        reference = pqe_state(phi)
        assert np.max(np.abs(np.abs(simulated) - np.abs(reference))) <= 1e-12
        if abs(reference[3]) > 1e-9:
            ratio = simulated[3] / reference[3]
            assert abs(abs(ratio) - 1.0) <= 1e-12
        circuit_point = point_from_density(outer(simulated))
        closed_point = theory_pqe(phi)
        assert circuit_point.coherence == pytest.approx(closed_point.coherence, abs=1e-12)
        assert circuit_point.predictability == pytest.approx(closed_point.predictability, abs=1e-12)


def test_pqe_norm_for_random_phases():
    rng = np.random.default_rng(67)
    for _ in range(20):
        v = simulate_statevector(build_pqe(rng.uniform(0, 2 * np.pi)))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


def test_angle_grids_contain_the_extremes():
    bmzi = ExperimentConfig(kind="bmzi", analytic=True)
    angles = bmzi.angles()
    assert len(angles) == 60
    assert np.any(np.isclose(angles, -np.pi / 2, atol=1e-12))
    assert angles[0] == pytest.approx(-np.pi)
    assert angles[-1] < np.pi
    pqe = ExperimentConfig(kind="pqe", analytic=True)
    pangles = pqe.angles()
    assert pangles[0] == 0.0
    assert np.any(np.isclose(pangles, np.pi, atol=1e-12))


def test_theory_series_reference_grid():
    config = ExperimentConfig(kind="bmzi", angle_points=4, analytic=True)
    # grid is [-pi, -pi/2, 0, pi/2]
    theory_c, theory_p = theory_series(config.kind, config.angles())
    assert np.allclose(theory_c, [0.0, 1.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(theory_p, [1.0, 0.0, 1.0, 0.0], atol=1e-12)
    pqe = ExperimentConfig(kind="pqe", angle_points=8, analytic=True)
    tc, tp = theory_series(pqe.kind, pqe.angles())
    assert np.allclose(tc + tp, 3.0, atol=1e-12)


def test_config_defaults_and_validation():
    assert ExperimentConfig(kind="bmzi").m == 128
    assert ExperimentConfig(kind="pqe").m == 32
    assert ExperimentConfig(kind="bmzi").run_label == "0"
    assert ExperimentConfig(kind="pqe").run_label == "0-1"
    with pytest.raises(ValidationError):
        ExperimentConfig(kind="other")
    with pytest.raises(ValidationError):
        ExperimentConfig(kind="bmzi", shots=0)
    ExperimentConfig(kind="bmzi", shots=0, analytic=True)
    with pytest.raises(ValidationError):
        ExperimentConfig(kind="bmzi", angle_points=1)
    with pytest.raises(ValidationError):
        ExperimentConfig(kind="bmzi", repetitions=0)
    with pytest.raises(ValidationError):
        ExperimentConfig(kind="bmzi", depolarizing=1.5)


def test_shots_must_fit_a_c_long():
    with pytest.raises(ValidationError, match="shots"):
        ExperimentConfig(kind="bmzi", angle_points=2, repetitions=1, shots=10**20)
    with pytest.raises(ValidationError, match="shots"):
        ExperimentConfig(kind="bmzi", angle_points=2, repetitions=1, shots=2**63)
    assert ExperimentConfig(kind="bmzi", angle_points=2, repetitions=1, shots=2**63 - 1).shots == 2**63 - 1


@pytest.mark.parametrize("label", ["", "a,b", "a\nb", "a\rb", "a\x0bb", "a\u2028b"])
def test_label_that_would_break_a_csv_row_is_rejected(label):
    with pytest.raises(ValidationError, match="label"):
        ExperimentConfig(kind="bmzi", label=label)


@pytest.mark.parametrize("label", [" a", "a ", "a #b", "#a"])
def test_label_that_would_not_read_back_from_config_is_rejected(label):
    with pytest.raises(ValidationError, match="label"):
        ExperimentConfig(kind="bmzi", label=label)


@pytest.mark.parametrize("label", ["a#b", "s-1", "0-1", "x y"])
def test_label_that_reads_back_is_accepted(label):
    assert ExperimentConfig(kind="bmzi", label=label).run_label == label


def test_noiseless_analytic_bmzi_saturates_the_bound():
    config = ExperimentConfig(kind="bmzi", angle_points=12, repetitions=1, analytic=True)
    result = run_sweep(config)
    for rec in result.records:
        assert abs(rec.total - 1.0) <= 1e-10
        assert rec.psd_violation <= 1e-12


def test_noiseless_analytic_pqe_saturates_the_bound():
    config = ExperimentConfig(kind="pqe", angle_points=8, repetitions=1, analytic=True)
    result = run_sweep(config)
    for rec in result.records:
        assert abs(rec.total - 3.0) <= 1e-10


def test_analytic_reconstruction_matches_theory_pointwise():
    config = ExperimentConfig(kind="bmzi", angle_points=16, repetitions=1, analytic=True)
    result = run_sweep(config)
    theory_c, theory_p = theory_series(config.kind, result.angles)
    assert np.max(np.abs(result.table.coherence[:, 0] - theory_c)) <= 1e-9
    assert np.max(np.abs(result.table.predictability[:, 0] - theory_p)) <= 1e-9


def test_sweep_record_count_and_order():
    config = ExperimentConfig(kind="bmzi", angle_points=5, repetitions=3, shots=50, master_seed=9)
    result = run_sweep(config)
    assert len(result.records) == 15
    cells = [(r.angle_index, r.repetition) for r in result.records]
    assert cells == [(i, r) for i in range(5) for r in range(3)]


def test_sweep_deterministic_across_thread_counts():
    config = ExperimentConfig(kind="bmzi", angle_points=6, repetitions=4, shots=200, master_seed=77)
    single = run_sweep(config, threads=1)
    pooled = run_sweep(config, threads=8)
    assert result_csv(single) == result_csv(pooled)


def test_sweep_deterministic_across_runs():
    config = ExperimentConfig(kind="pqe", angle_points=4, repetitions=2, shots=100, master_seed=5)
    assert result_csv(run_sweep(config)) == result_csv(run_sweep(config))


def test_rng_streams_are_unique_and_stable():
    seen = set()
    for i in range(4):
        for r in range(4):
            for s in range(3):
                first = cell_rng(99, i, r, s).random(4)
                again = cell_rng(99, i, r, s).random(4)
                assert np.array_equal(first, again)
                seen.add(tuple(np.round(first, 15)))
    assert len(seen) == 48


def test_depolarizing_noise_lowers_the_sum_monotonically():
    base = ExperimentConfig(kind="bmzi", angle_points=12, repetitions=1, analytic=True)
    means = []
    mse_means = []
    for p in (0.0, 0.02, 0.05):
        result = run_sweep(replace(base, depolarizing=p))
        means.append(float(np.mean([rec.total for rec in result.records])))
        mse_means.append(result.report.mean)
    assert means[0] > means[1] > means[2]
    assert mse_means[0] < mse_means[1] < mse_means[2]


def test_reconstruction_failure_carries_cell_context(monkeypatch):
    import interfero.experiments as exp
    from interfero import ReconstructionError

    def boom(stack):
        # the projection of one angle's stack reports its failing repetition
        raise ReconstructionError("no physical state remains", cell=(0,))

    monkeypatch.setattr(exp, "project_psd", boom)
    config = ExperimentConfig(kind="bmzi", angle_points=2, repetitions=1, analytic=True)
    with pytest.raises(ReconstructionError, match=r"angle index 0, repetition 0"):
        run_sweep(config)


def test_sampled_sweep_respects_the_bound_after_projection():
    config = ExperimentConfig(kind="bmzi", angle_points=4, repetitions=4, shots=200, master_seed=31)
    result = run_sweep(config)
    for rec in result.records:
        assert rec.total <= 1.0 + 1e-9
        assert rec.psd_violation >= 0.0
    # raw sums may exceed the bound; at least the column is populated
    assert all(np.isfinite(rec.total_raw) for rec in result.records)


@pytest.mark.parametrize("kind", ["bmzi", "pqe"])
def test_theory_series_equals_the_oracle_point_by_point(kind):
    from interfero import bmzi_state, pqe_state, theory_bmzi, theory_pqe

    oracle, state = (theory_bmzi, bmzi_state) if kind == "bmzi" else (theory_pqe, pqe_state)
    angles = np.concatenate([ExperimentConfig(kind=kind, angle_points=120).angles(), [0.0, -0.0, 7.5, -40.25]])
    theory_c, theory_p = theory_series(kind, angles)
    points = [oracle(float(a)) for a in angles]
    assert np.array_equal(theory_c, [p.coherence for p in points])
    assert np.array_equal(theory_p, [p.predictability for p in points])
    assert np.array_equal(state(angles)[3], state(float(angles[3])))
    with pytest.raises(ValidationError, match="must be finite"):
        state(np.array([0.0, np.nan]))


@pytest.mark.parametrize("kind, shape", [("bmzi", (120, 128)), ("pqe", (7, 3)), ("bmzi", (1, 5)), ("pqe", (130, 1))])
def test_analyze_equals_the_per_repetition_loop(kind, shape):
    from interfero import MetricSeries, decompose, summarize
    from interfero.experiments import SweepTable, analyze

    rng = np.random.default_rng(sum(shape))
    angles = ExperimentConfig(kind=kind, angle_points=max(shape[0], 2)).angles()[: shape[0]]
    theory_c, theory_p = theory_series(kind, angles)
    c = np.clip(theory_c[:, None] + 0.05 * rng.standard_normal(shape), 0.0, None)
    p = np.clip(theory_p[:, None] + 0.05 * rng.standard_normal(shape), 0.0, None)
    table = SweepTable(kind, "x", angles, c, p, c + p, c + p, np.zeros(shape))
    per_repetition = tuple(decompose(MetricSeries(angles, cc, pp, theory_c, theory_p)) for cc, pp in zip(c.T, p.T))
    assert analyze(table) == summarize([d.mse_sum for d in per_repetition], per_repetition)
