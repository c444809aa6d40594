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
from interfero import __version__
from interfero.circuits import counts_from_probabilities
from interfero.cli import parse_config
from interfero.experiments import build_circuit, cell_rng
from interfero.output import result_csv, write_manifest

RNG = np.random.default_rng(0)


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ExperimentConfig(kind="bmzi", shots=1000.7), "shots must be of type int, got 1000.7"),
        (lambda: ExperimentConfig(kind="bmzi", shots=True), "shots must be of type int, got True"),
        (lambda: ExperimentConfig(kind="bmzi", angle_points=4.5), "angle_points must be of type int, got 4.5"),
        (lambda: ExperimentConfig(kind="bmzi", repetitions=2.5), "repetitions must be of type int, got 2.5"),
        (lambda: ExperimentConfig(kind="bmzi", master_seed=1.5), "master_seed must be of type int, got 1.5"),
        (lambda: ExperimentConfig(kind="bmzi", label=5), "label must be of type str, got 5"),
        (lambda: ExperimentConfig(kind="bmzi", analytic=1), "analytic must be of type bool, got 1"),
        (lambda: ExperimentConfig(kind="bmzi", depolarizing=True), "depolarizing must be of type float, got True"),
        (lambda: counts_from_probabilities([0.5, 0.5], 2.5, RNG), "shots must be a positive integer, got 2.5"),
        (lambda: counts_from_probabilities([0.5, 0.5], True, RNG), "shots must be a positive integer, got True"),
        (lambda: counts_from_probabilities([0.5, 0.5], 2**63, RNG), f"shots must be a positive integer, got {2**63}"),
    ],
    ids=[
        "shots-float", "shots-bool", "points-float", "repetitions-float", "seed-float", "label-int", "analytic-int",
        "depolarizing-bool", "sampled-shots-float", "sampled-shots-bool", "sampled-shots-2**63",
    ],
)
def test_a_config_value_or_shot_count_of_the_wrong_type_is_rejected(call, message):
    with pytest.raises(ValidationError) as caught:
        call()
    assert str(caught.value) == message


def test_numpy_scalars_of_the_right_kind_are_accepted():
    config = ExperimentConfig(
        kind="pqe", angle_points=np.int64(4), shots=np.uint16(10), repetitions=np.int32(2), depolarizing=np.float64(0.5)
    )
    assert run_sweep(config).table.coherence.shape == (4, 2)
    assert counts_from_probabilities([0.5, 0.5], np.int64(7), RNG).sum() == 7
    assert ExperimentConfig(kind="bmzi", depolarizing=0).depolarizing == 0


NONE_MESSAGES = {
    "kind": "kind must be one of ('bmzi', 'pqe'), got None",
    "angle_points": "angle_points must be of type int, got None",
    "shots": "shots must be of type int, got None",
    "master_seed": "master_seed must be of type int, got None",
    "analytic": "analytic must be of type bool, got None",
    **{key: f"{key} must be of type float, got None" for key in
       ("depolarizing", "amplitude_damping", "phase_damping", "readout_flip0", "readout_flip1")},
}


@pytest.mark.parametrize("key", NONE_MESSAGES)
def test_none_is_rejected_for_a_key_whose_type_hint_does_not_allow_it(key):
    with pytest.raises(ValidationError) as caught:
        ExperimentConfig(**{"kind": "bmzi", key: None})
    assert str(caught.value) == NONE_MESSAGES[key]


@pytest.mark.parametrize("kind, repetitions, label", [("bmzi", 128, "0"), ("pqe", 32, "0-1")])
def test_none_for_repetitions_and_label_takes_the_kinds_defaults(kind, repetitions, label):
    config = ExperimentConfig(kind=kind, repetitions=None, label=None)
    assert (config.m, config.run_label) == (repetitions, label)
    assert config == ExperimentConfig(kind=kind)


@pytest.mark.parametrize(
    "kind, message",
    [
        (["bmzi"], "kind must be one of ('bmzi', 'pqe'), got ['bmzi']"),
        # equal to a kind name but unhashable: the kind is looked up by the tuple of names, so the type rule speaks
        (np.array("bmzi"), "kind must be of type str, got array('bmzi', dtype='<U4')"),
    ],
)
def test_a_kind_that_is_not_a_kind_name_is_a_validation_error(kind, message):
    with pytest.raises(ValidationError) as caught:
        ExperimentConfig(kind=kind)
    assert str(caught.value) == message


@pytest.mark.parametrize("threads", [0, -1, 2.5, True, "2"])
def test_run_sweep_rejects_a_thread_count_that_is_not_a_positive_int(threads):
    with pytest.raises(ValidationError) as caught:
        run_sweep(ExperimentConfig(kind="bmzi", angle_points=2, repetitions=1, shots=10), threads=threads)
    assert str(caught.value) == f"threads must be at least 1, got {threads!r}"


@pytest.mark.parametrize("scalar", [np.float32, np.float16])
def test_a_numpy_float_noise_strength_runs_and_its_config_file_rebuilds_the_run(tmp_path, scalar):
    config = ExperimentConfig(
        kind="bmzi", angle_points=6, repetitions=3, shots=200, depolarizing=scalar(0.02), readout_flip1=scalar(0.03)
    )
    assert type(config.depolarizing) is float and config.depolarizing == scalar(0.02)
    result = run_sweep(config)
    write_manifest(tmp_path, result, [], __version__)
    again = parse_config(tmp_path / "config.cfg")
    assert again == config
    assert result_csv(run_sweep(again)) == result_csv(result)


def test_build_circuit_rejects_an_unknown_kind():
    with pytest.raises(ValidationError) as caught:
        build_circuit("xyz", 0.3)
    assert str(caught.value) == "kind must be one of ('bmzi', 'pqe'), got 'xyz'"


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


def test_theory_series_rejects_an_unknown_kind():
    with pytest.raises(ValidationError) as caught:
        theory_series("xyz", np.zeros(3))
    assert str(caught.value) == "kind must be one of ('bmzi', 'pqe'), got 'xyz'"


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
