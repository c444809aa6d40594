"""The angle-stacked simulation and the block-wise sweep against per-angle references."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interfero.circuits as circuits
import interfero.experiments as exp
from interfero import Circuit, ExperimentConfig, NoiseModel, ReconstructionError, ValidationError, run_sweep
from interfero.circuits import ctrl_ix, cx, ix, phase, rx_neg, simulate_density, unitary
from interfero.linalg import check_density_matrix, random_unitary
from interfero.report import result_csv

NOISE = dict(depolarizing=0.02, amplitude_damping=0.01, phase_damping=0.01, readout_flip0=0.02, readout_flip1=0.03)


@pytest.mark.parametrize(
    "config",
    [
        ExperimentConfig(kind="bmzi"),
        ExperimentConfig(kind="bmzi", **NOISE),
        ExperimentConfig(kind="pqe"),
        ExperimentConfig(kind="pqe", **NOISE),
    ],
    ids=["bmzi", "noisy-bmzi", "pqe", "noisy-pqe"],
)
def test_stacked_probabilities_equal_the_per_angle_calls_bitwise(config):
    angles = config.angles()
    stacked = exp.setting_probabilities(config, angles)
    assert stacked.shape == (len(angles), 4**config.n_qubits - 1, 1 << config.n_qubits)
    per_angle = np.stack([exp.setting_probabilities(config, float(angle)) for angle in angles])
    assert np.array_equal(stacked, per_angle)


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_stacked_density_matches_the_per_angle_simulations(n_qubits):
    rng = np.random.default_rng(300 + n_qubits)
    noise = NoiseModel.build(depolarizing_p=0.05, amplitude_damping_gamma=0.02, phase_damping_lambda=0.03)
    for _ in range(10):
        thetas = rng.uniform(-2 * np.pi, 2 * np.pi, size=(2, 9))
        fixed = unitary(random_unitary(1 << n_qubits, rng), tuple(range(n_qubits))[::-1])
        gates = [
            lambda t: rx_neg(t[0], n_qubits - 1),
            lambda t: fixed,
            lambda t: phase(t[1], 0),
            lambda t: ix(0),
        ]
        if n_qubits == 2:
            gates += [lambda t: cx(1, 0), lambda t: rx_neg(t[1], 0), lambda t: ctrl_ix(0, 1)]
        order = rng.permutation(len(gates))
        circuit = lambda t: Circuit(n_qubits, tuple(gates[k](t) for k in order))  # noqa: E731
        initial = check_density_matrix(simulate_density(circuit(thetas[::-1]), noise))
        stacked = simulate_density(circuit(thetas), noise, initial=initial)
        assert stacked.shape == (9, 1 << n_qubits, 1 << n_qubits)
        for a in range(9):
            single = simulate_density(circuit(thetas[:, a]), noise, initial=initial[a])
            assert np.max(np.abs(stacked[a] - single)) <= 1e-15


def test_a_stack_check_names_the_first_failing_index():
    good = np.eye(2) / 2
    with pytest.raises(ValidationError, match=r"^density matrix at index 2 trace is \(1\.2\+0j\), expected 1$"):
        check_density_matrix(np.stack([good, good, np.diag([0.6, 0.6]), np.diag([2.0, 0.0])]))
    with pytest.raises(ValidationError, match=r"^gate unitary matrix at index 1 is not unitary within 1e-12$"):
        simulate_density(Circuit(1, (unitary(np.stack([np.eye(2), 2 * np.eye(2)]), (0,)),)))


def _sweep_bytes(config, threads=1, block=None):
    """results.csv of the sweep, with blocks of ``block`` angles (default: the sweep's own size)."""
    cells = exp.BLOCK_CELLS if block is None else block * config.m
    with mock.patch.object(exp, "BLOCK_CELLS", cells):
        return result_csv(run_sweep(config, threads=threads))


@pytest.mark.parametrize(
    "config",
    [
        ExperimentConfig(kind="bmzi", angle_points=20, repetitions=5, shots=100, master_seed=3),
        ExperimentConfig(kind="pqe", angle_points=20, repetitions=3, shots=100, master_seed=4, **NOISE),
        ExperimentConfig(kind="pqe", angle_points=20, repetitions=2, analytic=True, **NOISE),
    ],
    ids=["bmzi", "noisy-pqe", "analytic-pqe"],
)
def test_block_boundaries_do_not_change_bytes(config):
    assert _sweep_bytes(config, block=7) == _sweep_bytes(config)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(("bmzi", "pqe")),
    angle_points=st.integers(2, 12),
    repetitions=st.integers(1, 4),
    shots=st.integers(1, 300),
    master_seed=st.integers(0, 2**64 - 1),
    block=st.integers(1, 5),
)
def test_bytes_do_not_depend_on_threads_or_block_size(kind, angle_points, repetitions, shots, master_seed, block):
    config = ExperimentConfig(
        kind=kind, angle_points=angle_points, repetitions=repetitions, shots=shots, master_seed=master_seed, **NOISE
    )
    reference = _sweep_bytes(config)
    for threads in (1, 2, 3):
        assert _sweep_bytes(config, threads=threads, block=block) == reference


def test_a_reconstruction_failure_names_its_angle_across_blocks(monkeypatch):
    real = exp.project_psd
    seen = []

    def fail_in_the_third_block(stack):
        seen.append(len(stack))
        if len(seen) == 3:
            # the block holds angles 4 and 5 with 3 repetitions each: cell 4 is angle 5, repetition 1
            raise ReconstructionError("no physical state remains", cell=(4,))
        return real(stack)

    monkeypatch.setattr(exp, "BLOCK_CELLS", 7)  # two angles of 3 repetitions per block
    monkeypatch.setattr(exp, "project_psd", fail_in_the_third_block)
    config = ExperimentConfig(kind="bmzi", angle_points=7, repetitions=3, shots=50)
    with pytest.raises(ReconstructionError, match=r"^angle index 5, repetition 1: no physical state remains$"):
        run_sweep(config)
    assert seen == [6, 6, 6]


def test_a_sweep_simulates_once_per_block_and_setting(monkeypatch):
    calls = []

    def counting(name):
        real = getattr(exp, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return call

    # the interferometer once per block, then one continuation per setting from its checked output
    monkeypatch.setattr(exp, "simulate_density", counting("simulate_density"))
    monkeypatch.setattr(exp, "_evolve_density", counting("_evolve_density"))
    checks = mock.Mock(wraps=check_density_matrix)
    monkeypatch.setattr(circuits, "check_density_matrix", checks)
    run_sweep(ExperimentConfig(kind="pqe", angle_points=60, repetitions=2, shots=10, **NOISE))
    assert calls == ["simulate_density"] + ["_evolve_density"] * 15
    assert checks.call_count == 16  # each output once; no continuation re-checks its input
    monkeypatch.setattr(exp, "BLOCK_CELLS", 50)  # 25 angles of 2 repetitions per block
    calls.clear()
    run_sweep(ExperimentConfig(kind="bmzi", angle_points=60, repetitions=2, shots=10))
    assert calls == (["simulate_density"] + ["_evolve_density"] * 3) * 3


def test_a_block_holds_at_least_one_angle(monkeypatch):
    config = ExperimentConfig(kind="bmzi", angle_points=5, repetitions=40, shots=30, master_seed=9)
    reference = result_csv(run_sweep(config))
    monkeypatch.setattr(exp, "BLOCK_CELLS", 3)  # fewer cells than one angle's repetitions
    assert result_csv(run_sweep(config)) == reference


def test_cells_above_the_cap_are_rejected_before_any_allocation():
    with pytest.raises(ValidationError, match=r"^angle_points \* repetitions must be at most 250000, got 2 \* 125001$"):
        ExperimentConfig(kind="pqe", angle_points=2, repetitions=125_001)
    with pytest.raises(ValidationError, match="must be at most 250000"):
        ExperimentConfig(kind="bmzi", angle_points=exp.MAX_CELLS // 128 + 1)
    assert ExperimentConfig(kind="bmzi", angle_points=2, repetitions=exp.MAX_CELLS // 2).m == exp.MAX_CELLS // 2


def test_mismatched_angle_axes_are_rejected():
    with pytest.raises(ValidationError, match=r"^gates carry different angle axes: \[\(3,\), \(4,\)\]$"):
        Circuit(1, (rx_neg(np.zeros(3)), phase(np.zeros(4))))
    stacked = Circuit(1, (rx_neg(np.zeros(3)),))
    with pytest.raises(ValidationError, match=r"^initial state stack \(4,\) does not match the gates' angle axis$"):
        simulate_density(stacked, initial=np.stack([np.eye(2) / 2] * 4))
    assert simulate_density(stacked, initial=np.stack([np.eye(2) / 2] * 3)).shape == (3, 2, 2)
    assert simulate_density(Circuit(1, (ix(0),)), initial=np.stack([np.eye(2) / 2] * 4)).shape == (4, 2, 2)
