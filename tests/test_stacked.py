"""The angle-stacked simulation and the block-wise sweep against per-angle references."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interfero.circuits as circuits
import interfero.experiments as exp
from interfero import Circuit, ExperimentConfig, NoiseModel, ValidationError, run_sweep
from interfero.circuits import ctrl_ix, cx, ix, phase, rx_neg, simulate_density, unitary
from interfero.linalg import check_density_matrix, random_unitary
from interfero.output import result_csv
from interfero.tomography import parity_signs

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
    whole = _sweep_bytes(config)
    assert _sweep_bytes(config, block=7) == whole
    # 12 cells: blocks of 12 // cells angles (an analytic angle is one cell), simulated 12 angles at a time,
    # so a sampled chunk ends mid-grid after several blocks and the next one starts there
    simulated = mock.Mock(wraps=exp.setting_probabilities)
    inversion = mock.Mock(wraps=exp.linear_inversion)
    with mock.patch.multiple(exp, BLOCK_CELLS=12, setting_probabilities=simulated, linear_inversion=inversion):
        assert result_csv(run_sweep(config)) == whole
        pieces = [len(expectations) for expectations in exp._expectation_pieces(config)]
    assert [len(call.args[1]) for call in simulated.call_args_list] == [12, 8] * 2
    cells = 1 if config.analytic else config.m
    sizes = {5: [2] * 10, 3: [4] * 5, 1: [12, 8]}[cells]  # angles per block
    # each block is one piece of its angles' cells
    assert pieces == [size * cells for size in sizes]
    assert [call.args[0].shape[0] for call in inversion.call_args_list] == pieces


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


def test_a_sweep_simulates_once_per_chunk_and_qubit_rotation(monkeypatch):
    calls = []

    def counting(name):
        real = getattr(exp, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return call

    # the interferometer once per chunk, then each qubit's X and Y rotation once over all partial states
    monkeypatch.setattr(exp, "simulate_density", counting("simulate_density"))
    monkeypatch.setattr(exp, "_evolve_density", counting("_evolve_density"))
    monkeypatch.setattr(exp, "outcome_probabilities", counting("outcome_probabilities"))
    checks = mock.Mock(wraps=check_density_matrix)
    monkeypatch.setattr(circuits, "check_density_matrix", checks)
    run_sweep(ExperimentConfig(kind="pqe", angle_points=60, repetitions=2, shots=10, **NOISE))
    assert calls == ["simulate_density"] + ["_evolve_density"] * 4 + ["outcome_probabilities"]
    assert checks.call_count == 5  # each output once; no step re-checks its input
    # 25 angles of 2 repetitions per block and chunks of 2 blocks: 2 simulations, of 50 and 10 angles, for 3 blocks
    monkeypatch.setattr(exp, "BLOCK_CELLS", 50)
    streams = mock.Mock(wraps=exp.angle_rng)
    monkeypatch.setattr(exp, "angle_rng", streams)
    calls.clear()
    config = ExperimentConfig(kind="bmzi", angle_points=60, repetitions=2, shots=10)
    blocks = []  # (first angle, angles) of each piece's block, whose streams are the ones made last
    for piece in exp._expectation_pieces(config):
        blocks.append((streams.call_args_list[-(len(piece) // config.m)].args[1], len(piece) // config.m))
    assert calls == (["simulate_density"] + ["_evolve_density"] * 2 + ["outcome_probabilities"]) * 2
    assert blocks == [(0, 25), (25, 25), (50, 10)]


@pytest.mark.parametrize("noise", [NOISE, {}], ids=["noisy", "noiseless"])
def test_setting_probabilities_contract_the_channel_once_per_gate_qubit(monkeypatch, noise):
    conjugations = mock.Mock(wraps=circuits._conjugate)
    contractions = mock.Mock(wraps=circuits._apply_channel)
    monkeypatch.setattr(circuits, "_conjugate", conjugations)
    monkeypatch.setattr(circuits, "_apply_channel", contractions)
    config = ExperimentConfig(kind="pqe", angle_points=12, **noise)
    exp.setting_probabilities(config, config.angles())
    gates = exp.build_pqe(config.angles()).gates
    # the interferometer's gates, then X and Y basis changes on each qubit, each one 1-qubit gate
    assert conjugations.call_count == len(gates) + 4
    touched = [q for g in gates for q in g.qubits] + [1, 1, 0, 0]
    assert [call.args[1] for call in contractions.call_args_list] == (touched if noise else [])


@pytest.mark.parametrize(
    "config",
    [
        ExperimentConfig(kind="bmzi", angle_points=5, repetitions=40, shots=30, master_seed=9),
        ExperimentConfig(kind="pqe", angle_points=5, repetitions=40, analytic=True, **NOISE),
    ],
    ids=["bmzi", "analytic-pqe"],
)
def test_a_block_holds_at_least_one_angle(monkeypatch, config):
    reference = result_csv(run_sweep(config))
    monkeypatch.setattr(exp, "BLOCK_CELLS", 3)  # fewer cells than one angle's repetitions
    assert result_csv(run_sweep(config)) == reference


@pytest.mark.parametrize(
    "config, cells",
    [
        (ExperimentConfig(kind="bmzi", angle_points=7, repetitions=5, shots=30), 5),
        (ExperimentConfig(kind="bmzi", angle_points=3, repetitions=30, shots=30), 30),
        (ExperimentConfig(kind="pqe", angle_points=3, repetitions=30, shots=30, **NOISE), 30),
        (ExperimentConfig(kind="pqe", angle_points=20, repetitions=30, analytic=True, **NOISE), 1),
    ],
    ids=["bmzi-below", "bmzi-above", "noisy-pqe-above", "analytic-pqe"],
)
def test_no_reconstruction_takes_more_than_a_piece(monkeypatch, config, cells):
    inversion = mock.Mock(wraps=exp.linear_inversion)
    monkeypatch.setattr(exp, "linear_inversion", inversion)
    monkeypatch.setattr(exp, "BLOCK_CELLS", 12)
    run_sweep(config)
    rows = [call.args[0].shape[0] for call in inversion.call_args_list]
    # each angle's cells reconstructed once, in pieces of at most BLOCK_CELLS; a sampled angle of 30
    # repetitions is cut into pieces of 12, 12 and 6
    assert max(rows) <= 12 and sum(rows) == config.angle_points * cells
    if cells > 12:
        assert rows == [12, 12, 6] * config.angle_points


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


def test_an_analytic_sweep_reconstructs_each_angle_once(monkeypatch):
    inversion = mock.Mock(wraps=exp.linear_inversion)
    monkeypatch.setattr(exp, "linear_inversion", inversion)
    monkeypatch.setattr(exp, "BLOCK_CELLS", 8)  # 8 angles of one exact-frequency cell per piece
    result = run_sweep(ExperimentConfig(kind="pqe", angle_points=20, repetitions=5, analytic=True, **NOISE))
    assert [call.args[0].shape for call in inversion.call_args_list] == [(8, 15), (8, 15), (4, 15)]
    assert result.table.coherence.shape == (20, 5)


@pytest.mark.parametrize("kind", ["bmzi", "pqe"])
def test_analytic_repetitions_repeat_the_one_repetition_row(kind):
    config = ExperimentConfig(kind=kind, angle_points=12, repetitions=1, analytic=True, **NOISE)
    one = run_sweep(config).table
    many = run_sweep(replace(config, repetitions=6)).table
    for name in exp.METRICS:
        assert getattr(many, name).tobytes() == np.repeat(getattr(one, name), 6, axis=1).tobytes()


@pytest.mark.parametrize(
    "config, rebuilt",
    [
        (ExperimentConfig(kind="pqe", **NOISE), "none"),
        (ExperimentConfig(kind="bmzi"), "some"),
        (ExperimentConfig(kind="pqe"), "all"),  # noiseless pqe: every finite-shot state is clipped
    ],
    ids=["noisy-pqe", "bmzi", "pqe"],
)
def test_rebuilt_only_metrics_are_bitwise_the_whole_stack_metrics(config, rebuilt):
    expectations = next(exp._expectation_pieces(config))
    rho_raw = exp.linear_inversion(expectations, config.n_qubits)
    rho, violation = exp.project_psd(rho_raw)
    count = np.count_nonzero(violation > 0)
    assert {"none": count == 0, "some": 0 < count < len(rho), "all": count == len(rho)}[rebuilt]
    c, p = exp.l1_metrics(rho)
    c_raw, p_raw = exp.l1_metrics(rho_raw)
    got = exp._cell_metrics(expectations, config.n_qubits)
    for column, expected in zip(got, (c, p, c + p, c_raw + p_raw, violation)):
        assert column.tobytes() == expected.tobytes()


def test_the_projected_metrics_score_only_the_rebuilt_cells(monkeypatch):
    expectations = next(exp._expectation_pieces(ExperimentConfig(kind="bmzi")))
    rho, violation = exp.project_psd(exp.linear_inversion(expectations, 1))
    rebuilt = violation > 0
    assert 0 < np.count_nonzero(rebuilt) < len(rho)
    metrics = mock.Mock(wraps=exp.l1_metrics)
    monkeypatch.setattr(exp, "l1_metrics", metrics)
    exp._cell_metrics(expectations, 1)
    # the raw stack whole, then only the cells the projection rebuilt
    raw, projected = (call.args[0] for call in metrics.call_args_list)
    assert raw.shape == rho.shape
    assert projected.tobytes() == rho[rebuilt].tobytes()


def test_a_piece_whose_every_cell_was_rebuilt_is_scored_without_a_gathered_copy(monkeypatch):
    expectations = next(exp._expectation_pieces(ExperimentConfig(kind="pqe")))  # noiseless: every cell is clipped
    projections, project = [], exp.project_psd
    monkeypatch.setattr(exp, "project_psd", lambda m: projections.append(project(m)) or projections[-1])
    metrics = mock.Mock(wraps=exp.l1_metrics)
    monkeypatch.setattr(exp, "l1_metrics", metrics)
    exp._cell_metrics(expectations, 2)
    ((rho, violation),) = projections
    assert (violation > 0).all()
    raw, projected = (call.args[0] for call in metrics.call_args_list)
    assert projected is rho


def _whole_grid_expectations(config):
    """The ``(angles * cells, S)`` expectations of the whole grid in one draw per angle and one contraction."""
    freqs = exp.setting_probabilities(config, config.angles())
    if not config.analytic:
        size = (config.m, freqs.shape[1])
        draws = [exp.angle_rng(config.master_seed, a).multinomial(config.shots, p, size=size) for a, p in enumerate(freqs)]
        freqs = np.stack(draws) / config.shots
    return np.einsum("rsk,sk->rs", freqs.reshape(-1, *freqs.shape[-2:]), parity_signs(config.n_qubits))


@pytest.mark.parametrize(
    "config, block_cells, pieces",
    [
        # 30 repetitions, more than a piece holds: each angle in slices of 12, 12 and 6
        (ExperimentConfig(kind="pqe", angle_points=3, repetitions=30, shots=50, master_seed=7, **NOISE), 12, 9),
        (ExperimentConfig(kind="bmzi", angle_points=20, repetitions=4, analytic=True, **NOISE), 8, 3),
        # blocks of 2 angles and chunks of 12: 2 simulations, of 12 and 8 angles, for 10 pieces
        (ExperimentConfig(kind="bmzi", angle_points=20, repetitions=5, shots=40, master_seed=8), 12, 10),
        (ExperimentConfig(kind="pqe", angle_points=20, repetitions=3, shots=40), None, 1),
    ],
    ids=["sampled-angle-past-a-piece", "analytic", "sampled-chunks", "one-piece"],
)
def test_the_pieces_join_into_the_whole_grid_expectations(monkeypatch, config, block_cells, pieces):
    if block_cells is not None:
        monkeypatch.setattr(exp, "BLOCK_CELLS", block_cells)
    got = list(exp._expectation_pieces(config))
    assert len(got) == pieces and max(len(piece) for piece in got) <= exp.BLOCK_CELLS
    assert np.concatenate(got).tobytes() == _whole_grid_expectations(config).tobytes()
