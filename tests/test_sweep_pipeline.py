"""The per-angle sweep pipeline against independent per-cell references."""

import tracemalloc
from dataclasses import replace
from functools import reduce
from hashlib import sha256
from itertools import islice

import numpy as np
import pytest

import interfero.experiments as exp
from interfero import (
    ExperimentConfig,
    basis_change,
    expectation_from_counts,
    measurement_settings,
    run_sweep,
    simulate_density,
)
from interfero.circuits import outcome_probabilities
from interfero.output import result_csv

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

NOISE = dict(depolarizing=0.02, amplitude_damping=0.01, phase_damping=0.01, readout_flip0=0.02, readout_flip1=0.03)

CONFIGS = {
    2: ExperimentConfig(kind="bmzi", angle_points=8, repetitions=12, shots=40, master_seed=11),
    4: ExperimentConfig(kind="pqe", angle_points=6, repetitions=6, shots=60, master_seed=13, **NOISE),
}


class RecordingGenerator:
    """Passes draws through to a real generator and keeps every count array."""

    def __init__(self, rng, drawn):
        self.rng = rng
        self.drawn = drawn

    def multinomial(self, *args, **kwargs):
        counts = self.rng.multinomial(*args, **kwargs)
        self.drawn.append(counts)
        return counts


def recorded_sweep(monkeypatch, config):
    """Run the sweep and return it with the counts drawn for each angle index."""
    drawn: dict[int, list[np.ndarray]] = {}
    real = exp.angle_rng

    def recording_rng(master_seed, angle_index):
        return RecordingGenerator(real(master_seed, angle_index), drawn.setdefault(angle_index, []))

    monkeypatch.setattr(exp, "angle_rng", recording_rng)
    result = run_sweep(config)
    assert sorted(drawn) == list(range(config.angle_points))
    assert all(len(draws) == 1 for draws in drawn.values())
    return result, {i: draws[0] for i, draws in drawn.items()}


def reference_probabilities(config, angle):
    """Outcome distribution per setting, simulating each full circuit from |0>."""
    base = exp.build_circuit(config.kind, angle)
    rows = []
    for setting in measurement_settings(config.n_qubits):
        rho = simulate_density(base.extended(basis_change(setting)), config.noise)
        rows.append(config.noise.apply_readout(outcome_probabilities(rho), config.n_qubits))
    return np.array(rows)


def reference_metrics(rho):
    # a population at or below 1e-12 counts as 0, and so do the coherences of its row and column
    d = rho.shape[0]
    pops = [float(rho[j, j].real) if rho[j, j].real > 1e-12 else 0.0 for j in range(d)]
    c = sum(abs(rho[j, k]) for j in range(d) for k in range(d) if j != k and pops[j] and pops[k])
    p = d - 1 - sum(np.sqrt(pops[j]) * np.sqrt(pops[k]) for j in range(d) for k in range(d) if j != k)
    return c, p


def reference_cell(counts, n_qubits):
    """C, P, raw C+P and clipped mass of one cell, one setting at a time."""
    dim = 1 << n_qubits
    rho_raw = np.eye(dim, dtype=complex)
    for s, setting in enumerate(measurement_settings(n_qubits)):
        table = {format(k, f"0{n_qubits}b"): int(c) for k, c in enumerate(counts[s]) if c > 0}
        op = reduce(np.kron, [PAULI[letter] for letter in setting])
        rho_raw = rho_raw + expectation_from_counts(table, setting) * op
    rho_raw = rho_raw / dim
    lam, vecs = np.linalg.eigh(rho_raw)
    if lam[0] >= 0:
        rho, violation = rho_raw, 0.0
    else:
        violation = float(-lam[lam < 0].sum())
        clipped = np.clip(lam, 0.0, None)
        rho = vecs @ np.diag(clipped / clipped.sum()) @ vecs.conj().T
    c, p = reference_metrics(rho)
    c_raw, p_raw = reference_metrics(rho_raw)
    return c, p, c_raw + p_raw, violation


@pytest.mark.parametrize("dim", sorted(CONFIGS))
def test_pipeline_matches_a_per_cell_reference(monkeypatch, dim):
    config = CONFIGS[dim]
    result, drawn = recorded_sweep(monkeypatch, config)
    fired = 0
    for rec in result.records:
        counts = drawn[rec.angle_index][rec.repetition]
        c, p, sum_raw, violation = reference_cell(counts, config.n_qubits)
        assert rec.coherence == pytest.approx(c, abs=1e-12)
        assert rec.predictability == pytest.approx(p, abs=1e-12)
        assert rec.total_raw == pytest.approx(sum_raw, abs=1e-12)
        assert rec.psd_violation == pytest.approx(violation, abs=1e-12)
        assert (rec.psd_violation > 0) == (violation > 0)
        fired += violation > 0
    assert 0 < fired
    if dim == 2:
        assert fired < len(result.records)


@pytest.mark.parametrize("dim", sorted(CONFIGS))
def test_campaign_mean_frequencies_follow_each_setting(monkeypatch, dim):
    config = replace(CONFIGS[dim], repetitions=200)
    _, drawn = recorded_sweep(monkeypatch, config)
    trials = config.repetitions * config.shots
    for i, angle in enumerate(config.angles()):
        counts = drawn[i]
        assert counts.shape == (config.repetitions, 4**config.n_qubits - 1, dim)
        probs = reference_probabilities(config, float(angle))
        freqs = counts.sum(axis=0) / trials
        sigma = np.sqrt(probs * (1 - probs) / trials)
        assert np.all(np.abs(freqs - probs) <= np.maximum(5 * sigma, 1e-12))


def test_setting_densities_continue_bitwise_from_the_interferometer():
    for config in (ExperimentConfig(kind="bmzi", **NOISE), ExperimentConfig(kind="pqe", **NOISE)):
        for angle in config.angles()[::7]:
            base = exp.build_circuit(config.kind, float(angle))
            once = simulate_density(base, config.noise)
            for setting in measurement_settings(config.n_qubits):
                full = simulate_density(base.extended(basis_change(setting)), config.noise)
                continued = simulate_density(basis_change(setting), config.noise, initial=once)
                assert np.array_equal(full, continued)
            probs = exp.setting_probabilities(config, float(angle))
            assert np.array_equal(probs, reference_probabilities(config, float(angle)))


def test_sampling_memory_does_not_grow_with_shots():
    config = ExperimentConfig(kind="bmzi", angle_points=2, repetitions=1, shots=10**6)
    run_sweep(replace(config, shots=10))  # first-call caches are not per-shot memory
    tracemalloc.start()
    try:
        run_sweep(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_an_angle_past_the_block_size_is_reconstructed_in_block_sized_chunks():
    # noiseless pqe: every finite-shot state is clipped, the projection's largest case
    config = ExperimentConfig(kind="pqe", angle_points=2, repetitions=5000, master_seed=3)
    first_angle = lambda: islice(exp._expectation_pieces(config), 3)  # noqa: E731
    [exp._cell_metrics(piece, 2) for piece in first_angle()]  # first-call caches are not per-cell memory
    held = []  # per piece: the bytes live as its reconstruction starts, and its reconstruction's peak above them

    def metrics(expectations):
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        columns = exp._cell_metrics(expectations, 2)
        held.append((live, tracemalloc.get_traced_memory()[1] - live))
        return columns

    tracemalloc.start()
    try:
        pieces = [metrics(expectations) for expectations in first_angle()]
    finally:
        tracemalloc.stop()
    assert [len(piece[0]) for piece in pieces] == [2048, 2048, 904]
    assert all(piece[-1].all() for piece in pieces)
    stack = exp.BLOCK_CELLS * 16 * 16
    for live, peak in held:
        # the piece's expectations and the columns of the pieces before it (at most 0.8 stack); its
        # draws, 1.9 stacks, are freed before it is reconstructed
        assert live < stack
        # its raw stack, its projected copy and the projection's transients; every cell is rebuilt, so
        # the projected copy itself is scored; reconstructing the angle whole held 10.5 stacks
        assert peak < 5 * stack


@pytest.mark.parametrize("kind", ["bmzi", "pqe"])
def test_an_angle_drawn_in_slices_writes_the_bytes_of_one_whole_draw(monkeypatch, kind):
    config = ExperimentConfig(kind=kind, angle_points=2, repetitions=5000, master_seed=3, **NOISE)
    assert config.m > 2 * exp.BLOCK_CELLS and config.m % exp.BLOCK_CELLS  # two full slices and a short one
    sliced = result_csv(run_sweep(config)).encode()
    monkeypatch.setattr(exp, "BLOCK_CELLS", config.m)  # each angle one piece, drawn in one multinomial call
    whole = result_csv(run_sweep(config)).encode()
    # by digest, as pytest would take minutes to diff two differing texts of a megabyte
    assert sha256(sliced).hexdigest() == sha256(whole).hexdigest()


def test_a_sweep_at_the_cell_cap_peaks_far_below_its_whole_draws():
    config = ExperimentConfig(kind="pqe", angle_points=2, repetitions=exp.MAX_CELLS // 2)
    run_sweep(replace(config, repetitions=3 * exp.BLOCK_CELLS))  # first-call caches are not per-cell memory
    tracemalloc.start()
    try:
        run_sweep(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = exp.MAX_CELLS * len(exp.METRICS) * 8  # the metric columns, 10 MB
    # measured 23.0 MB: the table and, while analyze runs, its (repetitions, angles) deviations and
    # per-repetition values, 13 MB at 2 angles; the pieces' columns joined into the table peak at 20.1 MB.
    # Holding an angle's (repetitions, settings) expectations whole and the blocks' columns through
    # analyze peaked at 33 MB, and drawing each angle whole held 122 MB inside the draw alone
    assert peak < 2.5 * table
