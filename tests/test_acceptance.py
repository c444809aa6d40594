"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines.
"""

import time
from dataclasses import replace

import numpy as np

from interfero import (
    ExperimentConfig,
    MetricSeries,
    build_pqe,
    decompose,
    outer,
    point_from_density,
    reconstruct,
    run_sweep,
    render_curves,
    render_sparkline_table,
    result_csv,
    simulate_statevector,
    summary_row,
    trace_distance,
)
from interfero.output import write_results
from interfero.report import aggregate_curves, read_results
from interfero.tomography import PAULI, basis_change, expectation_from_counts, measurement_settings
from interfero.circuits import sample_counts
from interfero.linalg import kron


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_bmzi_pure_state_equality():
    t0 = time.perf_counter()
    config = ExperimentConfig(kind="bmzi", repetitions=1, analytic=True)
    result = run_sweep(config)
    elapsed = time.perf_counter() - t0
    worst = max(abs(rec.total - 1.0) for rec in result.records)
    _criterion(
        1,
        len(result.records) == 60 and worst <= 1e-10 and elapsed < 1.0,
        f"60-point analytic sweep, max |C+P-1| = {worst:.3e}, {elapsed:.2f} s",
    )


def test_criterion_2_bmzi_curve_shapes():
    config = ExperimentConfig(kind="bmzi", repetitions=1, analytic=True)
    result = run_sweep(config)
    angles = result.angles
    c = np.array([rec.coherence for rec in result.records])
    p = np.array([rec.predictability for rec in result.records])
    worst_c = float(np.max(np.abs(c - np.abs(np.sin(angles)))))
    worst_p = float(np.max(np.abs(p - (1 - np.abs(np.sin(angles))))))
    extreme_index = int(np.argmin(np.abs(angles + np.pi / 2)))
    extreme_ok = (
        abs(angles[extreme_index] + np.pi / 2) <= 1e-12
        and abs(c[extreme_index] - 1.0) <= 1e-9
        and abs(p[extreme_index]) <= 1e-9
    )
    _criterion(
        2,
        worst_c <= 1e-9 and worst_p <= 1e-9 and extreme_ok,
        f"max |C-|sin a|| = {worst_c:.3e}, max |P-(1-|sin a|)| = {worst_p:.3e}, extreme at -pi/2 on grid",
    )


def test_criterion_3_pqe_pure_state_equality():
    config = ExperimentConfig(kind="pqe", repetitions=1, analytic=True)
    result = run_sweep(config)
    worst = max(abs(rec.total - 3.0) for rec in result.records)
    at_zero = next(rec for rec in result.records if rec.angle_index == 0)
    spot = abs(at_zero.coherence - (0.5 + np.sqrt(2)))
    _criterion(
        3,
        len(result.records) == 60 and worst <= 1e-10 and spot <= 1e-10,
        f"60-point analytic sweep, max |C+P-3| = {worst:.3e}, |C(0)-(1/2+sqrt2)| = {spot:.3e}",
    )


def test_criterion_4_tomography_round_trip():
    t0 = time.perf_counter()
    state = simulate_statevector(build_pqe(np.pi / 2))
    rho_true = outer(state)
    exact = {}
    for setting in measurement_settings(2):
        op = PAULI[setting[0]]
        for letter in setting[1:]:
            op = kron(op, PAULI[letter])
        exact[setting] = float(np.real(np.trace(op @ rho_true)))
    exact_err = float(np.max(np.abs(reconstruct(exact, 2).rho - rho_true)))

    distances = []
    for trial in range(100):
        rng = np.random.default_rng(np.random.SeedSequence((404, trial)))
        values = {}
        for setting in measurement_settings(2):
            rotated = simulate_statevector(basis_change(setting), state)
            counts = sample_counts(rotated, 1000, rng)
            values[setting] = expectation_from_counts(counts, setting)
        distances.append(trace_distance(reconstruct(values, 2).rho, rho_true))
    distances = np.array(distances)
    median = float(np.median(distances))
    within = int(np.sum(distances <= 0.10))
    elapsed = time.perf_counter() - t0
    _criterion(
        4,
        exact_err <= 1e-10 and median <= 0.05 and within >= 95 and elapsed < 30.0,
        f"exact err = {exact_err:.3e}, median TD = {median:.4f}, {within}/100 <= 0.10, {elapsed:.1f} s",
    )


def test_criterion_5_mse_decomposition_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(71)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        series = MetricSeries(
            angles=np.linspace(0, 1, n),
            experimental_c=rng.standard_normal(n),
            experimental_p=rng.standard_normal(n),
            theory_c=rng.standard_normal(n),
            theory_p=rng.standard_normal(n),
        )
        rep = decompose(series)
        worst = max(worst, abs(rep.mse_sum - rep.mse_c - rep.mse_p - rep.corr))
    elapsed = time.perf_counter() - t0
    _criterion(
        5,
        worst <= 1e-12 and elapsed < 1.0,
        f"1000 random series, max identity residual = {worst:.3e}, {elapsed:.2f} s",
    )


def test_criterion_6_negative_correlation_masking():
    # fixed miniature: deviation pairs (0.1, -0.1) and (0, 0)
    fixed = MetricSeries(
        angles=np.array([0.0, 1.0]),
        experimental_c=np.array([-0.1, 0.0]),
        experimental_p=np.array([0.1, 0.0]),
        theory_c=np.zeros(2),
        theory_p=np.zeros(2),
    )
    rep = decompose(fixed)
    fixed_ok = (
        abs(rep.mse_sum) <= 1e-15
        and abs(rep.mse_c - 0.005) <= 1e-15
        and abs(rep.mse_p - 0.005) <= 1e-15
        and abs(rep.corr + 0.01) <= 1e-15
    )
    # property: any exactly anticorrelated deviation profile masks the errors
    rng = np.random.default_rng(73)
    prop_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 33))
        dev = rng.standard_normal(n)
        series = MetricSeries(
            angles=np.arange(n, dtype=float),
            experimental_c=-dev,
            experimental_p=dev,
            theory_c=np.zeros(n),
            theory_p=np.zeros(n),
        )
        r = decompose(series)
        prop_ok &= r.mse_sum <= 1e-12 and r.mse_c > 0 and r.mse_p > 0 and r.corr < 0
    _criterion(
        6,
        fixed_ok and prop_ok,
        f"masked sum (mse_sum={rep.mse_sum:.1e}) with mse_c={rep.mse_c}, mse_p={rep.mse_p}, corr={rep.corr}",
    )


def test_criterion_7_complementarity_bounds():
    rng = np.random.default_rng(79)
    worst_excess = -np.inf
    for _ in range(500):
        dim = int(rng.choice([2, 4]))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        point = point_from_density(rho)
        worst_excess = max(worst_excess, point.total - (dim - 1))
    worst_gap = 0.0
    for _ in range(200):
        dim = int(rng.choice([2, 4]))
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        point = point_from_density(outer(v))
        worst_gap = max(worst_gap, abs(point.total - (dim - 1)))
    _criterion(
        7,
        worst_excess <= 1e-9 and worst_gap <= 1e-10,
        f"500 mixed: max excess over d-1 = {worst_excess:.3e}; 200 pure: max |gap| = {worst_gap:.3e}",
    )


def test_criterion_8_noise_monotonicity():
    base = ExperimentConfig(kind="bmzi", angle_points=24, repetitions=1, analytic=True)
    means, mse_means = [], []
    for p in (0.0, 0.02, 0.05):
        result = run_sweep(replace(base, depolarizing=p))
        means.append(float(np.mean([rec.total for rec in result.records])))
        mse_means.append(result.report.mean)
    _criterion(
        8,
        means[0] > means[1] > means[2] and mse_means[0] < mse_means[1] < mse_means[2],
        f"mean(C+P) {[round(v, 6) for v in means]} decreasing; MSE mean {[f'{v:.2e}' for v in mse_means]} increasing",
    )


def test_criterion_9_determinism_and_runtime(tmp_path):
    t0 = time.perf_counter()
    config = ExperimentConfig(kind="bmzi")  # full default campaign
    first = run_sweep(config, threads=1)
    campaign_time = time.perf_counter() - t0
    second = run_sweep(config, threads=4)
    csv_identical = result_csv(first) == result_csv(second)

    svg_pair = []
    for result, name in ((first, "a"), (second, "b")):
        out = tmp_path / name
        paths = write_results(result, out)
        curve = aggregate_curves(read_results(paths["results"]))[config.run_label]
        _, table_svg = render_sparkline_table([summary_row(config.run_label, result.report)])
        svg_pair.append(render_curves(curve) + table_svg)
    svg_identical = svg_pair[0] == svg_pair[1]
    _criterion(
        9,
        csv_identical and svg_identical and campaign_time < 300.0,
        f"full campaign in {campaign_time:.1f} s; CSV identical across thread counts: {csv_identical}; "
        f"SVG identical: {svg_identical}",
    )
