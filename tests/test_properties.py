"""Property tests of the complementarity bound, the PSD projection and the results round trip."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from interfero import (
    ExperimentConfig,
    aggregate_curves,
    coherence_l1,
    predictability_l1,
    project_psd,
    read_results,
    run_sweep,
    write_results,
)
from interfero.complementarity import POPULATION_FLOOR

ENTRY = st.floats(min_value=-1.0, max_value=1.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    d=st.sampled_from((2, 4)), rank=st.integers(1, 4), tiny=st.sampled_from((0.0, 1e-7, 1e-6, 1e-13)), data=st.data()
)
def test_sum_is_at_most_d_minus_one_with_equality_iff_pure(d, rank, tiny, data):
    # rho = G G^dag / tr for a random complex d x k matrix G: a state of rank <= k
    g = data.draw(arrays(float, (2, d, min(rank, d)), elements=ENTRY))
    # scale row 0 by `tiny` (unless 0): a population near or below the floor
    g[:, 0] *= tiny or 1.0
    rho = (g[0] + 1j * g[1]) @ (g[0] + 1j * g[1]).conj().T
    assume(np.trace(rho).real > 1e-6)
    rho /= np.trace(rho).real
    c, p = coherence_l1(rho), predictability_l1(rho)
    # Each pair j != k adds sqrt(rho_jj rho_kk) - |rho_jk| >= its 2x2 principal
    # minor to the gap, and the minors sum to 1 - purity; so the gap is at
    # least 1 - purity: zero on pure states, positive on every mixed one.  A
    # population at or below POPULATION_FLOOR zeroes its pairs on both sides,
    # which drops at most the minors of those pairs, each below the floor.
    purity = float(np.real(np.trace(rho @ rho)))
    gap = d - 1 - (c + p)
    assert gap >= -1e-12
    assert gap >= (1.0 - purity) - 2 * d * POPULATION_FLOOR - 1e-12
    if rank == 1:
        assert gap <= 1e-12


@st.composite
def unit_trace_hermitian(draw):
    """A Hermitian matrix with trace 1 that need not be positive semidefinite."""
    d = draw(st.sampled_from((2, 4)))
    a = draw(arrays(float, (2, d, d), elements=ENTRY))
    h = a[0] + 1j * a[1]
    h = h + h.conj().T
    return h + (1.0 - np.trace(h).real) / d * np.eye(d)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(m=unit_trace_hermitian())
def test_projection_is_a_state_and_idempotent(m):
    rho, violation = project_psd(m)
    assert violation >= 0.0
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12
    again, second = project_psd(rho)
    assert np.max(np.abs(again - rho)) <= 1e-12
    assert second <= 1e-12
    if violation == 0.0:
        assert np.array_equal(rho, m)
    stacked, masses = project_psd(np.stack([m, rho]))
    assert np.array_equal(stacked[0], rho) and masses[0] == violation
    assert np.array_equal(stacked[1], again) and masses[1] == second


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(("bmzi", "pqe")),
    angle_points=st.integers(2, 5),
    repetitions=st.integers(1, 6),
    shots=st.integers(1, 200),
    master_seed=st.integers(0, 2**64 - 1),
)
def test_curves_from_the_csv_are_the_table_statistics(tmp_path_factory, kind, angle_points, repetitions, shots, master_seed):
    config = ExperimentConfig(
        kind=kind, angle_points=angle_points, repetitions=repetitions, shots=shots, master_seed=master_seed
    )
    result = run_sweep(config)
    out = tmp_path_factory.mktemp("curves")
    curve = aggregate_curves(read_results(write_results(result, out)["results"]))[config.run_label]
    table = result.table
    # results.csv rounds every number to 12 fractional digits
    assert np.max(np.abs(curve.angles - table.angles)) <= 5e-13
    for mean, std, values in (
        (curve.mean_c, curve.std_c, table.coherence),
        (curve.mean_p, curve.std_p, table.predictability),
        (curve.mean_sum, curve.std_sum, table.total),
    ):
        for i, row in enumerate(values):
            assert abs(mean[i] - np.mean(row)) <= 1e-12
            assert abs(std[i] - np.std(row)) <= 1e-12
