"""Library guards that no pipeline run reaches: each rejects its bad input with a ValidationError."""

import numpy as np
import pytest

from interfero import ValidationError
from interfero.circuits import Circuit, counts_from_probabilities, outcome_probabilities
from interfero.linalg import check_stack, check_state_vector, outer
from interfero.mse import MetricSeries, decompose_rows, summarize
from interfero.noise import check_channel
from interfero.tomography import basis_change, expectation_from_counts

LINE = np.zeros(3)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: outer(np.complex128(1)), "state vector must be 1-D or a stack of them"),
        (lambda: check_state_vector(np.eye(2)), "state vector must be 1-D, got shape (2, 2)"),
        (lambda: check_stack(np.ones((2, 3)), "m", 1e-10), "expected a square matrix or a stack of them"),
        (lambda: check_stack(np.eye(8), "m", 1e-10), "dimension 8 exceeds the supported maximum 4"),
        (lambda: MetricSeries(LINE, np.zeros((3, 1)), LINE, LINE, LINE), "experimental_c must be 1-D"),
        (lambda: decompose_rows(np.zeros((0, 3)), np.zeros((0, 3))), "deviation arrays must be nonempty"),
        (lambda: decompose_rows(np.zeros((2, 3)), np.zeros((3, 2))), "of equal shape"),
        (lambda: summarize([]), "summarize needs a nonempty 1-D value array"),
        (lambda: check_channel(()), "a Kraus channel needs at least one operator"),
        (lambda: expectation_from_counts({"0": 0, "1": 0}, "Z"), "counts table has no shots"),
        (lambda: basis_change("Q"), "invalid Pauli string 'Q'"),
        (lambda: basis_change("II"), "measurement setting needs at least one non-identity letter"),
        (lambda: Circuit(1).extended(Circuit(2)), "cannot append a circuit with a different qubit count"),
        (lambda: outcome_probabilities(np.array(1.0)), "expected a vector or matrices, got ndim=0"),
        (lambda: counts_from_probabilities(np.array([0.5, 0.5]), 0), "shots must be a positive integer, got 0"),
        (lambda: counts_from_probabilities(np.array([0.5, 0.5]), 10), "sampling requires a seeded generator"),
    ],
    ids=[
        "outer-scalar", "state-vector-2d", "stack-not-square", "stack-too-large", "series-2d", "rows-empty",
        "rows-unequal", "summarize-empty", "channel-empty", "counts-no-shots", "setting-unknown-letter",
        "setting-identity", "circuit-qubit-counts", "probabilities-scalar", "shots-zero", "no-rng",
    ],
)
def test_a_guard_no_run_reaches_rejects_its_input(call, fragment):
    with pytest.raises(ValidationError) as caught:
        call()
    assert fragment in str(caught.value)
