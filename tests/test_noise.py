import re

import numpy as np
import pytest

from interfero import NoiseModel, ValidationError, amplitude_damping, depolarizing, phase_damping, readout_confusion
from interfero.noise import check_channel


@pytest.mark.parametrize("channel", [depolarizing(0.3), amplitude_damping(0.2), phase_damping(0.6)])
def test_channels_are_trace_preserving(channel):
    total = sum(k.conj().T @ k for k in channel)
    assert np.max(np.abs(total - np.eye(2))) <= 1e-12


def test_non_trace_preserving_channel_rejected():
    with pytest.raises(ValidationError):
        check_channel((np.array([[1.0, 0.0], [0.0, 0.5]]),))
    with pytest.raises(ValidationError):
        NoiseModel(channels=((np.array([[1.0, 0.0], [0.0, 0.5]]),),))


@pytest.mark.parametrize(
    "channel, bad, shape",
    [
        ((np.eye(3),), 0, (3, 3)),
        ((np.eye(2), np.eye(3)), 1, (3, 3)),
        ((np.eye(4),), 0, (4, 4)),
        ((np.ones(2),), 0, (2,)),
        ((np.eye(2)[None],), 0, (1, 2, 2)),
        ((np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * np.ones((2, 3))), 1, (2, 3)),
    ],
)
def test_a_kraus_operator_that_is_not_2x2_is_a_one_line_error(channel, bad, shape):
    message = f"Kraus operator {bad} has shape {shape}, expected (2, 2): a channel acts on one qubit"
    with pytest.raises(ValidationError) as info:
        check_channel(channel)
    assert str(info.value) == message
    with pytest.raises(ValidationError, match=re.escape(message)):
        NoiseModel(channels=(depolarizing(0.1), channel))


def test_strength_bounds():
    for builder in (depolarizing, amplitude_damping, phase_damping):
        with pytest.raises(ValidationError):
            builder(-0.1)
        with pytest.raises(ValidationError):
            builder(1.1)


def test_amplitude_damping_decays_excited_state():
    rho1 = np.diag([0.0, 1.0]).astype(complex)
    out = sum(k @ rho1 @ k.conj().T for k in amplitude_damping(0.25))
    assert np.allclose(out, np.diag([0.25, 0.75]), atol=1e-12)


def test_phase_damping_shrinks_coherences_only():
    rho = np.full((2, 2), 0.5, dtype=complex)
    out = sum(k @ rho @ k.conj().T for k in phase_damping(0.4))
    assert np.allclose(np.diag(out), [0.5, 0.5], atol=1e-12)
    assert abs(out[0, 1]) == pytest.approx(0.5 * 0.6, abs=1e-12)


def test_readout_confusion_shape():
    m = readout_confusion(0.02, 0.05)
    assert np.allclose(m.sum(axis=0), [1.0, 1.0], atol=1e-12)
    assert m[1, 0] == pytest.approx(0.02)
    assert m[0, 1] == pytest.approx(0.05)


def test_apply_readout_single_qubit():
    model = NoiseModel.build(readout_flip0=0.1)
    probs = model.apply_readout(np.array([1.0, 0.0]), 1)
    assert np.allclose(probs, [0.9, 0.1], atol=1e-12)


def test_apply_readout_two_qubits_is_kron():
    model = NoiseModel.build(readout_flip0=0.1, readout_flip1=0.2)
    probs = model.apply_readout(np.array([1.0, 0.0, 0.0, 0.0]), 2)
    assert probs == pytest.approx([0.81, 0.09, 0.09, 0.01], abs=1e-12)


def test_noiseless_model_flag():
    noiseless = NoiseModel.build()
    assert noiseless.channels == () and noiseless.readout is None
    assert len(NoiseModel.build(depolarizing_p=0.1).channels) == 1
    assert NoiseModel.build(readout_flip0=0.1).readout is not None


def test_bad_readout_matrix_rejected():
    with pytest.raises(ValidationError):
        NoiseModel(readout=np.array([[0.5, 0.0], [0.0, 0.5]]))
