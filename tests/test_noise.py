import itertools
import re

import numpy as np
import pytest

from interfero import NoiseModel, ValidationError, amplitude_damping, depolarizing, phase_damping, readout_confusion
from interfero.circuits import _apply_channel
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


def _random_states(rng, shape, d):
    g = rng.standard_normal((*shape, d, d)) + 1j * rng.standard_normal((*shape, d, d))
    rho = g @ np.conj(np.swapaxes(g, -1, -2))
    return rho / np.trace(rho, axis1=-2, axis2=-1)[..., None, None]


def _kraus_in_sequence(channels, q, n_qubits, rho):
    """Each channel in turn as sum_k K rho K^dag, with K placed on qubit q by a Kronecker product."""
    for channel in channels:
        placed = [k if n_qubits == 1 else (np.kron(k, np.eye(2)) if q == 1 else np.kron(np.eye(2), k)) for k in channel]
        rho = sum(k @ rho @ k.conj().T for k in placed)
    return rho


BIT_FLIP = (np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * np.array([[0, 1], [1, 0]]))
CHANNELS = {
    "depolarizing": (depolarizing(0.3),),
    "amplitude-damping": (amplitude_damping(0.2),),
    "phase-damping": (phase_damping(0.6),),
    "all-three": (depolarizing(0.05), amplitude_damping(0.4), phase_damping(0.25)),
    "one-operator": ((np.array([[1, 1j], [1j, 1]]) / np.sqrt(2),),),
    "damping-then-flip": (amplitude_damping(0.5), BIT_FLIP),
    "flip-then-damping": (BIT_FLIP, amplitude_damping(0.5)),
}


@pytest.mark.parametrize("name", CHANNELS)
@pytest.mark.parametrize("n_qubits", [1, 2])
def test_the_composed_channel_equals_its_kraus_operators_in_sequence(name, n_qubits):
    model = NoiseModel(channels=CHANNELS[name])
    rng = np.random.default_rng(len(name) + n_qubits)
    rho = _random_states(rng, (3, 5), 1 << n_qubits)
    for q in range(n_qubits):
        composed = _apply_channel(model.superoperator, q, n_qubits, rho)
        assert np.max(np.abs(composed - _kraus_in_sequence(CHANNELS[name], q, n_qubits, rho))) <= 1e-15
        # each matrix's result does not depend on the stack it sits in
        single = [_apply_channel(model.superoperator, q, n_qubits, rho[i, j]) for i in range(3) for j in range(5)]
        assert np.array_equal(composed.reshape(-1, *rho.shape[-2:]), np.stack(single))


def _einsum_channel(superoperator, q, n_qubits, rho):
    """The contraction ``_apply_channel`` replaced, kept as its reference."""
    p, r = 1 << (n_qubits - 1 - q), 1 << q
    out = np.einsum("abcd,...icjkdl->...iajkbl", superoperator, rho.reshape(*rho.shape[:-2], p, 2, r, p, 2, r))
    return out.reshape(rho.shape)


#: Every channel combination ``NoiseModel.build`` makes: depolarizing, amplitude and phase damping, each on or off.
#: (A channel that is not phase covariant, such as "one-operator" above, is not bitwise the einsum: einsum's own
#: order of summation then depends on the memory layout.)
BUILT = [strengths for strengths in itertools.product((0.0, 0.03), (0.0, 0.02), (0.0, 0.05)) if any(strengths)]


@pytest.mark.parametrize("strengths", BUILT, ids=lambda s: "-".join(f"{x:g}" for x in s))
@pytest.mark.parametrize("n_qubits, q", [(1, 0), (2, 0), (2, 1)])
def test_the_channel_kernel_is_bitwise_the_einsum_contraction(strengths, n_qubits, q):
    superoperator = NoiseModel.build(*strengths).superoperator
    d = 1 << n_qubits
    rng = np.random.default_rng(n_qubits + 2 * q)
    for shape in [(), (5,), (3, 60)]:
        rho = _random_states(rng, shape, d)
        # exact zeros give signed-zero products: where every term of a sum is -0, einsum's sum from +0 is +0
        sparse = rho.copy()
        sparse[..., 0, :] = sparse[..., :, 0] = 0.0
        for m in (rho, sparse, -sparse):
            got = _apply_channel(superoperator, q, n_qubits, m)
            assert got.shape == m.shape and got.tobytes() == _einsum_channel(superoperator, q, n_qubits, m).tobytes()


def test_the_composition_keeps_the_channels_order():
    rho = _random_states(np.random.default_rng(5), (4,), 2)
    first, second = (
        NoiseModel(channels=CHANNELS[name]).superoperator for name in ("damping-then-flip", "flip-then-damping")
    )
    assert np.max(np.abs(_apply_channel(first, 0, 1, rho) - _apply_channel(second, 0, 1, rho))) > 0.1
    assert NoiseModel().superoperator is None


def test_noise_models_compare_and_hash_by_identity():
    model = NoiseModel.build(depolarizing_p=0.1, readout_flip0=0.02)
    assert model == model and model != NoiseModel.build(depolarizing_p=0.1, readout_flip0=0.02)
    assert {model: 1}[model] == 1 and len({model, NoiseModel.build(depolarizing_p=0.1)}) == 2


@pytest.mark.parametrize("model", [NoiseModel(), NoiseModel.build(readout_flip0=0.1)], ids=["noiseless", "readout"])
@pytest.mark.parametrize(
    "shape, n_qubits, message",
    [
        ((4,), 3, "readout acts on 1 or 2 qubits, got 3"),
        ((1,), 0, "readout acts on 1 or 2 qubits, got 0"),
        ((3,), 1, "expected 2 outcome probabilities on the last axis, got shape (3,)"),
        ((5, 2), 2, "expected 4 outcome probabilities on the last axis, got shape (5, 2)"),
        ((4, 1), 2, "expected 4 outcome probabilities on the last axis, got shape (4, 1)"),
        ((), 1, "expected 2 outcome probabilities on the last axis, got shape ()"),
    ],
)
def test_apply_readout_rejects_a_bad_qubit_count_or_last_axis(model, shape, n_qubits, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        model.apply_readout(np.full(shape, 0.25), n_qubits)
