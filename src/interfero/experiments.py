"""Interferometer kinds and sweep orchestration.

Each kind is one :data:`INTERFEROMETERS` record.  A sweep walks the kind's
angle grid, repeats each angle ``repetitions`` times, runs every tomography
setting with ``shots`` samples (or exact frequencies in analytic mode),
reconstructs the state and evaluates the complementarity metrics.

The sweep tiles its angle-major (angle, repetition) cells twice, each tiling
bounded by :data:`BLOCK_CELLS`.  Simulation chunks of at most that many
angles (the whole default grid) are simulated once each, as one angle
stack.  The basis changes then walk the qubits, highest first: each qubit's
X and Y rotations evolve every partial state so far in one stacked call, so
the ``3**n`` partial states (3 for bmzi, 9 for pqe; ``3**n * angles * d**2``
complex numbers) come from 2 or 4 evolutions and hold every setting's state.
A chunk holds whole pieces of at most :data:`BLOCK_CELLS` cells, either
several whole angles or one slice of one angle's repetitions; the generator
:func:`_expectation_pieces`, the sweep's one boundary, draws each piece and
contracts it to expectations, which :func:`run_sweep` inverts, projects and
scores.  Each angle draws its counts from a counter-based stream derived
from (master_seed, angle index), one piece after the other, which gives the
counts of one whole draw.  An analytic angle is one cell at its exact
frequencies, which stands for each of its repetitions.  The projection
decomposes only the states that a stacked LDL^H factorisation cannot prove
to have every eigenvalue above ``linalg.PSD_MARGIN`` (1e-9), a margin
far above ``eigh``'s error; the others come back unchanged and keep their
raw metrics, so only the rebuilt states are scored again.  Every step works
on each angle or cell on its own and every angle owns its stream, so
results do not depend on the chunk or piece sizes, nor on the thread count:
each piece's angles draw on at most min(threads, angles in the piece, CPUs)
threads, which run only numpy's sampler, as it releases the GIL (:func:`_draw`).
"""

from __future__ import annotations

import os
import re
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from threading import Thread
from typing import NamedTuple, get_args, get_type_hints

import numpy as np

from .circuits import (
    Circuit,
    cx,
    ctrl_h_open,
    ctrl_ix,
    ix,
    outcome_probabilities,
    phase,
    rx_neg,
    simulate_density,
    unitary,
    _evolve_density,
)
from .complementarity import bmzi_state, l1_metrics, pqe_state
from .errors import ValidationError
from .linalg import check_finite, has_type, outer
from .mse import MseReport, decompose_rows
from .noise import NoiseModel
from .tomography import BASIS_ROTATION, linear_inversion, measurement_settings, parity_signs, project_psd

#: One interferometer kind's facts: qubit count, default repetitions and label, first grid angle, circuit, exact state.
Interferometer = namedtuple("Interferometer", "qubits repetitions label start circuit state")


def build_bmzi(alpha: float | np.ndarray) -> Circuit:
    """Biased Mach-Zehnder interferometer on one qubit.

    Biased beam splitter at ``alpha``, mirror pair, zero phase shift, and a
    balanced second beam splitter fixed at its reference angle.  An array of
    angles gives the angle-stacked circuit.
    """
    check_finite(alpha, "alpha")
    return Circuit(1, (rx_neg(alpha, 0), ix(0), phase(0.0, 0), rx_neg(-np.pi, 0)))


def build_pqe(phi: float | np.ndarray) -> Circuit:
    """Partial quantum eraser on two qubits (q1 spatial mode, q0 polarization).

    Balanced splitter, half-wave plate marking the path on the polarization,
    mirrors and phase shift, recombining splitter, then quarter-wave plate
    and polarizing splitters that partially erase the marker.  An array of
    phases gives the angle-stacked circuit.
    """
    check_finite(phi, "phi")
    return Circuit(
        2,
        (
            rx_neg(np.pi / 2, 1),
            cx(1, 0),
            ix(1),
            phase(phi, 1),
            rx_neg(np.pi / 2, 1),
            ctrl_h_open(1, 0),
            ctrl_ix(0, 1),
        ),
    )


#: Each interferometer kind's record, by the name a config gives as ``kind``.
INTERFEROMETERS = {
    "bmzi": Interferometer(qubits=1, repetitions=128, label="0", start=-np.pi, circuit=build_bmzi, state=bmzi_state),
    "pqe": Interferometer(qubits=2, repetitions=32, label="0-1", start=0.0, circuit=build_pqe, state=pqe_state),
}
KINDS = tuple(INTERFEROMETERS)  # the kind names, in the order every message lists them

#: The bound of both tilings of :func:`run_sweep`: it simulates at most this many angles as one
#: stack, and draws and reconstructs at most this many (angle, repetition) cells as one piece,
#: max(1, BLOCK_CELLS // cells per angle) whole angles or this many repetitions of one angle.
BLOCK_CELLS = 2048

#: Largest angle_points * repetitions of one sweep: results.csv is built in
#: memory at ~104 bytes per cell, so ~26 MB at the cap.
MAX_CELLS = 250_000

# not used here: the benchmark's tracer patches this attribute (perfbench/tracing.py)
ThreadPoolExecutor = None

#: The noise strength keys of ExperimentConfig, each in [0, 1], in the order of NoiseModel.build's parameters.
NOISE_KEYS = ("depolarizing", "amplitude_damping", "phase_damping", "readout_flip0", "readout_flip1")

#: Where a config-file comment starts: '#' at the start of a line or after whitespace.
CONFIG_COMMENT = re.compile(r"(?:^|\s)#")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to rerun a sweep byte-for-byte.

    Noise is configured through scalar strengths so the whole config
    serialises to a flat key=value snapshot; :attr:`noise` assembles the
    matching :class:`NoiseModel`.
    """

    kind: str
    angle_points: int = 60
    shots: int = 1000
    repetitions: int | None = None
    master_seed: int = 12345
    analytic: bool = False
    label: str | None = None
    depolarizing: float = 0.0
    amplitude_damping: float = 0.0
    phase_damping: float = 0.0
    readout_flip0: float = 0.0
    readout_flip1: float = 0.0

    def __post_init__(self) -> None:
        _check_kind(self.kind)
        for key, typ in CONFIG_TYPES.items():
            if not (has_type(value := getattr(self, key), typ) or value is None and key in OPTIONAL_KEYS):
                raise ValidationError(f"{key} must be of type {typ.__name__}, got {value!r}")
            if typ is float and value is not None:  # a numpy float32 would keep its precision in Kraus and config.cfg
                object.__setattr__(self, key, float(value))
        if self.angle_points < 2:
            raise ValidationError(f"angle_points must be at least 2, got {self.angle_points}")
        # the sampler takes the shot count as a C long
        if not self.analytic and not 1 <= self.shots <= 2**63 - 1:
            raise ValidationError(f"shots must be a positive integer at most 2**63 - 1, got {self.shots}")
        if self.repetitions is not None and self.repetitions < 1:
            raise ValidationError(f"repetitions must be at least 1, got {self.repetitions}")
        if self.angle_points * self.m > MAX_CELLS:
            raise ValidationError(
                f"angle_points * repetitions must be at most {MAX_CELLS}, got {self.angle_points} * {self.m}"
            )
        if self.label is not None and not _label_reads_back(self.label):
            raise ValidationError(
                "label must be non-empty, without ',', line breaks, surrounding whitespace "
                f"or a '#' that starts a config comment, got {self.label!r}"
            )
        if not 0 <= self.master_seed < 2**64:
            raise ValidationError(f"master_seed must fit in 64 bits, got {self.master_seed}")
        for name in NOISE_KEYS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {value}")

    @cached_property
    def noise(self) -> NoiseModel:
        return NoiseModel.build(*(getattr(self, name) for name in NOISE_KEYS))

    @property
    def n_qubits(self) -> int:
        return INTERFEROMETERS[self.kind].qubits

    @property
    def m(self) -> int:
        return self.repetitions if self.repetitions is not None else INTERFEROMETERS[self.kind].repetitions

    @property
    def run_label(self) -> str:
        return self.label if self.label is not None else INTERFEROMETERS[self.kind].label

    def angles(self) -> np.ndarray:
        """Uniform endpoint-exclusive grid over 2*pi from the kind's first angle: [-pi, pi) for the
        interferometer sweep, [0, 2*pi) for the eraser, so the quarter-turn extremes land exactly on grid points."""
        return INTERFEROMETERS[self.kind].start + 2 * np.pi * np.arange(self.angle_points) / self.angle_points


_HINTS = get_type_hints(ExperimentConfig)
#: Each config key and the type of its value, in ExperimentConfig field order (``int | None`` -> ``int``).
CONFIG_TYPES = {key: (get_args(hint) or (hint,))[0] for key, hint in _HINTS.items()}
#: The config keys whose type hint allows ``None`` (``int | None``); no other key takes it.
OPTIONAL_KEYS = {key for key, hint in _HINTS.items() if type(None) in get_args(hint)}


class ResultRow(NamedTuple):
    """One (angle, repetition) cell as a results.csv row."""

    kind: str
    label: str
    angle_index: int
    angle: float
    repetition: int
    coherence: float
    predictability: float
    total: float
    total_raw: float
    psd_violation: float


#: The per-cell metric columns of a :class:`SweepTable`, in results.csv order.
METRICS = ("coherence", "predictability", "total", "total_raw", "psd_violation")


@dataclass(frozen=True)
class SweepTable:
    """One label's sweep as columns.

    ``angles`` has shape ``(n,)``; each metric array has shape ``(n, m)``
    with angle ``i``'s ``m`` repetitions in row ``i``, the order of the
    results.csv rows (angle-major).
    """

    kind: str
    label: str
    angles: np.ndarray
    coherence: np.ndarray
    predictability: np.ndarray
    total: np.ndarray
    total_raw: np.ndarray
    psd_violation: np.ndarray

    def rows(self) -> list[ResultRow]:
        """The cells as the rows results.csv holds, angle-major."""
        n, m = self.coherence.shape
        index, repetition = np.divmod(np.arange(n * m), m)
        columns = [index.tolist(), self.angles[index].tolist(), repetition.tolist()]
        columns += [getattr(self, name).ravel().tolist() for name in METRICS]
        return [ResultRow(self.kind, self.label, *row) for row in zip(*columns)]


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    table: SweepTable
    report: MseReport

    @property
    def angles(self) -> np.ndarray:
        return self.table.angles

    @property
    def records(self) -> list[ResultRow]:
        """The table's cells as the rows results.csv holds, angle-major."""
        return self.table.rows()


def build_circuit(kind: str, angle: float | np.ndarray) -> Circuit:
    return _check_kind(kind).circuit(angle)


def theory_series(kind: str, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form coherence and predictability arrays over an angle grid.

    One metric evaluation on the stack of pure states; point ``i`` equals
    ``theory_bmzi(angles[i])`` or ``theory_pqe(angles[i])`` bit for bit.
    """
    return l1_metrics(outer(_check_kind(kind).state(angles)))


def analyze(table: SweepTable, theory: tuple[np.ndarray, np.ndarray] | None = None) -> MseReport:
    """Deconstructed MSE of each repetition against the pure-state curves, summarised.

    The deviations are reduced as ``(m, n)`` arrays, one row per repetition.  ``theory`` is :func:`theory_series`
    of the table's kind and angles, given by a caller that reduces several tables on one grid, else evaluated here.
    """
    theory_c, theory_p = theory or theory_series(table.kind, table.angles)
    return decompose_rows(theory_c - table.coherence.T, theory_p - table.predictability.T)


def cell_rng(master_seed: int, angle_index: int, repetition: int, setting_index: int) -> np.random.Generator:
    """Independent counter-based stream for sampling one cell on its own.

    :func:`run_sweep` draws whole angles from :func:`angle_rng` instead.
    """
    seq = np.random.SeedSequence((master_seed, angle_index, repetition, setting_index))
    return np.random.Generator(np.random.Philox(seq))


def angle_rng(master_seed: int, angle_index: int) -> np.random.Generator:
    """Counter-based stream that draws every count of one angle of a sweep."""
    seq = np.random.SeedSequence((master_seed, angle_index))
    return np.random.Generator(np.random.Philox(seq))


def setting_probabilities(config: ExperimentConfig, angles: float | np.ndarray) -> np.ndarray:
    """Read-out outcome distribution of every tomography setting, shape ``(A, S, d)``.

    One angle gives ``(S, d)``.  The interferometer is simulated once for
    all angles.  The basis changes then walk the qubits, highest first: at
    each qubit, each rotation of :data:`BASIS_ROTATION` evolves every
    partial state so far, with its per-gate noise, in one stacked call; the
    unrotated states stand for I and Z.  Each setting's state thus takes
    the same gate and Kraus steps, in the same order, as its basis-change
    circuit would.
    """
    noise = config.noise
    n = config.n_qubits
    # base is checked once, by the call that made it; each step checks only its output
    states = simulate_density(build_circuit(config.kind, angles), noise)[None]
    for qubit in reversed(range(n)):
        rotated = [_evolve_density(Circuit(n, (unitary(r, (qubit,)),)), noise, states) for r in BASIS_ROTATION.values()]
        states = np.stack([states, *rotated], axis=1).reshape(-1, *states.shape[1:])
    # a setting's state sits at its letters read as base-3 digits: I, Z -> 0, then BASIS_ROTATION's X, Y
    digits = str.maketrans("IXYZ", "0120")
    picked = states[[int(setting.translate(digits), 3) for setting in measurement_settings(n)]]
    return noise.apply_readout(outcome_probabilities(np.moveaxis(picked, 0, -3)), n)


def run_sweep(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Execute the full sweep and aggregate the deconstructed MSE report.

    Scores each piece that :func:`_expectation_pieces`, the sweep's one boundary, yields, on the calling
    thread; at most ``threads`` (an int, at least 1) threads draw each piece, and the outputs do not depend
    on it.  Working memory is one chunk's ``3**n`` partial states (``3**n * angles * d**2`` complex
    numbers), one piece's ``(cells, settings, d)`` frequencies,
    then its ``(cells, settings)`` expectations and ``(cells, d, d)`` states, and the metric columns of
    the pieces so far, which are joined once into the table and then released.
    """
    if not has_type(threads, int) or threads < 1:
        raise ValidationError(f"threads must be at least 1, got {threads!r}")
    angles = config.angles()
    pieces = [_cell_metrics(expectations, config.n_qubits) for expectations in _expectation_pieces(config, threads)]
    columns = [np.concatenate(column).reshape(len(angles), -1) for column in zip(*pieces)]
    pieces.clear()
    if config.analytic:  # an angle's one analytic cell stands for each of its repetitions
        columns = [column.repeat(config.m, axis=1) for column in columns]
    table = SweepTable(config.kind, config.run_label, angles, *columns)
    return ExperimentResult(config, table, analyze(table))


def _expectation_pieces(config: ExperimentConfig, threads: int = 1) -> Iterator[np.ndarray]:
    """The setting expectations ``(cells, S)`` of each piece of the sweep, angle-major (see the module docstring).

    Each sampled angle draws from its stream, on from where its last piece stopped (:func:`_draw`); analytic
    frequencies are the distributions themselves.  Only the expectations outlive a piece's step (the name that
    held its draws is rebound to them), so its draws are freed before it is reconstructed.
    """
    angles = config.angles()
    cells = 1 if config.analytic else config.m  # an analytic angle is one cell, at its exact frequencies
    block = max(1, BLOCK_CELLS // cells)
    chunk = block * (BLOCK_CELLS // block)  # whole blocks, at most BLOCK_CELLS angles
    for first in range(0, len(angles), chunk):
        probs = setting_probabilities(config, angles[first : first + chunk])
        for k in range(0, len(probs), block):
            dists = probs[k : k + block]
            streams = [] if config.analytic else [angle_rng(config.master_seed, first + k + b) for b in range(len(dists))]
            for r in range(0, cells, BLOCK_CELLS):
                piece = dists
                if not config.analytic:
                    piece = np.empty((len(dists), min(BLOCK_CELLS, cells - r), *dists.shape[1:]))
                    _draw(piece, streams, dists, config.shots, threads)
                    piece /= config.shots
                piece = np.einsum("rsk,sk->rs", piece.reshape(-1, *dists.shape[1:]), parity_signs(config.n_qubits))
                yield piece


def _draw(piece: np.ndarray, streams: list[np.random.Generator], dists: np.ndarray, shots: int, threads: int) -> None:
    """Fill ``piece[b]`` with angle ``b``'s next counts from ``streams[b]``, on min(threads, angles, CPUs) threads.

    The calling thread draws one share of the angles, and joins a thread it started for each other share before
    it raises the first exception any share raised: ``piece`` would otherwise keep unfilled rows.
    """
    workers = min(threads, len(streams), os.cpu_count() or 1)
    errors: list[BaseException] = []

    def share(first: int) -> None:
        try:
            for b in range(first, len(streams), workers):
                piece[b] = streams[b].multinomial(shots, dists[b], size=piece.shape[1:3])
        except BaseException as exc:  # raised again once every share has ended
            errors.append(exc)

    started = [Thread(target=share, args=(first,)) for first in range(1, workers)]
    for thread in started:
        thread.start()
    share(0)
    for thread in started:
        thread.join()
    if errors:
        raise errors[0]


def _cell_metrics(expectations: np.ndarray, n_qubits: int) -> tuple[np.ndarray, ...]:
    """The :data:`METRICS` columns, each ``(cells,)``, of a ``(cells, S)`` stack of expectations."""
    rho_raw = linear_inversion(expectations, n_qubits)
    rho, violation = project_psd(rho_raw)
    c, p = l1_metrics(rho_raw)
    total_raw = c + p
    # the projection returns each cell it did not rebuild (mass 0) unchanged, with its raw metrics
    rebuilt = violation > 0
    if rebuilt.any():  # rho itself where every cell was rebuilt: a gathered copy would hold a second stack
        c[rebuilt], p[rebuilt] = l1_metrics(rho if rebuilt.all() else rho[rebuilt])
    return c, p, c + p, total_raw, violation


def _check_kind(kind: str) -> Interferometer:
    if kind not in KINDS:  # the tuple, not the dict: a dict lookup raises a raw TypeError on an unhashable kind
        raise ValidationError(f"kind must be one of {KINDS}, got {kind!r}")
    return INTERFEROMETERS[KINDS[KINDS.index(kind)]]


def _label_reads_back(label: str) -> bool:
    """Whether ``label`` survives as one results.csv field and as a config.cfg value."""
    return (
        bool(label)
        and "," not in label
        and label.splitlines() == [label]
        and label == label.strip()
        and not CONFIG_COMMENT.search(label)
    )
