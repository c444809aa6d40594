"""Interferometer circuit builders and sweep orchestration.

A sweep walks an angle grid, repeats each angle ``repetitions`` times, runs
every tomography setting with ``shots`` samples (or exact frequencies in
analytic mode), reconstructs the state and evaluates the complementarity
metrics.

The unit of work is a block of consecutive angles holding at most
:data:`BLOCK_CELLS` (angle, repetition) cells, or one angle if it has more.
The block's interferometers are simulated once as one angle stack, and each
setting's basis change continues once from that stack.  Each angle then
draws the counts of all its (repetition, setting) cells in one multinomial
call from a counter-based stream derived from (master_seed, angle index).
Expectations, inversion, PSD projection and metrics run once on the block's
``(angles, repetitions)`` stack of states.  Because every angle owns its
stream, results do not depend on the block size.
"""

from __future__ import annotations

import re
# not used here: the benchmark's tracer patches this attribute (perfbench/tracing.py)
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

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
    _evolve_density,
)
from .complementarity import bmzi_state, l1_metrics, pqe_state
from .errors import ReconstructionError, ValidationError
from .linalg import outer
from .mse import MseReport, decompose_rows, summarize_rows
from .noise import NoiseModel
from .tomography import basis_change, linear_inversion, measurement_settings, parity_signs, project_psd

KINDS = ("bmzi", "pqe")
DEFAULT_REPETITIONS = {"bmzi": 128, "pqe": 32}
DEFAULT_LABEL = {"bmzi": "0", "pqe": "0-1"}

#: (angle, repetition) cells that :func:`run_sweep` simulates and reconstructs as
#: one stack: a block holds max(1, BLOCK_CELLS // repetitions) angles, so the
#: working memory is O(max(BLOCK_CELLS, repetitions) * settings * d).
BLOCK_CELLS = 2048

#: Largest angle_points * repetitions of one sweep: results.csv is built in
#: memory at ~104 bytes per cell, so ~26 MB at the cap.
MAX_CELLS = 250_000

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
        if self.kind not in KINDS:
            raise ValidationError(f"kind must be one of {KINDS}, got {self.kind!r}")
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
        for name in ("depolarizing", "amplitude_damping", "phase_damping", "readout_flip0", "readout_flip1"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {value}")

    @cached_property
    def noise(self) -> NoiseModel:
        return NoiseModel.build(
            depolarizing_p=self.depolarizing,
            amplitude_damping_gamma=self.amplitude_damping,
            phase_damping_lambda=self.phase_damping,
            readout_flip0=self.readout_flip0,
            readout_flip1=self.readout_flip1,
        )

    @property
    def n_qubits(self) -> int:
        return 1 if self.kind == "bmzi" else 2

    @property
    def m(self) -> int:
        return self.repetitions if self.repetitions is not None else DEFAULT_REPETITIONS[self.kind]

    @property
    def run_label(self) -> str:
        return self.label if self.label is not None else DEFAULT_LABEL[self.kind]

    def angles(self) -> np.ndarray:
        """Uniform endpoint-exclusive grid: [-pi, pi) for the interferometer
        sweep, [0, 2*pi) for the eraser, so the quarter-turn extremes land
        exactly on grid points."""
        if self.kind == "bmzi":
            return -np.pi + 2 * np.pi * np.arange(self.angle_points) / self.angle_points
        return 2 * np.pi * np.arange(self.angle_points) / self.angle_points


@dataclass(slots=True)
class ResultRow:
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

    def columns(self, cells: slice = slice(None)) -> list[list]:
        """The results.csv columns from ``angle_index`` to ``psd_violation`` as lists, one entry per row.

        ``cells`` selects a range of the rows, counted angle-major.
        """
        n, m = self.coherence.shape
        index, repetition = np.divmod(np.arange(n * m)[cells], m)
        head = [index.tolist(), self.angles[index].tolist(), repetition.tolist()]
        return head + [getattr(self, name).ravel()[cells].tolist() for name in METRICS]

    def rows(self, cells: slice = slice(None)) -> list[ResultRow]:
        """The cells as the rows results.csv holds, angle-major; ``cells`` selects a range of them."""
        return [ResultRow(self.kind, self.label, *row) for row in zip(*self.columns(cells))]


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


def build_bmzi(alpha: float | np.ndarray) -> Circuit:
    """Biased Mach-Zehnder interferometer on one qubit.

    Biased beam splitter at ``alpha``, mirror pair, zero phase shift, and a
    balanced second beam splitter fixed at its reference angle.  An array of
    angles gives the angle-stacked circuit.
    """
    _finite(alpha, "alpha")
    return Circuit(1, (rx_neg(alpha, 0), ix(0), phase(0.0, 0), rx_neg(-np.pi, 0)))


def build_pqe(phi: float | np.ndarray) -> Circuit:
    """Partial quantum eraser on two qubits (q1 spatial mode, q0 polarization).

    Balanced splitter, half-wave plate marking the path on the polarization,
    mirrors and phase shift, recombining splitter, then quarter-wave plate
    and polarizing splitters that partially erase the marker.  An array of
    phases gives the angle-stacked circuit.
    """
    _finite(phi, "phi")
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


def build_circuit(kind: str, angle: float | np.ndarray) -> Circuit:
    return build_bmzi(angle) if kind == "bmzi" else build_pqe(angle)


def theory_series(kind: str, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form coherence and predictability arrays over an angle grid.

    One metric evaluation on the stack of pure states; point ``i`` equals
    ``theory_bmzi(angles[i])`` or ``theory_pqe(angles[i])`` bit for bit.
    """
    state = bmzi_state if kind == "bmzi" else pqe_state
    return l1_metrics(outer(state(angles)))


def analyze(table: SweepTable) -> MseReport:
    """Deconstructed MSE of each repetition against the pure-state curves, summarised.

    The deviations are reduced as ``(m, n)`` arrays, one row per repetition.
    """
    theory_c, theory_p = theory_series(table.kind, table.angles)
    return summarize_rows(*decompose_rows(theory_c - table.coherence.T, theory_p - table.predictability.T))


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
    all angles; each setting's basis change then runs once from that stack
    of output states with the same per-gate noise.
    """
    noise = config.noise
    base = simulate_density(build_circuit(config.kind, angles), noise)
    # base is checked once, by the call that made it; each continuation checks only its output
    probs = [
        outcome_probabilities(_evolve_density(basis_change(setting), noise, base))
        for setting in measurement_settings(config.n_qubits)
    ]
    return noise.apply_readout(np.stack(probs, axis=-2), config.n_qubits)


def run_sweep(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Execute the full sweep and aggregate the deconstructed MSE report.

    The grid runs in blocks of angles sized by :data:`BLOCK_CELLS` (see the
    module docstring), on the calling thread; ``threads`` is accepted and
    changes nothing.  Working memory is one block's ``(angles, repetitions,
    settings, d)`` frequencies and ``(angles, repetitions, d, d)`` matrices.
    """
    angles = config.angles()
    n_qubits, m = config.n_qubits, config.m
    block = max(1, BLOCK_CELLS // m)
    signs = parity_signs(n_qubits)
    blocks = []
    for start in range(0, len(angles), block):
        probs = setting_probabilities(config, angles[start : start + block])
        freqs = np.empty((len(probs), m, *probs.shape[1:]))
        if config.analytic:
            freqs[:] = probs[:, None]
        else:
            for b, dist in enumerate(probs):
                rng = angle_rng(config.master_seed, start + b)
                freqs[b] = rng.multinomial(config.shots, dist, size=(m, len(dist)))
            freqs /= config.shots
        # cell k of the block's stack is repetition k % m of angle start + k // m
        expectations = np.einsum("rsk,sk->rs", freqs.reshape(-1, *probs.shape[1:]), signs)
        rho_raw = linear_inversion(expectations, n_qubits)
        try:
            rho, violation = project_psd(rho_raw)
        except ReconstructionError as exc:
            b, r = divmod(exc.cell[0], m)
            raise ReconstructionError(f"angle index {start + b}, repetition {r}: {exc}") from exc
        c, p = l1_metrics(rho)
        c_raw, p_raw = l1_metrics(rho_raw)
        blocks.append([column.reshape(-1, m) for column in (c, p, c + p, c_raw + p_raw, violation)])

    table = SweepTable(config.kind, config.run_label, angles, *(np.concatenate(column) for column in zip(*blocks)))
    return ExperimentResult(config, table, analyze(table))


def _label_reads_back(label: str) -> bool:
    """Whether ``label`` survives as one results.csv field and as a config.cfg value."""
    return (
        bool(label)
        and "," not in label
        and label.splitlines() == [label]
        and label == label.strip()
        and not CONFIG_COMMENT.search(label)
    )


def _finite(value: float | np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(value)):
        raise ValidationError(f"{name} must be finite, got {value!r}")
