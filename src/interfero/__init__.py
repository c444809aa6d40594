"""Simulated interferometer experiments probing wave-particle complementarity.

The package covers the full pipeline: circuit simulation with configurable
noise, shot sampling, Pauli state tomography, l1-coherence/predictability
metrics, deconstructed mean-squared-error analysis, and SVG/sparkline
reporting.
"""

__version__ = "0.1.0"

from .errors import ReconstructionError, ValidationError
from .linalg import kron, outer, purity
from .noise import NoiseModel, amplitude_damping, depolarizing, phase_damping, readout_confusion
from .circuits import (
    Circuit,
    Gate,
    sample_counts,
    simulate_density,
    simulate_statevector,
)
from .tomography import (
    TomographyResult,
    basis_change,
    expectation_from_counts,
    linear_inversion,
    measurement_settings,
    project_psd,
    reconstruct,
    trace_distance,
)
from .complementarity import (
    ComplementarityPoint,
    bmzi_state,
    coherence_l1,
    point_from_density,
    pqe_state,
    predictability_l1,
    theory_bmzi,
    theory_pqe,
)
from .mse import MetricSeries, MseReport, decompose, histogram_counts, mse, summarize
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    build_bmzi,
    build_pqe,
    run_sweep,
    theory_series,
)
from .report import (
    ResultRows,
    aggregate_curves,
    read_results,
    render_curves,
    render_sparkline_table,
    reports_from_rows,
    result_csv,
    summary_row,
    write_results,
)

__all__ = [
    "__version__",
    "ValidationError",
    "ReconstructionError",
    "kron",
    "outer",
    "purity",
    "NoiseModel",
    "depolarizing",
    "amplitude_damping",
    "phase_damping",
    "readout_confusion",
    "Circuit",
    "Gate",
    "simulate_statevector",
    "simulate_density",
    "sample_counts",
    "TomographyResult",
    "measurement_settings",
    "basis_change",
    "expectation_from_counts",
    "linear_inversion",
    "project_psd",
    "reconstruct",
    "trace_distance",
    "ComplementarityPoint",
    "coherence_l1",
    "predictability_l1",
    "point_from_density",
    "bmzi_state",
    "pqe_state",
    "theory_bmzi",
    "theory_pqe",
    "MetricSeries",
    "MseReport",
    "mse",
    "decompose",
    "summarize",
    "histogram_counts",
    "ExperimentConfig",
    "ExperimentResult",
    "build_bmzi",
    "build_pqe",
    "run_sweep",
    "theory_series",
    "ResultRows",
    "result_csv",
    "write_results",
    "read_results",
    "reports_from_rows",
    "aggregate_curves",
    "render_curves",
    "render_sparkline_table",
    "summary_row",
]
