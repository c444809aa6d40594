"""Simulated interferometer experiments probing wave-particle complementarity.

The package covers the full pipeline: circuit simulation with configurable
noise, shot sampling, Pauli state tomography, l1-coherence/predictability
metrics, deconstructed mean-squared-error analysis, and SVG/sparkline
reporting.  A public name imports its module the first time it is read.
"""

import importlib

__version__ = "0.1.0"

#: The public names, under the module that defines each.
_PUBLIC = {
    "errors": ("ValidationError",),
    "linalg": ("kron", "outer", "purity"),
    "noise": ("NoiseModel", "amplitude_damping", "depolarizing", "phase_damping", "readout_confusion"),
    "circuits": ("Circuit", "Gate", "sample_counts", "simulate_density", "simulate_statevector"),
    "tomography": (
        "TomographyResult", "basis_change", "expectation_from_counts", "linear_inversion", "measurement_settings",
        "project_psd", "reconstruct", "trace_distance",
    ),
    "complementarity": (
        "ComplementarityPoint", "bmzi_state", "coherence_l1", "point_from_density", "pqe_state", "predictability_l1",
        "theory_bmzi", "theory_pqe",
    ),
    "mse": ("MetricSeries", "MseReport", "decompose", "histogram_counts", "mse", "summarize"),
    "experiments": ("ExperimentConfig", "ExperimentResult", "build_bmzi", "build_pqe", "run_sweep", "theory_series"),
    "output": ("result_csv", "write_results"),
    "report": (
        "aggregate_curves", "read_results", "render_curves", "render_sparkline_table", "reports_from_rows", "summary_row",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = ["__version__", *_MODULE_OF]

# Once the submodule mse is imported (every import of interfero.cli imports it), the package
# attribute ``mse`` is that module and ``__getattr__`` is never asked for it.  Importing the
# function here, which imports the submodule first, keeps ``interfero.mse`` the function.
from .mse import mse  # noqa: E402


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return __all__
