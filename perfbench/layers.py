"""The per-layer metrics, and the end-to-end metric and workload each should move.

The layers are the modules of ``interfero``.  Every traced function gets
``<name>.calls`` and ``<name>.self_s``; the CLI commands also get their
inclusive time.  BENCHMARK.json lists the same metrics; a test keeps the two
in step.
"""

from __future__ import annotations

CAMPAIGNS = "wall_ref on bmzi-sampled and pqe-noisy-t2"
BMZI = "wall_ref on bmzi-sampled"
PQE = "wall_ref on pqe-noisy-t2"
ANALYZE = "wall_ref on analyze-report"
NONE = "none: an exact count that moves only if outputs change"

# Traced function -> the end-to-end metric and workload its self time should move.
TRACED = {
    "cli.cmd_run": CAMPAIGNS,
    "cli.cmd_analyze": ANALYZE,
    "cli.cmd_report": ANALYZE,
    "experiments.run_sweep": CAMPAIGNS,
    "experiments.cell_rng": CAMPAIGNS,
    "experiments.theory_series": BMZI,
    "circuits.simulate_density": PQE,
    "circuits.outcome_probabilities": PQE,
    "circuits.counts_from_probabilities": CAMPAIGNS,
    "noise.NoiseModel.apply_readout": PQE,
    "tomography.expectation_from_counts": CAMPAIGNS,
    "tomography.linear_inversion": PQE,
    "tomography.reconstruct": CAMPAIGNS,
    "tomography.project_psd": BMZI,
    "complementarity.coherence_l1": BMZI,
    "complementarity.predictability_l1": BMZI,
    "mse.decompose": ANALYZE,
    "mse.summarize": ANALYZE,
    "report.write_results": CAMPAIGNS,
    "report.write_manifest": CAMPAIGNS,
    "report.read_results": ANALYZE,
    "report.reports_from_rows": ANALYZE,
    "report.aggregate_curves": ANALYZE,
    "report.render_curves": ANALYZE,
    "report.render_sparkline_table": ANALYZE,
}

INCLUSIVE = ("cli.cmd_run", "cli.cmd_analyze", "cli.cmd_report")

# Metrics that are not a function's calls or time: (unit, better, moves).
OTHER = {
    "experiments.run_sweep.parallelism": ("ratio", "higher", PQE),
    "tomography.project_psd.fired": ("count", "lower", NONE),
    "tomography.project_psd.fired_frac": ("ratio", "lower", NONE),
    "tomography.project_psd.clipped_mass": ("mass", "lower", NONE),
    "tomography.raw_over_bound": ("count", "lower", NONE),
    "circuits.sampled_settings": ("count", "higher", NONE),
    "report.rows_parsed": ("count", "lower", ANALYZE),
    "trace.traced_wall_s": ("s", "lower", "none: base of the two trace figures below"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall seconds"),
    "trace.uncovered_s": ("s", "lower", "none: traced wall no top-level span covers"),
}


def per_layer() -> list[tuple[str, str, str, str]]:
    """(name, unit, better, moves) of every per-layer metric, in report order."""
    out = []
    for name, moves in TRACED.items():
        out.append((f"{name}.calls", "count", "lower", moves))
        out.append((f"{name}.self_s", "s", "lower", moves))
        if name in INCLUSIVE:
            out.append((f"{name}.incl_s", "s", "lower", moves))
    out += [(name, *spec) for name, spec in OTHER.items()]
    return out


# End-to-end metrics: (name, unit, better).
END_TO_END = (
    ("wall_ref", "ref", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
