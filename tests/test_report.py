import hashlib
import os
import platform
import re
import shutil
import time
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import replace
from itertools import compress
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interfero import (
    ExperimentConfig,
    MseReport,
    ValidationError,
    aggregate_curves,
    read_results,
    render_curves,
    render_sparkline_table,
    reports_from_rows,
    result_csv,
    run_sweep,
    summarize,
    summary_row,
    theory_series,
    write_results,
)
from interfero import experiments, output, report
from interfero.cli import main, parse_config
from interfero.experiments import BLOCK_CELLS, METRICS, SweepTable
from interfero.output import (
    CSV_HEADER,
    FIXED12_LIMIT,
    config_lines,
    fmt12,
    summary_text,
    write_manifest,
)


@pytest.fixture(scope="module")
def noisy_result():
    config = ExperimentConfig(
        kind="bmzi", angle_points=6, repetitions=3, shots=400, master_seed=11, depolarizing=0.03
    )
    return run_sweep(config)


def test_csv_header_and_row_count(noisy_result):
    lines = result_csv(noisy_result).splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 6 * 3


def test_noiseless_analytic_sum_column_renders_as_one():
    config = ExperimentConfig(kind="bmzi", angle_points=3, repetitions=1, analytic=True)
    lines = result_csv(run_sweep(config)).splitlines()
    assert len(lines) == 4
    for line in lines[1:]:
        assert line.split(",")[7] == "1.000000000000"


def test_csv_numbers_use_twelve_decimals(noisy_result):
    line = result_csv(noisy_result).splitlines()[1]
    for cell in line.split(",")[5:]:
        assert re.fullmatch(r"-?\d+\.\d{12}", cell)


#: sha256 of result_csv(run_sweep(config)): the bytes results.csv held before its
#: writer was vectorised, which every later writer must reproduce.
PINNED_CSV = {
    "bmzi-default": (
        ExperimentConfig(kind="bmzi", master_seed=1),
        "2b16e3a8342af9f4b77f0d63ddff5c67509c7672aae164fba9bfd32c49748120",
    ),
    # the CI's noisy pqe config: 70 x 32 cells span two writer blocks
    "pqe-noisy": (
        ExperimentConfig(
            kind="pqe",
            angle_points=70,
            repetitions=32,
            shots=200,
            master_seed=5,
            depolarizing=0.02,
            amplitude_damping=0.01,
            phase_damping=0.01,
            readout_flip0=0.02,
            readout_flip1=0.03,
        ),
        "3b74dbaf97f6986796e10e9b0b86b57b6b24c249b283c834ddf28d76a669702b",
    ),
    # noiseless pqe: every one of its 480 d=4 finite-shot states is clipped
    "pqe-clipped": (
        ExperimentConfig(kind="pqe", master_seed=3, repetitions=8),
        "c480644e06d5d8a007ae8f1eb75ae9abe2563b8226477b6c38402495c58046d9",
    ),
}


@pytest.mark.parametrize("name", PINNED_CSV)
def test_results_csv_bytes_are_pinned(name):
    config, digest = PINNED_CSV[name]
    assert hashlib.sha256(result_csv(run_sweep(config)).encode()).hexdigest() == digest


#: sha256 of every other output of the PINNED_CSV configs: summary.txt as
#: write_results writes it, the stdout of ``interfero analyze`` and each file of
#: ``interfero report --format all``.
PINNED_OUTPUTS = {
    "bmzi-default": {
        "summary.txt": "9e0719c01ba7010819dd0c70587c42a91d111f814087694975ef7e2186c28bc9",
        "analyze": "97adf9b351f9e580d418c293199db77ce0ddc26b0858724ffa8573621094e747",
        "table.txt": "19a12499b6b646a195876366fe5d1fa23acaeb8d0e87e7a2039e624ab39439ef",
        "table.svg": "272f44c206e522a6aedf155a8d08da00e46584c3b0aaae9c09db9828c4ca3542",
        "table.csv": "ade6b6e985f8d179dcfd82de7cbf20c353addeaecd22be0aa6e41beb66b52325",
        "curves_0.svg": "59dd6a985cdff7aafaf1f41b2e84301ebf9e1dfbf670676df0fc536166ad5bf3",
    },
    "pqe-noisy": {
        "summary.txt": "45063e14faf718bf0f54b855d6227ac0336cdec2fbd0f1541c08d9716edb2918",
        "analyze": "7dd9d90ead1d15e03bc9ed74dc24bededa77a698a4685766282cd5a719cf3bba",
        "table.txt": "9ace28907b32934f20e027524b24e438ce09a134f9298e5b62cacfd2f98d996c",
        "table.svg": "42e151a0d06ef82b95f2f4d8f9aa1ca5e4f06ac4da7fa6d9e39ed7e7579f24e7",
        "table.csv": "c0bab1a4ec6315ae71e76bb509dcc1c2262d8be7e2a03f655a5c6c581980bb6a",
        "curves_0-1.svg": "31f48b91afe532ca37c374d3a0584c5ea84909810add6b1208bfb2883cd13fbe",
    },
}


#: The cache entry of a results.csv, beside it.
ENTRY = ".results.csv.tables"
#: The arrays of an entry, in order.
ENTRY_ARRAYS = ("key", "text", "kinds", "shapes", "floats")


def analyze_and_report_digests(out: Path, capsys) -> dict[str, str]:
    """sha256 of the stdout of ``interfero analyze`` on ``out`` and of every other file there after ``report --format all``."""
    capsys.readouterr()
    assert main(["analyze", "--out", str(out)]) == 0
    digests = {"analyze": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    assert main(["report", "--out", str(out), "--format", "all"]) == 0
    # the cached tables are there only where results.csv had settled when analyze read it
    written = {p.name for p in out.iterdir()} - {"results.csv", ENTRY}
    return digests | {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in written}


@pytest.mark.parametrize("name", PINNED_OUTPUTS)
def test_summary_analyze_and_report_bytes_are_pinned(name, tmp_path, capsys):
    write_results(run_sweep(PINNED_CSV[name][0]), tmp_path)
    assert analyze_and_report_digests(tmp_path, capsys) == PINNED_OUTPUTS[name]


#: The sweeps of a results.csv of several labels on several grids: two bmzi labels on one grid, a bmzi
#: label on another and a pqe label.  :func:`multi_label_csv` adds a fifth, pqe, label on the first grid.
MULTI_LABEL = (
    ExperimentConfig(kind="bmzi", angle_points=12, repetitions=6, shots=300, master_seed=21, label="q0"),
    ExperimentConfig(kind="bmzi", angle_points=12, repetitions=4, shots=300, master_seed=22, label="q1"),
    ExperimentConfig(kind="bmzi", angle_points=9, repetitions=5, shots=300, master_seed=23, label="q2"),
    ExperimentConfig(kind="pqe", angle_points=10, repetitions=4, shots=300, master_seed=24, label="e0"),
)

#: sha256 of the stdout of ``interfero analyze`` and of each file of ``interfero report --format all``
#: on :func:`multi_label_csv`, as the code wrote them that evaluated the theory once per label.
PINNED_MULTI_LABEL = {
    "analyze": "368123d8908f100e77ec25298fced50aec4d66d1d6875d341efb1a1edf1f07de",
    "curves_e0.svg": "90eecd44d18cc326626a19bd55ad26603775040edf8b2ef5aa988b82d5c8e355",
    "curves_q0.svg": "2f9b0244d4a1294e510796cfd3fe0b395f3f2532f388fee168f65c6979f77e4e",
    "curves_q1-as-pqe.svg": "a63ed8be491b4e79813737b695d7a73e603daaca8b3bc165c0e2349fff7af75c",
    "curves_q1.svg": "6b0df6f5239377b4965b7ac35fee63000c8d6618d7adacfc44f51bba7b6a985b",
    "curves_q2.svg": "cc4e82d588dc33be25fcf4fbb7fa808c989bec03a02faeecacf9e3a980fdb38d",
    "table.csv": "53d06ca340e7c2c1416c83bd9e45ee31db9c1cec4cdf5665297cd0e7e472b12b",
    "table.svg": "c285aacb392dce60ba616c301b3aad881e3b4cf5bdcaf62faf189b3e5d948c23",
    "table.txt": "015b4ab154a029b5fea3a1d509c46a787664ef1480f9ecbe7418291aa62f95ba",
}


def multi_label_csv() -> str:
    """The result_csv bodies of :data:`MULTI_LABEL` joined under one header, then q1's rows again as a pqe label."""
    bodies = [result_csv(run_sweep(config)).split("\n", 1)[1] for config in MULTI_LABEL]
    return CSV_HEADER + "\n" + "".join(bodies) + bodies[1].replace("bmzi,q1,", "pqe,q1-as-pqe,")


def test_a_file_of_several_labels_and_grids_keeps_its_pinned_outputs(tmp_path, capsys):
    (tmp_path / "results.csv").write_text(multi_label_csv(), encoding="utf-8")
    assert analyze_and_report_digests(tmp_path, capsys) == PINNED_MULTI_LABEL


@pytest.mark.parametrize("reduce", [reports_from_rows, aggregate_curves])
def test_the_theory_is_evaluated_once_per_kind_and_grid(tmp_path, monkeypatch, reduce):
    (tmp_path / "results.csv").write_text(multi_label_csv(), encoding="utf-8")
    tables = read_results(tmp_path / "results.csv")
    calls = []
    theory_series = experiments.theory_series
    for module in (experiments, report):  # analyze evaluates the curves where it is not given them
        monkeypatch.setattr(module, "theory_series", lambda kind, angles: calls.append(kind) or theory_series(kind, angles))
    reduce(tables)
    # q0 and q1 share one bmzi grid; q2, e0 and the pqe label on q1's grid each have their own curves
    assert sorted(calls) == ["bmzi", "bmzi", "pqe", "pqe"]
    assert len(tables) == 5


def oracle_csv(rows) -> str:
    """results.csv as a row-by-row writer gives it: every number through fmt12."""
    lines = [
        ",".join(
            (
                r.kind,
                r.label,
                str(r.angle_index),
                fmt12(r.angle),
                str(r.repetition),
                fmt12(r.coherence),
                fmt12(r.predictability),
                fmt12(r.total),
                fmt12(r.total_raw),
                fmt12(r.psd_violation),
            )
        )
        for r in rows
    ]
    return "\n".join([CSV_HEADER, *lines]) + "\n"


def test_write_read_round_trip(tmp_path, noisy_result):
    paths = write_results(noisy_result, tmp_path)
    (table,) = read_results(paths["results"]).values()
    rows = list(table.rows())
    assert len(rows) == len(noisy_result.records)
    for row, rec in zip(rows, noisy_result.records):
        assert row.angle_index == rec.angle_index
        assert row.repetition == rec.repetition
        assert abs(row.coherence - rec.coherence) <= 5e-13
        assert abs(row.total - rec.total) <= 5e-13
    # writing what was read back reproduces the file byte for byte
    assert oracle_csv(rows) == paths["results"].read_text(encoding="utf-8")


def table_of(values: np.ndarray, m: int = 1, label: str = "x") -> SweepTable:
    """A table holding ``values`` row by row, each row's six floats in results.csv order."""
    values = np.asarray(values, dtype=float).reshape(-1, m, 6)
    return SweepTable("bmzi", label, values[:, 0, 0].copy(), *np.moveaxis(values[..., 1:], -1, 0).copy())


def kernel_only(monkeypatch):
    """Make the row-by-row fallback of the CSV writer raise, so a passing write took the kernel."""

    def fail(*args):
        raise AssertionError("block was written row by row")

    monkeypatch.setattr(output, "_rows_text", fail)


def test_csv_kernel_writes_what_fmt12_writes(noisy_result, monkeypatch):
    rng = np.random.default_rng(20260)
    n = 60_000
    random = rng.choice([-1.0, 1.0], n) * np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-60, 13, n))
    ties = np.arange(1, 8 * 2**13, 2) / 2**13  # every exact decimal tie q / 2**13 below 8
    # and some above 2**52 / 10**12, where x * 10**12 is no longer a float's exact tie
    ties = np.concatenate([ties, (2 * rng.integers(18_500_000, 9007 * 2**12, 4096) + 1) / 2**13])
    edges = [0.0, -0.0, 5e-13, -5e-13, 1.5e-12, 9.9999999999995, 999.9999999999995, np.nextafter(FIXED12_LIMIT, 0)]
    values = np.concatenate([random, ties, -ties, edges])
    values = np.concatenate([values, np.zeros(-len(values) % 6)])
    table = table_of(values)
    kernel_only(monkeypatch)
    text = result_csv(replace(noisy_result, table=table))
    assert text == oracle_csv(table.rows())
    assert "-0.000000000000" in text and "1000.000000000000" in text


@pytest.mark.parametrize(
    "value, in_range",
    [
        (np.nextafter(FIXED12_LIMIT, 0), True),
        (-np.nextafter(FIXED12_LIMIT, 0), True),
        (FIXED12_LIMIT, False),
        (-FIXED12_LIMIT, False),
        (1e300, False),
        (float("inf"), False),
        (float("-inf"), False),
        (float("nan"), False),
    ],
)
def test_csv_values_out_of_kernel_range_are_written_by_fmt12(noisy_result, monkeypatch, value, in_range):
    calls, fallback = [], output._rows_text

    def spy(*args):
        calls.append(args)
        return fallback(*args)

    monkeypatch.setattr(output, "_rows_text", spy)
    table = table_of([[0.5, value, -value, 0.25, value, 0.0]] * 3, m=3)
    assert result_csv(replace(noisy_result, table=table)) == oracle_csv(table.rows())
    assert (not calls) == in_range


@pytest.mark.parametrize("label", ["ψ-α", "50%", "{}", "{0}%s", "a\\b"])
def test_labels_reach_results_csv_verbatim(tmp_path, label):
    path = tmp_path / "run.cfg"
    path.write_text(
        f"kind = pqe\nangle_points = 3\nrepetitions = 2\nshots = 60\nmaster_seed = 4\nlabel = {label}\n", encoding="utf-8"
    )
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    text = (tmp_path / "out" / "results.csv").read_text(encoding="utf-8")
    assert text == oracle_csv(run_sweep(parse_config(path)).records)
    assert list(read_results(tmp_path / "out" / "results.csv")) == [label]


@pytest.mark.parametrize("n, m", [(10_001, 1), (1_500, 7)])
def test_csv_blocks_join_seamlessly(noisy_result, monkeypatch, n, m):
    assert n * m > 4 * BLOCK_CELLS and n * m % BLOCK_CELLS
    values = np.random.default_rng(n).standard_normal((n * m, 6))
    values[::97] *= -0.0
    table = table_of(values, m=m, label="ψ")
    table.angles[:] = np.linspace(-np.pi, 2 * np.pi, n)
    kernel_only(monkeypatch)
    assert result_csv(replace(noisy_result, table=table)) == oracle_csv(table.rows())


def test_recomputed_reports_match_in_run_analysis(tmp_path, noisy_result):
    paths = write_results(noisy_result, tmp_path)
    recomputed = reports_from_rows(read_results(paths["results"]))[noisy_result.config.run_label]
    in_run = noisy_result.report
    for field in ("mse_sum", "mse_c", "mse_p", "corr", "mean", "std", "min", "max"):
        assert abs(getattr(recomputed, field) - getattr(in_run, field)) <= 1e-12
    assert recomputed.histogram == in_run.histogram


def test_reports_reject_incomplete_cell_grid(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text(
        CSV_HEADER + "\n"
        "bmzi,0,0,0.000000000000,0,0.1,0.9,1.0,1.0,0.0\n"
        "bmzi,0,1,0.100000000000,1,0.1,0.9,1.0,1.0,0.0\n",
        encoding="utf-8",
    )
    with pytest.raises(ValidationError, match="missing row"):
        reports_from_rows(read_results(path))


def test_read_results_guards(tmp_path):
    bad = tmp_path / "results.csv"
    bad.write_text("nope\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        read_results(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text(CSV_HEADER + "\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        read_results(empty)


def test_curves_svg_well_formed_and_theory_coincides(tmp_path):
    config = ExperimentConfig(kind="bmzi", angle_points=8, repetitions=1, analytic=True)
    result = run_sweep(config)
    paths = write_results(result, tmp_path)
    curves = aggregate_curves(read_results(paths["results"]))
    svg = render_curves(curves[config.run_label])
    ET.fromstring(svg)  # well-formed XML
    polylines = re.findall(r'<polyline points="([^"]+)" fill="none" stroke="([^"]+)"', svg)
    by_color = {}
    for points, color in polylines:
        by_color.setdefault(color, []).append(points)
    # the noiseless mean sum curve lands on the theory sum line exactly
    assert by_color["#000000"][0] == by_color["#999999"][0]


def test_curves_single_repetition_has_no_error_bars(tmp_path):
    config = ExperimentConfig(kind="bmzi", angle_points=5, repetitions=1, analytic=True)
    result = run_sweep(config)
    paths = write_results(result, tmp_path)
    curves = aggregate_curves(read_results(paths["results"]))
    svg = render_curves(curves[config.run_label])
    assert 'stroke-width="0.7"' not in svg  # error-bar style absent


def per_point_curves_tail(curve: report.CurveData) -> str:
    """render_curves from its first point list to the end, each point formatted on its own, as the renderer did
    before each point list became one %-format: the reference that its bytes must equal."""
    left, top, plot_w, plot_h = 56, 28, 448, 288
    x_min, x_max = float(curve.angles[0]), float(curve.angles[-1])
    x_lo, x_hi = (x_min, x_max) if x_max != x_min else (x_min - 1.0, x_max + 1.0)
    y_max = max(
        1.05,
        float(np.max(curve.mean_sum + curve.std_sum)) * 1.05,
        float(np.max(curve.theory_c + curve.theory_p)) * 1.05,
    )
    y_min = -0.05
    x_text = [f"{x:.2f}" for x in (left + (curve.angles - x_lo) / (x_hi - x_lo) * plot_w).tolist()]

    def y_text(ys: np.ndarray) -> list[str]:
        return [f"{y:.2f}" for y in (top + (y_max - ys) / (y_max - y_min) * plot_h).tolist()]

    def polyline(ys: np.ndarray, color: str, stroke_width: float) -> str:
        pts = " ".join(map("{},{}".format, x_text, y_text(ys)))
        return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{stroke_width}" opacity="1.00"/>'

    parts = [polyline(curve.theory_c + curve.theory_p, "#999999", 0.8)]
    parts += [polyline(curve.theory_c, "#d9b38c", 0.8), polyline(curve.theory_p, "#9cb8d9", 0.8)]
    for mean, std, key in (
        (curve.mean_sum, curve.std_sum, "sum"),
        (curve.mean_c, curve.std_c, "coherence"),
        (curve.mean_p, curve.std_p, "predictability"),
    ):
        color = report.CURVE_COLORS[key]
        bar = std > 0
        parts.extend(
            f'<line x1="{x}" y1="{y1}" x2="{x}" y2="{y2}" stroke="{color}" stroke-width="0.7" opacity="0.6"/>'
            for x, y1, y2 in zip(compress(x_text, bar.tolist()), y_text((mean - std)[bar]), y_text((mean + std)[bar]))
        )
        parts.append(polyline(mean, color, 1.6))
    return "\n".join([*parts, "</svg>"]) + "\n"


def curve_of(mean, std, angles=None) -> report.CurveData:
    """A curve whose coherence is ``mean`` and ``std``, whose predictability is them reversed and whose sum is their
    sum, over ``angles`` (by default the bmzi grid of their length), with that grid's bmzi theory."""
    mean, std = np.asarray(mean, dtype=float), np.asarray(std, dtype=float)
    if angles is None:
        angles = ExperimentConfig(kind="bmzi", angle_points=max(2, len(mean))).angles()[: len(mean)]
    angles = np.asarray(angles, dtype=float)
    sums = (mean + mean[::-1], std + std[::-1])
    return report.CurveData("x", "bmzi", angles, mean, std, mean[::-1], std[::-1], *sums, *theory_series("bmzi", angles))


@pytest.mark.parametrize(
    "curve",
    [
        pytest.param(curve_of([0.4], [0.1], angles=[0.5]), id="one-angle"),
        pytest.param(curve_of(np.linspace(0.0, 1.0, 12), np.zeros(12)), id="no-bars"),
        pytest.param(curve_of(np.linspace(0.0, 1.0, 12), [0.0, 0.05] * 6), id="bars-at-alternate-angles"),
        # 1.15695 maps a hair above the plot's top edge, to the text -0.00
        pytest.param(curve_of([-0.0, -0.3, -2.0, 1.15695, 0.0, -1e-3], [0.0, 0.01, 0.1, 0.0, 0.2, 0.0]), id="below-axis"),
        pytest.param(curve_of(1e6 * np.array([1.0, -2.5, 0.3, 7.0]), [1e5, 0.0, 3e6, 1.0]), id="magnitudes-1e6"),
        pytest.param(curve_of([0.2, np.nan, 0.5, 0.7], [np.nan, 0.1, 0.0, 0.05]), id="nan"),
    ],
)
def test_curves_point_lists_equal_a_per_point_format(curve):
    svg, tail = render_curves(curve), per_point_curves_tail(curve)
    assert svg[svg.index("<polyline") :] == tail


def test_a_point_above_the_plot_is_drawn_at_minus_zero():
    assert "-0.00" in per_point_curves_tail(curve_of([-0.0, -0.3, -2.0, 1.15695, 0.0, -1e-3], [0.0] * 6))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 30).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
            st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e3)), min_size=n, max_size=n),
        )
    )
)
def test_curves_of_drawn_finite_arrays_equal_a_per_point_format(values):
    svg, tail = render_curves(curve_of(*values)), per_point_curves_tail(curve_of(*values))
    assert svg[svg.index("<polyline") :] == tail


def per_point_sparkline_points(rows: list[tuple[str, MseReport]]) -> list[str]:
    """The points of each row's histogram polyline in the SVG sparkline table, each point formatted on its own, as
    the renderer did before each row's points became one %-format: the reference that its bytes must equal."""
    left_cols = 320 + 7 * (max(8, *(len(label) for label, _ in rows)) - 8)
    points = []
    for k, (_, shown) in enumerate(rows):
        base = 26 + k * 30 + 20 + 4
        peak = max(max(shown.histogram), 1)
        xs = [left_cols + (b + 0.5) / 60 * 240 for b in range(60)]
        points.append(" ".join(f"{x:.2f},{base - count / peak * 20:.2f}" for x, count in zip(xs, shown.histogram)))
    return points


def test_sparkline_points_equal_a_per_point_format():
    rows = [
        ("q", summarize([0.2])),
        ("a-label-of-15ch", summarize([0.05, 0.2, 0.5])),
        ("z", _shown(mean=0.1, std=0.0, corr=-0.3, min=0.0, max=0.2, histogram=tuple([3] + [1] * 10 + [0] * 49))),
        ("e", _shown(mean=0.1, std=0.0, corr=0.0, min=0.0, max=0.0, histogram=(0,) * 60)),
        ("big", _shown(mean=0.1, std=0.0, corr=0.0, min=0.0, max=0.0, histogram=tuple(range(10**6, 10**6 + 60)))),
    ]
    svg = render_sparkline_table(rows)[1]
    assert re.findall(r'<polyline points="([^"]+)"', svg) == per_point_sparkline_points(rows)


def test_sparkline_single_value_distribution():
    report = summarize([0.2])
    text, svg = render_sparkline_table([summary_row("q", report)])
    ET.fromstring(svg)
    lines = text.splitlines()
    spark_line, marker_line = lines[1], lines[2]
    assert spark_line.count("█") == 1  # one full-height bin
    assert marker_line.count("^") == 1  # min, mean, max markers coincide


def _shown(**fields) -> MseReport:
    """A report holding the fields a sparkline row shows; the decomposition is left NaN."""
    nan = float("nan")
    return MseReport(mse_sum=nan, mse_c=nan, mse_p=nan, overflow=0, **fields)


def test_sparkline_negative_corr_flagged():
    row = (
        "17",
        _shown(mean=0.062, std=0.046, corr=-0.294, min=0.024, max=0.22, histogram=tuple([3] + [1] * 10 + [0] * 49)),
    )
    text, svg = render_sparkline_table([row])
    assert "-0.294*" in text
    assert 'fill="#cc0000">-0.294</text>' in svg


def test_sparkline_numbers_round_per_column_rules():
    row = (
        "0",
        _shown(mean=0.16349, std=0.02649, corr=0.01751, min=0.09149, max=0.2199, histogram=tuple([2] * 10 + [0] * 50)),
    )
    text, _ = render_sparkline_table([row])
    body = text.splitlines()[1]
    for rendered in ("0.163", "0.026", "0.018", "0.091", "0.22"):
        assert rendered in body


def test_sparkline_normalisation_peak_is_full_height():
    hist = [0] * 60
    hist[5], hist[6], hist[7] = 2, 8, 4
    row = ("x", _shown(mean=0.1, std=0.0, corr=0.0, min=0.1, max=0.13, histogram=tuple(hist)))
    text, _ = render_sparkline_table([row])
    header, body = text.splitlines()[:2]
    start = header.index("MSE histogram")
    spark = body[start : start + 60]
    assert spark[6] == "█"  # tallest bin renders at full glyph height
    assert spark[5] != "█" and spark[7] != "█"
    assert spark[0] == " "  # empty bins stay blank


@pytest.mark.parametrize("label", ["q", "a-label-of-15ch"])
def test_sparkline_markers_sit_under_the_min_mean_and_max_bins(label):
    shown = summarize([0.05, 0.2, 0.5])
    lines = render_sparkline_table([("s0", shown), (label, shown)])[0].splitlines()
    start = lines[0].index("MSE histogram")
    for row, marker in zip(lines[1::2], lines[2::2]):
        assert len(row) == len(lines[0]) and row[start : start + 60] == report._spark_glyphs(shown.histogram)
        assert [k - start for k, ch in enumerate(marker) if ch == "^"] == [3, 15, 30]  # min 0.05, mean 0.25, max 0.5


@pytest.mark.parametrize("label, shift", [("q", 0), ("8-chars!", 0), ("a-label-of-15ch", 49)])
def test_sparkline_svg_columns_start_past_the_longest_label(label, shift):
    svg = ET.fromstring(render_sparkline_table([("s0", summarize([0.1, 0.2])), (label, summarize([0.3]))])[1])
    texts = svg.findall("{http://www.w3.org/2000/svg}text")
    columns = [x + shift for x in (68, 128, 188, 248, 320, 572)]  # mean, std, corr, min, histogram, max
    assert [float(t.get("x")) for t in texts[:7]] == [8, *columns]
    assert float(svg.get("width")) == 630 + shift
    shown = [t for t in texts if t.text == label]
    assert len(shown) == 1 and float(shown[0].get("x")) == 8
    # about 6 px per character at font-size 11: the label ends before the mean column starts
    assert 8 + 6 * len(label) < 68 + shift


def test_sparkline_rejects_empty():
    with pytest.raises(ValidationError):
        render_sparkline_table([])


def test_summary_text_round_trips_config(tmp_path, noisy_result):
    text = summary_text(noisy_result)
    assert "mse_sum_mean = " in text
    assert "histogram = " in text
    cfg_path = tmp_path / "snapshot.cfg"
    cfg_path.write_text("\n".join(config_lines(noisy_result.config)) + "\n", encoding="utf-8")
    assert parse_config(cfg_path) == noisy_result.config


def test_manifest_contents(tmp_path, noisy_result):
    paths = write_results(noisy_result, tmp_path)
    manifest = write_manifest(tmp_path, noisy_result, list(paths.values()), "0.1.0")
    text = manifest.read_text(encoding="utf-8")
    assert "tool = interfero" in text
    assert f"master_seed = {noisy_result.config.master_seed}" in text
    assert "results.csv" in text
    assert parse_config(tmp_path / "config.cfg") == noisy_result.config


def test_manifest_records_the_python_numpy_and_blas_versions_apart_from_the_outputs(tmp_path, noisy_result):
    paths = write_results(noisy_result, tmp_path)
    written = {name: path.read_bytes() for name, path in paths.items()}
    manifest = write_manifest(tmp_path, noisy_result, list(paths.values()), "0.1.0")
    lines = manifest.read_text(encoding="utf-8").splitlines()
    assert f"python = {platform.python_version()}" in lines
    assert f"numpy = {np.__version__}" in lines
    blas = [line for line in lines if line.startswith("blas = ")]
    assert len(blas) == 1 and len(blas[0]) > len("blas = ")
    assert {name: path.read_bytes() for name, path in paths.items()} == written
    assert written["summary"] == summary_text(noisy_result).encode() and b"numpy" not in written["summary"]


# numpy 1.24's show_config takes no mode
@pytest.mark.parametrize("show_config", [lambda mode: {}, lambda: None], ids=["no-blas-entry", "no-dicts-mode"])
def test_manifest_blas_line_without_build_information(tmp_path, noisy_result, monkeypatch, show_config):
    monkeypatch.setattr(np, "show_config", show_config)
    text = write_manifest(tmp_path, noisy_result, [], "0.1.0").read_text(encoding="utf-8")
    assert "blas = unknown\n" in text


@pytest.mark.parametrize(
    "config, clipped",
    [
        *(pytest.param(config, True, id=name) for name, (config, _) in PINNED_CSV.items()),
        # pure states: their masses are float residue (up to 4e-16), which results.csv writes as 0
        pytest.param(ExperimentConfig(kind="bmzi", repetitions=2, analytic=True), False, id="bmzi-analytic"),
        pytest.param(ExperimentConfig(kind="pqe", repetitions=2, analytic=True), False, id="pqe-analytic"),
    ],
)
def test_manifest_counters_match_a_recount_of_results_csv(tmp_path, config, clipped):
    result = run_sweep(config)
    paths = write_results(result, tmp_path)
    written = {key: path.read_bytes() for key, path in paths.items()}
    lines = write_manifest(tmp_path, result, list(paths.values()), "0.1.0").read_text(encoding="utf-8").splitlines()
    fields = dict(line.split(" = ", 1) for line in lines)
    rows = [line.split(",") for line in written["results"].decode().splitlines()[1:]]
    raw, mass = ([row[k] for row in rows] for k in (8, 9))
    d = 2 if config.kind == "bmzi" else 4
    assert fields["cells"] == str(len(rows))
    assert fields["shots"] == str(len(rows) * (d * d - 1) * (0 if config.analytic else config.shots))
    assert fields["clipped_cells"] == str(sum(text != fmt12(0) for text in mass))
    assert (fields["clipped_cells"] != "0") == clipped
    assert fields["clipped_mass_max"] == max(mass)
    # the total of the texts, summed exactly in units of 1e-12
    total = sum(int(text.replace(".", "")) for text in mass)
    assert fields["clipped_mass_total"] == f"{total // 10**12}.{total % 10**12:012d}"
    assert fields["raw_over_bound_cells"] == str(sum(float(text) > d - 1 for text in raw))
    assert {key: path.read_bytes() for key, path in paths.items()} == written


def test_pqe_rows_recompute_against_dim_four_theory(tmp_path):
    config = ExperimentConfig(kind="pqe", angle_points=4, repetitions=2, shots=300, master_seed=3)
    result = run_sweep(config)
    paths = write_results(result, tmp_path)
    recomputed = reports_from_rows(read_results(paths["results"]))[config.run_label]
    for field in ("mse_sum", "mse_c", "mse_p", "corr", "mean", "std", "min", "max"):
        assert abs(getattr(recomputed, field) - getattr(result.report, field)) <= 1e-12
    assert recomputed.histogram == result.report.histogram
    assert recomputed.overflow == result.report.overflow


def test_aggregate_curves_mean_and_std(tmp_path):
    config = ExperimentConfig(kind="bmzi", angle_points=3, repetitions=5, shots=100, master_seed=8)
    result = run_sweep(config)
    paths = write_results(result, tmp_path)
    tables = read_results(paths["results"])
    curve = aggregate_curves(tables)[config.run_label]
    per_angle = [r.coherence for r in tables[config.run_label].rows() if r.angle_index == 1]
    assert curve.mean_c[1] == pytest.approx(float(np.mean(per_angle)), abs=5e-13)
    assert curve.std_c[1] == pytest.approx(float(np.std(per_angle)), abs=5e-13)


@pytest.mark.parametrize("kind", ["bmzi", "pqe"])
def test_a_runs_table_reduces_as_its_file_does(kind):
    config = ExperimentConfig(kind=kind, angle_points=5, repetitions=3, shots=200, master_seed=6, depolarizing=0.02)
    result = run_sweep(config)
    tables = {config.run_label: result.table}
    # both score the table against theory_series of its grid, so the reports are equal, not close
    assert reports_from_rows(tables)[config.run_label] == result.report
    ET.fromstring(render_curves(aggregate_curves(tables)[config.run_label]))


def _tables_equal(a, b):
    assert list(a) == list(b)
    for label in a:
        ta, tb = a[label], b[label]
        assert (ta.kind, ta.label) == (tb.kind, tb.label)
        for name in ("angles", "coherence", "predictability", "total", "total_raw", "psd_violation"):
            x, y = getattr(ta, name), getattr(tb, name)
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_shuffled_rows_give_the_same_tables_and_reports(tmp_path, noisy_result):
    pqe = run_sweep(ExperimentConfig(kind="pqe", angle_points=4, repetitions=3, shots=200, master_seed=5, label="e"))
    lines = result_csv(noisy_result).splitlines() + result_csv(pqe).splitlines()[1:]
    ordered = tmp_path / "ordered.csv"
    ordered.write_text("\n".join(lines) + "\n", encoding="utf-8")
    body = lines[1:]
    np.random.default_rng(4).shuffle(body)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([CSV_HEADER, *body]) + "\n", encoding="utf-8")
    a, b = read_results(ordered), read_results(shuffled)
    # tables come in order of each label's first row
    first = body[0].split(",")[1]
    assert list(b)[0] == first
    _tables_equal(a, {label: b[label] for label in a})
    assert reports_from_rows(a) == {label: reports_from_rows(b)[label] for label in a}


def test_crlf_line_ends_are_accepted(tmp_path, noisy_result):
    lf = write_results(noisy_result, tmp_path / "lf")["results"]
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    _tables_equal(read_results(lf), read_results(crlf))


def test_read_tables_are_c_contiguous_grids(tmp_path, noisy_result):
    path = write_results(noisy_result, tmp_path)["results"]
    header, *body = path.read_text(encoding="utf-8").splitlines()
    reversed_path = tmp_path / "reversed.csv"
    reversed_path.write_text("\n".join([header, *body[::-1]]) + "\n", encoding="utf-8")
    # rows in file order are grouped where they are, reversed ones after a sort
    for p in (path, reversed_path):
        table = read_results(p)[noisy_result.config.run_label]
        assert table.coherence.shape == (6, 3)
        assert all(getattr(table, name).flags.c_contiguous for name in METRICS)
        assert np.array_equal(table.angles, np.round(noisy_result.angles, 12))


#: A row far into :func:`long_lines`, past the first few thousand rows.
FAR_ROW = 4096


@pytest.fixture(scope="module")
def long_lines():
    """The results.csv lines of a sweep of 72 x 64 = 4,608 rows."""
    config = ExperimentConfig(kind="bmzi", angle_points=72, repetitions=64, analytic=True)
    lines = result_csv(run_sweep(config)).splitlines()
    assert len(lines) - 1 == 4608 > FAR_ROW + 100
    return lines


@pytest.mark.parametrize("offset", [0, 1, 57])
def test_a_fault_past_the_first_block_names_its_own_line(tmp_path, long_lines, offset):
    lines = list(long_lines)
    ln = FAR_ROW + 1 + offset + 1  # line numbers count the header as line 1
    parts = lines[ln - 1].split(",")
    parts[6] = "x"
    lines[ln - 1] = ",".join(parts)
    path = tmp_path / "results.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError) as info:
        read_results(path)
    assert str(info.value) == f"{path}:{ln}: predictability must be a number, got 'x'"


def test_a_duplicate_far_into_the_file_names_its_own_line(tmp_path, long_lines):
    lines = list(long_lines)
    ln = FAR_ROW + 40
    lines[ln - 1] = lines[ln - 3]
    lines[ln + 9] = lines[9]
    path = tmp_path / "results.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=rf":{ln}: duplicate row .* \(first at line {ln - 2}\)$"):
        read_results(path)
    # a cell first seen thousands of rows earlier
    lines[ln - 1] = long_lines[ln - 1]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=rf":{ln + 10}: duplicate row .* \(first at line 10\)$"):
        read_results(path)


def test_a_line_fault_far_into_the_file_loses_to_a_grid_fault_on_an_earlier_line(tmp_path, long_lines):
    lines = list(long_lines)
    lines[FAR_ROW + 20] = lines[FAR_ROW + 20].replace("bmzi", "mzi", 1)
    lines[9] = lines[9].replace("bmzi", "pqe", 1)
    path = tmp_path / "results.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r":10: label '0' has kind 'pqe', but 'bmzi' on earlier rows$"):
        read_results(path)


def test_an_index_beyond_64_bits_is_a_line_fault(tmp_path, noisy_result):
    lines = result_csv(noisy_result).splitlines()
    parts = lines[3].split(",")
    parts[4] = str(2**64)
    lines[3] = ",".join(parts)
    path = tmp_path / "results.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=rf":4: repetition must fit in 64 bits, got '{2**64}'$"):
        read_results(path)


def test_angle_index_and_repetition_gaps_read_back_renumbered(tmp_path):
    path = tmp_path / "results.csv"
    lines = [
        f"bmzi,g,{i},{angle:.12f},{r},0.1,0.9,1.0,1.0,0.0"
        for i, angle in ((0, 0.0), (3, 0.3), (7, 0.7))
        for r in (2, 5)
    ]
    path.write_text("\n".join([CSV_HEADER, *lines]) + "\n", encoding="utf-8")
    table = read_results(path)["g"]
    rows = list(table.rows())
    assert [(row.angle_index, row.repetition) for row in rows] == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
    assert [row.angle for row in rows] == [0.0, 0.0, 0.3, 0.3, 0.7, 0.7]
    assert np.array_equal(table.angles, [0.0, 0.3, 0.7])


@pytest.fixture(scope="module")
def clean_lines():
    """A valid results.csv of two labels, one per kind, as lines."""
    bmzi = run_sweep(ExperimentConfig(kind="bmzi", angle_points=3, repetitions=2, shots=50, master_seed=3, label="b"))
    pqe = run_sweep(ExperimentConfig(kind="pqe", angle_points=2, repetitions=2, shots=50, master_seed=4, label="q"))
    return result_csv(bmzi).splitlines() + result_csv(pqe).splitlines()[1:]


def _outcome(path):
    """The tables ``read_results`` gives for ``path``, or its error message."""
    try:
        return read_results(path)
    except ValidationError as exc:
        return str(exc)


def _uncached(mp):
    """Every read a parse, and nothing stored."""
    mp.setattr(report, "_read_entry", lambda entry, stat: None)
    mp.setattr(report, "_store", lambda *args: None)


def _line_outcome(path):
    """:func:`_outcome` with the whole-file reader declining every file, and no cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "_load_file", lambda path, data: None)
        _uncached(mp)
        return _outcome(path)


def _assert_read_like_the_line_reader(path):
    """The reader as it stands gives the tables, or the error, of the line-by-line reader alone."""
    outcome, by_line = _outcome(path), _line_outcome(path)
    if isinstance(by_line, str):
        assert outcome == by_line
    else:
        _tables_equal(outcome, by_line)


def _kernel(path):
    """The columns the whole-file kernel reads from ``path``, or None where it declines the file."""
    return report._load_file(path, path.read_bytes())


def _columns_identical(a, b):
    """Two (ints, floats, labels, fault) column sets hold the same values, bit for bit."""
    assert a[2:] == b[2:]
    for x, y in zip(a[:2], b[:2]):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def _write_lines(path, lines):
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    return path


def test_the_kernel_declines_the_text_it_could_read_differently(tmp_path, clean_lines):
    path = _write_lines(tmp_path / "results.csv", clean_lines)
    _columns_identical(_kernel(path), report._read_lines(path))
    assert _kernel(_write_lines(path, clean_lines[:1])) is None
    # an empty line is no row of the writer's grammar
    assert _kernel(_write_lines(path, clean_lines[:3] + [""] + clean_lines[3:])) is None
    for index in ("1\u01fe", "1\x1f"):  # numpy's old reader read these as 472 and 1, Python's int rejects them
        parts = clean_lines[1].split(",")
        parts[2] = index
        kernel = _kernel(_write_lines(path, [CSV_HEADER, ",".join(parts)]))
        assert report._read_lines(path)[3] == (0, f"angle_index must be an integer, got {index!r}")
        # a control byte declines the file; a non-ASCII letter is a number outside the grammar, its line's fault
        if index == "1\x1f":
            assert kernel is None
        else:
            _columns_identical(kernel, report._read_lines(path))
    # a non-ASCII label keeps its UTF-8 bytes through the kernel
    relabelled = [line.replace(",b,", ",\u03bb,") for line in clean_lines]
    ints, floats, labels, fault = _kernel(_write_lines(path, relabelled))
    assert labels == ["\u03bb", "q"] and fault is None
    _columns_identical((ints, floats, labels, fault), report._read_lines(path))


def test_the_line_reader_holds_less_than_three_times_the_file(tmp_path, long_lines):
    lines = list(long_lines)
    assert lines[65].split(",")[2] == "1"
    lines[65] = _set_field(lines[65], 2, "0_1")  # Python's int reads 1, the kernel's grammar rejects it
    path = _write_lines(tmp_path / "results.csv", lines)
    assert _kernel(path) is None
    tracemalloc.start()
    try:
        ints, floats, labels, fault = report._read_lines(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fault is None and ints.shape == (4, 4608) and floats.shape == (6, 4608)
    # the text's lines are the peak; a list of every field's string would hold several times the file
    assert peak < 3 * path.stat().st_size


MANGLED = (
    "1_0", "\u0661", "1\u01fe", "\x1f", "1\x1f", "nan", "-inf", "1e400", str(2**63), str(-(2**63)),
    str(-(2**63) - 1), "+1", " 1 ", "\t1", "1.0", "", "-0.0", ".5", "1e-320", "0.10000000000000000555", "1\x00",
    "1\xa0", "\xc5",
)
ODD_LABELS = (
    "\u03bb", "\xe4", "a#b", "#", "  lead", "trail\x00", "x\x1fy", "b", "w" * 31, "w" * 32, "w" * 33, "w" * 300,
    "s\x1f1", "\x1fs", "s1\x1f", "\x1f", "s\x001", "\x00s", "\x00", "s\x00\x00",
)


@st.composite
def mutated_results(draw, lines):
    """The text of ``lines`` after up to three line faults, odd labels, blank lines and a choice of line end."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(1, len(lines) - 1))
        parts = lines[k].split(",")
        how = draw(st.sampled_from(("number",) * 4 + ("relabel",) * 2 + ("label", "drop", "add", "blank")))
        if how == "drop":
            del parts[draw(st.integers(0, len(parts) - 1))]
        elif how == "add":
            parts.insert(draw(st.integers(0, len(parts))), draw(st.sampled_from(MANGLED)))
        elif how == "number" and len(parts) > 2:
            parts[draw(st.integers(2, len(parts) - 1))] = draw(st.sampled_from(MANGLED))
        elif how == "label" and len(parts) > 1:
            parts[1] = draw(st.sampled_from(ODD_LABELS))
        elif how == "relabel" and len(parts) > 1:
            old, new = parts[1], draw(st.sampled_from(ODD_LABELS))
            rows = [line.split(",") for line in lines]
            lines = [",".join([row[0], new, *row[2:]] if row[1:2] == [old] else row) for row in rows]
            continue
        elif how == "blank":
            lines.insert(k, draw(st.sampled_from(("", " ", "\t"))))
            continue
        lines[k] = ",".join(parts)
    end = draw(st.sampled_from(("\n", "\r\n", "\r")))
    return end.join(lines) + draw(st.sampled_from((end, "")))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_the_kernel_and_the_line_reader_agree(tmp_path_factory, clean_lines, data):
    text = data.draw(mutated_results(clean_lines))
    directory = tmp_path_factory.mktemp("differential")
    path = directory / "results.csv"
    path.write_bytes(text.encode("utf-8"))
    # a line the kernel converts, Python converts to the same values
    line_path = directory / "line.csv"
    for line in text.splitlines()[1:]:
        _write_lines(line_path, [CSV_HEADER, line])
        fast = _kernel(line_path)
        if fast is not None:
            _columns_identical(fast, report._read_lines(line_path))
    _assert_read_like_the_line_reader(path)


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda t: t.replace(",b,", ",b\x00,"), id="nul-in-label"),
        pytest.param(lambda t: t.replace(",b,", ",x\x1fy,"), id="unit-separator-in-label"),
        pytest.param(lambda t: t.replace(",b,", ",\x1fb\x1f,"), id="unit-separators-ending-a-label"),
        pytest.param(lambda t: t.replace(",b,", ",\x00b\x00b,"), id="nul-inside-a-label"),
        pytest.param(lambda t: t.replace(",b,1,", ",b,1\x1f,", 1), id="unit-separator-in-a-number"),
        pytest.param(lambda t: t.replace(",b,1,", ",b,\x001,", 1), id="nul-in-a-number"),
        pytest.param(lambda t: t.replace(",b,", ",x\x0cy,"), id="form-feed-in-label"),
        pytest.param(lambda t: t.replace(",b,", ",x\x85y,"), id="next-line-in-label"),
        pytest.param(lambda t: t.replace(",b,", ",x\u2028y,"), id="line-separator-in-label"),
        pytest.param(lambda t: t.replace("\n", "\n\n", 3), id="empty-line"),
        pytest.param(lambda t: re.sub(r"\n.*", "\n \n\t", t, count=1, flags=re.S), id="only-blank-lines"),
        pytest.param(lambda t: t.replace("bmzi,", "bmzix,", 1), id="kind-bmzix"),
        pytest.param(lambda t: t.replace("bmzi,", "bmzi\xe9,", 1), id="kind-non-ascii"),
        pytest.param(lambda t: t.replace("kind,", "kind ,", 1), id="header"),
        pytest.param(lambda t: t.replace(",b,1,", ",b,1_0,", 1), id="numpy-raises"),
        pytest.param(lambda t: t.replace(",b,1,", ",b,\u0661,", 1), id="non-ascii-digit"),
        pytest.param(lambda t: t.split("\n", 1)[0] + "\n", id="header-only"),
        pytest.param(lambda t: t.replace(",b,", f",{'w' * 4000},", 1), id="one-line-far-longer-than-the-rest"),
        pytest.param(lambda t: t.replace(",b,", ",\udce4,"), id="label-not-utf8"),  # written as the byte 0xe4
    ],
)
def test_the_kernel_declines_to_the_line_reader(tmp_path, clean_lines, mutate):
    clean = "\n".join(clean_lines) + "\n"
    text = mutate(clean)
    assert text != clean
    path = tmp_path / "results.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert _kernel(path) is None
    _assert_read_like_the_line_reader(path)


@pytest.mark.parametrize(
    "mutate, fault",
    [
        pytest.param(
            lambda t: re.sub(r"^(pqe,q,1,[^,]*,1,)[^,]*", r"\g<1>inf", t, flags=re.M),
            (9, "coherence must be finite, got 'inf'"),
            id="non-finite-number",
        ),
        pytest.param(
            lambda t: t.replace(",b,1,", f",b,{2**63},", 1), (2, f"angle_index must fit in 64 bits, got '{2**63}'"),
            id="index-beyond-64-bits",
        ),
    ],
)
def test_the_kernel_names_a_fault_in_a_number_python_reads(tmp_path, clean_lines, mutate, fault):
    path = tmp_path / "results.csv"
    path.write_bytes(mutate("\n".join(clean_lines) + "\n").encode("utf-8"))
    # the rows before the faulty line, only their labels, and its fault, as the line reader gives them
    kernel = _kernel(path)
    _columns_identical(kernel, report._read_lines(path))
    assert kernel[3] == fault
    _assert_read_like_the_line_reader(path)


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda t: t.replace("\n", "\r\n"), id="crlf"),
        pytest.param(lambda t: t.replace("\n", "\r"), id="lone-cr"),
        pytest.param(lambda t: t.replace("\n", "\r", 4), id="mixed-line-ends"),
        pytest.param(lambda t: t.rstrip("\n"), id="no-final-newline"),
        pytest.param(lambda t: t.replace(",b,", ",\u03bb\xe5\U0001f600,"), id="non-ascii-label"),
        pytest.param(lambda t: t.replace(",b,", f",{'w' * 300},"), id="long-label"),
        pytest.param(lambda t: t.replace(",b,", ",w w\t ,"), id="label-with-inner-and-trailing-whitespace"),
    ],
)
def test_the_kernel_takes_what_it_reads_as_python_does(tmp_path, clean_lines, mutate):
    clean = "\n".join(clean_lines) + "\n"
    text = mutate(clean)
    assert text != clean
    path = tmp_path / "results.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _kernel(path) is not None
    _assert_read_like_the_line_reader(path)
    assert len(_outcome(path)) == 2


def test_interleaved_labels_are_coded_run_by_run(tmp_path, clean_lines):
    rows = clean_lines[1:]
    b, q = [line for line in rows if ",b," in line], [line for line in rows if ",q," in line]
    assert len(b) > len(q) > 1
    # every row starts a new run of (kind, label), and the labels change order twice
    interleaved = [line for pair in zip(b, q) for line in pair] + b[len(q) :]
    path = tmp_path / "results.csv"
    path.write_text("\n".join([CSV_HEADER, *interleaved]) + "\n", encoding="utf-8")
    ints, floats, labels, fault = _kernel(path)
    assert labels == ["b", "q"] and fault is None
    assert ints[0].tolist() == [0, 1] * len(q) + [0] * (len(b) - len(q))
    assert ints[1].tolist() == [0, 1] * len(q) + [0] * (len(b) - len(q))
    _tables_equal(_outcome(path), _line_outcome(path))


def _sorted_outcome(path):
    """:func:`_outcome` with the rows sorted before they are grouped, in order or not, and no cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "_in_order", lambda *keys: False)
        _uncached(mp)
        return _outcome(path)


def _set_field(line, k, value):
    parts = line.split(",")
    parts[k] = value
    return ",".join(parts)


def _angle(line):
    return float(line.split(",")[3])


# Each case changes the data rows of ``clean_lines``: label b's 3 angles x 2 repetitions (lines
# 2-7), then label q's 2 x 2 (lines 8-11).  Expected: whether the rows stay in order, then the
# error of the file and of its reversed copy, or None where both give the clean tables.
GROUPING_CASES = {
    "labels-interleaved": (lambda rows: rows[:2] + rows[6:] + rows[2:6], False, None, None),
    "repetitions-reversed": (lambda rows: rows[:2] + rows[3:1:-1] + rows[4:], False, None, None),
    "adjacent-duplicate": (
        lambda rows: rows[:3] + rows[2:],
        True,
        ":5: duplicate row for label 'b', angle index 1, repetition 0 (first at line 4)",
        ":10: duplicate row for label 'b', angle index 1, repetition 0 (first at line 9)",
    ),
    "missing-cell": (
        lambda rows: rows[:3] + rows[4:],
        True,
        ": label 'b': missing row for angle index 1, repetition 1",
        ": label 'b': missing row for angle index 1, repetition 1",
    ),
    "later-angle-differs": (
        lambda rows: rows[:3] + [_set_field(rows[3], 3, "9.000000000000")] + rows[4:],
        True,
        ":5: label 'b', angle index 1 has angle 9.0, but {a} on earlier rows",
        ":9: label 'b', angle index 1 has angle {a}, but 9.0 on earlier rows",
    ),
    "kind-changes-within-a-label": (
        lambda rows: rows[:4] + [_set_field(rows[4], 0, "pqe")] + rows[5:],
        True,
        ":6: label 'b' has kind 'pqe', but 'bmzi' on earlier rows",
        ":7: label 'b' has kind 'pqe', but 'bmzi' on earlier rows",
    ),
}


@pytest.mark.parametrize("case", GROUPING_CASES)
def test_rows_in_order_and_sorted_rows_group_alike(tmp_path, clean_lines, case):
    mutate, in_order, error, reversed_error = GROUPING_CASES[case]
    header, *rows = clean_lines
    assert [line.split(",")[1] for line in rows] == ["b"] * 6 + ["q"] * 4
    clean = _outcome(_write_lines(tmp_path / "clean.csv", clean_lines))
    changed = mutate(rows)
    angle = _angle(rows[2])
    for path, rows_in_order, expected in (
        (_write_lines(tmp_path / "results.csv", [header, *changed]), in_order, error),
        (_write_lines(tmp_path / "reversed.csv", [header, *changed[::-1]]), False, reversed_error),
    ):
        ints = _kernel(path)[0]
        assert report._in_order(ints[0], ints[2], ints[3]) == rows_in_order
        outcome = _outcome(path)
        if expected is None:
            _tables_equal(clean, {label: outcome[label] for label in clean})
            _tables_equal(outcome, _sorted_outcome(path))
        else:
            assert outcome == f"{path}{expected.format(a=angle)}" == _sorted_outcome(path)


@pytest.mark.parametrize("label", [None, "\u03c8-\u03b1 " + "w" * 200])
def test_a_file_interfero_run_writes_takes_the_whole_file_reader(tmp_path, monkeypatch, label):
    config = tmp_path / "noisy.cfg"
    text = "kind = pqe\nangle_points = 5\nrepetitions = 3\nshots = 100\ndepolarizing = 0.02\n"
    config.write_text(text + (f"label = {label}\n" if label else ""), encoding="utf-8")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0

    def unreached(*args):
        raise AssertionError("the line-by-line reader was reached")

    monkeypatch.setattr(report, "_read_lines", unreached)
    tables = read_results(tmp_path / "out" / "results.csv")
    assert list(tables) == [label or "0-1"] and tables[label or "0-1"].coherence.shape == (5, 3)


@pytest.fixture(scope="module")
def long_text(noisy_result):
    """The results.csv text of one label's 960 x 128 = 122,880 rows, the benchmark's size, written by the writer's kernel."""
    values = np.random.default_rng(26).uniform(-1.0, 4.0, (960 * 128, 6))
    table = table_of(values, m=128, label="s0")
    table.angles[:] = np.linspace(-np.pi, np.pi, 960)
    return result_csv(replace(noisy_result, table=table))


def _last_line_fault_without_the_line_reader(path, monkeypatch, long_text, value):
    """The error ``read_results`` names for ``long_text`` with ``value`` as the last line's predictability."""
    rows, last = long_text[:-1].rsplit("\n", 1)
    path.write_text(f"{rows}\n{_set_field(last, 6, value)}\n", encoding="utf-8")
    # the kernel gives the rows before the faulty line, and its fault, as the line reader does
    _columns_identical(_kernel(path), report._read_lines(path))

    def unreached(*args):
        raise AssertionError("the line-by-line reader was reached")

    monkeypatch.setattr(report, "_read_lines", unreached)
    with pytest.raises(ValidationError) as info:
        read_results(path)
    return str(info.value)


def test_a_fault_on_the_last_line_of_a_long_file_is_named_without_the_line_reader(tmp_path, monkeypatch, long_text):
    path = tmp_path / "results.csv"
    message = _last_line_fault_without_the_line_reader(path, monkeypatch, long_text, "x")
    assert message == f"{path}:{960 * 128 + 1}: predictability must be a number, got 'x'"


def test_a_non_finite_number_on_the_last_line_of_a_long_file_is_named_without_the_line_reader(
    tmp_path, monkeypatch, long_text
):
    path = tmp_path / "results.csv"
    message = _last_line_fault_without_the_line_reader(path, monkeypatch, long_text, "inf")
    assert message == f"{path}:{960 * 128 + 1}: predictability must be finite, got 'inf'"


def test_the_kernel_holds_less_than_three_times_the_file(tmp_path, long_text):
    path = tmp_path / "results.csv"
    path.write_text(long_text, encoding="utf-8")
    tracemalloc.start()
    try:
        ints, floats, labels, fault = _kernel(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fault is None and labels == ["s0"] and floats.shape == (6, 960 * 128)
    # the file's bytes and the columns; each block's scans and words are a small part
    assert peak < 3 * path.stat().st_size


#: Ends of the kernel's float grammar: a signed zero, one unit of the twelfth decimal, the largest value.
FIXED12_EDGES = (0.0, -0.0, 1e-12, -1e-12, 999.999999999999, -999.999999999999)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    values=st.lists(
        st.sampled_from(FIXED12_EDGES) | st.floats(-999.999999999999, 999.999999999999), min_size=1, max_size=60
    )
)
def test_the_kernel_reads_fmt12_text_bitwise_as_python_does(tmp_path_factory, values):
    values = values + [0.0] * (-len(values) % 6)
    rows = [
        f"pqe,h,{k},{fmt12(a)},{k % 7},{','.join(map(fmt12, metrics))}"
        for k, (a, *metrics) in enumerate(zip(*[iter(values)] * 6))
    ]
    path = _write_lines(tmp_path_factory.mktemp("fixed12") / "results.csv", [CSV_HEADER, *rows])
    fast = _kernel(path)
    assert fast is not None
    _columns_identical(fast, report._read_lines(path))


@pytest.mark.parametrize(
    "field, text",
    [
        pytest.param(3, "1000.000000000000", id="four-integer-digits"),
        pytest.param(5, "0.12345678901", id="eleven-decimals"),
        pytest.param(5, "0.1234567890123", id="thirteen-decimals"),
        pytest.param(6, "+0.500000000000", id="plus-sign"),
        pytest.param(7, " 1.000000000000", id="leading-space"),
        pytest.param(8, "1.000000000000e0", id="exponent"),
        pytest.param(2, "123456789", id="nine-digit-index"),
        pytest.param(9, "1.0", id="a-number-python-reads"),
    ],
)
def test_the_kernel_declines_numbers_outside_its_grammar(tmp_path, clean_lines, field, text):
    lines = list(clean_lines)
    lines[-1] = _set_field(lines[-1], field, text)
    path = _write_lines(tmp_path / "results.csv", lines)
    assert _kernel(path) is None
    _assert_read_like_the_line_reader(path)


def _entries(directory):
    """The cache entries in ``directory``, and any other file named like one, which no store leaves."""
    return sorted(directory.glob(".*.tables*"))


@pytest.fixture
def settled(monkeypatch):
    """The reader's clock a minute ahead, so that a file just written is older than its settled window."""
    monkeypatch.setattr(report, "time_ns", lambda: time.time_ns() + 60 * 10**9)


def _unreached(*args):
    raise AssertionError("the file was parsed")


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda rows: rows, id="kernel"),
        pytest.param(lambda rows: rows[:2] + [_set_field(rows[2], 2, "0_1")] + rows[3:], id="line-by-line"),
        pytest.param(lambda rows: rows[::-1], id="reversed-rows"),
        pytest.param(lambda rows: [row.replace(",b,", ",trail\x00,") for row in rows], id="label-with-a-trailing-nul"),
        pytest.param(lambda rows: [row.replace(",b,", ",\u03bb\xe5\U0001f600,") for row in rows], id="non-ascii-label"),
    ],
)
def test_a_warm_read_gives_the_tables_of_a_cold_read_bitwise(tmp_path, monkeypatch, settled, clean_lines, mutate):
    header, *rows = clean_lines
    path = _write_lines(tmp_path / "results.csv", [header, *mutate(rows)])
    cold = read_results(path)
    assert len(_entries(tmp_path)) == 1 and {t.kind for t in cold.values()} == {"bmzi", "pqe"}
    monkeypatch.setattr(report, "_load_file", _unreached)
    monkeypatch.setattr(report, "_read_lines", _unreached)
    warm = read_results(path)
    _tables_equal(cold, warm)
    for label in cold:
        for name in ("angles", *METRICS):
            x, y = getattr(cold[label], name), getattr(warm[label], name)
            assert (x.dtype, x.strides, x.flags.c_contiguous) == (y.dtype, y.strides, y.flags.c_contiguous)
    assert reports_from_rows(cold) == reports_from_rows(warm)


def _truncated(entry):
    entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])


def _changed(**change):
    """Rewrite an entry with some of its arrays, by their names in ``ENTRY_ARRAYS``, changed, or dropped where the
    change gives None."""
    assert set(change) <= set(ENTRY_ARRAYS)

    def spoil(entry):
        arrays, size = [], entry.stat().st_size
        with open(entry, "rb") as f:
            while f.tell() < size:
                arrays.append(np.load(f))
        assert len(arrays) == len(ENTRY_ARRAYS)  # so that a change to the entry's layout fails here, not in the read
        with open(entry, "wb") as f:
            for name, array in zip(ENTRY_ARRAYS, arrays):
                if (array := change.get(name, lambda a: a)(array)) is not None:
                    np.save(f, array)

    return spoil


@pytest.mark.parametrize(
    "spoil",
    [
        pytest.param(_truncated, id="truncated"),
        pytest.param(lambda entry: entry.write_bytes(b""), id="empty"),
        pytest.param(lambda entry: entry.write_bytes(b"not an array"), id="not-npy"),
        pytest.param(lambda entry: entry.write_bytes(b"PK\x03\x04 not a zip file"), id="zip-magic"),
        pytest.param(_changed(shapes=lambda a: a + 1), id="wrong-shapes"),
        pytest.param(_changed(shapes=lambda a: a - 1), id="too-few-cells"),
        pytest.param(_changed(shapes=lambda a: a.astype(float)), id="float-shapes"),
        pytest.param(_changed(kinds=lambda a: a + 2), id="unknown-kind"),
        pytest.param(_changed(text=lambda a: a[:0]), id="no-labels"),
        pytest.param(_changed(floats=lambda a: None), id="no-floats"),
        pytest.param(_changed(floats=lambda a: a.astype(np.float32)), id="single-precision"),
    ],
)
def test_a_spoilt_entry_falls_back_to_a_parse(tmp_path, monkeypatch, settled, clean_lines, spoil):
    path = _write_lines(tmp_path / "results.csv", clean_lines)
    cold = read_results(path)
    (entry,) = _entries(tmp_path)
    spoil(entry)
    parses = []
    parse = report._load_file
    monkeypatch.setattr(report, "_load_file", lambda *args: parses.append(args) or parse(*args))
    _tables_equal(cold, read_results(path))
    # the parse stored the entry again, and the next read hits it
    _tables_equal(cold, read_results(path))
    assert len(parses) == 1 and _entries(tmp_path) == [entry]


def _outputs(out, capsys):
    """The stdout of ``interfero analyze`` on ``out`` and every file in ``out`` after ``interfero report``, but the
    cache entry."""
    capsys.readouterr()
    assert main(["analyze", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert main(["report", "--out", str(out), "--format", "all"]) == 0
    return printed, {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != ENTRY}


def _refused(file, mode="r", *args, **kwargs):
    """``open``, except that no file can be created or opened for writing, as in a directory this user cannot
    write."""
    if set(mode) & set("wxa+"):
        raise PermissionError(13, "Permission denied", str(file))
    return open(file, mode, *args, **kwargs)


def test_a_directory_that_cannot_be_written_is_never_hashed_and_changes_no_output(
    tmp_path, monkeypatch, settled, capsys
):
    out = tmp_path / "out"
    write_results(run_sweep(PINNED_CSV["pqe-noisy"][0]), out)
    expected = _outputs(out, capsys)
    (out / ENTRY).unlink()
    # root may write any directory, so the refusal is the reader's open
    monkeypatch.setattr(report, "open", _refused, raising=False)
    report._code_digest.cache_clear()  # as in a new process, which has taken no digest
    monkeypatch.setattr(hashlib, "sha256", _unreached)
    assert _outputs(out, capsys) == expected
    assert _entries(out) == []


def test_an_entry_path_that_cannot_be_written_changes_no_output(tmp_path, monkeypatch, settled, capsys):
    out = tmp_path / "out"
    write_results(run_sweep(PINNED_CSV["pqe-noisy"][0]), out)
    expected = _outputs(out, capsys)
    # a directory in the entry's place: a root process may write a read-only file, but not over a directory
    (out / ENTRY).unlink()
    (out / ENTRY).mkdir()
    report._code_digest.cache_clear()  # as in a new process, which has taken no digest
    monkeypatch.setattr(hashlib, "sha256", _unreached)
    monkeypatch.setattr(np, "save", _unreached)
    assert _outputs(out, capsys) == expected
    assert [p.name for p in out.iterdir() if p.name.startswith(".")] == [ENTRY]
    assert (out / ENTRY).is_dir() and not any((out / ENTRY).iterdir())


@pytest.mark.parametrize(
    "mutate, error",
    [
        pytest.param(lambda rows: rows[:4] + [_set_field(rows[4], 6, "x")] + rows[5:], ":6: predictability", id="line"),
        pytest.param(lambda rows: rows[:3] + rows[2:], ":5: duplicate row", id="duplicate"),
        pytest.param(lambda rows: rows[:3] + rows[4:], ": label 'b': missing row", id="missing-cell"),
    ],
)
def test_a_faulty_file_is_never_stored(tmp_path, clean_lines, mutate, error):
    header, *rows = clean_lines
    path = _write_lines(tmp_path / "results.csv", [header, *mutate(rows)])
    messages = []
    for _ in range(2):
        with pytest.raises(ValidationError) as info:
            read_results(path)
        messages.append(str(info.value))
    assert messages[0] == messages[1] and messages[0].startswith(f"{path}{error}")
    assert _entries(tmp_path) == []


def test_an_entry_is_read_only_by_the_code_that_wrote_it(tmp_path, monkeypatch, settled, clean_lines):
    sources = tmp_path / "interfero"
    sources.mkdir()
    for source in Path(report.__file__).parent.glob("*.py"):
        (sources / source.name).write_bytes(source.read_bytes())
    monkeypatch.setattr(report, "__file__", str(sources / "report.py"))
    digests = [report._code_digest.__wrapped__()]
    assert digests == [report._code_digest()]
    # a change to any source file of the package, or another numpy, gives every file another key
    for name in ("report.py", "experiments.py", "output.py"):
        (sources / name).write_bytes((sources / name).read_bytes() + b"\n")
        digests.append(report._code_digest.__wrapped__())
    monkeypatch.setattr(np, "__version__", "0.0")
    digests.append(report._code_digest.__wrapped__())
    assert len(set(digests)) == 5
    path = _write_lines(tmp_path / "results.csv", clean_lines)
    cold = read_results(path)
    parses = []
    parse = report._load_file
    monkeypatch.setattr(report, "_load_file", lambda *args: parses.append(args) or parse(*args))
    (entry,) = _entries(tmp_path)
    monkeypatch.setattr(report, "_code_digest", lambda: digests[-1])
    _tables_equal(cold, read_results(path))
    # the other code's entry missed, and the parse replaced it
    assert len(parses) == 1 and _entries(tmp_path) == [entry]
    assert np.load(entry).tobytes().startswith(digests[-1].hex().encode())
    _tables_equal(cold, read_results(path))
    assert len(parses) == 1


class _Unreadable:
    """An open file whose descriptor is at hand and whose bytes are not: it has no ``read``."""

    def __init__(self, path):
        self.file = open(path, "rb")

    def fileno(self):
        return self.file.fileno()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()


def _opened_as(path, kind):
    """``open``, except that ``path`` is opened as a ``kind``."""
    return lambda file, *args: kind(file) if file == path else open(file, *args)


def test_a_hit_reads_no_byte_of_the_file_and_hashes_only_the_code(tmp_path, monkeypatch, settled, clean_lines):
    path = _write_lines(tmp_path / "results.csv", clean_lines)
    cold = read_results(path)
    monkeypatch.setattr(report, "_load_file", _unreached)
    monkeypatch.setattr(report, "_read_lines", _unreached)
    monkeypatch.setattr(report, "open", _opened_as(path, _Unreadable), raising=False)
    report._code_digest.cache_clear()  # so that a new process's hit is seen, which takes the digest once
    hashed, sha256 = [], hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda data=b"": hashed.append(data) or sha256(data))
    _tables_equal(cold, read_results(path))
    sources = sorted(Path(report.__file__).parent.glob("*.py"))
    assert hashed == [np.__version__.encode(), *(source.read_bytes() for source in sources)]


def test_a_hit_writes_nothing(tmp_path, monkeypatch, settled, clean_lines):
    path = _write_lines(tmp_path / "results.csv", clean_lines)
    read_results(path)
    entry = tmp_path / ENTRY
    written = attrgetter("st_ino", "st_mtime_ns", "st_ctime_ns")
    before = entry.read_bytes(), written(os.stat(entry))
    monkeypatch.setattr(report, "_load_file", _unreached)
    read_results(path)
    assert (entry.read_bytes(), written(os.stat(entry))) == before


def test_runs_into_one_out_directory_leave_one_entry(tmp_path, monkeypatch, settled, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("kind = bmzi\nangle_points = 4\nrepetitions = 2\nshots = 50\n", encoding="utf-8")
    out = tmp_path / "out"
    for _ in range(3):
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert main(["analyze", "--out", str(out)]) == 0
    # each rewrite of results.csv replaced the one entry, and it is the last file's
    assert _entries(out) == [out / ENTRY]
    monkeypatch.setattr(report, "_load_file", _unreached)
    monkeypatch.setattr(report, "_read_lines", _unreached)
    read_results(out / "results.csv")


def test_analyze_and_report_write_nothing_under_home_or_the_cache_home(tmp_path, monkeypatch, settled, capsys):
    home, cache_home = tmp_path / "home", tmp_path / "cache-home"
    home.mkdir()
    cache_home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
    out = tmp_path / "out"
    write_results(run_sweep(ExperimentConfig(kind="bmzi", angle_points=4, repetitions=2, shots=50)), out)
    assert _outputs(out, capsys) == _outputs(out, capsys)  # a store, then a hit
    assert _entries(out) == [out / ENTRY]
    assert not any(home.iterdir()) and not any(cache_home.iterdir())


def test_a_copied_out_directory_misses_and_replaces_the_copied_entry(tmp_path, monkeypatch, settled, clean_lines):
    out = tmp_path / "out"
    out.mkdir()
    cold = read_results(_write_lines(out / "results.csv", clean_lines))
    copy = Path(shutil.copytree(out, tmp_path / "copy"))  # by shutil.copy2, which keeps sizes and mtimes
    original, copied = os.stat(out / "results.csv"), os.stat(copy / "results.csv")
    assert (copied.st_size, copied.st_mtime_ns) == (original.st_size, original.st_mtime_ns)
    assert copied.st_ino != original.st_ino and (copy / ENTRY).read_bytes() == (out / ENTRY).read_bytes()
    parses, parse = [], report._load_file
    monkeypatch.setattr(report, "_load_file", lambda *args: parses.append(args) or parse(*args))
    for _ in range(2):
        _tables_equal(cold, read_results(copy / "results.csv"))
    assert len(parses) == 1 and _entries(copy) == [copy / ENTRY]
    assert (copy / ENTRY).read_bytes() != (out / ENTRY).read_bytes()


def test_a_store_leaves_the_entry_another_store_created_first(tmp_path, monkeypatch, settled, clean_lines):
    path = _write_lines(tmp_path / "results.csv", clean_lines)
    entry = tmp_path / ENTRY

    def raced(file, mode="r", *args, **kwargs):
        if set(mode) & set("wxa+"):  # another store creates the entry just before this one does
            entry.write_bytes(b"another store's entry")
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(report, "open", raced, raising=False)
    _tables_equal(read_results(path), _line_outcome(path))
    assert _entries(tmp_path) == [entry] and entry.read_bytes() == b"another store's entry"


def _wait_until_settled(path):
    while not report._settled(os.stat(path).st_ctime_ns):
        time.sleep(0.02)


def _with_one_number_changed(lines):
    """``lines`` with the first row's coherence one unit higher in its last decimal, so the text keeps its size."""
    header, first, *rest = lines
    coherence = first.split(",")[5]
    return [header, _set_field(first, 5, coherence[:-1] + str((int(coherence[-1]) + 1) % 10)), *rest]


def _rewritten_in_place(path, lines):
    with open(path, "r+b") as f:  # the same inode, overwritten from its first byte
        f.write(("\n".join(lines) + "\n").encode())


def _replaced(path, lines):
    _write_lines(path.with_name("new.csv"), lines)
    os.replace(path.with_name("new.csv"), path)


@pytest.mark.parametrize("rewrite", [_rewritten_in_place, _replaced], ids=["in-place", "os-replace"])
def test_a_same_size_rewrite_with_the_old_mtime_misses_and_gives_the_new_tables(tmp_path, clean_lines, rewrite):
    path = _write_lines(tmp_path / "results.csv", clean_lines)
    _wait_until_settled(path)
    old = read_results(path)
    assert len(_entries(tmp_path)) == 1
    before = os.stat(path)
    rewrite(path, _with_one_number_changed(clean_lines))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    new = read_results(path)
    _tables_equal(new, _line_outcome(path))
    assert new["b"].coherence[0, 0] != old["b"].coherence[0, 0]


IDENTITY_FIELDS = ("st_dev", "st_ino", "st_size", "st_mtime_ns", "st_ctime_ns")


def _stat_with(stat, **change):
    """``stat``'s identity fields and access time, with ``change`` made."""
    fields = (*IDENTITY_FIELDS, "st_atime_ns")
    return SimpleNamespace(**{**{name: getattr(stat, name) for name in fields}, **change})


@pytest.mark.parametrize(
    "field, stored",
    [*((field, False) for field in IDENTITY_FIELDS), ("st_atime_ns", True)],
)
def test_a_change_between_the_two_fstats_is_not_stored(tmp_path, monkeypatch, settled, clean_lines, field, stored):
    path = _write_lines(tmp_path / "results.csv", clean_lines)
    fstat, calls = os.fstat, []

    def changed_on_the_second_call(fd):
        calls.append(fd)
        stat = fstat(fd)
        return _stat_with(stat, **{field: getattr(stat, field) + 1}) if len(calls) == 2 else stat

    monkeypatch.setattr(os, "fstat", changed_on_the_second_call)
    tables = read_results(path)
    # a read moves the access time, which tells no version of the file from another
    assert len(calls) == 2 and len(_entries(tmp_path)) == int(stored)
    _tables_equal(tables, _line_outcome(path))


def test_a_file_rewritten_while_read_is_not_stored(tmp_path, monkeypatch, clean_lines):
    path = _write_lines(tmp_path / "results.csv", clean_lines)
    _wait_until_settled(path)

    class RewrittenOnRead(_Unreadable):
        def read(self):
            data = self.file.read()
            _rewritten_in_place(path, _with_one_number_changed(clean_lines))
            return data

    monkeypatch.setattr(report, "open", _opened_as(path, RewrittenOnRead), raising=False)
    read_results(path)
    assert _entries(tmp_path) == []


@pytest.mark.parametrize(
    "ctime_ns, window",
    [(1_700_000_000_123_456_789, 10**8), (1_700_000_000 * 10**9, 3 * 10**9)],
    ids=["sub-second-stamp-0.1s", "whole-second-stamp-3s"],
)
def test_a_file_younger_than_its_window_is_parsed_on_every_read_and_never_stored(
    tmp_path, monkeypatch, clean_lines, ctime_ns, window
):
    path = _write_lines(tmp_path / "results.csv", clean_lines)
    fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: _stat_with(fstat(fd), st_ctime_ns=ctime_ns))
    parses, parse = [], report._load_file
    monkeypatch.setattr(report, "_load_file", lambda *args: parses.append(args) or parse(*args))
    monkeypatch.setattr(report, "time_ns", lambda: ctime_ns + window - 1)
    cold = read_results(path)
    _tables_equal(cold, read_results(path))
    assert len(parses) == 2 and _entries(tmp_path) == []
    # at the window's end the file is settled: stored once, then a hit
    monkeypatch.setattr(report, "time_ns", lambda: ctime_ns + window)
    for _ in range(2):
        _tables_equal(cold, read_results(path))
    assert len(parses) == 3 and len(_entries(tmp_path)) == 1
