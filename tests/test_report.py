import hashlib
import platform
import re
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import replace

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
    write_results,
)
from interfero import output, report
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


@pytest.mark.parametrize("name", PINNED_OUTPUTS)
def test_summary_analyze_and_report_bytes_are_pinned(name, tmp_path, capsys):
    write_results(run_sweep(PINNED_CSV[name][0]), tmp_path)
    capsys.readouterr()
    assert main(["analyze", "--out", str(tmp_path)]) == 0
    digests = {"analyze": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    assert main(["report", "--out", str(tmp_path), "--format", "all"]) == 0
    written = {p.name for p in tmp_path.iterdir()} - {"results.csv"}
    digests |= {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in written}
    assert digests == PINNED_OUTPUTS[name]


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
    rows = read_results(paths["results"])
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
    assert list(read_results(tmp_path / "out" / "results.csv").tables) == [label]


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
    rows = read_results(paths["results"])
    recomputed = reports_from_rows(rows)[noisy_result.config.run_label]
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
    return MseReport(mse_sum=nan, mse_c=nan, mse_p=nan, per_experiment=(), overflow=0, **fields)


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
    manifest = write_manifest(tmp_path, noisy_result.config, list(paths.values()), "0.1.0")
    text = manifest.read_text(encoding="utf-8")
    assert "tool = interfero" in text
    assert f"master_seed = {noisy_result.config.master_seed}" in text
    assert "results.csv" in text
    assert parse_config(tmp_path / "config.cfg") == noisy_result.config


def test_manifest_records_the_python_numpy_and_blas_versions_apart_from_the_outputs(tmp_path, noisy_result):
    paths = write_results(noisy_result, tmp_path)
    written = {name: path.read_bytes() for name, path in paths.items()}
    manifest = write_manifest(tmp_path, noisy_result.config, list(paths.values()), "0.1.0")
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
    text = write_manifest(tmp_path, noisy_result.config, [], "0.1.0").read_text(encoding="utf-8")
    assert "blas = unknown\n" in text


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
    rows = read_results(paths["results"])
    curve = aggregate_curves(rows)[config.run_label]
    per_angle = [r.coherence for r in rows if r.angle_index == 1]
    assert curve.mean_c[1] == pytest.approx(float(np.mean(per_angle)), abs=5e-13)
    assert curve.std_c[1] == pytest.approx(float(np.std(per_angle)), abs=5e-13)


def _tables_equal(a, b):
    assert list(a) == list(b)
    for label in a:
        ta, tb = a[label], b[label]
        assert (ta.kind, ta.label) == (tb.kind, tb.label)
        for name in ("angles", "coherence", "predictability", "total", "total_raw", "psd_violation"):
            x, y = getattr(ta, name), getattr(tb, name)
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_result_rows_index_slice_and_iterate_like_the_records(tmp_path, noisy_result):
    rows = read_results(write_results(noisy_result, tmp_path)["results"])
    records = noisy_result.records
    assert len(rows) == len(records) == 18
    assert list(rows.tables) == [noisy_result.config.run_label]

    def key(r):
        return (r.kind, r.label, r.angle_index, r.repetition)

    assert [key(r) for r in rows] == [key(r) for r in records]
    assert [key(r) for r in rows[2:11:3]] == [key(r) for r in records[2:11:3]]
    assert [key(r) for r in rows[::-1]] == [key(r) for r in records[::-1]]
    assert key(rows[-1]) == key(records[-1])
    for row, rec in zip(rows[4:9], records[4:9]):
        for name in ("angle", "coherence", "predictability", "total", "total_raw", "psd_violation"):
            assert getattr(row, name) == pytest.approx(getattr(rec, name), abs=5e-13)
    assert list(rows) == [rows[k] for k in range(len(rows))]
    with pytest.raises(IndexError):
        rows[len(rows)]


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
    assert list(b.tables)[0] == first
    _tables_equal(a.tables, {label: b.tables[label] for label in a.tables})
    assert reports_from_rows(a) == {label: reports_from_rows(b)[label] for label in a.tables}


def test_crlf_line_ends_are_accepted(tmp_path, noisy_result):
    lf = write_results(noisy_result, tmp_path / "lf")["results"]
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    _tables_equal(read_results(lf).tables, read_results(crlf).tables)


def test_read_tables_are_c_contiguous_grids(tmp_path, noisy_result):
    path = write_results(noisy_result, tmp_path)["results"]
    header, *body = path.read_text(encoding="utf-8").splitlines()
    reversed_path = tmp_path / "reversed.csv"
    reversed_path.write_text("\n".join([header, *body[::-1]]) + "\n", encoding="utf-8")
    # rows in file order are grouped where they are, reversed ones after a sort
    for p in (path, reversed_path):
        table = read_results(p).tables[noisy_result.config.run_label]
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
def test_a_fault_in_the_second_chunk_names_its_own_line(tmp_path, long_lines, offset):
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
    rows = read_results(path)
    assert [(row.angle_index, row.repetition) for row in rows] == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
    assert [row.angle for row in rows] == [0.0, 0.0, 0.3, 0.3, 0.7, 0.7]
    assert np.array_equal(rows.tables["g"].angles, [0.0, 0.3, 0.7])


@pytest.fixture(scope="module")
def clean_lines():
    """A valid results.csv of two labels, one per kind, as lines."""
    bmzi = run_sweep(ExperimentConfig(kind="bmzi", angle_points=3, repetitions=2, shots=50, master_seed=3, label="b"))
    pqe = run_sweep(ExperimentConfig(kind="pqe", angle_points=2, repetitions=2, shots=50, master_seed=4, label="q"))
    return result_csv(bmzi).splitlines() + result_csv(pqe).splitlines()[1:]


def _outcome(path):
    """The tables ``read_results`` gives for ``path``, or its error message."""
    try:
        return read_results(path).tables
    except ValidationError as exc:
        return str(exc)


def _line_outcome(path):
    """:func:`_outcome` with the whole-file reader declining every file."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "_load_file", lambda path: None)
        return _outcome(path)


def _assert_read_like_the_line_reader(path):
    """The reader as it stands gives the tables, or the error, of the line-by-line reader alone."""
    outcome, by_line = _outcome(path), _line_outcome(path)
    if isinstance(by_line, str):
        assert outcome == by_line
    else:
        _tables_equal(outcome, by_line)


def _columns_identical(a, b):
    """Two (ints, floats, labels, fault) column sets hold the same values, bit for bit."""
    assert a[2:] == b[2:]
    for x, y in zip(a[:2], b[:2]):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def _write_lines(path, lines):
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    return path


def test_the_c_reader_declines_the_text_it_could_read_differently(tmp_path, clean_lines):
    path = _write_lines(tmp_path / "results.csv", clean_lines)
    _columns_identical(report._load_file(path), report._read_lines(path))
    assert report._load_file(_write_lines(path, clean_lines[:1])) is None
    # numpy would skip the empty line
    assert report._load_file(_write_lines(path, clean_lines[:3] + [""] + clean_lines[3:])) is None
    for index in ("1\u01fe", "1\x1f"):  # numpy reads these as 472 and 1, Python's int rejects them
        parts = clean_lines[1].split(",")
        parts[2] = index
        assert report._load_file(_write_lines(path, [CSV_HEADER, ",".join(parts)])) is None
        assert report._read_lines(path)[3] == (0, f"angle_index must be an integer, got {index!r}")
    # a non-ASCII label keeps its UTF-8 bytes through numpy's latin-1 reading
    relabelled = [line.replace(",b,", ",\u03bb,") for line in clean_lines]
    ints, floats, labels, fault = report._load_file(_write_lines(path, relabelled))
    assert labels == ["\u03bb", "q"] and fault is None
    _columns_identical((ints, floats, labels, fault), report._read_lines(path))


def test_the_line_reader_holds_less_than_three_times_the_file(tmp_path, long_lines):
    lines = list(long_lines)
    assert lines[65].split(",")[2] == "1"
    lines[65] = _set_field(lines[65], 2, "0_1")  # Python's int reads 1, numpy's rejects it
    path = _write_lines(tmp_path / "results.csv", lines)
    assert report._load_file(path) is None
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
def test_the_c_reader_and_the_python_conversion_agree(tmp_path_factory, clean_lines, data):
    text = data.draw(mutated_results(clean_lines))
    directory = tmp_path_factory.mktemp("differential")
    path = directory / "results.csv"
    path.write_bytes(text.encode("utf-8"))
    # a line the C reader converts, Python converts to the same values
    line_path = directory / "line.csv"
    for line in text.splitlines()[1:]:
        _write_lines(line_path, [CSV_HEADER, line])
        fast = report._load_file(line_path)
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
        pytest.param(lambda t: re.sub(r"^(pqe,q,1,[^,]*,1,)[^,]*", r"\g<1>inf", t, flags=re.M), id="non-finite-number"),
        pytest.param(lambda t: t.replace(",b,1,", ",b,1_0,", 1), id="numpy-raises"),
        pytest.param(lambda t: t.replace(",b,1,", ",b,\u0661,", 1), id="non-ascii-digit"),
        pytest.param(lambda t: t.split("\n", 1)[0] + "\n", id="header-only"),
        pytest.param(lambda t: t.replace(",b,", f",{'w' * 4000},", 1), id="one-line-far-longer-than-the-rest"),
        pytest.param(lambda t: t.replace(",b,", ",\udce4,"), id="label-not-utf8"),  # written as the byte 0xe4
    ],
)
def test_the_whole_file_reader_declines_to_the_chunked_reader(tmp_path, clean_lines, mutate):
    clean = "\n".join(clean_lines) + "\n"
    text = mutate(clean)
    assert text != clean
    path = tmp_path / "results.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert report._load_file(path) is None
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
def test_the_whole_file_reader_takes_what_numpy_reads_as_python_does(tmp_path, clean_lines, mutate):
    clean = "\n".join(clean_lines) + "\n"
    text = mutate(clean)
    assert text != clean
    path = tmp_path / "results.csv"
    path.write_bytes(text.encode("utf-8"))
    assert report._load_file(path) is not None
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
    ints, floats, labels, fault = report._load_file(path)
    assert labels == ["b", "q"] and fault is None
    assert ints[0].tolist() == [0, 1] * len(q) + [0] * (len(b) - len(q))
    assert ints[1].tolist() == [0, 1] * len(q) + [0] * (len(b) - len(q))
    _tables_equal(_outcome(path), _line_outcome(path))


def _sorted_outcome(path):
    """:func:`_outcome` with the rows sorted before they are grouped, in order or not."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "_in_order", lambda *keys: False)
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
        ints = report._load_file(path)[0]
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
    rows = read_results(tmp_path / "out" / "results.csv")
    assert list(rows.tables) == [label or "0-1"] and rows.tables[label or "0-1"].coherence.shape == (5, 3)
