import re
import xml.etree.ElementTree as ET

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
from interfero import report
from interfero.cli import parse_config
from interfero.report import CHUNK_LINES, CSV_HEADER, config_lines, fmt12, summary_text, write_manifest


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
    text = paths["results"].read_text(encoding="utf-8")
    rewritten = "\n".join(
        [CSV_HEADER]
        + [
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
    ) + "\n"
    assert rewritten == text


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
    table = read_results(write_results(noisy_result, tmp_path)["results"]).tables[noisy_result.config.run_label]
    assert table.coherence.shape == (6, 3)
    assert all(getattr(table, name).flags.c_contiguous for name in ("coherence", "predictability", "total"))
    assert np.array_equal(table.angles, np.round(noisy_result.angles, 12))


@pytest.fixture(scope="module")
def two_chunk_lines():
    """The results.csv lines of a sweep that spans two parse chunks."""
    config = ExperimentConfig(kind="bmzi", angle_points=CHUNK_LINES // 64 + 8, repetitions=64, analytic=True)
    lines = result_csv(run_sweep(config)).splitlines()
    assert len(lines) - 1 > CHUNK_LINES + 100
    return lines


@pytest.mark.parametrize("offset", [0, 1, 57])
def test_a_fault_in_the_second_chunk_names_its_own_line(tmp_path, two_chunk_lines, offset):
    lines = list(two_chunk_lines)
    ln = CHUNK_LINES + 1 + offset + 1  # line numbers count the header as line 1
    parts = lines[ln - 1].split(",")
    parts[6] = "x"
    lines[ln - 1] = ",".join(parts)
    path = tmp_path / "results.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError) as info:
        read_results(path)
    assert str(info.value) == f"{path}:{ln}: predictability must be a number, got 'x'"


def test_a_duplicate_in_the_second_chunk_names_its_own_line(tmp_path, two_chunk_lines):
    lines = list(two_chunk_lines)
    ln = CHUNK_LINES + 40
    lines[ln - 1] = lines[ln - 3]
    lines[ln + 9] = lines[9]
    path = tmp_path / "results.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=rf":{ln}: duplicate row .* \(first at line {ln - 2}\)$"):
        read_results(path)
    # a cell first seen in the first chunk
    lines[ln - 1] = two_chunk_lines[ln - 1]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=rf":{ln + 10}: duplicate row .* \(first at line 10\)$"):
        read_results(path)


def test_a_line_fault_in_a_later_chunk_loses_to_a_grid_fault_in_an_earlier_one(tmp_path, two_chunk_lines):
    lines = list(two_chunk_lines)
    lines[CHUNK_LINES + 20] = lines[CHUNK_LINES + 20].replace("bmzi", "mzi", 1)
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


def _records_identical(a, b):
    assert a.dtype == b.dtype and len(a) == len(b)
    for name in a.dtype.names:
        if a.dtype[name] == object:
            assert a[name].tolist() == b[name].tolist()
        else:
            assert a[name].tobytes() == b[name].tobytes()


def test_the_c_reader_declines_the_text_it_could_read_differently(clean_lines):
    data = clean_lines[1:]
    _records_identical(report._load_chunk(data), report._convert_chunk(data))
    assert report._load_chunk([CSV_HEADER]) is None
    assert report._load_chunk(data[:3] + [""] + data[3:]) is None  # numpy would skip the empty line
    for index in ("1\u01fe", "1\x1f"):  # numpy reads these as 472 and 1, Python's int rejects them
        parts = data[0].split(",")
        parts[2] = index
        assert report._load_chunk([",".join(parts)]) is None
        assert report._convert_chunk([",".join(parts)]) is None
    relabelled = [line.replace(",b,", ",\u03bb,") for line in data]
    assert report._load_chunk(relabelled) is None
    assert report._convert_chunk(relabelled)["label"][0] == "\u03bb"


MANGLED = (
    "1_0", "\u0661", "1\u01fe", "\x1f", "1\x1f", "nan", "-inf", "1e400", str(2**63), str(-(2**63)),
    str(-(2**63) - 1), "+1", " 1 ", "\t1", "1.0", "", "-0.0", ".5", "1e-320", "0.10000000000000000555", "1\x00",
)
ODD_LABELS = ("\u03bb", "\xe4", "a#b", "#", "  lead", "trail\x00", "x\x1fy", "b")


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
    end = draw(st.sampled_from(("\n", "\r\n")))
    return end.join(lines) + end


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), chunk_lines=st.sampled_from((1, 3, CHUNK_LINES)))
def test_the_c_reader_and_the_python_conversion_agree(tmp_path_factory, clean_lines, data, chunk_lines):
    text = data.draw(mutated_results(clean_lines))
    path = tmp_path_factory.mktemp("differential") / "results.csv"
    path.write_bytes(text.encode("utf-8"))
    # a line the C reader converts, Python converts to the same values
    for line in text.splitlines():
        fast = report._load_chunk([line])
        if fast is not None:
            exact = report._convert_chunk([line])
            assert exact is not None, line
            _records_identical(fast, exact)
    outcomes = []
    for load_chunk in (report._load_chunk, lambda chunk: None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(report, "CHUNK_LINES", chunk_lines)
            mp.setattr(report, "_load_chunk", load_chunk)
            try:
                outcomes.append(read_results(path).tables)
            except ValidationError as exc:
                outcomes.append(str(exc))
    fast, exact = outcomes
    if isinstance(exact, str):
        assert fast == exact
    else:
        _tables_equal(fast, exact)
