"""Result persistence and summary figures.

Numbers in the results CSV are written with 12 fractional digits, '.' radix
and LF line ends, so identical runs produce identical bytes.  Figures are
plain SVG strings built without imaging dependencies; sparkline tables come
in a text variant (8-level block characters) and an SVG variant.
"""

from __future__ import annotations

import datetime as _dt
import math
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import accumulate, repeat
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .experiments import (
    KINDS,
    METRICS,
    ExperimentConfig,
    ExperimentResult,
    ResultRow,
    SweepTable,
    analyze,
    theory_series,
)
from .mse import HIST_BINS, MseReport, histogram_bins

CSV_HEADER = "kind,label,angle_index,angle,repetition,coherence,predictability,sum,sum_raw,psd_violation"
CSV_FIELDS = tuple(CSV_HEADER.split(","))

SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

CURVE_COLORS = {"sum": "#000000", "coherence": "#e07b00", "predictability": "#1f5fbf"}


def fmt12(x: float) -> str:
    return f"{x:.12f}"


def result_csv(result: ExperimentResult) -> str:
    kind, label = result.table.kind, result.table.label
    lines = [CSV_HEADER]
    lines.extend(
        f"{kind},{label},{i},{angle:.12f},{r},{c:.12f},{p:.12f},{s:.12f},{s_raw:.12f},{v:.12f}"
        for i, angle, r, c, p, s, s_raw, v in zip(*result.table.columns())
    )
    return "\n".join(lines) + "\n"


def summary_text(result: ExperimentResult) -> str:
    return "\n".join(["# sweep summary", *config_lines(result.config), *report_lines(result.report)]) + "\n"


def report_lines(report: MseReport) -> list[str]:
    """The ``key = value`` lines of a report, as summary.txt and ``interfero analyze`` print them."""
    return [
        f"mse_sum_mean = {fmt12(report.mse_sum)}",
        f"mse_c_mean = {fmt12(report.mse_c)}",
        f"mse_p_mean = {fmt12(report.mse_p)}",
        f"corr_mean = {fmt12(report.corr)}",
        f"mean = {fmt12(report.mean)}",
        f"std = {fmt12(report.std)}",
        f"min = {fmt12(report.min)}",
        f"max = {fmt12(report.max)}",
        "histogram = " + ",".join(str(c) for c in report.histogram),
        f"overflow = {report.overflow}",
    ]


def config_lines(config: ExperimentConfig) -> list[str]:
    """Flat key=value snapshot; parseable back by the CLI config reader."""
    out = []
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        out.append(f"{f.name} = {value}")
    return out


def write_results(result: ExperimentResult, out_dir: str | Path) -> dict[str, Path]:
    """Write results.csv and summary.txt; returns the created paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"results": out / "results.csv", "summary": out / "summary.txt"}
    _write(paths["results"], result_csv(result))
    _write(paths["summary"], summary_text(result))
    return paths


def write_manifest(out_dir: str | Path, config: ExperimentConfig, outputs: list[Path], version: str) -> Path:
    out = Path(out_dir)
    config_path = out / "config.cfg"
    _write(config_path, "\n".join(config_lines(config)) + "\n")
    lines = [
        "tool = interfero",
        f"version = {version}",
        f"timestamp = {_dt.datetime.now(_dt.timezone.utc).isoformat(timespec='seconds')}",
        f"master_seed = {config.master_seed}",
        f"config = {config_path.name}",
        "outputs = " + ",".join(p.name for p in outputs),
    ]
    path = out / "manifest.txt"
    _write(path, "\n".join(lines) + "\n")
    return path


#: Lines :func:`read_results` parses in one step; bounds its transient field lists.
CHUNK_LINES = 4096

KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}

INDEX_FIELDS = ("angle_index", "repetition")
FLOAT_FIELDS = ("angle", *CSV_FIELDS[5:])

#: One results line as :func:`read_results` converts it; ``kind`` and
#: ``label`` stay Python strings, so no label is truncated.
RECORD = np.dtype(
    [
        (name, np.int64 if name in INDEX_FIELDS else np.float64 if name in FLOAT_FIELDS else object)
        for name in CSV_FIELDS
    ]
)

_CONVERT = {**dict.fromkeys(INDEX_FIELDS, int), **dict.fromkeys(FLOAT_FIELDS, float)}


class ResultRows(Sequence[ResultRow]):
    """The rows of a results.csv, read-only, over its per-label tables.

    ``tables`` maps each label, in order of first appearance, to its
    :class:`SweepTable`.  The rows run through the tables in that order,
    each angle-major, which is file order for every file ``interfero run``
    writes; a row's ``angle_index`` and ``repetition`` are its place in its
    table's grid.  A :class:`ResultRow` is built only when indexed or
    iterated over.
    """

    def __init__(self, tables: dict[str, SweepTable]) -> None:
        self.tables = tables
        self._ends = list(accumulate(t.coherence.size for t in tables.values()))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(*k.indices(len(self)))]
        j = range(len(self))[k]
        t = bisect_right(self._ends, j)
        start = self._ends[t - 1] if t else 0
        return list(self.tables.values())[t].rows(slice(j - start, j - start + 1))[0]

    def __iter__(self) -> Iterator[ResultRow]:
        for table in self.tables.values():
            yield from table.rows()


def read_text(path: Path) -> str:
    """The text of a UTF-8 file; other bytes are a one-line ValidationError."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not valid UTF-8 at byte {exc.start}") from None


def read_results(csv_path: str | Path) -> ResultRows:
    """Parse a results CSV into one table per label.

    A malformed line is a ValidationError naming ``path:line``: a wrong field
    count, an unknown kind, a non-integer index, an unparseable or non-finite
    number, a kind that differs from the label's earlier rows, an angle that
    differs from earlier rows of the same (label, angle_index), or a repeated
    (label, angle_index, repetition) cell.  Of several such lines the lowest
    is named.  A label whose rows miss a cell of its (angle_index,
    repetition) grid is a ValidationError naming ``path``.

    Lines are parsed :data:`CHUNK_LINES` at a time into columns, each chunk
    by numpy's C reader (:func:`_load_chunk`) or, where that declines it, by
    Python's ``int`` and ``float`` (:func:`_convert_chunk`), which give the
    same values; one sort then groups each label's cells into its table.
    """
    path = Path(csv_path)
    lines = read_text(path).splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValidationError(f"{path}: missing or unexpected results header")
    # per row: label code, kind code, angle_index, repetition; and angle, then the metrics
    ints = np.empty((4, len(lines) - 1), dtype=np.int64)
    floats = np.empty((1 + len(METRICS), len(lines) - 1))
    labels: dict[str, int] = {}
    parsed, fault = len(lines) - 1, None
    for start in range(1, len(lines), CHUNK_LINES):
        chunk = lines[start : start + CHUNK_LINES]
        if not _parse_chunk(chunk, ints, floats, start - 1, labels):
            j, message = next((j, m) for j, m in enumerate(map(_line_fault, chunk)) if m)
            _parse_chunk(chunk[:j], ints, floats, start - 1, labels)
            parsed, fault = start - 1 + j, (start - 1 + j, message)
            break
    return ResultRows(_group(path, ints[:, :parsed], floats[:, :parsed], list(labels), fault))


def _parse_chunk(chunk: list[str], ints: np.ndarray, floats: np.ndarray, row: int, labels: dict[str, int]) -> bool:
    """Parse ``chunk`` into the columns from ``row`` on; False when one of its lines is faulty on its own."""
    if not chunk:
        return True
    records = _load_chunk(chunk)
    if records is None:
        records = _convert_chunk(chunk)
        if records is None:
            return False
    kinds, names = records["kind"], records["label"]
    if not KIND_CODES.keys() >= set(kinds):
        return False
    for name in dict.fromkeys(names):
        labels.setdefault(name, len(labels))
    end = row + len(chunk)
    ints[0, row:end] = list(map(labels.__getitem__, names))
    ints[1, row:end] = list(map(KIND_CODES.__getitem__, kinds))
    ints[2, row:end] = records["angle_index"]
    ints[3, row:end] = records["repetition"]
    for k, name in enumerate(FLOAT_FIELDS):
        floats[k, row:end] = records[name]
    return bool(np.isfinite(floats[:, row:end]).all())


def _load_chunk(chunk: list[str]) -> np.ndarray | None:
    """``chunk`` as :data:`RECORD` rows from numpy's C reader; None leaves it to :func:`_convert_chunk`.

    Declined are the chunks where numpy could differ from Python's ``int``
    and ``float``: one with an empty line (numpy skips those, and warns on a
    chunk of nothing else), with non-ASCII text (its integer parser takes
    some non-ASCII characters as digits) or with ``\\x1f`` (both its number
    parsers take it for whitespace).  On the rest numpy accepts no number
    that Python rejects and parses every other one to the same value.  A
    chunk numpy raises on is declined too, so the exact conversion finds
    the fault.
    """
    if "" in chunk:
        return None
    text = "\n".join(chunk)
    if not text.isascii() or "\x1f" in text:
        return None
    try:
        records = np.loadtxt(chunk, delimiter=",", comments=None, ndmin=1, dtype=RECORD)
    except ValueError:
        return None
    return records if len(records) == len(chunk) else None


def _convert_chunk(chunk: list[str]) -> np.ndarray | None:
    """``chunk`` as :data:`RECORD` rows through Python's ``int`` and ``float``; None when a line does not convert."""
    if list(map(str.count, chunk, repeat(","))).count(9) != len(chunk):
        return None
    fields = ",".join(chunk).split(",")
    records = np.empty(len(chunk), dtype=RECORD)
    try:
        for k, name in enumerate(CSV_FIELDS):
            records[name] = list(map(_CONVERT.get(name, str), fields[k::10]))
    except (ValueError, OverflowError):
        return None
    return records


def _line_fault(line: str) -> str | None:
    """What is wrong with one results line on its own, or None."""
    parts = line.split(",")
    if len(parts) != 10:
        return f"expected 10 fields, got {len(parts)}"
    if parts[0] not in KINDS:
        return f"kind must be one of {KINDS}, got {parts[0]!r}"
    return _field_error(parts)


def _field_error(parts: list[str]) -> str | None:
    """Describe the first numeric field of a results row that does not parse, is not finite
    or is an index beyond 64 bits; None when there is none."""
    for name, text in zip(CSV_FIELDS[2:], parts[2:]):
        integer = name in INDEX_FIELDS
        try:
            value = int(text) if integer else float(text)
        except ValueError:
            return f"{name} must be {'an integer' if integer else 'a number'}, got {text!r}"
        if not math.isfinite(value):
            return f"{name} must be finite, got {text!r}"
        if integer and not -(2**63) <= value < 2**63:
            return f"{name} must fit in 64 bits, got {text!r}"
    return None


def _group(
    path: Path, ints: np.ndarray, floats: np.ndarray, labels: list[str], fault: tuple[int, str] | None
) -> dict[str, SweepTable]:
    """Each label's rows as a table, in order of first appearance.

    ``fault`` is the first row that is faulty on its own, if any; only the
    rows before it are given.  The lowest row that is faulty on its own or
    against earlier rows is a ValidationError, then the first missing cell.
    """
    code, kind, index, rep = ints
    angle = floats[0]
    n = len(code)
    # stable, so the rows of a cell stay in file order
    order = np.lexsort((rep, index, code))
    c, i, r = code[order], index[order], rep[order]
    new_label = np.ones(n, dtype=bool)
    new_label[1:] = c[1:] != c[:-1]
    new_angle = new_label.copy()
    new_angle[1:] |= i[1:] != i[:-1]
    new_cell = new_angle.copy()
    new_cell[1:] |= r[1:] != r[:-1]

    def first_rows(new: np.ndarray) -> np.ndarray:
        """For each row, the lowest row of its group."""
        out = np.empty(n, dtype=np.int64)
        out[order] = np.minimum.reduceat(order, np.flatnonzero(new))[np.cumsum(new) - 1]
        return out

    label_first, angle_first, cell_first = first_rows(new_label), first_rows(new_angle), first_rows(new_cell)
    bad = (kind != kind[label_first]) | (angle != angle[angle_first]) | (cell_first != np.arange(n))
    if bad.any():
        k = int(np.argmax(bad))
        label, i0 = labels[code[k]], int(index[k])
        if kind[k] != kind[label_first[k]]:
            message = f"label {label!r} has kind {KINDS[kind[k]]!r}, but {KINDS[kind[label_first[k]]]!r} on earlier rows"
        elif angle[k] != angle[angle_first[k]]:
            message = (
                f"label {label!r}, angle index {i0} has angle {float(angle[k])!r}, "
                f"but {float(angle[angle_first[k]])!r} on earlier rows"
            )
        else:
            message = (
                f"duplicate row for label {label!r}, angle index {i0}, repetition {int(rep[k])} "
                f"(first at line {cell_first[k] + 2})"
            )
        fault = (k, message)
    if fault is not None:
        raise ValidationError(f"{path}:{fault[0] + 2}: {fault[1]}")
    if n == 0:
        raise ValidationError(f"{path}: no data rows")
    # each label's rows are one block of the sorted columns, angle-major
    columns = floats.take(order, axis=1)  # C-contiguous, so every (n, m) grid is too
    bounds = np.append(np.flatnonzero(new_label), n)
    tables = {}
    for label, a, b in zip(labels, bounds[:-1], bounds[1:]):
        angle_indices, reps = i[a:b][new_angle[a:b]], np.unique(r[a:b])
        # with no duplicates, a label holds its full grid exactly when the counts agree
        if b - a != len(angle_indices) * len(reps):
            held = np.zeros((len(angle_indices), len(reps)), dtype=bool)
            held[np.searchsorted(angle_indices, i[a:b]), np.searchsorted(reps, r[a:b])] = True
            q, s = divmod(int(np.argmin(held)), len(reps))
            raise ValidationError(
                f"{path}: label {label!r}: missing row for angle index {angle_indices[q]}, repetition {reps[s]}"
            )
        angles, *metrics = columns[:, a:b].reshape(len(columns), len(angle_indices), len(reps))
        tables[label] = SweepTable(KINDS[kind[order[a]]], label, angles[:, 0], *metrics)
    return tables


def reports_from_rows(rows: ResultRows) -> dict[str, MseReport]:
    """Per-label MSE reports of the tables :func:`read_results` returns.

    A report whose arithmetic overflows a float is a ValidationError naming its label.
    """
    reports = {}
    for label, table in rows.tables.items():
        with _float_faults(label):
            reports[label] = analyze(table)
    return reports


def summary_row(label: str, report: MseReport) -> tuple[str, MseReport]:
    """One row of :func:`render_sparkline_table`: the label and its report."""
    return label, report


@dataclass(frozen=True)
class CurveData:
    label: str
    kind: str
    angles: np.ndarray
    mean_c: np.ndarray
    std_c: np.ndarray
    mean_p: np.ndarray
    std_p: np.ndarray
    mean_sum: np.ndarray
    std_sum: np.ndarray
    theory_c: np.ndarray
    theory_p: np.ndarray


def aggregate_curves(rows: ResultRows) -> dict[str, CurveData]:
    """Mean and standard deviation over repetitions, per label and angle."""
    curves = {}
    for label, t in rows.tables.items():
        with _float_faults(label):
            stats = [f(v, axis=1) for v in (t.coherence, t.predictability, t.total) for f in (np.mean, np.std)]
        curves[label] = CurveData(label, t.kind, t.angles, *stats, *theory_series(t.kind, t.angles))
    return curves


@contextmanager
def _float_faults(label: str) -> Iterator[None]:
    """Turn numpy's overflow and invalid-value warnings in the block into a ValidationError naming ``label``."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ValidationError(f"label {label!r}: {exc} while reducing its rows") from None


def render_curves(curve: CurveData) -> str:
    """Mean-value curves with error bars over thin theory lines, as SVG."""
    width, height = 520, 360
    left, right, top, bottom = 56, 16, 28, 44
    plot_w, plot_h = width - left - right, height - top - bottom
    x_min, x_max = float(curve.angles[0]), float(curve.angles[-1])
    # one angle (or equal end angles) would leave the x scale zero wide
    x_lo, x_hi = (x_min, x_max) if x_max != x_min else (x_min - 1.0, x_max + 1.0)
    y_top_data = max(
        1.05,
        float(np.max(curve.mean_sum + curve.std_sum)) * 1.05,
        float(np.max(curve.theory_c + curve.theory_p)) * 1.05,
    )
    y_min, y_max = -0.05, y_top_data

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return top + (y_max - y) / (y_max - y_min) * plot_h

    def polyline(xs, ys, color: str, stroke_width: float, opacity: float = 1.0) -> str:
        pts = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in zip(xs, ys))
        return (
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{stroke_width}" opacity="{opacity:.2f}"/>'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="16" text-anchor="middle" font-size="13">'
        f"{_esc(curve.kind)} label {_esc(curve.label)}: coherence, predictability and sum</text>",
        # axes
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" stroke="black"/>',
        f'<text x="{left:.0f}" y="{height - 8}" font-size="11">angle range [{x_min:.4f}, {x_max:.4f}]</text>',
    ]
    for frac in (0.0, 0.5, 1.0):
        y_val = y_min + frac * (y_max - y_min)
        parts.append(
            f'<text x="{left - 6}" y="{sy(y_val) + 4:.2f}" text-anchor="end" font-size="10">{y_val:.2f}</text>'
        )
        parts.append(
            f'<line x1="{left - 4}" y1="{sy(y_val):.2f}" x2="{left}" y2="{sy(y_val):.2f}" stroke="black"/>'
        )
    # thin theory lines in the background
    parts.append(polyline(curve.angles, curve.theory_c + curve.theory_p, "#999999", 0.8))
    parts.append(polyline(curve.angles, curve.theory_c, "#d9b38c", 0.8))
    parts.append(polyline(curve.angles, curve.theory_p, "#9cb8d9", 0.8))
    # error bars then mean curves
    for mean, std, key in (
        (curve.mean_sum, curve.std_sum, "sum"),
        (curve.mean_c, curve.std_c, "coherence"),
        (curve.mean_p, curve.std_p, "predictability"),
    ):
        color = CURVE_COLORS[key]
        for x, m, s in zip(curve.angles, mean, std):
            if s > 0:
                parts.append(
                    f'<line x1="{sx(float(x)):.2f}" y1="{sy(float(m - s)):.2f}" '
                    f'x2="{sx(float(x)):.2f}" y2="{sy(float(m + s)):.2f}" '
                    f'stroke="{color}" stroke-width="0.7" opacity="0.6"/>'
                )
        parts.append(polyline(curve.angles, mean, color, 1.6))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_sparkline_table(rows: list[tuple[str, MseReport]]) -> tuple[str, str]:
    """Sparkline histogram table in text and SVG form, one row per (label, report) pair.

    Text rows show mean/std/corr/min, a 60-bin block-character sparkline and
    max, with a marker line underneath ('^' at the min, mean and max bins).
    Negative corr values get a '*' marker (red in the SVG variant).
    """
    if not rows:
        raise ValidationError("sparkline table needs at least one row")
    return _sparkline_text(rows), _sparkline_svg(rows)


def _sparkline_text(rows: list[tuple[str, MseReport]]) -> str:
    header = f"{'label':>8}  {'mean':>7} {'std':>7} {'corr':>8} {'min':>7}  {'MSE histogram':<{HIST_BINS}}  {'max':>6}"
    lines = [header]
    for label, report in rows:
        spark = _spark_glyphs(report.histogram)
        corr_text = f"{report.corr:.3f}" + ("*" if report.corr < 0 else "")
        lines.append(
            f"{label:>8}  {report.mean:7.3f} {report.std:7.3f} {corr_text:>8} {report.min:7.3f}"
            f"  {spark}  {report.max:6.2f}"
        )
        marker = [" "] * HIST_BINS
        for b in histogram_bins([report.min, report.mean, report.max]):
            marker[b] = "^"
        prefix = " " * (len(header) - HIST_BINS - 8)
        lines.append(prefix + "".join(marker))
    return "\n".join(lines) + "\n"


def _sparkline_svg(rows: list[tuple[str, MseReport]]) -> str:
    row_h, spark_w, spark_h = 30, 240, 20
    left_cols = 320
    width = left_cols + spark_w + 70
    height = 26 + row_h * len(rows)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        '<text x="8" y="16" font-size="11" font-weight="bold">label</text>',
        '<text x="68" y="16" font-size="11" font-weight="bold">mean</text>',
        '<text x="128" y="16" font-size="11" font-weight="bold">std</text>',
        '<text x="188" y="16" font-size="11" font-weight="bold">corr</text>',
        '<text x="248" y="16" font-size="11" font-weight="bold">min</text>',
        f'<text x="{left_cols}" y="16" font-size="11" font-weight="bold">MSE histogram</text>',
        f'<text x="{left_cols + spark_w + 12}" y="16" font-size="11" font-weight="bold">max</text>',
    ]
    for k, (label, report) in enumerate(rows):
        y0 = 26 + k * row_h
        base = y0 + spark_h + 4
        corr_color = "#cc0000" if report.corr < 0 else "#000000"
        parts.append(f'<text x="8" y="{base - 6}" font-size="11">{_esc(label)}</text>')
        parts.append(f'<text x="68" y="{base - 6}" font-size="11">{report.mean:.3f}</text>')
        parts.append(f'<text x="128" y="{base - 6}" font-size="11">{report.std:.3f}</text>')
        parts.append(f'<text x="188" y="{base - 6}" font-size="11" fill="{corr_color}">{report.corr:.3f}</text>')
        parts.append(f'<text x="248" y="{base - 6}" font-size="11">{report.min:.3f}</text>')
        peak = max(max(report.histogram), 1)
        pts = []
        for b in range(HIST_BINS):
            x = left_cols + (b + 0.5) / HIST_BINS * spark_w
            y = base - report.histogram[b] / peak * spark_h
            pts.append(f"{x:.2f},{y:.2f}")
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="black" stroke-width="1"/>'
        )
        for b, on_curve in zip(histogram_bins([report.min, report.max, report.mean]), (False, False, True)):
            x = left_cols + (b + 0.5) / HIST_BINS * spark_w
            y = base - (report.histogram[b] / peak * spark_h if on_curve else 0.0)
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" fill="black"/>')
        parts.append(f'<text x="{left_cols + spark_w + 12}" y="{base - 6}" font-size="11">{report.max:.2f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _spark_glyphs(histogram: tuple[int, ...]) -> str:
    peak = max(histogram)
    if peak == 0:
        return " " * len(histogram)
    glyphs = []
    for count in histogram:
        if count == 0:
            glyphs.append(" ")
        else:
            level = int(np.ceil(count / peak * len(SPARK_BLOCKS)))
            glyphs.append(SPARK_BLOCKS[min(level, len(SPARK_BLOCKS)) - 1])
    return "".join(glyphs)


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _write(path: Path, content: str) -> None:
    path.write_text(content, encoding="utf-8", newline="\n")
