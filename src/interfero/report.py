"""Result persistence and summary figures.

Numbers in the results CSV are written with 12 fractional digits, '.' radix
and LF line ends, so identical runs produce identical bytes.  Figures are
plain SVG strings built without imaging dependencies; sparkline tables come
in a text variant (8-level block characters) and an SVG variant.
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .experiments import KINDS, ExperimentConfig, ExperimentResult
from .mse import HIST_BINS, MetricSeries, MseReport, decompose, summarize
from .complementarity import theory_bmzi, theory_pqe

CSV_HEADER = "kind,label,angle_index,angle,repetition,coherence,predictability,sum,sum_raw,psd_violation"
CSV_FIELDS = tuple(CSV_HEADER.split(","))

SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

CURVE_COLORS = {"sum": "#000000", "coherence": "#e07b00", "predictability": "#1f5fbf"}


def fmt12(x: float) -> str:
    return f"{x:.12f}"


@dataclass(slots=True)
class ResultRow:
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


@dataclass(frozen=True)
class SummaryRow:
    """One line of the sparkline table: distribution of the summed MSE."""

    label: str
    mean: float
    std: float
    corr: float
    min: float
    max: float
    histogram: tuple[int, ...]
    overflow: int = 0


@dataclass(frozen=True)
class RunManifest:
    tool: str
    version: str
    timestamp: str
    master_seed: int
    config_path: str
    outputs: tuple[str, ...]


def result_csv(result: ExperimentResult) -> str:
    kind = result.config.kind
    label = result.config.run_label
    lines = [CSV_HEADER]
    lines.extend(
        f"{kind},{label},{rec.angle_index},{rec.angle:.12f},{rec.repetition},{rec.coherence:.12f},"
        f"{rec.predictability:.12f},{rec.total:.12f},{rec.total_raw:.12f},{rec.psd_violation:.12f}"
        for rec in result.records
    )
    return "\n".join(lines) + "\n"


def summary_text(result: ExperimentResult) -> str:
    lines = ["# sweep summary"]
    lines.extend(config_lines(result.config))
    rep = result.report
    lines.append(f"mse_sum_mean = {fmt12(rep.mse_sum)}")
    lines.append(f"mse_c_mean = {fmt12(rep.mse_c)}")
    lines.append(f"mse_p_mean = {fmt12(rep.mse_p)}")
    lines.append(f"corr_mean = {fmt12(rep.corr)}")
    lines.append(f"mean = {fmt12(rep.mean)}")
    lines.append(f"std = {fmt12(rep.std)}")
    lines.append(f"min = {fmt12(rep.min)}")
    lines.append(f"max = {fmt12(rep.max)}")
    lines.append("histogram = " + ",".join(str(c) for c in rep.histogram))
    lines.append(f"overflow = {rep.overflow}")
    return "\n".join(lines) + "\n"


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
    manifest = RunManifest(
        tool="interfero",
        version=version,
        timestamp=_dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds"),
        master_seed=config.master_seed,
        config_path=config_path.name,
        outputs=tuple(p.name for p in outputs),
    )
    lines = [
        f"tool = {manifest.tool}",
        f"version = {manifest.version}",
        f"timestamp = {manifest.timestamp}",
        f"master_seed = {manifest.master_seed}",
        f"config = {manifest.config_path}",
        "outputs = " + ",".join(manifest.outputs),
    ]
    path = out / "manifest.txt"
    _write(path, "\n".join(lines) + "\n")
    return path


def read_results(csv_path: str | Path) -> list[ResultRow]:
    """Parse a results CSV back into rows.

    A malformed line is a ValidationError naming ``path:line``: a wrong field
    count, an unknown kind, a non-integer index, an unparseable or non-finite
    number, a kind that differs from the label's earlier rows, or a repeated
    (label, angle_index, repetition) cell.
    """
    path = Path(csv_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValidationError(f"{path}: missing or unexpected results header")
    rows = []
    label_kinds: dict[str, str] = {}
    cells: set[tuple[str, int, int]] = set()
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 10:
            raise ValidationError(f"{path}:{ln}: expected 10 fields, got {len(parts)}")
        kind, label = parts[0], parts[1]
        if kind not in KINDS:
            raise ValidationError(f"{path}:{ln}: kind must be one of {KINDS}, got {kind!r}")
        try:
            i, angle, rep = int(parts[2]), float(parts[3]), int(parts[4])
            metrics = (float(parts[5]), float(parts[6]), float(parts[7]), float(parts[8]), float(parts[9]))
        except ValueError:
            raise ValidationError(f"{path}:{ln}: {_field_error(parts)}") from None
        if not (math.isfinite(angle) and all(map(math.isfinite, metrics))):
            raise ValidationError(f"{path}:{ln}: {_field_error(parts)}")
        if label_kinds.setdefault(label, kind) != kind:
            raise ValidationError(
                f"{path}:{ln}: label {label!r} has kind {kind!r}, but {label_kinds[label]!r} on earlier rows"
            )
        cell = (label, i, rep)
        if cell in cells:
            first = 2 + next(k for k, r in enumerate(rows) if (r.label, r.angle_index, r.repetition) == cell)
            raise ValidationError(
                f"{path}:{ln}: duplicate row for label {label!r}, angle index {i}, repetition {rep} (first at line {first})"
            )
        cells.add(cell)
        rows.append(ResultRow(kind, label, i, angle, rep, *metrics))
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return rows


def _field_error(parts: list[str]) -> str:
    """Describe the first numeric field of a results row that does not parse or is not finite."""
    for name, text in zip(CSV_FIELDS[2:], parts[2:]):
        integer = name in ("angle_index", "repetition")
        try:
            value = int(text) if integer else float(text)
        except ValueError:
            return f"{name} must be {'an integer' if integer else 'a number'}, got {text!r}"
        if not math.isfinite(value):
            return f"{name} must be finite, got {text!r}"
    raise AssertionError("called on a row whose fields all parse")


def reports_from_rows(rows: list[ResultRow]) -> dict[str, MseReport]:
    """Recompute per-label MSE reports from stored rows."""
    reports = {}
    for label in _labels(rows):
        subset = [r for r in rows if r.label == label]
        kind = subset[0].kind
        angle_indices = sorted({r.angle_index for r in subset})
        reps = sorted({r.repetition for r in subset})
        by_cell = {(r.angle_index, r.repetition): r for r in subset}
        for i in angle_indices:
            for rep in reps:
                if (i, rep) not in by_cell:
                    raise ValidationError(
                        f"label {label!r}: missing row for angle index {i}, repetition {rep}"
                    )
        angles = np.array([by_cell[(i, reps[0])].angle for i in angle_indices])
        oracle = theory_bmzi if kind == "bmzi" else theory_pqe
        points = [oracle(a) for a in angles]
        theory_c = np.array([p.coherence for p in points])
        theory_p = np.array([p.predictability for p in points])
        decomps = []
        for rep in reps:
            series = MetricSeries(
                angles=angles,
                experimental_c=np.array([by_cell[(i, rep)].coherence for i in angle_indices]),
                experimental_p=np.array([by_cell[(i, rep)].predictability for i in angle_indices]),
                theory_c=theory_c,
                theory_p=theory_p,
            )
            decomps.append(decompose(series))
        reports[label] = summarize([d.mse_sum for d in decomps], tuple(decomps))
    return reports


def summary_row(label: str, report: MseReport) -> SummaryRow:
    return SummaryRow(
        label=label,
        mean=report.mean,
        std=report.std,
        corr=report.corr,
        min=report.min,
        max=report.max,
        histogram=report.histogram,
        overflow=report.overflow,
    )


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


def aggregate_curves(rows: list[ResultRow]) -> dict[str, CurveData]:
    """Mean and standard deviation over repetitions, per label and angle."""
    curves = {}
    for label in _labels(rows):
        subset = [r for r in rows if r.label == label]
        kind = subset[0].kind
        angle_indices = sorted({r.angle_index for r in subset})
        angles = []
        stats = {"c": ([], []), "p": ([], []), "s": ([], [])}
        for i in angle_indices:
            cell = [r for r in subset if r.angle_index == i]
            angles.append(cell[0].angle)
            for key, values in (
                ("c", [r.coherence for r in cell]),
                ("p", [r.predictability for r in cell]),
                ("s", [r.total for r in cell]),
            ):
                stats[key][0].append(float(np.mean(values)))
                stats[key][1].append(float(np.std(values)))
        angles = np.array(angles)
        oracle = theory_bmzi if kind == "bmzi" else theory_pqe
        points = [oracle(a) for a in angles]
        curves[label] = CurveData(
            label=label,
            kind=kind,
            angles=angles,
            mean_c=np.array(stats["c"][0]),
            std_c=np.array(stats["c"][1]),
            mean_p=np.array(stats["p"][0]),
            std_p=np.array(stats["p"][1]),
            mean_sum=np.array(stats["s"][0]),
            std_sum=np.array(stats["s"][1]),
            theory_c=np.array([p.coherence for p in points]),
            theory_p=np.array([p.predictability for p in points]),
        )
    return curves


def render_curves(curve: CurveData) -> str:
    """Mean-value curves with error bars over thin theory lines, as SVG."""
    width, height = 520, 360
    left, right, top, bottom = 56, 16, 28, 44
    plot_w, plot_h = width - left - right, height - top - bottom
    x_min, x_max = float(curve.angles[0]), float(curve.angles[-1])
    y_top_data = max(
        1.05,
        float(np.max(curve.mean_sum + curve.std_sum)) * 1.05,
        float(np.max(curve.theory_c + curve.theory_p)) * 1.05,
    )
    y_min, y_max = -0.05, y_top_data

    def sx(x: float) -> float:
        return left + (x - x_min) / (x_max - x_min) * plot_w

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


def render_sparkline_table(rows: list[SummaryRow]) -> tuple[str, str]:
    """Sparkline histogram table in text and SVG form.

    Text rows show mean/std/corr/min, a 60-bin block-character sparkline and
    max, with a marker line underneath ('^' at the min, mean and max bins).
    Negative corr values get a '*' marker (red in the SVG variant).
    """
    if not rows:
        raise ValidationError("sparkline table needs at least one row")
    return _sparkline_text(rows), _sparkline_svg(rows)


def _sparkline_text(rows: list[SummaryRow]) -> str:
    header = f"{'label':>8}  {'mean':>7} {'std':>7} {'corr':>8} {'min':>7}  {'MSE histogram':<{HIST_BINS}}  {'max':>6}"
    lines = [header]
    for row in rows:
        spark = _spark_glyphs(row.histogram)
        corr_text = f"{row.corr:.3f}" + ("*" if row.corr < 0 else "")
        lines.append(
            f"{row.label:>8}  {row.mean:7.3f} {row.std:7.3f} {corr_text:>8} {row.min:7.3f}  {spark}  {row.max:6.2f}"
        )
        marker = [" "] * HIST_BINS
        for value in (row.min, row.mean, row.max):
            marker[_bin_of(value)] = "^"
        prefix = " " * (len(header) - HIST_BINS - 8)
        lines.append(prefix + "".join(marker))
    return "\n".join(lines) + "\n"


def _sparkline_svg(rows: list[SummaryRow]) -> str:
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
    for k, row in enumerate(rows):
        y0 = 26 + k * row_h
        base = y0 + spark_h + 4
        corr_color = "#cc0000" if row.corr < 0 else "#000000"
        parts.append(f'<text x="8" y="{base - 6}" font-size="11">{_esc(row.label)}</text>')
        parts.append(f'<text x="68" y="{base - 6}" font-size="11">{row.mean:.3f}</text>')
        parts.append(f'<text x="128" y="{base - 6}" font-size="11">{row.std:.3f}</text>')
        parts.append(f'<text x="188" y="{base - 6}" font-size="11" fill="{corr_color}">{row.corr:.3f}</text>')
        parts.append(f'<text x="248" y="{base - 6}" font-size="11">{row.min:.3f}</text>')
        peak = max(max(row.histogram), 1)
        pts = []
        for b in range(HIST_BINS):
            x = left_cols + (b + 0.5) / HIST_BINS * spark_w
            y = base - row.histogram[b] / peak * spark_h
            pts.append(f"{x:.2f},{y:.2f}")
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="black" stroke-width="1"/>'
        )
        for value, on_curve in ((row.min, False), (row.max, False), (row.mean, True)):
            x = left_cols + (_bin_of(value) + 0.5) / HIST_BINS * spark_w
            y = base - (row.histogram[_bin_of(value)] / peak * spark_h if on_curve else 0.0)
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" fill="black"/>')
        parts.append(f'<text x="{left_cols + spark_w + 12}" y="{base - 6}" font-size="11">{row.max:.2f}</text>')
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


def _bin_of(value: float) -> int:
    return min(max(int(np.floor(value * HIST_BINS)), 0), HIST_BINS - 1)


def _labels(rows: list[ResultRow]) -> list[str]:
    seen: dict[str, None] = {}
    for r in rows:
        seen.setdefault(r.label, None)
    return list(seen)


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _write(path: Path, content: str) -> None:
    path.write_text(content, encoding="utf-8", newline="\n")
