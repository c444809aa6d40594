"""The results writer: everything ``interfero run`` writes, kept apart from the reader.

Numbers in results.csv have 12 fractional digits, '.' radix and LF line
ends, so identical runs produce identical bytes.  :func:`result_csv` formats
them with one numpy kernel over blocks of rows that writes exactly the text
of :func:`fmt12` for every value.
"""

from __future__ import annotations

import datetime as _dt
import platform
from dataclasses import fields
from functools import cache
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .experiments import BLOCK_CELLS, METRICS, QUBITS, ExperimentConfig, ExperimentResult, SweepTable
from .mse import MseReport

CSV_HEADER = "kind,label,angle_index,angle,repetition,coherence,predictability,sum,sum_raw,psd_violation"

#: :func:`result_csv` formats a value with its kernel when ``abs(value)`` is below
#: this: then ``abs(value) * 10**12`` rounds to an integer below ``2**53``, which a
#: float holds exactly.  Every value :func:`run_sweep` gives lies far inside.
FIXED12_LIMIT = 2.0**53 / 1e12

#: Bytes of one number that :func:`result_csv` writes at full width: sign, four
#: integer digits, '.', twelve decimals.
FIELD = 18


def fmt12(x: float) -> str:
    return f"{x:.12f}"


def result_csv(result: ExperimentResult) -> str:
    """The text of results.csv: the header, then one row per cell, angle-major.

    Every number reads as :func:`fmt12` writes it.  The rows are formatted
    :data:`BLOCK_CELLS` at a time (:func:`_csv_block`), so the transients
    stay one block's size, and the text is decoded once at the end.
    """
    table = result.table
    cells = table.coherence.size
    chunks = [f"{CSV_HEADER}\n".encode()]
    chunks.extend(_csv_block(table, start, min(start + BLOCK_CELLS, cells)) for start in range(0, cells, BLOCK_CELLS))
    data = b"".join(chunks)
    chunks.clear()  # frees the blocks' bytes before the text is decoded
    return data.decode()


def _csv_block(table: SweepTable, start: int, stop: int) -> bytes:
    """The UTF-8 bytes of results.csv rows ``start`` to ``stop``.

    A block whose floats all have ``abs(x) < FIXED12_LIMIT`` is one numpy
    kernel: each row is a fixed-width byte matrix row with every field at
    full width, digits from :func:`_fixed12` and :func:`_digits`, and a
    keep-mask drops the leading zeros and the signs of values whose sign
    bit is clear (so ``-0.0`` keeps its '-', as in :func:`fmt12`).  A block
    holding a larger or a non-finite value is written row by row with
    :func:`fmt12` instead, so no value ever gets wrong text.
    """
    n, m = table.coherence.shape
    index, repetition = np.divmod(np.arange(start, stop), m)
    values = np.stack([table.angles[index], *(getattr(table, name).ravel()[start:stop] for name in METRICS)], axis=1)
    prefix = f"{table.kind},{table.label},"
    if not (np.abs(values) < FIXED12_LIMIT).all():
        return _rows_text(prefix, index, repetition, values).encode()
    index_width, repetition_width = len(str(max(n - 1, 0))), len(str(max(m - 1, 0)))
    number = "-0000.000000000000,"
    template = f"{prefix}{'0' * index_width},{number}{'0' * repetition_width},{number * len(METRICS)}"[:-1] + "\n"
    text = np.repeat(np.frombuffer(template.encode(), dtype=np.uint8)[None], len(index), axis=0)
    keep = np.ones(text.shape, dtype=bool)
    index_at = len(prefix.encode())
    angle_at = index_at + index_width + 1
    repetition_at = angle_at + FIELD + 1
    metrics_at = repetition_at + repetition_width + 1
    for column, width, at in ((index, index_width, index_at), (repetition, repetition_width, repetition_at)):
        text[:, at : at + width], keep[:, at : at + width - 1] = _digits(column, width, 1)
    digits, leading = _digits(_fixed12(values), 16, 13)
    # views of the angle's field and of the metric fields, each with the byte after it
    for columns, at, count in ((slice(0, 1), angle_at, 1), (slice(1, None), metrics_at, len(METRICS))):
        field_text = text[:, at : at + count * (FIELD + 1)].reshape(len(index), count, FIELD + 1)
        field_keep = keep[:, at : at + count * (FIELD + 1)].reshape(len(index), count, FIELD + 1)
        field_text[..., 1:5] = digits[:, columns, :4]
        field_text[..., 6:FIELD] = digits[:, columns, 4:]
        field_keep[..., 0] = np.signbit(values[:, columns])
        field_keep[..., 1:4] = leading[:, columns]
    return text[keep].tobytes()


def _rows_text(prefix: str, index: np.ndarray, repetition: np.ndarray, values: np.ndarray) -> str:
    """Rows of results.csv written one by one with :func:`fmt12`; ``values`` holds each row's angle, then its metrics."""
    return "".join(
        f"{prefix}{i},{fmt12(angle)},{r},{','.join(map(fmt12, metrics))}\n"
        for i, r, (angle, *metrics) in zip(index.tolist(), repetition.tolist(), values.tolist())
    )


def _fixed12(x: np.ndarray) -> np.ndarray:
    """``round(abs(x) * 10**12)`` of each float, exactly, halves to even, as int64.

    ``f"{x:.12f}"`` writes the digits of this integer, as it rounds the
    exact binary value of ``x``.  ``p = fl(a * 1e12)`` carries a rounding
    error ``e`` with ``p + e == a * 10**12`` exactly; Dekker's two-product
    finds it, splitting ``a`` into two 26-bit halves (Veltkamp) and 10**12
    into 999999995904 + 4096, so every partial product is exact.  With
    ``q = rint(p)`` and ``d = p - q`` (both exact), the exact value lies
    above ``q + 1/2`` when ``(d - 1/2) + e > 0`` and below ``q - 1/2`` when
    ``(d + 1/2) + e < 0``; both sums are exact where they are near zero, and
    a float sum has the sign of the exact one.  A tie needs no correction:
    below ``2**52`` it is ``p`` itself (``e == 0``), which ``rint`` rounds
    to even, and above, ``p`` is the integer that rounding ``a * 10**12``
    to nearest-even made even.  Exact for finite ``abs(x) < FIXED12_LIMIT``;
    larger values must not be passed.
    """
    a = np.abs(x)
    p = a * 1e12
    # reusing buffers below keeps the transients at a few arrays of x's size
    hi = a * 134217729.0  # 2**27 + 1
    hi -= hi - a
    lo = np.subtract(a, hi, out=a)
    e = hi * 999999995904.0
    e -= p
    e += hi * 4096.0
    e += lo * 999999995904.0
    e += lo * 4096.0
    q = np.rint(p)
    d = np.subtract(p, q, out=p)
    above = np.subtract(d, 0.5, out=hi)
    above += e
    below = np.add(d, 0.5, out=lo)
    below += e
    q = q.astype(np.int64)
    q += above > 0
    q -= below < 0
    return q


@cache
def _digit_table() -> np.ndarray:
    """Entry ``k`` holds the four ASCII digits of ``k``, zero-padded, as the bytes of one uint32."""
    # in uint16, so building it holds no megabyte of int64 temporaries
    k = np.arange(10_000, dtype=np.uint16)
    digits = k[:, None] // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10 + ord("0")
    table = digits.astype(np.uint8).view(np.uint32).ravel()
    table.flags.writeable = False
    return table


def _digits(values: np.ndarray, width: int, kept: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``width`` ASCII digits of each integer in ``0 <= values < 10**width``, zero-padded.

    Also gives which of the first ``width - kept`` digits to write: those
    that are not leading zeros; the last ``kept`` digits are always written.
    Each four digits come from one lookup in :func:`_digit_table`.
    """
    groups = -(-width // 4)
    digits = np.empty((*values.shape, groups), dtype=np.uint32)
    rest = values
    for g in range(groups - 1, 0, -1):
        rest, group = np.divmod(rest, 10_000)
        digits[..., g] = _digit_table().take(group)
    digits[..., 0] = _digit_table().take(rest)
    leading = values[..., None] >= 10 ** np.arange(width - 1, kept - 1, -1, dtype=np.int64)
    return digits.view(np.uint8)[..., 4 * groups - width :], leading


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


def run_counters(table: SweepTable, shots: int) -> dict[str, int | float]:
    """A sweep's counters, each cell of ``table`` having drawn ``shots`` per tomography setting (0: analytic).

    The cells and the shots drawn in all; the cells the PSD projection clipped and the largest and the
    total clipped mass; the cells whose raw C + P exceeds the bound d - 1.  Counted on the values as
    results.csv writes them, to 12 decimals (:func:`_fixed12`), so a recount from that file agrees and
    float residue below 5e-13 counts as no clipping.
    """
    d = 1 << QUBITS[table.kind]
    mass, raw = _fixed12(table.psd_violation), _fixed12(table.total_raw)  # both at least 0, up to float residue
    return {
        "cells": mass.size,
        "shots": mass.size * (d * d - 1) * shots,
        "clipped_cells": int(np.count_nonzero(mass)),
        "clipped_mass_max": float(table.psd_violation.max()),  # rounding keeps the order, so it writes the largest text
        "clipped_mass_total": int(mass.sum()) / 1e12,
        "raw_over_bound_cells": int(np.count_nonzero(raw > (d - 1) * 10**12)),
    }


def write_manifest(out_dir: str | Path, result: ExperimentResult, outputs: list[Path], version: str) -> Path:
    out, config = Path(out_dir), result.config
    config_path = out / "config.cfg"
    _write(config_path, "\n".join(config_lines(config)) + "\n")
    counters = run_counters(result.table, 0 if config.analytic else config.shots)
    lines = [
        "tool = interfero",
        f"version = {version}",
        f"timestamp = {_dt.datetime.now(_dt.timezone.utc).isoformat(timespec='seconds')}",
        f"master_seed = {config.master_seed}",
        f"config = {config_path.name}",
        "outputs = " + ",".join(p.name for p in outputs),
        *(f"{key} = {fmt12(value) if isinstance(value, float) else value}" for key, value in counters.items()),
        f"python = {platform.python_version()}",
        f"numpy = {np.__version__}",
        f"blas = {_blas_line()}",
    ]
    path = out / "manifest.txt"
    _write(path, "\n".join(lines) + "\n")
    return path


def read_text(path: Path) -> str:
    """The text of a UTF-8 file; other bytes are a one-line ValidationError."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not valid UTF-8 at byte {exc.start}") from None


def _blas_line() -> str:
    """numpy's BLAS on one line: its name, version and, for OpenBLAS, the configuration it reports."""
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy 1.24 has no mode="dicts"
        return "unknown"
    text = " ".join(str(blas[key]) for key in ("name", "version", "openblas configuration") if key in blas)
    return " ".join(text.split()) or "unknown"


def _write(path: Path, content: str) -> None:
    path.write_text(content, encoding="utf-8", newline="\n")
