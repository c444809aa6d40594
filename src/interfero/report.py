"""The results reader, the MSE tables and curves, and their renderers.

:func:`read_results` parses a results.csv into ``{label: SweepTable}``:
a numpy byte kernel reads the grammar :mod:`interfero.output` writes,
each number bitwise as Python's ``int`` and ``float`` read it, and Python
converts line by line a file the kernel declines.  The tables of a file
that parses are cached beside it, in ``.<name>.tables``, under its identity
(device, inode, size, mtime, ctime) and the sha256 of the code that reads
it: a hit reads none of its bytes, writes nothing and gives bitwise the
tables of a parse, a change to this package's sources or to numpy's version
makes every older entry a miss, and a file that fails to parse is never
stored.  :func:`reports_from_rows` and :func:`aggregate_curves` reduce such
a dict, read back or held by a run, to MSE reports and mean curves.  Figures
are plain SVG strings built without imaging dependencies; sparkline tables
come in a text variant (8-level block characters) and an SVG variant.
"""

from __future__ import annotations

import hashlib
import math
import os
from array import array
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from itertools import compress, islice
from operator import attrgetter
from pathlib import Path
from time import time_ns

import numpy as np
from numpy.lib.format import read_array

from .errors import ValidationError
from .experiments import BLOCK_CELLS, KINDS, METRICS, SweepTable, analyze, theory_series
from .mse import HIST_BINS, MseReport, histogram_bins
# write_manifest and write_results are unused here: the benchmark's tracer looks them up in this module
from .output import CSV_HEADER, read_text, write_manifest, write_results  # noqa: F401

CSV_FIELDS = tuple(CSV_HEADER.split(","))

SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

CURVE_COLORS = {"sum": "#000000", "coherence": "#e07b00", "predictability": "#1f5fbf"}

KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}

INDEX_FIELDS = ("angle_index", "repetition")

#: What tells one version of a file from another: a change to its bytes moves its ctime, which only root can set back.
_identity = attrgetter("st_dev", "st_ino", "st_size", "st_mtime_ns", "st_ctime_ns")


def read_results(csv_path: str | Path) -> dict[str, SweepTable]:
    """Parse a results CSV into a dict of each label, in order of first appearance, to its table (so too on a hit).

    A malformed line is a ValidationError naming ``path:line``: a wrong field count, an unknown kind,
    a non-integer index, an unparseable or non-finite number, a kind that differs from the label's
    earlier rows, an angle that differs from earlier rows of the same (label, angle_index), or a
    repeated (label, angle_index, repetition) cell; of several, the lowest.  A label whose rows miss
    a cell of its (angle_index, repetition) grid is a ValidationError naming ``path``.

    A numpy byte kernel over the grammar the writer uses (:func:`_load_file`) reads the file, or
    where it declines the file, Python's ``int`` and ``float`` convert it line by line
    (:func:`_read_lines`); both give the same columns, which :func:`_group` groups by label.

    The grouped columns of a file that parses are cached beside it, in ``.<name>.tables``, under the key of the
    open file and the code that reads it (:func:`_key`).  A hit builds the tables from the entry without reading
    the file, writes nothing, and gives bitwise the tables of a miss.  A missing, corrupt or mismatched entry, or
    one that other sources of this package or another numpy wrote, is a miss, which writes the entry afresh only where
    the file kept its identity while read and is :func:`_settled`.  A file that fails to parse is never stored, so
    it fails alike on every read.  Where the entry can be neither read nor written, no digest is taken.
    """
    path = Path(csv_path)
    with open(path, "rb") as f:
        stat, entry = os.fstat(f.fileno()), path.with_name(f".{path.name}.tables")
        if tables := _read_entry(entry, stat):
            return tables
        data = f.read()
        store = _identity(os.fstat(f.fileno())) == _identity(stat) and _settled(stat.st_ctime_ns)
    columns = _load_file(path, data)
    del data  # freed before a declined file is read line by line, whose lines are the peak
    grid = _group(path, *(columns or _read_lines(path)))
    if store:
        _store(entry, stat, *grid)
    return _tables(*grid)


def _settled(ctime_ns: int) -> bool:
    """Whether a file whose ctime is ``ctime_ns`` is older than the tick that stamped it, with room to spare: 3 s
    for a whole-second stamp (FAT, ext3 and HFS+ keep 1-2 s stamps), else 0.1 s (ten 10 ms ticks of Linux's coarse
    clock).  A change within that tick could keep the file's identity; no later change can (git's racy-clean rule)."""
    return time_ns() - ctime_ns >= (3 if ctime_ns % 10**9 == 0 else 0.1) * 10**9


@cache
def _code_digest() -> bytes:
    """The sha256 of numpy's version and of each source file of this package, so that an entry is read only by
    the code that wrote it: a change to what the reader returns, accepts or rejects needs no format number."""
    digest = hashlib.sha256(np.__version__.encode())
    for source in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(hashlib.sha256(source.read_bytes()).digest())
    return digest.digest()


def _key(stat: os.stat_result) -> bytes:
    """The first array of the entry of the results file whose ``os.fstat`` is ``stat``, read by this code: the code
    digest in hex, then the file's identity as decimal text (an inode is an unsigned 64-bit number)."""
    return f"{_code_digest().hex()}-{'-'.join(map(str, _identity(stat)))}".encode()


def _read_entry(entry: Path, stat: os.stat_result) -> dict[str, SweepTable] | None:
    """The tables of the grid :func:`_store` wrote to ``entry`` for the file whose ``os.fstat`` is ``stat``, or None
    where the entry is missing, holds another key or is not such a grid, as one a store is writing or left cut short."""
    try:
        with open(entry, "rb") as f:
            if read_array(f, allow_pickle=False).tobytes() != _key(stat):
                return None
            text, kinds, shapes, floats = (read_array(f, allow_pickle=False) for _ in range(4))
        labels = text.tobytes().decode().split("\n")  # no label holds a line break: both readers end lines there
        tables = _tables(labels, kinds, shapes, floats)  # fails on labels, kinds and shapes that do not go together
        cells = sum(table.coherence.size for table in tables.values())  # fewer where two labels are equal
        if floats.dtype != np.float64 or not floats.flags.c_contiguous or floats.shape != (len(METRICS) + 1, cells):
            return None
    except (OSError, IndexError, TypeError, ValueError):
        return None  # a missing, truncated or foreign entry is a miss
    return tables


def _store(entry: Path, stat: os.stat_result, labels: list[str], *arrays: np.ndarray) -> None:
    """Write ``entry`` afresh, by exclusive create, as five .npy arrays: the key of the file whose ``os.fstat`` is
    ``stat``, then its grid (the labels as one text joined by line breaks, which no label holds, then the kind codes,
    shapes and floats of ``arrays``).  The exclusive create gives each entry file one writer; a store that finds the
    entry another store created first leaves it be, and one cut short by a kill or a full disk is a miss to read."""
    try:
        entry.unlink(missing_ok=True)  # fails on a directory there, before any byte is written or digest taken
        with open(entry, "xb") as f:  # before the key, so that no digest is taken where nothing can be written
            key, text = (np.frombuffer(b, np.uint8) for b in (_key(stat), "\n".join(labels).encode()))
            for array in (key, text, *arrays):
                np.save(f, array, allow_pickle=False)
    except OSError:  # an entry path that cannot be replaced, another store's entry, or a full disk
        pass  # the tables are returned all the same


def _load_file(path: Path, data: bytes) -> tuple[np.ndarray, np.ndarray, list[str], tuple[int, str] | None] | None:
    """The columns of a whole results file, whose bytes are ``data``, from one numpy byte kernel, and its first
    line fault; or None.

    The kernel takes the grammar that :func:`interfero.output.result_csv` writes.  Lines end at ``\\n``,
    ``\\r\\n`` or a lone ``\\r``, as for ``str.splitlines``; each has nine commas; a float field is
    ``-?[0-9]{1,3}\\.[0-9]{12}`` and an index field ``[0-9]{1,8}``.  A float's digits form an integer
    ``M < 10**15 < 2**53``, so ``M / 1e12``, one correctly rounded division, negated after a '-', is
    ``float(text)`` bit for bit.  The rows are read :data:`BLOCK_CELLS` at a time.

    None, for :func:`_read_lines`, on a control byte other than tab, LF and CR, a Unicode line break, no
    rows, a line without nine commas, an unknown kind, a label far longer than the rest, or a first row
    outside the grammar in which :func:`_line_fault` finds no fault.  A row it faults is given with the
    rows before it, as :func:`_read_lines` gives them.
    """
    header = CSV_HEADER.encode()
    starts_well = data[: len(header) + 1] in (header + b"\n", header + b"\r")
    if not (starts_well and (data.isascii() or _is_utf8_without_unicode_breaks(data))):
        return None
    b = np.frombuffer(data, np.uint8)
    # the control bytes, sought a megabyte at a time so that no mask as long as the file is held
    control = np.concatenate([np.flatnonzero(b[i : i + 2**20] < ord(" ")) + i for i in range(0, len(b), 2**20)])
    eol = control[b[control] != ord("\t")]
    # the empty text between the two bytes of a \r\n is no line, nor is the empty text after a final line end
    starts, ends = np.append(0, eol + 1), np.append(eol, len(b))
    lines = np.append((b[eol] != ord("\n")) | (b[eol - 1] != ord("\r")), ends[-1] > starts[-1])
    starts, ends = starts[lines][1:], ends[lines][1:]  # the rows, past the header
    if not len(starts) or np.isin(b[eol], (ord("\n"), ord("\r")), invert=True).any():
        return None
    # the eight bytes from each offset, as one word, and the sixteen, as two
    words, pairs = (np.ndarray((len(b) + 1 - size,), f"V{size}", data, strides=(1,)) for size in (8, 16))
    ints, floats, labels = np.empty((4, len(starts)), np.int64), np.empty((6, len(starts))), {}
    for r in range(0, len(starts), BLOCK_CELLS):
        s, e, n = starts[r : r + BLOCK_CELLS], ends[r : r + BLOCK_CELLS], min(BLOCK_CELLS, len(starts) - r)
        commas = np.flatnonzero(b[s[0] : e[-1]] == ord(",")) + s[0]
        if len(commas) != 9 * n:
            return None
        # with nine commas per line on average, each line has nine just when the k-th nine lie in the k-th line
        bounds = np.column_stack((commas.reshape(n, 9), e))
        key_bytes = bounds[:, 1] - s  # the kind, its comma and the label
        # a label far longer than the rest would make the words of that text cost more memory than the text
        if ((bounds[:, 0] < s) | (bounds[:, 8] > e)).any() or key_bytes.max() * n > 4 * (e[-1] - s[0]):
            return None
        # (kind, label) is coded once per run of equal rows: where that text, read in words, differs
        # from the row before's (numpy shifts a word by 64 bits to 0)
        offsets = np.arange(0, key_bytes.max(), 8)
        clear = (64 - 8 * np.clip(key_bytes[:, None] - offsets, 0, 8)).astype(np.uint64)
        key = words[np.minimum(s[:, None] + offsets, len(words) - 1)].view("<u8") << clear >> clear
        at = np.flatnonzero(np.append(True, (key[1:] != key[:-1]).any(axis=1)))
        text = [data[i:j].decode().split(",") for i, j in zip(s[at].tolist(), bounds[at, 1].tolist())]
        kinds, codes = [KIND_CODES.get(kind) for kind, _ in text], [labels.setdefault(x, len(labels)) for _, x in text]
        if None in kinds:
            return None
        ints[:2, r : r + n] = np.repeat([codes, kinds], np.diff(at, append=n), axis=1)
        # the number fields [lo, hi), bytes before a field read as '0': an index is the word ending at its last
        # byte; a float, the word of its last eight decimals and the word before, integer digits moved over the '.'
        lo, hi = bounds[:, 1:9].T + 1, bounds[:, 2:].T  # by field, then row
        size, ok = hi - lo, np.empty((8, n), dtype=bool)
        i, f = [0, 2], [1, 3, 4, 5, 6, 7]  # angle_index and repetition; the floats
        width = np.clip(size[i], 1, 8)
        ok[i], ints[2:, r : r + n] = _digits8(words[hi[i] - 8].view("<u8"), 8 - width)
        ok[i] &= width == size[i]
        sign = b.take(lo[f], mode="clip") == ord("-")
        digits = size[f] - 13 - sign  # of the integer part
        width, (head, tail) = np.clip(digits, 1, 3), np.moveaxis(pairs[hi[f] - 16].view("<u8").reshape(6, n, 2), 2, 0)
        ok[f], whole = _digits8((head & 0xFFFFFF) << 8 | head & 0xFFFFFFFF00000000, 4 - width)
        ok_tail, tail = _digits8(tail)
        ok[f] &= ok_tail & (width == digits) & (head >> 24 & 0xFF == ord("."))
        value = (whole * 10**8 + tail).astype(np.float64) / 1e12
        floats[:, r : r + n] = np.negative(value, out=value, where=sign)
        if not ok.all():  # the first row outside the grammar: its line's fault, or Python reads it
            k = r + int(np.argmin(ok.all(axis=0)))
            fault = _line_fault(data[starts[k] : ends[k]].decode())
            names = list(labels)[: ints[0, :k].max(initial=-1) + 1]
            return (ints[:, :k], floats[:, :k], names, (k, fault)) if fault else None
    return ints, floats, list(labels), None


def _digits8(words: np.ndarray, skip: np.ndarray | int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Whether each little-endian word's eight bytes, its first ``skip`` read as '0', are ASCII digits, and their value.

    SWAR steps after Lemire, "Number Parsing at a Gigabyte per Second" (2021): a byte ``c`` is a digit when
    ``x = c ^ 0x30`` is at most 9, so neither ``x`` nor ``x + 0x76`` sets its high bit (a carry between bytes starts
    at a byte that is no digit); multiply-shifts then join the digit values in pairs, fours and eights."""
    x = (words ^ 0x3030303030303030) & np.uint64(2**64 - 1) << np.asarray(skip, np.uint64) * 8
    ok = (x | x + 0x7676767676767676) & 0x8080808080808080 == 0
    x = x * 2561 >> 8
    x = (x & 0x00FF00FF00FF00FF) * 6553601 >> 16
    return ok, (x & 0x0000FFFF0000FFFF) * 42949672960001 >> 32


def _is_utf8_without_unicode_breaks(data: bytes) -> bool:
    """Whether ``data`` is UTF-8 without U+0085, U+2028 or U+2029, where ``str.splitlines`` breaks lines."""
    try:
        return not any(map(data.decode().__contains__, "\x85\u2028\u2029"))
    except UnicodeDecodeError:
        return False


def _read_lines(path: Path) -> tuple[np.ndarray, np.ndarray, list[str], tuple[int, str] | None]:
    """The columns of a results file, each line converted by Python's ``int`` and ``float``, and its first line fault.

    Only the rows before the first line that is faulty on its own are given.
    The text's lines are the peak of memory, about 2.5 times the file's bytes.
    """
    lines = read_text(path).splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValidationError(f"{path}: missing or unexpected results header")
    # per row: label code; kind code, angle_index, repetition; angle, then the metrics
    codes, ints, floats = array("q"), array("q"), array("d")
    labels: dict[str, int] = {}
    for line in islice(lines, 1, None):
        try:  # a wrong field count fails the unpacking
            kind, label, index, angle, repetition, coherence, predictability, total, raw, violation = line.split(",")
            ints.extend((KIND_CODES[kind], int(index), int(repetition)))  # OverflowError beyond 64 bits
            floats.extend(map(float, (angle, coherence, predictability, total, raw, violation)))
        except (KeyError, ValueError, OverflowError):
            break
        codes.append(labels.setdefault(label, len(labels)))  # only once the row has converted
    del ints[3 * len(codes) :], floats[6 * len(codes) :]  # what a failed row appended before it failed
    values = np.frombuffer(floats).reshape(-1, 6)
    # the rows are kept up to the first that failed or that holds a value that is not finite
    kept = int(np.argmin(np.append(np.isfinite(values).all(axis=1), False)))
    fault = None if kept == len(lines) - 1 else (kept, _line_fault(lines[kept + 1]))
    del lines  # freed before the columns are copied, so the text's lines stay the peak
    keys = np.vstack((np.frombuffer(codes, np.int64), np.frombuffer(ints, np.int64).reshape(-1, 3).T))
    return keys[:, :kept], values.T[:, :kept].copy(), list(labels)[: keys[0, :kept].max(initial=-1) + 1], fault


def _line_fault(line: str) -> str | None:
    """What is wrong with one results line on its own, or None: the first of a wrong field count, an
    unknown kind, and a numeric field that does not parse, is not finite or is an index beyond 64 bits."""
    parts = line.split(",")
    if len(parts) != 10:
        return f"expected 10 fields, got {len(parts)}"
    if parts[0] not in KINDS:
        return f"kind must be one of {KINDS}, got {parts[0]!r}"
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
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Each label's rows as a grid, in order of first appearance: the labels, their kind codes, their
    (angles, repetitions) shapes and the float columns, each label's rows a block of them, angle-major.

    ``fault`` is the first row that is faulty on its own, if any; only the
    rows before it are given.  The lowest row that is faulty on its own or
    against earlier rows is a ValidationError, then the first missing cell.
    Rows in (label, angle_index, repetition) order, as ``interfero run``
    writes them, are grouped where they are, so the columns are ``floats``;
    other rows are first sorted into that order.
    """
    kind_at, angle_at = ints[1], floats[0]  # by line
    line = np.arange(ints.shape[1])  # the line of each row as the columns run, counted from 0
    if not _in_order(ints[0], ints[2], ints[3]):
        # stable, so the rows of a cell stay in file order
        line = np.lexsort((ints[3], ints[2], ints[0]))
        ints, floats = ints.take(line, axis=1), floats.take(line, axis=1)
    code, kind, index, rep = ints
    angle = floats[0]
    n = len(code)
    new_label = np.append(True, code[1:] != code[:-1])[:n]  # [:n] keeps no rows empty
    new_angle = new_label | np.append(True, index[1:] != index[:-1])[:n]
    new_cell = new_angle | np.append(True, rep[1:] != rep[:-1])[:n]

    def first_lines(new: np.ndarray) -> np.ndarray:
        """For each row, the lowest line of its group."""
        return np.minimum.reduceat(line, np.flatnonzero(new))[np.cumsum(new) - 1]

    label_first, angle_first = first_lines(new_label), first_lines(new_angle)
    # a later row of a cell is a duplicate, as the sort keeps a cell's rows in file order
    bad = (kind != kind_at[label_first]) | (angle != angle_at[angle_first]) | ~new_cell
    if bad.any():
        k = int(np.flatnonzero(bad)[np.argmin(line[bad])])
        label, i0 = labels[code[k]], int(index[k])
        if kind[k] != kind_at[label_first[k]]:
            message = f"label {label!r} has kind {KINDS[kind[k]]!r}, but {KINDS[kind_at[label_first[k]]]!r} on earlier rows"
        elif angle[k] != angle_at[angle_first[k]]:
            message = (
                f"label {label!r}, angle index {i0} has angle {float(angle[k])!r}, "
                f"but {float(angle_at[angle_first[k]])!r} on earlier rows"
            )
        else:
            message = (
                f"duplicate row for label {label!r}, angle index {i0}, repetition {int(rep[k])} "
                f"(first at line {first_lines(new_cell)[k] + 2})"
            )
        fault = (int(line[k]), message)
    if fault is not None:
        raise ValidationError(f"{path}:{fault[0] + 2}: {fault[1]}")
    if n == 0:
        raise ValidationError(f"{path}: no data rows")
    # each label's rows are one block of the columns, angle-major
    bounds = np.append(np.flatnonzero(new_label), n)
    shapes = np.empty((len(labels), 2), np.int64)
    for k, (label, a, b) in enumerate(zip(labels, bounds[:-1], bounds[1:])):
        angle_indices = index[a:b][new_angle[a:b]]
        # Each angle's repetitions rise, so they repeat the first angle's in every block of its
        # length exactly when each angle has those repetitions: the label's full grid.
        grid = rep[a:b].reshape(len(angle_indices), -1) if (b - a) % len(angle_indices) == 0 else None
        if grid is None or (grid != grid[0]).any():
            reps = np.unique(rep[a:b])
            held = np.zeros((len(angle_indices), len(reps)), dtype=bool)
            held[np.searchsorted(angle_indices, index[a:b]), np.searchsorted(reps, rep[a:b])] = True
            q, s = divmod(int(np.argmin(held)), len(reps))
            raise ValidationError(
                f"{path}: label {label!r}: missing row for angle index {angle_indices[q]}, repetition {reps[s]}"
            )
        shapes[k] = grid.shape
    return labels, kind[bounds[:-1]], shapes, floats


def _tables(labels: list[str], kinds: np.ndarray, shapes: np.ndarray, floats: np.ndarray) -> dict[str, SweepTable]:
    """Each label's table: its kind code, its (angles, repetitions) shape and its block of ``floats``' columns."""
    tables, a = {}, 0
    for label, kind, (n, m) in zip(labels, kinds.tolist(), shapes.tolist(), strict=True):
        # floats is C-contiguous, so every (n, m) grid is too
        angles, *metrics = floats[:, a : a + n * m].reshape(len(floats), n, m)
        tables[label] = SweepTable(KINDS[kind], label, angles[:, 0], *metrics)
        a += n * m
    return tables


def _in_order(code: np.ndarray, index: np.ndarray, rep: np.ndarray) -> bool:
    """Whether no row's (code, index, rep) key is below the row before it, so a stable sort moves no row."""
    rising = rep[1:] >= rep[:-1]
    for key in (index, code):
        rising = (key[1:] > key[:-1]) | (key[1:] == key[:-1]) & rising
    return bool(rising.all())


def reports_from_rows(tables: dict[str, SweepTable]) -> dict[str, MseReport]:
    """Per-label MSE reports of label-to-table ``tables``, as :func:`read_results` returns or a run holds.

    The theory curves are evaluated once per distinct (kind, angle grid) of the call, and each
    label on that grid is scored against them.  A report whose arithmetic overflows a float is
    a ValidationError naming its label.
    """
    reports, theory = {}, {}
    for label, table in tables.items():
        with _float_faults(label):
            reports[label] = analyze(table, _grid_theory(theory, table))
    return reports


def _grid_theory(theory: dict, table: SweepTable) -> tuple[np.ndarray, np.ndarray]:
    """:func:`theory_series` of ``table``'s kind and angles, evaluated only where ``theory``, keyed by
    (kind, angle bytes), holds no curves for that grid yet, and kept there."""
    key = table.kind, table.angles.tobytes()
    if key not in theory:
        theory[key] = theory_series(table.kind, table.angles)
    return theory[key]


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


def aggregate_curves(tables: dict[str, SweepTable]) -> dict[str, CurveData]:
    """Mean and standard deviation over repetitions, per label and angle, with the theory curves,
    evaluated once per distinct (kind, angle grid) of the call: labels on one grid share their arrays."""
    curves, theory = {}, {}
    for label, t in tables.items():
        with _float_faults(label):
            stats = [f(v, axis=1) for v in (t.coherence, t.predictability, t.total) for f in (np.mean, np.std)]
        curves[label] = CurveData(label, t.kind, t.angles, *stats, *_grid_theory(theory, t))
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
    """Mean-value curves with error bars over thin theory lines, as SVG.

    Each x is formatted once, into one template per point list that one ``%`` fills with its y's (``"%.2f" % v`` is
    ``f"{v:.2f}"`` for every float): each polyline's points, and each series' bars at the angles where its std > 0.
    """
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

    # points are mapped as arrays, each by the operations a single float takes, and each x is formatted once
    x_text = [f"{x:.2f}" for x in (left + (curve.angles - x_lo) / (x_hi - x_lo) * plot_w).tolist()]
    points = " ".join(f"{x},%.2f" for x in x_text)  # no formatted float holds a '%'

    def sy(y):
        return top + (y_max - y) / (y_max - y_min) * plot_h

    def polyline(ys: np.ndarray, color: str, stroke_width: float, opacity: float = 1.0) -> str:
        pts = points % tuple(sy(ys).tolist())
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
    parts.append(polyline(curve.theory_c + curve.theory_p, "#999999", 0.8))
    parts.append(polyline(curve.theory_c, "#d9b38c", 0.8))
    parts.append(polyline(curve.theory_p, "#9cb8d9", 0.8))
    # error bars then mean curves
    for mean, std, key in (
        (curve.mean_sum, curve.std_sum, "sum"),
        (curve.mean_c, curve.std_c, "coherence"),
        (curve.mean_p, curve.std_p, "predictability"),
    ):
        color = CURVE_COLORS[key]
        bar = std > 0
        if bar.any():
            bars = "\n".join(
                f'<line x1="{x}" y1="%.2f" x2="{x}" y2="%.2f" stroke="{color}" stroke-width="0.7" opacity="0.6"/>'
                for x in compress(x_text, bar.tolist())
            )
            parts.append(bars % tuple(sy(np.column_stack((mean - std, mean + std))[bar]).ravel().tolist()))
        parts.append(polyline(mean, color, 1.6))
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
    width = max(8, *(len(label) for label, _ in rows))
    header = f"{'label':>{width}}  {'mean':>7} {'std':>7} {'corr':>8} {'min':>7}  "
    lines = [f"{header}{'MSE histogram':<{HIST_BINS}}  {'max':>6}"]
    for label, report in rows:
        corr_text = f"{report.corr:.3f}" + ("*" if report.corr < 0 else "")
        left = f"{label:>{width}}  {report.mean:7.3f} {report.std:7.3f} {corr_text:>8} {report.min:7.3f}  "
        lines.append(f"{left}{_spark_glyphs(report.histogram)}  {report.max:6.2f}")
        marker = [" "] * HIST_BINS
        for b in histogram_bins([report.min, report.mean, report.max]):
            marker[b] = "^"
        lines.append(" " * len(left) + "".join(marker))
    return "\n".join(lines) + "\n"


def _sparkline_svg(rows: list[tuple[str, MseReport]]) -> str:
    row_h, spark_w, spark_h = 30, 240, 20
    # the label column holds 8 characters; each one more shifts the columns right of it by 7 px
    shift = 7 * (max(8, *(len(label) for label, _ in rows)) - 8)
    mean_x, std_x, corr_x, min_x, left_cols = (x + shift for x in (68, 128, 188, 248, 320))
    width = left_cols + spark_w + 70
    height = 26 + row_h * len(rows)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    heads = (8, "label"), (mean_x, "mean"), (std_x, "std"), (corr_x, "corr"), (min_x, "min")
    for x, head in (*heads, (left_cols, "MSE histogram"), (left_cols + spark_w + 12, "max")):
        parts.append(f'<text x="{x}" y="16" font-size="11" font-weight="bold">{head}</text>')
    # the bins' x's are formatted once per table; each row's y's fill them with one %
    points = " ".join(f"{left_cols + (b + 0.5) / HIST_BINS * spark_w:.2f},%.2f" for b in range(HIST_BINS))
    for k, (label, report) in enumerate(rows):
        y0 = 26 + k * row_h
        base = y0 + spark_h + 4
        fill = f' fill="{"#cc0000" if report.corr < 0 else "#000000"}"'
        parts.append(f'<text x="8" y="{base - 6}" font-size="11">{_esc(label)}</text>')
        cells = (mean_x, report.mean, ""), (std_x, report.std, ""), (corr_x, report.corr, fill), (min_x, report.min, "")
        for x, value, attribute in cells:
            parts.append(f'<text x="{x}" y="{base - 6}" font-size="11"{attribute}>{value:.3f}</text>')
        peak = max(max(report.histogram), 1)
        pts = points % tuple(base - count / peak * spark_h for count in report.histogram)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1"/>')
        for b, on_curve in zip(histogram_bins([report.min, report.max, report.mean]), (False, False, True)):
            x = left_cols + (b + 0.5) / HIST_BINS * spark_w
            y = base - (report.histogram[b] / peak * spark_h if on_curve else 0.0)
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" fill="black"/>')
        parts.append(f'<text x="{left_cols + spark_w + 12}" y="{base - 6}" font-size="11">{report.max:.2f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _spark_glyphs(histogram: tuple[int, ...]) -> str:
    peak, top = max(histogram), len(SPARK_BLOCKS)
    glyphs = (SPARK_BLOCKS[min(int(np.ceil(count / peak * top)), top) - 1] if count else " " for count in histogram)
    return "".join(glyphs)


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
