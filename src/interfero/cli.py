"""Command-line entry point.

Subcommands: ``theory`` (closed-form curves as CSV on stdout), ``run``
(execute a sweep from a config file), ``analyze`` (recompute MSE reports
from stored results) and ``report`` (render SVG curves and the sparkline
table).  Exit codes: 0 success, 1 validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import get_args, get_type_hints

from . import __version__
from .errors import ValidationError
from .experiments import CONFIG_COMMENT, KINDS, MAX_CELLS, ExperimentConfig, run_sweep, theory_series
from .output import _write, fmt12, read_text, report_lines, write_manifest, write_results

SEED_ENV = "INTERFERO_SEED"

#: Each config key and the type of its value, in ExperimentConfig field order (``int | None`` -> ``int``).
CONFIG_TYPES = {key: (get_args(hint) or (hint,))[0] for key, hint in get_type_hints(ExperimentConfig).items()}


def __getattr__(name: str):
    # the benchmark's tests read the reader as cli.read_results; reading it imports the reader then
    if name == "read_results":
        from .report import read_results
        return read_results
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through ValidationError
    # so unknown flags count as validation failures (exit 1).
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValidationError(message)


def parse_config(path: str | Path) -> ExperimentConfig:
    """Read a flat ``key = value`` config file into an ExperimentConfig; an error names the file."""
    return _read_config(path)[0]


def _read_config(path: str | Path) -> tuple[ExperimentConfig, bool]:
    """The config in ``path``, and whether the file sets master_seed."""
    text = read_text(Path(path))
    values: dict[str, object] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = CONFIG_COMMENT.split(raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{ln}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_TYPES:
            raise ValidationError(f"{path}:{ln}: unknown config key {key!r}")
        if key in values:
            raise ValidationError(f"{path}:{ln}: duplicate config key {key!r}")
        values[key] = _convert(key, value, path, ln)
    if "kind" not in values:
        raise ValidationError(f"{path}: missing required config key 'kind'")
    with _naming(path):
        return ExperimentConfig(**values), "master_seed" in values  # type: ignore[arg-type]


def _convert(key: str, value: str, path: str | Path, ln: int) -> object:
    typ = CONFIG_TYPES[key]
    if typ is bool:
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ValidationError(f"{path}:{ln}: key {key!r} expects true/false, got {value!r}")
    try:
        return typ(value)
    except ValueError as exc:
        raise ValidationError(f"{path}:{ln}: key {key!r} expects {typ.__name__}, got {value!r}") from exc


def _resolve_seed(config: ExperimentConfig, flag_seed: int | None, config_had_seed: bool) -> ExperimentConfig:
    if flag_seed is not None:
        with _naming("--seed"):
            return replace(config, master_seed=flag_seed)
    if not config_had_seed and SEED_ENV in os.environ:
        try:
            seed = int(os.environ[SEED_ENV])
        except ValueError as exc:
            raise ValidationError(f"environment variable {SEED_ENV} is not an integer") from exc
        with _naming(f"environment variable {SEED_ENV}"):
            return replace(config, master_seed=seed)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="interfero", description=__doc__)
    parser.add_argument("--version", action="version", version=f"interfero {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_theory = sub.add_parser("theory", help="print closed-form curves as CSV")
    p_theory.add_argument("--kind", choices=KINDS, required=True)
    p_theory.add_argument("--points", type=int, default=60)

    p_run = sub.add_parser("run", help="execute a sweep from a config file")
    p_run.add_argument("--config", required=True, help="path to a key = value config file")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the config master_seed")
    p_run.add_argument("--threads", type=int, default=1, help="accepted (at least 1); the sweep runs on one thread")

    p_analyze = sub.add_parser("analyze", help="recompute MSE reports from stored results")
    p_analyze.add_argument("--out", default="out", help="directory holding results.csv")

    p_report = sub.add_parser("report", help="render curve SVGs and the sparkline table")
    p_report.add_argument("--out", default="out", help="directory holding results.csv")
    p_report.add_argument("--format", choices=("csv", "text", "svg", "all"), default="all")
    return parser


def cmd_theory(args: argparse.Namespace) -> int:
    # the curve is built in memory, so the points share the sweep's cell cap
    if not 2 <= args.points <= MAX_CELLS:
        raise ValidationError(f"--points must be between 2 and {MAX_CELLS}, got {args.points}")
    angles = ExperimentConfig(kind=args.kind, angle_points=args.points, repetitions=1, analytic=True).angles()
    theory_c, theory_p = theory_series(args.kind, angles)
    print("angle,coherence,predictability,sum")
    for angle, c, p in zip(angles, theory_c, theory_p):
        print(f"{fmt12(angle)},{fmt12(c)},{fmt12(p)},{fmt12(c + p)}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config, had_seed = _read_config(args.config)
    config = _resolve_seed(config, args.seed, had_seed)
    if args.threads < 1:
        raise ValidationError(f"threads must be at least 1, got {args.threads}")
    result = run_sweep(config, threads=args.threads)
    paths = write_results(result, args.out)
    manifest = write_manifest(args.out, result, list(paths.values()), __version__)
    for p in (*paths.values(), manifest):
        print(p)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from .report import read_results, reports_from_rows  # the reader, imported only by the commands that read
    path = Path(args.out) / "results.csv"
    rows = read_results(path)
    with _naming(path):
        reports = reports_from_rows(rows)
    for label, report in reports.items():
        print(f"# label {label}")
        print("\n".join(report_lines(report)))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .report import aggregate_curves, read_results, render_curves, render_sparkline_table, reports_from_rows
    out = Path(args.out)
    rows = read_results(out / "results.csv")
    with _naming(out / "results.csv"):
        reports = reports_from_rows(rows)
        curves = aggregate_curves(rows) if args.format in ("svg", "all") else {}
    text, svg = render_sparkline_table(list(reports.items()))
    # every file is rendered, and the curve names checked for clashes, before any is written
    files: dict[Path, str] = {}
    if args.format in ("text", "all"):
        files[out / "table.txt"] = text
    if args.format in ("svg", "all"):
        files[out / "table.svg"] = svg
        owner: dict[Path, str] = {}
        for label, curve in curves.items():
            path = out / f"curves_{re.sub(r'[^-A-Za-z0-9_.]', '_', label)}.svg"
            if owner.setdefault(path, label) != label:
                raise ValidationError(
                    f"{out / 'results.csv'}: labels {owner[path]!r} and {label!r} both map to {path.name}"
                )
            files[path] = render_curves(curve)
    if args.format in ("csv", "all"):
        lines = ["label,mean,std,corr,min,max,overflow"]
        for label, r in reports.items():
            lines.append(f"{label},{r.mean:.3f},{r.std:.3f},{r.corr:.3f},{r.min:.3f},{r.max:.2f},{r.overflow}")
        files[out / "table.csv"] = "\n".join(lines) + "\n"
    for path, content in files.items():
        _write(path, content)
        print(path)
    return 0


@contextmanager
def _naming(source: Path | str) -> Iterator[None]:
    """Prefix ``source`` to a ValidationError raised in the block."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{source}: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "theory": cmd_theory,
            "run": cmd_run,
            "analyze": cmd_analyze,
            "report": cmd_report,
        }[args.command]
        return handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
