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

from . import __version__
from .errors import ValidationError
from .experiments import CONFIG_COMMENT, ExperimentConfig, run_sweep, theory_series
from .report import (
    aggregate_curves,
    fmt12,
    read_results,
    read_text,
    render_curves,
    render_sparkline_table,
    report_lines,
    reports_from_rows,
    write_manifest,
    write_results,
)

SEED_ENV = "INTERFERO_SEED"

CONFIG_TYPES = {
    "kind": str,
    "angle_points": int,
    "shots": int,
    "repetitions": int,
    "master_seed": int,
    "analytic": bool,
    "label": str,
    "depolarizing": float,
    "amplitude_damping": float,
    "phase_damping": float,
    "readout_flip0": float,
    "readout_flip1": float,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through ValidationError
    # so unknown flags count as validation failures (exit 1).
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValidationError(message)


def parse_config(path: str | Path) -> ExperimentConfig:
    """Read a flat ``key = value`` config file into an ExperimentConfig."""
    return ExperimentConfig(**_read_config_values(path))  # type: ignore[arg-type]


def _read_config_values(path: str | Path) -> dict[str, object]:
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
    return values


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
        return replace(config, master_seed=flag_seed)
    if not config_had_seed and SEED_ENV in os.environ:
        try:
            return replace(config, master_seed=int(os.environ[SEED_ENV]))
        except ValueError as exc:
            raise ValidationError(f"environment variable {SEED_ENV} is not an integer") from exc
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="interfero", description=__doc__)
    parser.add_argument("--version", action="version", version=f"interfero {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_theory = sub.add_parser("theory", help="print closed-form curves as CSV")
    p_theory.add_argument("--kind", choices=("bmzi", "pqe"), required=True)
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
    angles = ExperimentConfig(kind=args.kind, angle_points=args.points, analytic=True).angles()
    theory_c, theory_p = theory_series(args.kind, angles)
    print("angle,coherence,predictability,sum")
    for angle, c, p in zip(angles, theory_c, theory_p):
        print(f"{fmt12(angle)},{fmt12(c)},{fmt12(p)},{fmt12(c + p)}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    values = _read_config_values(args.config)
    config = ExperimentConfig(**values)  # type: ignore[arg-type]
    config = _resolve_seed(config, args.seed, "master_seed" in values)
    if args.threads < 1:
        raise ValidationError(f"threads must be at least 1, got {args.threads}")
    result = run_sweep(config, threads=args.threads)
    paths = write_results(result, args.out)
    manifest = write_manifest(args.out, config, list(paths.values()), __version__)
    for p in (*paths.values(), manifest):
        print(p)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    path = Path(args.out) / "results.csv"
    rows = read_results(path)
    with _naming(path):
        reports = reports_from_rows(rows)
    for label, report in reports.items():
        print(f"# label {label}")
        print("\n".join(report_lines(report)))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    out = Path(args.out)
    rows = read_results(out / "results.csv")
    with _naming(out / "results.csv"):
        reports = reports_from_rows(rows)
        curves = aggregate_curves(rows) if args.format in ("svg", "all") else {}
    # one curve file per label, checked for clashes before anything is written
    figures: dict[str, Path] = {}
    owner: dict[Path, str] = {}
    for label in curves:
        path = figures[label] = out / f"curves_{re.sub(r'[^-A-Za-z0-9_.]', '_', label)}.svg"
        if owner.setdefault(path, label) != label:
            raise ValidationError(
                f"{out / 'results.csv'}: labels {owner[path]!r} and {label!r} both map to {path.name}"
            )
    text, svg = render_sparkline_table(list(reports.items()))
    written: list[Path] = []
    if args.format in ("text", "all"):
        path = out / "table.txt"
        path.write_text(text, encoding="utf-8", newline="\n")
        written.append(path)
    if args.format in ("svg", "all"):
        path = out / "table.svg"
        path.write_text(svg, encoding="utf-8", newline="\n")
        written.append(path)
        for label, curve in curves.items():
            figures[label].write_text(render_curves(curve), encoding="utf-8", newline="\n")
            written.append(figures[label])
    if args.format in ("csv", "all"):
        path = out / "table.csv"
        lines = ["label,mean,std,corr,min,max,overflow"]
        for label, r in reports.items():
            lines.append(f"{label},{r.mean:.3f},{r.std:.3f},{r.corr:.3f},{r.min:.3f},{r.max:.2f},{r.overflow}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
        written.append(path)
    for p in written:
        print(p)
    return 0


@contextmanager
def _naming(path: Path) -> Iterator[None]:
    """Prefix ``path`` to a ValidationError raised in the block."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


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
