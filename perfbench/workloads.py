"""The benchmark's workloads: the inputs each one gets and the checks on its outputs.

Every input is made from the benchmark seed: the campaigns write it into the
config as ``master_seed``, and the synthetic ``results.csv`` of
``analyze-report`` is drawn from a generator seeded with it.  The program sees
only these files.

One repetition of a workload runs its `Call`s in order through
``interfero.cli.main``.  The checks below look at what the first repetition
left behind; they run outside the timed region.
"""

from __future__ import annotations

import io
import math
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CSV_HEADER = "kind,label,angle_index,angle,repetition,coherence,predictability,sum,sum_raw,psd_violation"

# The eight scalar lines that `interfero analyze` prints per label and
# `summary.txt` holds for a campaign.
SCALAR_KEYS = ("mse_sum_mean", "mse_c_mean", "mse_p_mean", "corr_mean", "mean", "std", "min", "max")

# Printed numbers carry 12 fractional digits; the CSV rounds every metric to
# 12 digits before analysis sees it, which moves the reports by ~1e-12.
TOL = 1e-9

SETTINGS = {"bmzi": 3, "pqe": 15}
DIM = {"bmzi": 2, "pqe": 4}

PQE_NOISE = {
    "depolarizing": 0.02,
    "amplitude_damping": 0.01,
    "phase_damping": 0.01,
    "readout_flip0": 0.02,
    "readout_flip1": 0.03,
}


STDOUT = "<stdout>"


@dataclass(frozen=True)
class Call:
    """One CLI call of a repetition.

    ``product`` is what the call's determinism hash covers: a file in
    ``out`` or, for ``STDOUT``, what the call printed.  ``files`` must exist
    and be nonempty in ``out`` after the call; the measured process deletes
    them before each repetition so that every repetition writes them anew.
    """

    argv: list[str]
    out: Path
    product: str
    files: tuple[str, ...]


@dataclass(frozen=True)
class Campaign:
    """`interfero run` on one config: produces results.csv and summary.txt."""

    name: str
    kind: str
    threads: int
    angle_points: int
    repetitions: int
    shots: int
    noise: tuple[tuple[str, float], ...]
    # Accepted range of mse_sum_mean.  It is a statistic of the shot noise,
    # so it moves with the random streams.  Master seeds 1-8 gave bmzi
    # 0.000384-0.000415 and noisy pqe 1.3089-1.3170 (at 32 repetitions; 16
    # widen that by about sqrt(2)); each band is about ten of those spreads
    # wide, enough for any change of streams and narrow enough to catch
    # broken physics.  None at the tiny test size, where
    # the statistic is not calibrated.
    mse_band: tuple[float, float] | None

    @property
    def rows(self) -> int:
        return self.angle_points * self.repetitions

    def config_text(self, seed: int) -> str:
        lines = [
            f"kind = {self.kind}",
            f"angle_points = {self.angle_points}",
            f"shots = {self.shots}",
            f"repetitions = {self.repetitions}",
            f"master_seed = {seed}",
        ]
        lines += [f"{key} = {value}" for key, value in self.noise]
        return "\n".join(lines) + "\n"

    def calls(self, work: Path, rep: int) -> list[Call]:
        # The first repetition keeps its own directory for the content checks.
        out = work / ("out0" if rep == 0 else "out")
        argv = ["run", "--config", str(work / "config.cfg"), "--out", str(out), "--threads", str(self.threads)]
        return [Call(argv, out, "results.csv", ("results.csv", "summary.txt", "config.cfg", "manifest.txt"))]


@dataclass(frozen=True)
class Analysis:
    """`interfero analyze` then `interfero report --format all` on a synthetic results.csv."""

    name: str
    labels: int
    angle_points: int
    repetitions: int

    # analyze and report run on the calling thread alone.
    threads = 1

    @property
    def rows(self) -> int:
        return self.labels * self.angle_points * self.repetitions

    def label_names(self) -> list[str]:
        return [f"s{j}" for j in range(self.labels)]

    def calls(self, work: Path, rep: int) -> list[Call]:
        out = work / "analysis"
        files = ("table.txt", "table.svg", "table.csv") + tuple(f"curves_{label}.svg" for label in self.label_names())
        return [
            Call(["analyze", "--out", str(out)], out, STDOUT, ()),
            Call(["report", "--out", str(out), "--format", "all"], out, "table.txt", files),
        ]


def workload(name: str, tiny: bool = False) -> Campaign | Analysis:
    """The workload called ``name``; ``tiny`` shrinks it for the smoke tests."""
    if name == "bmzi-sampled":
        size = (4, 2, 100) if tiny else (60, 128, 1000)
        band = None if tiny else (0.00030, 0.00050)
        return Campaign(name, "bmzi", 1, *size, noise=(), mse_band=band)
    if name == "pqe-noisy-t2":
        # 16 repetitions, not the default 32: a repetition then takes ~5 s, so a
        # run holds enough of them for a steady median on this noisy host.
        size = (4, 2, 100) if tiny else (60, 16, 1000)
        band = None if tiny else (1.28, 1.34)
        return Campaign(name, "pqe", 2, *size, noise=tuple(PQE_NOISE.items()), mse_band=band)
    if name == "analyze-report":
        return Analysis(name, *((2, 4, 3) if tiny else (8, 120, 128)))
    raise KeyError(name)


WORKLOAD_NAMES = ("bmzi-sampled", "pqe-noisy-t2", "analyze-report")


def import_cli(root: Path):
    """``interfero.cli`` from the sources under ``root/src``, never from elsewhere."""
    src = root / "src"
    if not (src / "interfero" / "__init__.py").is_file():
        raise ImportError(f"no interfero package under {src}")
    sys.path.insert(0, str(src))
    import interfero.cli

    if Path(interfero.cli.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"imported interfero from {interfero.cli.__file__}, not from {src}")
    return interfero.cli


# ---------------------------------------------------------------- inputs


def bmzi_theory(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pure-state C and P of the interferometer: (|sin a|, 1 - |sin a|)."""
    c = np.abs(np.sin(angles))
    return c, 1.0 - c


def pqe_theory(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pure-state C and P of the eraser from its closed-form amplitudes.

    For a pure state with amplitude magnitudes a_j, C = (sum a_j)^2 - 1 and
    P = d - (sum a_j)^2.
    """
    e = np.exp(1j * angles)
    amps = np.abs(np.stack([e + 1, np.full_like(e, np.sqrt(2)), np.sqrt(2) * e, e - 1])) / (2 * np.sqrt(2))
    s2 = amps.sum(axis=0) ** 2
    return s2 - 1.0, 4.0 - s2


def synthetic_results(spec: Analysis, seed: int) -> tuple[str, dict[str, tuple[str, np.ndarray, np.ndarray, np.ndarray]]]:
    """A results.csv in the exact format `interfero run` writes, and its values.

    Labels alternate bmzi/pqe.  Each label's coherence and predictability
    scatter around the pure-state curves with its own noise level and
    correlation between the two deviations (negative on half the labels, the
    masking case the MSE decomposition is built for).  Returns the CSV text
    and, per label, (kind, angles, C, P) as parsed back from that text.
    """
    rng = np.random.default_rng(seed)
    n, m = spec.angle_points, spec.repetitions
    lines = [CSV_HEADER]
    values = {}
    for j, label in enumerate(spec.label_names()):
        kind = "bmzi" if j % 2 == 0 else "pqe"
        d1 = DIM[kind] - 1
        grid = 2 * np.pi * np.arange(n) / n
        angles = -np.pi + grid if kind == "bmzi" else grid
        tc, tp = (bmzi_theory if kind == "bmzi" else pqe_theory)(angles)
        sigma = 0.01 * (1 + j)
        rho = -0.8 if j % 4 < 2 else 0.4
        e1, e2 = rng.standard_normal((2, n, m))
        c = np.clip(tc[:, None] - sigma * e1, 0.0, d1)
        p = np.clip(tp[:, None] - sigma * (rho * e1 + math.sqrt(1 - rho * rho) * e2), 0.0, d1 - c)
        total = c + p
        total_raw = total + np.abs(sigma * rng.standard_normal((n, m)))
        violation = np.clip(total_raw - d1, 0.0, None) / 2
        a_txt = [f"{a:.12f}" for a in angles]
        cols = [_fmt(x) for x in (c, p, total, total_raw, violation)]
        for i in range(n):
            for r in range(m):
                lines.append(
                    f"{kind},{label},{i},{a_txt[i]},{r},"
                    f"{cols[0][i][r]},{cols[1][i][r]},{cols[2][i][r]},{cols[3][i][r]},{cols[4][i][r]}"
                )
        parsed = [np.array(col, dtype=float) for col in (a_txt, cols[0], cols[1])]
        values[label] = (kind, parsed[0], parsed[1], parsed[2])
    return "\n".join(lines) + "\n", values


def _fmt(x: np.ndarray) -> list[list[str]]:
    return [[f"{v:.12f}" for v in row] for row in x.tolist()]


# ---------------------------------------------------------------- checks


def parse_scalars(text: str) -> list[dict[str, float]]:
    """The scalar ``key = value`` lines of each block of analyze or summary output."""
    blocks: list[dict[str, float]] = []
    for line in text.splitlines():
        if line.startswith("# "):
            blocks.append({})
            continue
        key, sep, value = line.partition(" = ")
        if sep and key in SCALAR_KEYS and blocks:
            blocks[-1][key] = float(value)
    return blocks


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def check_campaign(spec: Campaign, out: Path, main) -> list[str]:
    """Failed checks of one campaign output directory (empty when all pass).

    ``main`` is ``interfero.cli.main``; the summary check runs
    `interfero analyze` on the results it finds.
    """
    lines = (out / "results.csv").read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["results.csv header"]
    try:
        sums = [float(line.split(",")[7]) for line in lines[1:]]
    except (ValueError, IndexError):
        return ["results.csv has a malformed row"]
    failures = []
    if len(sums) != spec.rows:
        failures.append(f"row count {len(sums)} != {spec.angle_points} x {spec.repetitions}")
    over = sum(1 for x in sums if x > DIM[spec.kind] - 1 + 1e-9)
    if over:
        failures.append(f"{over} rows with sum > d-1")
    summary = parse_scalars((out / "summary.txt").read_text(encoding="utf-8"))
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            rc = main(["analyze", "--out", str(out)])
    except Exception as exc:  # the program's failure is a failed check, not a benchmark crash
        return failures + [f"analyze raised {exc!r}"]
    analyzed = parse_scalars(buf.getvalue())
    if rc != 0 or len(summary) != 1 or len(analyzed) != 1 or summary[0].keys() != set(SCALAR_KEYS):
        return failures + ["analyze output or summary.txt incomplete"]
    bad = [k for k in SCALAR_KEYS if k not in analyzed[0] or not _close(analyzed[0][k], summary[0][k])]
    if bad:
        failures.append("analyze does not reproduce summary: " + ",".join(bad))
    if spec.mse_band and not spec.mse_band[0] <= summary[0]["mse_sum_mean"] <= spec.mse_band[1]:
        failures.append(f"mse_sum_mean {summary[0]['mse_sum_mean']} outside {spec.mse_band}")
    return failures


def expected_reports(kind: str, angles: np.ndarray, c: np.ndarray, p: np.ndarray) -> dict[str, float]:
    """Independent recomputation of the scalar lines `analyze` prints for one label."""
    tc, tp = (bmzi_theory if kind == "bmzi" else pqe_theory)(angles)
    dc = tc[:, None] - c
    dp = tp[:, None] - p
    per_rep = np.mean((dc + dp) ** 2, axis=0)
    return {
        "mse_sum_mean": float(np.mean(per_rep)),
        "mse_c_mean": float(np.mean(np.mean(dc**2, axis=0))),
        "mse_p_mean": float(np.mean(np.mean(dp**2, axis=0))),
        "corr_mean": float(np.mean(2 * np.mean(dc * dp, axis=0))),
        "mean": float(np.mean(per_rep)),
        "std": float(np.std(per_rep)),
        "min": float(np.min(per_rep)),
        "max": float(np.max(per_rep)),
    }


def check_analysis(spec: Analysis, values: dict, analyze_stdout: str) -> list[str]:
    """Failed checks of what `interfero analyze` printed (empty when all pass)."""
    failures = []
    blocks = parse_scalars(analyze_stdout)
    labels = [line[len("# label ") :] for line in analyze_stdout.splitlines() if line.startswith("# label ")]
    if labels != spec.label_names() or len(blocks) != len(labels):
        failures.append(f"analyze printed labels {labels}")
    else:
        for label, block in zip(labels, blocks):
            expected = expected_reports(*values[label])
            bad = [k for k in SCALAR_KEYS if k not in block or not _close(block[k], expected[k])]
            if bad:
                failures.append(f"label {label}: {','.join(bad)} differ from recomputation")
    return failures
