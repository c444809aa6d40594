"""interfero benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads (see BENCHMARK.json for why each was chosen):

* ``bmzi-sampled``: `interfero run --threads 1` on the default 1-qubit
  campaign, 60 angles x 128 repetitions x 3 settings at 1000 shots.
* ``pqe-noisy-t2``: `interfero run --threads 2` on the default 2-qubit
  campaign at 16 repetitions, 60 x 16 x 15 settings, with gate and
  readout noise.
* ``analyze-report``: `interfero analyze` then `interfero report --format
  all` on a synthetic 122,880-row results.csv.

Each run makes its inputs from ``--seed`` in a work directory inside the
checkout, times set-up over several fresh interpreters, then starts a
fresh process (``child.py``) that repeats the workload for ``--seconds``.
Outputs are checked outside the timed region; every CLI call counts as one
attempted operation, and it fails if it exits non-zero, raises, leaves an
expected file unwritten, or its output fails a check or differs in bytes
from the first repetition's.  The last line of stdout is the result as JSON;
the line before it is a record with the output hashes, the checks, the
machine facts and the raw wall seconds.  With ``--trace 0`` the metrics are
the end-to-end ones, with ``--trace 1`` the per-layer ones.

The host's speed moves in phases (see ``reference.py``), so the end-to-end
time is ``wall_ref``: the median over repetitions of the wall time in units
of a fixed reference loop timed around every call.  A change to the program
moves it as it moves wall time; a phase of the host mostly cancels out.
``setup_s`` is scaled by the same loop to seconds at a nominal host speed.
The raw wall time (``wall_s``), ``rows_per_s`` and the raw set-up times are
in the record.  ``--workload all`` runs every workload both ways and prints
every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from layers import END_TO_END, per_layer
from reference import NOMINAL_S, reference_time
from workloads import DIM, SETTINGS, WORKLOAD_NAMES, Campaign, check_analysis, check_campaign
from workloads import import_cli, synthetic_results, workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

# Set-up is timed this many times before the measured process and as many
# after it, so that the median spans the run rather than its first seconds.
SETUP_PROBES = 4
# A run must end within 180 s; the measured process gets what is left of this,
# which leaves time for the set-up probes and the checks after it.
RUN_BUDGET_S = 150.0

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import interfero.cli
if sys.argv[2] == "config":
    interfero.cli.parse_config(sys.argv[3])
else:
    with open(sys.argv[3], encoding="utf-8") as f:
        f.readline()
"""


class BenchError(Exception):
    """The benchmark could not measure: no result is printed."""


def machine_facts(seed: int) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": os.getloadavg(),
    }


def setup_time(src: Path, mode: str, path: Path) -> float:
    """Seconds a fresh interpreter takes to import interfero.cli and read the workload's input."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", PROBE, str(src), mode, str(path)], cwd=ROOT)
    # A blocking wait: `wait(timeout=...)` polls in steps of up to 50 ms,
    # which would quantise the measurement.
    killer = threading.Timer(60, proc.kill)
    killer.start()
    try:
        rc = proc.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise BenchError(f"set-up probe exited {rc}")
    return elapsed


def setup_times(src: Path, mode: str, path: Path) -> tuple[list[float], list[float]]:
    """``SETUP_PROBES`` set-up times: as measured, and scaled to the reference speed.

    Each time is scaled by ``NOMINAL_S`` over the mean of the reference-loop
    times before and after it, as ``wall_ref`` is, so that a slow phase of
    the host does not read as slower set-up.  Runs on one CPU, which the
    probe interpreters inherit, so that the loop is timed where they run.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        refs = [reference_time()]
        times = []
        for _ in range(SETUP_PROBES):
            times.append(setup_time(src, mode, path))
            refs.append(reference_time())
    finally:
        os.sched_setaffinity(0, cpus)
    return times, [t * NOMINAL_S / ((a + b) / 2) for t, a, b in zip(times, refs, refs[1:])]


def output_counts(csv_path: Path) -> dict[str, float]:
    """Projection and bound counters read from a results.csv."""
    fired = over = rows = 0
    mass = 0.0
    with open(csv_path, encoding="utf-8") as f:
        next(f)
        for line in f:
            kind, _, _, _, _, _, _, _, total_raw, violation = line.split(",")
            rows += 1
            v = float(violation)
            fired += v > 0
            mass += v
            over += float(total_raw) > DIM[kind] - 1
    return {
        "tomography.project_psd.fired": fired,
        "tomography.project_psd.fired_frac": fired / max(rows, 1),
        "tomography.project_psd.clipped_mass": mass,
        "tomography.raw_over_bound": over,
        "rows": rows,
    }


def score(reps: list[dict], content_failures: list[list[str]]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every CLI call of every repetition.

    ``content_failures[j]`` are the failed content checks of call ``j`` of
    the first repetition; every repetition of that call with the same output
    hash shares them, and one with another hash fails as non-deterministic.
    """
    attempted = failed = 0
    reasons = []
    n_calls = len(content_failures)
    ref = [c["hash"] for c in reps[0]["calls"]] + [None] * n_calls
    for i, rep in enumerate(reps):
        for j in range(n_calls):
            attempted += 1
            call = rep["calls"][j] if j < len(rep["calls"]) else None
            if call is None:
                why = ["not run"]
            else:
                why = [
                    f"exit {call['rc']}" if call["rc"] != 0 and call["error"] is None else "",
                    call["error"].strip().splitlines()[-1] if call["error"] else "",
                    "missing " + ",".join(call["missing"]) if call["missing"] else "",
                    "output differs from repetition 0" if call["hash"] != ref[j] else "",
                    *content_failures[j],
                ]
            why = [w for w in why if w]
            if why:
                failed += 1
                reasons.append(f"rep {i} call {j}: " + "; ".join(why))
    return attempted, failed, reasons


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> tuple[dict, dict]:
    """One benchmark run: (result line, record line)."""
    started = time.perf_counter()
    facts = machine_facts(seed)
    spec = workload(name, tiny)
    cli = import_cli(ROOT)
    work = WORK / f"{name}-s{seed}-t{trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if isinstance(spec, Campaign):
            probe_input = work / "config.cfg"
            probe_input.write_text(spec.config_text(seed), encoding="utf-8")
            mode = "config"
        else:
            text, values = synthetic_results(spec, seed)
            probe_input = work / "analysis" / "results.csv"
            probe_input.parent.mkdir()
            probe_input.write_text(text, encoding="utf-8", newline="\n")
            del text
            mode = "input"
        setup_raw, setup = setup_times(ROOT / "src", mode, probe_input)
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", name, "--work", str(work)]
        cmd += ["--seconds", str(seconds), "--trace", str(trace)] + (["--tiny"] if tiny else [])
        timeout = RUN_BUDGET_S - (time.perf_counter() - started)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"measured process exceeded {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"measured process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        raw, scaled = setup_times(ROOT / "src", mode, probe_input)
        setup_raw += raw
        setup += scaled
        child = json.loads((work / "child.json").read_text(encoding="utf-8"))
        reps = child["reps"]
        first = reps[0]["calls"]
        if isinstance(spec, Campaign):
            out0 = spec.calls(work, 0)[0].out
            written = first and first[0]["rc"] == 0 and not first[0]["missing"]
            content = [check_campaign(spec, out0, cli.main) if written else []]
            counted_csv = out0 / "results.csv"
        else:
            stdout0 = first[0]["stdout"] if first else ""
            content = [check_analysis(spec, values, stdout0), []]
            counted_csv = probe_input
        attempted, failed, reasons = score(reps, content)
        try:
            counts = output_counts(counted_csv)
        except (OSError, ValueError):  # a missing or malformed file has already failed its checks
            counts = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if trace:
        metrics = layer_metrics(spec, plain, traced, counts)
    else:
        e2e = {
            "wall_ref": statistics.median(r["wall_ref"] for r in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": child["peak_rss_kb"] / 1024,
        }
        metrics = {n: {"value": e2e[n], "unit": u} for n, u, _ in END_TO_END}
    calls = spec.calls(work, 0)
    hashes = {f"{c.argv[0]} {c.product}": first[j]["hash"] if j < len(first) else None for j, c in enumerate(calls)}
    record = {
        "workload": name,
        "trace": trace,
        "machine": facts,
        "hashes": hashes,
        "reps": len(reps),
        "walls_s": [round(r["wall"], 4) for r in reps],
        "refs_s": [[round(x, 5) for x in r["refs"]] for r in plain],
        "wall_refs": [round(r["wall_ref"], 3) for r in plain],
        "wall_s": statistics.median(r["wall"] for r in plain),
        "rows_per_s": statistics.median(spec.rows / r["wall"] for r in plain),
        "traced_reps": [r["traced"] for r in reps],
        "setup_probes_s": [round(s, 4) for s in setup_raw],
        "setup_scaled_s": [round(s, 4) for s in setup],
        "failed_frac": failed / attempted,
        "failures": reasons[:20],
        "rows": spec.rows,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record


def layer_metrics(spec, plain: list[dict], traced: list[dict], counts: dict) -> dict:
    def med(key: str) -> float:
        return statistics.median(r["layers"].get(key, 0.0) for r in traced)

    traced_wall = statistics.median(r["wall"] for r in traced)
    read_calls = med("report.read_results.calls")
    values = {
        **{k: v for k, v in counts.items() if k != "rows"},
        "circuits.sampled_settings": spec.rows * SETTINGS[spec.kind] if isinstance(spec, Campaign) else 0,
        "report.rows_parsed": counts.get("rows", 0) * read_calls,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.median(r["wall"] for r in plain),
        "trace.uncovered_s": med("trace.uncovered_s"),
        "experiments.run_sweep.parallelism": med("experiments.run_sweep.parallelism"),
    }
    out = {}
    for name, unit, _, _ in per_layer():
        value = values[name] if name in values else med(name)
        out[name] = {"value": value, "unit": unit}
    return out


def report_all(seed: int, seconds: float, tiny: bool) -> int:
    """Every metric of every workload, by name with its unit."""
    moves = {name: m for name, _, _, m in per_layer()}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            result, record = run_workload(name, seed, seconds, trace, tiny)
            print(f"# {name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} hashes={record['hashes']}")
            raw = {} if trace else {"wall_s": (record["wall_s"], "s"), "rows_per_s": (record["rows_per_s"], "1/s")}
            values = {m: (v["value"], v["unit"]) for m, v in result["metrics"].items()} | raw
            for metric, (value, unit) in values.items():
                print(f"{name:15s} {metric:45s} {value:14.6g} {unit:6s} {moves.get(metric, '')}")
            status |= not result["correct"]
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a non-negative 64-bit integer")
    try:
        if args.workload == "all":
            return report_all(args.seed, args.seconds, args.tiny)
        result, record = run_workload(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    except (BenchError, ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
