"""The measured process: one run of one workload in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --work DIR --seconds S [--trace 1] [--tiny]

Imports ``interfero`` from the checkout's ``src`` and repeats the workload's
CLI calls through ``interfero.cli.main`` until the next repetition would
overrun ``--seconds``.  The inputs in DIR were made by ``run.py`` beforehand.
With ``--trace 1`` untraced and traced repetitions alternate.  The
process pins itself to as many CPUs as the workload has threads, and around
every call of an untraced repetition times the reference loop
(``reference.py``) on each of them.  Writes ``DIR/child.json``: per
repetition its wall time, for untraced ones also its time in reference
loops, per call the exit code, any exception, the output hash and the files
it failed to write, and for traced repetitions the per-layer figures; also
the process's peak RSS.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

from layers import TRACED
from reference import reference_time
from tracing import Tracer, summarize_spans
from workloads import STDOUT, import_cli, workload

ROOT = Path(__file__).resolve().parent.parent


def run_rep(main, calls, tracer: Tracer | None, ref0: float | None = None) -> dict:
    """One repetition of ``calls``.

    Untraced repetitions get ``ref0``, the reference-loop time just before
    them; the loop is timed again after every call, and ``wall_ref`` is the
    sum over calls of each call's wall time divided by the mean of the loop
    times around it.  Their ``wall`` is the calls' summed wall time.
    """
    for call in calls:
        for name in call.files:
            (call.out / name).unlink(missing_ok=True)
    results = []
    walls = []
    refs = [ref0]
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    for call in calls:
        buf = io.StringIO()
        c0 = time.perf_counter()
        try:
            with redirect_stdout(buf):
                rc = main(call.argv)
            error = None
        except Exception:  # a crash fails the call; the run goes on to report it
            rc, error = None, traceback.format_exc()
        walls.append(time.perf_counter() - c0)
        if ref0 is not None:
            refs.append(reference_time())
        results.append((rc, error, buf.getvalue()))
        if error:
            break
    t1 = time.perf_counter()
    if tracer:
        tracer.uninstall()
    rep = {"wall": t1 - t0, "traced": tracer is not None, "calls": []}
    if ref0 is not None:
        rep["wall"] = sum(walls)
        rep["refs"] = refs
        rep["wall_ref"] = sum(w / ((a + b) / 2) for w, a, b in zip(walls, refs, refs[1:]))
    for call, (rc, error, stdout) in zip(calls, results):
        product = stdout.encode() if call.product == STDOUT else _read(call.out / call.product)
        missing = [n for n in call.files if not (call.out / n).is_file() or (call.out / n).stat().st_size == 0]
        rep["calls"].append(
            {
                "rc": rc,
                "error": error,
                "hash": hashlib.sha256(product).hexdigest() if product is not None else None,
                "missing": missing,
                "stdout": stdout if call.product == STDOUT else None,
            }
        )
    if tracer:
        rep["layers"] = summarize_spans(tracer.spans, t0, t1)
    return rep


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    cli = import_cli(ROOT)
    spec = workload(args.workload, args.tiny)
    # The host's vCPUs change speed independently, so the reference loop must
    # run where the workload runs: on as many CPUs as it has threads.  Threads
    # the workload starts inherit this set.
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[: spec.threads])
    # Traced runs measure in (untraced, traced) pairs; plain runs take a median of at least three.
    step, least = (2, 2) if args.trace else (1, 3)
    reps = []
    start = time.perf_counter()
    reference_time()  # warm-up
    ref = reference_time()
    while True:
        k = len(reps)
        tracer = Tracer(list(TRACED)) if args.trace and k % 2 == 1 else None
        reps.append(run_rep(cli.main, spec.calls(args.work, k), tracer, None if tracer else ref))
        ref = reps[-1]["refs"][-1] if "refs" in reps[-1] else reference_time()
        spent = time.perf_counter() - start
        done = len(reps)
        if done >= least and done % step == 0 and spent + step * spent / done > args.seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"reps": reps, "peak_rss_kb": peak_kb, "measured_s": time.perf_counter() - start}
    (args.work / "child.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
