"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import math
import sys
import threading
from contextlib import redirect_stdout

import numpy as np
import pytest

import child
import run
from layers import END_TO_END, TRACED, per_layer
from tracing import CELL, Tracer, summarize_spans
from workloads import (
    STDOUT,
    WORKLOAD_NAMES,
    Call,
    bmzi_theory,
    check_analysis,
    check_campaign,
    import_cli,
    pqe_theory,
    synthetic_results,
    workload,
)

cli = import_cli(run.ROOT)
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_lists_what_the_benchmark_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in per_layer()
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_smoke_run_at_tiny_size(name, trace):
    result, record = run.run_workload(name, seed=3, seconds=0.0, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2, record["failures"]
    wanted = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and math.isfinite(value["value"])
    assert all(record["hashes"].values())
    assert not run.WORK.exists()


def _tiny_campaign(tmp_path):
    spec = workload("bmzi-sampled", tiny=True)
    (tmp_path / "config.cfg").write_text(spec.config_text(5), encoding="utf-8")
    call = spec.calls(tmp_path, 0)[0]
    with redirect_stdout(io.StringIO()):
        assert cli.main(call.argv) == 0
    return spec, call.out


def _reps(n_calls: int, hashes=("h", "h")) -> list[dict]:
    return [{"calls": [{"rc": 0, "error": None, "hash": h, "missing": []}] * n_calls} for h in hashes]


def test_corrupted_row_raises_failed_frac(tmp_path):
    spec, out = _tiny_campaign(tmp_path)
    assert check_campaign(spec, out, cli.main) == []
    assert run.score(_reps(1), [[]])[1] == 0
    path = out / "results.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[1].split(",")
    fields[7] = "1.500000000000"  # sum above d - 1 = 1
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    failures = check_campaign(spec, out, cli.main)
    assert any("sum > d-1" in f for f in failures)
    attempted, failed, _ = run.score(_reps(1), [failures])
    assert failed == attempted == 2


def test_changed_summary_line_raises_failed_frac(tmp_path):
    spec, out = _tiny_campaign(tmp_path)
    path = out / "summary.txt"
    text = path.read_text(encoding="utf-8")
    line = next(ln for ln in text.splitlines() if ln.startswith("mse_p_mean = "))
    path.write_text(text.replace(line, "mse_p_mean = 0.123456789012"), encoding="utf-8")
    failures = check_campaign(spec, out, cli.main)
    assert failures and "mse_p_mean" in failures[0]
    assert run.score(_reps(1), [failures])[1] == 2


def test_output_that_differs_between_repetitions_fails():
    attempted, failed, reasons = run.score(_reps(1, hashes=("a", "a", "b")), [[]])
    assert (attempted, failed) == (3, 1) and "differs" in reasons[0]


def test_wall_ref_divides_each_call_by_the_reference_loops_around_it(monkeypatch, tmp_path):
    refs = iter([0.25, 1.0])
    monkeypatch.setattr(child, "reference_time", lambda: next(refs))
    ticks = iter(range(100))  # every clock read advances one second
    monkeypatch.setattr(child.time, "perf_counter", lambda: float(next(ticks)))
    calls = [Call(["a"], tmp_path, STDOUT, ()), Call(["b"], tmp_path, STDOUT, ())]
    rep = child.run_rep(lambda argv: 0, calls, None, ref0=0.5)
    assert rep["refs"] == [0.5, 0.25, 1.0] and rep["wall"] == 2.0
    assert rep["wall_ref"] == pytest.approx(1 / 0.375 + 1 / 0.625)


def test_synthetic_file_passes_read_results_and_the_recomputation(tmp_path):
    spec = workload("analyze-report")
    text, values = synthetic_results(spec, seed=7)
    assert (text, list(values)) == (synthetic_results(spec, seed=7)[0], spec.label_names())
    (tmp_path / "results.csv").write_text(text, encoding="utf-8", newline="\n")
    rows = cli.read_results(tmp_path / "results.csv")
    assert len(rows) == spec.rows == 122_880
    assert [r.label for r in rows[:: spec.angle_points * spec.repetitions]] == spec.label_names()
    assert {r.kind for r in rows} == {"bmzi", "pqe"}
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(["analyze", "--out", str(tmp_path)]) == 0
    assert check_analysis(spec, values, buf.getvalue()) == []
    shifted = dict(values, s1=(*values["s1"][:2], values["s1"][2] + 0.001, values["s1"][3]))
    assert "label s1" in check_analysis(spec, shifted, buf.getvalue())[0]


def test_independent_theory_matches_the_program():
    from interfero.complementarity import theory_bmzi, theory_pqe

    angles = np.linspace(-np.pi, 2 * np.pi, 97)
    for ours, oracle in ((bmzi_theory, theory_bmzi), (pqe_theory, theory_pqe)):
        points = [oracle(a) for a in angles]
        c, p = ours(angles)
        assert np.allclose(c, [pt.coherence for pt in points], rtol=0, atol=1e-9)
        assert np.allclose(p, [pt.predictability for pt in points], rtol=0, atol=1e-9)


def test_tracer_attributes_threaded_cells_to_the_sweep():
    experiments = sys.modules["interfero.experiments"]
    originals = {name: getattr(experiments, name) for name in ("counts_from_probabilities", "ThreadPoolExecutor")}
    tracer = Tracer(list(TRACED))
    tracer.install()
    try:
        # looked up on the module, as the CLI does, so the wrapper runs
        experiments.run_sweep(experiments.ExperimentConfig(kind="pqe", angle_points=4, repetitions=3, shots=50), threads=2)
    finally:
        tracer.uninstall()
    for name, fn in originals.items():
        assert getattr(experiments, name) is fn
    cells = [s for s in tracer.spans if s.name == CELL]
    assert len(cells) == 12 and all(s.parent.name == "experiments.run_sweep" for s in cells)
    sampled = [s for s in tracer.spans if s.name == "circuits.counts_from_probabilities"]
    assert len(sampled) == 12 * 15 and all(s.parent.name == CELL and s.thread == s.parent.thread for s in sampled)
    figures = summarize_spans(tracer.spans, tracer.spans[0].start, max(s.end for s in tracer.spans))
    assert figures["circuits.counts_from_probabilities.calls"] == 180
    assert figures["experiments.run_sweep.parallelism"] > 0
    assert figures["trace.uncovered_s"] == pytest.approx(0.0, abs=1e-9)


def test_tracer_keeps_every_span_under_thread_switching():
    tracer = Tracer([])
    leaf = tracer.wrap("leaf", lambda: None)
    outer = tracer.wrap("outer", lambda: [leaf() for _ in range(50)])
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [outer() for _ in range(40)]) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(tracer.spans) == 8 * 40 * 51
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert all(s.parent.name == "outer" and s.parent.thread == s.thread for s in leaves)
    figures = summarize_spans(tracer.spans, min(s.start for s in tracer.spans), max(s.end for s in tracer.spans))
    assert figures["outer.calls"] == 320 and figures["leaf.calls"] == 16000
