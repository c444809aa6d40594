"""The package's public surface, each check in a fresh interpreter so that import order is real."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import interfero

SRC = str(Path(interfero.__file__).resolve().parent.parent)

PUBLIC = {
    "__version__",
    "ValidationError",
    "kron",
    "outer",
    "purity",
    "NoiseModel",
    "depolarizing",
    "amplitude_damping",
    "phase_damping",
    "readout_confusion",
    "Circuit",
    "Gate",
    "simulate_statevector",
    "simulate_density",
    "sample_counts",
    "TomographyResult",
    "measurement_settings",
    "basis_change",
    "expectation_from_counts",
    "linear_inversion",
    "project_psd",
    "reconstruct",
    "trace_distance",
    "ComplementarityPoint",
    "coherence_l1",
    "predictability_l1",
    "point_from_density",
    "bmzi_state",
    "pqe_state",
    "theory_bmzi",
    "theory_pqe",
    "MetricSeries",
    "MseReport",
    "mse",
    "decompose",
    "summarize",
    "histogram_counts",
    "ExperimentConfig",
    "ExperimentResult",
    "build_bmzi",
    "build_pqe",
    "run_sweep",
    "theory_series",
    "ResultRows",
    "result_csv",
    "write_results",
    "read_results",
    "reports_from_rows",
    "aggregate_curves",
    "render_curves",
    "render_sparkline_table",
    "summary_row",
}


def _fresh(code: str):
    """What ``code``, run in a new interpreter that imports interfero from this tree, prints as JSON."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_interfero_loads_no_module_until_a_name_of_it_is_read():
    loaded = _fresh(
        "import json, sys, interfero\n"
        "heavy = ('interfero.report', 'interfero.experiments', 'interfero.cli')\n"
        "before = [m for m in heavy if m in sys.modules]\n"
        "interfero.read_results\n"
        "print(json.dumps([before, [m for m in heavy if m in sys.modules]]))\n"
    )
    assert loaded == [[], ["interfero.report", "interfero.experiments"]]


def test_every_public_name_is_the_object_its_module_defines():
    surface = _fresh(
        "import json, sys, interfero\n"
        "star = {}\n"
        "exec('from interfero import *', star)\n"
        "names = interfero.__all__[1:]\n"
        "owners = {n: getattr(interfero, n).__module__ for n in names}\n"
        "same = [n for n in names if getattr(sys.modules[owners[n]], n) is getattr(interfero, n) is star[n]]\n"
        "print(json.dumps([interfero.__all__, sorted(set(star) - {'__builtins__'}), dir(interfero), owners, same]))\n"
    )
    all_, star, listed, owners, same = surface
    assert len(all_) == len(set(all_)) == 52 and set(all_) == PUBLIC
    assert set(star) == set(listed) == PUBLIC
    assert all(owner.startswith("interfero.") for owner in owners.values())
    assert same == all_[1:]


@pytest.mark.parametrize("first", ["import interfero.cli", "import interfero.mse", "from interfero import mse as m"])
def test_interfero_mse_is_the_function_whatever_imports_first(first):
    kinds = _fresh(
        f"import json, sys\n{first}\n"
        "import interfero, interfero.cli, interfero.mse\n"
        "from interfero import mse\n"
        "print(json.dumps([mse is interfero.mse is sys.modules['interfero.mse'].mse, type(mse).__name__]))\n"
    )
    assert kinds == [True, "function"]


def test_an_unknown_name_is_an_attribute_error():
    raised = _fresh(
        "import json, interfero\n"
        "try:\n"
        "    interfero.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))\n"
    )
    assert raised == "module 'interfero' has no attribute 'no_such_name'"


def test_run_imports_no_reader_and_analyze_imports_it(tmp_path):
    config, out = tmp_path / "run.cfg", tmp_path / "out"
    config.write_text("kind = bmzi\nangle_points = 4\nrepetitions = 2\nshots = 10\n", encoding="utf-8")
    stages = _fresh(
        "import contextlib, io, json, sys\n"
        "unused = ('interfero.report', 'concurrent.futures', 'logging')\n"
        "import interfero.cli\n"
        "seen, codes = [[m for m in unused if m in sys.modules]], []\n"
        f"runs = (['run', '--config', {str(config)!r}, '--out', {str(out)!r}], ['analyze', '--out', {str(out)!r}])\n"
        "for argv in runs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(interfero.cli.main(argv))\n"
        "    seen.append([m for m in unused if m in sys.modules])\n"
        "print(json.dumps([codes, seen]))\n"
    )
    assert stages == [[0, 0], [[], [], ["interfero.report"]]]
