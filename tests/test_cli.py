import xml.etree.ElementTree as ET

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from interfero import ExperimentConfig, ValidationError
from interfero.cli import main, parse_config
from interfero.output import CSV_HEADER, config_lines


BASE_CONFIG = """\
# small interferometer run
kind = bmzi
angle_points = 4
repetitions = 2
shots = 50
master_seed = 21
label = 5
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG, encoding="utf-8")
    return path


def test_theory_prints_saturated_sum(capsys):
    assert main(["theory", "--kind", "bmzi", "--points", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "angle,coherence,predictability,sum"
    assert len(out) == 6
    for line in out[1:]:
        assert line.split(",")[3] == "1.000000000000"


def test_theory_pqe_sum_is_three(capsys):
    assert main(["theory", "--kind", "pqe", "--points", "4"]) == 0
    for line in capsys.readouterr().out.splitlines()[1:]:
        assert line.split(",")[3] == "3.000000000000"


def test_theory_points_are_not_capped_by_repetitions(capsys):
    # theory has no repetitions; the bmzi default of 128 would cap it at 1,953 points
    assert main(["theory", "--kind", "bmzi", "--points", "2000"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2001
    assert all(line.split(",")[3] == "1.000000000000" for line in out[1:])


@pytest.mark.parametrize("points", ["1", "250001"])
def test_theory_points_out_of_range_name_the_flag(points, capsys):
    assert main(["theory", "--kind", "pqe", "--points", points]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --points must be between 2 and 250000, got {points}\n"


def test_run_is_reproducible(tmp_path, config_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(config_path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(out2)]) == 0
    capsys.readouterr()
    for name in ("results.csv", "summary.txt", "config.cfg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_threads_do_not_change_bytes(tmp_path, config_path, capsys):
    out1, out2 = tmp_path / "t1", tmp_path / "t8"
    assert main(["run", "--config", str(config_path), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(out2), "--threads", "8"]) == 0
    capsys.readouterr()
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_run_rejects_zero_shots_naming_the_field(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("kind = bmzi\nshots = 0\nanalytic = false\n", encoding="utf-8")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "shots" in capsys.readouterr().err


def test_run_rejects_shots_beyond_a_c_long(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("kind = bmzi\nangle_points = 2\nrepetitions = 1\nshots = 100000000000000000000\n", encoding="utf-8")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: shots") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_unknown_flag_exits_one(capsys):
    assert main(["theory", "--kind", "bmzi", "--wat"]) == 1
    assert "--wat" in capsys.readouterr().err


def test_missing_config_file_exits_two(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "absent.cfg" in capsys.readouterr().err


def test_unknown_config_key_named(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("kind = bmzi\nbogus = 3\n", encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 1
    assert "bogus" in capsys.readouterr().err


def test_malformed_config_line_reported(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("kind = bmzi\nangle_points 9\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="key = value"):
        parse_config(path)


def test_seed_flag_overrides_config(tmp_path, config_path, capsys):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["run", "--config", str(config_path), "--out", str(out1), "--seed", "99"]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(out2)]) == 0
    capsys.readouterr()
    assert "master_seed = 99" in (out1 / "config.cfg").read_text(encoding="utf-8")
    assert (out1 / "results.csv").read_bytes() != (out2 / "results.csv").read_bytes()


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    path = tmp_path / "noseed.cfg"
    path.write_text("kind = bmzi\nangle_points = 3\nrepetitions = 1\nshots = 20\n", encoding="utf-8")
    monkeypatch.setenv("INTERFERO_SEED", "777")
    out = tmp_path / "env"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert "master_seed = 777" in (out / "config.cfg").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "value, message",
    [
        ("abc", "environment variable INTERFERO_SEED is not an integer"),
        ("-3", "environment variable INTERFERO_SEED: master_seed must fit in 64 bits, got -3"),
        (str(2**64), f"environment variable INTERFERO_SEED: master_seed must fit in 64 bits, got {2**64}"),
    ],
)
def test_env_seed_errors_name_the_variable_and_the_fault(tmp_path, capsys, monkeypatch, value, message):
    path = tmp_path / "noseed.cfg"
    path.write_text("kind = bmzi\nangle_points = 3\nrepetitions = 1\nshots = 20\n", encoding="utf-8")
    monkeypatch.setenv("INTERFERO_SEED", value)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "env")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "env").exists()


def test_config_range_error_names_the_file(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("kind = bmzi\ndepolarizing = 2.0\n", encoding="utf-8")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {path}: depolarizing must lie in [0, 1], got 2.0\n"
    assert not (tmp_path / "o").exists()


def test_seed_flag_error_names_the_flag(tmp_path, config_path, capsys):
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "o"), "--seed", "-5"]) == 1
    assert capsys.readouterr().err == "error: --seed: master_seed must fit in 64 bits, got -5\n"
    assert not (tmp_path / "o").exists()


def test_env_seed_ignored_when_config_has_one(tmp_path, config_path, capsys, monkeypatch):
    monkeypatch.setenv("INTERFERO_SEED", "777")
    out = tmp_path / "cfgseed"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert "master_seed = 21" in (out / "config.cfg").read_text(encoding="utf-8")


def test_analyze_prints_recomputed_report(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "# label 5" in printed
    assert "mse_sum_mean = " in printed
    # the recomputed block matches the stored summary line for line
    stored = (out / "summary.txt").read_text(encoding="utf-8")
    for key in ("mean", "std", "min", "max"):
        line = next(l for l in stored.splitlines() if l.startswith(f"{key} = "))
        assert line in printed


def test_report_writes_figures(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    assert main(["report", "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "table.txt").exists()
    assert (out / "table.svg").exists()
    assert (out / "table.csv").exists()
    assert (out / "curves_5.svg").exists()


def test_report_sanitises_label_in_figure_filename(tmp_path, capsys):
    cfg = tmp_path / "odd.cfg"
    cfg.write_text(
        "kind = bmzi\nangle_points = 3\nrepetitions = 1\nshots = 20\nmaster_seed = 1\nlabel = a/b c\n",
        encoding="utf-8",
    )
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["report", "--out", str(out), "--format", "svg"]) == 0
    capsys.readouterr()
    assert (out / "curves_a_b_c.svg").exists()


def test_report_text_format_only(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    assert main(["report", "--out", str(out), "--format", "text"]) == 0
    capsys.readouterr()
    assert (out / "table.txt").exists()
    assert not (out / "table.svg").exists()


def test_analyze_missing_results_exits_two(tmp_path, capsys):
    assert main(["analyze", "--out", str(tmp_path)]) == 2
    assert "results.csv" in capsys.readouterr().err


def test_run_rejects_a_label_with_a_comma(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("kind = bmzi\nangle_points = 3\nrepetitions = 1\nshots = 20\nlabel = a,b\n", encoding="utf-8")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: label") and err.count("\n") == 1
    assert not (tmp_path / "o" / "results.csv").exists()


@pytest.fixture
def results_path(tmp_path, config_path, capsys):
    out = tmp_path / "o"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    capsys.readouterr()
    return out / "results.csv"


def _edit_field(path, line_no, field, value):
    lines = path.read_text(encoding="utf-8").splitlines()
    parts = lines[line_no - 1].split(",")
    parts[field] = value
    lines[line_no - 1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _analyze_error(path, capsys):
    assert main(["analyze", "--out", str(path.parent)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    return captured.err


def test_analyze_rejects_a_non_integer_angle_index(results_path, capsys):
    _edit_field(results_path, 3, 2, "1.5")
    err = _analyze_error(results_path, capsys)
    assert err == f"error: {results_path}:3: angle_index must be an integer, got '1.5'\n"


def test_analyze_rejects_a_non_integer_repetition(results_path, capsys):
    _edit_field(results_path, 4, 4, "one")
    err = _analyze_error(results_path, capsys)
    assert err == f"error: {results_path}:4: repetition must be an integer, got 'one'\n"


def test_analyze_rejects_an_unparseable_number(results_path, capsys):
    _edit_field(results_path, 2, 6, "0.5.1")
    err = _analyze_error(results_path, capsys)
    assert err == f"error: {results_path}:2: predictability must be a number, got '0.5.1'\n"


@pytest.mark.parametrize("field, name, value", [(5, "coherence", "nan"), (7, "sum", "inf"), (3, "angle", "-inf")])
def test_analyze_rejects_a_non_finite_number(results_path, capsys, field, name, value):
    _edit_field(results_path, 5, field, value)
    err = _analyze_error(results_path, capsys)
    assert err == f"error: {results_path}:5: {name} must be finite, got '{value}'\n"


def test_analyze_rejects_a_duplicate_cell(results_path, capsys):
    lines = results_path.read_text(encoding="utf-8").splitlines()
    results_path.write_text("\n".join(lines + [lines[2]]) + "\n", encoding="utf-8")
    err = _analyze_error(results_path, capsys)
    assert err == (
        f"error: {results_path}:{len(lines) + 1}: duplicate row for label '5', angle index 0, "
        "repetition 1 (first at line 3)\n"
    )


def test_analyze_rejects_a_label_with_mixed_kinds(results_path, capsys):
    _edit_field(results_path, 6, 0, "pqe")
    err = _analyze_error(results_path, capsys)
    assert err == f"error: {results_path}:6: label '5' has kind 'pqe', but 'bmzi' on earlier rows\n"


def test_analyze_rejects_an_angle_index_with_two_angles(results_path, capsys):
    _edit_field(results_path, 3, 3, "1.500000000000")
    err = _analyze_error(results_path, capsys)
    assert err == f"error: {results_path}:3: label '5', angle index 0 has angle 1.5, but -3.14159265359 on earlier rows\n"


def test_analyze_names_the_file_of_a_missing_row(results_path, capsys):
    lines = results_path.read_text(encoding="utf-8").splitlines()
    del lines[4]
    results_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    err = _analyze_error(results_path, capsys)
    assert err == f"error: {results_path}: label '5': missing row for angle index 1, repetition 1\n"


def test_analyze_rejects_an_unknown_kind(results_path, capsys):
    _edit_field(results_path, 2, 0, "mzi")
    err = _analyze_error(results_path, capsys)
    assert err.startswith(f"error: {results_path}:2: kind must be one of")


def test_hash_inside_a_value_is_kept(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# header\nkind = bmzi  # trailing comment\nlabel = a#b\t# tab comment\n", encoding="utf-8")
    config = parse_config(path)
    assert config.kind == "bmzi"
    assert config.label == "a#b"


def test_hash_after_whitespace_starts_a_comment(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("kind = bmzi\nlabel = a #b\n", encoding="utf-8")
    assert parse_config(path).label == "a"


STRENGTH = st.floats(min_value=0.0, max_value=1.0)
# Characters that matter to the CSV and config readers, plus arbitrary ones.
TRICKY = st.sampled_from(list("a1=#, \t\n\r\x0b\x0c\x1c\x85\u2028"))
LABEL_CHARS = st.one_of(TRICKY, TRICKY, TRICKY, st.characters())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(("bmzi", "pqe")),
    angle_points=st.integers(2, 10**6),
    shots=st.integers(1, 10**9),
    repetitions=st.none() | st.integers(1, 10**6),
    master_seed=st.integers(0, 2**64 - 1),
    analytic=st.booleans(),
    label=st.none() | st.text(LABEL_CHARS, min_size=1, max_size=8),
    strengths=st.tuples(STRENGTH, STRENGTH, STRENGTH, STRENGTH, STRENGTH),
)
def test_config_snapshot_parses_back(
    tmp_path_factory, kind, angle_points, shots, repetitions, master_seed, analytic, label, strengths
):
    names = ("depolarizing", "amplitude_damping", "phase_damping", "readout_flip0", "readout_flip1")
    try:
        config = ExperimentConfig(
            kind=kind,
            angle_points=angle_points,
            shots=shots,
            repetitions=repetitions,
            master_seed=master_seed,
            analytic=analytic,
            label=label,
            **dict(zip(names, strengths)),
        )
    except ValidationError:
        assume(False)
    path = tmp_path_factory.mktemp("snapshot") / "config.cfg"
    path.write_text("\n".join(config_lines(config)) + "\n", encoding="utf-8")
    assert parse_config(path) == config


def test_analyze_names_the_lower_of_two_faulty_lines(results_path, capsys):
    lines = results_path.read_text(encoding="utf-8").splitlines()
    results_path.write_text("\n".join(lines + [lines[1]]) + "\n", encoding="utf-8")
    _edit_field(results_path, 7, 6, "x")
    err = _analyze_error(results_path, capsys)
    assert err == f"error: {results_path}:7: predictability must be a number, got 'x'\n"
    _edit_field(results_path, 7, 6, "0.5")
    _edit_field(results_path, 4, 0, "pqe")
    err = _analyze_error(results_path, capsys)
    assert err == f"error: {results_path}:4: label '5' has kind 'pqe', but 'bmzi' on earlier rows\n"


def test_analyze_names_the_first_check_a_line_fails(results_path, capsys):
    _edit_field(results_path, 3, 0, "mzi")
    _edit_field(results_path, 3, 5, "x")
    err = _analyze_error(results_path, capsys)
    assert err.startswith(f"error: {results_path}:3: kind must be one of")


def test_report_renders_a_label_with_one_angle(tmp_path, capsys):
    out = tmp_path / "one"
    out.mkdir()
    rows = [f"bmzi,0,0,0.500000000000,{r},0.4{r},0.5{r},0.9{r},0.9{r},0.000000000000" for r in range(2)]
    (out / "results.csv").write_text("\n".join([CSV_HEADER, *rows]) + "\n", encoding="utf-8")
    assert main(["report", "--out", str(out)]) == 0
    capsys.readouterr()
    svg = (out / "curves_0.svg").read_text(encoding="utf-8")
    ET.fromstring(svg)
    assert "nan" not in svg and "inf" not in svg


@pytest.mark.parametrize("command", ["analyze", "report"])
def test_results_that_are_not_utf8_exit_one(results_path, capsys, command):
    data = results_path.read_bytes().replace(b",5,", b",\xff,", 1)
    results_path.write_bytes(data)
    at = data.index(b"\xff")
    assert main([command, "--out", str(results_path.parent)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {results_path}: not valid UTF-8 at byte {at}\n"


def test_a_config_that_is_not_utf8_exits_one(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"kind = bmzi\nlabel = \xff\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {path}: not valid UTF-8 at byte 20\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("fmt", ["svg", "all"])
def test_report_rejects_labels_that_share_a_curve_file(tmp_path, capsys, fmt):
    cells = ((0, -1.5), (1, 0.5))
    rows = [f"bmzi,{label},{i},{angle},0,0.5,0.5,1.0,1.0,0.0" for label in ("a/b", "a_b") for i, angle in cells]
    (tmp_path / "results.csv").write_text("\n".join([CSV_HEADER, *rows]) + "\n", encoding="utf-8")
    assert main(["report", "--out", str(tmp_path), "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path / 'results.csv'}: labels 'a/b' and 'a_b' both map to curves_a_b.svg\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results.csv"]
    assert main(["report", "--out", str(tmp_path), "--format", "text"]) == 0


# analyze reduces coherence and predictability; report also averages the sum over repetitions
@pytest.mark.parametrize("command, column", [("analyze", "coherence"), ("report", "coherence"), ("report", "sum")])
def test_statistics_that_overflow_a_float_exit_one_naming_the_label(tmp_path, capsys, command, column):
    field = CSV_HEADER.split(",").index(column)
    rows = []
    for i, angle in enumerate((-1.5, 0.5)):
        for r, huge in enumerate(("1e200", "-1e200")):
            parts = ["bmzi", "a", str(i), str(angle), str(r), "0.5", "0.5", "1.0", "1.0", "0.0"]
            parts[field] = huge
            rows.append(",".join(parts))
    path = tmp_path / "results.csv"
    path.write_text("\n".join([CSV_HEADER, *rows]) + "\n", encoding="utf-8")
    assert main([command, "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: label 'a': overflow encountered in square while reducing its rows\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results.csv"]
