import pytest

from interfero import ValidationError
from interfero.cli import main, parse_config


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
    assert err.startswith("error: label") and err.count("\n") == 1
    assert not (tmp_path / "o" / "results.csv").exists()
