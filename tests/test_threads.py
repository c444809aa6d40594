"""The sweep's threaded draws: the same bytes for any thread count, bounded and joined threads, raised errors."""

import threading

import pytest

import interfero.experiments as exp
from interfero import ExperimentConfig, run_sweep
from interfero.output import result_csv, summary_text

NOISE = dict(depolarizing=0.02, amplitude_damping=0.01, phase_damping=0.01, readout_flip0=0.02, readout_flip1=0.03)

# 13 angles, one piece: no count of 2, 3 or 4 workers divides them
NOISY_PQE = ExperimentConfig(kind="pqe", angle_points=13, repetitions=3, shots=100, master_seed=21, **NOISE)
# 400 cells an angle: pieces of 5, 5 and 2 angles
BMZI = ExperimentConfig(kind="bmzi", angle_points=12, repetitions=400, shots=20, master_seed=8)
PIECE_ANGLES = [5, 5, 2]


@pytest.fixture
def four_cpus(monkeypatch):
    """Four CPUs as the sweep sees them, and every thread it starts, recorded per piece (one list per draw)."""
    monkeypatch.setattr(exp.os, "cpu_count", lambda: 4)
    pieces: list[list[threading.Thread]] = []

    class Recorded(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pieces[-1].append(self)

    real_draw = exp._draw

    def draw(*args):
        pieces.append([])
        real_draw(*args)

    monkeypatch.setattr(exp, "Thread", Recorded)
    monkeypatch.setattr(exp, "_draw", draw)
    return pieces


@pytest.mark.parametrize("config, started_at_four", [(NOISY_PQE, [3]), (BMZI, [3, 3, 1])], ids=["noisy-pqe", "bmzi-pieces"])
def test_outputs_are_the_same_bytes_for_any_thread_count(config, started_at_four, four_cpus):
    result = run_sweep(config, threads=1)
    for threads in (2, 3, 4):
        four_cpus.clear()
        threaded = run_sweep(config, threads=threads)
        assert result_csv(threaded) == result_csv(result)
        assert summary_text(threaded) == summary_text(result)
    # at 4 threads each piece drew on min(4, its angles) workers, the calling thread and the ones it started
    assert [len(started) for started in four_cpus] == started_at_four


def test_two_threads_start_one_thread_a_piece_and_one_thread_starts_none(four_cpus):
    run_sweep(BMZI, threads=2)
    assert [len(started) for started in four_cpus] == [1, 1, 1]
    # each was started (it has an ident) and has ended
    assert all(thread.ident is not None and not thread.is_alive() for started in four_cpus for thread in started)
    four_cpus.clear()
    run_sweep(BMZI, threads=1)
    run_sweep(ExperimentConfig(kind="pqe", angle_points=6, analytic=True), threads=4)
    assert [len(started) for started in four_cpus] == [0, 0, 0]


def test_a_huge_thread_count_is_bounded_by_the_cpus_and_the_angles(four_cpus):
    run_sweep(BMZI, threads=10**6)
    assert [len(started) for started in four_cpus] == [min(4, angles) - 1 for angles in PIECE_ANGLES]
    assert not any(thread.is_alive() for started in four_cpus for thread in started)


@pytest.mark.parametrize("faulty", range(4))
def test_an_error_in_any_share_reaches_the_caller(faulty, four_cpus, monkeypatch):
    # four angles on four workers: angle 0 is the calling thread's share, each other angle a started thread's
    real_rng = exp.angle_rng

    class Broken:
        def multinomial(self, *args, **kwargs):
            raise RuntimeError(f"stream of angle {faulty} failed")

    monkeypatch.setattr(exp, "angle_rng", lambda seed, index: Broken() if index == faulty else real_rng(seed, index))
    config = ExperimentConfig(kind="bmzi", angle_points=4, repetitions=2, shots=10)
    with pytest.raises(RuntimeError, match=f"^stream of angle {faulty} failed$"):
        run_sweep(config, threads=4)
    assert [len(started) for started in four_cpus] == [3]
    assert not any(thread.is_alive() for thread in four_cpus[0])
