"""A sweep's batches run in forked worker processes: the report bytes, the
failures and the process table must be those of a run in one process."""

import os
import threading
import time

import pytest

from bb84sim import cli, harness
from bb84sim.errors import KeyTooShortError, SessionError
from bb84sim.harness import ExperimentConfig, derive_seed

# Above the fork threshold: 200 sessions x 96 pulses x 8 k-values.
CURVE = ["detect-curve", "--pulses", "96", "--sessions", "200",
         "--k-values", "1,2,3,4,5,6,7,8", "--force-differ", "--seed", "5"]
# At seed 1, sessions 690 and 1023 keep 3 sifted bits or fewer, too few for
# 3 parity rounds.  Batches of 409 sessions put them in batches 1 and 2:
# at W = 2 the child's share and this process's share both fail.
FAILING = ["run", "--pulses", "20", "--parity-rounds", "3",
           "--sessions", "1227", "--seed", "1"]


def force_workers(monkeypatch, workers):
    """Run every sweep on ``workers`` processes, whatever its size."""
    monkeypatch.setattr(
        harness, "_workers", lambda pulses, batches: min(workers, batches)
    )


def count_forks(monkeypatch):
    """Forks made by this process from now on, counted here."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def output(capsys, argv):
    assert cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["run", "--eve", "indirect-oracle", "--pulses", "2000", "--sessions",
     "20", "--parity-rounds", "8", "--pa-t", "200", "--pa-s", "16",
     "--efficiency", "0.9"],
    ["run", "--eve", "intercept-resend", "--pulses", "500", "--sessions",
     "40", "--parity-rounds", "4", "--format", "csv"],
    CURVE,
], ids=["json-amplified", "csv", "forced-difference-curve"])
def test_worker_count_does_not_change_the_bytes(monkeypatch, capsys, argv):
    texts = []
    for workers in (1, 2, 3):
        force_workers(monkeypatch, workers)
        forks = count_forks(monkeypatch)
        texts.append(output(capsys, argv))
        assert len(forks) == workers - 1
        assert_no_children()
    assert texts[1] == texts[0]
    assert texts[2] == texts[0]


class TestFailures:
    def serial_error(self, monkeypatch, argv):
        force_workers(monkeypatch, 1)
        config = cli._config_from_args(cli.build_parser().parse_args(argv))
        with pytest.raises(SessionError) as excinfo:
            harness.run_experiment(config)
        return excinfo.value

    @pytest.mark.parametrize("workers", [2, 3])
    def test_child_failure_names_the_serial_session(self, monkeypatch,
                                                    workers):
        serial = self.serial_error(monkeypatch, FAILING)
        assert serial.session_index == 690
        assert serial.seed == derive_seed(1, 690)
        config = cli._config_from_args(cli.build_parser().parse_args(FAILING))
        force_workers(monkeypatch, workers)
        with pytest.raises(SessionError) as excinfo:
            harness.run_experiment(config)
        error = excinfo.value
        assert (error.session_index, error.seed, str(error)) == (
            serial.session_index, serial.seed, str(serial)
        )
        assert isinstance(error.__cause__, KeyTooShortError)
        assert str(error.__cause__) == str(serial.__cause__)
        assert_no_children()

    def test_cli_exits_3_with_the_serial_line(self, monkeypatch, capsys):
        lines = []
        for workers in (1, 2, 3):
            force_workers(monkeypatch, workers)
            assert cli.main(FAILING) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            lines.append(captured.err)
        assert lines[0].startswith("error: session 690 (seed ")
        assert lines[1] == lines[0]
        assert lines[2] == lines[0]

    @pytest.mark.parametrize("bad, index", [
        ({3, 4}, 3),  # the child's share fails first
        ({2, 5}, 2),  # this process's share fails first
    ])
    def test_lowest_failing_session_wins(self, monkeypatch, bad, index):
        # jobs 0, 2, 4 run here and 1, 3, 5 in the child
        config = ExperimentConfig(n_pulses=10, n_sessions=6, master_seed=9)

        def work(indices, rngs):
            for i in indices:
                if i in bad:
                    raise KeyTooShortError(f"session {i} is bad")
            return list(indices)

        jobs = [(range(i, i + 1), work) for i in range(6)]
        errors = []
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            with pytest.raises(SessionError) as excinfo:
                harness._sweep(config, jobs)
            errors.append(excinfo.value)
            assert_no_children()
        for error in errors:
            assert error.session_index == index
            assert error.seed == derive_seed(9, index)
        assert str(errors[1]) == str(errors[0])


class TestChildren:
    def test_none_left_after_a_successful_sweep(self, monkeypatch, capsys):
        force_workers(monkeypatch, 2)
        output(capsys, CURVE)
        assert_no_children()

    def test_none_left_after_a_session_failure(self, monkeypatch, capsys):
        force_workers(monkeypatch, 3)
        assert cli.main(FAILING) == 3
        assert_no_children()

    def test_none_left_after_an_exception_here(self, monkeypatch):
        # the child would sleep for a minute; it is killed, not waited for
        parent = os.getpid()
        config = ExperimentConfig(n_pulses=10, n_sessions=2)

        def work(indices, rngs):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)
            return list(indices)

        force_workers(monkeypatch, 2)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            harness._sweep(config, [(range(i, i + 1), work) for i in (0, 1)])
        assert time.monotonic() - started < 30
        assert_no_children()

    def test_child_that_dies_is_a_runtime_error(self, monkeypatch, capsys,
                                                tmp_path):
        parent = os.getpid()
        rows = harness._experiment_rows

        def dying(config, strategy, indices, rngs):
            if os.getpid() != parent:
                os._exit(1)
            return rows(config, strategy, indices, rngs)

        monkeypatch.setattr(harness, "_experiment_rows", dying)
        force_workers(monkeypatch, 2)
        out = tmp_path / "report.json"
        argv = ["run", "--pulses", "500", "--sessions", "40", "--out",
                str(out)]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert "exited with status 1 without sending its results" in err
        assert "Traceback" not in err
        assert not out.exists()
        assert_no_children()


class TestWhenToFork:
    def test_curve_forks_once_per_sweep(self, monkeypatch, capsys):
        # 3 batches per k and 8 k-values: 24 jobs, one fork per extra worker
        force_workers(monkeypatch, 3)
        forks = count_forks(monkeypatch)
        output(capsys, CURVE)
        assert len(forks) == 2

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="no CPU affinity mask on this platform")
    @pytest.mark.skipif(threading.active_count() != 1,
                        reason="the test runner keeps a second thread")
    def test_curve_forks_for_each_usable_cpu(self, monkeypatch, capsys):
        cpus = len(os.sched_getaffinity(0))
        forks = count_forks(monkeypatch)
        output(capsys, CURVE)
        assert len(forks) == min(cpus, 24) - 1

    def test_small_run_does_not_fork(self, monkeypatch, capsys):
        # 3 sessions of 2000 pulses, below the threshold
        assert 3 * 2000 < harness._FORK_MIN_PULSES
        forks = count_forks(monkeypatch)
        output(capsys, ["run", "--pulses", "2000", "--sessions", "3"])
        assert forks == []

    def test_second_thread_stops_the_fork(self, monkeypatch, capsys):
        forks = count_forks(monkeypatch)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            serial = output(capsys, CURVE)
        finally:
            release.set()
            thread.join()
        assert forks == []
        assert output(capsys, CURVE) == serial
