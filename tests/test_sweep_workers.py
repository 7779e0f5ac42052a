"""A sweep's batches run in forked worker processes: the report bytes, the
failures and the process table must be those of a run in one process."""

import errno
import os
import threading
import time
from dataclasses import replace

import pytest

from bb84sim import cli, harness
from bb84sim.errors import KeyTooShortError, SessionError
from bb84sim.harness import ExperimentConfig, derive_seed

# Above the fork threshold: 700 sessions x 96 pulses x 8 k-values.
CURVE = ["detect-curve", "--pulses", "96", "--sessions", "700",
         "--k-values", "1,2,3,4,5,6,7,8", "--force-differ", "--seed", "5"]
# At seed 301, sessions 2243 and 5224 are the first two that keep 3 sifted
# bits or fewer, too few for 3 parity rounds, and they lie in batches 1
# and 2 of three: at W = 2 the child's share and this process's share both
# fail, and at W = 3 both children's.  ``TestFailures`` checks all this.
FAILING = ["run", "--pulses", "20", "--parity-rounds", "3",
           "--sessions", "6600", "--seed", "301"]
FAILING_SESSIONS = (2243, 5224)


def config_of(argv):
    return cli._config_from_args(cli.build_parser().parse_args(argv))


def jobs(argv):
    """The jobs of a command's sweep: its batches, for every k-value of a
    curve."""
    args = cli.build_parser().parse_args(argv)
    config = cli._config_from_args(args)
    batches = len(harness._batches(config, 0, config.n_sessions))
    if args.command == "detect-curve":
        return batches * len(cli._k_values(args.k_values))
    return batches


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
     "80", "--parity-rounds", "8", "--pa-t", "200", "--pa-s", "16",
     "--efficiency", "0.9"],
    ["run", "--eve", "intercept-resend", "--pulses", "500", "--sessions",
     "300", "--parity-rounds", "4", "--format", "csv"],
    CURVE,
], ids=["json-amplified", "csv", "forced-difference-curve"])
def test_worker_count_does_not_change_the_bytes(monkeypatch, capsys, argv):
    # at least one batch for each of three workers
    assert jobs(argv) >= 3
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
        with pytest.raises(SessionError) as excinfo:
            harness.run_experiment(config_of(argv))
        return excinfo.value

    def test_failing_sessions_lie_in_two_workers_batches(self):
        # oracle: each session's sifted length, from a run without parity
        # rounds; the first two sessions too short for them lie in batches
        # 1 and 2, which different workers own at W = 2 and at W = 3, the
        # first never this process
        config = config_of(FAILING)
        lengths = [
            row.sifted_length for row in harness.run_experiment(
                replace(config, parity_rounds=0)).sessions
        ]
        short = [i for i, n in enumerate(lengths) if n <= 3]
        assert tuple(short[:2]) == FAILING_SESSIONS
        batches = harness._batches(config, 0, config.n_sessions)
        first, second = (
            next(b for b, indices in enumerate(batches) if i in indices)
            for i in FAILING_SESSIONS
        )
        assert (first, second) == (1, 2)
        for workers in (2, 3):
            assert first % workers != second % workers
            assert first % workers != 0

    @pytest.mark.parametrize("workers", [2, 3])
    def test_child_failure_names_the_serial_session(self, monkeypatch,
                                                    workers):
        serial = self.serial_error(monkeypatch, FAILING)
        assert serial.session_index == FAILING_SESSIONS[0]
        assert serial.seed == derive_seed(301, FAILING_SESSIONS[0])
        config = config_of(FAILING)
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
        assert lines[0].startswith(
            f"error: session {FAILING_SESSIONS[0]} (seed ")
        assert lines[1] == lines[0]
        assert lines[2] == lines[0]

    @pytest.mark.parametrize("bad, index", [
        ({3, 4}, 3),  # the child's share fails first
        ({2, 5}, 2),  # this process's share fails first
        ({1}, 1),  # a child's first job fails
        ({5}, 5),  # a share's last job fails
    ])
    def test_lowest_failing_session_wins(self, monkeypatch, bad, index):
        # at W = 2 jobs 0, 2, 4 run here and 1, 3, 5 in the child; at W = 3
        # jobs 0, 3 run here, 1, 4 in one child and 2, 5 in the other
        config = ExperimentConfig(n_pulses=10, n_sessions=6, master_seed=9)

        def work(indices, seeds):
            for i in indices:
                if i in bad:
                    raise KeyTooShortError(f"session {i} is bad")
            return list(indices)

        jobs = [(range(i, i + 1), work) for i in range(6)]
        errors = []
        for workers in (1, 2, 3):
            force_workers(monkeypatch, workers)
            with pytest.raises(SessionError) as excinfo:
                harness._sweep(config, jobs)
            errors.append(excinfo.value)
            assert_no_children()
        for error in errors:
            assert error.session_index == index
            assert error.seed == derive_seed(9, index)
            assert str(error) == str(errors[0])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_batch_that_fails_only_as_a_batch(self, monkeypatch, workers):
        # six batches of two sessions; batch 1 (sessions 2 and 3) fails as
        # a batch, and each of its sessions passes alone
        config = ExperimentConfig(n_pulses=10, n_sessions=12, master_seed=9)

        def work(indices, seeds):
            if len(indices) > 1 and indices[0] == 2:
                raise ValueError("batch-only failure")
            return list(indices)

        jobs = [(range(i, i + 2), work) for i in range(0, 12, 2)]
        force_workers(monkeypatch, workers)
        with pytest.raises(RuntimeError) as excinfo:
            harness._sweep(config, jobs)
        assert str(excinfo.value) == (
            "sessions 2 to 3 failed as one batch but not when run again one "
            "at a time"
        )
        assert_no_children()


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

        def work(indices, seeds):
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

        def dying(config, strategy, indices, seeds):
            if os.getpid() != parent:
                os._exit(1)
            return rows(config, strategy, indices, seeds)

        monkeypatch.setattr(harness, "_experiment_rows", dying)
        force_workers(monkeypatch, 2)
        out = tmp_path / "report.json"
        argv = ["run", "--pulses", "500", "--sessions", "300", "--out",
                str(out)]
        assert jobs(argv) >= 2
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert "exited with status 1 without sending its results" in err
        assert "Traceback" not in err
        assert not out.exists()
        assert_no_children()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="no /proc/self/fd on this platform")
    def test_failed_fork_leaves_no_child_and_no_pipe(self, monkeypatch,
                                                     capsys):
        # the second fork fails as at a process limit
        forks = count_forks(monkeypatch)
        counted_fork = os.fork

        def fork():
            if forks:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return counted_fork()

        monkeypatch.setattr(os, "fork", fork)
        force_workers(monkeypatch, 3)
        before = sorted(os.listdir("/proc/self/fd"))
        assert cli.main(CURVE) == 3
        assert sorted(os.listdir("/proc/self/fd")) == before
        captured = capsys.readouterr()
        assert captured.out == ""
        assert os.strerror(errno.EAGAIN) in captured.err
        assert len(forks) == 1
        assert_no_children()


class TestWhenToFork:
    def test_curve_forks_once_per_sweep(self, monkeypatch, capsys):
        # one fork per extra worker, however many jobs each runs
        assert jobs(CURVE) > 3
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
        assert 96 * 700 * 8 >= harness._FORK_MIN_PULSES
        assert len(forks) == min(cpus, jobs(CURVE)) - 1

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
