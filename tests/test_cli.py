"""Command-line interface tests, in-process except the import-cost guard."""

import errno
import json
import os
import random
import re
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from bb84sim import cli
from bb84sim.adversary import channel_table
from bb84sim.amplification import PrivacyParams
from bb84sim.cli import build_parser, main
from bb84sim.errors import InvalidParamsError, KeyTooShortError
from bb84sim.harness import ExperimentReport, build_strategy, derive_seed
from bb84sim.protocol import SessionConfig, run_session


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.pulses == 10_000
        assert args.eve == "none"
        assert args.format == "json"

    def test_detect_curve_flags(self):
        args = build_parser().parse_args(
            ["detect-curve", "--k-values", "1,2,3", "--force-differ"]
        )
        assert args.k_values == "1,2,3"
        assert args.force_differ is True

    def test_unknown_eve_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "--eve", "beamsplit"])
        assert excinfo.value.code == 2


class TestRunCommand:
    def test_json_report_to_stdout(self, capsys):
        code = main(
            ["run", "--pulses", "200", "--sessions", "3", "--seed", "5"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["n_pulses"] == 200
        assert len(payload["sessions"]) == 3

    def test_report_written_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["run", "--pulses", "200", "--sessions", "2", "--out", str(out)]
        )
        assert code == 0
        ExperimentReport.from_json(out.read_text())  # validates aggregates

    def test_csv_output(self, capsys):
        code = main(
            ["run", "--pulses", "100", "--sessions", "2", "--format", "csv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("index,qber,")
        assert any(line.startswith("#") for line in lines)

    def test_full_flag_surface(self, capsys):
        code = main(
            [
                "run",
                "--pulses", "400",
                "--sessions", "2",
                "--efficiency", "0.9",
                "--parity-rounds", "4",
                "--eve", "indirect-physical",
                "--ancilla-angle", "0.5235987755982988",
                "--resend-rule", "resend-ancilla",
                "--attack-fraction", "0.8",
                "--pa-t", "16",
                "--pa-s", "8",
                "--seed", "77",
                "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["eve_kind"] == "indirect-physical"
        assert payload["config"]["pa_leak_bits"] == 16

    def test_invalid_config_exits_2(self, capsys):
        assert main(["run", "--efficiency", "0"]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_degenerate_ancilla_exits_2(self, capsys):
        code = main(
            ["run", "--eve", "indirect-oracle", "--ancilla-angle", "0"]
        )
        assert code == 2
        at_zero = capsys.readouterr().err
        # -pi is the same ray as 0, so it fails with the same message
        code = main(["run", "--eve", "indirect-oracle",
                     "--ancilla-angle=-3.141592653589793"])
        assert code == 2
        assert capsys.readouterr().err == at_zero

    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
    def test_non_finite_ancilla_angle_exits_2(self, capsys, angle):
        code = main(
            ["run", "--pulses", "20", "--sessions", "1",
             "--eve", "indirect-physical", f"--ancilla-angle={angle}"]
        )
        assert code == 2
        assert "ancilla_angle must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "detect-curve"])
    def test_missing_out_directory_exits_2_before_the_run(
        self, capsys, tmp_path, monkeypatch, command
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run_experiment", must_not_run)
        monkeypatch.setattr(cli, "detection_rate_curve", must_not_run)
        out = tmp_path / "missing" / "r.json"
        assert main([command, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "does not exist" in err
        assert "Traceback" not in err

    def test_out_under_a_regular_file_exits_2_before_the_run(
        self, capsys, tmp_path, monkeypatch
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run_experiment", must_not_run)
        parent = tmp_path / "file"
        parent.write_text("")
        assert main(["run", "--out", str(parent / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: invalid configuration: --out parent {parent} is not a "
            "directory\n"
        )

    @pytest.mark.skipif(not os.path.isfile("/proc/version"),
                        reason="needs a procfs mounted at /proc")
    def test_out_on_a_pseudo_filesystem_exits_2_before_the_run(
        self, capsys, monkeypatch
    ):
        # /proc passes a permission check for root, but no file can be
        # created in it, so the report's temporary file is probed up front
        def must_not_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run_experiment", must_not_run)
        argv = ["run", "--sessions", "3", "--pulses", "50",
                "--out", "/proc/version"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: invalid configuration: cannot create a file in "
            "--out directory /proc: "
        )
        assert "Traceback" not in err

    def test_out_under_a_file_exits_2(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["run", "--out", str(blocker / "r.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_out_naming_a_directory_exits_2(self, capsys, tmp_path):
        assert main(["run", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_failed_write_exits_3_and_leaves_no_partial_file(
        self, capsys, tmp_path, monkeypatch
    ):
        out = tmp_path / "report.json"
        out.write_text("previous report\n")

        def failing_replace(src, dst):
            raise OSError(28, "No space left on device", str(src))

        monkeypatch.setattr(cli.os, "replace", failing_replace)
        code = main(
            ["run", "--pulses", "50", "--sessions", "1", "--out", str(out)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err == (
            f"error: cannot write report to {out}: No space left on device\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        assert out.read_text() == "previous report\n"

    @pytest.mark.parametrize("out", [[], ["--out", "-"]],
                             ids=["no-out", "dash"])
    def test_failed_write_to_stdout_names_it(self, capsys, monkeypatch, out):
        class Full:  # standard output on a full device
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stdout", Full())
        code = main(["run", "--pulses", "50", "--sessions", "1", *out])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "error: cannot write report to standard output: "
            f"{os.strerror(errno.ENOSPC)}\n"
        )
        assert captured.out == ""

    def test_report_replaces_existing_file(self, tmp_path):
        out = tmp_path / "report.json"
        out.write_text("previous report\n")
        argv = ["run", "--pulses", "50", "--sessions", "1", "--out", str(out)]
        assert main(argv) == 0
        ExperimentReport.from_json(out.read_text())
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_report_through_a_symlink_reaches_its_target(self, tmp_path):
        real_dir = tmp_path / "real"
        real_dir.mkdir()
        real = real_dir / "report.json"
        real.write_text("previous report\n")
        link = tmp_path / "link"
        link.symlink_to(real)
        argv = ["run", "--pulses", "10", "--sessions", "1", "--out", str(link)]
        assert main(argv) == 0
        assert link.is_symlink() and link.resolve() == real
        ExperimentReport.from_json(real.read_text())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "real"]
        assert [p.name for p in real_dir.iterdir()] == ["report.json"]

    def test_report_to_a_fifo_reaches_its_reader(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []

        def read():
            with open(fifo) as handle:
                received.append(handle.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        argv = ["run", "--pulses", "10", "--sessions", "1", "--out", str(fifo)]
        assert main(argv) == 0
        # a report renamed over the FIFO would leave its reader waiting
        reader.join(timeout=10)
        assert not reader.is_alive(), "the FIFO's reader got no report"
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        ExperimentReport.from_json(received[0])

    def test_runtime_failure_exits_3(self, capsys):
        # parity verification cannot run on a key shorter than its rounds
        code = main(
            ["run", "--pulses", "4", "--sessions", "1",
             "--parity-rounds", "32"]
        )
        assert code == 3

    def test_short_key_failure_names_a_replayable_seed(self, capsys):
        code = main(
            ["run", "--pulses", "20", "--efficiency", "0.3",
             "--parity-rounds", "8"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        match = re.search(r"session (\d+) \(seed (\d+)\)", err)
        assert match, err
        index, seed = int(match.group(1)), int(match.group(2))
        assert seed == derive_seed(1, index)
        with pytest.raises(KeyTooShortError):
            run_session(
                SessionConfig(n_pulses=20, efficiency=0.3, parity_rounds=8),
                channel_table("none"),
                seed,
            )

    @pytest.mark.parametrize("argv, index", [
        (["run", "--pulses", "600", "--sessions", "5", "--pa-t", "280",
          "--pa-s", "8"], 3),
        (["detect-curve", "--pulses", "1", "--sessions", "3",
          "--force-differ", "--k-values", "0"], 0),
        (["detect-curve", "--pulses", "1", "--sessions", "3",
          "--k-values", "0"], 0),
    ], ids=["amplification", "forced-flip", "empty-curve-key"])
    def test_failed_session_replays_as_documented(self, capsys, argv, index):
        # oracle: the replay each failure kind has in the SessionError
        # docstring; none raises from run_session itself
        assert main(argv) == 3
        err = capsys.readouterr().err
        match = re.fullmatch(r"error: session (\d+) \(seed (\d+)\): (.*)\n",
                             err)
        assert match, err
        assert int(match.group(1)) == index
        seed, message = int(match.group(2)), match.group(3)
        config = cli._config_from_args(build_parser().parse_args(argv))
        batch = run_session(
            config, build_strategy(config), seed
        )
        if config.privacy_enabled:
            assert not batch.detected[0]
            with pytest.raises(InvalidParamsError) as excinfo:
                PrivacyParams(len(batch.reconciled(0)[0]),
                              config.pa_leak_bits, config.pa_margin_bits)
            assert str(excinfo.value) == message
        else:
            assert batch.lengths[0] == 0
            if "--force-differ" in argv:
                assert message == "no sifted bits to flip"
            else:
                assert message == (
                    "no sifted bits: a curve session needs a nonempty "
                    "sifted key"
                )

    def test_reruns_byte_identical(self, capsys):
        argv = ["run", "--pulses", "300", "--sessions", "4",
                "--eve", "intercept-resend", "--seed", "123"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestDetectCurveCommand:
    def test_curve_json(self, capsys):
        code = main(
            ["detect-curve", "--pulses", "64", "--sessions", "20",
             "--k-values", "1,2", "--force-differ"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["parity_rounds"] for e in payload["curve"]] == [1, 2]

    def test_curve_csv(self, capsys):
        code = main(
            ["detect-curve", "--pulses", "64", "--sessions", "5",
             "--k-values", "1", "--format", "csv"]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("parity_rounds,detection_rate")

    def test_bad_k_values_exit_2(self, capsys):
        assert main(["detect-curve", "--k-values", "a,b"]) == 2
        assert "--k-values entry 'a' is not an integer" in (
            capsys.readouterr().err
        )
        assert main(["detect-curve", "--k-values", "1,x"]) == 2
        assert "--k-values entry 'x' is not an integer" in (
            capsys.readouterr().err
        )
        assert main(["detect-curve", "--k-values", ""]) == 2
        assert "--k-values must name at least one k" in capsys.readouterr().err

    def test_negative_k_value_exits_2(self, capsys):
        assert main(["detect-curve", "--k-values", "1,-1"]) == 2
        assert "parity round counts must be >= 0" in capsys.readouterr().err


def test_importing_the_cli_loads_neither_numpy_random_nor_fft():
    # every command pays its import: on a 2-vCPU VM (numpy 2.4.6)
    # numpy.random alone adds 11-18 ms and 5.6 MB of peak resident memory,
    # and numpy.fft about 2 ms, so both stay out until a command needs them
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, bb84sim.cli; "
         "print(sorted(m for m in ('numpy.random', 'numpy.fft') "
         "if m in sys.modules))"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("eve, parity_rounds, loaded", [
    ("indirect-oracle", "8", False),
    ("intercept-resend", "0", True),
])
def test_only_a_nonzero_difference_loads_numpy_fft(eve, parity_rounds, loaded):
    # the oracle's guess equals the key, so privacy amplification hashes a
    # zero difference, which needs no transform; intercept/resend with no
    # parity round is undetected and hashes a nonzero one through the FFT
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["run", "--eve", eve, "--pulses", "2000", "--sessions", "2",
            "--parity-rounds", parity_rounds, "--pa-t", "200", "--pa-s", "16"]
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from bb84sim.cli import main; "
         f"code = main({argv!r}); "
         "print(code, 'numpy.fft' in sys.modules, file=sys.stderr)"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["sessions"][1]["detected"] is False
    assert done.stderr.split() == ["0", str(loaded)]
