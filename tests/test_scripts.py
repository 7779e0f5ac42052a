"""Smoke tests of the scripts under ``scripts/``: each runs at tiny sizes
in its own interpreter, with the package imported from ``src/``."""

import os
import subprocess
import sys
from pathlib import Path

from bb84sim.adversary import EVE_KINDS

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_attack_comparison():
    lines = run_script(
        "attack_comparison.py", "--pulses", "200", "--sessions", "2",
        "--parity-rounds", "4",
    )
    assert lines[0].split() == [
        "strategy", "QBER", "detected", "eve", "accuracy"
    ]
    assert [line.split()[0] for line in lines[2:]] == list(EVE_KINDS)


def test_amplification_demo():
    lines = run_script(
        "amplification_demo.py", "--pulses", "200", "--sessions", "4",
        "--key-bits", "32", "--leak-bits", "8", "--margins", "2,4",
    )
    assert lines[0].split() == ["attack", "s=2", "s=4"]
    # each session draws what it would draw alone, so the numbers do not
    # depend on how the demo groups its sessions
    assert [line.split() for line in lines[1:]] == [
        ["intercept-resend", "0.01136", "0.00000"],
        ["indirect-oracle", "0.50000", "0.50000"],
    ]
