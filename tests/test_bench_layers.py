"""Every name the benchmark traces or calls exists in the package.

``bench/layers.py`` wraps the package's functions by name and skips, as
``trace.absent``, a name the package no longer has, so a renamed stage
would drop out of the per-layer metrics without failing anything.  The
module is loaded read-only here: ``layers.install`` is never called, since
it would wrap the package's functions for the rest of the session.
``bench/sample.py`` and ``bench/workloads.py`` call the names in ``CALLED``
directly, so a prune of one of those would break the benchmark itself, and
``bench/sample.py`` builds each workload's config and strategy before it
runs the workload, so a config change that refuses its keywords would too.
``bench/workloads.py`` is loaded read-only as well.

A name that exists can still fall out of use, and its trace then reads 0
calls without failing anything, so the per-pulse names of the fine pass
are also counted through one small run.
"""

import math
import sys
from pathlib import Path

import pytest

from bb84sim import cli, harness
from bb84sim.adversary import EVE_KINDS

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
sys.path.insert(0, BENCH)
try:
    import layers
    import workloads
finally:
    sys.path.remove(BENCH)

TRACED = sorted(set(layers.FINE + layers.MEMORY))
CALLED = [
    ("harness", "build_strategy"),
    ("harness", "ExperimentConfig"),
    ("harness", "ExperimentReport"),
]
NAMES = [(module, attr) for _, module, attr in TRACED] + CALLED


@pytest.mark.parametrize(
    "module, attr", NAMES, ids=[f"{module}.{attr}" for module, attr in NAMES],
)
def test_traced_name_exists(module, attr):
    assert layers._originals(module, attr), f"bb84sim.{module}.{attr}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_set_up_builds(name):
    # the keywords ``bench/sample.py`` passes, for every workload
    workload = workloads.WORKLOADS[name]
    config = harness.ExperimentConfig(
        n_pulses=workload.pulses,
        n_sessions=workload.sessions,
        efficiency=workload.efficiency,
        eve_kind=workload.eve,
    )
    harness.build_strategy(config)


PER_PULSE = [entry for entry in layers.FINE if entry not in layers.COARSE]
SIFT = [entry for entry in layers.COARSE if entry[0] == "protocol.sift"]


def trace(monkeypatch, entries):
    """A ``layers.Tracer`` timing ``entries`` with its own wrappers, at
    every reference the package holds, as ``layers.install`` does, but
    undone afterwards."""
    tracer = layers.Tracer()
    for name, module, attr in entries:
        for original in layers._originals(module, attr):
            wrapper = tracer.timed(name, original)
            modules = [mod for modname, mod in sys.modules.items()
                       if modname.startswith("bb84sim.")]
            for mod in modules:
                holders = [mod, *(v for v in vars(mod).values()
                                  if isinstance(v, type))]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            monkeypatch.setattr(holder, key, wrapper)
    return tracer


def test_per_pulse_traced_names_are_called(monkeypatch):
    # under every strategy, even those whose tables read no key
    for kind in EVE_KINDS:
        tracer = trace(monkeypatch, PER_PULSE)
        harness.run_experiment(harness.ExperimentConfig(
            n_pulses=64, n_sessions=3, efficiency=0.9, parity_rounds=2,
            eve_kind=kind,
        ))
        calls = {name: tracer.stats[name]["calls"]
                 for name, _, _ in PER_PULSE}
        assert sorted(calls) == [
            "adversary.intercept", "protocol.transmit", "quantum.measure",
        ]
        assert all(count >= 1 for count in calls.values()), (kind, calls)
        monkeypatch.undo()


def test_sift_counter_reads_its_arguments(monkeypatch, tmp_path):
    # ``layers._count_sift`` counts the pulses of its first argument and
    # the sifted key of its result: a yield of efficiency / 2
    tracer = trace(monkeypatch, SIFT)
    assert cli.main([
        "run", "--eve", "none", "--efficiency", "0.8", "--pulses", "2000",
        "--sessions", "5", "--out", str(tmp_path / "report.json"),
    ]) == 0
    stats = tracer.stats["protocol.sift"]
    assert "count_failed" not in stats
    assert stats["calls"] >= 1
    pulses, sifted = stats["pulses"], stats["sifted"]
    assert pulses == 2000 * 5
    sigma = math.sqrt(pulses * 0.4 * 0.6)
    assert abs(sifted - 0.4 * pulses) <= 6 * sigma
