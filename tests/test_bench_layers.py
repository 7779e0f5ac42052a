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
"""

import sys
from pathlib import Path

import pytest

from bb84sim import harness

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
