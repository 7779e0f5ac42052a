"""Outside-in tracing of bb84sim's layers.

The package's functions are wrapped where its modules look them up, so no
file of the package changes.  Three passes, each in its own interpreter:

* ``coarse`` times the session and stage calls: one timed span per call,
  folded into per-name totals and self time as it closes;
* ``fine`` adds the per-pulse calls ``transmit``, ``intercept`` and
  ``measure``, kept as aggregates only;
* ``memory`` records the ``tracemalloc`` peak of calls that do not nest.

A name the package no longer has is listed in ``Tracer.absent`` and is
otherwise skipped.
"""

import importlib
import sys
import time
import tracemalloc

# (layer metric prefix, module under bb84sim, attribute).  "*.name" is the
# method ``name`` of every class in the module that defines it.
COARSE = (
    ("cli.main", "cli", "main"),
    ("harness.run_experiment", "harness", "run_experiment"),
    ("harness.detection_rate_curve", "harness", "detection_rate_curve"),
    ("harness.report", "harness", "ExperimentReport.to_json"),
    ("harness.report", "harness", "ExperimentReport.to_csv"),
    ("harness.report", "harness", "curve_to_json"),
    ("harness.report", "harness", "curve_to_csv"),
    ("quantum.build_reference_list", "quantum", "build_reference_list"),
    ("protocol.run_session", "protocol", "run_session"),
    ("protocol.prepare_pulses", "protocol", "prepare_pulses"),
    ("protocol.sift", "protocol", "sift"),
    ("protocol.parity_verify", "protocol", "parity_verify"),
    ("amplification.sample_hash", "amplification", "sample_hash"),
    ("amplification.compress", "amplification", "compress"),
)
FINE = COARSE + (
    ("protocol.transmit", "protocol", "transmit"),
    ("adversary.intercept", "adversary", "*.intercept"),
    ("quantum.measure", "quantum", "measure"),
)
MEMORY = (
    ("protocol.run_session", "protocol", "run_session"),
    ("amplification.compress", "amplification", "compress"),
)
PASSES = {"coarse": COARSE, "fine": FINE, "memory": MEMORY}


# Work counts computed from each call's arguments and result, not measured.
def _count_sift(stats, args, result):
    stats["pulses"] = stats.get("pulses", 0) + len(args[0])
    stats["sifted"] = stats.get("sifted", 0) + len(result[0])


def _count_parity(stats, args, result):
    # Round j scans the live positions, of which j were already discarded.
    length, rounds = len(args[0]), args[2]
    scanned = rounds * length - rounds * (rounds - 1) // 2
    stats["bits_scanned"] = stats.get("bits_scanned", 0) + scanned


def _count_sample_hash(stats, args, result):
    params = args[0]
    seed_bits = params.input_bits + params.output_bits - 1
    stats["seed_bits"] = stats.get("seed_bits", 0) + seed_bits


def _count_compress(stats, args, result):
    n, r = args[1].input_bits, args[1].output_bits
    stats["macs"] = stats.get("macs", 0) + n * r
    # int64 seed (n+r-1) and key (n) in, full convolution (2n+r-2) out.
    moved = 8 * ((n + r - 1) + n + (2 * n + r - 2))
    stats["bytes_computed"] = stats.get("bytes_computed", 0) + moved


def _count_report(stats, args, result):
    stats["bytes"] = stats.get("bytes", 0) + len(result.encode())


COUNTERS = {
    "protocol.sift": _count_sift,
    "protocol.parity_verify": _count_parity,
    "amplification.sample_hash": _count_sample_hash,
    "amplification.compress": _count_compress,
    "harness.report": _count_report,
}


class Tracer:
    """Per-name call statistics of one pass."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.absent: list[str] = []
        self._open: list[float] = []  # child seconds of each open call

    def timed(self, name, fn):
        stats = self.stats.setdefault(
            name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        count = COUNTERS.get(name)
        open_calls = self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            open_calls.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_calls.pop()
                if open_calls:
                    open_calls[-1] += elapsed
                stats["calls"] += 1
                stats["s"] += elapsed
                stats["self_s"] += elapsed - children
            if count is not None:
                try:
                    count(stats, args, result)
                except Exception:  # a counter must never fail the program
                    stats["count_failed"] = True
            return result

        return wrapper

    def peak(self, name, fn):
        stats = self.stats.setdefault(name, {"peak_mb": 0.0})

        def wrapper(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                mb = (peak - base) / 2**20
                stats["peak_mb"] = max(stats["peak_mb"], mb)

        return wrapper


def _originals(module: str, attr: str) -> list:
    try:
        mod = importlib.import_module(f"bb84sim.{module}")
    except ImportError:
        return []
    owner, _, name = attr.rpartition(".")
    if owner == "*":
        owners = [v for v in vars(mod).values() if isinstance(v, type)]
    elif owner:
        owners = [getattr(mod, owner, None)]
    else:
        return [vars(mod)[name]] if name in vars(mod) else []
    return [vars(o)[name] for o in owners if o is not None and name in vars(o)]


def _replace(original, wrapper) -> None:
    """Point every reference the package holds to ``original`` at
    ``wrapper``."""
    for modname, mod in list(sys.modules.items()):
        if modname != "bb84sim" and not modname.startswith("bb84sim."):
            continue
        classes = [v for v in vars(mod).values() if isinstance(v, type)]
        for holder in [mod, *classes]:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)


def install(pass_name: str) -> Tracer:
    """Wrap the names of ``pass_name``; the memory pass needs tracemalloc
    running around the calls it wraps."""
    tracer = Tracer()
    wrap = tracer.peak if pass_name == "memory" else tracer.timed
    for name, module, attr in PASSES[pass_name]:
        originals = _originals(module, attr)
        if not originals:
            tracer.absent.append(f"bb84sim.{module}.{attr}")
        for original in originals:
            _replace(original, wrap(name, original))
    return tracer
