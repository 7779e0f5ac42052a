"""The benchmark's workloads and the exact expectations their reports are
checked against.

Every expectation is derived here from the BB84 protocol itself, never read
from the package under test, so a defect in the package cannot vouch for
its own output.
"""

import json
import math
from dataclasses import asdict, dataclass

# Width of every binomial bound, in standard deviations.  A correct program
# misses one check with probability ~2e-9, so the many checks of a full
# benchmark campaign stay clear of false alarms.
Z = 6.0


@dataclass(frozen=True)
class Workload:
    """One bb84sim command line, run once per benchmark sample."""

    name: str
    why: str
    command: str  # "run" or "detect-curve"
    eve: str
    pulses: int
    sessions: int
    efficiency: float = 1.0
    parity_rounds: int = 0
    pa_t: int | None = None
    pa_s: int | None = None
    k_values: tuple[int, ...] = ()
    force_differ: bool = False

    def argv(self, seed: int, out: str) -> list[str]:
        argv = [
            self.command,
            "--eve", self.eve,
            "--pulses", str(self.pulses),
            "--sessions", str(self.sessions),
            "--efficiency", repr(self.efficiency),
            "--seed", str(seed),
            "--out", out,
        ]
        if self.command == "run":
            argv += ["--parity-rounds", str(self.parity_rounds)]
            if self.pa_t is not None:
                argv += ["--pa-t", str(self.pa_t), "--pa-s", str(self.pa_s)]
        else:
            argv += ["--k-values", ",".join(map(str, self.k_values))]
            if self.force_differ:
                argv.append("--force-differ")
        return argv

    @property
    def simulated_pulses(self) -> int:
        """Pulses one ``cli.main`` call simulates."""
        return self.pulses * self.sessions * max(1, len(self.k_values))

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "Workload":
        fields = json.loads(text)
        fields["k_values"] = tuple(fields["k_values"])
        return cls(**fields)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ir-long",
            why="long intercept/resend sessions: time goes to the per-pulse "
                "engine and to parity on ~50k-bit keys; every session is "
                "detected, so privacy amplification is bypassed",
            command="run", eve="intercept-resend",
            pulses=100_000, sessions=2, parity_rounds=32,
        ),
        Workload(
            name="oracle-pa",
            why="the oracle attack passes all 32 parity rounds, so each "
                "session hashes ~40k bits to ~20k twice; exercises loss, "
                "oracle lookup and privacy amplification",
            command="run", eve="indirect-oracle",
            pulses=100_000, sessions=1, efficiency=0.8, parity_rounds=32,
            pa_t=20_000, pa_s=16,
        ),
        Workload(
            name="detect-short",
            why="thousands of 96-pulse sessions: fixed per-session costs "
                "dominate, where a vectorised engine pays numpy call "
                "overhead; amplification is bypassed",
            command="detect-curve", eve="none",
            pulses=96, sessions=1_000, k_values=(1, 2, 3, 4, 5, 6, 7, 8),
            force_differ=True,
        ),
    )
}

# Sifted-bit QBER a strategy induces.  Intercept/resend picks the wrong
# basis half the time, and the receiver's result is then a fair coin.
_QBER = {"none": 0.0, "intercept-resend": 0.25, "indirect-oracle": 0.0}
# Share of sifted bits the adversary guesses right: intercept/resend is
# right in the matching basis and right by chance half the time otherwise;
# the oracle identifies every state exactly.
_ACCURACY = {"none": None, "intercept-resend": 0.75, "indirect-oracle": 1.0}


def _within(count: int, n: int, p: float) -> bool:
    """``count`` successes in ``n`` trials agree with probability ``p``."""
    return abs(count - n * p) <= Z * math.sqrt(n * p * (1.0 - p))


def check_report(workload: Workload, text: str) -> list[str]:
    """Every way ``text`` misses the workload's exact expectations."""
    try:
        payload = json.loads(text)
        if workload.command == "run":
            return _check_run(workload, text, payload)
        return _check_curve(workload, payload)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed report: {exc!r}"]


def _check_run(w: Workload, text: str, payload: dict) -> list[str]:
    from bb84sim.harness import ExperimentReport

    errors = []
    try:
        ExperimentReport.from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        errors.append(f"re-verification failed: {exc}")
    rows = payload["sessions"]
    if len(rows) != w.sessions:
        errors.append(f"{len(rows)} sessions, expected {w.sessions}")
    qber, accuracy = _QBER[w.eve], _ACCURACY[w.eve]
    # A parity round trips on a differing key with probability 1/2, and a
    # session with errors has thousands of them, so a miss is ~2**-rounds.
    detected = qber > 0 and w.parity_rounds > 0
    for row in rows:
        i, n = row["index"], row["sifted_length"]
        bad = errors.append
        # A pulse is sifted when it survives loss and the bases match.
        if not _within(n, w.pulses, w.efficiency / 2):
            bad(f"session {i}: sifted length {n} of {w.pulses}")
        if qber == 0.0:
            if row["qber"] != 0.0:
                bad(f"session {i}: qber {row['qber']}, expected 0")
        elif not _within(round(row["qber"] * n), n, qber):
            bad(f"session {i}: qber {row['qber']}, expected {qber}")
        got = row["eve_accuracy"]
        if accuracy is None or accuracy == 1.0:
            if got != accuracy:
                bad(f"session {i}: eve accuracy {got}, expected {accuracy}")
        elif got is None or not _within(round(got * n), n, accuracy):
            bad(f"session {i}: eve accuracy {got}, expected {accuracy}")
        if row["detected"] != detected:
            bad(f"session {i}: detected {row['detected']}")
        if row["detected"]:
            final, advantage = 0, None
        elif w.pa_t is None:
            final, advantage = n - w.parity_rounds, None
        else:
            final = n - w.parity_rounds - w.pa_t - w.pa_s
            # An exact guess hashes to the exact final key: agreement 1.
            advantage = 0.5 if accuracy == 1.0 else row["eve_advantage"]
        if row["final_key_length"] != final:
            bad(f"session {i}: final key {row['final_key_length']}, "
                f"expected {final}")
        if row["eve_advantage"] != advantage:
            bad(f"session {i}: eve advantage {row['eve_advantage']}, "
                f"expected {advantage}")
    return errors


def _check_curve(w: Workload, payload: dict) -> list[str]:
    errors = []
    ks = [point["parity_rounds"] for point in payload["curve"]]
    if ks != list(w.k_values):
        errors.append(f"curve over k={ks}, expected {list(w.k_values)}")
    for point in payload["curve"]:
        k, rate = point["parity_rounds"], point["detection_rate"]
        # One flipped bit trips each round with probability 1/2; equal
        # keys never trip.
        p = 1.0 - 2.0**-k if w.force_differ else 0.0
        if not _within(round(rate * w.sessions), w.sessions, p):
            errors.append(f"k={k}: detection rate {rate}, expected {p}")
    return errors
