"""Experiment runner: many independent sessions, aggregated statistics,
deterministic seeding, and machine-readable reports.

Random-stream contract ``bb84sim-2`` (``RNG_CONTRACT``): session i of an
experiment draws everything from one ``random.Random`` (Mersenne Twister)
seeded with ``derive_seed(master_seed, i)``, a SplitMix64 mix of the
master seed and the session index.  Bits come from one ``getrandbits(k)``
call per batch, item j being bit j of the word.  Keys carry 53 bits each:
key k stands for the uniform u = k * 2**-53, and successive keys are the
values of successive ``random()`` calls (see ``stream``).  Each decision
that a uniform would make as u >= p is a 53-bit key against
ceil(p * 2**53), which decides it exactly.  A session of n pulses draws,
in this order:

1. n bits, the sender's bits;
2. n bits, the sender's bases;
3. n bits, the receiver's bases;
4. n keys for the adversary's channel table, whatever the strategy;
5. n keys for detector loss, only when the efficiency is below 1;
6. n keys for the receiver's measurements, lost pulses included;
7. per parity round, one bit per live sifted position, all drawn again
   while none of them is 1;
8. with privacy amplification on an undetected session, the n + r - 1
   bits of the Toeplitz seed.

``detection_rate_curve`` runs steps 1-6, then, with ``force_differ``, one
key whose uniform u flips receiver bit floor(u * L) of the L-bit sifted
key, then step 7.  Draw counts depend only on the configuration and on the
sizes of the live sets, never on drawn values, except for the redraw of an
empty parity subset.  Identical configurations therefore produce
byte-identical reports.  Every report names its contract, and
``ExperimentReport.from_json`` refuses a report written under another.

Sessions run in batches of consecutive indices, about ``stream.BLOCK``
pulses at a time, and a batch reads this order unchanged.  The batches
reseed one pool of generators rather than build new ones; a reseeded
generator is in the state a new one with the same seed starts in.  Every
draw consumes whole 32-bit outputs of its session's generator: a k-bit
draw takes ceil(k / 32) of them, the high k mod 32 bits of the last when
k is not a multiple of 32, and a key takes two.  So each session's
outputs are a plain sequence that can be drawn in pieces of any size.  A
batch draws the outputs of steps 1-6 (and the forced-difference key) with
one ``getrandbits`` call per session, and those of all parity rounds with
one more once the sifted lengths are known, then decodes every stage for
the whole batch with numpy.  A session whose parity subset comes up empty
draws that round's outputs again, after the ones already drawn, and its
later rounds move along its sequence.  Step 8 draws from each session's
generator as before, which stands where a lone session would leave it.
A long session is a batch of one; when its outputs for steps 1-6 exceed
``stream.Words``'s budget, each stage draws its own as it needs them, and
no ``getrandbits`` call returns more than ``2 * stream.BLOCK`` outputs.

The batches of one command, all k-values of a curve together, may run in
forked worker processes, one per CPU the process may use and at most one
per batch.  A sweep stays in one process without ``os.fork``, while a
second thread runs, or when it is small.  A batch's result depends only on
its sessions' seeds, and the results are joined in batch order, so report
bytes depend on neither the CPU count nor the thread state.
"""

import json
import os
import pickle
import random
import threading
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import NoReturn, Sequence

import numpy as np

from .adversary import ChannelTable, channel_table, check_strategy
from .amplification import PrivacyParams, hashed_guess_advantage, sample_hash
from .errors import InvalidConfigError, KeyTooShortError, SessionError
from .protocol import SessionBatch, SessionConfig, run_batch
from .quantum import DEFAULT_ANCILLA_ANGLE
from .stream import BLOCK

RNG_CONTRACT = "bb84sim-2"
OUTPUT_FORMATS = ("json", "csv")

_MASK64 = (1 << 64) - 1
_CI_Z = 1.96  # normal-approximation z for a 95% binomial interval
# A sweep of fewer pulses runs in one process.  On a 2-vCPU VM a fork and
# the join of its results took about 3 ms, and a sweep of this size about
# 17 ms in one process, so a smaller sweep gains little or loses.
_FORK_MIN_PULSES = 8 * BLOCK
_SIGKILL = 9  # POSIX's number; the signal module is not loaded otherwise


def derive_seed(master_seed: int, index: int) -> int:
    """SplitMix64 mix of (master_seed, index); distinct per index."""
    x = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True, slots=True, kw_only=True)
class ExperimentConfig(SessionConfig):
    """Everything needed to reproduce an experiment: the knobs of each
    session, from ``SessionConfig``, and those of the experiment."""

    n_sessions: int
    eve_kind: str = "none"
    ancilla_angle: float = DEFAULT_ANCILLA_ANGLE
    resend_rule: str = "max-posterior"
    attack_fraction: float = 1.0
    pa_leak_bits: int | None = None  # assumed adversary bits t; None skips PA
    pa_margin_bits: int | None = None  # security margin s
    master_seed: int = 1
    output_format: str = "json"

    def __post_init__(self):
        # Zero-argument super() fails in a slotted dataclass.
        SessionConfig.__post_init__(self)
        if self.n_sessions < 1:
            raise InvalidConfigError("n_sessions must be >= 1")
        check_strategy(
            self.eve_kind, self.ancilla_angle, self.resend_rule,
            self.attack_fraction,
        )
        if (self.pa_leak_bits is None) != (self.pa_margin_bits is None):
            raise InvalidConfigError(
                "pa_leak_bits and pa_margin_bits must be given together"
            )
        if self.pa_leak_bits is not None:
            if self.pa_leak_bits < 0:
                raise InvalidConfigError("pa_leak_bits must be >= 0")
            if self.pa_margin_bits < 1:
                raise InvalidConfigError("pa_margin_bits must be >= 1")
        if not 0 <= self.master_seed <= _MASK64:
            raise InvalidConfigError("master_seed must fit in 64 bits")
        if self.output_format not in OUTPUT_FORMATS:
            raise InvalidConfigError(
                f"output_format must be one of {OUTPUT_FORMATS}"
            )

    @property
    def privacy_enabled(self) -> bool:
        return self.pa_leak_bits is not None


def build_strategy(config: ExperimentConfig) -> ChannelTable:
    """The channel table of the adversary the config describes."""
    return channel_table(
        config.eve_kind, config.ancilla_angle, config.resend_rule,
        config.attack_fraction,
    )


@dataclass(frozen=True, slots=True)
class SessionRow:
    """Per-session statistics kept in the report."""

    index: int
    qber: float
    sifted_length: int
    detected: bool
    final_key_length: int
    eve_accuracy: float | None
    eve_advantage: float | None


@dataclass(frozen=True, slots=True)
class AggregateStats:
    """Summary statistics; always recomputable from the rows."""

    mean_qber: float
    qber_ci_low: float
    qber_ci_high: float
    detection_rate: float
    mean_sifted_fraction: float
    mean_eve_accuracy: float | None


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    sessions: list[SessionRow]
    aggregates: AggregateStats

    def to_json(self) -> str:
        payload = {
            "rng_contract": RNG_CONTRACT,
            "config": asdict(self.config),
            "sessions": [asdict(row) for row in self.sessions],
            "aggregates": asdict(self.aggregates),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        columns = (
            "index",
            "qber",
            "sifted_length",
            "detected",
            "final_key_length",
            "eve_accuracy",
            "eve_advantage",
        )
        lines = [",".join(columns)]
        for row in self.sessions:
            values = asdict(row)
            lines.append(",".join(_csv_cell(values[c]) for c in columns))
        for name, value in asdict(self.aggregates).items():
            lines.append(f"# {name}={_csv_cell(value)}")
        lines.append(f"# rng_contract={RNG_CONTRACT}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        """Parse a report and verify its contract, and its aggregates
        against its rows."""
        payload = json.loads(text)
        contract = payload.get("rng_contract")
        if contract != RNG_CONTRACT:
            raise ValueError(
                f"report has random-stream contract {contract!r}, "
                f"expected {RNG_CONTRACT!r}"
            )
        config = ExperimentConfig(**payload["config"])
        rows = [SessionRow(**row) for row in payload["sessions"]]
        aggregates = AggregateStats(**payload["aggregates"])
        recomputed = compute_aggregates(rows, config)
        for name, stored in asdict(aggregates).items():
            fresh = getattr(recomputed, name)
            if stored is None or fresh is None:
                if stored is not fresh:
                    raise ValueError(f"aggregate {name} inconsistent with rows")
            elif abs(stored - fresh) > 1e-12:
                raise ValueError(f"aggregate {name} inconsistent with rows")
        return cls(config=config, sessions=rows, aggregates=aggregates)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def compute_aggregates(
    rows: Sequence[SessionRow], config: ExperimentConfig
) -> AggregateStats:
    n = len(rows)
    mean_qber = sum(row.qber for row in rows) / n
    total_bits = sum(row.sifted_length for row in rows)
    if total_bits > 0:
        half_width = _CI_Z * (
            max(mean_qber * (1.0 - mean_qber), 0.0) / total_bits
        ) ** 0.5
    else:
        half_width = 0.0
    accuracies = [r.eve_accuracy for r in rows if r.eve_accuracy is not None]
    return AggregateStats(
        mean_qber=mean_qber,
        qber_ci_low=max(0.0, mean_qber - half_width),
        qber_ci_high=min(1.0, mean_qber + half_width),
        detection_rate=sum(row.detected for row in rows) / n,
        mean_sifted_fraction=(
            sum(row.sifted_length for row in rows) / (n * config.n_pulses)
        ),
        mean_eve_accuracy=(
            sum(accuracies) / len(accuracies) if accuracies else None
        ),
    )


def _batches(config: ExperimentConfig, first: int, count: int) -> list[range]:
    """Sessions ``first`` to ``first + count - 1`` in batches of consecutive
    indices, about ``stream.BLOCK`` pulses each."""
    size = max(1, BLOCK // config.n_pulses)
    stop = first + count
    return [
        range(start, min(start + size, stop))
        for start in range(first, stop, size)
    ]


def _workers(pulses: int, batches: int) -> int:
    """How many processes run a sweep of ``batches`` batches holding
    ``pulses`` pulses: one per CPU this process may use, at most one per
    batch.  One alone without ``os.fork``, while a second thread runs (a
    forked child would inherit the locks it holds), or below
    ``_FORK_MIN_PULSES``."""
    if (
        not hasattr(os, "fork")
        or threading.active_count() != 1
        or pulses < _FORK_MIN_PULSES
    ):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask, as on macOS
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, batches))


def _share(config: ExperimentConfig, pool: list[random.Random], jobs: list,
           worker: int, workers: int):
    """Run jobs ``worker``, ``worker + workers``, ... in order, each from
    the pool's generators reseeded for its sessions.  Returns the results
    and, if a job raised, its position and exception; the jobs after it do
    not run."""
    results = []
    for position in range(worker, len(jobs), workers):
        indices, work = jobs[position]
        rngs = pool[: len(indices)]
        for rng, index in zip(rngs, indices):
            rng.seed(derive_seed(config.master_seed, index))
        try:
            results.append(work(indices, rngs))
        except Exception as exc:
            return results, (position, exc)
    return results, None


def _child(config: ExperimentConfig, pool: list[random.Random], jobs: list,
           worker: int, workers: int, pipe: int) -> NoReturn:
    """A forked worker: run its share and send the results, with the
    position of a failing job but not its exception, down ``pipe``.  It
    leaves through ``os._exit`` whatever happens, so none of the parent's
    clean-up runs twice."""
    status = 1
    try:
        results, failure = _share(config, pool, jobs, worker, workers)
        position = None if failure is None else failure[0]
        with os.fdopen(pipe, "wb") as out:
            pickle.dump((results, position), out, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _receive(pid: int, status: int, data: bytes):
    """A child's share as ``_share`` returns it, with no exception beside a
    failing job's position.  A child exits 0 only once it has written all
    of its results."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(
            f"worker process {pid} exited with status {code} without "
            "sending its results"
        )
    results, position = pickle.loads(data)
    return results, None if position is None else (position, None)


def _replay(config: ExperimentConfig, job) -> None:
    """Run a failed batch's sessions one at a time, from new generators;
    the first that fails raises a ``SessionError`` naming it."""
    indices, work = job
    for index in indices:
        seed = derive_seed(config.master_seed, index)
        try:
            work(range(index, index + 1), [random.Random(seed)])
        except Exception as exc:
            raise SessionError(index, seed, str(exc)) from exc


def _sweep(config: ExperimentConfig, jobs: list) -> list:
    """Run every job ``(indices, work)`` as ``work(indices, rngs)`` and
    return the results in job order.  ``rngs[j]`` is the generator of
    session ``indices[j]``, in the state ``random.Random(derive_seed(
    master_seed, indices[j]))`` starts in: the jobs reseed one pool of
    generators, which is cheaper than building new ones.

    The jobs are dealt round-robin to ``_workers`` processes, this one and
    children forked from it, which take the pool as it stands; each child
    pickles its results back through a pipe.  Each job's result depends
    only on its sessions, so the results are those of one process.  Each
    process stops at its first failing job.  The lowest failing job of all
    runs again here one session at a time, so the ``SessionError`` names
    the index a sweep of single sessions would have stopped at.  A child
    that dies without sending its results raises ``RuntimeError``.  On any
    exception, ``KeyboardInterrupt`` included, every child is killed and
    reaped."""
    workers = _workers(
        config.n_pulses * sum(len(indices) for indices, _ in jobs), len(jobs)
    )
    pool = [
        random.Random(0)
        for _ in range(max((len(indices) for indices, _ in jobs), default=0))
    ]
    children = []  # (pid, read end of its pipe) of each child not reaped
    try:
        for worker in range(1, workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(config, pool, jobs, worker, workers, write)
            children.append((pid, read))
            os.close(write)
        shares = [_share(config, pool, jobs, 0, workers)]
        while children:
            pid, read = children[0]
            with open(read, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            os.close(read)
            shares.append(_receive(pid, status, data))
    finally:
        for pid, read in children:
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        position, exc = min(failures, key=lambda failure: failure[0])
        _replay(config, jobs[position])
        indices = jobs[position][0]
        raise exc or RuntimeError(
            f"sessions {indices[0]} to {indices[-1]} failed in a worker "
            "process but not when run again one at a time"
        )
    results = [None] * len(jobs)
    for worker, (share, _) in enumerate(shares):
        results[worker::workers] = share
    return results


def _shares(batch: SessionBatch, hits: np.ndarray) -> list[float]:
    """Per session, the share of its sifted entries at which ``hits``
    holds, as Python floats; 0.0 for a session without sifted entries."""
    sifted = batch.lengths > 0
    counts = np.zeros(len(batch), dtype=np.int64)
    if sifted.any():
        # Sessions own consecutive entries, so those of the sessions with
        # entries run from one's start to the next one's.
        counts[sifted] = np.add.reduceat(
            hits.view(np.uint8), batch.starts[sifted], dtype=np.int64
        )
    shares = np.zeros(len(batch))
    np.divide(counts, batch.lengths, out=shares, where=sifted)
    return shares.tolist()


def _experiment_rows(
    config: ExperimentConfig, strategy: ChannelTable, indices: range,
    rngs: list[random.Random],
) -> list[SessionRow]:
    batch = run_batch(config, strategy, rngs)
    lengths = batch.lengths
    qbers = _shares(batch, batch.sifted_alice != batch.sifted_bob)
    accuracies = [None] * len(batch)
    guesses = batch.pulses.eve_guesses
    if guesses is not None:
        shares = _shares(
            batch, np.take(guesses, batch.sifted) == batch.sifted_alice
        )
        accuracies = [
            share if length else None
            for share, length in zip(shares, lengths.tolist())
        ]
    rows = []
    for s, index in enumerate(indices):
        final_length = 0
        advantage = None
        if not batch.detected[s]:
            final_length = int(lengths[s]) - config.parity_rounds
            if config.privacy_enabled:
                params = PrivacyParams(
                    input_bits=final_length,
                    leak_bits=config.pa_leak_bits,
                    margin_bits=config.pa_margin_bits,
                )
                descriptor = sample_hash(params, rngs[s])
                final_length = descriptor.output_bits
                key, guess = batch.reconciled(s)
                if guess is not None:
                    advantage = hashed_guess_advantage(key, guess, descriptor)
        rows.append(SessionRow(
            index=index,
            qber=qbers[s],
            sifted_length=int(lengths[s]),
            detected=bool(batch.detected[s]),
            final_key_length=final_length,
            eve_accuracy=accuracies[s],
            eve_advantage=advantage,
        ))
    return rows


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run ``n_sessions`` independent sessions and aggregate them."""
    work = partial(_experiment_rows, config, build_strategy(config))
    batches = _sweep(config, [
        (indices, work) for indices in _batches(config, 0, config.n_sessions)
    ])
    rows = [row for batch in batches for row in batch]
    return ExperimentReport(
        config=config,
        sessions=rows,
        aggregates=compute_aggregates(rows, config),
    )


def detection_rate_curve(
    config: ExperimentConfig,
    k_values: Sequence[int],
    force_differ: bool = False,
) -> list[tuple[int, float]]:
    """Detection rate of the parity stage as a function of its round count.

    For each k, ``config.n_sessions`` sessions run with parity
    verification of k rounds in place of ``config.parity_rounds``; even
    k = 0 needs a nonempty sifted key.  With ``force_differ`` one
    uniformly random sifted bit of the receiver is flipped first,
    isolating the parity math from attack stochasticity.  Session j of the
    sweep (k-major) uses the generator of session index j.  Every k is
    checked before any session runs.
    """
    if any(k < 0 for k in k_values):
        raise InvalidConfigError("parity round counts must be >= 0")
    strategy = build_strategy(config)

    def detections(
        k: int, indices: range, rngs: list[random.Random]
    ) -> int:
        batch = run_batch(
            replace(config, parity_rounds=k), strategy, rngs,
            flip=force_differ,
        )
        if k == 0 and not batch.lengths.all():
            raise KeyTooShortError(
                "no sifted bits: a curve session needs a nonempty sifted key"
            )
        return int(np.count_nonzero(batch.detected))

    # One sweep for all k, so that it forks once.
    n = config.n_sessions
    counts = _sweep(config, [
        (indices, partial(detections, k))
        for sweep, k in enumerate(k_values)
        for indices in _batches(config, sweep * n, n)
    ])
    per_k = len(_batches(config, 0, n))
    return [
        (k, sum(counts[sweep * per_k:(sweep + 1) * per_k]) / n)
        for sweep, k in enumerate(k_values)
    ]


def curve_to_json(
    config: ExperimentConfig, curve: Sequence[tuple[int, float]]
) -> str:
    payload = {
        "rng_contract": RNG_CONTRACT,
        "config": asdict(config),
        "curve": [
            {"parity_rounds": k, "detection_rate": rate} for k, rate in curve
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def curve_to_csv(curve: Sequence[tuple[int, float]]) -> str:
    lines = ["parity_rounds,detection_rate"]
    for k, rate in curve:
        lines.append(f"{k},{_csv_cell(float(rate))}")
    lines.append(f"# rng_contract={RNG_CONTRACT}")
    return "\n".join(lines) + "\n"
