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
outputs are a plain sequence that can be drawn in pieces of any size.
Each stage draws its outputs when it runs, with one ``getrandbits`` call
per session, and decodes them for the whole batch with numpy; the
per-pulse stages (steps 4-6) draw ``stream.BLOCK`` keys at a time, and
the adversary's keys are consumed undecoded when her table has a single
outcome per sent state (``none``, ``indirect-oracle``).  All parity
rounds are drawn in one call once the sifted lengths are known; a
session whose parity subset comes up empty draws that round's outputs
again, after the ones already drawn, and its later rounds move along its
sequence.  Step 8 draws from each session's generator as before, which
stands where a lone session would leave it.  A long session is a batch
of one: the parity rounds of a 100k-pulse session take about 50k outputs
in one call.

The batches of one command, all k-values of a curve together, may run in
forked worker processes, one per CPU the process may use and at most one
per batch.  A sweep stays in one process without ``os.fork``, while a
second thread runs, or when it is small.  A batch's result depends only on
its sessions' seeds, and the results are joined in batch order, so report
bytes depend on neither the CPU count nor the thread state.  One runner,
``_share``, runs every process's share and the replay of a failing batch;
a share stops at its first failing batch, which its length names, so a
failure reads the same at every worker count.
"""

import json
import os
import pickle
import random
import threading
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from typing import NoReturn, Sequence

import numpy as np

from .adversary import ChannelTable, channel_table, check_strategy
from .amplification import PrivacyParams, hashed_guess_advantage, sample_hash
from .errors import InvalidConfigError, KeyTooShortError, SessionError
from .protocol import SessionBatch, SessionConfig, check_types, run_batch
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
    """Summary statistics; always recomputable from the rows.

    ``mean_qber`` is the unweighted mean of the per-session QBERs, a
    session without sifted bits counting as 0.  Its 95% interval
    (``qber_ci_low``, ``qber_ci_high``) takes the binomial variance of
    that mean over all sifted bits pooled, so the two agree only when the
    sessions have similar sifted lengths; without sifted bits it is
    [mean, mean]."""

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
        columns = [field.name for field in fields(SessionRow)]
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
        """Parse a report, which may hold no NaN or infinity, and verify
        its contract, the fields and types of its config, rows and
        aggregates, that its rows are sessions 0 to n_sessions - 1 in
        order, the range of each row's values, and its aggregates against
        its rows.  A report that fails any check raises ``ValueError``."""
        payload = json.loads(text, parse_constant=_non_finite)
        if not isinstance(payload, dict):
            raise ValueError("report must be a JSON object")
        contract = payload.get("rng_contract")
        if contract != RNG_CONTRACT:
            raise ValueError(
                f"report has random-stream contract {contract!r}, "
                f"expected {RNG_CONTRACT!r}"
            )
        if not isinstance(payload.get("sessions"), list):
            raise ValueError("report sessions must be a JSON list")
        config = _load(ExperimentConfig, payload.get("config"), "config")
        rows = [
            _load(SessionRow, row, f"session row {position}")
            for position, row in enumerate(payload["sessions"])
        ]
        for position, row in enumerate(rows):
            _check_range(row, config.n_pulses, f"session row {position}")
        if [row.index for row in rows] != list(range(config.n_sessions)):
            raise ValueError(
                f"report rows must be sessions 0 to {config.n_sessions - 1} "
                f"in order"
            )
        aggregates = _load(
            AggregateStats, payload.get("aggregates"), "aggregates"
        )
        recomputed = compute_aggregates(rows, config)
        for name, stored in asdict(aggregates).items():
            fresh = getattr(recomputed, name)
            if stored is None or fresh is None:
                if stored is not fresh:
                    raise ValueError(f"aggregate {name} inconsistent with rows")
            elif abs(stored - fresh) > 1e-12:
                raise ValueError(f"aggregate {name} inconsistent with rows")
        return cls(config=config, sessions=rows, aggregates=aggregates)


def _non_finite(name: str) -> NoReturn:
    raise ValueError(f"report holds the non-finite number {name}")


def _load(cls, values, what: str):
    """``cls(**values)`` for a JSON object of exactly the fields of the
    dataclass ``cls``, each of its annotated type (``check_types``);
    ``ValueError`` naming ``what`` otherwise."""
    try:
        record = cls(**values)  # TypeError: no mapping, or not its fields
        check_types(record)
    except (TypeError, InvalidConfigError) as exc:
        raise ValueError(f"{what}: {exc}") from None
    return record


def _check_range(row: SessionRow, n_pulses: int, what: str) -> None:
    """``ValueError`` naming ``what`` and the field when a value of ``row``
    lies outside what a session of ``n_pulses`` pulses can report."""
    bounds = {
        "qber": (0, 1),
        "sifted_length": (0, n_pulses),
        "final_key_length": (0, row.sifted_length),
        "eve_accuracy": (0, 1),
        "eve_advantage": (-0.5, 0.5),
    }
    for name, (low, high) in bounds.items():
        value = getattr(row, name)
        if value is not None and not low <= value <= high:
            raise ValueError(
                f"{what}: {name} must be in [{low}, {high}], got {value!r}"
            )


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


def _share(config: ExperimentConfig, pool: list[random.Random], jobs: list):
    """Run ``jobs`` in order, each from the pool's generators reseeded for
    its sessions.  Returns the results and the exception of the first job
    that raised, or ``None``; the jobs after it do not run, so that job is
    ``jobs[len(results)]``."""
    results = []
    for indices, work in jobs:
        rngs = pool[: len(indices)]
        for rng, index in zip(rngs, indices):
            rng.seed(derive_seed(config.master_seed, index))
        try:
            results.append(work(indices, rngs))
        except Exception as exc:
            return results, exc
    return results, None


def _child(config: ExperimentConfig, pool: list[random.Random], jobs: list,
           pipe: int) -> NoReturn:
    """A forked worker: run its share of the jobs and send the results,
    which end at a failing job, down ``pipe``.  It leaves through
    ``os._exit`` whatever happens, so none of the parent's clean-up runs
    twice."""
    status = 1
    try:
        results, _ = _share(config, pool, jobs)
        with os.fdopen(pipe, "wb") as out:
            pickle.dump(results, out, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _sweep(config: ExperimentConfig, jobs: list) -> list:
    """Run every job ``(indices, work)`` as ``work(indices, rngs)`` and
    return the results in job order.  ``rngs[j]`` is the generator of
    session ``indices[j]``, in the state ``random.Random(derive_seed(
    master_seed, indices[j]))`` starts in: the jobs reseed one pool of
    generators, which is cheaper than building new ones.

    Worker w of ``_workers`` processes, this one (w = 0) and children
    forked from it, runs ``jobs[w::workers]`` through ``_share``; a child
    pickles its results back through a pipe.  A job's result depends only
    on its sessions, so the results are those of one process.  A share
    stops at its first failing job, job ``w + len(results) * workers``.
    The lowest of these runs again here through ``_share``, one session
    per job, so the ``SessionError`` names the session a sweep of single
    sessions would have stopped at.  A batch whose sessions all pass alone
    raises ``RuntimeError``, as does a child that dies without sending its
    results.  On any exception, ``KeyboardInterrupt`` included, every
    child is killed and reaped."""
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
            try:
                pid = os.fork()
            except OSError:  # as EAGAIN at a process limit
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(config, pool, jobs[worker::workers], write)
            children.append((pid, read))
            os.close(write)
        shares = [_share(config, pool, jobs[::workers])[0]]
        while children:
            pid, read = children[0]
            with open(read, "rb", closefd=False) as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            os.close(read)
            if code != 0:  # a child exits 0 once it has sent all its results
                raise RuntimeError(
                    f"worker process {pid} exited with status {code} "
                    "without sending its results"
                )
            shares.append(pickle.loads(data))
    finally:
        for pid, read in children:
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)
    failed = min(w + len(share) * workers for w, share in enumerate(shares))
    if failed < len(jobs):
        indices, work = jobs[failed]
        passed, exc = _share(
            config, pool, [(range(i, i + 1), work) for i in indices]
        )
        if exc is None:
            raise RuntimeError(
                f"sessions {indices[0]} to {indices[-1]} failed as one "
                "batch but not when run again one at a time"
            )
        index = indices[len(passed)]
        seed = derive_seed(config.master_seed, index)
        raise SessionError(index, seed, str(exc)) from exc
    results = [None] * len(jobs)
    for worker, share in enumerate(shares):
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
    guesses = batch.guesses(batch.sifted)
    if guesses is not None:
        shares = _shares(batch, guesses == batch.sifted_alice)
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
    configs = [replace(config, parity_rounds=k) for k in k_values]
    strategy = build_strategy(config)

    def detections(
        curve: ExperimentConfig, indices: range, rngs: list[random.Random]
    ) -> int:
        batch = run_batch(curve, strategy, rngs, flip=force_differ)
        if curve.parity_rounds == 0 and not batch.lengths.all():
            raise KeyTooShortError(
                "no sifted bits: a curve session needs a nonempty sifted key"
            )
        return int(np.count_nonzero(batch.detected))

    # One sweep for all k, so that it forks once.
    n = config.n_sessions
    counts = _sweep(config, [
        (indices, partial(detections, curve))
        for sweep, curve in enumerate(configs)
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
