"""Experiment runner: many independent sessions, aggregated statistics,
deterministic seeding, and machine-readable reports.

Random-stream contract ``bb84sim-3`` (``RNG_CONTRACT``).  Every random
value is a pure function of three numbers, computed with the SplitMix64
finaliser (see ``stream``):

    mix(x) = x ^= x >> 30; x *= 0xBF58476D1CE4E5B9; x ^= x >> 27;
             x *= 0x94D049BB133111EB; x ^= x >> 31  (all mod 2**64)
    derive_seed(a, b) = mix(a + (b + 1) * 0x9E3779B97F4A7C15 mod 2**64)

Session i of an experiment has the seed σ = derive_seed(master_seed, i),
and value j of its stage g is derive_seed(σ, g * 2**40 + j), for
j < 2**40 and g < 2**24 (so parity_rounds stays below 2**24 - 2**16).  A
k-bit draw of a stage takes its values 0 to ceil(k / 64) - 1, bit i of
the draw being bit i mod 64 of value i // 64 (least significant first);
a key is a value's top 53 bits, value >> 11, and stands for the uniform
u = k * 2**-53.  Each decision that a uniform would make as u >= p is a
53-bit key against ceil(p * 2**53), which decides it exactly.  A
session of n pulses reads these stages:

0. n bits, the sender's bits;
1. n bits, the sender's bases;
2. n bits, the receiver's bases;
3. key i for the adversary's channel table at pulse i, only for a pulse
   that reaches the sifted key and whose sent state's row has more than
   one possible outcome (so never under ``none`` or ``indirect-oracle``);
4. key i for the loss of pulse i, only for a pulse whose two bases match,
   and only when the efficiency is below 1;
5. key i for the receiver's measurement of pulse i, only for a pulse that
   reaches the sifted key and whose receiver row is not settled, its
   forwarded state not being an eigenstate of its basis (so never under
   ``none`` or ``indirect-oracle``);
6. with ``force_differ``, in ``detection_rate_curve``, key 0, whose
   uniform u flips receiver bit floor(u * L) of the L-bit sifted key,
   once per session whatever the curve's k values;
7. with privacy amplification on an undetected session, the n + r - 1
   bits of the Toeplitz seed;

and 2**16 + r for parity round r (r = 0, 1, ...): the round's coins are
one bit per live sifted position, L - r of them, in W = ceil((L - r) / 64)
values, and attempt a at them reads the values a * W to a * W + W - 1.  An
attempt whose coins are all 0 is followed by the next.  The forced flip
comes before the parity rounds, which see the flipped key.  No round's
values depend on the round count, so the first k rounds of a session are
its k-round run: a curve runs sessions 0 to n - 1 once, at its largest k,
and reads every k off the round at which each session first tripped.

No stage reads another's values, so a stage nobody reads moves nothing,
and no draw depends on a drawn value except the redraw of an empty parity
subset, which reads only its own round's stage.  Identical configurations
therefore produce byte-identical reports.  Every report names its
contract, and ``ExperimentReport.from_json`` refuses a report written
under another.

Sessions run in batches of consecutive indices, of up to 2**16 pulses or
one longer session, the batches of a sweep differing in size by at most
one session.  A batch's seeds come from one ``derive_seed`` call over its
indices, and each stage computes its values for the whole batch at once
with numpy, the per-pulse stages (3-5) at the pulses they decide, at most
``stream.BLOCK`` keys at a time (``stream.key_blocks``); stages 3 and 5
choose from a table with ``stream.decide``.  A batch's
result depends only on its sessions' seeds, so the cut of a sweep into
batches moves no report byte.
"""

import json
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from typing import NoReturn, Sequence

import numpy as np

from .adversary import ChannelTable, channel_table, check_strategy
from .amplification import PrivacyParams, hashed_guess_advantage, sample_hash
from .errors import InvalidConfigError, KeyTooShortError, SessionError
from .protocol import SessionBatch, SessionConfig, check_types, run_batch
from .quantum import DEFAULT_ANCILLA_ANGLE
from .stream import BLOCK, derive_seed

RNG_CONTRACT = "bb84sim-3"
OUTPUT_FORMATS = ("json", "csv")

_MASK64 = (1 << 64) - 1
_CI_Z = 1.96  # normal-approximation z for a 95% binomial interval
# Pulses a batch holds at most, unless one session is longer.  A batch
# pays numpy's fixed cost per call once per stage, so short sessions gain
# from many to a batch.  A stage's keys stay within ``stream.BLOCK`` items
# whatever the batch size (``stream.key_blocks``), but a batch's columns,
# which set a sweep's peak memory, grow with it.
_BATCH_PULSES = 8 * BLOCK


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
        order, its aggregates against its rows, and each row against what a
        run of its config reports.  A report that fails any check raises
        ``ValueError``."""
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
        for position, row in enumerate(rows):
            _check_row(row, config, f"session row {position}")
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
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: {exc}") from None
    return record


def _check_row(row: SessionRow, config: ExperimentConfig, what: str) -> None:
    """``ValueError`` naming ``what`` and the field when ``row`` holds a
    value out of range, or one that no session of ``config`` with its
    sifted length and detection flag reports."""
    bounds = {
        "qber": (0, 1),
        "sifted_length": (0, config.n_pulses),
        "eve_accuracy": (0, 1),
        "eve_advantage": (-0.5, 0.5),
    }
    for name, (low, high) in bounds.items():
        value = getattr(row, name)
        if value is not None and not low <= value <= high:
            raise ValueError(
                f"{what}: {name} must be in [{low}, {high}], got {value!r}"
            )
    final = 0
    if not row.detected:
        final = row.sifted_length - config.parity_rounds
        if config.privacy_enabled:
            final -= config.pa_leak_bits + config.pa_margin_bits
    if row.final_key_length != final:
        raise ValueError(f"{what}: final_key_length must be {final}, got "
                         f"{row.final_key_length!r}")
    active = config.eve_kind != "none"
    for name, present in (
        ("eve_accuracy", active and row.sifted_length > 0),
        ("eve_advantage", active and config.privacy_enabled
         and not row.detected),
    ):
        value = getattr(row, name)
        if (value is not None) != present:
            raise ValueError(f"{what}: {name} must be "
                             f"{'a number' if present else 'null'}, got "
                             f"{value!r}")


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
    """Sessions ``first`` to ``first + count - 1`` in the ranges that
    ``_run`` takes in turn: as few as hold at most ``_BATCH_PULSES`` pulses
    each, or one session where a session is longer, with sizes that differ
    by at most one, so that the largest batch, whose columns set a sweep's
    peak memory, is as small as that many batches allow."""
    size = max(1, _BATCH_PULSES // config.n_pulses)
    parts = -(-count // size)
    return [
        range(first + count * part // parts,
              first + count * (part + 1) // parts)
        for part in range(parts)
    ]


def _run(config: ExperimentConfig, indices: range, work):
    """``work(indices, seeds)``, ``seeds[j]`` being the uint64 seed
    ``derive_seed(master_seed, indices[j])``.  If it raises, the lower half
    of ``indices`` runs again, then the upper, down to one session, which
    raises ``SessionError`` naming it and its seed: a batch's result
    depends only on its seeds, so that is the session a sweep of single
    sessions would stop at.  A range whose halves both pass raises
    ``RuntimeError`` from its own exception."""
    seeds = derive_seed(config.master_seed, np.arange(
        indices.start, indices.stop, indices.step, dtype=np.uint64))
    try:
        return work(indices, seeds)
    except Exception as exc:
        if len(indices) == 1:
            raise SessionError(indices[0], int(seeds[0]), str(exc)) from exc
        failure = exc
    middle = len(indices) // 2
    _run(config, indices[:middle], work)
    _run(config, indices[middle:], work)
    raise RuntimeError(
        f"sessions {indices[0]} to {indices[-1]} failed as one batch but "
        "not when its halves ran again"
    ) from failure


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
    seeds: np.ndarray,
) -> list[SessionRow]:
    batch = run_batch(config, strategy, seeds)
    lengths = batch.lengths
    qbers = _shares(batch, batch.sifted_alice != batch.sifted_bob)
    accuracies = [None] * len(batch)
    guesses = batch.guesses()
    if guesses is not None:
        shares = _shares(batch, guesses == batch.sifted_alice)
        accuracies = [
            share if length else None
            for share, length in zip(shares, lengths.tolist())
        ]
    detected = batch.detected.tolist()
    rows = []
    for s, index in enumerate(indices):
        final_length = 0
        advantage = None
        if not detected[s]:
            final_length = int(lengths[s]) - config.parity_rounds
            if config.privacy_enabled:
                params = PrivacyParams(
                    input_bits=final_length,
                    leak_bits=config.pa_leak_bits,
                    margin_bits=config.pa_margin_bits,
                )
                final_length = params.output_bits
                key, guess = batch.reconciled(s)
                if guess is not None:
                    advantage = hashed_guess_advantage(
                        key, guess, sample_hash(params, seeds[s])
                    )
        rows.append(SessionRow(
            index=index,
            qber=qbers[s],
            sifted_length=int(lengths[s]),
            detected=detected[s],
            final_key_length=final_length,
            eve_accuracy=accuracies[s],
            eve_advantage=advantage,
        ))
    return rows


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run ``n_sessions`` independent sessions and aggregate them."""
    work = partial(_experiment_rows, config, build_strategy(config))
    rows = [
        row for indices in _batches(config, 0, config.n_sessions)
        for row in _run(config, indices, work)
    ]
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

    Sessions 0 to ``config.n_sessions`` - 1 run once, with K =
    max(``k_values``) parity rounds in place of ``config.parity_rounds``,
    and the rate at k is the share of them that tripped before round k:
    the detection rate of the same sessions run with k rounds each, since
    no round's coins depend on the round count.  So every point reads the
    same sessions, and the curve never falls as k rises.  Each session
    needs more than K sifted bits, and a nonempty key even when K = 0.
    With ``force_differ`` one uniformly random sifted bit of the receiver
    is flipped first, isolating the parity math from attack
    stochasticity.  Every k is checked before any session runs, and an
    empty ``k_values`` runs none.
    """
    if any(type(k) is not int or k < 0 for k in k_values):
        raise InvalidConfigError(
            f"parity round counts must be >= 0 and Python ints, got "
            f"{list(k_values)}"
        )
    if not k_values:
        return []
    # The field's own check bounds K, and with it every k.
    longest = replace(config, parity_rounds=max(k_values))
    strategy = build_strategy(config)

    def trips(indices: range, seeds: np.ndarray) -> np.ndarray:
        batch = run_batch(longest, strategy, seeds, flip=force_differ)
        if not batch.lengths.all():
            raise KeyTooShortError(
                "no sifted bits: a curve session needs a nonempty sifted key"
            )
        return batch.tripped

    n = config.n_sessions
    tripped = np.concatenate([_run(config, indices, trips)
                              for indices in _batches(config, 0, n)])
    return [(k, int(np.count_nonzero(tripped < k)) / n) for k in k_values]


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
