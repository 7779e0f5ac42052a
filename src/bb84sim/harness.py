"""Experiment runner: many independent sessions, aggregated statistics,
deterministic seeding, and machine-readable reports.

Random-stream contract ``bb84sim-2`` (``RNG_CONTRACT``): session i of an
experiment draws everything from one ``random.Random`` (Mersenne Twister)
seeded with ``derive_seed(master_seed, i)``, a SplitMix64 mix of the
master seed and the session index.  Bits come from one ``getrandbits(k)``
call per batch, item j being bit j of the word; uniforms carry 53 bits
each and equal successive ``random()`` calls (see ``stream``).  A session
of n pulses draws, in this order:

1. n bits, the sender's bits;
2. n bits, the sender's bases;
3. n bits, the receiver's bases;
4. n uniforms for the adversary's channel table, whatever the strategy;
5. n uniforms for detector loss, only when the efficiency is below 1;
6. n uniforms for the receiver's measurements, lost pulses included;
7. per parity round, one bit per live sifted position, all drawn again
   while none of them is 1;
8. with privacy amplification on an undetected session, the n + r - 1
   bits of the Toeplitz seed.

``detection_rate_curve`` runs steps 1-6, then, with ``force_differ``, one
uniform u that flips receiver bit floor(u * L) of the L-bit sifted key,
then step 7.  Draw counts depend only on the configuration and on the
sizes of the live sets, never on drawn values, except for the redraw of an
empty parity subset.  Identical configurations therefore produce
byte-identical reports.  Every report names its contract, and
``ExperimentReport.from_json`` refuses a report written under another.
"""

import json
import math
import random
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .adversary import (
    EveStrategy,
    IndirectCopyOracle,
    IndirectCopyPhysical,
    InterceptResend,
    NoEve,
    ResendRule,
)
from .amplification import PrivacyParams, hashed_guess_advantage, sample_hash
from .errors import InvalidConfigError, SessionError
from .protocol import (
    SessionConfig,
    SessionTranscript,
    parity_verify,
    run_session,
)
from .quantum import DEFAULT_ANCILLA_ANGLE, QuantumState, build_reference_list

RNG_CONTRACT = "bb84sim-2"
EVE_KINDS = ("none", "intercept-resend", "indirect-oracle", "indirect-physical")
RESEND_RULES = tuple(rule.value for rule in ResendRule)
OUTPUT_FORMATS = ("json", "csv")

_MASK64 = (1 << 64) - 1
_CI_Z = 1.96  # normal-approximation z for a 95% binomial interval


def derive_seed(master_seed: int, index: int) -> int:
    """SplitMix64 mix of (master_seed, index); distinct per index."""
    x = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Everything needed to reproduce an experiment."""

    n_pulses: int
    n_sessions: int
    efficiency: float = 1.0
    parity_rounds: int = 0
    eve_kind: str = "none"
    ancilla_angle: float = DEFAULT_ANCILLA_ANGLE
    resend_rule: str = ResendRule.MAX_POSTERIOR.value
    attack_fraction: float = 1.0
    pa_leak_bits: int | None = None  # assumed adversary bits t; None skips PA
    pa_margin_bits: int | None = None  # security margin s
    master_seed: int = 1
    output_format: str = "json"

    def __post_init__(self):
        self.session_config  # validates n_pulses, efficiency, parity_rounds
        if self.n_sessions < 1:
            raise InvalidConfigError("n_sessions must be >= 1")
        if self.eve_kind not in EVE_KINDS:
            raise InvalidConfigError(
                f"eve_kind must be one of {EVE_KINDS}, got {self.eve_kind!r}"
            )
        if not math.isfinite(self.ancilla_angle):
            raise InvalidConfigError(
                f"ancilla_angle must be finite, got {self.ancilla_angle!r}"
            )
        if self.resend_rule not in RESEND_RULES:
            raise InvalidConfigError(
                f"resend_rule must be one of {RESEND_RULES}, "
                f"got {self.resend_rule!r}"
            )
        if not 0.0 <= self.attack_fraction <= 1.0:
            raise InvalidConfigError("attack_fraction must be in [0, 1]")
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
    def session_config(self) -> SessionConfig:
        return SessionConfig(
            n_pulses=self.n_pulses,
            efficiency=self.efficiency,
            parity_rounds=self.parity_rounds,
        )

    @property
    def privacy_enabled(self) -> bool:
        return self.pa_leak_bits is not None


def build_strategy(config: ExperimentConfig) -> EveStrategy:
    """Instantiate the adversary the config describes."""
    if config.eve_kind == "none":
        return NoEve()
    if config.eve_kind == "intercept-resend":
        return InterceptResend(attack_fraction=config.attack_fraction)
    table = build_reference_list(QuantumState(config.ancilla_angle))
    if config.eve_kind == "indirect-oracle":
        return IndirectCopyOracle(
            reference_list=table, attack_fraction=config.attack_fraction
        )
    return IndirectCopyPhysical(
        reference_list=table,
        resend_rule=ResendRule(config.resend_rule),
        attack_fraction=config.attack_fraction,
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


def eve_sifted_accuracy(transcript: SessionTranscript) -> float | None:
    """Fraction of sifted positions where the adversary guessed the
    sender's bit; ``None`` without guesses or without sifted bits."""
    guesses = transcript.eve_bits
    if guesses is None or len(guesses) == 0:
        return None
    hits = int(np.count_nonzero(guesses == transcript.sifted_alice))
    return hits / len(guesses)


def _session_row(
    index: int,
    transcript: SessionTranscript,
    config: ExperimentConfig,
    rng: random.Random,
) -> SessionRow:
    final_length = 0
    advantage = None
    if transcript.reconciled_key is not None:
        if config.privacy_enabled:
            params = PrivacyParams(
                input_bits=len(transcript.reconciled_key),
                leak_bits=config.pa_leak_bits,
                margin_bits=config.pa_margin_bits,
            )
            descriptor = sample_hash(params, rng)
            final_length = descriptor.output_bits
            guess = transcript.eve_reconciled_guess
            if guess is not None:
                advantage = hashed_guess_advantage(
                    transcript.reconciled_key, guess, descriptor
                )
        else:
            final_length = len(transcript.reconciled_key)
    return SessionRow(
        index=index,
        qber=transcript.qber,
        sifted_length=len(transcript.sifted_alice),
        detected=transcript.detected,
        final_key_length=final_length,
        eve_accuracy=eve_sifted_accuracy(transcript),
        eve_advantage=advantage,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run ``n_sessions`` independent sessions and aggregate them."""
    strategy = build_strategy(config)
    session_config = config.session_config
    rows: list[SessionRow] = []
    for index in range(config.n_sessions):
        seed = derive_seed(config.master_seed, index)
        rng = random.Random(seed)
        try:
            transcript = run_session(session_config, strategy, rng)
            rows.append(_session_row(index, transcript, config, rng))
        except Exception as exc:
            raise SessionError(index, seed, str(exc)) from exc
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

    For each k, ``config.n_sessions`` sessions run without integrated
    verification; parity verification with k rounds is then applied to the
    sifted keys.  With ``force_differ`` one uniformly random sifted bit of
    the receiver is flipped first, isolating the parity math from attack
    stochasticity.  Session j of the sweep (k-major) uses the generator of
    session index j.
    """
    strategy = build_strategy(config)
    session_config = SessionConfig(
        n_pulses=config.n_pulses, efficiency=config.efficiency, parity_rounds=0
    )
    curve: list[tuple[int, float]] = []
    counter = 0
    for k in k_values:
        if k < 0:
            raise InvalidConfigError("parity round counts must be >= 0")
        detections = 0
        for _ in range(config.n_sessions):
            seed = derive_seed(config.master_seed, counter)
            rng = random.Random(seed)
            counter += 1
            try:
                transcript = run_session(session_config, strategy, rng)
                bob_bits = transcript.sifted_bob
                if force_differ:
                    length = len(bob_bits)
                    if not length:
                        raise ValueError("no sifted bits to flip")
                    bob_bits = bob_bits.copy()
                    bob_bits[min(int(rng.random() * length), length - 1)] ^= 1
                detected, _, _, _ = parity_verify(
                    transcript.sifted_alice, bob_bits, k, rng
                )
            except Exception as exc:
                raise SessionError(counter - 1, seed, str(exc)) from exc
            detections += detected
        curve.append((k, detections / config.n_sessions))
    return curve


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
