"""Eavesdropper strategies plugged into the quantum channel.

Every strategy is a channel table.  Row s gives, for the signal state
``BQS[s]`` the sender transmitted, the probability of each outcome, where
an outcome is the state the adversary forwards paired with her guess of
the sender's bit.  The entries follow from the Born rule.  With
``attack_fraction`` f < 1 each row mixes the attack with weight f and a
blind pass with weight 1 - f: the pulse goes on untouched and the recorded
guess is a fair coin, so guess strings stay complete.  One sampler,
``EveStrategy.intercept``, draws from any table.  Four tables are
provided:

* ``NoEve``            passive channel, nothing recorded.
* ``InterceptResend``  measure in a random basis, forward the collapsed
                       eigenstate.  Induces 25% sifted errors when applied
                       to every pulse.
* ``IndirectCopyOracle``    identify each pulse through an exact read of
                       its squared overlap with a fixed ancilla, then
                       forward a fresh copy of the identified state.  The
                       exact read is a simulator capability switch, not a
                       physical measurement: no single-shot measurement
                       yields that continuous value from one carrier.
                       With the switch granted the attack is transparent.
* ``IndirectCopyPhysical``  the same attack restricted to what one lawful
                       projective measurement (along the ancilla pair)
                       can deliver: a single bit per pulse.  The resend
                       rule maps that bit to a forwarded state, and the
                       induced disturbance is unavoidable.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar

import numpy as np

from .quantum import (
    _EIGEN_SNAP,
    BASES,
    BQS,
    QuantumState,
    ReferenceList,
    ancilla_basis,
    born_probability,
    decode,
    squared_overlap,
)
from .stream import BLOCK

# An outcome is (forwarded ray angle, guessed bit or None); a row maps
# each outcome to its probability.
Outcome = tuple[float, int | None]
Row = dict[Outcome, float]

_TWO_POW_53 = 9007199254740992.0


class ResendRule(str, Enum):
    """How the single-shot variant turns its binary outcome into a state.

    ``MAX_POSTERIOR`` forwards the signal state most probable given the
    outcome under a uniform prior over the alphabet; ``RESEND_ANCILLA``
    forwards the measurement eigenstate itself.
    """

    MAX_POSTERIOR = "max-posterior"
    RESEND_ANCILLA = "resend-ancilla"


class EveStrategy:
    """A channel adversary: a table P(forwarded state, guess | sent state).

    Subclasses are immutable configuration and build their table once, in
    ``__post_init__``.  Attributes set there:

    * ``forwarded_angles[k]``: ray angle of the state outcome k forwards;
    * ``guess_bits[k]``: the bit outcome k guesses, or ``None`` throughout
      for a passive channel.

    Table entries within ``_EIGEN_SNAP`` of 0 are set to 0, so an outcome
    the Born rule rules out is never drawn.
    """

    kind: ClassVar[str]
    attack_fraction: float = 1.0

    def _set_table(self, rows: list[Row]) -> None:
        outcomes = list(dict.fromkeys(key for row in rows for key in row))
        probabilities = np.array(
            [[row.get(key, 0.0) for key in outcomes] for row in rows]
        )
        probabilities[probabilities <= _EIGEN_SNAP] = 0.0
        guesses = [guess for _, guess in outcomes]
        # Outcome k is drawn when edges[k - 1] <= u < edges[k].  Edges with
        # no probability left above them are set to 1, which no uniform
        # reaches, so rounding in the cumulative sum can never select an
        # impossible outcome.
        edges = np.cumsum(probabilities, axis=1)[:, :-1]
        remaining = np.cumsum(probabilities[:, ::-1], axis=1)[:, ::-1]
        edges[remaining[:, 1:] == 0.0] = 1.0
        # Sampling compares the 53-bit integer u * 2**53 with the edges
        # scaled and rounded up, which decides edge <= u exactly.  Row s is
        # shifted by s * 2**53, so one sorted array holds every row and one
        # searchsorted call serves a whole session.
        row = np.arange(len(rows), dtype=np.int64)
        keys = np.ceil(np.minimum(edges, 1.0) * _TWO_POW_53).astype(np.int64)
        keys += row[:, None] << 53
        for name, value in (
            ("forwarded_angles", np.array([angle for angle, _ in outcomes])),
            ("guess_bits", None if guesses[0] is None
             else np.array(guesses, dtype=np.uint8)),
            ("_edge_keys", keys.ravel()),
            ("_row_keys", row << 53),
            ("_row_starts", (row * edges.shape[1]).astype(np.uint8)),
        ):
            object.__setattr__(self, name, value)

    def intercept(
        self, codes: np.ndarray, u: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Sample one outcome per pulse by inverse CDF over its table row.

        ``codes`` indexes ``BQS``: the state sent as each pulse, in an array
        of any shape, one row per session in a batch.  ``u`` holds each
        pulse's uniform, a multiple of 2**-53 in [0, 1) as
        ``stream.uniforms`` draws it, and the outcome drawn is the first
        whose cumulative probability exceeds it; a row with a single
        possible outcome returns it for every u.  Returns the forwarded ray
        angles and the guessed bits (``None`` for a passive channel), shaped
        like ``codes``.
        """
        flat_codes, flat_u = codes.ravel(), u.ravel()
        outcome = np.empty(flat_codes.shape, np.uint8)
        for start in range(0, len(flat_codes), BLOCK):
            part = slice(start, start + BLOCK)
            sent = flat_codes[part]
            key = (flat_u[part] * _TWO_POW_53).astype(np.int64)
            key += self._row_keys[sent]
            found = np.searchsorted(self._edge_keys, key, side="right")
            outcome[part] = found - self._row_starts[sent]
        outcome = outcome.reshape(codes.shape)
        guesses = None if self.guess_bits is None else self.guess_bits[outcome]
        return self.forwarded_angles[outcome], guesses


def _check_fraction(fraction: float) -> None:
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"attack_fraction must be in [0, 1], got {fraction}")


def _mixed_rows(attack, fraction: float) -> list[Row]:
    """Rows of a strategy that applies ``attack`` to a share ``fraction`` of
    the pulses and passes the rest on blind.  ``attack(state)`` lists
    (outcome, probability) pairs; an outcome may appear more than once."""
    _check_fraction(fraction)
    rows = []
    for state in BQS:
        row: Row = defaultdict(float)
        if fraction > 0.0:
            for outcome, p in attack(state):
                row[outcome] += fraction * p
        if fraction < 1.0:
            for guess in (0, 1):
                row[(state.angle, guess)] += (1.0 - fraction) / 2.0
        rows.append(row)
    return rows


@dataclass(frozen=True)
class NoEve(EveStrategy):
    """Passive channel: forward every state untouched, record no guesses."""

    kind: ClassVar[str] = "none"

    def __post_init__(self):
        self._set_table([{(state.angle, None): 1.0} for state in BQS])


@dataclass(frozen=True)
class InterceptResend(EveStrategy):
    """Measure each attacked pulse in a uniformly random basis and forward
    the post-measurement eigenstate as the fabricated replacement."""

    attack_fraction: float = 1.0
    kind: ClassVar[str] = "intercept-resend"

    def __post_init__(self):
        def attack(state: QuantumState) -> list[tuple[Outcome, float]]:
            return [
                ((angle, bit), born_probability(state, angle) / len(BASES))
                for basis in BASES
                for bit, angle in enumerate(basis.angles)
            ]

        self._set_table(_mixed_rows(attack, self.attack_fraction))


@dataclass(frozen=True)
class IndirectCopyOracle(EveStrategy):
    """Identify pulses by an exact squared-overlap read against the table's
    ancilla, then forward a fresh copy of the matched state.

    Granting the exact read makes the attack transparent: the forwarded
    state equals the transmitted one, so no disturbance is ever induced
    and the guessed bits equal the sender's bits.  The channel table is
    built through ``ReferenceList.lookup``, so a reference list that misses
    a signal state raises ``NoMatchError`` here.
    """

    reference_list: ReferenceList
    attack_fraction: float = 1.0
    kind: ClassVar[str] = "indirect-oracle"

    def __post_init__(self):
        table = self.reference_list

        def attack(state: QuantumState) -> list[tuple[Outcome, float]]:
            matched = table.lookup(squared_overlap(table.ancilla, state))
            return [((matched.angle, decode(matched)[0]), 1.0)]

        self._set_table(_mixed_rows(attack, self.attack_fraction))


@dataclass(frozen=True)
class IndirectCopyPhysical(EveStrategy):
    """The indirect-copy attack under lawful single-shot measurement.

    Each attacked pulse is measured once along the ancilla pair, which
    yields one binary outcome, not the continuous overlap value the oracle
    variant reads.  The guess is always the maximum-posterior signal state
    for that outcome (uniform prior, ties broken toward the lower table
    index); ``resend_rule`` decides whether that guess or the measurement
    eigenstate itself is forwarded.
    """

    reference_list: ReferenceList
    resend_rule: ResendRule = ResendRule.MAX_POSTERIOR
    attack_fraction: float = 1.0
    kind: ClassVar[str] = "indirect-physical"

    _guess_states: tuple[QuantumState, QuantumState] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        entries = self.reference_list.entries
        aligned = max(
            range(len(entries)), key=lambda i: entries[i].match_value
        )
        orthogonal = max(
            range(len(entries)), key=lambda i: 1.0 - entries[i].match_value
        )
        guesses = (entries[aligned].state, entries[orthogonal].state)
        probe = ancilla_basis(self.reference_list.ancilla.angle)
        object.__setattr__(self, "_guess_states", guesses)
        if self.resend_rule is ResendRule.MAX_POSTERIOR:
            resent = guesses
        else:
            resent = probe.states

        def attack(state: QuantumState) -> list[tuple[Outcome, float]]:
            return [
                (
                    (resent[outcome].angle, decode(guesses[outcome])[0]),
                    born_probability(state, angle),
                )
                for outcome, angle in enumerate(probe.angles)
            ]

        self._set_table(_mixed_rows(attack, self.attack_fraction))

    def posterior_guess(self, outcome: int) -> QuantumState:
        """Signal state with maximal posterior probability for ``outcome``
        (0 projects onto the ancilla, 1 onto its orthogonal partner)."""
        return self._guess_states[outcome]
