"""Eavesdropper strategies plugged into the quantum channel.

Every strategy is a channel table, a ``ChannelTable``.  Row s gives, for
the signal state ``BQS[s]`` the sender transmitted, the probability of each
outcome, where an outcome is the state the adversary forwards paired with
her guess of the sender's bit.  The entries follow from the Born rule.
With ``attack_fraction`` f < 1 each row mixes the attack with weight f and
a blind pass with weight 1 - f: the pulse goes on untouched and the
recorded guess is a fair coin, so guess strings stay complete.  One
sampler, ``ChannelTable.intercept``, draws from any table, each pulse's
outcome a 53-bit key against ceil(p * 2**53) for the table's cumulative
probabilities p.  An outcome is all that is kept of an interception: the
state forwarded and the guess are lookups in the table.  One builder,
``channel_table``, makes the table of each kind in ``EVE_KINDS``:

* ``none``              passive channel, nothing recorded.
* ``intercept-resend``  measure in a random basis, forward the collapsed
                        eigenstate.  Induces 25% sifted errors when applied
                        to every pulse.
* ``indirect-oracle``   identify each pulse through an exact read of its
                        squared overlap with a fixed ancilla, then forward a
                        fresh copy of the identified state.  The exact read
                        is a simulator capability switch, not a physical
                        measurement: no single-shot measurement yields that
                        continuous value from one carrier.  With the switch
                        granted the attack is transparent.
* ``indirect-physical`` the same attack restricted to what one lawful
                        projective measurement (along the ancilla pair) can
                        deliver: a single bit per pulse.  The guess is the
                        maximum-posterior signal state for that bit; the
                        resend rule (``RESEND_RULES``) forwards either that
                        guess (``max-posterior``) or the measurement
                        eigenstate itself (``resend-ancilla``), and the
                        induced disturbance is unavoidable.
"""

import math
from collections import defaultdict

import numpy as np

from .errors import InvalidConfigError
from .quantum import (
    _EIGEN_SNAP,
    BQS,
    DEFAULT_ANCILLA_ANGLE,
    PI,
    bit0_thresholds,
    build_reference_list,
    reduce_angle,
    settled_bits,
    squared_overlap,
)
from .stream import threshold

EVE_KINDS = ("none", "intercept-resend", "indirect-oracle", "indirect-physical")
RESEND_RULES = ("max-posterior", "resend-ancilla")

# An outcome is (forwarded ray angle, guessed bit or None); a row maps
# each outcome to its probability.
Outcome = tuple[float, int | None]
Row = dict[Outcome, float]


class ChannelTable:
    """A channel adversary: a table P(forwarded state, guess | sent state).

    Built from one row per signal state in ``BQS``; outcomes are numbered
    in order of first appearance across the rows.  Attributes:

    * ``forwarded_angles[k]``: ray angle of the state outcome k forwards;
    * ``guess_bits[k]``: the bit outcome k guesses, or ``None`` throughout
      for a passive channel;
    * ``bit0_thresholds[k, b]``: the receiver's bit-0 threshold for the
      state outcome k forwards, measured in basis b (``bit0_thresholds``);
    * ``settled_bits[k, b]``: the bit that measurement always gives, or
      ``quantum.RANDOM`` where a key decides it (``settled_bits``).

    Table entries within ``_EIGEN_SNAP`` of 0 are set to 0, so an outcome
    the Born rule rules out is never drawn.
    """

    def __init__(self, rows: list[Row]):
        outcomes = list(dict.fromkeys(key for row in rows for key in row))
        probabilities = np.array(
            [[row.get(key, 0.0) for key in outcomes] for row in rows]
        )
        probabilities[probabilities <= _EIGEN_SNAP] = 0.0
        guesses = [guess for _, guess in outcomes]
        self.forwarded_angles = np.array([angle for angle, _ in outcomes])
        self.guess_bits = (
            None if guesses[0] is None else np.array(guesses, dtype=np.uint8)
        )
        self.bit0_thresholds = bit0_thresholds(self.forwarded_angles)
        self.settled_bits = settled_bits(self.bit0_thresholds)
        # Outcome k is drawn when edges[k - 1] <= u < edges[k].  Edges with
        # no probability left above them are set to 1, whose threshold 2**53
        # no key reaches, so rounding in the cumulative sum can never select
        # an impossible outcome.
        edges = np.cumsum(probabilities, axis=1)[:, :-1]
        remaining = np.cumsum(probabilities[:, ::-1], axis=1)[:, ::-1]
        edges[remaining[:, 1:] == 0.0] = 1.0
        # Sampling counts the edges whose threshold a pulse's 53-bit key
        # reaches, which decides edge <= u exactly.  An edge column whose
        # thresholds are all 0 or 2**53 is reached by every key or by none,
        # whatever the key, so it is counted once per sent state, in
        # ``_base``, and only the other columns are compared per pulse.
        edges = threshold(np.minimum(edges, 1.0))
        fixed = ((edges == 0) | (edges == 1 << 53)).all(axis=0)
        self._base = np.count_nonzero(edges[:, fixed] == 0, axis=1).astype(
            np.uint8)
        self._edge_columns = [np.ascontiguousarray(column)
                              for column in edges[:, ~fixed].T]

    @property
    def reads_keys(self) -> bool:
        """Whether ``intercept`` compares keys at all: False when every row
        has a single possible outcome, as for ``none`` and
        ``indirect-oracle``, whose outcomes ``_base`` alone gives."""
        return bool(self._edge_columns)

    def intercept(
        self, codes: np.ndarray, keys: np.ndarray | None
    ) -> np.ndarray:
        """Sample one outcome per pulse by inverse CDF over its table row.

        ``codes`` indexes ``BQS``: the state sent as each pulse, in an array
        of any shape; the engine passes the pulses that reach the sifted
        key.  ``keys`` holds each pulse's 53-bit key as uint64, as
        ``stream.key_blocks`` draws it, and the outcome drawn is the first
        whose cumulative probability p exceeds k * 2**-53: the number of
        edges p with k >= ceil(p * 2**53), a 53-bit key against each
        threshold.  A row with a single possible outcome returns it for
        every key; a table without ``reads_keys`` reads only ``_base`` and
        takes ``None`` for ``keys``.  Returns the outcomes, shaped like
        ``codes``, as uint8 indices into every per-outcome array above.
        """
        outcome = np.take(self._base, codes)
        for column in self._edge_columns:
            outcome += keys >= np.take(column, codes)
        return outcome


def check_strategy(
    kind: str, ancilla_angle: float, resend_rule: str, attack_fraction: float
) -> None:
    """Raise ``InvalidConfigError`` unless ``channel_table`` can build the
    strategy these arguments describe."""
    if kind not in EVE_KINDS:
        raise InvalidConfigError(
            f"eve_kind must be one of {EVE_KINDS}, got {kind!r}"
        )
    if not math.isfinite(ancilla_angle):
        raise InvalidConfigError(
            f"ancilla_angle must be finite, got {ancilla_angle!r}"
        )
    if resend_rule not in RESEND_RULES:
        raise InvalidConfigError(
            f"resend_rule must be one of {RESEND_RULES}, got {resend_rule!r}"
        )
    if not 0.0 <= attack_fraction <= 1.0:
        raise InvalidConfigError("attack_fraction must be in [0, 1]")


def channel_table(
    kind: str,
    ancilla_angle: float = DEFAULT_ANCILLA_ANGLE,
    resend_rule: str = "max-posterior",
    attack_fraction: float = 1.0,
) -> ChannelTable:
    """The channel table of strategy ``kind`` (one of ``EVE_KINDS``).

    ``ancilla_angle`` serves the two indirect-copy kinds and
    ``resend_rule`` the single-shot one.  The oracle reads its table through
    ``ReferenceList.lookup``, so an ancilla that maps two signal states to
    one overlap raises ``DegenerateAncillaError``.  The single-shot kind
    takes any finite angle: its guess for each outcome is the signal state
    of largest posterior (uniform prior; of overlaps equal as computed, the
    lower ``BQS`` index wins).
    """
    check_strategy(kind, ancilla_angle, resend_rule, attack_fraction)
    if kind == "none":
        return ChannelTable([{(state, None): 1.0} for state in BQS])

    # ``attack(code)`` lists (outcome, probability) pairs for the signal
    # state ``BQS[code]``; the bit a code encodes is ``code & 1``.
    if kind == "intercept-resend":
        def attack(sent: int) -> list[tuple[Outcome, float]]:
            return [
                ((state, code & 1), squared_overlap(BQS[sent], state) / 2)
                for code, state in enumerate(BQS)
            ]
    elif kind == "indirect-oracle":
        table = build_reference_list(ancilla_angle)

        def attack(sent: int) -> list[tuple[Outcome, float]]:
            matched = table.lookup(squared_overlap(table.ancilla, BQS[sent]))
            return [((BQS[matched], matched & 1), 1.0)]
    else:
        ancilla = reduce_angle(ancilla_angle)
        weight = [squared_overlap(ancilla, state) for state in BQS]
        guesses = (
            max(range(4), key=lambda code: weight[code]),
            max(range(4), key=lambda code: 1.0 - weight[code]),
        )
        probe = (ancilla, reduce_angle(ancilla + PI / 2))
        if resend_rule == "max-posterior":
            resent = (BQS[guesses[0]], BQS[guesses[1]])
        else:
            resent = probe

        def attack(sent: int) -> list[tuple[Outcome, float]]:
            return [
                (
                    (resent[outcome], guesses[outcome] & 1),
                    squared_overlap(BQS[sent], angle),
                )
                for outcome, angle in enumerate(probe)
            ]

    # An outcome may recur in ``attack(code)`` or equal a blind pass; equal
    # outcomes add up.
    rows = []
    for code, state in enumerate(BQS):
        row: Row = defaultdict(float)
        if attack_fraction > 0.0:
            for outcome, p in attack(code):
                row[outcome] += attack_fraction * p
        if attack_fraction < 1.0:
            for guess in (0, 1):
                row[(state, guess)] += (1.0 - attack_fraction) / 2.0
        rows.append(row)
    return ChannelTable(rows)
