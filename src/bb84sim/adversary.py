"""Eavesdropper strategies plugged into the quantum channel.

Every strategy is a channel table, a ``ChannelTable``.  Row s gives, for
the signal state ``BQS[s]`` the sender transmitted, the probability of each
outcome, where an outcome is the state the adversary forwards paired with
her guess of the sender's bit.  The entries follow from the Born rule.
With ``attack_fraction`` f < 1 each row mixes the attack with weight f and
a blind pass with weight 1 - f: the pulse goes on untouched and the
recorded guess is a fair coin, so guess strings stay complete.  One
sampler, ``ChannelTable.intercept``, draws from any table with
``stream.decide``, each pulse's outcome a 53-bit key against
ceil(p * 2**53) for the table's cumulative probabilities p.  An outcome
is all that is kept of an interception: the state forwarded, the guess
and the receiver's bit-0 threshold for each sent state are lookups in the
table.  One builder, ``channel_table``, makes the table of each kind in
``EVE_KINDS``.  Every lawful attack is one single-copy measurement, a
list of weighted rays; the oracle's read is not one, and its table is
fixed:

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
                        granted the attack is transparent: every state is
                        forwarded as itself with its bit guessed, at any
                        ancilla whose four overlaps are distinct
                        (``build_reference_list``); ``check_strategy``
                        refuses any other.
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
    _EIGEN_SNAP, BASIS_ANGLES, BQS, DEFAULT_ANCILLA_ANGLE, PI,
    bit0_thresholds, build_reference_list, reduce_angle, squared_overlap,
)
from .stream import ADVERSARY, decide, threshold

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
    * ``receiver[k, s]``: the receiver's bit-0 threshold for the state
      outcome k forwards, measured in the basis of the sent state s
      (``bit0_thresholds``), or 0 where s never gives k;
    * ``edges[s, k]``: ceil(p * 2**53) for the probability p that sent
      state s gives an outcome up to k, for every outcome k but the last.

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
        # Sent state s = 2 * b + bit is measured in basis b.
        self.receiver = (probabilities.T > 0.0) * bit0_thresholds(
            self.forwarded_angles, np.repeat(BASIS_ANGLES, 2))
        # Outcome k is drawn when edges[k - 1] <= u < edges[k].  Edges with
        # no probability left above them are set to 1, whose threshold 2**53
        # no key reaches, so rounding in the cumulative sum can never select
        # an impossible outcome, and a row with one possible outcome has
        # only the thresholds 0 and 2**53.
        edges = np.cumsum(probabilities, axis=1)[:, :-1]
        remaining = np.cumsum(probabilities[:, ::-1], axis=1)[:, ::-1]
        edges[remaining[:, 1:] == 0.0] = 1.0
        self.edges = threshold(np.minimum(edges, 1.0))

    def intercept(
        self, codes: np.ndarray, seeds: np.ndarray, n: int,
        positions: np.ndarray,
    ) -> np.ndarray:
        """The outcome of each pulse, by inverse CDF over its table row:
        ``stream.decide`` on ``edges`` for the pulse ``positions[j]`` =
        s * n + i that sent ``BQS[codes[j]]``, with key i of the
        adversary's stage of ``seeds[s]``.  A row with one possible
        outcome, as every row of ``none`` and ``indirect-oracle``, reads no
        key.  Returns uint8 indices into every per-outcome array above."""
        return decide(self.edges, codes, seeds, ADVERSARY, n, positions)


def check_strategy(
    kind: str, ancilla_angle: float, resend_rule: str, attack_fraction: float
) -> None:
    """Raise ``InvalidConfigError``, or ``DegenerateAncillaError`` for an
    oracle whose ancilla ties two signal states in overlap, unless
    ``channel_table`` can build the strategy these arguments describe."""
    if kind not in EVE_KINDS:
        raise InvalidConfigError(
            f"eve_kind must be one of {EVE_KINDS}, got {kind!r}"
        )
    if not math.isfinite(ancilla_angle):
        raise InvalidConfigError(
            f"ancilla_angle must be finite, got {ancilla_angle!r}"
        )
    if kind == "indirect-oracle":
        build_reference_list(ancilla_angle)
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
    ``resend_rule`` the single-shot one.  A lawful attack is a list of
    rays (angle, weight, outcome), each seen with probability weight *
    cos^2(angle - sent angle): the signal rays at weight 1/2, in ``BQS``
    order, for intercept/resend, and the ancilla pair at weight 1 for the
    single-shot kind.  The oracle measures nothing: it forwards each
    signal state as itself and guesses its bit, and ``check_strategy``
    refuses an ancilla that maps two signal states to one overlap
    (``DegenerateAncillaError``).  The single-shot kind takes any finite
    angle: its guess for each outcome is the signal state of largest
    posterior (uniform prior; of overlaps equal as computed, the lower
    ``BQS`` index wins).
    """
    check_strategy(kind, ancilla_angle, resend_rule, attack_fraction)
    if kind == "none":
        return ChannelTable([{(state, None): 1.0} for state in BQS])

    # ``attacks[code]`` lists (outcome, probability) pairs for the signal
    # state ``BQS[code]``; the bit a code encodes is ``code & 1``.
    if kind == "indirect-oracle":
        attacks = [[((state, code & 1), 1.0)]
                   for code, state in enumerate(BQS)]
    else:
        if kind == "intercept-resend":
            rays = [(state, 0.5, (state, code & 1))
                    for code, state in enumerate(BQS)]
        else:
            ancilla = reduce_angle(ancilla_angle)
            overlap = [squared_overlap(ancilla, state) for state in BQS]
            guesses = (max(range(4), key=lambda code: overlap[code]),
                       max(range(4), key=lambda code: 1.0 - overlap[code]))
            probe = (ancilla, reduce_angle(ancilla + PI / 2))
            resent = (probe if resend_rule == "resend-ancilla"
                      else [BQS[code] for code in guesses])
            rays = [(angle, 1.0, (resent[k], guesses[k] & 1))
                    for k, angle in enumerate(probe)]
        attacks = [[(outcome, weight * squared_overlap(sent, angle))
                    for angle, weight, outcome in rays] for sent in BQS]

    # An outcome may recur in ``attacks[code]`` or equal a blind pass;
    # equal outcomes add up.
    rows = []
    for code, state in enumerate(BQS):
        row: Row = defaultdict(float)
        if attack_fraction > 0.0:
            for outcome, p in attacks[code]:
                row[outcome] += attack_fraction * p
        if attack_fraction < 1.0:
            for guess in (0, 1):
                row[(state, guess)] += (1.0 - attack_fraction) / 2.0
        rows.append(row)
    return ChannelTable(rows)
