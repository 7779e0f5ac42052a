"""BB84 session engine.

One session runs the full exchange between the two legitimate parties:
pulse preparation, transit through the (possibly hostile) channel with
detector loss, measurement, basis reconciliation and sifting, then the
parity-verification rounds that certify the sifted keys agree.  Basis
reconciliation happens over an implicit authenticated, error-free public
channel; only its outcome is modeled.

Sessions run in batches.  ``run_batch`` holds a batch of sessions as numpy
columns with one row per session, pulse i of session s being entry [s, i],
and every stage handles the whole batch at once.  Every stage takes the
sessions' seeds, one uint64 per session, and computes the values of its
own stage of the counter-based stream (see ``stream``, and ``harness``
for the stages), returning one row per session; ``run_session`` is a
batch of one.  A basis
is stored as its index into ``BASIS_ANGLES`` (0 rectilinear, 1 diagonal),
and a signal state as its code, an index into ``BQS``, ``2 * basis + bit``.

A batch stores each fact once.  Every pulse column takes one byte per
pulse: the adversary's outcome is kept as its index into her table, which
the batch holds, and a lost pulse is the receiver's bit -1.  Parity
verification leaves one flag per session and the mask of surviving key
positions, not per-round records.

Each random decision of a pulse, the adversary's outcome, loss and the
receiver's bit, is a 53-bit key against ceil(p * 2**53) for its
probability p.  The channel table computes the receiver's thresholds once,
for every state it forwards, so no pulse computes a probability.  Each
such stage walks the pulses ``stream.BLOCK`` at a time along each row.
"""

from dataclasses import dataclass, fields
from typing import Sequence, get_args

import numpy as np

from .adversary import ChannelTable
from .errors import InvalidConfigError, KeyTooShortError
from .quantum import measure
from .stream import (
    ADVERSARY, ALICE_BASES, ALICE_BITS, BLOCK, BOB_BASES, FLIP, LOSS, PARITY,
    STAGES, keys, random_bits, threshold, values,
)


def check_types(record) -> None:
    """Raise ``InvalidConfigError`` unless every field of the dataclass
    ``record`` holds a value of a type its annotation names.  An int may
    stand for a float, and a bool for nothing but a bool."""
    for field in fields(record):
        value = getattr(record, field.name)
        kinds = get_args(field.type) or (field.type,)
        allowed = kinds + ((int,) if float in kinds else ())
        if not isinstance(value, allowed) or (
            type(value) is bool and bool not in kinds
        ):
            name = getattr(field.type, "__name__", field.type)
            raise InvalidConfigError(
                f"{field.name} must be {name}, got {value!r}"
            )


@dataclass(frozen=True, slots=True)
class SessionConfig:
    """Knobs for one protocol run."""

    n_pulses: int
    efficiency: float = 1.0  # probability a pulse survives to the detector
    parity_rounds: int = 0

    def __post_init__(self):
        check_types(self)  # the fields of a subclass too
        if self.n_pulses < 1:
            raise InvalidConfigError("n_pulses must be >= 1")
        if not 0.0 < self.efficiency <= 1.0:
            raise InvalidConfigError("efficiency must be in (0, 1]")
        if not 0 <= self.parity_rounds < STAGES - PARITY:
            raise InvalidConfigError(
                f"parity_rounds must be >= 0 and below {STAGES - PARITY}"
            )


@dataclass(frozen=True, eq=False)
class Pulses:
    """Everything that happened to the transmitted quantum bits, as
    columns of one byte per pulse: entry [s, i] of each array describes
    pulse i of session s."""

    alice_bits: np.ndarray  # uint8
    alice_bases: np.ndarray  # uint8 index into BASIS_ANGLES
    outcomes: np.ndarray  # uint8 index into the adversary's table
    bob_bases: np.ndarray  # uint8 index into BASIS_ANGLES
    bob_bits: np.ndarray  # int8 measured bit, -1 where the pulse was lost

    def __len__(self) -> int:
        """The number of pulses, over every session of a batch."""
        return self.alice_bits.size


@dataclass(frozen=True, eq=False)
class SessionBatch:
    """A batch of sessions, as columns, each fact stored once.

    ``pulses`` holds one row per session, and ``adversary`` the table its
    outcomes index.  The sifted arrays lay the sessions' sifted keys end to
    end: session s owns the ``lengths[s]`` entries from ``starts[s]`` on,
    and ``sifted`` indexes the flattened pulse columns.  ``kept`` marks, in
    the same layout, the positions no parity round discarded, and
    ``detected`` holds one flag per session.
    """

    pulses: Pulses
    adversary: ChannelTable
    sifted: np.ndarray
    lengths: np.ndarray
    starts: np.ndarray
    sifted_alice: np.ndarray
    sifted_bob: np.ndarray
    detected: np.ndarray
    kept: np.ndarray

    def __len__(self) -> int:
        return len(self.lengths)

    def reconciled(self, s: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Session s's post-parity key, the sender's sifted bits at the
        positions ``kept`` marks, and the adversary's guesses at the same
        positions (``None`` on a passive channel)."""
        start = self.starts[s]
        part = slice(start, start + self.lengths[s])
        kept = self.kept[part]
        key = self.sifted_alice[part][kept]
        return key, self.guesses(self.sifted[part][kept])

    def guesses(self, pulses: np.ndarray) -> np.ndarray | None:
        """The adversary's guesses ``guess_bits[outcome]`` at the flattened
        pulse indices ``pulses``; ``None`` on a passive channel."""
        if self.adversary.guess_bits is None:
            return None
        return np.take(self.adversary.guess_bits,
                       np.take(self.pulses.outcomes, pulses))


def prepare_pulses(
    n: int, seeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` independent uniform bits, then ``n`` uniform bases, one
    row per seed; pulse i encodes bit i in basis i."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (random_bits(seeds, ALICE_BITS, n),
            random_bits(seeds, ALICE_BASES, n))


def transmit(
    codes: np.ndarray,
    adversary: ChannelTable,
    efficiency: float,
    seeds: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Pass the pulses ``BQS[codes]`` through the adversary, then through
    detector loss.

    ``codes`` holds one row of pulses per seed.  The adversary reads one
    53-bit key per pulse from her stage, when her table has ``reads_keys``;
    a table with a single outcome per sent state (``none``,
    ``indirect-oracle``) computes none.  When ``efficiency < 1``, loss reads
    one key per pulse from its own stage, and a pulse is lost when its key
    k has k * 2**-53 >= ``efficiency``, a 53-bit key against
    ceil(efficiency * 2**53).  Returns the adversary's outcomes (indices
    into her table) and the loss mask.  The adversary acts before loss, so
    her outcome exists even for lost pulses.
    """
    starts = range(0, codes.shape[1], BLOCK)
    outcomes = np.empty(codes.shape, dtype=np.uint8)
    for start in starts:
        sent = codes[:, start : start + BLOCK]
        drawn = None
        if adversary.reads_keys:
            drawn = keys(seeds, ADVERSARY, sent.shape[1], start)
        outcomes[:, start : start + BLOCK] = adversary.intercept(sent, drawn)
    lost = np.zeros(codes.shape, dtype=bool)
    if efficiency < 1.0:
        edge = threshold(efficiency)
        for start in starts:
            block = lost[:, start : start + BLOCK]
            np.greater_equal(keys(seeds, LOSS, block.shape[1], start), edge,
                             out=block)
    return outcomes, lost


def sift(pulses: Pulses) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep positions where the pulse arrived (``bob_bits`` is not -1)
    and the bases matched.

    Returns the sender's sifted key, the receiver's, and the pulse indices
    they came from.  For a batch the indices run over the flattened
    columns, session after session, and the keys are laid end to end in
    the same order.
    """
    matched = pulses.alice_bases == pulses.bob_bases
    kept = np.flatnonzero(matched & (pulses.bob_bits >= 0))
    return (
        np.take(pulses.alice_bits, kept),
        np.take(pulses.bob_bits, kept).view(np.uint8),
        kept,
    )


# _BELOW[k] has the k low bits of a value set, for k in [0, 64].
_BELOW = np.array([(1 << k) - 1 for k in range(65)], np.uint64)


def _low_bit(words: np.ndarray) -> np.ndarray:
    """Index of the lowest set bit of each nonzero uint64 value: the
    exponent of that bit alone, which a float holds exactly."""
    return np.frexp(words & (~words + np.uint64(1)))[1] - 1


def _coins(seeds, stages, live, attempt) -> np.ndarray:
    """Attempt ``attempt`` at the coins of the parity rounds whose seeds,
    stages and live counts the arrays give, one row each: the
    W = ceil(live / 64) values of the round's stage from ``attempt * W``
    on, coin i being bit i of the row, and the bits past ``live`` cleared.
    """
    sizes = (live + 63) // 64
    coins = values(seeds, stages, sizes, attempt * sizes)
    cut = np.flatnonzero(live % 64)
    coins[cut, sizes[cut] - 1] &= np.take(_BELOW, live[cut] % 64)
    return coins


def _first_words(coins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of ``coins``, the index of its first nonzero value and
    that value, 0 for a row whose coins all came up 0."""
    first = (coins != 0).argmax(axis=1)
    return first, coins[np.arange(len(coins)), first]


def parity_verify(
    alice_bits: Sequence[int],
    bob_bits: Sequence[int],
    rounds: int,
    seeds: np.ndarray,
    lengths: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Run ``rounds`` public random-subset parity comparisons on the keys
    of a batch of sessions.

    The keys lay the sessions' keys end to end, session s owning
    ``lengths[s]`` bits and drawing with ``seeds[s]``; ``rounds`` must be
    0 or more and ``lengths`` must hold one entry per seed and sum to the
    key length, or ``ValueError`` is raised.  Each round of a session
    samples a uniform nonempty subset of the still-live positions (one fair
    coin per live position, in ascending order, all drawn again if none
    comes up 1), compares the two parities, and discards the lowest-indexed
    subset member from both keys.  A differing key pair trips a round with
    probability 1/2, so ``rounds`` independent rounds certify agreement
    except with probability ~2**-rounds, at the cost of ``rounds`` bits.

    Round j draws its L - j coins from stage ``stream.PARITY + j``, in
    W = ceil((L - j) / 64) values, and attempt a at them takes the W
    values from a * W on.  Every round of every session is drawn and
    discards its member, whatever the keys: all rounds' first attempts are
    taken at once, only a round that came up empty is drawn again, and the
    discarded positions follow from the lowest set bits.  Only the positions
    where the keys differ are read, each at its live index, and a session
    stops at its first mismatch.  Returns (detected, kept): a flag per
    session, the OR of its per-round mismatches, and a mask over the keys
    laid end to end that marks the positions no round discarded.
    """
    alice = np.asarray(alice_bits, dtype=np.uint8)
    bob = np.asarray(bob_bits, dtype=np.uint8)
    lengths = np.asarray(lengths, dtype=np.int64)
    seeds = np.asarray(seeds, dtype=np.uint64)
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if len(alice) != len(bob):
        raise ValueError("keys must have equal length")
    if len(lengths) != len(seeds):
        raise ValueError(
            f"{len(lengths)} key lengths for {len(seeds)} sessions"
        )
    if lengths.sum() != len(alice):
        raise ValueError(
            f"key lengths sum to {lengths.sum()}, but the keys hold "
            f"{len(alice)} bits"
        )
    short = lengths <= rounds
    if short.any():
        raise KeyTooShortError(
            f"key of length {lengths[short.argmax()]} cannot support "
            f"{rounds} parity rounds"
        )
    detected = np.zeros(len(lengths), dtype=bool)
    kept = np.ones(len(alice), dtype=bool)
    if rounds == 0 or not len(lengths):
        return detected, kept
    # Round j of session s is row j * sessions + s of ``coins``.
    sessions = len(lengths)
    live = (lengths - np.arange(rounds)[:, None]).ravel()
    row_seeds = np.tile(seeds, rounds)
    stages = PARITY + np.arange(rounds).repeat(sessions)
    coins = _coins(row_seeds, stages, live, 0)
    first, lowest = _first_words(coins)
    empty = np.flatnonzero(lowest == 0)
    attempt = 0
    while len(empty):
        attempt += 1
        fresh = _coins(row_seeds[empty], stages[empty], live[empty], attempt)
        coins[empty, : fresh.shape[1]] = fresh
        first[empty], lowest[empty] = _first_words(fresh)
        empty = empty[lowest[empty] == 0]
    # Round j discards its lowest member, a live index, which becomes a key
    # position once the earlier discards are undone, latest first.
    discarded = (64 * first + _low_bit(lowest)).reshape(rounds, sessions)
    positions = discarded.copy()
    for j in range(rounds - 2, -1, -1):
        later = positions[j + 1 :]
        later += later >= positions[j]
    starts = np.cumsum(lengths) - lengths
    kept[(positions + starts).ravel()] = False

    # A subset's two parities differ exactly when it holds an odd number
    # of the spots where the keys differ.  Spot k is bit at[k] of a round's
    # coins unpacked one row per session, row owner[k].  A session stops at
    # its first mismatch; a discarded spot leaves, the ones above move down.
    at = np.flatnonzero(alice != bob)
    owner = np.searchsorted(starts + lengths, at, side="right")
    rows = np.arange(sessions) * (64 * coins.shape[1])
    at += (rows - starts)[owner]
    octets = coins.astype("<u8", copy=False).view(np.uint8)
    for j in range(rounds):
        if not len(at):
            break
        bits = np.unpackbits(octets[j * sessions : (j + 1) * sessions],
                             axis=1, bitorder="little")
        trip = np.bincount(owner, np.take(bits, at), sessions) % 2 == 1
        detected |= trip
        drop = (rows + discarded[j])[owner]
        stay = ~trip[owner] & (at != drop)
        at -= at > drop
        owner, at = owner[stay], at[stay]
    return detected, kept


def run_batch(
    config: SessionConfig,
    adversary: ChannelTable,
    seeds: Sequence[int],
    flip: bool = False,
) -> SessionBatch:
    """Execute one full session per seed in ``seeds``, as one batch.

    Session s draws with ``seeds[s]``, each stage from its own range of
    the stream as documented in ``harness``, whatever else the batch
    holds, so its columns are those of a batch of one.  With
    ``parity_rounds == 0`` verification is skipped and the sifted key is
    taken as reconciled.  With ``flip``, one key k per session, from its
    flip stage, flips receiver sifted bit floor(u * L) of the L-bit key
    before verification, for the uniform u = k * 2**-53; a session without
    sifted bits then raises ``ValueError``.  An error of any session
    raises.  Returns the batch's pulse columns, the adversary's table,
    sifted keys, survivor mask ``kept`` and detection flags as a
    ``SessionBatch``.
    """
    n = config.n_pulses
    seeds = np.asarray(seeds, dtype=np.uint64)
    alice_bits, alice_bases = prepare_pulses(n, seeds)
    bob_bases = random_bits(seeds, BOB_BASES, n)
    outcomes, lost = transmit(
        2 * alice_bases + alice_bits, adversary, config.efficiency, seeds
    )
    bob_bits = measure(
        adversary.bit0_thresholds, outcomes, bob_bases, seeds
    ).view(np.int8)
    bob_bits[lost] = -1
    pulses = Pulses(alice_bits, alice_bases, outcomes, bob_bases, bob_bits)
    sifted_alice, sifted_bob, sifted = sift(pulses)
    # Session s owns the sifted indices in [s * n, (s + 1) * n).
    bounds = np.searchsorted(sifted, np.arange(len(seeds) + 1) * n)
    starts, lengths = bounds[:-1], np.diff(bounds)
    if flip:
        if not lengths.all():
            raise ValueError("no sifted bits to flip")
        u = keys(seeds, FLIP, 1)[:, 0] * 2.0**-53
        flipped = np.minimum((u * lengths).astype(np.int64), lengths - 1)
        sifted_bob[starts + flipped] ^= 1

    if config.parity_rounds > 0:
        detected, kept = parity_verify(
            sifted_alice, sifted_bob, config.parity_rounds, seeds, lengths
        )
    else:
        detected = np.zeros(len(seeds), dtype=bool)
        kept = np.ones(len(sifted), dtype=bool)
    return SessionBatch(
        pulses=pulses,
        adversary=adversary,
        sifted=sifted,
        lengths=lengths,
        starts=starts,
        sifted_alice=sifted_alice,
        sifted_bob=sifted_bob,
        detected=detected,
        kept=kept,
    )


def run_session(
    config: SessionConfig, adversary: ChannelTable, seed: int
) -> SessionBatch:
    """Execute the one session of seed ``seed``: ``run_batch`` on a batch
    of one."""
    return run_batch(config, adversary, [seed])
