"""BB84 session engine.

One session runs the full exchange between the two legitimate parties:
pulse preparation, transit through the (possibly hostile) channel with
detector loss, measurement, basis reconciliation and sifting, then the
parity-verification rounds that certify the sifted keys agree.  Basis
reconciliation happens over an implicit authenticated, error-free public
channel; only its outcome is modeled.

Sessions run in batches.  ``run_batch`` holds a batch of sessions as numpy
columns with one row per session, pulse i of session s being entry [s, i]
and flat pulse s * n + i, and every stage handles the whole batch at once.
Every stage takes the sessions' seeds, one uint64 per session, and
computes the values of its own stage of the counter-based stream (see
``stream``, and ``harness`` for the stages); ``run_session`` is a batch of
one.  A basis is stored as its index into ``BASIS_ANGLES`` (0
rectilinear, 1 diagonal), and a signal state as its code, an index into
``BQS``, ``2 * basis + bit``.

A batch stores each fact once, and decides each pulse only as far as the
sifted key can read it.  The sender's bits and bases and the receiver's
bases are drawn for every pulse, one byte per pulse each.  Sifting comes
next: a pulse can reach the key only when the two bases match, and only
those pulses read a loss key.  The adversary and the receiver then act on
the sifted pulses alone, so their results are kept in the sifted layout:
the adversary's outcome as its index into her table, which the batch
holds, and the receiver's bit.  Parity verification leaves the round at
which each session first tripped and the mask of surviving key positions,
not per-round records.

Each random decision of a pulse, loss, the adversary's outcome and the
receiver's bit, is a 53-bit key against ceil(p * 2**53) for its
probability p, read at the pulse's own stage and index, at most
``stream.BLOCK`` keys at a time.  ``transmit`` draws the adversary's
outcome and the receiver's bit by ``stream.decide`` on tables computed
once, so no pulse computes a probability, and a pulse whose row has one
possible outcome, such as a basis eigenstate, reads no key.
"""

from dataclasses import dataclass, fields
from typing import Sequence, get_args

import numpy as np

from .adversary import ChannelTable
from .errors import InvalidConfigError, KeyTooShortError
from .quantum import measure
from .stream import (
    ALICE_BASES, ALICE_BITS, BOB_BASES, FLIP, LOSS, PARITY, STAGES,
    key_blocks, keys, random_bits, threshold, values,
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
    """The choices drawn for every pulse, as columns of one byte per
    pulse: entry [s, i] of each array describes pulse i of session s."""

    alice_bits: np.ndarray  # uint8
    alice_bases: np.ndarray  # uint8 index into BASIS_ANGLES
    bob_bases: np.ndarray  # uint8 index into BASIS_ANGLES

    def __len__(self) -> int:
        """The number of pulses, over every session of a batch."""
        return self.alice_bits.size


@dataclass(frozen=True, eq=False)
class SessionBatch:
    """A batch of sessions, as columns, each fact stored once.

    ``pulses`` holds one row per session, and ``adversary`` the table that
    ``outcomes`` indexes.  The sifted arrays lay the sessions' sifted keys
    end to end: session s owns the ``lengths[s]`` entries from
    ``starts[s]`` on, ``sifted`` holds the flattened pulse index of each
    entry, ``outcomes`` the adversary's outcome there and ``sifted_bob``
    the receiver's bit.  ``kept`` marks, in the same layout, the positions
    no parity round discarded.  ``tripped`` holds, per session, the first
    of its ``rounds`` parity rounds whose parities differ, or ``rounds``
    when none does (``parity_verify``); ``detected`` derives each
    session's flag from it.
    """

    pulses: Pulses
    adversary: ChannelTable
    sifted: np.ndarray
    outcomes: np.ndarray
    lengths: np.ndarray
    starts: np.ndarray
    sifted_alice: np.ndarray
    sifted_bob: np.ndarray
    rounds: int
    tripped: np.ndarray
    kept: np.ndarray

    def __len__(self) -> int:
        return len(self.lengths)

    @property
    def detected(self) -> np.ndarray:
        """One flag per session: whether any of its parity rounds tripped,
        computed afresh on each read."""
        return self.tripped < self.rounds

    def reconciled(self, s: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Session s's post-parity key, the sender's sifted bits at the
        positions ``kept`` marks, and the adversary's guesses at the same
        positions (``None`` on a passive channel)."""
        start = self.starts[s]
        part = slice(start, start + self.lengths[s])
        kept = self.kept[part]
        guesses = self.guesses(part)
        return (self.sifted_alice[part][kept],
                None if guesses is None else guesses[kept])

    def guesses(self, at=slice(None)) -> np.ndarray | None:
        """The adversary's guesses ``guess_bits[outcome]`` at the entries
        ``at`` of the sifted layout, all of them by default; ``None`` on a
        passive channel."""
        if self.adversary.guess_bits is None:
            return None
        return np.take(self.adversary.guess_bits, self.outcomes[at])


def prepare_pulses(
    n: int, seeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` independent uniform bits, then ``n`` uniform bases, one
    row per seed; pulse i encodes bit i in basis i."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (random_bits(seeds, ALICE_BITS, n),
            random_bits(seeds, ALICE_BASES, n))


def sift(
    pulses: Pulses, efficiency: float, seeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Keep the pulses whose bases matched and that arrived.

    ``pulses`` holds one row of n pulses per seed.  Only a pulse whose
    bases matched reads a loss key, and only when ``efficiency < 1``: key
    i of the loss stage for pulse i, the pulse being lost when its key k
    has k * 2**-53 >= ``efficiency``, a 53-bit key against
    ceil(efficiency * 2**53).  Returns the sender's sifted key and the
    flat pulse indices it came from, which run over the flattened columns,
    session after session, the key laid end to end in the same order.
    """
    kept = np.flatnonzero(pulses.alice_bases == pulses.bob_bases)
    if efficiency < 1.0:
        edge = threshold(efficiency)
        arrived = np.empty(len(kept), dtype=bool)
        for part, drawn in key_blocks(seeds, LOSS, pulses.alice_bits.shape[1],
                                      kept):
            np.less(drawn, edge, out=arrived[part])
        kept = kept[arrived]
    return np.take(pulses.alice_bits, kept), kept


def transmit(
    codes: np.ndarray,
    adversary: ChannelTable,
    seeds: np.ndarray,
    n: int,
    sifted: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Pass the sifted pulses ``BQS[codes]``, pulse ``sifted[j]`` = s * n
    + i sending entry j, through the adversary to the receiver, who
    measures in the basis sent.  Returns the adversary's outcomes, indices
    into her table, and the receiver's bits, each read with key i of its
    stage of ``seeds[s]`` where its table leaves a choice.  The receiver's
    bit reads ``ChannelTable.receiver`` at (outcome, sent code), 0 where
    the channel never gives that pair, so a channel that forwards what it
    receives decides every bit with no key."""
    outcomes = adversary.intercept(codes, seeds, n, sifted)
    return outcomes, measure(adversary.receiver, outcomes, codes, seeds, n,
                             sifted)


def _low_bit(words: np.ndarray) -> np.ndarray:
    """Index of the lowest set bit of each nonzero uint64 value: the
    exponent of that bit alone, which a float holds exactly."""
    return np.frexp(words & (~words + np.uint64(1)))[1] - 1


def _first_coin(coins: np.ndarray) -> np.ndarray:
    """For each row of ``coins``, the index of its lowest set bit, bit i
    of a row being bit i mod 64 of value i // 64; 64 times the row width
    for a row whose values are all 0."""
    first = (coins != 0).argmax(axis=1)
    word = coins[np.arange(len(coins)), first]
    return np.where(word != 0, 64 * first + _low_bit(word),
                    64 * coins.shape[1])


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
    subset member from both keys.  On L live positions a differing key pair
    trips a round with probability 2**(L-1) / (2**L - 1), so ``rounds`` = k
    rounds over an L-bit key miss a difference with probability exactly
    (2**(L-k) - 1) / (2**L - 1), about 2**-k, at the cost of k bits.

    Round j draws its L - j coins from stage ``stream.PARITY + j``, in
    W = ceil((L - j) / 64) values, and attempt a at them takes the W
    values from a * W on.  Every round of every session is drawn and
    discards its member, whatever the keys: all rounds' first attempts are
    taken at once, only a round that came up empty is drawn again, and the
    discarded positions follow from the lowest set bits.  Only the positions
    where the keys differ are read, each at its live index, and a session
    stops at its first mismatch.  Returns (tripped, kept): per session,
    the first round whose two parities differ, or ``rounds`` when none
    does, and a mask over the keys laid end to end that marks the
    positions no round discarded.  No round's coins depend on ``rounds``,
    so the first k rounds detect a session exactly when tripped < k.
    ``tripped`` is no flag: a session that trips at round 0 holds 0.
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
    tripped = np.full(len(lengths), rounds, dtype=np.int64)
    kept = np.ones(len(alice), dtype=bool)
    if rounds == 0 or not len(lengths):
        return tripped, kept
    # Round j of session s is row j * sessions + s of ``coins``.
    sessions = len(lengths)
    live = (lengths - np.arange(rounds)[:, None]).ravel()
    row_seeds = np.tile(seeds, rounds)
    stages = PARITY + np.arange(rounds).repeat(sessions)
    # A round's first set coin at or past its live count leaves its live
    # coins all 0: the attempt came up empty and the next is drawn.
    sizes = (live + 63) // 64
    coins = values(row_seeds, stages, sizes)
    discarded = _first_coin(coins)
    empty = np.flatnonzero(discarded >= live)
    attempt = 0
    while len(empty):
        attempt += 1
        fresh = values(row_seeds[empty], stages[empty], sizes[empty],
                       attempt * sizes[empty])
        coins[empty, : fresh.shape[1]] = fresh
        discarded[empty] = _first_coin(fresh)
        empty = empty[discarded[empty] >= live[empty]]
    # Round j discards its lowest member, a live index, which becomes a key
    # position once the earlier discards are undone, latest first.
    discarded = discarded.reshape(rounds, sessions)
    positions = discarded.copy()
    for j in range(rounds - 2, -1, -1):
        later = positions[j + 1 :]
        later += later >= positions[j]
    starts = np.cumsum(lengths) - lengths
    kept[(positions + starts).ravel()] = False

    # A subset's two parities differ exactly when it holds an odd number
    # of the spots where the keys differ.  Spot k is bit at[k] of a round's
    # coins unpacked one row per session, row owner[k], below the round's
    # live count.  A session stops at its first mismatch, which sets its
    # tripped round; a discarded spot leaves, the ones above move down.
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
        tripped[trip] = j
        drop = (rows + discarded[j])[owner]
        stay = ~trip[owner] & (at != drop)
        at -= at > drop
        owner, at = owner[stay], at[stay]
    return tripped, kept


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
    sifted keys and outcomes, survivor mask ``kept`` and the round each
    session tripped at as a ``SessionBatch``.
    """
    n = config.n_pulses
    seeds = np.asarray(seeds, dtype=np.uint64)
    alice_bits, alice_bases = prepare_pulses(n, seeds)
    pulses = Pulses(alice_bits, alice_bases,
                    random_bits(seeds, BOB_BASES, n))
    sifted_alice, sifted = sift(pulses, config.efficiency, seeds)
    codes = 2 * np.take(alice_bases, sifted) + sifted_alice
    outcomes, sifted_bob = transmit(codes, adversary, seeds, n, sifted)
    # Session s owns the sifted indices in [s * n, (s + 1) * n).
    bounds = np.searchsorted(sifted, np.arange(len(seeds) + 1) * n)
    starts, lengths = bounds[:-1], np.diff(bounds)
    if flip:
        if not lengths.all():
            raise ValueError("no sifted bits to flip")
        u = keys(seeds, FLIP, 1)[:, 0] * 2.0**-53
        flipped = np.minimum((u * lengths).astype(np.int64), lengths - 1)
        sifted_bob[starts + flipped] ^= 1

    rounds = config.parity_rounds
    if rounds > 0:
        tripped, kept = parity_verify(
            sifted_alice, sifted_bob, rounds, seeds, lengths
        )
    else:
        tripped = np.zeros(len(seeds), dtype=np.int64)
        kept = np.ones(len(sifted), dtype=bool)
    return SessionBatch(
        pulses=pulses,
        adversary=adversary,
        sifted=sifted,
        outcomes=outcomes,
        lengths=lengths,
        starts=starts,
        sifted_alice=sifted_alice,
        sifted_bob=sifted_bob,
        rounds=rounds,
        tripped=tripped,
        kept=kept,
    )


def run_session(
    config: SessionConfig, adversary: ChannelTable, seed: int
) -> SessionBatch:
    """Execute the one session of seed ``seed``: ``run_batch`` on a batch
    of one."""
    return run_batch(config, adversary, [seed])
