"""BB84 session engine.

One session runs the full exchange between the two legitimate parties:
pulse preparation, transit through the (possibly hostile) channel with
detector loss, measurement, basis reconciliation and sifting, then the
parity-verification rounds that certify the sifted keys agree.  Basis
reconciliation happens over an implicit authenticated, error-free public
channel; only its outcome is modeled.

Sessions run in batches.  ``run_batch`` holds a batch of sessions as numpy
columns with one row per session, pulse i of session s being entry [s, i],
and every stage handles the whole batch at once.  Every stage takes its
randomness as a ``stream.Words`` batch, drawing in bulk from each
session's own generator (see ``harness`` for the order of the draws), and
returns one row per session; ``run_session`` is a batch of one.  A basis
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

import random
from dataclasses import dataclass, fields
from typing import Sequence, get_args

import numpy as np

from .adversary import ChannelTable
from .errors import InvalidConfigError, KeyTooShortError
from .quantum import measure
from .stream import BLOCK, Words, keys, random_bits, threshold


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
        if self.parity_rounds < 0:
            raise InvalidConfigError("parity_rounds must be >= 0")


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


def prepare_pulses(n: int, words: Words) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` independent uniform bits, then ``n`` uniform bases, one
    row per session; pulse i encodes bit i in basis i."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return random_bits(words, n), random_bits(words, n)


def transmit(
    codes: np.ndarray,
    adversary: ChannelTable,
    efficiency: float,
    words: Words,
) -> tuple[np.ndarray, np.ndarray]:
    """Pass the pulses ``BQS[codes]`` through the adversary, then through
    detector loss.

    ``codes`` holds one row of pulses per session.  The adversary draws one
    53-bit key per pulse; then, when ``efficiency < 1``, loss draws one per
    pulse, and a pulse is lost when its key k has k * 2**-53 >=
    ``efficiency``, a 53-bit key against ceil(efficiency * 2**53).  A table
    without ``reads_keys`` (``none``, ``indirect-oracle``) still consumes
    its keys' outputs, through ``Words.skip``, but nothing decodes them.
    Returns the adversary's outcomes (indices into her table) and the loss
    mask.  The adversary acts before loss, so her outcome exists even for
    lost pulses.
    """
    blocks = [np.s_[:, start : start + BLOCK]
              for start in range(0, codes.shape[1], BLOCK)]
    outcomes = np.empty(codes.shape, dtype=np.uint8)
    for block in blocks:
        sent = codes[block]
        drawn = None
        if adversary.reads_keys:
            drawn = keys(words, sent.shape[1])
        else:
            words.skip(2 * sent.shape[1])  # two outputs per key
        outcomes[block] = adversary.intercept(sent, drawn)
    lost = np.zeros(codes.shape, dtype=bool)
    if efficiency < 1.0:
        edge = threshold(efficiency)
        for block in blocks:
            np.greater_equal(keys(words, lost[block].shape[1]), edge,
                             out=lost[block])
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


_ODD = np.array([bin(byte).count("1") & 1 for byte in range(256)], np.uint8)


def _row_parity(words: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each row of uint32 words: the XOR of the
    row folded to one byte, read off ``_ODD``."""
    folded = np.bitwise_xor.reduce(words, axis=1)
    folded ^= folded >> 16
    folded ^= folded >> 8
    return _ODD[folded & 0xFF]


def _low_bit(words: np.ndarray) -> np.ndarray:
    """Index of the lowest set bit of each nonzero uint32 word: the
    exponent of that bit alone, which a float holds exactly."""
    return np.frexp(words & (~words + np.uint32(1)))[1] - 1


# _BELOW[k] has the k low bits of a word set, for k in [0, 32].
_BELOW = np.array([(1 << k) - 1 for k in range(33)], np.uint32)


def _drop_bit(words: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Each row of uint32 words read as one bit string, bit i in bit
    i % 32 of word i // 32, with bit ``index[s]`` of row s taken out and
    the bits above it moved down one place."""
    shifted = words >> 1
    shifted[:, :-1] |= words[:, 1:] << 31
    # Word c keeps its bits below index - 32c from ``words``.
    reach = index[:, None] - 32 * np.arange(words.shape[1])
    below = np.take(_BELOW, reach, mode="clip")
    return shifted ^ ((words ^ shifted) & below)


def _aligned(
    outputs: np.ndarray, offsets: np.ndarray, live: np.ndarray
) -> np.ndarray:
    """A copy of ``outputs`` in which round j of session s, the
    ceil(live[j, s] / 32) outputs of row s from column ``offsets[j, s]``,
    has its last output shifted to give its high bits when live[j, s] is
    not a multiple of 32, so that coin i of the round is bit i % 32 of its
    word i // 32."""
    coins = np.array(outputs)
    last = offsets + (live + 31) // 32 - 1
    coins[np.arange(len(coins)), last] >>= ((-live) % 32).astype(np.uint32)
    return coins


def _first_words(
    coins: np.ndarray, offsets: np.ndarray, live: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For round j of session s, entry [j, s], the index of the first
    nonzero word of its coins in ``coins`` (see ``_aligned``) and that
    word, 0 for a round whose coins all came up 0."""
    sessions = np.arange(len(coins))
    lowest = coins[sessions, offsets]
    first = np.zeros(live.shape, dtype=np.int64)
    # A round's first word is zero only when all its coins there are.
    rare = np.flatnonzero(lowest == 0)
    if len(rare):
        sizes = (live.ravel()[rare] + 31) // 32
        columns = np.arange(sizes.max())
        starts = offsets.ravel()[rare] + rare % len(sessions) * coins.shape[1]
        words = np.take(coins, starts[:, None] + columns, mode="clip")
        words *= columns < sizes[:, None]
        found = (words != 0).argmax(axis=1)
        first.reshape(-1)[rare] = found
        lowest.reshape(-1)[rare] = words[np.arange(len(rare)), found]
    return first, lowest


def _append(
    outputs: np.ndarray, filled: np.ndarray, fresh: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """``outputs`` with the first ``counts[s]`` columns of ``fresh[s]``
    placed after the ``filled[s]`` columns of row s."""
    width = max(outputs.shape[1], int((filled + counts).max()))
    grown = np.zeros((len(outputs), width), outputs.dtype)
    grown[:, : outputs.shape[1]] = outputs
    for s in np.flatnonzero(counts):
        grown[s, filled[s] : filled[s] + counts[s]] = fresh[s, : counts[s]]
    return grown


def parity_verify(
    alice_bits: Sequence[int],
    bob_bits: Sequence[int],
    rounds: int,
    words: Words,
    lengths: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Run ``rounds`` public random-subset parity comparisons on the keys
    of a batch of sessions.

    The keys lay the sessions' keys end to end, session s owning
    ``lengths[s]`` bits and drawing from row s of ``words``; ``lengths``
    must hold one entry per row and sum to the key length, or
    ``ValueError`` is raised.  Each round of a session samples a uniform
    nonempty subset of the still-live positions (one fair coin per live
    position, in ascending order, all drawn again if none comes up 1),
    compares the two parities, and discards the lowest-indexed subset
    member from both keys.  A differing key pair trips a round with
    probability 1/2, so ``rounds`` independent rounds certify agreement
    except with probability ~2**-rounds, at the cost of ``rounds`` bits.

    Every round of every session is drawn and discards its member, whatever
    the keys: all rounds' coins are taken at once, as packed 32-bit words,
    a session whose subset came up empty draws that round again, and the
    discarded positions follow from the lowest set bits.  A parity is
    computed only where it can change a flag, for a session whose keys
    differ, up to its first mismatch.  Returns (detected, kept): a flag per
    session, the OR of its per-round mismatches, and a mask over the keys
    laid end to end that marks the positions no round discarded.
    """
    alice = np.asarray(alice_bits, dtype=np.uint8)
    bob = np.asarray(bob_bits, dtype=np.uint8)
    lengths = np.asarray(lengths)
    if len(alice) != len(bob):
        raise ValueError("keys must have equal length")
    if len(lengths) != len(words):
        raise ValueError(
            f"{len(lengths)} key lengths for {len(words)} sessions"
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
    if rounds == 0:
        return detected, kept
    # Round j draws one coin per live position, L - j of them, in
    # ceil((L - j) / 32) outputs.  All rounds' outputs are taken at once;
    # round j of session s is entry [j, s] below.
    live = lengths - np.arange(rounds)[:, None]
    sizes = (live + 31) // 32
    offsets = np.cumsum(sizes, axis=0) - sizes
    filled = sizes.sum(axis=0)
    outputs = words.take(filled)
    while True:
        coins = _aligned(outputs, offsets, live)
        first, lowest = _first_words(coins, offsets, live)
        drew = lowest != 0
        if drew.all():
            break
        # A session's first empty round draws again from its next outputs,
        # which moves its later rounds on.
        redo = drew.argmin(axis=0)
        extra = np.where(drew.all(axis=0), 0,
                         sizes[redo, np.arange(len(lengths))])
        offsets += np.where(np.arange(rounds)[:, None] >= redo, extra, 0)
        outputs = _append(outputs, filled, words.take(extra), extra)
        filled += extra
    # Round j discards its lowest member, a live index, which becomes a key
    # position once the earlier discards are undone, latest first.
    discarded = 32 * first + _low_bit(lowest)
    positions = discarded.copy()
    for j in range(rounds - 2, -1, -1):
        later = positions[j + 1 :]
        later += later >= positions[j]
    starts = np.cumsum(lengths) - lengths
    kept[(positions + starts).ravel()] = False

    # A subset's two parities differ exactly when it holds an odd number
    # of the positions where the keys differ.  Sessions with equal keys
    # never trip, and the others stop at their first mismatch.
    spots = np.flatnonzero(alice != bob)
    if not len(spots):
        return detected, kept
    owner = np.searchsorted(starts + lengths, spots, side="right")
    active = np.flatnonzero(np.bincount(owner, minlength=len(lengths)))
    columns = np.arange(sizes[0].max())
    rows = np.zeros((len(lengths), 32 * len(columns)), np.uint8)
    rows[owner, spots - starts[owner]] = 1
    # Bit i of a row marks live index i of the round at hand, so the words
    # read past a round's own, which belong to later rounds, meet zeros.
    differ = np.packbits(rows[active], axis=1, bitorder="little")
    differ = differ.view(coins.dtype)
    at = offsets + np.arange(len(lengths)) * coins.shape[1]
    for j in range(rounds):
        drawn = np.take(coins, at[j, active, None] + columns, mode="clip")
        trip = _row_parity(drawn & differ) != 0
        detected[active[trip]] = True
        active, differ = active[~trip], differ[~trip]
        if not len(active) or j + 1 == rounds:
            break
        differ = _drop_bit(differ, discarded[j, active])
    return detected, kept


def run_batch(
    config: SessionConfig,
    adversary: ChannelTable,
    rngs: Sequence[random.Random],
    flip: bool = False,
) -> SessionBatch:
    """Execute one full session per generator in ``rngs``, as one batch.

    Session s draws from ``rngs[s]``, stage by stage in the order
    documented in ``harness``, whatever else the batch holds, so its
    columns and its generator's end state are those of a batch of one.
    The outputs of the stages up to verification are drawn ahead, one
    ``getrandbits`` call per session when they fit ``stream.Words``'s
    budget.  With ``parity_rounds == 0`` verification is skipped and the
    sifted key is taken as reconciled.  With ``flip``, one key k per
    session, drawn after the measurements, flips receiver sifted bit
    floor(u * L) of the L-bit key before verification, for the uniform
    u = k * 2**-53; a session without sifted bits then raises
    ``ValueError``.  An error of any session raises.  Returns the batch's
    pulse columns, the adversary's table, sifted keys, survivor mask
    ``kept`` and detection flags as a ``SessionBatch``.
    """
    n = config.n_pulses
    words = Words(rngs)
    # Steps 1-6 of the draw order: three n-bit draws, then n keys for the
    # adversary, for loss below full efficiency and for measurement, and
    # with ``flip`` one more key.
    key_stages = 3 if config.efficiency < 1.0 else 2
    words.prefetch(3 * ((n + 31) // 32) + 2 * n * key_stages + 2 * flip)
    alice_bits, alice_bases = prepare_pulses(n, words)
    bob_bases = random_bits(words, n)
    outcomes, lost = transmit(
        2 * alice_bases + alice_bits, adversary, config.efficiency, words
    )
    bob_bits = measure(
        adversary.bit0_thresholds, outcomes, bob_bases, words
    ).view(np.int8)
    bob_bits[lost] = -1
    pulses = Pulses(alice_bits, alice_bases, outcomes, bob_bases, bob_bits)
    sifted_alice, sifted_bob, sifted = sift(pulses)
    # Session s owns the sifted indices in [s * n, (s + 1) * n).
    bounds = np.searchsorted(sifted, np.arange(len(words) + 1) * n)
    starts, lengths = bounds[:-1], np.diff(bounds)
    if flip:
        if not lengths.all():
            raise ValueError("no sifted bits to flip")
        u = keys(words, 1)[:, 0] * 2.0**-53
        flipped = np.minimum((u * lengths).astype(np.int64), lengths - 1)
        sifted_bob[starts + flipped] ^= 1

    if config.parity_rounds > 0:
        detected, kept = parity_verify(
            sifted_alice, sifted_bob, config.parity_rounds, words, lengths
        )
    else:
        detected = np.zeros(len(words), dtype=bool)
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
    config: SessionConfig, adversary: ChannelTable, rng: random.Random
) -> SessionBatch:
    """Execute one full session drawing from ``rng``: ``run_batch`` on a
    batch of one."""
    return run_batch(config, adversary, [rng])
