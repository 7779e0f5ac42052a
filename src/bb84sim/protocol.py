"""BB84 session engine.

One session runs the full exchange between the two legitimate parties:
pulse preparation, transit through the (possibly hostile) channel with
detector loss, measurement, basis reconciliation and sifting, then the
parity-verification rounds that certify the sifted keys agree.  Basis
reconciliation happens over an implicit authenticated, error-free public
channel; only its outcome is modeled.

Each stage works on a whole session at once: pulse i of a session is
entry i of a set of numpy columns, and every stage draws its randomness in
bulk (see ``harness`` for the order of the draws).  A basis is stored as
its index into ``BASES`` (0 rectilinear, 1 diagonal), and a signal state
as its index into ``BQS``, ``2 * basis + bit``.
"""

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .adversary import EveStrategy
from .errors import InvalidConfigError, KeyTooShortError
from .quantum import BASIS_ANGLES, measure
from .stream import random_bits, uniforms


@dataclass(frozen=True, slots=True)
class SessionConfig:
    """Knobs for one protocol run."""

    n_pulses: int
    efficiency: float = 1.0  # probability a pulse survives to the detector
    parity_rounds: int = 0

    def __post_init__(self):
        if self.n_pulses < 1:
            raise InvalidConfigError("n_pulses must be >= 1")
        if not 0.0 < self.efficiency <= 1.0:
            raise InvalidConfigError("efficiency must be in (0, 1]")
        if self.parity_rounds < 0:
            raise InvalidConfigError("parity_rounds must be >= 0")


@dataclass(frozen=True, eq=False)
class Pulses:
    """Everything that happened to the transmitted quantum bits of one
    session, as columns: entry i of each array describes pulse i."""

    alice_bits: np.ndarray  # uint8
    alice_bases: np.ndarray  # uint8 index into BASES
    forwarded: np.ndarray  # float64 ray angle the adversary sent on
    eve_guesses: np.ndarray | None  # uint8; None on a passive channel
    lost: np.ndarray  # bool, the pulse never reached the detector
    bob_bases: np.ndarray  # uint8 index into BASES
    bob_bits: np.ndarray  # int8 measured bit, -1 where lost

    def __len__(self) -> int:
        return len(self.alice_bits)


@dataclass(frozen=True, eq=False)
class ParityRound:
    """One public parity comparison over a subset of sifted positions.

    Positions index into the sifted key.  The discarded position is the
    lowest-indexed member of the subset, removed from both keys to pay for
    the publicly revealed parity bit.  The subset is kept as a bitmask over
    the key, packed eight positions to a byte.
    """

    members: np.ndarray
    alice_parity: int
    bob_parity: int
    discarded_position: int

    @property
    def subset(self) -> np.ndarray:
        """The compared positions, ascending."""
        return np.flatnonzero(np.unpackbits(self.members))


@dataclass(frozen=True, eq=False)
class SessionTranscript:
    """Complete record of one session.

    ``sifted`` holds the pulse indices that survived sifting, and
    ``sifted_alice``/``sifted_bob`` the two keys read at them.
    ``reconciled_key`` holds the sender's post-parity key and is present
    only when no round detected a mismatch.
    """

    pulses: Pulses
    sifted: np.ndarray
    sifted_alice: np.ndarray
    sifted_bob: np.ndarray
    parity_rounds: list[ParityRound]
    detected: bool
    reconciled_key: np.ndarray | None

    @property
    def qber(self) -> float:
        """Mismatch fraction of the sifted keys (0.0 when nothing sifted)."""
        return bit_error_rate(self.sifted_alice, self.sifted_bob)

    @property
    def eve_bits(self) -> np.ndarray | None:
        """Adversary guesses aligned to the sifted positions, or ``None``
        for a passive channel."""
        guesses = self.pulses.eve_guesses
        return None if guesses is None else guesses[self.sifted]

    @property
    def eve_reconciled_guess(self) -> np.ndarray | None:
        """Adversary guesses restricted to the positions that survived the
        parity rounds, aligned with ``reconciled_key``."""
        guess = self.eve_bits
        if guess is None:
            return None
        dropped = [r.discarded_position for r in self.parity_rounds]
        return np.delete(guess, dropped)


def bit_error_rate(a: Sequence[int], b: Sequence[int]) -> float:
    if len(a) != len(b):
        raise ValueError("bit strings must have equal length")
    if len(a) == 0:
        return 0.0
    return int(np.count_nonzero(np.not_equal(a, b))) / len(a)


def prepare_pulses(
    n: int, rng: random.Random
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` independent uniform bits, then ``n`` uniform bases;
    pulse i encodes bit i in basis i."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return random_bits(rng, n), random_bits(rng, n)


def transmit(
    codes: np.ndarray,
    adversary: EveStrategy,
    efficiency: float,
    rng: random.Random,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Pass the pulses ``BQS[codes]`` through the adversary, then through
    detector loss.

    The adversary draws one uniform per pulse; loss draws one per pulse
    when ``efficiency < 1``, and a pulse is lost when its uniform is at
    least ``efficiency``.  Returns the
    forwarded ray angles, the adversary's guesses (``None`` for a passive
    channel) and the loss mask.  The adversary acts before loss, so her
    guess exists even for lost pulses.
    """
    n = len(codes)
    forwarded, guesses = adversary.intercept(codes, uniforms(rng, n))
    if efficiency < 1.0:
        lost = uniforms(rng, n) >= efficiency
    else:
        lost = np.zeros(n, dtype=bool)
    return forwarded, guesses, lost


def sift(pulses: Pulses) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep positions where the pulse arrived and the bases matched.

    Returns the sender's sifted key, the receiver's, and the pulse indices
    they came from.
    """
    matched = pulses.alice_bases == pulses.bob_bases
    kept = np.flatnonzero(matched & ~pulses.lost)
    return (
        pulses.alice_bits[kept],
        pulses.bob_bits[kept].view(np.uint8),
        kept,
    )


def parity_verify(
    alice_bits: Sequence[int],
    bob_bits: Sequence[int],
    rounds: int,
    rng: random.Random,
) -> tuple[bool, np.ndarray, np.ndarray, list[ParityRound]]:
    """Run ``rounds`` public random-subset parity comparisons.

    Each round samples a uniform nonempty subset of the still-live
    positions (one fair coin per live position, in ascending order, all
    drawn again if none comes up 1), compares the two parities, and
    discards the lowest-indexed subset member from both keys.  A differing
    key pair trips a round with probability 1/2, so ``rounds`` independent
    rounds certify agreement except with probability ~2**-rounds, at the
    cost of ``rounds`` bits.

    Returns (detected, reconciled_alice, reconciled_bob, round records).
    All rounds run even after a detection; the detected flag is the OR of
    the per-round mismatches.
    """
    alice = np.asarray(alice_bits, dtype=np.uint8)
    bob = np.asarray(bob_bits, dtype=np.uint8)
    if len(alice) != len(bob):
        raise ValueError("keys must have equal length")
    length = len(alice)
    if length <= rounds:
        raise KeyTooShortError(
            f"key of length {length} cannot support {rounds} parity rounds"
        )
    alice_ones, bob_ones = alice.astype(bool), bob.astype(bool)
    alive = np.ones(length, dtype=bool)
    detected = False
    records: list[ParityRound] = []
    for done in range(rounds):
        members = np.zeros(length, dtype=bool)
        while True:
            members[alive] = random_bits(rng, length - done).view(bool)
            first = int(members.argmax())
            if members[first]:
                break
        alice_parity = int(np.count_nonzero(alice_ones & members)) & 1
        bob_parity = int(np.count_nonzero(bob_ones & members)) & 1
        detected |= alice_parity != bob_parity
        alive[first] = False
        records.append(
            ParityRound(np.packbits(members), alice_parity, bob_parity, first)
        )
    return detected, alice[alive], bob[alive], records


def run_session(
    config: SessionConfig, adversary: EveStrategy, rng: random.Random
) -> SessionTranscript:
    """Execute one full session and return its transcript.

    Randomness is consumed stage by stage, in the order documented in
    ``harness``, so identical seeds yield identical transcripts.  With
    ``parity_rounds == 0`` verification is skipped and the sifted key is
    taken as reconciled.
    """
    n = config.n_pulses
    alice_bits, alice_bases = prepare_pulses(n, rng)
    bob_bases = random_bits(rng, n)
    forwarded, guesses, lost = transmit(
        2 * alice_bases + alice_bits, adversary, config.efficiency, rng
    )
    bob_bits = measure(forwarded, BASIS_ANGLES[bob_bases], rng).view(np.int8)
    bob_bits[lost] = -1
    pulses = Pulses(
        alice_bits, alice_bases, forwarded, guesses, lost, bob_bases, bob_bits
    )
    sifted_alice, sifted_bob, sifted = sift(pulses)

    if config.parity_rounds > 0:
        detected, reconciled, _, rounds = parity_verify(
            sifted_alice, sifted_bob, config.parity_rounds, rng
        )
    else:
        detected, reconciled, rounds = False, sifted_alice, []

    return SessionTranscript(
        pulses=pulses,
        sifted=sifted,
        sifted_alice=sifted_alice,
        sifted_bob=sifted_bob,
        parity_rounds=rounds,
        detected=detected,
        reconciled_key=None if detected else reconciled,
    )
