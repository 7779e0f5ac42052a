"""Privacy amplification by binary Toeplitz hashing.

The reconciled key W (n bits) is compressed to K = G(W) with r = n - t - s
bits, where t is the information the adversary is assumed to hold about W
and s the security margin.  G is drawn publicly at random from the
2-universal family of binary Toeplitz matrices, described by n + r - 1
seed bits; evaluation is a mod-2 convolution.

The module also provides an empirical check of what the adversary still
knows after compression: the per-bit agreement of G applied to her guessed
key with the true final key.  G is linear over XOR, so the two agree exactly
where G(key XOR guess) is 0, and one hash of the difference measures it.
Linearity also gives G(0) = 0: a zero key maps to zero with no transform,
so an exact guess, such as the oracle adversary's, costs no hash.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParamsError, LengthMismatchError
from .protocol import SessionBatch
from .stream import TOEPLITZ, derive_seed, random_bits


@dataclass(frozen=True, slots=True)
class PrivacyParams:
    """Compression parameters: n input bits, t assumed leaked bits, and a
    margin of s extra bits dropped for security."""

    input_bits: int
    leak_bits: int
    margin_bits: int

    def __post_init__(self):
        if not 0 <= self.leak_bits < self.input_bits:
            raise InvalidParamsError(
                f"leak_bits must satisfy 0 <= t < n, got t={self.leak_bits}, "
                f"n={self.input_bits}"
            )
        if not 0 < self.margin_bits < self.input_bits - self.leak_bits:
            raise InvalidParamsError(
                f"margin_bits must satisfy 0 < s < n - t, got "
                f"s={self.margin_bits}, n - t = {self.input_bits - self.leak_bits}"
            )

    @property
    def output_bits(self) -> int:
        return self.input_bits - self.leak_bits - self.margin_bits


@dataclass(frozen=True)
class HashDescriptor:
    """A binary Toeplitz map from n-bit to r-bit strings.

    ``seed_bits`` (length n + r - 1) fills the Toeplitz diagonals: row i of
    the matrix is ``seed_bits[i : i + n]`` reversed.
    """

    input_bits: int
    output_bits: int
    seed_bits: np.ndarray

    def __post_init__(self):
        expected = self.input_bits + self.output_bits - 1
        if len(self.seed_bits) != expected:
            raise InvalidParamsError(
                f"seed must have n + r - 1 = {expected} bits, "
                f"got {len(self.seed_bits)}"
            )


def sample_hash(params: PrivacyParams, seed: int) -> HashDescriptor:
    """Draw a uniformly random descriptor, its n + r - 1 seed bits from the
    Toeplitz stage of the session seed ``seed``; safe to publish."""
    seed_length = params.input_bits + params.output_bits - 1
    return HashDescriptor(
        input_bits=params.input_bits,
        output_bits=params.output_bits,
        seed_bits=random_bits([seed], TOEPLITZ, seed_length)[0],
    )


def compress(key: Sequence[int], descriptor: HashDescriptor) -> np.ndarray:
    """Apply the descriptor's map: K_i = sum_j T[i, j] W_j mod 2.

    With T[i, j] = seed[i + n - 1 - j] every output bit is coefficient
    n - 1 + i of the seed/key convolution.  That window lies inside the
    first n + r - 1 coefficients, so a cyclic convolution of any length
    L >= n + r - 1 leaves it free of wrap-around; it is computed by a real
    FFT at the next power of two, O((n + r) log(n + r)).  The coefficients
    are integer counts, which rounding recovers while the float error stays
    small; should any of them land 0.25 or more from an integer, the map
    falls back to the direct O(n r) ``np.convolve``.  Linear over XOR by
    construction, so a key with no set bit maps to r zeros, returned with
    no transform.
    """
    bits = np.asarray(key, dtype=np.uint8)
    n = descriptor.input_bits
    if bits.ndim != 1 or len(bits) != n:
        raise LengthMismatchError(
            f"key must have exactly {n} bits, got {len(bits)}"
        )
    r = descriptor.output_bits
    if not bits.any():
        return np.zeros(r, dtype=np.uint8)
    seed = descriptor.seed_bits
    size = 1 << (len(seed) - 1).bit_length()
    spectrum = np.fft.rfft(seed.astype(np.float64), size)
    spectrum *= np.fft.rfft(bits.astype(np.float64), size)
    window = np.fft.irfft(spectrum, size)[n - 1 : n - 1 + r]
    counts = np.rint(window)
    window -= counts
    if np.abs(window).max() >= 0.25:
        full = np.convolve(seed.astype(np.int64), bits.astype(np.int64))
        return (full[n - 1 : n - 1 + r] % 2).astype(np.uint8)
    return (counts.astype(np.int64) & 1).astype(np.uint8)


def hashed_guess_advantage(
    key: Sequence[int], guess: Sequence[int], descriptor: HashDescriptor
) -> float:
    """Per-bit agreement of the hashed guess with the hashed key, minus 1/2.

    The map is linear over XOR, so the two hashes agree exactly where the
    hash of ``key ^ guess`` is 0: one ``compress`` call on the difference
    gives the same agreement as hashing both and comparing them.
    """
    key_bits = np.asarray(key, dtype=np.uint8)
    guess_bits = np.asarray(guess, dtype=np.uint8)
    if key_bits.shape != guess_bits.shape:
        raise LengthMismatchError(
            f"guess must have as many bits as the key ({len(key_bits)}), "
            f"got {len(guess_bits)}"
        )
    agree = compress(key_bits ^ guess_bits, descriptor) == 0
    return float(np.mean(agree)) - 0.5


def eve_residual_information(
    batch: SessionBatch, params: PrivacyParams, seed: int
) -> float:
    """Empirical per-bit advantage of the adversary's guess of the final key.

    For each session s of the batch, the first ``params.input_bits`` bits
    of the reconciled key and the adversary's aligned guesses are compared
    under the public hash ``sample_hash(params, derive_seed(seed, s))``,
    which is session s's own when the batch ran sessions 0 to len - 1 of
    master seed ``seed``, by one hash of their difference
    (``hashed_guess_advantage``), and the per-bit agreement of the hashed
    guess with the hashed key is averaged.  Returned is the mean agreement
    advantage over one half, clamped to [0, 0.5].  A passive channel leaves
    no guesses, and its batch returns 0.0.
    """
    if not len(batch):
        raise ValueError("batch must hold at least one session")
    n = params.input_bits
    detected = batch.detected
    advantages = []
    for s in range(len(batch)):
        key, guess = batch.reconciled(s)
        if guess is None:
            return 0.0
        if detected[s]:
            raise ValueError(
                f"session {s} has no reconciled key (it was detected)"
            )
        if len(key) < n:
            raise LengthMismatchError(
                f"reconciled key has {len(key)} bits, need {n}"
            )
        descriptor = sample_hash(params, derive_seed(seed, s))
        advantages.append(
            hashed_guess_advantage(key[:n], guess[:n], descriptor)
        )
    mean = sum(advantages) / len(advantages)
    return min(0.5, max(0.0, mean))
