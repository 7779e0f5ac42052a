"""Bulk draws from a session's ``random.Random``.

Every stage of a session takes its randomness through these two functions,
one ``rng.getrandbits(k)`` call per batch unpacked by numpy, so the number
of generator outputs a stage consumes depends only on how many values it
asks for.  ``getrandbits(k)`` fills its result from consecutive 32-bit
Mersenne Twister outputs, least significant first, which makes bit i of
the word bit i of the stream.
"""

import random

import numpy as np

_TWO_POW_26 = 67108864.0
_TWO_POW_MINUS_53 = 1.0 / 9007199254740992.0
# Items a batched stage handles at a time, which bounds its temporaries.
BLOCK = 1 << 13


def _word_bytes(rng: random.Random, k: int) -> np.ndarray:
    """The word ``rng.getrandbits(k)`` as little-endian bytes."""
    word = rng.getrandbits(k)
    return np.frombuffer(word.to_bytes((k + 7) // 8, "little"), np.uint8)


def random_bits(rng: random.Random, k: int) -> np.ndarray:
    """``k`` fair bits as a uint8 array: bit i of ``rng.getrandbits(k)``."""
    return np.unpackbits(_word_bytes(rng, k), count=k, bitorder="little")


def uniforms(rng: random.Random, n: int) -> np.ndarray:
    """``n`` floats in [0, 1) with 53 random bits each.

    Value i is built from 32-bit outputs 2i and 2i + 1 exactly as
    ``random.Random.random`` builds one, so the array equals ``n``
    successive ``rng.random()`` calls.  The words are drawn ``BLOCK``
    values at a time; since ``getrandbits`` of a multiple of 32 bits
    consumes whole outputs in order, the blocking does not change them.
    """
    out = np.empty(n)
    for start in range(0, n, BLOCK):
        count = min(BLOCK, n - start)
        words = _word_bytes(rng, 64 * count).view("<u4")
        chunk = out[start : start + count]
        np.right_shift(words[0::2], 5, out=chunk, casting="unsafe")
        chunk *= _TWO_POW_26
        chunk += words[1::2] >> 6
        chunk *= _TWO_POW_MINUS_53
    return out
