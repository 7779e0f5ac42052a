"""Bulk draws from the ``random.Random`` generators of a batch of sessions.

Every stage of a session takes its randomness as a ``Words`` batch, with
one row per session (a lone session is a batch of one), and draws through
``random_bits`` and ``keys``, which return one row per session.  Both read
the 32-bit Mersenne Twister outputs of each session's generator in order
and decode them with numpy, so the outputs a stage consumes depend only on
how many values it asks for; values nothing reads are consumed through
``Words.skip`` without decoding.  A k-bit draw consumes ceil(k / 32) outputs,
as ``rng.getrandbits(k)`` does: bit i of the draw is bit i of the
concatenated outputs, least significant first, except that a draw with
k mod 32 = m > 0 takes the *high* m bits of its last output.  A key
consumes two outputs: it is the 53-bit integer k for which
``random.Random.random`` would return k * 2**-53.

Every random decision is a 53-bit key against ceil(p * 2**53), the
``threshold`` of its probability p: for u = k * 2**-53 and any float p in
[0, 1], u >= p exactly when k >= ceil(p * 2**53), since p * 2**53 is
exact.  So a decision made on keys is the one ``random() >= p`` makes,
with no float in between.

Because every draw consumes whole outputs, a session's outputs can be
drawn in pieces of any size without changing any value: one
``getrandbits(32 * w)`` call yields the next w outputs.  ``Words`` is
the one class that draws from a generator: ``Words._draw`` for outputs a
stage reads, ``Words.skip`` for outputs it only consumes.
"""

import numpy as np

_TWO_POW_53 = 9007199254740992.0
# Items a batched stage handles at a time, which bounds its temporaries.
BLOCK = 1 << 13
# Most outputs ``Words.prefetch`` draws ahead for a whole batch.
_PREFETCH = 8 * BLOCK


class Words:
    """The 32-bit outputs of a batch of generators: row s reads those of
    ``rngs[s]``, in order.

    Outputs are drawn when ``take`` or ``skip`` asks for them, or ahead of
    time by ``prefetch``, one ``getrandbits`` call per row and draw, however
    many outputs it holds: no draw is split into pieces.  Nothing is drawn
    beyond what is asked for, so once every prefetched output has been
    taken or skipped each generator stands where the same draws made on it
    one by one would leave it.
    """

    def __init__(self, rngs):
        self.rngs = list(rngs)
        self._ahead = None  # outputs drawn ahead, one row per generator

    def __len__(self) -> int:
        return len(self.rngs)

    def prefetch(self, count: int) -> None:
        """Draw the next ``count`` outputs of every row now, when the
        batch's total stays within a fixed budget; past it, ``take`` draws
        them as they are needed.  The caller must go on to take them all,
        the same number from every row."""
        if count * len(self) <= _PREFETCH:
            drawn = self._draw(count)
            self._ahead = (drawn if self._ahead is None
                           else np.concatenate([self._ahead, drawn], 1))

    def take(self, counts) -> np.ndarray:
        """The next ``counts[s]`` outputs of row s (a scalar serves every
        row), as a uint32 array of shape (rows, max count) that must not be
        written to; row s holds its outputs in its first ``counts[s]``
        columns and zeros after them."""
        ahead = self._ahead
        if ahead is None:
            return self._draw(counts)
        if np.ndim(counts) or counts > ahead.shape[1]:
            raise ValueError("prefetched outputs must be taken evenly, "
                             "no more than are held")
        self._ahead = ahead[:, counts:] if counts < ahead.shape[1] else None
        return ahead[:, :counts]

    def skip(self, counts) -> None:
        """Move row s past its next ``counts[s]`` outputs (a scalar serves
        every row) without reading them, for a stage whose values nothing
        reads.  Each generator ends where ``take`` would leave it: held
        outputs are dropped under the rules ``take`` enforces, and outputs
        not held are drawn by one ``getrandbits`` call per row whose int is
        discarded unconverted."""
        if self._ahead is not None:
            self.take(counts)
            return
        rows = counts.tolist() if np.ndim(counts) else [counts] * len(self)
        for rng, count in zip(self.rngs, rows):
            rng.getrandbits(32 * count)

    def _draw(self, counts) -> np.ndarray:
        rows = counts.tolist() if np.ndim(counts) else [counts] * len(self)
        width = max(rows, default=counts)
        data = np.frombuffer(b"".join([
            rng.getrandbits(32 * count).to_bytes(4 * count, "little")
            for rng, count in zip(self.rngs, rows)
        ]), "<u4")
        if min(rows, default=width) == width:
            return data.reshape(len(self), width)
        words = np.zeros((len(self), width), "<u4")
        words[np.arange(width) < counts[:, None]] = data
        return words


def random_bits(words: Words, k: int) -> np.ndarray:
    """``k`` fair bits as uint8 per generator: row s holds bit i of
    ``words.rngs[s].getrandbits(k)`` in column i."""
    block = np.array(words.take((k + 31) // 32))
    if k % 32:
        # A partial last output gives its high bits.
        block[:, -1] >>= 32 - k % 32
    return np.unpackbits(block.view(np.uint8), axis=1, count=k,
                         bitorder="little")


def threshold(p) -> np.ndarray:
    """ceil(p * 2**53) as uint64, for a probability or an array of them in
    [0, 1]: the least key k with k * 2**-53 >= p."""
    return np.ceil(np.multiply(p, _TWO_POW_53)).astype(np.uint64)


def keys(words: Words, n: int) -> np.ndarray:
    """``n`` 53-bit keys as uint64 per generator.

    Key i is k = ((a >> 5) << 26) | (b >> 6) for 32-bit outputs a = 2i and
    b = 2i + 1, the k for which ``random.Random.random`` returns
    k * 2**-53, so row s times 2**-53 equals ``n`` successive
    ``words.rngs[s].random()`` calls.  A caller bounds the temporaries by
    asking for ``BLOCK`` keys at a time.
    """
    # Each little-endian pair of outputs read as one a | b << 32.
    pairs = words.take(2 * n).view("<u8")
    out = pairs & 0xFFFFFFFF
    out >>= 5
    out <<= 26
    out |= pairs >> 38
    return out
