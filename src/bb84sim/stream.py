"""The counter-based random stream every stage draws from.

Value j of stage g in the session with seed σ is a pure function of
(σ, g, j): ``derive_seed(σ, g * 2**40 + j)``, the SplitMix64 finaliser
applied to σ + (g * 2**40 + j + 1) * γ mod 2**64 (Steele, Lea and Flood,
"Fast splittable pseudorandom number generators", OOPSLA 2014; on
counter-based generators in general, Salmon, Moraes, Dror and Shaw,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011).  A session's
seed is ``derive_seed(master_seed, i)`` by the same mix, and the stages
are the constants below.  No value depends on any other draw, so a stage
draws exactly the values it reads, in pieces of any size and in any
order, and a stage nobody reads is never computed and moves nothing.

Each value gives 64 bits.  A k-bit draw takes ceil(k / 64) values, bit i
of the draw being bit i mod 64 of value i // 64, least significant first;
the bits past k in the last value are not used.  A key is a value's top
53 bits, value >> 11.

Every random decision is a 53-bit key against ceil(p * 2**53), the
``threshold`` of its probability p: for u = k * 2**-53 and any float p in
[0, 1], u >= p exactly when k >= ceil(p * 2**53), since p * 2**53 is
exact.  So a decision made on keys is the one ``u >= p`` makes, with no
float in between.

All arithmetic is on uint64 arrays of one dimension or more, which wrap
modulo 2**64 without a warning, where numpy scalars would warn; nothing
mixes signed and unsigned integers, so numpy 1.x and 2.x give the same
values.
"""

import numpy as np

_TWO_POW_53 = 9007199254740992.0
# Items a per-pulse stage handles at a time, which bounds its temporaries.
BLOCK = 1 << 13

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_SHIFTS = (np.uint64(30), np.uint64(27), np.uint64(31))
_KEY_SHIFT = np.uint64(11)

# The stages of a session, numbered as the contract in ``harness`` lists
# them.  Parity round r draws from stage PARITY + r; a stage's values run
# over j < 2**40, and stages stay below 2**24 so that g * 2**40 + j + 1
# fits in 64 bits.
ALICE_BITS, ALICE_BASES, BOB_BASES, ADVERSARY, LOSS, MEASURE, FLIP, \
    TOEPLITZ = range(8)
PARITY = 1 << 16
STAGES = 1 << 24
_STAGE_SHIFT = np.uint64(40)


def _mix(x: np.ndarray) -> np.ndarray:
    """The SplitMix64 finaliser, in place on a uint64 array."""
    x ^= x >> _SHIFTS[0]
    x *= _MUL1
    x ^= x >> _SHIFTS[1]
    x *= _MUL2
    x ^= x >> _SHIFTS[2]
    return x


def _row(x) -> np.ndarray:
    """``x`` as a one-dimensional uint64 array: numpy scalars would warn
    as they wrap."""
    return np.asarray(x, np.uint64).reshape(-1)


def derive_seed(seed, index):
    """SplitMix64 mix of (seed, index), the finaliser of seed + (index + 1)
    * γ mod 2**64; distinct per index.  Two Python ints give a Python int;
    uint64 arrays, broadcast against each other, give a uint64 array."""
    if isinstance(seed, int) and isinstance(index, int):
        return int(derive_seed(_row(seed), _row(index))[0])
    counts = np.asarray(index, np.uint64) + np.uint64(1)
    return _mix(np.asarray(seed, np.uint64) + counts * _GAMMA)


# j * γ for the first BLOCK counters j, shared by every draw that fits.
_STEPS = np.arange(BLOCK, dtype=np.uint64) * _GAMMA


def values(seeds, stage, count, start=0) -> np.ndarray:
    """Values ``start`` to ``start + count - 1`` of ``stage`` for each seed
    of the uint64 array ``seeds``, as a uint64 array of shape (rows, max
    count).  ``stage``, ``count`` and ``start`` may each be a scalar or an
    array with one entry per row; row s holds its ``count[s]`` values in
    its first columns and zeros after them."""
    uneven = np.ndim(count) > 0
    width = int(np.max(count, initial=0)) if uneven else count
    first = (_row(stage) << _STAGE_SHIFT) + _row(start) + np.uint64(1)
    rows = np.asarray(seeds, np.uint64) + first * _GAMMA
    steps = (_STEPS[:width] if width <= BLOCK
             else np.arange(width, dtype=np.uint64) * _GAMMA)
    out = _mix(rows[:, None] + steps)
    if uneven:
        out *= np.arange(width) < np.asarray(count)[:, None]
    return out


def random_bits(seeds, stage, k: int) -> np.ndarray:
    """``k`` fair bits of ``stage`` per seed, as uint8: row s holds bit i
    of the stage's values in column i."""
    data = values(seeds, stage, (k + 63) // 64).astype("<u8", copy=False)
    return np.unpackbits(data.view(np.uint8), axis=1, count=k,
                         bitorder="little")


def threshold(p) -> np.ndarray:
    """ceil(p * 2**53) as uint64, for a probability or an array of them in
    [0, 1]: the least key k with k * 2**-53 >= p."""
    return np.ceil(np.multiply(p, _TWO_POW_53)).astype(np.uint64)


def keys(seeds, stage, n: int, start: int = 0) -> np.ndarray:
    """Keys ``start`` to ``start + n - 1`` of ``stage`` per seed, as
    uint64: each the top 53 bits of its value."""
    out = values(seeds, stage, n, start)
    out >>= _KEY_SHIFT
    return out


def key_blocks(seeds, stage, n: int, positions: np.ndarray):
    """The keys of ``stage`` at the flat positions ``positions`` of a batch
    of sessions of ``n`` pulses each: position s * n + i reads key i of
    ``seeds[s]``.  Yields (part, keys) for consecutive slices ``part`` of
    ``positions``, each of at most ``BLOCK`` entries, which bounds the
    temporaries; ``positions`` is a nonnegative int64 array."""
    seeds = np.asarray(seeds, np.uint64)
    # Value i of row s is mix(seeds[s] + (stage * 2**40 + i + 1) * γ), and
    # i = position - s * n, so each row's offset is added to position * γ.
    first = (_row(stage) << _STAGE_SHIFT) + np.uint64(1)
    rows = np.arange(len(seeds), dtype=np.uint64) * np.uint64(n)
    offsets = seeds + (first - rows) * _GAMMA
    for start in range(0, len(positions), BLOCK):
        part = slice(start, start + BLOCK)
        at = positions[part]
        out = at.astype(np.uint64) * _GAMMA
        out += np.take(offsets, at // n)
        _mix(out)
        out >>= _KEY_SHIFT
        yield part, out
