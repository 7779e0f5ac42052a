"""Tests for the bulk draws every stage takes its randomness through."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bb84sim.stream import BLOCK, Words, keys, random_bits, threshold

BATCH_SEEDS = (3, 1 << 40, 977)


@pytest.mark.parametrize("k", [0, 1, 31, 32, 33, 1000])
def test_bits_are_the_bits_of_one_getrandbits_word(k):
    got_rng, want_rng = random.Random(k), random.Random(k)
    word = want_rng.getrandbits(k)
    bits = random_bits(Words([got_rng]), k)
    assert bits.tolist() == [[(word >> i) & 1 for i in range(k)]]
    assert got_rng.getstate() == want_rng.getstate()


@pytest.mark.parametrize("n", [0, 1, 7, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_uniforms_equal_successive_random_calls(n):
    got_rng, want_rng = random.Random(n), random.Random(n)
    drawn = keys(Words([got_rng]), n)
    assert drawn.dtype == np.uint64
    values = drawn * 2.0**-53
    assert values.tolist() == [[want_rng.random() for _ in range(n)]]
    assert got_rng.getstate() == want_rng.getstate()


def generators(seed_offset):
    """One generator per batch seed, and a twin of each for the plain
    calls."""
    seeds = [seed + seed_offset for seed in BATCH_SEEDS]
    return ([random.Random(s) for s in seeds],
            [random.Random(s) for s in seeds])


@pytest.mark.parametrize("k", [0, 1, 31, 32, 33, 1000, 8193])
def test_batch_bit_rows_are_each_generators_getrandbits_word(k):
    got, want = generators(k)
    bits = random_bits(Words(got), k)
    assert bits.shape == (len(BATCH_SEEDS), k)
    for row, rng in zip(bits.tolist(), want):
        word = rng.getrandbits(k)
        assert row == [(word >> i) & 1 for i in range(k)]
    assert [r.getstate() for r in got] == [r.getstate() for r in want]


@pytest.mark.parametrize("n", [0, 1, 7, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_batch_uniform_rows_are_each_generators_random_calls(n):
    got, want = generators(n)
    values = keys(Words(got), n) * 2.0**-53
    assert values.shape == (len(BATCH_SEEDS), n)
    for row, rng in zip(values.tolist(), want):
        assert row == [rng.random() for _ in range(n)]
    assert [r.getstate() for r in got] == [r.getstate() for r in want]


def plain_words(rng, count):
    """The next ``count`` 32-bit outputs of ``rng``, drawn as one word."""
    word = rng.getrandbits(32 * count)
    return [(word >> (32 * i)) & 0xFFFFFFFF for i in range(count)]


def test_take_with_uneven_counts_reads_each_row_in_order():
    got, want = generators(0)
    words = Words(got)
    for counts in ([2, 0, 5], [1, 1, 1], [0, 3, 2 * BLOCK + 1], [4, 0, 0]):
        taken = words.take(np.array(counts))
        assert taken.shape == (len(counts), max(counts))
        for row, count, rng in zip(taken.tolist(), counts, want):
            assert row == plain_words(rng, count) + [0] * (max(counts) - count)
    assert [r.getstate() for r in got] == [r.getstate() for r in want]


def test_prefetched_outputs_are_taken_in_order():
    got, want = generators(1)
    words = Words(got)
    words.prefetch(10)
    words.prefetch(3)
    # the 13 prefetched outputs, then 7 past them, drawn as they are taken
    for count in (4, 0, 9, 7):
        taken = words.take(count)
        assert taken.tolist() == [plain_words(rng, count) for rng in want]
    assert [r.getstate() for r in got] == [r.getstate() for r in want]


@pytest.mark.parametrize("counts", [np.array([1, 2, 3]), 6])
def test_a_take_from_prefetched_outputs_is_even_and_held(counts):
    # uneven, or past the 5 held: neither is served, and nothing is drawn
    got, want = generators(2)
    words = Words(got)
    words.prefetch(5)
    states = [r.getstate() for r in got]
    with pytest.raises(ValueError, match="prefetched"):
        words.take(counts)
    assert [r.getstate() for r in got] == states
    assert words.take(5).tolist() == [plain_words(rng, 5) for rng in want]


def snapped_born(p0):
    """A Born probability with values within 1e-12 of 0 or 1 made exact."""
    return 1.0 if p0 >= 1.0 - 1e-12 else 0.0 if p0 <= 1e-12 else p0


# Every probability a decision of the engine compares against, in kind:
# the ends, a fair coin, a loss efficiency, the largest float below 1, and
# Born probabilities of signal, ancilla and probe states in both bases.
DECISION_PROBABILITIES = sorted({
    0.0, 1.0, 0.5, 0.8, 1.0 - 2.0**-53,
    *(snapped_born(math.cos(state - basis) ** 2)
      for state in (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4,
                    math.pi / 6, 2 * math.pi / 3, math.pi / 8, 1.1)
      for basis in (0.0, math.pi / 4)),
})
KEY_RANGE = 2**53  # keys run over [0, 2**53)


def assert_compare_is_exact(p, k):
    """The integer decision on key k equals the float rule on k * 2**-53."""
    key = np.array([k], dtype=np.uint64)
    assert (key >= threshold(p))[0] == (k * 2.0**-53 >= p), (p, k)


@pytest.mark.parametrize("p", DECISION_PROBABILITIES)
def test_threshold_decides_like_the_float_rule_at_its_edge(p):
    edge = int(threshold(p))
    assert edge == math.ceil(p * 2**53)
    for k in (edge - 1, edge, edge + 1):
        if 0 <= k < KEY_RANGE:
            assert_compare_is_exact(p, k)


@given(st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=-2, max_value=2))
def test_threshold_decides_like_the_float_rule_near_any_edge(p, offset):
    k = int(threshold(p)) + offset
    if 0 <= k < KEY_RANGE:
        assert_compare_is_exact(p, k)


@given(st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=KEY_RANGE - 1))
def test_threshold_decides_like_the_float_rule_anywhere(p, k):
    assert_compare_is_exact(p, k)


def test_thresholds_of_an_array_match_each_probability():
    probabilities = np.array(DECISION_PROBABILITIES)
    edges = threshold(probabilities)
    assert edges.dtype == np.uint64
    assert edges.tolist() == [
        math.ceil(p * 2**53) for p in DECISION_PROBABILITIES
    ]


def test_skip_leaves_each_generator_where_take_would():
    # held outputs, the rest of them, then drawn ones, uneven too
    skipped, taken = generators(3)
    by_skip, by_take = Words(skipped), Words(taken)
    by_skip.prefetch(7)
    by_take.prefetch(7)
    for counts in (4, 2, 3, np.array([2, 0, 2 * BLOCK + 1]), 0):
        by_skip.skip(counts)
        by_take.take(counts)
        assert by_skip.take(1).tolist() == by_take.take(1).tolist()
        assert ([r.getstate() for r in skipped]
                == [r.getstate() for r in taken])


@pytest.mark.parametrize("counts", [np.array([1, 2, 3]), 6])
def test_a_skip_over_prefetched_outputs_is_even_and_held(counts):
    # refused as ``take`` refuses it, and nothing is drawn or dropped
    got, want = generators(2)
    words = Words(got)
    words.prefetch(5)
    states = [r.getstate() for r in got]
    with pytest.raises(ValueError, match="prefetched"):
        words.skip(counts)
    assert [r.getstate() for r in got] == states
    assert words.take(5).tolist() == [plain_words(rng, 5) for rng in want]


class KeyedGenerator:
    """A stand-in for ``random.Random`` that yields the given 53-bit keys:
    ``getrandbits`` hands out, in order, the 32-bit output pairs that
    decode to them."""

    def __init__(self, chosen):
        self.outputs = [
            half for k in chosen
            for half in ((k >> 26) << 5, (k & (2**26 - 1)) << 6)
        ]

    def getrandbits(self, bits):
        count = bits // 32
        taken, self.outputs = self.outputs[:count], self.outputs[count:]
        return sum(output << (32 * i) for i, output in enumerate(taken))


def test_keys_decode_the_chosen_outputs():
    chosen = [0, 1, 2**26 - 1, 2**26, 2**52, 2**53 - 1, 123456789012345]
    drawn = keys(Words([KeyedGenerator(chosen)]), len(chosen))
    assert drawn.tolist() == [chosen]
