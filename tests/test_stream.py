"""Tests for the bulk draws every stage takes its randomness through."""

import random

import numpy as np
import pytest

from bb84sim.stream import BLOCK, Words, random_bits, uniforms

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
    values = uniforms(Words([got_rng]), n)
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
    values = uniforms(Words(got), n)
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
    # 13 prefetched, then 7 past them, drawn as they are taken
    for count in (4, 0, 6, 10):
        taken = words.take(count)
        assert taken.tolist() == [plain_words(rng, count) for rng in want]
    assert [r.getstate() for r in got] == [r.getstate() for r in want]
