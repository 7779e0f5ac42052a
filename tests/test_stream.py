"""Tests for the bulk draws every stage takes its randomness through."""

import random

import pytest

from bb84sim.stream import BLOCK, random_bits, uniforms


@pytest.mark.parametrize("k", [0, 1, 31, 32, 33, 1000])
def test_bits_are_the_bits_of_one_getrandbits_word(k):
    got_rng, want_rng = random.Random(k), random.Random(k)
    word = want_rng.getrandbits(k)
    assert random_bits(got_rng, k).tolist() == [(word >> i) & 1 for i in range(k)]
    assert got_rng.getstate() == want_rng.getstate()


@pytest.mark.parametrize("n", [0, 1, 7, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_uniforms_equal_successive_random_calls(n):
    got_rng, want_rng = random.Random(n), random.Random(n)
    assert uniforms(got_rng, n).tolist() == [want_rng.random() for _ in range(n)]
    assert got_rng.getstate() == want_rng.getstate()
