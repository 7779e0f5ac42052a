"""Tests for the counter-based stream every stage takes its randomness
from: the stream against a reference written with Python ints, known
answers of its mixer, its edges, and its statistical quality."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bb84sim.adversary import channel_table
from bb84sim.harness import derive_seed
from bb84sim.protocol import SessionConfig, run_session
from bb84sim.stream import (
    ADVERSARY, ALICE_BASES, ALICE_BITS, BLOCK, BOB_BASES, FLIP, LOSS,
    MEASURE, PARITY, STAGES, TOEPLITZ, keys, random_bits, threshold, values,
)

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def reference_mix(x):
    """The SplitMix64 finaliser in Python ints."""
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def reference_split(seed, index):
    """derive_seed(seed, index) as the contract writes it, in Python ints."""
    return reference_mix((seed + (index + 1) * GAMMA) & MASK64)


def reference_value(seed, stage, j):
    """Value j of stage ``stage`` for the session seed ``seed``."""
    return reference_split(seed, (stage << 40) + j)


class ReferenceStage:
    """One stage of one session's stream read in order, in Python ints, in
    the manner of ``random.Random``: ``getrandbits(k)`` takes the next
    ceil(k / 64) values, bit i of its word being bit i mod 64 of value
    i // 64, and ``random()`` the next value's top 53 bits times 2**-53."""

    def __init__(self, seed, stage, start=0):
        self.seed, self.stage, self.at = seed, stage, start

    def value(self):
        self.at += 1
        return reference_value(self.seed, self.stage, self.at - 1)

    def getrandbits(self, k):
        word = 0
        for i in range((k + 63) // 64):
            word |= self.value() << (64 * i)
        return word & ((1 << k) - 1)

    def key(self):
        return self.value() >> 11

    def random(self):
        return self.key() * 2.0**-53


BATCH_SEEDS = (3, 1 << 40, 977, MASK64)


def seeds(offset):
    """A uint64 array of batch seeds and the same seeds as Python ints."""
    plain = [(seed + offset) & MASK64 for seed in BATCH_SEEDS]
    return np.array(plain, dtype=np.uint64), plain


# SplitMix64 from state 0 and from state 1234567: the published first
# outputs of the generator (Vigna's splitmix64.c), which are values 0, 1,
# 2, ... of stage 0 of that seed.
KNOWN_ANSWERS = {
    0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F],
    1234567: [6457827717110365317, 3203168211198807973, 9817491932198370423,
              4593380528125082431, 16408922859458223821],
}


@pytest.mark.parametrize("seed", list(KNOWN_ANSWERS))
def test_mixer_gives_the_known_answers(seed):
    want = KNOWN_ANSWERS[seed]
    assert [reference_value(seed, 0, j) for j in range(len(want))] == want
    assert values([seed], 0, len(want)).tolist() == [want]
    assert [derive_seed(seed, j) for j in range(len(want))] == want


# A "generator" below is one stage of one session's stream, read in order
# by ``ReferenceStage``.
@pytest.mark.parametrize("k", [0, 1, 31, 32, 33, 1000])
def test_bits_are_the_bits_of_one_getrandbits_word(k):
    word = ReferenceStage(k, ALICE_BASES).getrandbits(k)
    bits = random_bits([k], ALICE_BASES, k)
    assert bits.tolist() == [[(word >> i) & 1 for i in range(k)]]


@pytest.mark.parametrize("n", [0, 1, 7, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_uniforms_equal_successive_random_calls(n):
    drawn = keys([n], MEASURE, n)
    assert drawn.dtype == np.uint64
    want = ReferenceStage(n, MEASURE)
    assert (drawn * 2.0**-53).tolist() == [[want.random() for _ in range(n)]]


@pytest.mark.parametrize("k", [0, 1, 31, 32, 33, 1000, 8193])
def test_batch_bit_rows_are_each_generators_getrandbits_word(k):
    batch, plain = seeds(k)
    bits = random_bits(batch, BOB_BASES, k)
    assert bits.shape == (len(BATCH_SEEDS), k)
    for row, seed in zip(bits.tolist(), plain):
        word = ReferenceStage(seed, BOB_BASES).getrandbits(k)
        assert row == [(word >> i) & 1 for i in range(k)]


@pytest.mark.parametrize("n", [0, 1, 7, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_batch_uniform_rows_are_each_generators_random_calls(n):
    batch, plain = seeds(n)
    drawn = keys(batch, ADVERSARY, n) * 2.0**-53
    assert drawn.shape == (len(BATCH_SEEDS), n)
    for row, seed in zip(drawn.tolist(), plain):
        want = ReferenceStage(seed, ADVERSARY)
        assert row == [want.random() for _ in range(n)]


def test_values_with_uneven_counts_read_each_row_in_order():
    batch, plain = seeds(0)
    for counts in ([2, 0, 5, 1], [1, 1, 1, 1], [0, 3, 2 * BLOCK + 1, 0],
                   [4, 0, 0, 0]):
        taken = values(batch, LOSS, np.array(counts))
        assert taken.shape == (len(counts), max(counts))
        for row, count, seed in zip(taken.tolist(), counts, plain):
            stage = ReferenceStage(seed, LOSS)
            assert row == ([stage.value() for _ in range(count)]
                           + [0] * (max(counts) - count))


def test_values_drawn_in_pieces_follow_one_another():
    # a stage read in pieces, each from where the last ended, reads the
    # values one read in order gives
    batch, plain = seeds(1)
    want = [ReferenceStage(seed, TOEPLITZ) for seed in plain]
    at = 0
    for count in (4, 0, 9, 7, BLOCK + 3):
        taken = values(batch, TOEPLITZ, count, at)
        assert taken.tolist() == [
            [stage.value() for _ in range(count)] for stage in want
        ]
        at += count


def test_values_from_an_offset_are_the_tail_of_values_from_zero():
    # a draw from value j on equals the tail of a draw from value 0, per
    # row, whether every row starts at j or each at its own
    batch, _ = seeds(3)
    whole = values(batch, FLIP, 2 * BLOCK + 9)
    for start in (1, 4, BLOCK, 2 * BLOCK + 1):
        tail = values(batch, FLIP, 2 * BLOCK + 9 - start, start)
        assert tail.tolist() == whole[:, start:].tolist()
    starts = np.array([0, 5, BLOCK, 2])
    taken = values(batch, FLIP, 7, starts)
    for row, start in enumerate(starts.tolist()):
        assert taken[row].tolist() == whole[row, start : start + 7].tolist()


def test_keys_decode_the_chosen_outputs():
    # keys at chosen counters, the first and last of a stage's range
    # among them, are the top 53 bits of those values
    seed = 0x0123456789ABCDEF
    for stage in (ALICE_BITS, MEASURE, PARITY + 3, STAGES - 1):
        for j in (0, 1, 2**26, 2**32 + 5, 2**40 - 1):
            got = int(keys([seed], stage, 1, j)[0, 0])
            assert got == reference_value(seed, stage, j) >> 11


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


class TestEdges:
    """Seed and counter arithmetic wraps modulo 2**64 in uint64 arrays, and
    pytest turns the warning a wrapping numpy scalar gives into an
    error."""

    @pytest.mark.parametrize("master", [0, 1, MASK64 - 1, MASK64])
    def test_batch_seeds_equal_derive_seed(self, master):
        indices = [0, 1, 2, 1000, 2**32, 2**63, MASK64 - 1, MASK64]
        batch = derive_seed(master, np.array(indices, dtype=np.uint64))
        assert batch.dtype == np.uint64
        want = [reference_split(master, i) for i in indices]
        assert batch.tolist() == want
        assert [derive_seed(master, i) for i in indices] == want
        assert all(type(derive_seed(master, i)) is int for i in indices)

    @pytest.mark.parametrize("master", [0, MASK64])
    def test_stream_at_the_ends_of_the_master_seed(self, master):
        sessions = [derive_seed(master, i) for i in range(3)]
        for stage in (ALICE_BITS, MEASURE, PARITY, STAGES - 1):
            for start in (0, 2**40 - 3):
                got = values(sessions, stage, 3, start)
                assert got.tolist() == [
                    [reference_value(seed, stage, start + j) for j in range(3)]
                    for seed in sessions
                ]

    def test_top_of_a_stage_range_stays_in_its_stage(self):
        # the last value of a stage is not the first of the next
        seed = derive_seed(MASK64, 7)
        for stage in (TOEPLITZ, PARITY + 1, STAGES - 2):
            last = values([seed], stage, 1, 2**40 - 1)[0, 0]
            assert last == reference_value(seed, stage, 2**40 - 1)
            assert last != values([seed], stage + 1, 1)[0, 0]
            # value 2**40 of a stage would be value 0 of the next
            assert reference_value(seed, stage, 2**40) == int(
                values([seed], stage + 1, 1)[0, 0])

    def test_session_runs_at_the_extreme_seeds(self):
        config = SessionConfig(n_pulses=300, efficiency=0.7, parity_rounds=3)
        for seed in (0, MASK64):
            batch = run_session(config, channel_table("intercept-resend"),
                                seed)
            want = ReferenceStage(seed, ALICE_BITS).getrandbits(300)
            assert batch.pulses.alice_bits[0].tolist() == [
                (want >> i) & 1 for i in range(300)
            ]


# Width of every binomial bound below, in standard deviations: a correct
# stream misses one with probability ~6e-7.
Z = 5.0


def assert_binomial(count, trials, p, what):
    sigma = math.sqrt(trials * p * (1 - p))
    assert abs(count - trials * p) <= Z * sigma, (what, count, trials * p)


def ones(words):
    """Set bits across a uint64 array."""
    return int(np.unpackbits(words.astype("<u8").view(np.uint8)).sum())


class TestQuality:
    """Frequencies and correlations of the stream, each a binomial count
    against its exact expectation under independent uniform values."""

    SEED = derive_seed(2024, 0)

    def test_byte_frequencies(self):
        data = values([self.SEED], ALICE_BITS, 1 << 15).astype("<u8")
        counts = np.bincount(data.view(np.uint8).ravel(), minlength=256)
        trials = int(counts.sum())
        for byte, count in enumerate(counts.tolist()):
            assert_binomial(count, trials, 1 / 256, f"byte {byte}")

    def test_bit_positions_are_fair(self):
        data = values([self.SEED], MEASURE, 1 << 14)[0]
        for bit in range(64):
            count = int(((data >> np.uint64(bit)) & np.uint64(1)).sum())
            assert_binomial(count, len(data), 0.5, f"bit {bit}")

    def test_adjacent_keys_are_uncorrelated(self):
        drawn = keys([self.SEED], ADVERSARY, 1 << 16)[0]
        first, second = drawn[:-1], drawn[1:]
        # the next key is the larger half the time, and the two agree on
        # each bit half the time
        assert_binomial(int((second > first).sum()), len(first), 0.5,
                        "order")
        assert_binomial(ones(first ^ second), 53 * len(first), 0.5, "bits")
        # the top bits of a key and the next fall in each of the 16 cells
        # of a 4 x 4 grid with probability 1/16
        cells = np.bincount((first >> np.uint64(51)) * np.uint64(4)
                            + (second >> np.uint64(51)), minlength=16)
        for cell, count in enumerate(cells.tolist()):
            assert_binomial(count, len(first), 1 / 16, f"cell {cell}")

    def test_neighbouring_sessions_are_uncorrelated(self):
        sessions = derive_seed(5, np.arange(1 << 10, dtype=np.uint64))
        drawn = values(sessions, ALICE_BITS, 64)
        first, second = drawn[:-1], drawn[1:]
        assert_binomial(ones(first ^ second), 64 * first.size, 0.5, "bits")
        assert_binomial(int((second > first).sum()), first.size, 0.5,
                        "order")

    @pytest.mark.parametrize("stage, other", [
        (ALICE_BITS, ALICE_BASES), (ALICE_BASES, BOB_BASES),
        (ADVERSARY, MEASURE), (PARITY, PARITY + 1), (FLIP, TOEPLITZ),
    ])
    def test_stages_are_uncorrelated(self, stage, other):
        sessions = derive_seed(6, np.arange(64, dtype=np.uint64))
        first = values(sessions, stage, 512)
        second = values(sessions, other, 512)
        assert_binomial(ones(first ^ second), 64 * first.size, 0.5, "bits")
        assert_binomial(int((second > first).sum()), first.size, 0.5,
                        "order")
