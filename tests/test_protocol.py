"""Tests for the session engine: preparation, channel, sifting, parity
verification, and whole sessions read as the columns of a batch."""

import math
import random
from dataclasses import fields
from functools import reduce
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bb84sim import protocol
from bb84sim.adversary import channel_table
from bb84sim.errors import InvalidConfigError, KeyTooShortError
from bb84sim.protocol import (
    Pulses,
    SessionConfig,
    parity_verify,
    prepare_pulses,
    run_batch,
    run_session,
    sift,
    transmit,
)
from bb84sim.adversary import ChannelTable
from bb84sim.quantum import BQS
from bb84sim.stream import BLOCK, LOSS, PARITY, keys
from test_stream import ReferenceStage


def oracle_eve():
    return channel_table("indirect-oracle")


class TestSessionConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(InvalidConfigError):
            SessionConfig(n_pulses=0)
        with pytest.raises(InvalidConfigError):
            SessionConfig(n_pulses=10, efficiency=0.0)
        with pytest.raises(InvalidConfigError):
            SessionConfig(n_pulses=10, efficiency=1.2)
        with pytest.raises(InvalidConfigError):
            SessionConfig(n_pulses=10, parity_rounds=-1)
        # counts are Python ints: no float, bool, string or numpy integer
        for kwargs in (
            {"n_pulses": 64.5}, {"n_pulses": 64.0}, {"n_pulses": True},
            {"n_pulses": "64"}, {"n_pulses": None},
            {"n_pulses": np.int64(64)},
            {"n_pulses": 10, "parity_rounds": 1.5},
            {"n_pulses": 10, "parity_rounds": False},
        ):
            with pytest.raises(InvalidConfigError, match="must be int, got"):
                SessionConfig(**kwargs)
        with pytest.raises(InvalidConfigError, match="must be float, got"):
            SessionConfig(n_pulses=10, efficiency="0.5")


def qber(batch):
    """Mismatch fraction of a batch's sifted keys."""
    return float(np.mean(batch.sifted_alice != batch.sifted_bob))


def eve_bits(batch):
    """The adversary's guesses at a batch's sifted positions, read off her
    table at the outcomes there."""
    outcomes = np.take(batch.pulses.outcomes, batch.sifted)
    return batch.adversary.guess_bits[outcomes]


def columns(batch, s=0):
    """Every column of session s of a batch, with its sifted indices
    counted from its own first pulse, the key positions parity
    verification discarded and its flag, for equality checks."""
    p = batch.pulses
    start, length = int(batch.starts[s]), int(batch.lengths[s])
    part = slice(start, start + length)
    guess_bits = batch.adversary.guess_bits
    guesses = None if guess_bits is None else guess_bits[p.outcomes[s]]
    arrays = (
        p.alice_bits[s], p.alice_bases[s], p.outcomes[s], guesses,
        p.bob_bases[s], p.bob_bits[s],
        batch.sifted[part] - s * p.bob_bits.shape[1],
        batch.sifted_alice[part], batch.sifted_bob[part], batch.kept[part],
        *batch.reconciled(s),
    )
    return (
        [None if a is None else (a.dtype.str, a.tobytes()) for a in arrays],
        np.flatnonzero(~batch.kept[part]).tolist(),
        bool(batch.detected[s]),
    )


def chosen_values(chosen):
    """A stand-in for ``stream.values`` that reads ``chosen[(seed, stage)]``
    as the values of that stage of that seed, zeros past its end."""

    def values(seeds, stages, counts, starts):
        rows = np.broadcast_arrays(seeds, stages, counts, starts)
        width = int(np.max(counts, initial=0))
        out = np.zeros((len(rows[0]), width), np.uint64)
        for s, (seed, stage, count, start) in enumerate(zip(*rows)):
            given = chosen.get((int(seed), int(stage)), [])
            taken = given[int(start) : int(start) + int(count)]
            out[s, : len(taken)] = taken
        return out

    return values


def reference_parity_verify(alice_bits, bob_bits, rounds, seed):
    """Per-position loop over a list of live positions: round r reads stage
    ``PARITY + r`` of ``seed``, coin j being bit j of ``getrandbits(L)`` of
    the attempt that starts at value attempt * ceil(L / 64), for the L
    live positions, and attempts follow while no coin is 1.  Each record
    is (subset, sender parity, receiver parity, discarded, attempts)."""
    live = list(range(len(alice_bits)))
    detected = False
    records = []
    for r in range(rounds):
        subset, attempts = [], 0
        width = (len(live) + 63) // 64
        while not subset:
            word = ReferenceStage(
                seed, PARITY + r, attempts * width).getrandbits(len(live))
            subset = [pos for j, pos in enumerate(live) if (word >> j) & 1]
            attempts += 1
        alice_parity = reduce(lambda p, i: p ^ alice_bits[i], subset, 0)
        bob_parity = reduce(lambda p, i: p ^ bob_bits[i], subset, 0)
        detected |= alice_parity != bob_parity
        live.remove(subset[0])
        records.append(
            (subset, alice_parity, bob_parity, subset[0], attempts))
    return (
        detected,
        [alice_bits[i] for i in live],
        [bob_bits[i] for i in live],
        records,
    )


def redrew(reference):
    """Whether a ``reference_parity_verify`` result drew a round again."""
    return any(record[4] > 1 for record in reference[3])


def reference_verify(alice_bits, bob_bits, rounds, seed):
    """``reference_parity_verify`` in the layout of ``verify_one``: its
    flag, its reconciled keys and the positions it discarded, ascending."""
    detected, alice, bob, records = reference_parity_verify(
        alice_bits, bob_bits, rounds, seed
    )
    return detected, alice, bob, sorted(record[3] for record in records)


def verify_one(alice_bits, bob_bits, rounds, seed):
    """``parity_verify`` on a batch of one session of seed ``seed``: its
    flag, its reconciled keys (the positions ``kept`` marks) and the
    positions it discarded, ascending, as lists."""
    detected, kept = parity_verify(
        alice_bits, bob_bits, rounds, [seed], np.array([len(alice_bits)]),
    )
    alice = np.asarray(alice_bits, dtype=np.uint8)[kept]
    bob = np.asarray(bob_bits, dtype=np.uint8)[kept]
    return (
        bool(detected[0]), alice.tolist(), bob.tolist(),
        np.flatnonzero(~kept).tolist(),
    )


def reference_session(config, adversary, seed):
    """oracle: session ``seed`` run without verification, then verified by
    the per-position reference loop on the same seed; returns the
    reference's flag, keys and records."""
    plain = run_session(
        SessionConfig(config.n_pulses, config.efficiency), adversary, seed
    )
    return reference_parity_verify(
        plain.sifted_alice.tolist(), plain.sifted_bob.tolist(),
        config.parity_rounds, seed,
    )


class TestPreparePulses:
    def test_small_batch_stays_on_alphabet(self):
        bits, bases = prepare_pulses(4, [0])
        assert bits.shape == bases.shape == (1, 4)
        bits, bases = bits[0], bases[0]
        assert set(bits.tolist()) <= {0, 1}
        assert set(bases.tolist()) <= {0, 1}
        for bit, basis in zip(bits, bases):
            assert 0 <= 2 * basis + bit < len(BQS)

    def test_states_are_uniform(self):
        # oracle: each of the four states is a Binomial(n, 1/4) count
        n = 100_000
        bits, bases = prepare_pulses(n, [17])
        codes = [2 * b + x for x, b in zip(bits[0], bases[0])]
        sigma = math.sqrt(0.25 * 0.75 / n)
        for target in range(4):
            frequency = codes.count(target) / n
            assert abs(frequency - 0.25) < 4 * sigma

    def test_zero_pulses_rejected(self):
        with pytest.raises(ValueError):
            prepare_pulses(0, [0])


class TestTransmit:
    def test_identity_channel(self):
        eve = channel_table("none")
        outcomes, lost = transmit(
            np.zeros((1, 1), dtype=np.uint8), eve, 1.0, [0],
        )
        assert eve.forwarded_angles[outcomes].tolist() == [[BQS[0]]]
        assert eve.guess_bits is None
        assert lost.tolist() == [[False]]

    def test_loss_fraction_matches_efficiency(self):
        # oracle: losses are Binomial(n, 1 - efficiency)
        n = 100_000
        _, lost = transmit(
            np.zeros((1, n), dtype=np.uint8), channel_table("none"), 0.5,
            [23],
        )
        sigma = math.sqrt(0.25 / n)
        assert abs(np.count_nonzero(lost) / n - 0.5) < 4 * sigma

    def test_pulse_is_lost_from_the_efficiency_key_on(self, monkeypatch):
        # oracle: lost when u >= efficiency, so the key
        # ceil(efficiency * 2**53) is the first lost one
        edge = math.ceil(0.8 * 2**53)
        chosen = [edge - 1, edge, 2**53 - 1]

        def loss_keys(seeds, stage, n, start=0):
            assert stage == LOSS
            return np.array([chosen[start : start + n]], dtype=np.uint64)

        monkeypatch.setattr(protocol, "keys", loss_keys)
        _, lost = transmit(
            np.zeros((1, 3), dtype=np.uint8), channel_table("none"), 0.8,
            [0],
        )
        assert lost.tolist() == [[False, True, True]]

    def test_oracle_adversary_is_invisible(self):
        eve = oracle_eve()
        outcomes, _ = transmit(
            np.arange(4, dtype=np.uint8)[None], eve, 1.0, [0],
        )
        assert eve.forwarded_angles[outcomes].tolist() == [list(BQS)]


def counting_keys(monkeypatch):
    """Count the keys ``protocol`` computes, by wrapping its ``keys``: the
    returned list gains the number of each call, per row."""
    counted = []

    def counting(seeds, stage, n, start=0):
        counted.append(n)
        return keys(seeds, stage, n, start)

    monkeypatch.setattr(protocol, "keys", counting)
    return counted


# A batch of 96-pulse sessions, whose per-pulse stages draw one block each,
# and one 100k-pulse session, whose per-pulse stages draw 13 each.
SHAPES = [(96, range(30, 50)), (100_000, range(30, 31))]


class TestTransmitKeys:
    @pytest.mark.parametrize("kind, reads", [
        ("none", False), ("indirect-oracle", False),
        ("intercept-resend", True), ("indirect-physical", True),
    ])
    @pytest.mark.parametrize("n, seeds", SHAPES)
    def test_only_a_table_that_compares_keys_decodes_them(
        self, monkeypatch, kind, reads, n, seeds
    ):
        # at full efficiency ``transmit`` is the one caller of
        # ``protocol.keys``: n keys a session, or none
        counted = counting_keys(monkeypatch)
        table = channel_table(kind)
        assert table.reads_keys is reads
        run_batch(SessionConfig(n_pulses=n), table, list(seeds))
        assert sum(counted) == (n if reads else 0)

    @pytest.mark.parametrize("kind", ["none", "indirect-oracle"])
    @pytest.mark.parametrize("n, seeds", SHAPES)
    def test_skipped_keys_leave_the_generators_where_taken_ones_do(
        self, monkeypatch, kind, n, seeds
    ):
        # oracle: the same batch with the adversary's keys computed and
        # handed to a table that ignores them; no other stage may move
        config = SessionConfig(n_pulses=n, efficiency=0.8, parity_rounds=4)
        batch = run_batch(config, channel_table(kind), list(seeds))
        counted = counting_keys(monkeypatch)
        monkeypatch.setattr(ChannelTable, "reads_keys", True)
        plain = run_batch(config, channel_table(kind), list(seeds))
        assert sum(counted) == 2 * n  # the adversary's keys and the loss keys
        for s in range(len(seeds)):
            assert columns(batch, s) == columns(plain, s)


class TestSift:
    def test_matched_bases_without_noise_agree_exactly(self):
        batch = run_session(
            SessionConfig(n_pulses=50_000), channel_table("none"), 3,
        )
        assert np.array_equal(batch.sifted_alice, batch.sifted_bob)
        alice, bob, indices = sift(batch.pulses)
        assert np.array_equal(indices, batch.sifted)
        assert np.array_equal(alice, batch.sifted_alice)
        assert np.array_equal(bob, batch.sifted_bob)

    def test_sifted_fraction_near_half(self):
        n = 100_000
        batch = run_session(
            SessionConfig(n_pulses=n), channel_table("none"), 4
        )
        sigma = math.sqrt(0.25 / n)
        assert abs(len(batch.sifted_alice) / n - 0.5) < 4 * sigma

    def test_sources_are_matched_unlost_pulses(self):
        batch = run_session(
            SessionConfig(n_pulses=2_000, efficiency=0.7),
            channel_table("none"),
            5,
        )
        pulses = batch.pulses
        bob_bits, alice_bases = pulses.bob_bits[0], pulses.alice_bases[0]
        want = [
            i for i in range(len(pulses))
            if bob_bits[i] != -1 and alice_bases[i] == pulses.bob_bases[0, i]
        ]
        assert batch.sifted.tolist() == want
        assert batch.sifted_alice.tolist() == [
            pulses.alice_bits[0, i] for i in want
        ]
        assert batch.sifted_bob.tolist() == [pulses.bob_bits[0, i] for i in want]

    def test_empty_input_gives_empty_keys(self):
        empty = np.zeros(0, dtype=np.uint8)
        pulses = Pulses(empty, empty, empty, empty, empty.view(np.int8))
        alice, bob, indices = sift(pulses)
        assert len(alice) == len(bob) == len(indices) == 0


class TestParityVerify:
    def test_identical_keys_pass_and_shrink(self):
        rng = random.Random(0)
        bits = [rng.getrandbits(1) for _ in range(200)]
        detected, alice, bob, discarded = verify_one(
            bits, list(bits), 20, 0
        )
        assert detected is False
        assert len(alice) == len(bits) - 20
        assert alice == bob
        assert len(discarded) == 20

    def test_single_difference_detected_half_the_time(self):
        # a single differing bit lands in a uniform nonempty subset with
        # probability 2^(L-1) / (2^L - 1), indistinguishable from 1/2 here
        trials = 10_000
        rng = random.Random(42)
        detected_count = 0
        for _ in range(trials):
            bits = [rng.getrandbits(1) for _ in range(32)]
            other = list(bits)
            other[rng.randrange(32)] ^= 1
            detected = verify_one(bits, other, 1, rng.getrandbits(64))[0]
            detected_count += detected
        assert abs(detected_count / trials - 0.5) < 0.02

    def test_ten_rounds_certify_with_advertised_probability(self):
        trials = 10_000
        rng = random.Random(43)
        detected_count = 0
        for _ in range(trials):
            bits = [rng.getrandbits(1) for _ in range(64)]
            other = list(bits)
            other[rng.randrange(64)] ^= 1
            detected = verify_one(bits, other, 10, rng.getrandbits(64))[0]
            detected_count += detected
        assert abs(detected_count / trials - (1 - 2**-10)) < 0.01

    def test_short_key_rejected(self):
        with pytest.raises(KeyTooShortError):
            verify_one([0, 1, 0], [0, 1, 0], 3, 0)
        with pytest.raises(KeyTooShortError):
            verify_one([], [], 0, 0)
        with pytest.raises(ValueError, match="rounds must be >= 0, got -1"):
            verify_one([0, 1, 0], [0, 1, 0], -1, 0)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            verify_one([0, 1], [0], 1, 0)

    def test_lengths_must_fit_the_keys_and_the_rows(self):
        with pytest.raises(ValueError, match="sum to 2.* 3 bits"):
            parity_verify([0, 1, 1], [0, 1, 1], 1, [0], [2])
        with pytest.raises(ValueError, match="2 key lengths for 1 sessions"):
            parity_verify([0, 1, 1], [0, 1, 1], 1, [0], [1, 2])
        # a list serves as well as an array
        detected, kept = parity_verify([0, 1, 1], [0, 1, 0], 1, [0], [3])
        want = reference_verify([0, 1, 1], [0, 1, 0], 1, 0)
        assert bool(detected[0]) == want[0]
        assert np.flatnonzero(~kept).tolist() == want[3]

    @pytest.mark.parametrize("rounds", [1, 3])
    def test_a_mixed_batch_matches_the_reference_session_by_session(
        self, rounds
    ):
        # oracle: the per-position loop, run on each session alone; the
        # batch mixes equal keys, differing keys and keys one bit longer
        # than the rounds, whose last round comes up empty a quarter of
        # the time
        rng = random.Random(rounds)
        pairs = []
        for length, flips in [(200, 0), (33, 3), (64, 0), (150, 40),
                              (40, 1), *[(rounds + 1, 1)] * 8,
                              *[(rounds + 1, 0)] * 8, (97, 0)]:
            bits = [rng.getrandbits(1) for _ in range(length)]
            other = list(bits)
            for i in rng.sample(range(length), flips):
                other[i] ^= 1
            pairs.append((bits, other))
        detected, kept = parity_verify(
            [b for bits, _ in pairs for b in bits],
            [b for _, other in pairs for b in other],
            rounds, list(range(len(pairs))), [len(bits) for bits, _ in pairs],
        )
        start, redraws = 0, 0
        for s, (bits, other) in enumerate(pairs):
            want = reference_parity_verify(bits, other, rounds, s)
            part = kept[start : start + len(bits)]
            assert bool(detected[s]) == want[0], s
            assert np.flatnonzero(~part).tolist() == sorted(
                record[3] for record in want[3]), s
            redraws += redrew(want)
            start += len(bits)
        assert redraws > 0
        assert 0 < detected.sum() < len(pairs)

    def test_a_zero_first_word_is_searched_within_its_round(
        self, monkeypatch
    ):
        # each round of session 0 has an all-zero first value, so its
        # member sits in the second; session 1's first 3 coins come up
        # empty once, the bit set past them being no coin, and its second
        # attempt must read the value after them, not one of round 1's.
        # Session 2's keys differ at positions 1 and 3, both in round 0's
        # subset, so round 0 passes and discards position 1; round 1's
        # subset, live indices 0 to 2, holds position 3 at live index 2
        # and trips
        chosen = {
            (0, PARITY): [0, 0x5A],
            (0, PARITY + 1): [0, 0x4],
            (1, PARITY): [0b1000, 0b101],
            (1, PARITY + 1): [0b10],
            (2, PARITY): [0b1010],
            (2, PARITY + 1): [0b111],
        }
        alice = [[1] * 70, [0, 1, 0], [0, 0, 1, 0, 1]]
        bob = [[1] * 70, [1, 1, 0], [0, 1, 1, 1, 1]]
        monkeypatch.setattr(protocol, "values", chosen_values(chosen))
        detected, kept = parity_verify(
            sum(alice, []), sum(bob, []), 2, [0, 1, 2], [70, 3, 5]
        )
        assert detected.tolist() == [False, True, True]
        # session 0: live index 65, then index 66 of the 69 left, key
        # position 67; session 1: index 0 on its second attempt, then
        # index 1 of the two left, key position 2; session 2: index 1,
        # then index 0, key positions 74 and 73
        assert np.flatnonzero(~kept).tolist() == [65, 67, 70, 72, 73, 74]

    @given(
        bits=st.lists(st.integers(0, 1), min_size=1, max_size=300),
        flips=st.sets(st.integers(0, 299)),
        rounds=st.integers(0, 12),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=150)
    def test_matches_reference_loop_draw_for_draw(
        self, bits, flips, rounds, seed
    ):
        # oracle: the per-position loop above, on the same seed; every flip
        # lands in the key, so differing keys are common
        flips = {i % len(bits) for i in flips}
        other = [b ^ 1 if i in flips else b for i, b in enumerate(bits)]
        if len(bits) <= rounds:
            return
        got = verify_one(bits, other, rounds, seed)
        assert got == reference_verify(bits, other, rounds, seed)

    def test_empty_subset_is_drawn_again(self):
        # a two-position key comes up empty with probability 1/4 per draw;
        # oracle: the reference loop, which redraws the same way
        redraws = 0
        for seed in range(20):
            got = verify_one([1, 0], [1, 1], 1, seed)
            want = reference_parity_verify([1, 0], [1, 1], 1, seed)
            assert got == (want[0], want[1], want[2], [want[3][0][3]])
            redraws += redrew(want)
        assert redraws > 0


class TestRunSession:
    def test_clean_channel_produces_clean_transcript(self):
        batch = run_session(
            SessionConfig(n_pulses=10_000, parity_rounds=16),
            channel_table("none"),
            6,
        )
        assert not batch.detected[0]
        assert qber(batch) == 0.0
        key, _ = batch.reconciled(0)
        assert len(key) == len(batch.sifted_alice) - 16

    def test_intercept_resend_reaches_quarter_qber(self):
        batch = run_session(
            SessionConfig(n_pulses=100_000), channel_table("intercept-resend"),
            7,
        )
        assert qber(batch) == pytest.approx(0.25, abs=0.01)

    def test_oracle_attack_session_example(self):
        batch = run_session(SessionConfig(n_pulses=100_000), oracle_eve(), 8)
        assert qber(batch) == 0.0
        assert np.array_equal(eve_bits(batch), batch.sifted_alice)

    def test_discarded_positions_left_out_of_reconciled_key(self):
        config = SessionConfig(n_pulses=3_000, parity_rounds=12)
        batch = run_session(config, channel_table("none"), 10)
        want = reference_session(config, channel_table("none"), 10)
        dropped = {record[3] for record in want[3]}
        assert len(dropped) == 12
        survivors = [
            bit
            for i, bit in enumerate(batch.sifted_alice.tolist())
            if i not in dropped
        ]
        assert batch.reconciled(0)[0].tolist() == survivors

    def test_eve_reconciled_guess_alignment(self):
        config = SessionConfig(n_pulses=3_000, parity_rounds=8)
        batch = run_session(config, oracle_eve(), 11)
        assert not batch.detected[0]
        key, guess = batch.reconciled(0)
        assert np.array_equal(guess, key)
        # intercept/resend guesses differ from the key at about a quarter
        # of the positions, so a misaligned mask shows; oracle: the guesses
        # with the reference loop's discarded positions removed
        eve = channel_table("intercept-resend")
        batch = run_session(config, eve, 11)
        want = reference_session(config, eve, 11)
        dropped = {record[3] for record in want[3]}
        assert len(dropped) == 8
        want = [
            guess
            for i, guess in enumerate(eve_bits(batch).tolist())
            if i not in dropped
        ]
        assert batch.reconciled(0)[1].tolist() == want

    def test_lost_pulses_have_no_measurement(self):
        # oracle: the loss keys of the session's loss stage
        n, efficiency = 5_000, 0.4
        batch = run_session(
            SessionConfig(n_pulses=n, efficiency=efficiency),
            channel_table("none"),
            12,
        )
        stage = ReferenceStage(12, LOSS)
        lost = np.array([stage.random() >= efficiency for _ in range(n)])
        bob_bits = batch.pulses.bob_bits[0]
        assert np.array_equal(bob_bits == -1, lost)
        assert set(bob_bits[~lost].tolist()) <= {0, 1}
        assert lost.any() and not lost.all()

    def test_identical_seeds_give_identical_transcripts(self):
        config = SessionConfig(n_pulses=4_000, efficiency=0.9, parity_rounds=8)
        eve = channel_table("intercept-resend")
        first = run_session(config, eve, 1234)
        second = run_session(config, eve, 1234)
        assert columns(first) == columns(second)

    @pytest.mark.parametrize("n", [3_000, BLOCK + 5])
    def test_draws_follow_the_documented_order(self, n):
        # oracle: the stages of the stream contract, each read in order
        # with plain getrandbits and random() calls of its own reference;
        # past one BLOCK, a key's stage and index still name it
        efficiency, rounds, seed = 0.9, 4, 99
        batch = run_session(
            SessionConfig(n_pulses=n, efficiency=efficiency, parity_rounds=rounds),
            channel_table("intercept-resend"),
            seed,
        )

        def bits(stage):
            word = ReferenceStage(seed, stage).getrandbits(n)
            return [(word >> i) & 1 for i in range(n)]

        def floats(stage):
            reference = ReferenceStage(seed, stage)
            return [reference.random() for _ in range(n)]

        pulses = batch.pulses
        bob_bases = pulses.bob_bases[0]
        assert pulses.alice_bits[0].tolist() == bits(0)
        assert pulses.alice_bases[0].tolist() == bits(1)
        assert bob_bases.tolist() == bits(2)
        # the intercept/resend table: from sent state s, outcome k forwards
        # BQS[k] with probability cos^2(BQS[s] - BQS[k]) / 2 (the orthogonal
        # state's ~1e-33 made 0), and uniform u draws the first outcome
        # whose cumulative probability exceeds u
        cumulative = [
            list(accumulate(
                p if p > 1e-12 else 0.0
                for p in (math.cos(sent - state) ** 2 / 2 for state in BQS)
            ))
            for sent in BQS
        ]
        codes = 2 * pulses.alice_bases[0] + pulses.alice_bits[0]
        for i, u in enumerate(floats(3)):
            row = cumulative[codes[i]]
            want = next(k for k, edge in enumerate(row) if u < edge)
            assert pulses.outcomes[0, i] == want, i
        lost = [u >= efficiency for u in floats(4)]
        assert (pulses.bob_bits[0] == -1).tolist() == lost
        angles = channel_table("intercept-resend").forwarded_angles
        for i, u in enumerate(floats(5)):
            if lost[i]:
                continue
            bit0 = (0.0, math.pi / 4)[bob_bases[i]]
            p0 = math.cos(angles[pulses.outcomes[0, i]] - bit0) ** 2
            p0 = 1.0 if p0 >= 1 - 1e-12 else 0.0 if p0 <= 1e-12 else p0
            assert pulses.bob_bits[0, i] == (0 if u < p0 else 1)
        want = reference_parity_verify(
            batch.sifted_alice.tolist(), batch.sifted_bob.tolist(),
            rounds, seed,
        )
        assert bool(batch.detected[0]) == want[0]
        assert np.flatnonzero(~batch.kept).tolist() == sorted(
            record[3] for record in want[3]
        )
        assert batch.reconciled(0)[0].tolist() == want[1]

    def test_propagates_key_too_short(self):
        with pytest.raises(KeyTooShortError):
            run_session(
                SessionConfig(n_pulses=4, parity_rounds=10),
                channel_table("none"),
                13,
            )

    @pytest.mark.parametrize("rounds", [0, 2])
    @pytest.mark.parametrize("efficiency", [1.0, 0.5])
    def test_a_batch_without_sessions_is_empty(self, rounds, efficiency):
        config = SessionConfig(
            n_pulses=10, efficiency=efficiency, parity_rounds=rounds
        )
        assert len(run_batch(config, channel_table("none"), [])) == 0

    def test_guesses_are_read_at_flattened_pulse_indices(self):
        # oracle: session by session, the table's guess at the outcome of
        # each sifted pulse of that session's own row
        eve = channel_table("intercept-resend")
        batch = run_batch(
            SessionConfig(n_pulses=300, efficiency=0.8), eve, [21, 22, 23],
        )
        n = batch.pulses.outcomes.shape[1]
        want = [
            eve.guess_bits[batch.pulses.outcomes[index // n, index % n]]
            for index in batch.sifted.tolist()
        ]
        assert batch.guesses(batch.sifted).tolist() == want
        passive = run_batch(
            SessionConfig(n_pulses=300), channel_table("none"), [21, 22],
        )
        assert passive.guesses(passive.sifted) is None

    def test_pulse_columns_take_one_byte_per_pulse(self):
        batch = run_batch(
            SessionConfig(n_pulses=500, efficiency=0.8, parity_rounds=4),
            channel_table("intercept-resend"),
            [14, 15],
        )
        for field in fields(batch.pulses):
            column = getattr(batch.pulses, field.name)
            assert column.shape == (2, 500), field.name
            assert column.itemsize == 1, field.name

    def test_a_stage_nobody_reads_moves_nothing(self):
        # with the same seed, a passive channel, the oracle (whose keys
        # are never computed) and intercept/resend (whose keys are) draw
        # the same sender bits and bases, receiver bases and losses
        config = SessionConfig(n_pulses=5_000, efficiency=0.7)
        batches = [
            run_batch(config, channel_table(kind), [31, 32, 2**64 - 1])
            for kind in ("none", "indirect-oracle", "intercept-resend")
        ]
        for batch in batches[1:]:
            for got, want in zip(
                (batch.pulses.alice_bits, batch.pulses.alice_bases,
                 batch.pulses.bob_bases, batch.pulses.bob_bits == -1),
                (batches[0].pulses.alice_bits, batches[0].pulses.alice_bases,
                 batches[0].pulses.bob_bases, batches[0].pulses.bob_bits == -1),
            ):
                assert np.array_equal(got, want)
