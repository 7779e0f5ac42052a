"""Tests for Toeplitz-hash privacy amplification."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bb84sim.adversary import channel_table
from bb84sim.amplification import (
    HashDescriptor,
    PrivacyParams,
    compress,
    eve_residual_information,
    hashed_guess_advantage,
    sample_hash,
)
from bb84sim.errors import InvalidParamsError, LengthMismatchError
from bb84sim.harness import derive_seed
from bb84sim.protocol import SessionConfig, run_batch
from bb84sim.stream import TOEPLITZ
from test_stream import ReferenceStage


def random_bits(n, rng):
    return [rng.getrandbits(1) for _ in range(n)]


def explicit_toeplitz(seed, key, n, r):
    """Row i of the matrix is seed[i : i + n] reversed; multiply mod 2."""
    return np.array(
        [
            sum(int(seed[i + n - 1 - j]) * int(key[j]) for j in range(n)) % 2
            for i in range(r)
        ],
        dtype=np.uint8,
    )


def direct_compress(key, descriptor):
    """The O(n r) direct convolution the FFT path must reproduce."""
    n, r = descriptor.input_bits, descriptor.output_bits
    full = np.convolve(
        descriptor.seed_bits.astype(np.int64), np.asarray(key, dtype=np.int64)
    )
    return (full[n - 1 : n - 1 + r] % 2).astype(np.uint8)


def count_convolve(monkeypatch):
    """Record each ``np.convolve`` call, the fallback's direct convolution."""
    calls = []
    real_convolve = np.convolve

    def counting_convolve(*args, **kwargs):
        calls.append(1)
        return real_convolve(*args, **kwargs)

    monkeypatch.setattr(np, "convolve", counting_convolve)
    return calls


def perturb_irfft(monkeypatch):
    """Push one coefficient 0.3 off its integer, past the exactness guard."""
    real_irfft = np.fft.irfft

    def perturbed_irfft(*args, **kwargs):
        out = real_irfft(*args, **kwargs)
        out[len(out) // 3] += 0.3
        return out

    monkeypatch.setattr(np.fft, "irfft", perturbed_irfft)


def two_hash_agreement(key, guess, descriptor):
    """Hash key and guess separately and compare them bit by bit."""
    return float(
        np.mean(compress(key, descriptor) == compress(guess, descriptor))
    )


def batch_for(eve, count, seed, n_pulses=200):
    return run_batch(SessionConfig(n_pulses=n_pulses), eve, [
        derive_seed(seed, i) for i in range(count)
    ])


class TestPrivacyParams:
    def test_output_length_arithmetic(self):
        params = PrivacyParams(input_bits=128, leak_bits=32, margin_bits=31)
        assert params.output_bits == 65

    def test_zero_output_rejected(self):
        with pytest.raises(InvalidParamsError):
            PrivacyParams(input_bits=8, leak_bits=4, margin_bits=4)

    def test_leak_must_be_below_input(self):
        with pytest.raises(InvalidParamsError):
            PrivacyParams(input_bits=8, leak_bits=8, margin_bits=1)
        with pytest.raises(InvalidParamsError):
            PrivacyParams(input_bits=8, leak_bits=-1, margin_bits=1)

    def test_margin_must_be_positive(self):
        with pytest.raises(InvalidParamsError):
            PrivacyParams(input_bits=8, leak_bits=2, margin_bits=0)


class TestSampleHash:
    def test_descriptor_shape(self):
        params = PrivacyParams(input_bits=128, leak_bits=32, margin_bits=31)
        descriptor = sample_hash(params, 0)
        assert descriptor.input_bits == 128
        assert descriptor.output_bits == 65
        assert len(descriptor.seed_bits) == 128 + 65 - 1
        assert set(np.unique(descriptor.seed_bits)) <= {0, 1}

    def test_distinct_seeds_give_distinct_maps(self):
        # oracle: evaluate both maps on a random probe set and find at
        # least one disagreement
        params = PrivacyParams(input_bits=32, leak_bits=8, margin_bits=8)
        first = sample_hash(params, 1)
        second = sample_hash(params, 2)
        probe_rng = random.Random(3)
        probes = [random_bits(32, probe_rng) for _ in range(64)]
        assert any(
            not np.array_equal(compress(p, first), compress(p, second))
            for p in probes
        )

    # seed lengths n + r - 1 of 2, 5, 8, 9, 64, 1000 and 59,999
    @pytest.mark.parametrize(
        "n, r",
        [(2, 1), (4, 2), (5, 4), (6, 4), (40, 25), (600, 401),
         (40_000, 20_000)],
    )
    def test_bits_match_shift_extraction_and_stream(self, n, r):
        # oracle: the per-bit shift extraction of the Toeplitz stage's word,
        # read with Python ints
        n_seed = n + r - 1
        params = PrivacyParams(input_bits=n, leak_bits=n - r - 1, margin_bits=1)
        descriptor = sample_hash(params, n_seed)
        word = ReferenceStage(n_seed, TOEPLITZ).getrandbits(n_seed)
        expected = np.array(
            [(word >> i) & 1 for i in range(n_seed)], dtype=np.uint8
        )
        assert descriptor.seed_bits.dtype == np.uint8
        assert np.array_equal(descriptor.seed_bits, expected)

    def test_wrong_seed_length_rejected(self):
        with pytest.raises(InvalidParamsError):
            HashDescriptor(
                input_bits=8,
                output_bits=4,
                seed_bits=np.zeros(5, dtype=np.uint8),
            )


class TestCompress:
    def test_zero_key_maps_to_zero(self, monkeypatch):
        # G is linear, so G(0) = 0 exactly and no transform is run: at the
        # bench size (a 40,000-bit sifted key less 32 parity rounds, t =
        # 20,000, s = 16), a 64-bit key and small sizes from the edge cases
        def refuse(*args, **kwargs):
            raise AssertionError("a zero key ran a transform")

        monkeypatch.setattr(np.fft, "rfft", refuse)
        monkeypatch.setattr(np.fft, "irfft", refuse)
        monkeypatch.setattr(np, "convolve", refuse)
        rng = random.Random(4)
        for n, r in ((40_000 - 32, 40_000 - 32 - 20_000 - 16), (64, 32),
                     (1, 1), (2, 1), (33, 32), (100, 29), (129, 1)):
            descriptor = HashDescriptor(
                n, r, np.array(random_bits(n + r - 1, rng), dtype=np.uint8)
            )
            for key in ([0] * n, np.zeros(n, dtype=np.uint8)):
                out = compress(key, descriptor)
                assert out.dtype == np.uint8
                assert out.shape == (r,)
                assert not out.any()

    def test_deterministic(self):
        params = PrivacyParams(input_bits=64, leak_bits=16, margin_bits=16)
        key = random_bits(64, random.Random(5))
        a = compress(key, sample_hash(params, 6))
        b = compress(key, sample_hash(params, 6))
        assert np.array_equal(a, b)

    def test_output_length_is_always_n_minus_t_minus_s(self):
        rng = random.Random(7)
        for n, t, s in ((64, 16, 16), (128, 32, 31), (20, 3, 2), (300, 0, 1)):
            params = PrivacyParams(input_bits=n, leak_bits=t, margin_bits=s)
            descriptor = sample_hash(params, rng.getrandbits(64))
            out = compress(random_bits(n, rng), descriptor)
            assert len(out) == n - t - s

    def test_wrong_key_length_rejected(self):
        params = PrivacyParams(input_bits=64, leak_bits=16, margin_bits=16)
        descriptor = sample_hash(params, 8)
        with pytest.raises(LengthMismatchError):
            compress([0] * 63, descriptor)

    @given(seed=st.integers(0, 2**32), n=st.integers(2, 80))
    @settings(max_examples=100)
    def test_linear_over_xor(self, seed, n):
        rng = random.Random(seed)
        t = rng.randrange(0, n - 1)
        s = rng.randrange(1, n - t)
        params = PrivacyParams(input_bits=n, leak_bits=t, margin_bits=s)
        descriptor = sample_hash(params, rng.getrandbits(64))
        a = np.array(random_bits(n, rng), dtype=np.uint8)
        b = np.array(random_bits(n, rng), dtype=np.uint8)
        left = compress(a ^ b, descriptor)
        right = compress(a, descriptor) ^ compress(b, descriptor)
        assert np.array_equal(left, right)

    def test_matches_explicit_matrix_multiplication(self):
        # oracle: build the Toeplitz matrix row by row and multiply mod 2
        params = PrivacyParams(input_bits=10, leak_bits=3, margin_bits=3)
        rng = random.Random(9)
        descriptor = sample_hash(params, rng.getrandbits(64))
        key = np.array(random_bits(10, rng), dtype=np.uint8)
        explicit = explicit_toeplitz(descriptor.seed_bits, key, 10, 4)
        assert np.array_equal(compress(key, descriptor), explicit)

    # seed lengths n + r - 1 of 1, 2, odd, and 63/64/65 and 127/128/129
    # around the FFT's power-of-two size
    @pytest.mark.parametrize(
        "n, r",
        [(1, 1), (2, 1), (2, 2), (3, 2), (7, 4), (33, 31), (33, 32),
         (33, 33), (100, 28), (100, 29), (100, 30), (129, 1)],
    )
    def test_matches_explicit_matrix_at_edge_sizes(self, n, r):
        rng = random.Random(n * 1000 + r)
        ones = np.ones(n + r - 1, dtype=np.uint8)
        seeds = [ones] + [
            np.array(random_bits(n + r - 1, rng), dtype=np.uint8)
            for _ in range(3)
        ]
        keys = [np.ones(n, dtype=np.uint8)] + [
            np.array(random_bits(n, rng), dtype=np.uint8) for _ in range(3)
        ]
        for seed, key in zip(seeds, keys):
            descriptor = HashDescriptor(n, r, seed)
            assert np.array_equal(
                compress(key, descriptor), explicit_toeplitz(seed, key, n, r)
            )

    def test_matches_direct_convolution_at_full_size(self):
        params = PrivacyParams(input_bits=40_000, leak_bits=19_984,
                               margin_bits=16)
        rng = random.Random(11)
        key = np.array(random_bits(40_000, rng), dtype=np.uint8)
        for descriptor in (
            sample_hash(params, rng.getrandbits(64)),
            HashDescriptor(40_000, 20_000, np.ones(59_999, dtype=np.uint8)),
        ):
            assert np.array_equal(
                compress(key, descriptor), direct_compress(key, descriptor)
            )

    def test_inexact_fft_falls_back_to_direct_convolution(self, monkeypatch):
        params = PrivacyParams(input_bits=300, leak_bits=40, margin_bits=8)
        rng = random.Random(12)
        descriptor = sample_hash(params, rng.getrandbits(64))
        key = np.array(random_bits(300, rng), dtype=np.uint8)
        convolve_calls = count_convolve(monkeypatch)
        expected = explicit_toeplitz(descriptor.seed_bits, key, 300, 252)
        assert np.array_equal(compress(key, descriptor), expected)
        assert convolve_calls == []

        perturb_irfft(monkeypatch)
        assert np.array_equal(compress(key, descriptor), expected)
        assert convolve_calls == [1]

    def test_two_universal_collision_rate(self):
        # oracle: direct collision counting; a 2-universal family collides
        # a fixed pair with probability 2^-r
        params = PrivacyParams(input_bits=16, leak_bits=8, margin_bits=4)
        rng = random.Random(10)
        a = np.array(random_bits(16, rng), dtype=np.uint8)
        b = a.copy()
        b[[2, 7, 11]] ^= 1
        trials = 20_000
        collisions = 0
        for _ in range(trials):
            descriptor = sample_hash(params, rng.getrandbits(64))
            collisions += np.array_equal(
                compress(a, descriptor), compress(b, descriptor)
            )
        sigma = math.sqrt(2**-4 * (1 - 2**-4) / trials)
        assert abs(collisions / trials - 2**-4) < 4 * sigma


class TestHashedGuessAdvantage:
    def test_matches_two_hash_agreement(self):
        # oracle: hash key and guess separately and compare bit by bit
        rng = random.Random(14)
        for n, t, s, flips in ((64, 16, 8, 5), (200, 50, 10, 60), (9, 2, 1, 9)):
            params = PrivacyParams(input_bits=n, leak_bits=t, margin_bits=s)
            descriptor = sample_hash(params, rng.getrandbits(64))
            key = random_bits(n, rng)
            guess = list(key)
            for i in rng.sample(range(n), flips):
                guess[i] ^= 1
            agreement = two_hash_agreement(key, guess, descriptor)
            advantage = hashed_guess_advantage(key, guess, descriptor)
            assert type(advantage) is float
            assert advantage == agreement - 0.5

    @pytest.mark.parametrize("flips", [0, 300, 40_000])
    def test_matches_two_hash_agreement_at_bench_size(self, flips):
        # n + r - 1 = 59,983 coefficients: the FFT runs at 65,536 points;
        # 40,000 flips make the guess the key's complement
        params = PrivacyParams(input_bits=40_000, leak_bits=20_000,
                               margin_bits=16)
        rng = random.Random(17)
        descriptor = sample_hash(params, rng.getrandbits(64))
        key = np.array(random_bits(40_000, rng), dtype=np.uint8)
        guess = key.copy()
        guess[rng.sample(range(40_000), flips)] ^= 1
        assert hashed_guess_advantage(key, guess, descriptor) == (
            two_hash_agreement(key, guess, descriptor) - 0.5
        )

    def test_matches_two_hash_agreement_through_the_fallback(
        self, monkeypatch
    ):
        params = PrivacyParams(input_bits=300, leak_bits=40, margin_bits=8)
        rng = random.Random(18)
        descriptor = sample_hash(params, rng.getrandbits(64))
        key = np.array(random_bits(300, rng), dtype=np.uint8)
        guess = key.copy()
        guess[rng.sample(range(300), 70)] ^= 1
        convolve_calls = count_convolve(monkeypatch)
        perturb_irfft(monkeypatch)
        advantage = hashed_guess_advantage(key, guess, descriptor)
        assert convolve_calls == [1]
        assert advantage == two_hash_agreement(key, guess, descriptor) - 0.5
        assert convolve_calls == [1, 1, 1]

    def test_length_mismatch_rejected(self):
        params = PrivacyParams(input_bits=16, leak_bits=4, margin_bits=2)
        descriptor = sample_hash(params, 15)
        # a one-bit guess must not broadcast against the key
        for as_bits in (list, np.array):
            for key, guess in (([0] * 16, [0] * 15), ([0] * 15, [0] * 16),
                               ([0] * 16, [0]), ([0] * 15, [0] * 15)):
                with pytest.raises(LengthMismatchError):
                    hashed_guess_advantage(as_bits(key), as_bits(guess),
                                           descriptor)


class TestEveResidualInformation:
    def test_passive_channel_has_zero_information(self):
        batch = batch_for(channel_table("none"), 5, seed=1)
        params = PrivacyParams(input_bits=64, leak_bits=16, margin_bits=8)
        assert eve_residual_information(batch, params, 0) == 0.0

    def test_oracle_attack_defeats_amplification(self):
        # the adversary's reconciled guess equals the key, so the hashed
        # guess equals the final key for every margin
        batch = batch_for(channel_table("indirect-oracle"), 10, seed=2)
        for margin in (4, 8, 16):
            params = PrivacyParams(
                input_bits=64, leak_bits=16, margin_bits=margin
            )
            assert (
                eve_residual_information(batch, params, 1)
                == 0.5
            )

    def test_short_reconciled_key_rejected(self):
        batch = batch_for(
            channel_table("intercept-resend"), 2, seed=5, n_pulses=40
        )
        params = PrivacyParams(input_bits=64, leak_bits=16, margin_bits=8)
        with pytest.raises(LengthMismatchError):
            eve_residual_information(batch, params, 3)

    def test_detected_session_rejected(self):
        # intercept/resend at 16 parity rounds: a round trips on session 0
        # with probability 1 - 2**-16, and it has no reconciled key
        batch = run_batch(
            SessionConfig(n_pulses=200, parity_rounds=16),
            channel_table("intercept-resend"), [7],
        )
        assert batch.detected[0]
        params = PrivacyParams(input_bits=64, leak_bits=16, margin_bits=8)
        with pytest.raises(ValueError, match="detected"):
            eve_residual_information(batch, params, 5)

    def test_empty_batch_rejected(self):
        params = PrivacyParams(input_bits=64, leak_bits=16, margin_bits=8)
        with pytest.raises(ValueError, match="at least one session"):
            eve_residual_information(
                batch_for(channel_table("intercept-resend"), 0, seed=6),
                params, 4,
            )

    def test_intercept_resend_regression_values(self):
        # Frozen from a fixed-seed run under stream contract bb84sim-3.
        # After hashing, the intercept/resend guess disagrees with half the
        # output bits in expectation, so these values are sampling residue
        # at the 1/sqrt(sessions * r) scale, not recoverable information;
        # they pin the computation exactly.
        batch = batch_for(channel_table("intercept-resend"), 50, seed=7)
        observed = []
        for margin in (4, 8, 16):
            params = PrivacyParams(
                input_bits=64, leak_bits=40, margin_bits=margin
            )
            observed.append(
                eve_residual_information(batch, params, 99)
            )
        assert observed == pytest.approx([0.017, 0.01125, 0.0], abs=1e-15)
