"""Tests for the eavesdropper strategies.

The single-shot indirect-copy variant is checked against an exact
enumeration oracle written here from scratch: four signal states, two
measurement outcomes, and the receiver's matched-basis error probability
for whatever state gets forwarded.
"""

import math
import random

import numpy as np
import pytest

from bb84sim.adversary import (
    IndirectCopyOracle,
    IndirectCopyPhysical,
    InterceptResend,
    NoEve,
    ResendRule,
)
from bb84sim.errors import DegenerateAncillaError, NoMatchError
from bb84sim.protocol import SessionConfig, run_session, transmit
from bb84sim.quantum import (
    BQS,
    DEFAULT_ANCILLA_ANGLE,
    QuantumState,
    build_reference_list,
    decode,
    squared_overlap,
)
from bb84sim.stream import uniforms

BQS_ANGLES = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)


def make_table(theta=DEFAULT_ANCILLA_ANGLE):
    return build_reference_list(QuantumState(theta))


def enumerate_single_shot_qber(ancilla_angle: float, rule: str) -> float:
    """Exact sifted error rate of the single-shot attack.

    Independent of the implementation: uniform signal states, outcome
    probabilities cos^2 against the probe pair, forwarded state fixed by
    the rule, and the receiver's matched-basis wrong-bit probability
    1 - cos^2(forwarded - sent).
    """
    weights = {t: math.cos(t - ancilla_angle) ** 2 for t in BQS_ANGLES}
    aligned = max(range(4), key=lambda i: weights[BQS_ANGLES[i]])
    orthogonal = max(range(4), key=lambda i: 1.0 - weights[BQS_ANGLES[i]])

    def forwarded(outcome: int) -> float:
        if rule == "max-posterior":
            return BQS_ANGLES[aligned if outcome == 0 else orthogonal]
        return ancilla_angle + (0.0 if outcome == 0 else math.pi / 2)

    total = 0.0
    for sent in BQS_ANGLES:
        p_aligned = weights[sent]
        for outcome, p_outcome in ((0, p_aligned), (1, 1.0 - p_aligned)):
            wrong = 1.0 - math.cos(forwarded(outcome) - sent) ** 2
            total += p_outcome * wrong
    return total / 4.0


def single_shot_channel(ancilla_angle: float, rule: str):
    """sent angle -> [(probability, forwarded angle)] of the single-shot
    attack, written out like ``enumerate_single_shot_qber``."""
    weights = {t: math.cos(t - ancilla_angle) ** 2 for t in BQS_ANGLES}
    aligned = max(range(4), key=lambda i: weights[BQS_ANGLES[i]])
    orthogonal = max(range(4), key=lambda i: 1.0 - weights[BQS_ANGLES[i]])

    def channel(sent: float):
        if rule == "max-posterior":
            targets = (BQS_ANGLES[aligned], BQS_ANGLES[orthogonal])
        else:
            targets = (ancilla_angle, ancilla_angle + math.pi / 2)
        p_aligned = weights[sent]
        return [(p_aligned, targets[0]), (1.0 - p_aligned, targets[1])]

    return channel


def intercept_resend_channel(sent: float):
    """Eve picks either basis with probability 1/2, collapses the pulse onto
    one of its eigenstates by the Born rule, and forwards it."""
    return [
        (0.5 * math.cos(sent - eigen) ** 2, eigen)
        for basis in ((0.0, math.pi / 2), (math.pi / 4, 3 * math.pi / 4))
        for eigen in basis
    ]


def enumerate_basis_qber(channel) -> tuple[float, float]:
    """Exact sifted error rate among pulses sent in the rectilinear and in
    the diagonal basis: the two states of the basis are equally likely, and
    the receiver, measuring in the sender's basis, errs with probability
    1 - cos^2(forwarded - sent)."""
    return tuple(
        sum(
            p * (1.0 - math.cos(forwarded - sent) ** 2)
            for sent in pair
            for p, forwarded in channel(sent)
        )
        / 2.0
        for pair in (BQS_ANGLES[:2], BQS_ANGLES[2:])
    )


def enumerate_max_posterior_mapping(ancilla_angle: float):
    """Independent argmax over the squared overlaps and their complements."""
    weights = [math.cos(t - ancilla_angle) ** 2 for t in BQS_ANGLES]
    aligned = max(range(4), key=lambda i: weights[i])
    orthogonal = max(range(4), key=lambda i: 1.0 - weights[i])
    return BQS_ANGLES[aligned], BQS_ANGLES[orthogonal]


def sample(eve, codes, seed):
    """Intercept the pulses BQS[codes] with fresh uniforms."""
    codes = np.asarray(codes, dtype=np.uint8)
    return eve.intercept(codes, uniforms(random.Random(seed), len(codes)))


def random_codes(n, seed):
    rng = random.Random(seed)
    return np.array([rng.getrandbits(2) for _ in range(n)], dtype=np.uint8)


def assert_basis_qber(transcript, expected):
    """Sifted errors among pulses sent in each basis lie within 6 sigma of
    Binomial(count, expected rate)."""
    bases = transcript.pulses.alice_bases[transcript.sifted]
    errors = transcript.sifted_alice != transcript.sifted_bob
    for basis, rate in enumerate(expected):
        in_basis = bases == basis
        count = int(np.count_nonzero(in_basis))
        wrong = int(np.count_nonzero(errors & in_basis))
        assert abs(wrong - count * rate) <= 6 * math.sqrt(
            count * rate * (1 - rate)
        ), (basis, wrong / count, rate)


class TestNoEve:
    def test_pass_through(self):
        eve = NoEve()
        codes = np.arange(4, dtype=np.uint8)
        for u in (0.0, 0.5, 1.0 - 2.0**-53):
            forwarded, guesses = eve.intercept(codes, np.full(4, u))
            assert forwarded.tolist() == list(BQS_ANGLES)
            assert guesses is None

    def test_zero_qber_in_session(self):
        transcript = run_session(
            SessionConfig(n_pulses=5_000), NoEve(), random.Random(5)
        )
        assert transcript.qber == 0.0
        assert transcript.eve_bits is None


class TestInterceptResend:
    def test_matching_basis_pulse_forwarded_intact(self):
        # When Eve's basis matches |0>, the collapse is the identity and
        # the guess is right; the orthogonal state is never forwarded.
        forwarded, guesses = sample(InterceptResend(), np.zeros(200), 1)
        intact = forwarded == 0.0
        assert intact.any()
        assert np.all(guesses[intact] == 0)
        assert not np.any(forwarded == math.pi / 2)

    def test_forwarded_states_stay_on_alphabet(self):
        forwarded, _ = sample(InterceptResend(), random_codes(1000, 2), 3)
        assert set(forwarded.tolist()) <= set(BQS_ANGLES)

    def test_wrong_basis_resend_is_a_fair_coin(self):
        # oracle: |0> measured diagonally lands on either diagonal with
        # probability cos^2(pi/4) = 1/2
        forwarded, guesses = sample(InterceptResend(), np.zeros(100_000), 3)
        diagonal = (forwarded == math.pi / 4) | (forwarded == 3 * math.pi / 4)
        trials = int(np.count_nonzero(diagonal))
        zeros = int(np.count_nonzero(forwarded == math.pi / 4))
        sigma = math.sqrt(0.25 / trials)
        assert abs(zeros / trials - 0.5) < 4 * sigma
        antidiagonal = forwarded[diagonal] == 3 * math.pi / 4
        assert np.array_equal(guesses[diagonal], antidiagonal)

    def test_session_qber_near_one_quarter(self):
        transcript = run_session(
            SessionConfig(n_pulses=100_000), InterceptResend(), random.Random(8)
        )
        assert transcript.qber == pytest.approx(0.25, abs=0.01)

    def test_sifted_guess_accuracy(self):
        # oracle: same basis half the time (guess surely right), different
        # basis half the time (coin), so (1 + 1/2) / 2 = 3/4
        expected = (1.0 + 0.5) / 2.0
        transcript = run_session(
            SessionConfig(n_pulses=100_000), InterceptResend(), random.Random(9)
        )
        hits = np.count_nonzero(transcript.eve_bits == transcript.sifted_alice)
        assert hits / len(transcript.sifted_alice) == pytest.approx(
            expected, abs=0.01
        )

    def test_partial_attack_fraction_scales_disturbance(self):
        # oracle: only attacked pulses err, so qber = fraction * 1/4 and
        # guess accuracy = fraction * 3/4 + (1 - fraction) * 1/2
        fraction = 0.5
        transcript = run_session(
            SessionConfig(n_pulses=100_000),
            InterceptResend(attack_fraction=fraction),
            random.Random(10),
        )
        assert transcript.qber == pytest.approx(fraction * 0.25, abs=0.01)
        hits = np.count_nonzero(transcript.eve_bits == transcript.sifted_alice)
        assert hits / len(transcript.sifted_alice) == pytest.approx(
            fraction * 0.75 + (1 - fraction) * 0.5, abs=0.01
        )

    def test_basis_resolved_qber_matches_enumeration(self):
        # oracle: a quarter of the sifted bits err in each basis
        want = enumerate_basis_qber(intercept_resend_channel)
        assert want == pytest.approx((0.25, 0.25), abs=1e-12)
        transcript = run_session(
            SessionConfig(n_pulses=100_000), InterceptResend(), random.Random(45)
        )
        assert_basis_qber(transcript, want)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            InterceptResend(attack_fraction=1.5)

    def test_impossible_outcomes_are_never_drawn(self):
        # the orthogonal partner of the sent state has probability 0, also
        # after rounding in the cumulative table, at both ends of [0, 1)
        eve = InterceptResend(attack_fraction=0.7)
        codes = np.arange(4, dtype=np.uint8)
        orthogonal = [math.pi / 2, 0.0, 3 * math.pi / 4, math.pi / 4]
        for u in (0.0, 1.0 - 2.0**-53):
            forwarded, _ = eve.intercept(codes, np.full(4, u))
            assert all(f != o for f, o in zip(forwarded, orthogonal))


class TestIndirectCopyOracle:
    def test_transparent_on_every_signal_state(self):
        eve = IndirectCopyOracle(reference_list=make_table())
        codes = np.arange(4, dtype=np.uint8)
        for u in (0.0, 0.5, 1.0 - 2.0**-53):
            forwarded, guesses = eve.intercept(codes, np.full(4, u))
            assert forwarded.tolist() == list(BQS_ANGLES)
            assert guesses.tolist() == [decode(state)[0] for state in BQS]

    def test_second_diagonal_match_value(self):
        # the smallest table entry identifies the second diagonal state
        table = make_table()
        value = squared_overlap(table.ancilla, QuantumState(3 * math.pi / 4))
        assert value == pytest.approx((math.sqrt(3) - 1) ** 2 / 8, abs=1e-12)
        assert table.lookup(value) == QuantumState(3 * math.pi / 4)

    def test_session_is_error_free_and_fully_leaked(self):
        transcript = run_session(
            SessionConfig(n_pulses=100_000),
            IndirectCopyOracle(reference_list=make_table()),
            random.Random(21),
        )
        assert transcript.qber == 0.0
        assert np.array_equal(transcript.eve_bits, transcript.sifted_alice)

    def test_off_alphabet_pulse_raises(self):
        # the table is read through ReferenceList.lookup, so a list that
        # misses a signal state cannot identify that pulse
        partial = build_reference_list(
            QuantumState(DEFAULT_ANCILLA_ANGLE), signal_states=BQS[:3]
        )
        with pytest.raises(NoMatchError):
            IndirectCopyOracle(reference_list=partial)

    def test_works_for_non_default_ancilla(self):
        eve = IndirectCopyOracle(reference_list=make_table(0.41))
        forwarded, _ = sample(eve, random_codes(500, 4), 4)
        assert forwarded.tolist() == [
            BQS_ANGLES[code] for code in random_codes(500, 4)
        ]

    def test_partial_fraction_still_forwards_the_sent_state(self):
        # blind passes forward the pulse untouched too, so even at u -> 1
        # every pulse arrives as sent; only the guess becomes a coin
        eve = IndirectCopyOracle(reference_list=make_table(), attack_fraction=0.3)
        codes = np.arange(4, dtype=np.uint8)
        for u in (0.0, 0.5, 1.0 - 2.0**-53):
            forwarded, guesses = eve.intercept(codes, np.full(4, u))
            assert forwarded.tolist() == list(BQS_ANGLES)
            assert set(guesses.tolist()) <= {0, 1}


class TestIndirectCopyPhysical:
    def test_outcome_frequency_follows_born_rule(self):
        # oracle: |0> projects onto the pi/6 probe with cos^2(pi/6) = 3/4,
        # and max-posterior forwards the guess for that outcome
        eve = IndirectCopyPhysical(reference_list=make_table())
        trials = 100_000
        p = math.cos(DEFAULT_ANCILLA_ANGLE) ** 2
        sigma = math.sqrt(p * (1 - p) / trials)
        forwarded, _ = sample(eve, np.zeros(trials), 6)
        aligned = np.count_nonzero(forwarded == eve.posterior_guess(0).angle)
        assert abs(aligned / trials - p) < 4 * sigma

    def test_max_posterior_mapping_default_ancilla(self):
        want_aligned, want_orthogonal = enumerate_max_posterior_mapping(
            DEFAULT_ANCILLA_ANGLE
        )
        assert (want_aligned, want_orthogonal) == (math.pi / 4, 3 * math.pi / 4)
        eve = IndirectCopyPhysical(reference_list=make_table())
        assert eve.posterior_guess(0) == QuantumState(want_aligned)
        assert eve.posterior_guess(1) == QuantumState(want_orthogonal)

    def test_max_posterior_mapping_across_ancillas(self):
        for theta in (0.3, 0.41, 1.0, 1.4, 2.2, 2.9):
            eve = IndirectCopyPhysical(reference_list=make_table(theta))
            want = enumerate_max_posterior_mapping(theta)
            assert eve.posterior_guess(0) == QuantumState(want[0])
            assert eve.posterior_guess(1) == QuantumState(want[1])

    def test_resend_ancilla_forwards_probe_eigenstates(self):
        eve = IndirectCopyPhysical(
            reference_list=make_table(), resend_rule=ResendRule.RESEND_ANCILLA
        )
        probe_states = {
            QuantumState(DEFAULT_ANCILLA_ANGLE),
            QuantumState(DEFAULT_ANCILLA_ANGLE + math.pi / 2),
        }
        forwarded, _ = sample(eve, random_codes(500, 12), 12)
        assert {QuantumState(angle) for angle in forwarded} <= probe_states

    def test_enumerated_qber_default_ancilla(self):
        got = enumerate_single_shot_qber(DEFAULT_ANCILLA_ANGLE, "max-posterior")
        assert got == pytest.approx(0.2835, abs=5e-4)

    def test_monte_carlo_agrees_with_enumeration(self):
        for rule in ResendRule:
            expected = enumerate_single_shot_qber(
                DEFAULT_ANCILLA_ANGLE, rule.value
            )
            transcript = run_session(
                SessionConfig(n_pulses=100_000),
                IndirectCopyPhysical(
                    reference_list=make_table(), resend_rule=rule
                ),
                random.Random(31),
            )
            assert transcript.qber == pytest.approx(expected, abs=0.01)

    def test_basis_resolved_qber_matches_enumeration(self):
        # oracle: exact per-basis rates, 1/2 rectilinear and (2 - sqrt 3)/4
        # diagonal, whose mean is the headline 0.2835; 6-sigma binomial
        # bounds over one 100k-pulse session
        want = enumerate_basis_qber(
            single_shot_channel(DEFAULT_ANCILLA_ANGLE, "max-posterior")
        )
        assert want == pytest.approx((0.5, (2 - math.sqrt(3)) / 4), abs=1e-12)
        assert sum(want) / 2 == pytest.approx(
            enumerate_single_shot_qber(DEFAULT_ANCILLA_ANGLE, "max-posterior"),
            abs=1e-12,
        )
        transcript = run_session(
            SessionConfig(n_pulses=100_000),
            IndirectCopyPhysical(reference_list=make_table()),
            random.Random(44),
        )
        assert_basis_qber(transcript, want)

    def test_never_transparent_for_any_valid_ancilla(self):
        # exact enumeration over an ancilla grid that avoids the degenerate
        # multiples of pi/8; no sampling noise involved
        thetas = [i * math.pi / 97 + 0.013 for i in range(97)]
        for theta in thetas:
            try:
                make_table(theta)
            except DegenerateAncillaError:
                continue
            for rule in ("max-posterior", "resend-ancilla"):
                assert enumerate_single_shot_qber(theta, rule) > 0.05


class TestDeterminism:
    def test_intercept_reproducible_from_rng_state(self):
        table = make_table()
        codes = random_codes(200, 123)
        for eve in (
            NoEve(),
            InterceptResend(),
            IndirectCopyOracle(reference_list=table),
            IndirectCopyPhysical(reference_list=table),
        ):
            first = transmit(codes, eve, 0.9, random.Random(77))
            second = transmit(codes, eve, 0.9, random.Random(77))
            for a, b in zip(first, second):
                assert (a is None and b is None) or np.array_equal(a, b)
