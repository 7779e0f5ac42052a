"""Tests for the eavesdropper strategies.

The single-shot indirect-copy variant is checked against an exact
enumeration oracle written here from scratch: four signal states, two
measurement outcomes, and the receiver's matched-basis error probability
for whatever state gets forwarded.
"""

import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bb84sim import cli, stream
from bb84sim.adversary import (
    EVE_KINDS, RESEND_RULES, channel_table, check_strategy,
)
from bb84sim.errors import DegenerateAncillaError, InvalidConfigError
from bb84sim.harness import ExperimentConfig, build_strategy
from bb84sim.protocol import (
    SessionConfig, run_batch, run_session, transmit,
)
from bb84sim.quantum import (
    DEFAULT_ANCILLA_ANGLE,
    build_reference_list,
    reduce_angle,
    squared_overlap,
)
from bb84sim.stream import ADVERSARY
from test_protocol import eve_bits, qber

BQS_ANGLES = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)


def make_table(theta=DEFAULT_ANCILLA_ANGLE):
    return build_reference_list(theta)


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


def assert_max_posterior_table(eve, want):
    """The max-posterior table forwards the guess for each outcome and
    guesses that state's bit, outcome 0 (the ancilla) first."""
    assert eve.forwarded_angles.tolist() == list(want)
    assert eve.guess_bits.tolist() == [BQS_ANGLES.index(a) % 2 for a in want]


def read_off(eve, outcome):
    """The forwarded ray angles and the guesses (``None`` for a passive
    channel) of the table ``eve`` at the outcomes ``outcome``."""
    guesses = None if eve.guess_bits is None else eve.guess_bits[outcome]
    return eve.forwarded_angles[outcome], guesses


def forwarded_and_guesses(eve, codes, drawn):
    """Intercept the pulses BQS[codes] of one session, pulse j with the
    53-bit key ``drawn[j]`` in place of its adversary key from the stream;
    returns what the table forwards and guesses at the outcomes drawn."""
    drawn = np.asarray(drawn, dtype=np.uint64)

    def chosen_keys(seeds, stage, n, positions):
        assert stage == ADVERSARY
        yield slice(0, len(positions)), drawn[positions]

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(stream, "key_blocks", chosen_keys)
        outcome = eve.intercept(np.asarray(codes, dtype=np.uint8), [0],
                                len(codes), np.arange(len(codes)))
    return read_off(eve, outcome)


def sample(eve, codes, seed):
    """Intercept the pulses BQS[codes] of the session ``seed``, each with
    its key from the stream."""
    codes = np.asarray(codes, dtype=np.uint8)
    outcome = eve.intercept(codes, [seed], len(codes), np.arange(len(codes)))
    return read_off(eve, outcome)


def at_uniform(eve, codes, u):
    """Intercept the pulses BQS[codes], each with the key of the uniform
    ``u``, a multiple of 2**-53."""
    drawn = np.full(codes.shape, int(u * 2**53), dtype=np.uint64)
    return forwarded_and_guesses(eve, codes, drawn)


def random_codes(n, seed):
    rng = random.Random(seed)
    return np.array([rng.getrandbits(2) for _ in range(n)], dtype=np.uint8)


def assert_basis_qber(batch, expected):
    """Sifted errors among pulses sent in each basis lie within 6 sigma of
    Binomial(count, expected rate)."""
    bases = np.take(batch.pulses.alice_bases, batch.sifted)
    errors = batch.sifted_alice != batch.sifted_bob
    for basis, rate in enumerate(expected):
        in_basis = bases == basis
        count = int(np.count_nonzero(in_basis))
        wrong = int(np.count_nonzero(errors & in_basis))
        assert abs(wrong - count * rate) <= 6 * math.sqrt(
            count * rate * (1 - rate)
        ), (basis, wrong / count, rate)


class TestNoEve:
    def test_pass_through(self):
        eve = channel_table("none")
        codes = np.arange(4, dtype=np.uint8)
        for u in (0.0, 0.5, 1.0 - 2.0**-53):
            forwarded, guesses = at_uniform(eve, codes, u)
            assert forwarded.tolist() == list(BQS_ANGLES)
            assert guesses is None

    def test_zero_qber_in_session(self):
        batch = run_session(
            SessionConfig(n_pulses=5_000), channel_table("none"),
            5,
        )
        assert qber(batch) == 0.0
        assert batch.guesses() is None


class TestInterceptResend:
    def test_matching_basis_pulse_forwarded_intact(self):
        # When Eve's basis matches |0>, the collapse is the identity and
        # the guess is right; the orthogonal state is never forwarded.
        eve = channel_table("intercept-resend")
        forwarded, guesses = sample(eve, np.zeros(200), 1)
        intact = forwarded == 0.0
        assert intact.any()
        assert np.all(guesses[intact] == 0)
        assert not np.any(forwarded == math.pi / 2)

    def test_forwarded_states_stay_on_alphabet(self):
        eve = channel_table("intercept-resend")
        forwarded, _ = sample(eve, random_codes(1000, 2), 3)
        assert set(forwarded.tolist()) <= set(BQS_ANGLES)

    def test_wrong_basis_resend_is_a_fair_coin(self):
        # oracle: |0> measured diagonally lands on either diagonal with
        # probability cos^2(pi/4) = 1/2
        eve = channel_table("intercept-resend")
        forwarded, guesses = sample(eve, np.zeros(100_000), 3)
        diagonal = (forwarded == math.pi / 4) | (forwarded == 3 * math.pi / 4)
        trials = int(np.count_nonzero(diagonal))
        zeros = int(np.count_nonzero(forwarded == math.pi / 4))
        sigma = math.sqrt(0.25 / trials)
        assert abs(zeros / trials - 0.5) < 4 * sigma
        antidiagonal = forwarded[diagonal] == 3 * math.pi / 4
        assert np.array_equal(guesses[diagonal], antidiagonal)

    def test_session_qber_near_one_quarter(self):
        batch = run_session(
            SessionConfig(n_pulses=100_000), channel_table("intercept-resend"),
            8,
        )
        assert qber(batch) == pytest.approx(0.25, abs=0.01)

    def test_sifted_guess_accuracy(self):
        # oracle: same basis half the time (guess surely right), different
        # basis half the time (coin), so (1 + 1/2) / 2 = 3/4
        expected = (1.0 + 0.5) / 2.0
        batch = run_session(
            SessionConfig(n_pulses=100_000), channel_table("intercept-resend"),
            9,
        )
        hits = np.count_nonzero(eve_bits(batch) == batch.sifted_alice)
        assert hits / len(batch.sifted_alice) == pytest.approx(
            expected, abs=0.01
        )

    def test_partial_attack_fraction_scales_disturbance(self):
        # oracle: only attacked pulses err, so qber = fraction * 1/4 and
        # guess accuracy = fraction * 3/4 + (1 - fraction) * 1/2
        fraction = 0.5
        batch = run_session(
            SessionConfig(n_pulses=100_000),
            channel_table("intercept-resend", attack_fraction=fraction),
            10,
        )
        assert qber(batch) == pytest.approx(fraction * 0.25, abs=0.01)
        hits = np.count_nonzero(eve_bits(batch) == batch.sifted_alice)
        assert hits / len(batch.sifted_alice) == pytest.approx(
            fraction * 0.75 + (1 - fraction) * 0.5, abs=0.01
        )

    def test_basis_resolved_qber_matches_enumeration(self):
        # oracle: a quarter of the sifted bits err in each basis
        want = enumerate_basis_qber(intercept_resend_channel)
        assert want == pytest.approx((0.25, 0.25), abs=1e-12)
        batch = run_session(
            SessionConfig(n_pulses=100_000), channel_table("intercept-resend"),
            45,
        )
        assert_basis_qber(batch, want)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            channel_table("intercept-resend", attack_fraction=1.5)

    @pytest.mark.parametrize("args", [
        ("beamsplit",), ("indirect-physical", 0.5, "resend-twice"),
        ("indirect-physical", math.nan), ("none", math.inf),
    ])
    def test_bad_builder_arguments_rejected(self, args):
        with pytest.raises(InvalidConfigError):
            channel_table(*args)

    def test_outcome_moves_on_exactly_at_a_cumulative_edge(self):
        # oracle: |0> gives (H, 0) with 1/2 and (D, 0), (A, 1) with 1/4
        # each, so u in [1/2, 3/4) draws D and u >= 3/4 draws A
        eve = channel_table("intercept-resend")
        half, three_quarters = 2**52, 3 * 2**51  # u = 1/2 and u = 3/4
        chosen = np.array([half - 1, half, three_quarters - 1,
                           three_quarters], dtype=np.uint64)
        forwarded, guesses = forwarded_and_guesses(
            eve, np.zeros(4, dtype=np.uint8), chosen)
        assert forwarded.tolist() == [0.0, math.pi / 4, math.pi / 4,
                                      3 * math.pi / 4]
        assert guesses.tolist() == [0, 0, 0, 1]

    def test_impossible_outcomes_are_never_drawn(self):
        # the orthogonal partner of the sent state has probability 0, also
        # after rounding in the cumulative table, at both ends of [0, 1)
        eve = channel_table("intercept-resend", attack_fraction=0.7)
        codes = np.arange(4, dtype=np.uint8)
        orthogonal = [math.pi / 2, 0.0, 3 * math.pi / 4, math.pi / 4]
        for u in (0.0, 1.0 - 2.0**-53):
            forwarded, _ = at_uniform(eve, codes, u)
            assert all(f != o for f, o in zip(forwarded, orthogonal))


class TestIndirectCopyOracle:
    def test_transparent_on_every_signal_state(self):
        eve = channel_table("indirect-oracle")
        codes = np.arange(4, dtype=np.uint8)
        for u in (0.0, 0.5, 1.0 - 2.0**-53):
            forwarded, guesses = at_uniform(eve, codes, u)
            assert forwarded.tolist() == list(BQS_ANGLES)
            assert guesses.tolist() == [0, 1, 0, 1]

    def test_second_diagonal_match_value(self):
        # the smallest table entry belongs to the second diagonal state
        table = make_table()
        value = squared_overlap(table.ancilla, 3 * math.pi / 4)
        assert value == pytest.approx((math.sqrt(3) - 1) ** 2 / 8, abs=1e-12)
        assert table.match_values[3] == value == min(table.match_values)

    def test_session_is_error_free_and_fully_leaked(self):
        batch = run_session(
            SessionConfig(n_pulses=100_000),
            channel_table("indirect-oracle"),
            21,
        )
        assert qber(batch) == 0.0
        assert np.array_equal(eve_bits(batch), batch.sifted_alice)

    def test_works_for_non_default_ancilla(self):
        eve = channel_table("indirect-oracle", 0.41)
        forwarded, _ = sample(eve, random_codes(500, 4), 4)
        assert forwarded.tolist() == [
            BQS_ANGLES[code] for code in random_codes(500, 4)
        ]

    @given(st.floats(min_value=0.0, max_value=math.pi, exclude_max=True),
           st.sampled_from([0.0, 0.3, 1.0]))
    @example(0.0, 1.0)
    @example(math.pi / 8, 0.3)
    @example(math.pi / 4, 0.0)
    @example(5 * math.pi / 8, 1.0)
    def test_one_table_at_every_valid_ancilla(self, theta, fraction):
        # an ancilla with four distinct overlaps identifies every state, so
        # the oracle's table is the default ancilla's; one that ties two is
        # refused by the table and by the config alike
        try:
            build_reference_list(theta)
        except DegenerateAncillaError:
            with pytest.raises(DegenerateAncillaError):
                channel_table("indirect-oracle", theta,
                              attack_fraction=fraction)
            with pytest.raises(DegenerateAncillaError):
                ExperimentConfig(n_pulses=10, n_sessions=1,
                                 eve_kind="indirect-oracle",
                                 ancilla_angle=theta,
                                 attack_fraction=fraction)
            return
        got = channel_table("indirect-oracle", theta,
                            attack_fraction=fraction)
        want = channel_table("indirect-oracle", DEFAULT_ANCILLA_ANGLE,
                             attack_fraction=fraction)
        for name in ("edges", "receiver", "guess_bits", "forwarded_angles"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_partial_fraction_still_forwards_the_sent_state(self):
        # blind passes forward the pulse untouched too, so even at u -> 1
        # every pulse arrives as sent; only the guess becomes a coin
        eve = channel_table("indirect-oracle", attack_fraction=0.3)
        codes = np.arange(4, dtype=np.uint8)
        for u in (0.0, 0.5, 1.0 - 2.0**-53):
            forwarded, guesses = at_uniform(eve, codes, u)
            assert forwarded.tolist() == list(BQS_ANGLES)
            assert set(guesses.tolist()) <= {0, 1}


class TestIndirectCopyPhysical:
    def test_outcome_frequency_follows_born_rule(self):
        # oracle: |0> projects onto the pi/6 probe with cos^2(pi/6) = 3/4,
        # and max-posterior forwards the guess for that outcome
        eve = channel_table("indirect-physical")
        trials = 100_000
        p = math.cos(DEFAULT_ANCILLA_ANGLE) ** 2
        sigma = math.sqrt(p * (1 - p) / trials)
        forwarded, _ = sample(eve, np.zeros(trials), 6)
        guess = enumerate_max_posterior_mapping(DEFAULT_ANCILLA_ANGLE)[0]
        aligned = np.count_nonzero(forwarded == guess)
        assert abs(aligned / trials - p) < 4 * sigma

    def test_max_posterior_mapping_default_ancilla(self):
        want_aligned, want_orthogonal = enumerate_max_posterior_mapping(
            DEFAULT_ANCILLA_ANGLE
        )
        assert (want_aligned, want_orthogonal) == (math.pi / 4, 3 * math.pi / 4)
        assert_max_posterior_table(
            channel_table("indirect-physical"), (want_aligned, want_orthogonal)
        )

    def test_max_posterior_mapping_across_ancillas(self):
        for theta in (0.3, 0.41, 1.0, 1.4, 2.2, 2.9):
            assert_max_posterior_table(
                channel_table("indirect-physical", theta),
                enumerate_max_posterior_mapping(theta),
            )

    def test_max_posterior_mapping_at_tied_overlaps(self):
        # at multiples of pi/8 two signal states tie in overlap with the
        # ancilla (H and D at pi/8), and the oracle's table is refused; the
        # single-shot argmax still picks one.  Angles in [0, pi) are their
        # own reduction, so the oracle's cosines round like the table's.
        assert enumerate_max_posterior_mapping(math.pi / 8) == (
            0.0, math.pi / 2
        )
        for i in range(8):
            theta = i * math.pi / 8
            with pytest.raises(DegenerateAncillaError):
                make_table(theta)
            for rule in RESEND_RULES:
                channel_table("indirect-physical", theta, rule)
            assert_max_posterior_table(
                channel_table("indirect-physical", theta),
                enumerate_max_posterior_mapping(theta),
            )

    @pytest.mark.parametrize("rule", RESEND_RULES)
    def test_breidbart_angle_runs_from_the_command_line(
        self, rule, tmp_path
    ):
        # pi/8 ties two overlaps, which only the oracle's one-to-one table
        # refuses; the sifted QBER lies within 6 sigma of the enumeration
        out = tmp_path / "report.json"
        code = cli.main([
            "run", "--eve", "indirect-physical", "--resend-rule", rule,
            "--ancilla-angle", "0.39269908169872414", "--pulses", "40000",
            "--sessions", "1", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        row = json.loads(out.read_text())["sessions"][0]
        want = enumerate_single_shot_qber(math.pi / 8, rule)
        sigma = math.sqrt(want * (1 - want) / row["sifted_length"])
        assert abs(row["qber"] - want) <= 6 * sigma, (row["qber"], want)

    def test_breidbart_angle_still_refused_for_the_oracle(self, capsys):
        # and so is the horizontal ancilla, which ties the two diagonals
        for angle in ("0.39269908169872414", "0"):
            assert cli.main([
                "run", "--eve", "indirect-oracle", "--ancilla-angle", angle,
                "--pulses", "10", "--sessions", "1",
            ]) == 2
            assert "same value" in capsys.readouterr().err

    def test_resend_ancilla_forwards_probe_eigenstates(self):
        eve = channel_table("indirect-physical", resend_rule="resend-ancilla")
        probe_states = {
            reduce_angle(DEFAULT_ANCILLA_ANGLE),
            reduce_angle(DEFAULT_ANCILLA_ANGLE + math.pi / 2),
        }
        forwarded, _ = sample(eve, random_codes(500, 12), 12)
        assert {reduce_angle(angle) for angle in forwarded} <= probe_states

    def test_enumerated_qber_default_ancilla(self):
        got = enumerate_single_shot_qber(DEFAULT_ANCILLA_ANGLE, "max-posterior")
        assert got == pytest.approx(0.2835, abs=5e-4)

    def test_monte_carlo_agrees_with_enumeration(self):
        for rule in RESEND_RULES:
            expected = enumerate_single_shot_qber(DEFAULT_ANCILLA_ANGLE, rule)
            batch = run_session(
                SessionConfig(n_pulses=100_000),
                channel_table("indirect-physical", resend_rule=rule),
                31,
            )
            assert qber(batch) == pytest.approx(expected, abs=0.01)

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
        batch = run_session(
            SessionConfig(n_pulses=100_000),
            channel_table("indirect-physical"),
            44,
        )
        assert_basis_qber(batch, want)

    def test_max_posterior_qber_has_a_closed_form(self):
        # Q(theta) = (2 - max(|cos 2 theta|, |sin 2 theta|)) / 4 against the
        # enumeration, over 157 angles in [0, pi) and the multiples of pi/4;
        # Q = 1/4 exactly at those multiples and Q > 1/4 everywhere else
        def closed_form(theta):
            return (2 - max(abs(math.cos(2 * theta)),
                            abs(math.sin(2 * theta)))) / 4

        for i in range(157):
            theta = i * math.pi / 157
            got = enumerate_single_shot_qber(theta, "max-posterior")
            assert got == pytest.approx(closed_form(theta), abs=1e-15), theta
            if i:
                assert got > 0.25, theta
        for k in range(4):
            got = enumerate_single_shot_qber(k * math.pi / 4, "max-posterior")
            assert got == pytest.approx(0.25, abs=1e-15), k
            assert closed_form(k * math.pi / 4) == 0.25

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
        codes = random_codes(200, 123)
        for eve in (
            channel_table("none"),
            channel_table("intercept-resend"),
            channel_table("indirect-oracle"),
            channel_table("indirect-physical"),
        ):
            # every pulse of one session reaches the adversary
            first, second = (
                transmit(codes, eve, [77], len(codes), np.arange(len(codes)))
                for _ in range(2)
            )
            for got, again in zip(first, second):
                assert np.array_equal(got, again)


# sha256 of the forwarded angles and guesses ``intercept`` draws for every
# signal state at ``PIN_KEYS``, keyed (kind, ancilla angle, resend rule,
# attack fraction).  Pinned before the strategies became plain tables; a
# moved digest is a changed channel.
TABLE_DIGESTS = {
    ("none", "pi/6", "max-posterior", 0.0):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "pi/6", "max-posterior", 0.3):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "pi/6", "max-posterior", 1.0):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "pi/6", "resend-ancilla", 0.0):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "pi/6", "resend-ancilla", 0.3):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "pi/6", "resend-ancilla", 1.0):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "0.41", "max-posterior", 0.0):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "0.41", "max-posterior", 0.3):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "0.41", "max-posterior", 1.0):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "0.41", "resend-ancilla", 0.0):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "0.41", "resend-ancilla", 0.3):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "0.41", "resend-ancilla", 1.0):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "pi/3", "max-posterior", 0.0):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "pi/3", "max-posterior", 0.3):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "pi/3", "max-posterior", 1.0):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "pi/3", "resend-ancilla", 0.0):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "pi/3", "resend-ancilla", 0.3):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "pi/3", "resend-ancilla", 1.0):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "2.5", "max-posterior", 0.0):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "2.5", "max-posterior", 0.3):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "2.5", "max-posterior", 1.0):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "2.5", "resend-ancilla", 0.0):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "2.5", "resend-ancilla", 0.3):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "2.5", "resend-ancilla", 1.0):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "-0.7", "max-posterior", 0.0):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "-0.7", "max-posterior", 0.3):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "-0.7", "max-posterior", 1.0):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "-0.7", "resend-ancilla", 0.0):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "-0.7", "resend-ancilla", 0.3):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("none", "-0.7", "resend-ancilla", 1.0):
        "fbe11ce4e513e92cefb235ddd7e4efe39fa578e4237e61422490fbd2fd3bbebc",
    ("intercept-resend", "pi/6", "max-posterior", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("intercept-resend", "pi/6", "max-posterior", 0.3):
        "f590527c645159fdfbdc45fbe3247ac129deae9a62ef3efef9a2353c06107270",
    ("intercept-resend", "pi/6", "max-posterior", 1.0):
        "1d579ca71006ebc8e3f4ddb8d43745a61bdc15696bf5a3d15cb5d6b45b448303",
    ("intercept-resend", "pi/6", "resend-ancilla", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("intercept-resend", "pi/6", "resend-ancilla", 0.3):
        "f590527c645159fdfbdc45fbe3247ac129deae9a62ef3efef9a2353c06107270",
    ("intercept-resend", "pi/6", "resend-ancilla", 1.0):
        "1d579ca71006ebc8e3f4ddb8d43745a61bdc15696bf5a3d15cb5d6b45b448303",
    ("intercept-resend", "0.41", "max-posterior", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("intercept-resend", "0.41", "max-posterior", 0.3):
        "f590527c645159fdfbdc45fbe3247ac129deae9a62ef3efef9a2353c06107270",
    ("intercept-resend", "0.41", "max-posterior", 1.0):
        "1d579ca71006ebc8e3f4ddb8d43745a61bdc15696bf5a3d15cb5d6b45b448303",
    ("intercept-resend", "0.41", "resend-ancilla", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("intercept-resend", "0.41", "resend-ancilla", 0.3):
        "f590527c645159fdfbdc45fbe3247ac129deae9a62ef3efef9a2353c06107270",
    ("intercept-resend", "0.41", "resend-ancilla", 1.0):
        "1d579ca71006ebc8e3f4ddb8d43745a61bdc15696bf5a3d15cb5d6b45b448303",
    ("intercept-resend", "pi/3", "max-posterior", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("intercept-resend", "pi/3", "max-posterior", 0.3):
        "f590527c645159fdfbdc45fbe3247ac129deae9a62ef3efef9a2353c06107270",
    ("intercept-resend", "pi/3", "max-posterior", 1.0):
        "1d579ca71006ebc8e3f4ddb8d43745a61bdc15696bf5a3d15cb5d6b45b448303",
    ("intercept-resend", "pi/3", "resend-ancilla", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("intercept-resend", "pi/3", "resend-ancilla", 0.3):
        "f590527c645159fdfbdc45fbe3247ac129deae9a62ef3efef9a2353c06107270",
    ("intercept-resend", "pi/3", "resend-ancilla", 1.0):
        "1d579ca71006ebc8e3f4ddb8d43745a61bdc15696bf5a3d15cb5d6b45b448303",
    ("intercept-resend", "2.5", "max-posterior", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("intercept-resend", "2.5", "max-posterior", 0.3):
        "f590527c645159fdfbdc45fbe3247ac129deae9a62ef3efef9a2353c06107270",
    ("intercept-resend", "2.5", "max-posterior", 1.0):
        "1d579ca71006ebc8e3f4ddb8d43745a61bdc15696bf5a3d15cb5d6b45b448303",
    ("intercept-resend", "2.5", "resend-ancilla", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("intercept-resend", "2.5", "resend-ancilla", 0.3):
        "f590527c645159fdfbdc45fbe3247ac129deae9a62ef3efef9a2353c06107270",
    ("intercept-resend", "2.5", "resend-ancilla", 1.0):
        "1d579ca71006ebc8e3f4ddb8d43745a61bdc15696bf5a3d15cb5d6b45b448303",
    ("intercept-resend", "-0.7", "max-posterior", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("intercept-resend", "-0.7", "max-posterior", 0.3):
        "f590527c645159fdfbdc45fbe3247ac129deae9a62ef3efef9a2353c06107270",
    ("intercept-resend", "-0.7", "max-posterior", 1.0):
        "1d579ca71006ebc8e3f4ddb8d43745a61bdc15696bf5a3d15cb5d6b45b448303",
    ("intercept-resend", "-0.7", "resend-ancilla", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("intercept-resend", "-0.7", "resend-ancilla", 0.3):
        "f590527c645159fdfbdc45fbe3247ac129deae9a62ef3efef9a2353c06107270",
    ("intercept-resend", "-0.7", "resend-ancilla", 1.0):
        "1d579ca71006ebc8e3f4ddb8d43745a61bdc15696bf5a3d15cb5d6b45b448303",
    ("indirect-oracle", "pi/6", "max-posterior", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("indirect-oracle", "pi/6", "max-posterior", 0.3):
        "8bd0690b69c8ade28c04cebd86f8f877850f0365ba9fafc229b9b5c9940cf024",
    ("indirect-oracle", "pi/6", "max-posterior", 1.0):
        "03ce60935968247364fe04d6ed7d2be3501203004c41749b9550f1ec91592011",
    ("indirect-oracle", "pi/6", "resend-ancilla", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("indirect-oracle", "pi/6", "resend-ancilla", 0.3):
        "8bd0690b69c8ade28c04cebd86f8f877850f0365ba9fafc229b9b5c9940cf024",
    ("indirect-oracle", "pi/6", "resend-ancilla", 1.0):
        "03ce60935968247364fe04d6ed7d2be3501203004c41749b9550f1ec91592011",
    ("indirect-oracle", "0.41", "max-posterior", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("indirect-oracle", "0.41", "max-posterior", 0.3):
        "8bd0690b69c8ade28c04cebd86f8f877850f0365ba9fafc229b9b5c9940cf024",
    ("indirect-oracle", "0.41", "max-posterior", 1.0):
        "03ce60935968247364fe04d6ed7d2be3501203004c41749b9550f1ec91592011",
    ("indirect-oracle", "0.41", "resend-ancilla", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("indirect-oracle", "0.41", "resend-ancilla", 0.3):
        "8bd0690b69c8ade28c04cebd86f8f877850f0365ba9fafc229b9b5c9940cf024",
    ("indirect-oracle", "0.41", "resend-ancilla", 1.0):
        "03ce60935968247364fe04d6ed7d2be3501203004c41749b9550f1ec91592011",
    ("indirect-oracle", "pi/3", "max-posterior", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("indirect-oracle", "pi/3", "max-posterior", 0.3):
        "8bd0690b69c8ade28c04cebd86f8f877850f0365ba9fafc229b9b5c9940cf024",
    ("indirect-oracle", "pi/3", "max-posterior", 1.0):
        "03ce60935968247364fe04d6ed7d2be3501203004c41749b9550f1ec91592011",
    ("indirect-oracle", "pi/3", "resend-ancilla", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("indirect-oracle", "pi/3", "resend-ancilla", 0.3):
        "8bd0690b69c8ade28c04cebd86f8f877850f0365ba9fafc229b9b5c9940cf024",
    ("indirect-oracle", "pi/3", "resend-ancilla", 1.0):
        "03ce60935968247364fe04d6ed7d2be3501203004c41749b9550f1ec91592011",
    ("indirect-oracle", "2.5", "max-posterior", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("indirect-oracle", "2.5", "max-posterior", 0.3):
        "8bd0690b69c8ade28c04cebd86f8f877850f0365ba9fafc229b9b5c9940cf024",
    ("indirect-oracle", "2.5", "max-posterior", 1.0):
        "03ce60935968247364fe04d6ed7d2be3501203004c41749b9550f1ec91592011",
    ("indirect-oracle", "2.5", "resend-ancilla", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("indirect-oracle", "2.5", "resend-ancilla", 0.3):
        "8bd0690b69c8ade28c04cebd86f8f877850f0365ba9fafc229b9b5c9940cf024",
    ("indirect-oracle", "2.5", "resend-ancilla", 1.0):
        "03ce60935968247364fe04d6ed7d2be3501203004c41749b9550f1ec91592011",
    ("indirect-oracle", "-0.7", "max-posterior", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("indirect-oracle", "-0.7", "max-posterior", 0.3):
        "8bd0690b69c8ade28c04cebd86f8f877850f0365ba9fafc229b9b5c9940cf024",
    ("indirect-oracle", "-0.7", "max-posterior", 1.0):
        "03ce60935968247364fe04d6ed7d2be3501203004c41749b9550f1ec91592011",
    ("indirect-oracle", "-0.7", "resend-ancilla", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("indirect-oracle", "-0.7", "resend-ancilla", 0.3):
        "8bd0690b69c8ade28c04cebd86f8f877850f0365ba9fafc229b9b5c9940cf024",
    ("indirect-oracle", "-0.7", "resend-ancilla", 1.0):
        "03ce60935968247364fe04d6ed7d2be3501203004c41749b9550f1ec91592011",
    ("indirect-physical", "pi/6", "max-posterior", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("indirect-physical", "pi/6", "max-posterior", 0.3):
        "b16541023da9fc5ec302d1f82daef02b42c15071aaf38a5ef8a7436cf0243646",
    ("indirect-physical", "pi/6", "max-posterior", 1.0):
        "f42166ef01509dc186a2877c7180fd6353616ba724138ec72d56c3ddf06a5da0",
    ("indirect-physical", "pi/6", "resend-ancilla", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("indirect-physical", "pi/6", "resend-ancilla", 0.3):
        "a98333a01e3fd6a9295e74024c4c2302ba8ea19095d4ff44ea46eaf9cc404053",
    ("indirect-physical", "pi/6", "resend-ancilla", 1.0):
        "4dc579f76a5352b99c71f8416bcc86b4de9e2be0705059bf057aceeedd3b680b",
    ("indirect-physical", "0.41", "max-posterior", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("indirect-physical", "0.41", "max-posterior", 0.3):
        "1ce0259931fedf7cbb9cd8125d20f16238320d147429ebbdea4e458c3b657a38",
    ("indirect-physical", "0.41", "max-posterior", 1.0):
        "6095b1d55c8a922263901fe6486745e704aba133463abccd6fdc4ecb8f1952a3",
    ("indirect-physical", "0.41", "resend-ancilla", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("indirect-physical", "0.41", "resend-ancilla", 0.3):
        "8934ee409fc4c324e0cca0079193f1e33bcb3c8cd8efa9e64ce0d4a60413e297",
    ("indirect-physical", "0.41", "resend-ancilla", 1.0):
        "3399dd2559f59d23281eb654dda170c2e5fd469d79da34826a80368264cc7cc8",
    ("indirect-physical", "pi/3", "max-posterior", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("indirect-physical", "pi/3", "max-posterior", 0.3):
        "7b64443962821e6f3c0e8119b28a0d4e7ee9e3a9af8fa305cf6878a7591d516e",
    ("indirect-physical", "pi/3", "max-posterior", 1.0):
        "ffa7af7a34662558b17639b654d4b2e604933ca9cd62ab07498d173cccde8561",
    ("indirect-physical", "pi/3", "resend-ancilla", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("indirect-physical", "pi/3", "resend-ancilla", 0.3):
        "cf952d005c731510e14953bb6fa41f7fe80eaf6bd05f472f8dd3fb668fafd277",
    ("indirect-physical", "pi/3", "resend-ancilla", 1.0):
        "1cf8677cc9a1179181c457276cdb934cef14bd5e5a17ff924bb382070a72021b",
    ("indirect-physical", "2.5", "max-posterior", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("indirect-physical", "2.5", "max-posterior", 0.3):
        "62cefaebd74d966620bc4795a522739656a262c602c8bb4871f5b5470ee62246",
    ("indirect-physical", "2.5", "max-posterior", 1.0):
        "b9f879f7131b7a1b24c48badd2cafd0a3ab5065b3d3e913fb463ecd08fe77498",
    ("indirect-physical", "2.5", "resend-ancilla", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("indirect-physical", "2.5", "resend-ancilla", 0.3):
        "e7f0bec0f5b4260bd5ca61d8b1cc5f10016da5c677dfcb2447e6ec14ab351051",
    ("indirect-physical", "2.5", "resend-ancilla", 1.0):
        "1f19b5d9896498241284a99e82bbcaa0dc3b35e4cbc579c712856b3cebe5ce35",
    ("indirect-physical", "-0.7", "max-posterior", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("indirect-physical", "-0.7", "max-posterior", 0.3):
        "005d4a9dbfe5cf945c4dca2030a07f02ab2fb0440f5cdd952a14d2ac02534989",
    ("indirect-physical", "-0.7", "max-posterior", 1.0):
        "e1ea43edbd16a7b193eeb386d5c704d1a85bcaf8ca050856cba011eea72cb6dd",
    ("indirect-physical", "-0.7", "resend-ancilla", 0.0):
        "df72fe6ba1b0fea77e4be33785e7b987963463f8f3ec32ce3f28c38cf2abd4ed",
    ("indirect-physical", "-0.7", "resend-ancilla", 0.3):
        "d5f7d16b3a347225ca554201cd17e7c9d441c949bddb6ce9a7706272e8594e23",
    ("indirect-physical", "-0.7", "resend-ancilla", 1.0):
        "6d1ca76ba8e26347cd733a37cc58fbad8c4546d073e95fd1bcc4fe578a61c4ea",
}
PIN_THETAS = {
    "pi/6": math.pi / 6, "0.41": 0.41, "pi/3": math.pi / 3, "2.5": 2.5,
    "-0.7": -0.7,
}
# Two extreme keys, then the 53-bit keys k of 510 ``random()`` calls of a
# Mersenne Twister, k * 2**-53 being the call's value: a fixed sample of
# keys, independent of the package's stream.
_PIN_RNG = random.Random(2718)
PIN_KEYS = np.array(
    [0, 2**53 - 1] + [int(_PIN_RNG.random() * 2**53) for _ in range(510)],
    dtype=np.uint64,
)


@pytest.mark.parametrize("kind, theta, rule, fraction", list(TABLE_DIGESTS))
def test_table_digest_unchanged(kind, theta, rule, fraction):
    eve = build_strategy(ExperimentConfig(
        n_pulses=1, n_sessions=1, eve_kind=kind,
        ancilla_angle=PIN_THETAS[theta], resend_rule=rule,
        attack_fraction=fraction,
    ))
    codes = np.repeat(np.arange(4, dtype=np.uint8), len(PIN_KEYS))
    forwarded, guesses = forwarded_and_guesses(
        eve, codes, np.tile(PIN_KEYS, 4))
    data = forwarded.tobytes()
    if guesses is not None:
        data += guesses.tobytes()
    assert hashlib.sha256(data).hexdigest() == TABLE_DIGESTS[
        (kind, theta, rule, fraction)
    ]


# The receiver's bit-0 eigenstates, rectilinear then diagonal, and ancilla
# angles across two half turns: multiples of pi/24, which include the
# degenerate multiples of pi/8, and a few generic angles.
RECEIVER_BIT0_ANGLES = (0.0, math.pi / 4)
THRESHOLD_THETAS = [i * math.pi / 24 for i in range(-24, 25)] + [
    0.41, 1.1, 2.5, -0.7,
]


# Ancilla angles at every multiple of pi/8 over two half turns, all
# degenerate for the oracle, a generic angle, and the non-finite ones.
STRATEGY_THETAS = [i * math.pi / 8 for i in range(-8, 9)] + [
    -math.pi, 0.41, math.nan, math.inf, -math.inf,
]


def raised(build, *args):
    """The type of what ``build(*args)`` raises, or None."""
    try:
        build(*args)
    except Exception as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("kind", EVE_KINDS)
@pytest.mark.parametrize("rule", RESEND_RULES)
@pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
def test_check_strategy_accepts_exactly_what_channel_table_builds(
    kind, rule, fraction
):
    """``check_strategy`` is what ``ExperimentConfig`` calls, so a config
    it accepts must build: both raise, with the same type, or neither.  A
    non-finite angle is refused for every kind and a multiple of pi/8 for
    the oracle alone."""
    for theta in STRATEGY_THETAS:
        args = (kind, theta, rule, fraction)
        want = (InvalidConfigError if not math.isfinite(theta)
                else DegenerateAncillaError if kind == "indirect-oracle"
                and theta != 0.41 else None)
        assert raised(check_strategy, *args) is want, theta
        assert raised(channel_table, *args) is want, theta


def born_threshold(angle: float, code: int) -> int:
    """ceil(p0 * 2**53) for p0 = cos^2 of the ray angle ``angle`` against
    the bit-0 eigenstate of the basis that sends ``BQS[code]``, computed
    with ``math.cos``, values within 1e-12 of 0 or 1 made exact."""
    p0 = math.cos(angle - RECEIVER_BIT0_ANGLES[code >> 1]) ** 2
    p0 = 1.0 if p0 >= 1 - 1e-12 else 0.0 if p0 <= 1e-12 else p0
    return math.ceil(p0 * 2**53)


def assert_born_threshold(got: int, want: int, where) -> None:
    """Tolerance: 4 units of the 53-bit key, 4 * 2**-53 in p0.  The table's
    cosine is numpy's, which may differ from ``math.cos`` by an ULP, and
    squaring at most doubles a relative error; an ULP of any p0 below 1 is
    at most 2**-53, so such a difference moves the threshold by a unit or
    two.  Snapped values, thresholds 0 and 2**53, must match exactly."""
    if want in (0, 2**53):
        assert got == want, where
    else:
        assert abs(got - want) <= 4, (where, got, want)


def drawable(eve) -> np.ndarray:
    """[k, s]: whether the table's own sampler can draw outcome k for sent
    state s, that is whether row s of ``edges`` leaves k a nonempty range
    of keys."""
    full = np.full((4, 1), 2**53, dtype=np.uint64)
    bounds = np.hstack([np.zeros_like(full), eve.edges, full])
    return (bounds[:, 1:] > bounds[:, :-1]).T


@pytest.mark.parametrize("kind", EVE_KINDS)
@pytest.mark.parametrize("rule", RESEND_RULES)
@pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
def test_receiver_thresholds_follow_the_born_rule(kind, rule, fraction):
    """Each outcome's bit-0 threshold at each sent state is ceil(p0 *
    2**53), for p0 = cos^2(forwarded angle - angle of the sent state's
    basis) (``born_threshold``), wherever the table's sampler can draw
    that pair, and 0 or that threshold elsewhere."""
    for theta in THRESHOLD_THETAS:
        try:
            eve = channel_table(kind, theta, rule, fraction)
        except DegenerateAncillaError:
            assert kind == "indirect-oracle"
            continue
        angles = eve.forwarded_angles.tolist()
        assert eve.receiver.shape == (len(angles), 4)
        reached = drawable(eve)
        for k, angle in enumerate(angles):
            for code in range(4):
                got = int(eve.receiver[k, code])
                if reached[k, code] or got:
                    assert_born_threshold(got, born_threshold(angle, code),
                                          (theta, k, code))


@pytest.mark.parametrize("kind", EVE_KINDS)
@pytest.mark.parametrize("rule", RESEND_RULES)
@pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
def test_receiver_holds_every_pair_a_batch_draws(kind, rule, fraction):
    """``receiver`` is 0 at the (outcome, sent state) pairs the channel
    never gives, so a pair drawn there would flip bits silently.  Every
    sifted entry of a small lossy batch must draw a pair whose receiver
    threshold is the Born rule's; a channel that forwards what it receives
    has only eigenstate thresholds, 0 or 2**53; intercept/resend on every
    pulse gives every pair but a signal state resent as its orthogonal
    one."""
    config = SessionConfig(n_pulses=64, efficiency=0.9)
    for theta in THRESHOLD_THETAS:
        try:
            eve = channel_table(kind, theta, rule, fraction)
        except DegenerateAncillaError:
            assert kind == "indirect-oracle"
            continue
        batch = run_batch(config, eve, [1, 2, 3, 4])
        codes = (2 * np.take(batch.pulses.alice_bases, batch.sifted)
                 + batch.sifted_alice)
        angles = eve.forwarded_angles.tolist()
        for outcome, code in zip(batch.outcomes.tolist(), codes.tolist()):
            assert_born_threshold(int(eve.receiver[outcome, code]),
                                  born_threshold(angles[outcome], code),
                                  (theta, outcome, code))
        if kind in ("none", "indirect-oracle"):
            assert set(eve.receiver.ravel().tolist()) <= {0, 2**53}, theta
        if kind == "intercept-resend" and fraction == 1.0:
            given = [[math.cos(angle - sent) ** 2 > 1e-12
                      for sent in BQS_ANGLES] for angle in angles]
            assert drawable(eve).tolist() == given, theta


def enumerate_outcomes(kind, theta, rule, fraction, sent):
    """[(probability, forwarded angle, guess)] for the signal state at ray
    angle ``sent``, written out here from each strategy's description: the
    attack with weight ``fraction``, else a blind pass that forwards the
    pulse and guesses a fair coin.  Entries may repeat an outcome."""
    if kind == "none":
        return [(1.0, sent, None)]
    if kind == "indirect-oracle":
        attack = [(1.0, sent, BQS_ANGLES.index(sent) % 2)]
    elif kind == "intercept-resend":
        # the eigenstates in BQS order, so entry i guesses bit i % 2
        attack = [(p, eigen, i % 2) for i, (p, eigen)
                  in enumerate(intercept_resend_channel(sent))]
    else:
        # the aligned outcome first, each guessing its max-posterior state
        guesses = [BQS_ANGLES.index(angle) % 2
                   for angle in enumerate_max_posterior_mapping(theta)]
        attack = [(p, angle, guess) for (p, angle), guess in zip(
            single_shot_channel(theta, rule)(sent), guesses)]
    blind = [((1.0 - fraction) / 2, sent, guess) for guess in (0, 1)]
    return [(fraction * p, angle, guess) for p, angle, guess in attack] + blind


def same_ray(a: float, b: float) -> bool:
    gap = math.fmod(a - b, math.pi) % math.pi
    return min(gap, math.pi - gap) <= 1e-9


@pytest.mark.parametrize("kind, theta, rule, fraction", list(TABLE_DIGESTS))
def test_receiver_is_zero_where_the_sent_state_never_gives_the_outcome(
    kind, theta, rule, fraction
):
    """``receiver[k, s]`` is ``born_threshold`` of ``forwarded_angles[k]``
    in the basis of s where this file's own enumeration gives P(k | s)
    above 1e-12, and 0 elsewhere; an outcome is matched by its ray and its
    guess."""
    eve = channel_table(kind, PIN_THETAS[theta], rule, fraction)
    angles = eve.forwarded_angles.tolist()
    guesses = (None if eve.guess_bits is None
               else eve.guess_bits.tolist())
    for code, sent in enumerate(BQS_ANGLES):
        given = [0.0] * len(angles)
        for p, angle, guess in enumerate_outcomes(
            kind, PIN_THETAS[theta], rule, fraction, sent
        ):
            matches = [k for k, forwarded in enumerate(angles)
                       if same_ray(forwarded, angle)
                       and (guesses is None or guesses[k] == guess)]
            assert len(matches) == 1 or p <= 1e-12, (code, angle, guess)
            for k in matches:
                given[k] += p
        for k, angle in enumerate(angles):
            got = int(eve.receiver[k, code])
            if given[k] > 1e-12:
                assert_born_threshold(got, born_threshold(angle, code),
                                      (k, code))
            else:
                assert got == 0, (k, code, given[k])
