"""Tests for the polarization-state math."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bb84sim import stream
from bb84sim.errors import DegenerateAncillaError
from bb84sim.adversary import channel_table
from bb84sim.quantum import (
    BASIS_ANGLES,
    BQS,
    DEFAULT_ANCILLA_ANGLE,
    MATCH_TOL,
    bit0_thresholds,
    build_reference_list,
    measure,
    reduce_angle,
    squared_overlap,
)
from bb84sim.stream import MEASURE, key_blocks
from test_stream import ReferenceStage

ANCILLA = DEFAULT_ANCILLA_ANGLE
H, V, D, A = BQS  # horizontal, vertical, the two diagonals

angles = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


class TestAngles:
    @given(angles)
    @example(-math.pi)
    @example(-2 * math.pi)
    def test_reduce_lands_in_half_open_interval(self, theta):
        reduced = reduce_angle(theta)
        assert 0.0 <= reduced < math.pi
        assert math.copysign(1.0, reduced) == 1.0  # never -0.0

    @given(angles)
    def test_reduce_is_idempotent(self, theta):
        reduced = reduce_angle(theta)
        assert reduce_angle(reduced) == reduced

    def test_state_and_its_negation_are_the_same_ray(self):
        assert reduce_angle(-math.pi / 4) == reduce_angle(3 * math.pi / 4)
        assert reduce_angle(math.pi) == reduce_angle(0.0)


class TestOverlap:
    def test_ancilla_with_horizontal_state(self):
        # (sqrt(3)/2)**2, the aligned-component amplitude of a pi/6 state
        assert squared_overlap(ANCILLA, H) == pytest.approx(0.75, abs=1e-12)

    def test_ancilla_with_first_diagonal(self):
        assert squared_overlap(ANCILLA, D) == pytest.approx(
            ((math.sqrt(6) + math.sqrt(2)) / 4) ** 2, abs=1e-12
        )

    def test_ancilla_with_second_diagonal_ray_sign(self):
        # The ray at 3pi/4 and its negation at -pi/4 have amplitudes of
        # opposite sign against the ancilla; the square the table uses is
        # the same for both.
        want = ((math.sqrt(6) - math.sqrt(2)) / 4) ** 2
        assert squared_overlap(ANCILLA, A) == pytest.approx(want, abs=1e-12)
        assert squared_overlap(ANCILLA, -math.pi / 4) == pytest.approx(
            want, abs=1e-12
        )

    def test_identical_states(self):
        assert squared_overlap(H, H) == 1.0

    def test_same_basis_states_are_orthogonal(self):
        for bit0, bit1 in ((H, V), (D, A)):
            assert squared_overlap(bit0, bit1) == pytest.approx(0.0, abs=1e-12)

    def test_cross_basis_squared_overlap_is_half(self):
        for a in (H, V):
            for b in (D, A):
                assert squared_overlap(a, b) == pytest.approx(0.5, abs=1e-12)

    @given(angles, angles)
    def test_overlap_within_unit_interval(self, a, b):
        assert 0.0 <= squared_overlap(a, b) <= 1.0


class TestBornProbability:
    def test_equal_superposition(self):
        assert squared_overlap(math.pi / 4, 0.0) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_horizontal_against_ancilla_angle(self):
        assert squared_overlap(H, DEFAULT_ANCILLA_ANGLE) == pytest.approx(
            0.75, abs=1e-12
        )

    def test_eigenstate(self):
        assert squared_overlap(math.pi / 2, math.pi / 2) == 1.0

    @given(angles)
    def test_outcomes_sum_to_one_in_any_basis(self, theta):
        for bit0 in (*BASIS_ANGLES, 1.234):
            total = squared_overlap(theta, bit0) + squared_overlap(
                theta, bit0 + math.pi / 2
            )
            assert total == pytest.approx(1.0, abs=1e-12)


class TestBasis:
    def test_member_angles_differ_by_quarter_turn(self):
        # code 2 * basis + bit; bit 0 of each basis sits at BASIS_ANGLES
        for basis, bit0 in enumerate(BASIS_ANGLES):
            assert BQS[2 * basis] == bit0
            assert BQS[2 * basis + 1] - bit0 == pytest.approx(
                math.pi / 2, abs=1e-9
            )

    @given(angles)
    def test_ancilla_basis_is_orthogonal(self, theta):
        # the single-shot probe pair, as the resend-ancilla table forwards
        # it: the reduced ancilla and its orthogonal partner
        eve = channel_table("indirect-physical", theta, "resend-ancilla")
        first, second = eve.forwarded_angles
        assert first == reduce_angle(theta)
        assert 0.0 <= second < math.pi
        assert squared_overlap(first, second) == pytest.approx(0.0, abs=1e-12)


def reference_measure(angles, basis_angle, rng):
    """The scalar Born-rule loop: one ``rng.random()`` per state, bit 0
    when it falls below cos^2 of the angle to the bit-0 eigenstate, and
    probabilities within 1e-12 of 0 or 1 taken as exact; ``rng`` is a
    ``ReferenceStage`` of the measurement stage."""
    bits = []
    for angle in angles:
        p0 = math.cos(angle - basis_angle) ** 2
        if p0 >= 1.0 - 1e-12:
            p0 = 1.0
        elif p0 <= 1e-12:
            p0 = 0.0
        bits.append(0 if rng.random() < p0 else 1)
    return bits


def measure_angles(angles, basis_angles, seeds):
    """``measure`` on every pulse of a batch of states given as ray angles,
    one row per seed, each measured in the basis whose bit-0 eigenstate
    lies at its entry of ``basis_angles`` (a scalar serves every state):
    each distinct angle and basis angle is a row and a column of the
    threshold table.  Returns the bits in the shape of ``angles``."""
    angles = np.asarray(angles, dtype=float)
    basis_angles = np.broadcast_to(basis_angles, angles.shape)
    states, state_index = np.unique(angles, return_inverse=True)
    bases, basis_index = np.unique(basis_angles, return_inverse=True)
    thresholds = bit0_thresholds(states, bases)
    bits = measure(
        thresholds, state_index.ravel(), basis_index.ravel(), seeds,
        angles.shape[1], np.arange(angles.size),
    )
    return bits.reshape(angles.shape)


def counting_key_blocks(monkeypatch):
    """Count the keys ``quantum.measure`` computes, through
    ``stream.decide``: the returned list gains the positions of each
    call."""
    asked = []

    def counting(seeds, stage, n, positions):
        assert stage == MEASURE
        asked.append(positions.tolist())
        return key_blocks(seeds, stage, n, positions)

    monkeypatch.setattr(stream, "key_blocks", counting)
    return asked


class TestMeasure:
    def test_eigenstates_measure_deterministically(self):
        for basis, bit0 in enumerate(BASIS_ANGLES):
            for bit in (0, 1):
                state = BQS[2 * basis + bit]
                bits = measure_angles(
                    np.full((1, 100), state), bit0, [2 * basis + bit],
                )
                assert bits.tolist() == [[bit] * 100]
                assert reduce_angle(bit0 + bit * math.pi / 2) == state

    def test_settled_states_read_no_key(self, monkeypatch):
        # an eigenstate of its basis reads no key, a state between them
        # reads key i at its own position i; oracle: the scalar loop
        asked = counting_key_blocks(monkeypatch)
        angles = np.array([[H, D, V, ANCILLA, A, 1.1, H]])
        got = measure_angles(angles, H, [12])
        assert asked == [[1, 3, 4, 5]]
        rng = ReferenceStage(12, MEASURE)
        want = [reference_measure([angle], H, rng)[0]
                for angle in angles[0]]
        assert got.tolist() == [want]

    def test_settled_bits_mark_the_fixed_outcomes(self, monkeypatch):
        # bit 0 where p0 = 1 and bit 1 where p0 = 0, for the least key and
        # the greatest alike; between them the two keys disagree, and only
        # those states read a key
        thresholds = bit0_thresholds(BQS + (ANCILLA,))
        states = np.repeat(np.arange(5, dtype=np.uint8), 2)
        bases = np.tile(np.arange(2, dtype=np.uint8), 5)
        measured = []
        for chosen in (0, 2**53 - 1):
            asked = []

            def constant_keys(seeds, stage, n, positions):
                asked.append(positions.tolist())
                yield slice(0, len(positions)), np.full(
                    len(positions), chosen, dtype=np.uint64)

            monkeypatch.setattr(stream, "key_blocks", constant_keys)
            measured.append(measure(thresholds, states, bases, [0], 10,
                                    np.arange(10)).tolist())
            assert asked == [[1, 3, 4, 6, 8, 9]]
        least, greatest = measured
        assert [a if a == b else "key" for a, b in zip(least, greatest)] == [
            0, "key", 1, "key", "key", 0, "key", 1, "key", "key",
        ]

    def test_identical_seeds_reproduce_outcomes(self):
        angles = np.full((1, 1000), math.pi / 4)
        basis = BASIS_ANGLES[0]
        out_a = measure_angles(angles, basis, [7])
        out_b = measure_angles(angles, basis, [7])
        assert np.array_equal(out_a, out_b)

    def test_collapse_returns_basis_eigenstate(self):
        # the collapsed state is an eigenstate of the basis, so measuring
        # it again in that basis repeats the outcome
        bits = measure_angles(np.full((1, 200), 1.1), D, [3])
        for bit in bits[0]:
            assert reduce_angle(D + bit * math.pi / 2) in (D, A)
        collapsed = D + bits * (math.pi / 2)
        again = measure_angles(collapsed, D, [4])
        assert np.array_equal(again, bits)

    def test_matches_scalar_reference_draw_for_draw(self):
        # oracle: the per-state loop above, on the same seed's measurement
        # stage; the batch spans several blocks and mixes in basis
        # eigenstates
        picker = random.Random(5)
        angles = [
            picker.choice((0.0, math.pi / 2, math.pi / 4, picker.random() * 3))
            for _ in range(20_000)
        ]
        for basis_angle in (0.0, math.pi / 4, DEFAULT_ANCILLA_ANGLE):
            got = measure_angles(np.array([angles]), basis_angle, [6])
            want = reference_measure(
                angles, basis_angle, ReferenceStage(6, MEASURE))
            assert got.tolist() == [want]

    def test_per_state_bases(self):
        # oracle: each state measured in its own basis equals measuring the
        # two groups with the scalar loop, in pulse order
        picker = random.Random(8)
        angles = [picker.random() * math.pi for _ in range(500)]
        bases = [picker.getrandbits(1) for _ in range(500)]
        basis_angles = np.array([[BASIS_ANGLES[b] for b in bases]])
        got = measure_angles(np.array([angles]), basis_angles, [9])
        rng = ReferenceStage(9, MEASURE)
        want = [
            reference_measure([a], BASIS_ANGLES[b], rng)[0]
            for a, b in zip(angles, bases)
        ]
        assert got.tolist() == [want]

    def test_key_at_the_threshold_measures_bit_1(self, monkeypatch):
        # oracle: bit 1 when u >= p0, so the key ceil(p0 * 2**53) is the
        # first to give it; the tilted state's p0 = cos^2(pi/6) ~ 3/4
        p0 = math.cos(ANCILLA) ** 2
        edge = math.ceil(p0 * 2**53)
        chosen = [edge - 1, edge, edge + 1, 0, 2**53 - 1]

        def measurement_keys(seeds, stage, n, positions):
            assert stage == MEASURE
            yield slice(0, len(positions)), np.array(
                [chosen[i] for i in positions], dtype=np.uint64)

        monkeypatch.setattr(stream, "key_blocks", measurement_keys)
        bits = measure_angles(np.full((1, len(chosen)), ANCILLA), H, [0])
        assert bits.tolist() == [[0, 1, 1, 0, 1]]

    def test_superposition_frequency_matches_born_rule(self):
        # oracle: cos(pi/4)**2 = 1/2, binomial 3 sigma over 1e5 draws
        trials = 100_000
        p = math.cos(math.pi / 4) ** 2
        sigma = math.sqrt(p * (1 - p) / trials)
        bits = measure_angles(np.full((1, trials), math.pi / 4), H, [2024])
        zeros = int(np.count_nonzero(bits == 0))
        assert abs(zeros / trials - p) < 3 * sigma

    def test_tilted_state_frequency_matches_born_rule(self):
        # oracle: cos(pi/6)**2 = 3/4 against the horizontal outcome
        trials = 100_000
        p = math.cos(math.pi / 6) ** 2
        sigma = math.sqrt(p * (1 - p) / trials)
        bits = measure_angles(np.full((1, trials), ANCILLA), H, [11])
        zeros = int(np.count_nonzero(bits == 0))
        assert abs(zeros / trials - p) < 4 * sigma


class TestReferenceList:
    def test_default_ancilla_reproduces_known_table(self):
        table = build_reference_list(ANCILLA)
        expected = (
            3 / 4,
            1 / 4,
            (math.sqrt(3) + 1) ** 2 / 8,
            (math.sqrt(3) - 1) ** 2 / 8,
        )
        for value, want in zip(table.match_values, expected):
            assert value == pytest.approx(want, abs=1e-12)

    def test_horizontal_ancilla_is_degenerate(self):
        # both diagonal states sit at squared overlap 1/2
        with pytest.raises(DegenerateAncillaError):
            build_reference_list(0.0)

    def test_pi_over_8_ancilla_is_degenerate(self):
        # oracle: direct evaluation shows cos(pi/8)^2 == cos(pi/8 - pi/4)^2
        a = math.pi / 8
        direct = [math.cos(a - t) ** 2 for t in (0.0, math.pi / 4)]
        assert abs(direct[0] - direct[1]) < 1e-12
        with pytest.raises(DegenerateAncillaError):
            build_reference_list(a)

    def test_generic_ancilla_gives_four_distinct_values(self):
        # oracle: evaluate the four squared cosines directly and check
        # pairwise separation before asking the implementation
        a = 0.41
        direct = sorted(
            math.cos(a - t) ** 2
            for t in (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
        )
        gaps = [y - x for x, y in zip(direct, direct[1:])]
        assert min(gaps) > 1e-3
        table = build_reference_list(a)
        assert sorted(table.match_values) == pytest.approx(direct, abs=1e-12)

    def test_tolerance_far_below_table_gaps(self):
        values = sorted(build_reference_list(ANCILLA).match_values)
        smallest_gap = min(b - a for a, b in zip(values, values[1:]))
        assert smallest_gap > 1e5 * MATCH_TOL
