"""The executable random-stream contract: a per-pulse, pure-Python
reference of ``bb84sim-3``, written from the ``harness`` docstring, against
the reports and curves the engine writes.

The reference reads every value through ``test_stream.ReferenceStage``,
in Python ints, and walks the pulses, sifted positions and parity rounds
one at a time, the rounds through ``test_protocol``'s per-position loop,
``reference_parity_verify``.  It borrows from the package only what the
contract does not define: the channel table (``intercept`` and
``bit0_thresholds``), the privacy-amplification bounds of
``PrivacyParams`` and the aggregates of the rows.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from bb84sim.adversary import EVE_KINDS, RESEND_RULES
from bb84sim.amplification import PrivacyParams
from bb84sim.errors import (
    InvalidParamsError,
    KeyTooShortError,
    SessionError,
)
from bb84sim.harness import (
    ExperimentConfig,
    ExperimentReport,
    SessionRow,
    build_strategy,
    compute_aggregates,
    curve_to_json,
    detection_rate_curve,
    run_experiment,
)
from test_protocol import reference_parity_verify
from test_stream import ReferenceStage, reference_split

MASK64 = (1 << 64) - 1
# Stage numbers, as the contract lists them.
ALICE_BITS, ALICE_BASES, BOB_BASES, ADVERSARY, LOSS, MEASURE, FLIP, \
    TOEPLITZ = range(8)
PARITY = 2**16


def bits(seed, stage, k):
    """The first k bits of a stage: bit i is bit i mod 64 of value
    i // 64."""
    word = ReferenceStage(seed, stage).getrandbits(k)
    return [(word >> i) & 1 for i in range(k)]


def key(seed, stage, j):
    return ReferenceStage(seed, stage, j).key()


def reference_sifted(config, table, seed):
    """Steps 0-5 of session ``seed``, pulse by pulse: the sender's and the
    receiver's sifted keys and the adversary's sifted guesses (``None`` on
    a passive channel)."""
    n = config.n_pulses
    alice_bits = bits(seed, ALICE_BITS, n)
    alice_bases = bits(seed, ALICE_BASES, n)
    bob_bases = bits(seed, BOB_BASES, n)
    codes = [2 * basis + bit for bit, basis in zip(alice_bits, alice_bases)]
    # A table with one outcome per sent state ignores its keys, so reading
    # stage 3 for every table gives the outcomes the contract does.
    adversary_keys = [key(seed, ADVERSARY, i) for i in range(n)]
    outcomes = table.intercept(
        np.array(codes, np.uint8), np.array(adversary_keys, np.uint64)
    ).tolist()
    edge = math.ceil(config.efficiency * 2**53)
    alice, bob, guesses = [], [], []
    for i in range(n):
        lost = config.efficiency < 1 and key(seed, LOSS, i) >= edge
        measured = int(
            key(seed, MEASURE, i)
            >= int(table.bit0_thresholds[outcomes[i], bob_bases[i]])
        )
        if not lost and alice_bases[i] == bob_bases[i]:
            alice.append(alice_bits[i])
            bob.append(measured)
            if table.guess_bits is not None:
                guesses.append(int(table.guess_bits[outcomes[i]]))
    return alice, bob, (None if table.guess_bits is None else guesses)


def toeplitz(seed_bits, key_bits, r):
    """Output bit i: row i of the matrix, seed_bits[i : i + n] reversed,
    times the key, mod 2.  With the seed as an int S (bit m = seed bit m)
    and the key reversed into an int K (bit n - 1 - j = key bit j), row i
    meets the key where (S >> i) & K has its bits set."""
    n = len(key_bits)
    packed = int("".join(map(str, reversed(seed_bits))) or "0", 2)
    reversed_key = int("".join(map(str, key_bits)) or "0", 2)
    window = (1 << n) - 1
    return [((packed >> i) & reversed_key & window).bit_count() % 2
            for i in range(r)]


def reference_row(config, table, index, seed):
    """Session ``index`` of ``run_experiment``, or the exception it
    raises."""
    alice, bob, guesses = reference_sifted(config, table, seed)
    length, rounds = len(alice), config.parity_rounds
    accuracy = None
    if guesses is not None and length:
        accuracy = sum(g == a for g, a in zip(guesses, alice)) / length
    detected, live = False, list(range(length))
    if rounds:
        if length <= rounds:
            raise KeyTooShortError
        detected, _, _, records = reference_parity_verify(
            alice, bob, rounds, seed)
        live = sorted(set(live) - {record[3] for record in records})
    final_length, advantage = 0, None
    if not detected:
        final_length = length - rounds
        if config.privacy_enabled:
            params = PrivacyParams(final_length, config.pa_leak_bits,
                                   config.pa_margin_bits)
            r = params.output_bits
            seed_bits = bits(seed, TOEPLITZ, final_length + r - 1)
            final_length = r
            if guesses is not None:
                hashed_key = toeplitz(seed_bits, [alice[i] for i in live], r)
                hashed_guess = toeplitz(
                    seed_bits, [guesses[i] for i in live], r)
                agree = sum(a == b for a, b in zip(hashed_key, hashed_guess))
                advantage = agree / r - 0.5
    errors = sum(a != b for a, b in zip(alice, bob))
    return SessionRow(
        index=index,
        qber=errors / length if length else 0.0,
        sifted_length=length,
        detected=detected,
        final_key_length=final_length,
        eve_accuracy=accuracy,
        eve_advantage=advantage,
    )


def reference_report(config):
    """The report's JSON text, or (index, exception type) of the first
    session that fails."""
    table = build_strategy(config)
    rows = []
    for index in range(config.n_sessions):
        seed = reference_split(config.master_seed, index)
        try:
            rows.append(reference_row(config, table, index, seed))
        except (KeyTooShortError, InvalidParamsError) as exc:
            return index, type(exc)
    report = ExperimentReport(config, rows, compute_aggregates(rows, config))
    return report.to_json()


def reference_curve(config, k_values, force_differ):
    """The curve's points, or (index, exception type) of the first session
    of the k-major sweep that fails."""
    table = build_strategy(config)
    curve, index = [], 0
    for k in k_values:
        detections = 0
        for _ in range(config.n_sessions):
            seed = reference_split(config.master_seed, index)
            alice, bob, _ = reference_sifted(config, table, seed)
            if not alice:
                return index, (ValueError if force_differ
                               else KeyTooShortError)
            if force_differ:
                u = key(seed, FLIP, 0) * 2.0**-53
                bob[min(int(u * len(bob)), len(bob) - 1)] ^= 1
            if k and len(alice) <= k:
                return index, KeyTooShortError
            detections += reference_parity_verify(alice, bob, k, seed)[0]
            index += 1
        curve.append((k, detections / config.n_sessions))
    return curve


def failure(call):
    """``call()``'s result, or the (index, cause type) of its
    ``SessionError``."""
    try:
        return call()
    except SessionError as error:
        return error.session_index, type(error.__cause__)


seeds = st.one_of(st.sampled_from([0, 1, MASK64]),
                  st.integers(0, MASK64))
efficiencies = st.one_of(st.just(1.0), st.sampled_from([0.3, 0.8]),
                         st.floats(0.05, 1.0))
strategies = st.fixed_dictionaries({
    "eve_kind": st.sampled_from(EVE_KINDS),
    "attack_fraction": st.sampled_from([1.0, 0.3, 0.0]),
    "resend_rule": st.sampled_from(RESEND_RULES),
    "ancilla_angle": st.sampled_from([math.pi / 6, 0.41, 2.5]),
})


def small_config(draw, pulses):
    fields = draw(strategies)
    if fields["eve_kind"] == "indirect-oracle":
        fields["ancilla_angle"] = math.pi / 6
    return ExperimentConfig(
        n_pulses=draw(pulses),
        n_sessions=draw(st.integers(1, 5)),
        efficiency=draw(efficiencies),
        parity_rounds=draw(st.integers(0, 4)),
        master_seed=draw(seeds),
        **fields,
    )


@st.composite
def run_configs(draw):
    config = small_config(draw, st.one_of(
        st.integers(1, 12), st.integers(1, 80), st.integers(2000, 4200)))
    if draw(st.booleans()):
        config = replace(config, pa_leak_bits=draw(st.integers(0, 12)),
                         pa_margin_bits=draw(st.integers(1, 6)))
    return config


@st.composite
def curve_configs(draw):
    return small_config(
        draw, st.one_of(st.integers(1, 12), st.integers(1, 96)))


@given(config=run_configs())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_reports_equal_the_reference_byte_for_byte(config):
    # sessions of 2000 pulses or more run two or three to a batch, so the
    # reports span several batches
    want = reference_report(config)
    got = failure(lambda: run_experiment(config).to_json())
    assert got == want


@given(config=curve_configs(),
       k_values=st.lists(st.integers(0, 4), min_size=1, max_size=3),
       force_differ=st.booleans())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_curves_equal_the_reference(config, k_values, force_differ):
    want = reference_curve(config, k_values, force_differ)
    got = failure(lambda: detection_rate_curve(config, k_values,
                                               force_differ))
    assert got == want
    if not isinstance(want, tuple):
        assert curve_to_json(config, got) == curve_to_json(config, want)


def test_redraws_and_amplification_are_covered():
    # a configuration whose sessions all pass, some of them meeting an
    # empty parity subset, and all amplify, so the comparisons above
    # cannot miss either by chance
    for master_seed in range(1, 500):
        config = ExperimentConfig(
            n_pulses=12, n_sessions=20, parity_rounds=3,
            eve_kind="indirect-oracle", pa_leak_bits=0, pa_margin_bits=1,
            master_seed=master_seed,
        )
        want = reference_report(config)
        if isinstance(want, tuple):
            continue
        table = build_strategy(config)
        redraws = 0
        for index in range(config.n_sessions):
            seed = reference_split(master_seed, index)
            length = len(reference_sifted(config, table, seed)[0])
            redraws += sum(not any(bits(seed, PARITY + r, length - r))
                           for r in range(3))
        if redraws:
            break
    else:
        raise AssertionError("no passing configuration with a redraw")
    assert run_experiment(config).to_json() == want
