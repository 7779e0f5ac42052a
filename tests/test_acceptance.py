"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance is pinned here.  Expected values never come from the code
under test: exact constants are written out from arithmetic, statistical
bounds are binomial, and the single-shot attack number comes from the
independent enumeration oracle in ``test_adversary``.

Known red: criterion 8e.  The hashed-guess agreement estimator has
expectation 0.5 + (3/4)**n / 2 per output bit for the intercept/resend
error pattern, which at n = 256 is ~1e-32 regardless of the margin, so no
Monte Carlo at this scale can exhibit a strict decrease across margins.
The check is implemented as stated and fails honestly.
"""

import math
import random
import time

import numpy as np
import pytest

from bb84sim.adversary import channel_table
from bb84sim.amplification import (
    PrivacyParams,
    compress,
    eve_residual_information,
    sample_hash,
)
from bb84sim.harness import (
    ExperimentConfig,
    derive_seed,
    detection_rate_curve,
    run_experiment,
)
from bb84sim.protocol import SessionConfig, run_batch, run_session
from bb84sim.quantum import (
    BASIS_ANGLES,
    BQS,
    DEFAULT_ANCILLA_ANGLE,
    bit0_thresholds,
    build_reference_list,
    measure,
    reduce_angle,
    settled_bits,
)
from test_adversary import enumerate_single_shot_qber
from test_protocol import eve_bits, qber


def report(name: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail} ({time.perf_counter() - started:.1f}s)")


def test_criterion_1_reference_list_exactness():
    started = time.perf_counter()
    table = build_reference_list(DEFAULT_ANCILLA_ANGLE)
    exact = (
        3 / 4,
        1 / 4,
        (math.sqrt(3) + 1) ** 2 / 8,
        (math.sqrt(3) - 1) ** 2 / 8,
    )
    printed = (0.75, 0.25, 0.933, 0.067)
    values = table.match_values
    ok = all(abs(v - e) <= 1e-12 for v, e in zip(values, exact)) and all(
        abs(v - p) <= 5e-4 for v, p in zip(values, printed)
    )
    report("criterion 1 reference list", ok, f"values={values}", started)
    for value, want in zip(values, exact):
        assert abs(value - want) <= 1e-12
    for value, want in zip(values, printed):
        assert abs(value - want) <= 5e-4


def test_criterion_2_intercept_resend_qber():
    started = time.perf_counter()
    config = ExperimentConfig(
        n_pulses=100_000,
        n_sessions=100,
        efficiency=1.0,
        eve_kind="intercept-resend",
        attack_fraction=1.0,
        master_seed=2,
    )
    mean_qber = run_experiment(config).aggregates.mean_qber
    ok = 0.24 <= mean_qber <= 0.26
    report("criterion 2 intercept/resend QBER", ok, f"mean={mean_qber:.5f}", started)
    assert 0.24 <= mean_qber <= 0.26


def test_criterion_3_oracle_attack_transparency():
    started = time.perf_counter()
    config = ExperimentConfig(
        n_pulses=10_000,
        n_sessions=100,
        parity_rounds=32,
        eve_kind="indirect-oracle",
        master_seed=3,
    )
    aggregates = run_experiment(config).aggregates
    ok = (
        aggregates.detection_rate == 0.0
        and aggregates.mean_qber == 0.0
        and aggregates.mean_eve_accuracy == 1.0
    )
    report(
        "criterion 3 oracle transparency",
        ok,
        f"detection={aggregates.detection_rate} qber={aggregates.mean_qber} "
        f"accuracy={aggregates.mean_eve_accuracy}",
        started,
    )
    assert aggregates.detection_rate == 0.0
    assert aggregates.mean_qber == 0.0
    assert aggregates.mean_eve_accuracy == 1.0


def test_criterion_4_single_shot_attack_detectability():
    started = time.perf_counter()
    analytic = enumerate_single_shot_qber(DEFAULT_ANCILLA_ANGLE, "max-posterior")
    measured = qber(run_session(
        SessionConfig(n_pulses=100_000),
        channel_table("indirect-physical"),
        derive_seed(4, 0),
    ))
    ok = abs(analytic - 0.2835) <= 5e-4 and abs(measured - analytic) <= 0.01
    report(
        "criterion 4 single-shot detectability",
        ok,
        f"analytic={analytic:.6f} monte-carlo={measured:.5f}",
        started,
    )
    assert abs(analytic - 0.2835) <= 5e-4
    assert abs(measured - analytic) <= 0.01


def test_criterion_5_parity_certification():
    started = time.perf_counter()
    config = ExperimentConfig(n_pulses=96, n_sessions=10_000, master_seed=5)
    curve = detection_rate_curve(config, list(range(1, 9)), force_differ=True)
    deviations = {k: abs(rate - (1 - 2.0**-k)) for k, rate in curve}
    ok = all(dev <= 0.02 for dev in deviations.values())
    report(
        "criterion 5 parity certification",
        ok,
        "max deviation "
        f"{max(deviations.values()):.4f} over k=1..8",
        started,
    )
    for k, deviation in deviations.items():
        assert deviation <= 0.02, f"k={k} off by {deviation}"


def test_criterion_6_sifting_fraction():
    started = time.perf_counter()
    n = 100_000
    fractions = {}
    for efficiency, seed in ((1.0, 60), (0.5, 61)):
        config = ExperimentConfig(
            n_pulses=n, n_sessions=1, efficiency=efficiency, master_seed=seed
        )
        row = run_experiment(config).sessions[0]
        fractions[efficiency] = row.sifted_length / n
    bound_full = 4 * math.sqrt(0.5 * 0.5 / n)
    bound_half = 4 * math.sqrt(0.25 * 0.75 / n)
    ok = (
        abs(fractions[1.0] - 0.5) < bound_full
        and abs(fractions[0.5] - 0.25) < bound_half
    )
    report(
        "criterion 6 sifting fraction",
        ok,
        f"eff=1: {fractions[1.0]:.4f}, eff=0.5: {fractions[0.5]:.4f}",
        started,
    )
    assert abs(fractions[1.0] - 0.5) < bound_full
    assert abs(fractions[0.5] - 0.25) < bound_half


def test_criterion_7_born_rule_frequencies():
    started = time.perf_counter()
    trials = 100_000
    diagonal_state = BQS[2]
    first = np.zeros(trials, dtype=np.uint8)  # state 0 in basis 0
    pulses = np.arange(trials)  # every pulse of one session

    def measured(thresholds, seed):
        return measure(thresholds, settled_bits(thresholds), first, first,
                       [seed], trials, pulses)

    outcomes = measured(
        bit0_thresholds([diagonal_state], BASIS_ANGLES[:1]), derive_seed(7, 0)
    )
    freq_half = np.count_nonzero(outcomes == 0) / trials
    probe = reduce_angle(DEFAULT_ANCILLA_ANGLE)
    outcomes = measured(bit0_thresholds([BQS[0]], [probe]), derive_seed(7, 1))
    freq_tilted = np.count_nonzero(outcomes == 0) / trials
    bound_half = 4 * math.sqrt(0.5 * 0.5 / trials)
    bound_tilted = 4 * math.sqrt(0.75 * 0.25 / trials)
    ok = (
        abs(freq_half - 0.5) < bound_half
        and abs(freq_tilted - 0.75) < bound_tilted
    )
    report(
        "criterion 7 Born frequencies",
        ok,
        f"diagonal-in-rectilinear={freq_half:.4f}, "
        f"horizontal-in-probe={freq_tilted:.4f}",
        started,
    )
    assert abs(freq_half - 0.5) < bound_half
    assert abs(freq_tilted - 0.75) < bound_tilted


def test_criterion_8a_compress_linearity():
    started = time.perf_counter()
    rng = random.Random(80)
    failures = 0
    for _ in range(1_000):
        n = rng.randrange(8, 64)
        t = rng.randrange(0, n - 2)
        s = rng.randrange(1, n - t)
        descriptor = sample_hash(
            PrivacyParams(input_bits=n, leak_bits=t, margin_bits=s),
            rng.getrandbits(64),
        )
        a = np.array([rng.getrandbits(1) for _ in range(n)], dtype=np.uint8)
        b = np.array([rng.getrandbits(1) for _ in range(n)], dtype=np.uint8)
        left = compress(a ^ b, descriptor)
        right = compress(a, descriptor) ^ compress(b, descriptor)
        failures += not np.array_equal(left, right)
    report(
        "criterion 8a compress linearity", failures == 0,
        f"{failures} failures over 1000 triples", started,
    )
    assert failures == 0


def test_criterion_8b_two_universal_collisions():
    started = time.perf_counter()
    params = PrivacyParams(input_bits=16, leak_bits=8, margin_bits=4)
    rng = random.Random(81)
    a = np.array([rng.getrandbits(1) for _ in range(16)], dtype=np.uint8)
    b = a.copy()
    b[[1, 6, 13]] ^= 1
    trials = 100_000
    collisions = 0
    for _ in range(trials):
        descriptor = sample_hash(params, rng.getrandbits(64))
        collisions += np.array_equal(
            compress(a, descriptor), compress(b, descriptor)
        )
    rate = collisions / trials
    ok = abs(rate - 2**-4) <= 0.01
    report(
        "criterion 8b 2-universal collisions", ok,
        f"rate={rate:.5f} target={2**-4}", started,
    )
    assert abs(rate - 2**-4) <= 0.01


def test_criterion_8c_output_length():
    started = time.perf_counter()
    rng = random.Random(82)
    ok = True
    for n, t, s in ((64, 16, 16), (128, 32, 31), (256, 200, 16), (20, 0, 1)):
        params = PrivacyParams(input_bits=n, leak_bits=t, margin_bits=s)
        key = [rng.getrandbits(1) for _ in range(n)]
        descriptor = sample_hash(params, rng.getrandbits(64))
        ok &= len(compress(key, descriptor)) == n - t - s
    config = ExperimentConfig(
        n_pulses=600, n_sessions=5, eve_kind="intercept-resend",
        pa_leak_bits=64, pa_margin_bits=8, master_seed=83,
    )
    for row in run_experiment(config).sessions:
        ok &= row.final_key_length == row.sifted_length - 64 - 8
    report("criterion 8c output length", ok, "r = n - t - s everywhere", started)
    assert ok


def _attack_batch(eve, master_seed, count):
    return run_batch(SessionConfig(n_pulses=700), eve, [
        derive_seed(master_seed, i) for i in range(count)
    ])


def test_criterion_8d_oracle_advantage_saturates():
    started = time.perf_counter()
    batch = _attack_batch(
        channel_table("indirect-oracle"), master_seed=84, count=200
    )
    advantages = []
    for margin in (4, 8, 16):
        params = PrivacyParams(input_bits=256, leak_bits=200, margin_bits=margin)
        advantages.append(
            eve_residual_information(batch, params, 13)
        )
    ok = all(adv == 0.5 for adv in advantages)
    report(
        "criterion 8d oracle advantage", ok,
        f"advantages={advantages} (0.5 means amplification defeated)", started,
    )
    assert advantages == [0.5, 0.5, 0.5]


def test_criterion_8e_intercept_resend_advantage_decreasing():
    started = time.perf_counter()
    batch = _attack_batch(
        channel_table("intercept-resend"), master_seed=85, count=1_000
    )
    hits = eve_bits(batch) == batch.sifted_alice
    accuracies = [
        np.count_nonzero(hits[start : start + length]) / length
        for start, length in zip(batch.starts.tolist(), batch.lengths.tolist())
    ]
    measured_bits = math.ceil(256 * (sum(accuracies) / len(accuracies)))
    leak = measured_bits + 8  # measured adversary bits plus a margin
    advantages = []
    for margin in (4, 8, 16):
        params = PrivacyParams(input_bits=256, leak_bits=leak, margin_bits=margin)
        advantages.append(
            eve_residual_information(batch, params, 88)
        )
    ok = advantages[0] > advantages[1] > advantages[2]
    report(
        "criterion 8e intercept/resend advantage", ok,
        f"t={leak}, advantages={advantages}", started,
    )
    assert advantages[0] > advantages[1] > advantages[2], (
        "hashed-guess agreement advantage is not strictly decreasing in the "
        f"margin: {advantages}; its expectation, 0.5 * (3/4)**256 per output "
        "bit, is margin-independent and ~1e-32, far below Monte Carlo "
        "resolution, so the prescribed estimator cannot exhibit the decrease"
    )


def test_criterion_9_determinism():
    started = time.perf_counter()
    config = ExperimentConfig(
        n_pulses=2_000,
        n_sessions=5,
        parity_rounds=8,
        eve_kind="intercept-resend",
        pa_leak_bits=100,
        pa_margin_bits=8,
        master_seed=9,
    )
    first = run_experiment(config).to_json()
    second = run_experiment(config).to_json()
    ok = first.encode() == second.encode()
    report(
        "criterion 9 determinism", ok,
        f"report bytes identical: {ok}", started,
    )
    assert first.encode() == second.encode()


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
