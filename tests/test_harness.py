"""Tests for the experiment runner, reporting, and serialization."""

import hashlib
import json
import math
import os
import random
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from bb84sim.amplification import PrivacyParams, compress, sample_hash
from bb84sim import amplification, cli, harness, protocol, stream
from bb84sim.errors import (
    InvalidConfigError,
    InvalidParamsError,
    KeyTooShortError,
    SessionError,
)
from bb84sim.harness import (
    RNG_CONTRACT,
    AggregateStats,
    ExperimentConfig,
    ExperimentReport,
    SessionRow,
    build_strategy,
    compute_aggregates,
    curve_to_csv,
    curve_to_json,
    derive_seed,
    detection_rate_curve,
    run_experiment,
)
from bb84sim.adversary import EVE_KINDS, ChannelTable, channel_table
from bb84sim.protocol import SessionConfig, run_batch, run_session
from bb84sim.stream import (
    ADVERSARY, ALICE_BASES, ALICE_BITS, BLOCK, BOB_BASES, FLIP, LOSS, MEASURE,
    threshold,
)
from test_contract import bits, key
from test_protocol import (
    columns,
    first_trip,
    redrew,
    reference_parity_verify,
    reference_session,
    row_outcome,
)
from test_stream import ReferenceStage


class TestSeedDerivation:
    def test_reproducible(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)
        assert derive_seed(42, 7) == derive_seed(42, 7)

    def test_pairwise_distinct_across_sessions(self):
        seeds = [derive_seed(123456789, i) for i in range(10_000)]
        assert len(set(seeds)) == len(seeds)

    def test_distinct_across_master_seeds(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_stays_in_64_bits(self):
        for i in range(100):
            assert 0 <= derive_seed(2**64 - 1, i) < 2**64

    @pytest.mark.parametrize("n_pulses, count, sizes", [
        (96, 1000, [500, 500]),  # 682 sessions fit in 2**16 pulses
        (96, 682, [682]),
        (96, 683, [341, 342]),
        (20_000, 7, [2, 2, 3]),
        (100_000, 2, [1, 1]),  # a session longer than a batch runs alone
    ])
    def test_batches_are_as_few_as_fit_and_differ_by_at_most_one(
        self, n_pulses, count, sizes
    ):
        config = ExperimentConfig(n_pulses=n_pulses, n_sessions=count)
        batches = harness._batches(config, 5, count)
        assert [len(indices) for indices in batches] == sizes
        assert [i for indices in batches for i in indices] == list(
            range(5, 5 + count))

    def test_a_sweep_hands_each_job_its_sessions_seeds(self):
        # 2**15-pulse sessions run at most two to a batch, so five sessions
        # take three batches, each given the seeds of its own sessions
        config = ExperimentConfig(n_pulses=1 << 15, n_sessions=1,
                                  master_seed=11)

        def work(indices, seeds):
            assert seeds.dtype == np.uint64
            return list(zip(indices, seeds.tolist()))

        batches = harness._batches(config, 3, 5)
        assert len(batches) == 3
        got = [pair for indices in batches
               for pair in harness._run(config, indices, work)]
        assert got == [(index, derive_seed(11, index)) for index in range(3, 8)]


class TestConfigValidation:
    def test_defaults_are_valid(self):
        config = ExperimentConfig(n_pulses=10, n_sessions=1)
        assert config.privacy_enabled is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_pulses": 0, "n_sessions": 1},
            {"n_pulses": 1, "n_sessions": 0},
            {"n_pulses": 1, "n_sessions": 1, "efficiency": 0.0},
            {"n_pulses": 1, "n_sessions": 1, "efficiency": 1.5},
            {"n_pulses": 1, "n_sessions": 1, "parity_rounds": -2},
            {"n_pulses": 1, "n_sessions": 1, "eve_kind": "mitm"},
            {"n_pulses": 1, "n_sessions": 1, "resend_rule": "other"},
            {"n_pulses": 1, "n_sessions": 1, "attack_fraction": -0.1},
            {"n_pulses": 1, "n_sessions": 1, "pa_leak_bits": 4},
            {"n_pulses": 1, "n_sessions": 1, "pa_margin_bits": 4},
            {"n_pulses": 1, "n_sessions": 1, "pa_leak_bits": -1,
             "pa_margin_bits": 4},
            {"n_pulses": 1, "n_sessions": 1, "pa_leak_bits": 10,
             "pa_margin_bits": 0},
            {"n_pulses": 1, "n_sessions": 1, "master_seed": -1},
            {"n_pulses": 1, "n_sessions": 1, "output_format": "xml"},
            {"n_pulses": 1, "n_sessions": 1, "ancilla_angle": math.nan},
            {"n_pulses": 1, "n_sessions": 1, "ancilla_angle": math.inf},
            # counts and the seed are Python ints, bool excluded
            {"n_pulses": 64.5, "n_sessions": 1},
            {"n_pulses": True, "n_sessions": 1},
            {"n_pulses": 1, "n_sessions": 2.0},
            {"n_pulses": 1, "n_sessions": np.int64(2)},
            {"n_pulses": 1, "n_sessions": 1, "parity_rounds": 1.5},
            {"n_pulses": 1, "n_sessions": 1, "master_seed": 1.5},
            {"n_pulses": 1, "n_sessions": 1, "master_seed": True},
            {"n_pulses": 1, "n_sessions": 1, "pa_leak_bits": 10.5,
             "pa_margin_bits": 4},
            {"n_pulses": 1, "n_sessions": 1, "pa_leak_bits": 10,
             "pa_margin_bits": 4.0},
            {"n_pulses": 1, "n_sessions": 1, "pa_leak_bits": 10,
             "pa_margin_bits": True},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_pulses": 0}, r"n_pulses must be >= 1"),
            ({"efficiency": 0.0}, r"efficiency must be in \(0, 1\]"),
            ({"parity_rounds": -1}, r"parity_rounds must be >= 0"),
        ],
    )
    def test_session_fields_checked_by_session_config(self, kwargs, message):
        with pytest.raises(InvalidConfigError, match=message):
            ExperimentConfig(**{"n_pulses": 1, "n_sessions": 1, **kwargs})
        with pytest.raises(InvalidConfigError, match=message):
            SessionConfig(**{"n_pulses": 1, **kwargs})
        config = ExperimentConfig(
            n_pulses=5, n_sessions=1, efficiency=0.5, parity_rounds=2
        )
        assert isinstance(config, SessionConfig)
        assert (config.n_pulses, config.efficiency, config.parity_rounds) == (
            5, 0.5, 2
        )

    def test_build_strategy_covers_all_kinds(self):
        # the config's fields reach the builder in its argument order
        for kind in EVE_KINDS:
            strategy = build_strategy(ExperimentConfig(
                n_pulses=10, n_sessions=1, eve_kind=kind, ancilla_angle=0.41,
                resend_rule="resend-ancilla", attack_fraction=0.5,
            ))
            want = channel_table(kind, 0.41, "resend-ancilla", 0.5)
            assert isinstance(strategy, ChannelTable)
            assert np.array_equal(
                strategy.forwarded_angles, want.forwarded_angles
            )
            if kind == "none":
                assert strategy.guess_bits is None
            else:
                assert np.array_equal(strategy.guess_bits, want.guess_bits)


class TestRunExperiment:
    def test_intercept_resend_aggregate_qber(self):
        config = ExperimentConfig(
            n_pulses=10_000,
            n_sessions=20,
            eve_kind="intercept-resend",
            master_seed=7,
        )
        report = run_experiment(config)
        assert report.aggregates.mean_qber == pytest.approx(0.25, abs=0.01)
        assert report.aggregates.mean_eve_accuracy == pytest.approx(
            0.75, abs=0.01
        )
        assert (
            report.aggregates.qber_ci_low
            < report.aggregates.mean_qber
            < report.aggregates.qber_ci_high
        )

    def test_oracle_attack_never_detected(self):
        config = ExperimentConfig(
            n_pulses=2_000,
            n_sessions=10,
            parity_rounds=32,
            eve_kind="indirect-oracle",
            master_seed=11,
        )
        report = run_experiment(config)
        assert report.aggregates.detection_rate == 0.0
        assert report.aggregates.mean_qber == 0.0
        assert report.aggregates.mean_eve_accuracy == 1.0

    def test_aggregates_match_recomputation(self):
        config = ExperimentConfig(
            n_pulses=1_000, n_sessions=12, eve_kind="intercept-resend",
            efficiency=0.8, master_seed=3,
        )
        report = run_experiment(config)
        fresh = compute_aggregates(report.sessions, config)
        assert fresh == report.aggregates

    def test_privacy_rows_populated(self):
        config = ExperimentConfig(
            n_pulses=600,
            n_sessions=6,
            eve_kind="intercept-resend",
            pa_leak_bits=64,
            pa_margin_bits=8,
            master_seed=5,
        )
        report = run_experiment(config)
        for row in report.sessions:
            assert row.final_key_length == row.sifted_length - 64 - 8
            assert row.eve_advantage is not None
            assert -0.5 <= row.eve_advantage <= 0.5

    def test_privacy_advantage_matches_two_hash_reference(self):
        # oracle: replay each session's stream, hash key and guess
        # separately and average their agreement
        config = ExperimentConfig(
            n_pulses=800,
            n_sessions=4,
            eve_kind="intercept-resend",
            attack_fraction=0.3,
            pa_leak_bits=100,
            pa_margin_bits=8,
            master_seed=11,
        )
        report = run_experiment(config)
        for index, row in enumerate(report.sessions):
            seed = derive_seed(config.master_seed, index)
            batch = run_session(
                SessionConfig(n_pulses=config.n_pulses),
                build_strategy(config),
                seed,
            )
            key, guess = batch.reconciled(0)
            params = PrivacyParams(len(key), 100, 8)
            descriptor = sample_hash(params, seed)
            agreement = float(
                np.mean(
                    compress(key, descriptor) == compress(guess, descriptor)
                )
            )
            assert row.final_key_length == params.output_bits
            assert type(row.eve_advantage) is float
            assert row.eve_advantage == agreement - 0.5

    @pytest.mark.parametrize("eve_kind, parity_rounds, calls", [
        ("indirect-oracle", 8, 3),
        ("none", 8, 0),
        ("intercept-resend", 32, 0),
    ])
    def test_compress_runs_once_per_undetected_session_with_a_guess(
        self, monkeypatch, eve_kind, parity_rounds, calls
    ):
        # the oracle's guess equals the key, so its difference is all
        # zeros, which compress maps to zeros without a transform; a passive
        # channel has no guess, and a detected session no key
        counted = []
        real_compress = amplification.compress

        def counting_compress(key, descriptor):
            counted.append(len(key))
            return real_compress(key, descriptor)

        monkeypatch.setattr(amplification, "compress", counting_compress)
        report = run_experiment(ExperimentConfig(
            n_pulses=600, n_sessions=3, eve_kind=eve_kind,
            parity_rounds=parity_rounds, pa_leak_bits=16, pa_margin_bits=8,
            master_seed=4,
        ))
        assert len(counted) == calls
        detected = [row.detected for row in report.sessions]
        assert detected == [eve_kind == "intercept-resend"] * 3
        if calls:
            assert counted == [row.sifted_length - parity_rounds
                               for row in report.sessions]
            assert [row.eve_advantage for row in report.sessions] == [0.5] * 3

    def test_privacy_with_passive_channel_has_no_advantage_column(self):
        config = ExperimentConfig(
            n_pulses=600,
            n_sessions=3,
            pa_leak_bits=16,
            pa_margin_bits=8,
            master_seed=6,
        )
        report = run_experiment(config)
        for row in report.sessions:
            assert row.eve_advantage is None
            assert row.eve_accuracy is None
        assert report.aggregates.mean_eve_accuracy is None

    def test_passive_channel_draws_no_toeplitz_seed(self, monkeypatch, capsys):
        # the final length is n - t - s whatever the seed, and no guess
        # needs hashing, so no descriptor is drawn
        argv = ["run", "--eve", "none", "--pulses", "2000", "--sessions", "2",
                "--pa-t", "200", "--pa-s", "16"]
        assert cli.main(argv) == 0
        unwrapped = capsys.readouterr().out
        calls = []
        real_sample_hash = harness.sample_hash

        def counting_sample_hash(params, seed):
            calls.append(seed)
            return real_sample_hash(params, seed)

        monkeypatch.setattr(harness, "sample_hash", counting_sample_hash)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == unwrapped
        assert calls == []
        rows = json.loads(unwrapped)["sessions"]
        assert [row["final_key_length"] for row in rows] == [
            row["sifted_length"] - 200 - 16 for row in rows
        ]

    def test_session_errors_carry_index(self):
        config = ExperimentConfig(
            n_pulses=6, n_sessions=2, parity_rounds=10, master_seed=1
        )
        with pytest.raises(SessionError) as excinfo:
            run_experiment(config)
        assert excinfo.value.session_index == 0

    def test_session_error_names_a_replayable_seed(self):
        config = ExperimentConfig(
            n_pulses=20, n_sessions=3, efficiency=0.3, parity_rounds=8,
            master_seed=17,
        )
        with pytest.raises(SessionError) as excinfo:
            run_experiment(config)
        error = excinfo.value
        assert error.seed == derive_seed(17, error.session_index)
        assert f"seed {error.seed}" in str(error)
        assert isinstance(error.__cause__, KeyTooShortError)
        with pytest.raises(KeyTooShortError, match=str(error.__cause__)):
            run_session(config, build_strategy(config), error.seed)

    @staticmethod
    def first_failing_curve_session(master_seed, k_values, n_sessions):
        """oracle: the first of sessions 0 to ``n_sessions`` - 1, which a
        curve runs once at its largest k, whose sifted key cannot support
        some k"""
        for index in range(n_sessions):
            batch = run_session(
                SessionConfig(n_pulses=2), channel_table("none"),
                derive_seed(master_seed, index),
            )
            if any(len(batch.sifted_alice) <= k for k in k_values):
                return index

    def test_curve_session_error_names_its_seed(self):
        config = ExperimentConfig(n_pulses=2, n_sessions=4, master_seed=3)
        with pytest.raises(SessionError) as excinfo:
            detection_rate_curve(config, [1, 5])
        error = excinfo.value
        assert error.seed == derive_seed(3, error.session_index)
        assert f"seed {error.seed}" in str(error)
        assert error.session_index == self.first_failing_curve_session(
            3, [1, 5], 4
        )

    def test_curve_error_names_the_lowest_failing_session(self):
        # at master seed 2, sessions 1 and 3 of the batch keep one sifted
        # bit, too few for the largest k, and session 0 keeps two
        config = ExperimentConfig(n_pulses=2, n_sessions=4, master_seed=2)
        with pytest.raises(SessionError) as excinfo:
            detection_rate_curve(config, [1, 0])
        error = excinfo.value
        assert error.session_index == 1
        assert error.session_index == self.first_failing_curve_session(
            2, [1, 0], 4
        )
        assert error.seed == derive_seed(2, 1)

    def test_batch_error_names_the_lowest_failing_session(self):
        # in one batch, session 2 leaves too few bits for amplification and
        # session 3 too few for the parity rounds; a one-at-a-time sweep
        # stops at session 2
        config = ExperimentConfig(
            n_pulses=24, n_sessions=6, parity_rounds=5, pa_leak_bits=3,
            pa_margin_bits=2, master_seed=369,
        )
        lengths = [
            len(run_session(
                SessionConfig(n_pulses=24), channel_table("none"),
                derive_seed(369, index),
            ).sifted_alice)
            for index in range(6)
        ]
        assert [n <= 5 for n in lengths].index(True) == 3
        assert [n - 5 <= 3 + 2 for n in lengths].index(True) == 2
        with pytest.raises(SessionError) as excinfo:
            run_experiment(config)
        assert excinfo.value.session_index == 2
        assert isinstance(excinfo.value.__cause__, InvalidParamsError)

    def test_negative_k_rejected_before_any_session(self, monkeypatch):
        # so is a k that is not a Python int: each fails before the
        # sessions of the k-values before it run
        entered = []
        monkeypatch.setattr(
            harness, "run_batch", lambda *args, **kwargs: entered.append(1)
        )
        config = ExperimentConfig(n_pulses=96, n_sessions=5)
        for k_values in ([1, -1], [1, 2.5], [1, np.int64(2)], [1, "2"]):
            with pytest.raises(InvalidConfigError):
                detection_rate_curve(config, k_values)
        assert entered == []

    def test_reruns_are_identical(self):
        config = ExperimentConfig(
            n_pulses=500, n_sessions=5, eve_kind="indirect-physical",
            parity_rounds=4, master_seed=99,
        )
        assert run_experiment(config).to_json() == run_experiment(config).to_json()


# 700 sessions x 96 pulses, run once at k = 8: 2 batches.
CURVE = ["detect-curve", "--pulses", "96", "--sessions", "700",
         "--k-values", "1,2,3,4,5,6,7,8", "--force-differ", "--seed", "5"]
# At seed 301, session 2243 is the first that keeps 3 sifted bits or
# fewer, too few for 3 parity rounds; it lies 43 sessions into the second
# of three batches of 2200.
FAILING = ["run", "--pulses", "20", "--parity-rounds", "3",
           "--sessions", "6600", "--seed", "301"]
FAILING_SESSION = 2243
FAILING_LINE = (
    f"error: session {FAILING_SESSION} "
    f"(seed {derive_seed(301, FAILING_SESSION)}): "
    "key of length 3 cannot support 3 parity rounds\n"
)


def config_of(argv):
    return cli._config_from_args(cli.build_parser().parse_args(argv))


class TestSweepFailures:
    @pytest.mark.parametrize("bad, index", [
        ({3, 4}, 3),  # two failing sessions in one batch
        ({2, 5}, 2),  # in two batches
        ({1}, 1),  # the second session of the first batch
        ({5}, 5),  # the last session of the last batch
    ])
    def test_lowest_failing_session_wins(self, monkeypatch, bad, index):
        # 2**15-pulse sessions run two to a batch, so six take three
        # batches; no batch after the failing one runs
        config = ExperimentConfig(n_pulses=1 << 15, n_sessions=6,
                                  master_seed=9)
        ran = []

        def work(config, strategy, indices, seeds):
            ran.append(indices)
            for i in indices:
                if i in bad:
                    raise KeyTooShortError(f"session {i} is bad")
            return list(indices)

        monkeypatch.setattr(harness, "_experiment_rows", work)
        with pytest.raises(SessionError) as excinfo:
            run_experiment(config)
        error = excinfo.value
        assert error.session_index == index
        assert error.seed == derive_seed(9, index)
        assert str(error) == (
            f"session {index} (seed {error.seed}): session {index} is bad"
        )
        assert isinstance(error.__cause__, KeyTooShortError)
        assert ran[-1] == range(index, index + 1)
        # the failing batch ends at index - index % 2 + 2
        assert max(indices.stop for indices in ran) == index - index % 2 + 2

    def test_batch_that_fails_only_as_a_batch(self, monkeypatch):
        # six batches of two sessions; batch 1 (sessions 2 and 3) fails as
        # a batch, and each of its sessions passes alone
        config = ExperimentConfig(n_pulses=1 << 15, n_sessions=12,
                                  master_seed=9)

        def work(config, strategy, indices, seeds):
            if len(indices) > 1 and indices[0] == 2:
                raise ValueError("batch-only failure")
            return list(indices)

        monkeypatch.setattr(harness, "_experiment_rows", work)
        with pytest.raises(RuntimeError) as excinfo:
            run_experiment(config)
        assert str(excinfo.value) == (
            "sessions 2 to 3 failed as one batch but not when its halves ran "
            "again"
        )

    def test_batch_only_failure_chains_the_batch_exception(self):
        # sessions 0 to 3 fail together, while each half of two passes
        config = ExperimentConfig(n_pulses=10, n_sessions=4)
        batch_error = ValueError("batch-only failure")
        ran = []

        def work(indices, seeds):
            ran.append(indices)
            if len(indices) == 4:
                raise batch_error
            return list(indices)

        with pytest.raises(RuntimeError) as excinfo:
            harness._run(config, range(4), work)
        assert str(excinfo.value) == (
            "sessions 0 to 3 failed as one batch but not when its halves ran "
            "again"
        )
        assert excinfo.value.__cause__ is batch_error
        assert ran == [range(4), range(2), range(2, 4)]

    def test_failure_is_narrowed_by_halves(self, monkeypatch, capsys):
        # 9528 20-pulse sessions take three batches of 3176; session 4644,
        # in the second, keeps too few sifted bits.  Halving finds it in at
        # most 2 * ceil(log2(3176)) runs after the two whole batches.
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return run_batch(*args, **kwargs)

        monkeypatch.setattr(harness, "run_batch", counted)
        argv = ["run", "--pulses", "20", "--parity-rounds", "3",
                "--sessions", "9528", "--seed", "6"]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == (
            "error: session 4644 (seed 16633819829541064228): "
            "key of length 3 cannot support 3 parity rounds\n"
        )
        assert len(calls) <= 2 * math.ceil(math.log2(3176)) + 2

    def test_failing_run_names_the_first_session_too_short(self):
        # oracle: each session's sifted length, from a run without parity
        # rounds
        config = config_of(FAILING)
        lengths = [
            row.sifted_length for row in run_experiment(
                replace(config, parity_rounds=0)).sessions
        ]
        assert [n <= 3 for n in lengths].index(True) == FAILING_SESSION
        batches = harness._batches(config, 0, config.n_sessions)
        assert [len(indices) for indices in batches] == [2200] * 3
        with pytest.raises(SessionError) as excinfo:
            run_experiment(config)
        error = excinfo.value
        assert error.session_index == FAILING_SESSION
        assert error.seed == derive_seed(301, FAILING_SESSION)
        assert isinstance(error.__cause__, KeyTooShortError)

    def test_cli_exits_3_naming_the_failing_session(self, capsys):
        assert cli.main(FAILING) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == FAILING_LINE

    def test_no_command_forks(self, monkeypatch, capsys):
        assert cli.main(CURVE) == 0
        curve = capsys.readouterr().out

        def fork():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", fork)
        assert cli.main(CURVE) == 0
        assert capsys.readouterr().out == curve
        assert cli.main(FAILING) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == FAILING_LINE


class TestReportSerialization:
    def make_report(self):
        config = ExperimentConfig(
            n_pulses=400,
            n_sessions=8,
            eve_kind="intercept-resend",
            efficiency=0.9,
            pa_leak_bits=32,
            pa_margin_bits=8,
            master_seed=13,
        )
        return run_experiment(config)

    def test_json_roundtrip_verifies_aggregates(self):
        report = self.make_report()
        loaded = ExperimentReport.from_json(report.to_json())
        assert loaded.sessions == report.sessions
        assert loaded.aggregates == report.aggregates
        assert loaded.config == report.config

    def test_reports_name_the_stream_contract(self):
        report = self.make_report()
        assert RNG_CONTRACT == "bb84sim-3"
        assert json.loads(report.to_json())["rng_contract"] == "bb84sim-3"
        assert "rng_contract" not in json.loads(report.to_json())["config"]
        assert report.to_csv().splitlines()[-1] == "# rng_contract=bb84sim-3"

    def test_a_report_of_the_mersenne_twister_contract_is_refused(self):
        # a bb84sim-2 report drew from a Mersenne Twister per session; its
        # numbers are not this stream's, and the refusal names both
        payload = json.loads(self.make_report().to_json())
        payload["rng_contract"] = "bb84sim-2"
        with pytest.raises(ValueError,
                           match="'bb84sim-2', expected 'bb84sim-3'"):
            ExperimentReport.from_json(json.dumps(payload))

    @pytest.mark.parametrize("contract", [None, "bb84sim-1", 2])
    def test_other_stream_contract_is_refused_on_load(self, contract):
        payload = json.loads(self.make_report().to_json())
        if contract is None:
            del payload["rng_contract"]
        else:
            payload["rng_contract"] = contract
        with pytest.raises(ValueError, match="contract"):
            ExperimentReport.from_json(json.dumps(payload))

    def test_a_report_naming_a_degenerate_oracle_is_refused(self):
        # a horizontal ancilla ties the two diagonal states in overlap, so
        # no oracle read identifies them; the config check refuses it like
        # any other field
        config = ExperimentConfig(
            n_pulses=400, n_sessions=2, eve_kind="indirect-oracle",
            master_seed=13,
        )
        payload = json.loads(run_experiment(config).to_json())
        ExperimentReport.from_json(json.dumps(payload))
        payload["config"]["ancilla_angle"] = 0.0
        with pytest.raises(ValueError,
                           match="^config: ancilla at angle 0.0 maps"):
            ExperimentReport.from_json(json.dumps(payload))

    def test_tampered_aggregate_is_caught_on_load(self):
        report = self.make_report()
        payload = json.loads(report.to_json())
        payload["aggregates"]["mean_qber"] += 1e-6
        with pytest.raises(ValueError):
            ExperimentReport.from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "rows",
        [
            lambda rows: [],
            lambda rows: rows[:1],
            lambda rows: [{**row, "index": 7} for row in rows],
        ],
        ids=["no-rows", "one-row", "repeated-index"],
    )
    def test_rows_not_matching_the_config_are_caught_on_load(self, rows):
        # the aggregates are recomputed to match the tampered rows, so only
        # the row indices can give the tampering away
        config = ExperimentConfig(
            n_pulses=400, n_sessions=3, eve_kind="intercept-resend",
            master_seed=13,
        )
        payload = json.loads(run_experiment(config).to_json())
        payload["sessions"] = rows(payload["sessions"])
        if payload["sessions"]:
            payload["aggregates"] = asdict(compute_aggregates(
                [SessionRow(**row) for row in payload["sessions"]], config
            ))
        with pytest.raises(ValueError, match="rows must be sessions 0 to 2"):
            ExperimentReport.from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda p: {**p, "config": {**p["config"], "seed": 1}},
             "config: .*unexpected keyword argument 'seed'"),
            (lambda p: {k: v for k, v in p.items() if k != "sessions"},
             "sessions must be a JSON list"),
            (lambda p: {k: v for k, v in p.items() if k != "aggregates"},
             "aggregates: .*must be a mapping"),
            (lambda p: {**p, "sessions": [
                {k: v for k, v in row.items() if k != "qber"}
                for row in p["sessions"]]},
             "session row 0: .*missing .*'qber'"),
            (lambda p: {**p, "sessions": [
                {**row, "note": ""} for row in p["sessions"]]},
             "session row 0: .*unexpected keyword argument 'note'"),
            (lambda p: {**p, "config": {**p["config"], "n_pulses": "400"}},
             "config: n_pulses must be int, got '400'"),
            (lambda p: {**p, "config": {**p["config"], "n_pulses": 400.0}},
             "config: n_pulses must be int, got 400.0"),
            (lambda p: {**p, "config": {**p["config"], "efficiency": "1"}},
             "config: efficiency must be float"),
            (lambda p: {**p, "sessions": [
                {**row, "detected": 0} for row in p["sessions"]]},
             "session row 0: detected must be bool"),
            (lambda p: {**p, "aggregates": {
                **p["aggregates"], "mean_qber": None}},
             "aggregates: mean_qber must be float"),
            (lambda p: {**p, "sessions": {}}, "sessions must be a JSON list"),
            (lambda p: {**p, "aggregates": []},
             "aggregates: .*must be a mapping"),
            (lambda p: [p], "report must be a JSON object"),
            # json.dumps writes a NaN as the bare constant NaN
            (lambda p: {**p, "aggregates": {
                **p["aggregates"], "mean_qber": math.nan}},
             "non-finite number NaN"),
            # the aggregates compute_aggregates gives for these rows
            (lambda p: {**p, "sessions": [
                {**row, "qber": math.nan} for row in p["sessions"]],
                "aggregates": {**p["aggregates"], "mean_qber": math.nan,
                               "qber_ci_low": 0.0, "qber_ci_high": 1.0}},
             "non-finite number NaN"),
            (lambda p: {**p, "sessions": [
                {**row, "eve_advantage": math.nan} for row in p["sessions"]]},
             "non-finite number NaN"),
            (lambda p: {**p, "aggregates": {
                **p["aggregates"], "mean_eve_accuracy": None}},
             "aggregate mean_eve_accuracy inconsistent with rows"),
            # the rows a passive channel gives, under an intercept/resend mean
            (lambda p: {**p, "sessions": [
                {**row, "eve_accuracy": None} for row in p["sessions"]]},
             "aggregate mean_eve_accuracy inconsistent with rows"),
        ],
        ids=["unknown-config-key", "no-sessions", "no-aggregates",
             "row-missing-field", "row-extra-field", "string-count",
             "float-count", "string-float", "int-flag", "null-aggregate",
             "sessions-object", "aggregates-list", "top-level-list",
             "nan-aggregate", "nan-row", "nan-advantage",
             "null-eve-accuracy-mean", "eve-accuracy-mean-without-guesses"],
    )
    def test_mistyped_reports_are_refused_on_load(self, tamper, message):
        config = ExperimentConfig(
            n_pulses=400, n_sessions=3, eve_kind="intercept-resend",
            master_seed=13,
        )
        payload = json.loads(run_experiment(config).to_json())
        with pytest.raises(ValueError, match=message):
            ExperimentReport.from_json(json.dumps(tamper(payload)))

    @pytest.mark.parametrize(
        "eve, field, value",
        [
            ("intercept-resend", "qber", -5.0),
            ("intercept-resend", "qber", 1.5),
            ("intercept-resend", "sifted_length", -3),
            ("intercept-resend", "sifted_length", 10**6),
            ("intercept-resend", "final_key_length", -1),
            ("intercept-resend", "final_key_length",
             lambda row: row["sifted_length"] + 1),
            ("intercept-resend", "eve_accuracy", 1.5),
            ("indirect-oracle", "eve_advantage", 3.0),
        ],
        ids=["negative-qber", "qber-above-1", "negative-sifted",
             "sifted-above-pulses", "negative-final", "final-above-sifted",
             "accuracy-above-1", "advantage-above-half"],
    )
    def test_rows_out_of_range_are_refused_on_load(self, eve, field, value):
        # the aggregates are recomputed to match the edited row, so only
        # the range of the row's own values can give the edit away
        config = ExperimentConfig(
            n_pulses=400, n_sessions=3, eve_kind=eve, parity_rounds=8,
            pa_leak_bits=32, pa_margin_bits=8, master_seed=13,
        )
        payload = json.loads(run_experiment(config).to_json())
        row = payload["sessions"][1]
        assert row[field] is not None
        row[field] = value(row) if callable(value) else value
        payload["aggregates"] = asdict(compute_aggregates(
            [SessionRow(**row) for row in payload["sessions"]], config
        ))
        with pytest.raises(ValueError, match=f"session row 1: {field} must"):
            ExperimentReport.from_json(json.dumps(payload))

    PA = {"pa_leak_bits": 32, "pa_margin_bits": 8}

    @pytest.mark.parametrize(
        "kwargs, tamper, message",
        [
            # every session of intercept/resend fails its 8 rounds
            ({"eve_kind": "intercept-resend", "parity_rounds": 8},
             lambda row: {**row, "final_key_length": 1},
             "final_key_length must be 0, got 1"),
            ({"eve_kind": "indirect-oracle", "parity_rounds": 2},
             lambda row: {**row, "final_key_length": row["sifted_length"]},
             "final_key_length must be"),
            ({"eve_kind": "indirect-oracle", "parity_rounds": 2, **PA},
             lambda row: {**row,
                          "final_key_length": row["sifted_length"] - 2},
             "final_key_length must be"),
            ({"eve_kind": "none"}, lambda row: {**row, "eve_accuracy": 0.5},
             "eve_accuracy must be null, got 0.5"),
            ({"eve_kind": "intercept-resend"},
             lambda row: {**row, "eve_accuracy": None},
             "eve_accuracy must be a number, got None"),
            # a session of one pulse without sifted bits
            ({"eve_kind": "intercept-resend", "n_pulses": 1},
             lambda row: {**row, "qber": 0.0, "sifted_length": 0,
                          "final_key_length": 0, "eve_accuracy": 1.0},
             "eve_accuracy must be null, got 1.0"),
            ({"eve_kind": "indirect-oracle", "parity_rounds": 2},
             lambda row: {**row, "eve_advantage": 0.0},
             "eve_advantage must be null, got 0.0"),
            ({"eve_kind": "none", **PA},
             lambda row: {**row, "eve_advantage": 0.0},
             "eve_advantage must be null, got 0.0"),
            ({"eve_kind": "intercept-resend", "parity_rounds": 8, **PA},
             lambda row: {**row, "eve_advantage": 0.0},
             "eve_advantage must be null, got 0.0"),
            ({"eve_kind": "indirect-oracle", **PA},
             lambda row: {**row, "eve_advantage": None},
             "eve_advantage must be a number, got None"),
        ],
        ids=["final-of-detected", "final-without-parity-rounds",
             "final-without-amplification", "accuracy-when-passive",
             "no-accuracy-when-active", "accuracy-without-sifted-bits",
             "advantage-without-amplification", "advantage-when-passive",
             "advantage-of-detected", "no-advantage-when-amplified"],
    )
    def test_rows_no_run_gives_are_refused_on_load(
        self, kwargs, tamper, message
    ):
        # the aggregates are recomputed to match the edited row and every
        # value stays in range, so only what the config, the length and
        # the detection flag fix can give the edit away
        config = ExperimentConfig(**{
            "n_pulses": 400, "n_sessions": 3, "master_seed": 13, **kwargs,
        })
        payload = json.loads(run_experiment(config).to_json())
        payload["sessions"][1] = tamper(payload["sessions"][1])
        payload["aggregates"] = asdict(compute_aggregates(
            [SessionRow(**row) for row in payload["sessions"]], config
        ))
        with pytest.raises(ValueError, match=f"session row 1: {message}"):
            ExperimentReport.from_json(json.dumps(payload))

    def test_interval_without_sifted_bits_is_the_mean(self):
        config = ExperimentConfig(n_pulses=1, n_sessions=2)
        rows = [SessionRow(index=i, qber=0.0, sifted_length=0, detected=False,
                           final_key_length=0, eve_accuracy=None,
                           eve_advantage=None) for i in range(2)]
        aggregates = compute_aggregates(rows, config)
        assert (aggregates.mean_qber, aggregates.qber_ci_low,
                aggregates.qber_ci_high) == (0.0, 0.0, 0.0)
        assert aggregates.mean_sifted_fraction == 0.0

    def test_csv_and_json_carry_identical_numbers(self):
        report = self.make_report()
        payload = json.loads(report.to_json())
        lines = report.to_csv().splitlines()
        header = lines[0].split(",")
        data_lines = [l for l in lines[1:] if not l.startswith("#")]
        assert len(data_lines) == len(payload["sessions"])
        for line, row in zip(data_lines, payload["sessions"]):
            cells = dict(zip(header, line.split(",")))
            for column in header:
                stored = row[column]
                cell = cells[column]
                if stored is None:
                    assert cell == ""
                elif isinstance(stored, bool):
                    assert cell == ("true" if stored else "false")
                elif isinstance(stored, float):
                    assert float(cell) == stored
                else:
                    assert int(cell) == stored
        trailer = {
            line[2:].split("=", 1)[0]: line[2:].split("=", 1)[1]
            for line in lines[1:]
            if line.startswith("#")
        }
        for name, stored in payload["aggregates"].items():
            if stored is None:
                assert trailer[name] == ""
            else:
                assert float(trailer[name]) == stored

    def test_json_floats_roundtrip_exactly(self):
        report = self.make_report()
        payload = json.loads(report.to_json())
        for row, original in zip(payload["sessions"], report.sessions):
            assert row["qber"] == original.qber
            assert row["eve_advantage"] == original.eve_advantage


class TestDetectionRateCurve:
    @given(
        eve=st.sampled_from(EVE_KINDS),
        attack_fraction=st.sampled_from([1.0, 0.1]),
        efficiency=st.sampled_from([1.0, 0.7]),
        force_differ=st.booleans(),
        n_pulses=st.integers(4, 96),
        n_sessions=st.integers(1, 40),
        k_values=st.lists(st.integers(0, 6), min_size=1, max_size=6),
        master_seed=st.integers(0, 2**64 - 1),
    )
    @example(eve="indirect-physical", attack_fraction=0.1, efficiency=0.7,
             force_differ=False, n_pulses=300, n_sessions=100,
             k_values=[0, 2, 1, 5, 5], master_seed=7)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_each_rate_is_the_detected_share_of_a_k_round_batch(
        self, eve, attack_fraction, efficiency, force_differ, n_pulses,
        n_sessions, k_values, master_seed,
    ):
        # oracle: sessions 0 to n - 1 run as one batch per k, with k
        # rounds; the curve fails when a session keeps too few sifted bits
        # for its largest k, or none
        config = ExperimentConfig(
            n_pulses=n_pulses, n_sessions=n_sessions, efficiency=efficiency,
            eve_kind=eve, attack_fraction=attack_fraction,
            master_seed=master_seed,
        )
        strategy = build_strategy(config)
        seeds = derive_seed(master_seed,
                            np.arange(n_sessions, dtype=np.uint64))
        lengths = run_batch(config, strategy, seeds).lengths
        if lengths.min() <= max(k_values):
            with pytest.raises(SessionError):
                detection_rate_curve(config, k_values, force_differ)
            return
        want = [
            (k, int(np.count_nonzero(run_batch(
                replace(config, parity_rounds=k), strategy, seeds,
                flip=force_differ,
            ).detected)) / n_sessions)
            for k in k_values
        ]
        assert detection_rate_curve(config, k_values, force_differ) == want

    def test_never_falls_as_k_rises(self):
        # every k reads the same sessions, and a session that trips within
        # k rounds trips within more
        config = ExperimentConfig(n_pulses=96, n_sessions=200, master_seed=5)
        curve = detection_rate_curve(
            config, [8, 1, 3, 2, 7, 5, 4, 6, 0], force_differ=True
        )
        rates = [rate for _, rate in sorted(curve)]
        assert rates == sorted(rates)
        assert rates[0] == 0.0 and rates[-1] > rates[1]

    def test_a_curve_runs_each_session_once(self, monkeypatch, capsys):
        # the 700 sessions of ``CURVE`` fill two batches, each run once at
        # the largest of its eight k values
        calls = []
        run = harness.run_batch

        def counted(config, strategy, seeds, **kwargs):
            calls.append((config.parity_rounds, len(seeds)))
            return run(config, strategy, seeds, **kwargs)

        monkeypatch.setattr(harness, "run_batch", counted)
        assert cli.main(CURVE) == 0
        assert calls == [(8, 350), (8, 350)]

    def test_clean_channel_never_detects(self):
        config = ExperimentConfig(n_pulses=64, n_sessions=50, master_seed=2)
        curve = detection_rate_curve(config, [1, 2, 3])
        assert [rate for _, rate in curve] == [0.0, 0.0, 0.0]

    def test_forced_difference_tracks_half_power_law(self):
        config = ExperimentConfig(n_pulses=96, n_sessions=2_000, master_seed=4)
        curve = detection_rate_curve(config, [1, 2, 4], force_differ=True)
        for k, rate in curve:
            expected = 1 - 2.0**-k
            sigma = math.sqrt(expected * (1 - expected) / config.n_sessions)
            assert abs(rate - expected) < max(4 * sigma, 0.02)

    def test_deterministic(self):
        config = ExperimentConfig(n_pulses=64, n_sessions=30, master_seed=8)
        first = detection_rate_curve(config, [1, 3], force_differ=True)
        second = detection_rate_curve(config, [1, 3], force_differ=True)
        assert first == second

    def test_serializers(self):
        config = ExperimentConfig(n_pulses=64, n_sessions=10, master_seed=9)
        curve = detection_rate_curve(config, [1, 2], force_differ=True)
        payload = json.loads(curve_to_json(config, curve))
        assert [entry["parity_rounds"] for entry in payload["curve"]] == [1, 2]
        assert payload["rng_contract"] == RNG_CONTRACT
        lines = curve_to_csv(curve).splitlines()
        assert lines[0] == "parity_rounds,detection_rate"
        assert lines[-1] == f"# rng_contract={RNG_CONTRACT}"
        assert len(lines) == 4


class TestGoldenReports:
    """sha256 of small JSON reports, one per adversary, pinned so that a
    change to the report format, or to the random stream that moves any
    reported number, shows.  A change of the stream contract updates these
    together with ``RNG_CONTRACT``.  The curve digests also pin which
    sessions a curve reads: sessions 0 to n - 1, at every k."""

    ARGV = ["run", "--pulses", "2000", "--sessions", "3", "--parity-rounds", "8"]

    @pytest.mark.parametrize(
        "extra, digest",
        [
            (["--eve", "none"],
             "b4f40d30f7990ad243d3053195d1eb39a3e814632abeda2f17df29bbb9855116"),
            (["--eve", "intercept-resend"],
             "7e4f0eaf6e0a1737178bfe96dcaa3dee84f3b6e453077b304fc06f38b56c9ba5"),
            (["--eve", "indirect-oracle"],
             "7a8ea5a2710ab44a8be1dfd423c265c54608200897cd36d7ef5f954ee517a13b"),
            (["--eve", "indirect-physical"],
             "5be7c8d3593f0f111931d4ef69e7d8b5da8721f7a98ec4db4d6a7e6350c8f82b"),
            (["--eve", "indirect-oracle", "--pa-t", "200", "--pa-s", "16"],
             "abe70935551ccfafaeaede093f16df5fa9c7ae1e2dbfe7cead0f917e50f1404d"),
        ],
        ids=["none", "intercept-resend", "indirect-oracle", "indirect-physical",
             "indirect-oracle-pa"],
    )
    def test_report_digest(self, capsys, extra, digest):
        assert cli.main(self.ARGV + extra) == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # digests of curves, pinned under bb84sim-3 once the per-pulse
    # reference of ``test_contract`` gave the same bytes
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--pulses", "96", "--sessions", "200", "--force-differ",
              "--seed", "5"],
             "2fa596a603476a47cb7f2e2c9eb905a95d2d85a18bf59263c672ca211432f0e1"),
            (["--eve", "intercept-resend", "--pulses", "100", "--sessions",
              "50", "--efficiency", "0.8", "--k-values", "1,3,8", "--seed",
              "2"],
             "72ba1f612c6eadc91e4c15ebb78755c191f2bb496cac216f1c8330cec4232ea6"),
        ],
        ids=["forced-difference", "intercept-resend-lossy"],
    )
    def test_curve_digest(self, capsys, argv, digest):
        assert cli.main(["detect-curve", *argv]) == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # sessions longer than BLOCK, batches of one whose parity rounds draw
    # hundreds of values per round, beside a curve of many short sessions
    # and a lossy 10k-pulse session whose per-pulse stages draw two blocks
    # each
    @pytest.mark.parametrize(
        "kwargs, k_values, digest",
        [
            ({"n_pulses": 100_000, "n_sessions": 2, "parity_rounds": 32,
              "eve_kind": "intercept-resend"}, None,
             "f5af2b62167e00144a2d394772302ea1c341ab4a91bf77817abfc911da2b03db"),
            ({"n_pulses": 100_000, "n_sessions": 1, "efficiency": 0.8,
              "parity_rounds": 32, "eve_kind": "indirect-oracle",
              "pa_leak_bits": 20_000, "pa_margin_bits": 16}, None,
             "18f6b1ae1f518f5cd9f0ff109d65ba3de69ae962be4a9dfff41652f5e52d1df0"),
            ({"n_pulses": 96, "n_sessions": 1000}, [1, 2, 3, 4, 5, 6, 7, 8],
             "cc305a593bb02741757d5a11594b332fef7e85f7c007d086bc34248485534e35"),
            ({"n_pulses": 10_000, "n_sessions": 1, "efficiency": 0.9,
              "parity_rounds": 32, "eve_kind": "intercept-resend"}, None,
             "463ca43caa1e6494144586835ba9f90319dd002002dacad76aded0389cf15d1a"),
        ],
        ids=["intercept-resend-100k", "indirect-oracle-pa-100k",
             "forced-difference-curve", "intercept-resend-10k-lossy"],
    )
    def test_long_session_digest(self, kwargs, k_values, digest):
        config = ExperimentConfig(master_seed=1, **kwargs)
        if k_values is None:
            text = run_experiment(config).to_json()
        else:
            curve = detection_rate_curve(config, k_values, force_differ=True)
            text = curve_to_json(config, curve)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def session_row(config, index, batch, seed):
    """The report row of the one session of ``batch``, replayed on its own
    seed."""
    alice, bob = batch.sifted_alice.tolist(), batch.sifted_bob.tolist()
    length = len(alice)
    errors = sum(a != b for a, b in zip(alice, bob))
    guess_bits = batch.adversary.guess_bits
    # the adversary's guesses at the sifted pulses, in the sifted layout
    guesses = None if guess_bits is None else guess_bits[batch.outcomes]
    accuracy = None
    if guesses is not None and length:
        hits = sum(g == a for g, a in zip(guesses.tolist(), alice))
        accuracy = hits / length
    final_length, advantage = 0, None
    if not batch.detected[0]:
        key = batch.sifted_alice[batch.kept]
        final_length = len(key)
        if config.privacy_enabled:
            params = PrivacyParams(
                final_length, config.pa_leak_bits, config.pa_margin_bits
            )
            descriptor = sample_hash(params, seed)
            final_length = params.output_bits
            if guesses is not None:
                guess = guesses[batch.kept]
                advantage = float(np.mean(
                    compress(key, descriptor) == compress(guess, descriptor)
                )) - 0.5
    return SessionRow(
        index=index,
        qber=errors / length if length else 0.0,
        sifted_length=length,
        detected=bool(batch.detected[0]),
        final_key_length=final_length,
        eve_accuracy=accuracy,
        eve_advantage=advantage,
    )


def draws_a_redraw(config, adversary, seed):
    """Whether parity verification of the session of ``seed`` meets an
    empty subset, by the reference loop's attempts."""
    length = len(run_session(
        SessionConfig(config.n_pulses, config.efficiency), adversary, seed
    ).sifted_alice)
    if length <= config.parity_rounds:
        return False
    return redrew(reference_session(config, adversary, seed))


def replayed_curve(config, k_values, force_differ):
    """oracle: the curve as a loop over single sessions 0 to n - 1,
    flipping each sifted key and verifying it with the reference stages
    once per k, with k rounds; ``None`` when a session has too few sifted
    bits for some k"""
    strategy = build_strategy(config)
    sessions = []
    for index in range(config.n_sessions):
        seed = derive_seed(config.master_seed, index)
        batch = run_session(
            SessionConfig(config.n_pulses, config.efficiency), strategy, seed,
        )
        alice = batch.sifted_alice.tolist()
        bob = batch.sifted_bob.tolist()
        if not alice or any(len(alice) <= k for k in k_values):
            return None
        if force_differ:
            u = ReferenceStage(seed, FLIP).random()
            bob[min(int(u * len(bob)), len(bob) - 1)] ^= 1
        sessions.append((alice, bob, seed))
    return [
        (k, sum(reference_parity_verify(alice, bob, k, seed)[0]
                for alice, bob, seed in sessions) / config.n_sessions)
        for k in k_values
    ]


class TestBatchEngine:
    """Batched sessions against the same sessions replayed one at a time,
    each on its own seed."""

    @pytest.mark.parametrize("n", [1, 31, 33, 96, 100, 8193])
    @pytest.mark.parametrize("efficiency", [1.0, 0.7])
    @pytest.mark.parametrize("eve", EVE_KINDS)
    def test_rows_equal_per_session_replay(self, eve, efficiency, n):
        config = ExperimentConfig(
            n_pulses=n, n_sessions=3 if n > 1000 else 300,
            efficiency=efficiency, parity_rounds=min(4, n // 16),
            eve_kind=eve, master_seed=n,
        )
        strategy = build_strategy(config)
        rows = run_experiment(config).sessions
        for index, row in enumerate(rows):
            seed = derive_seed(config.master_seed, index)
            batch = run_session(config, strategy, seed)
            assert row == session_row(config, index, batch, seed)

    @pytest.mark.parametrize("eve", ["intercept-resend", "indirect-oracle"])
    def test_amplified_rows_equal_per_session_replay(self, eve):
        config = ExperimentConfig(
            n_pulses=700, n_sessions=30, efficiency=0.7, parity_rounds=3,
            eve_kind=eve, pa_leak_bits=40, pa_margin_bits=8, master_seed=2,
        )
        strategy = build_strategy(config)
        rows = run_experiment(config).sessions
        for index, row in enumerate(rows):
            seed = derive_seed(config.master_seed, index)
            batch = run_session(config, strategy, seed)
            assert row == session_row(config, index, batch, seed)

    @pytest.mark.parametrize("n", [1, 33, 96, 8193])
    @pytest.mark.parametrize("eve", ["none", "intercept-resend"])
    def test_curve_equals_per_session_replay(self, eve, n):
        config = ExperimentConfig(
            n_pulses=n, n_sessions=2 if n > 1000 else 200, efficiency=0.7,
            eve_kind=eve, master_seed=n + 1,
        )
        for force_differ in (False, True):
            want = replayed_curve(config, [0, 1, 3], force_differ)
            if want is None:
                with pytest.raises(SessionError):
                    detection_rate_curve(config, [0, 1, 3], force_differ)
            else:
                assert detection_rate_curve(
                    config, [0, 1, 3], force_differ) == want

    def test_empty_subset_redraw_inside_a_batch(self):
        # a session other than the first meets an empty parity subset and
        # draws it again; every session of the batch must still match its
        # own replay, the redrawn one the scalar reference loop
        config = ExperimentConfig(
            n_pulses=8, n_sessions=8, parity_rounds=3, master_seed=1
        )
        strategy = channel_table("none")
        for master_seed in range(1, 500):
            seeds = [derive_seed(master_seed, i) for i in range(8)]
            redraws = [draws_a_redraw(config, strategy, s) for s in seeds]
            lengths = [
                len(run_session(SessionConfig(8), strategy, s).sifted_alice)
                for s in seeds
            ]
            if any(redraws[1:]) and min(lengths) > config.parity_rounds:
                break
        else:
            pytest.fail("no batch with a redraw found")
        batch = run_batch(config, strategy, seeds)
        for s, seed in enumerate(seeds):
            want = run_session(config, strategy, seed)
            assert columns(batch, s) == columns(want)
        redrawn = redraws.index(True, 1)
        reference = reference_session(config, strategy, seeds[redrawn])
        _, discarded, detected = columns(batch, redrawn)
        assert detected == reference[0]
        assert batch.tripped[redrawn] == first_trip(reference)
        assert discarded == sorted(record[3] for record in reference[3])
        assert batch.reconciled(redrawn)[0].tolist() == reference[1]

    # bytes of a lossy amplified intercept/resend run and of a curve under
    # each batch size, the last leaving batches of unequal sizes
    BATCH_SIZES = (BLOCK, 8 * BLOCK, 5_000)

    def test_batch_size_moves_no_report_byte(self, monkeypatch):
        config = ExperimentConfig(
            n_pulses=300, n_sessions=700, efficiency=0.8, parity_rounds=1,
            eve_kind="intercept-resend", pa_leak_bits=20, pa_margin_bits=8,
            master_seed=3,
        )
        texts, cuts = [], []
        for size in self.BATCH_SIZES:
            monkeypatch.setattr(harness, "_BATCH_PULSES", size)
            cuts.append(harness._batches(config, 0, config.n_sessions))
            texts.append(run_experiment(config).to_json())
        assert [len(cut) for cut in cuts] == [26, 4, 44]
        assert len({len(indices) for indices in cuts[2]}) == 2
        assert texts[1] == texts[0]
        assert texts[2] == texts[0]
        report = json.loads(texts[0])
        # some sessions pass their parity round and are amplified
        assert any(row["eve_advantage"] is not None
                   for row in report["sessions"])

    def test_batch_size_moves_no_curve_byte(self, monkeypatch):
        config = ExperimentConfig(n_pulses=96, n_sessions=700, master_seed=4)
        texts = []
        for size in self.BATCH_SIZES:
            monkeypatch.setattr(harness, "_BATCH_PULSES", size)
            curve = detection_rate_curve(config, [1, 2, 5], force_differ=True)
            texts.append(curve_to_json(config, curve))
        assert texts[1] == texts[0]
        assert texts[2] == texts[0]

    @pytest.mark.parametrize("n_pulses, n_sessions", [
        (20_000, 1), (96, 85), (96, 700), (3_000, 30),
    ])
    def test_per_pulse_draws_hold_at_most_one_block(
        self, monkeypatch, n_pulses, n_sessions
    ):
        # a 20k-pulse session is a batch of one; 85 or 700 sessions of 96
        # pulses make one or two batches, and 30 sessions of 3000 pulses
        # one.  No key block and no call of the adversary's sampler may
        # see more than BLOCK pulses, and each stage reads exactly the keys
        # the contract names: loss at the matched pulses, the adversary at
        # the sifted ones and the receiver at the sifted ones whose
        # forwarded state is no eigenstate of its basis
        config = ExperimentConfig(
            n_pulses=n_pulses, n_sessions=n_sessions, efficiency=0.8,
            parity_rounds=4, eve_kind="intercept-resend",
        )
        got, want, sifted = per_pulse_draws(monkeypatch, config)
        assert got == want
        assert want[ADVERSARY] == sifted

    def test_a_mixed_table_reads_a_key_only_for_a_row_with_a_choice(
        self, monkeypatch
    ):
        # indirect-physical at ancilla 0: the H and V rows have one
        # possible outcome and read no adversary key, D and A have two
        config = ExperimentConfig(
            n_pulses=3_000, n_sessions=30, efficiency=0.8, parity_rounds=4,
            eve_kind="indirect-physical", ancilla_angle=0.0,
        )
        got, want, sifted = per_pulse_draws(monkeypatch, config)
        assert got == want
        assert want == {ADVERSARY: 17_972, LOSS: 44_851, MEASURE: 17_972}
        assert 0 < want[ADVERSARY] < sifted

    @pytest.mark.parametrize("kind", ["none", "indirect-oracle"])
    def test_a_table_with_one_outcome_reads_no_adversary_or_measurement_key(
        self, monkeypatch, kind
    ):
        # the sampler sees every sifted pulse once, with no key, and every
        # forwarded state is an eigenstate of the matched basis
        config = ExperimentConfig(
            n_pulses=3_000, n_sessions=30, efficiency=0.8, parity_rounds=4,
            eve_kind=kind,
        )
        drawn, codes = spy_per_pulse_draws(monkeypatch)
        report = run_experiment(config)
        assert {stage for stage, _ in drawn} == {LOSS}
        assert sum(codes) == sum(row.sifted_length for row in report.sessions)


def spy_per_pulse_draws(monkeypatch):
    """Record the per-pulse draws of the engine: (stage, keys) for each key
    block ``protocol.sift`` and ``stream.decide`` compute, and the number
    of codes of each call of the adversary's sampler."""
    drawn, codes = [], []
    key_blocks, intercept = stream.key_blocks, ChannelTable.intercept

    def spy_key_blocks(seeds, stage, n, positions):
        for part, block in key_blocks(seeds, stage, n, positions):
            drawn.append((stage, len(block)))
            yield part, block

    def spy_intercept(table, sent, *args):
        codes.append(sent.size)
        return intercept(table, sent, *args)

    for module in (protocol, stream):
        monkeypatch.setattr(module, "key_blocks", spy_key_blocks)
    monkeypatch.setattr(ChannelTable, "intercept", spy_intercept)
    return drawn, codes


def per_pulse_draws(monkeypatch, config):
    """Run ``config`` under ``spy_per_pulse_draws``.  Returns the keys
    drawn per stage, those ``reference_draws`` counts for its sessions, and
    the sifted pulses of the report, after checking that no key block holds
    more than BLOCK keys and that the adversary's sampler sees each sifted
    pulse once."""
    want = {ADVERSARY: 0, LOSS: 0, MEASURE: 0}
    table = build_strategy(config)
    for index in range(config.n_sessions):
        seed = derive_seed(config.master_seed, index)
        for stage, count in reference_draws(config, table, seed).items():
            want[stage] += count
    drawn, codes = spy_per_pulse_draws(monkeypatch)
    report = run_experiment(config)
    assert max((size for _, size in drawn), default=0) <= BLOCK
    got = {stage: sum(size for drawn_stage, size in drawn
                      if drawn_stage == stage) for stage in want}
    sifted = sum(row.sifted_length for row in report.sessions)
    assert sum(codes) == sifted
    return got, want, sifted


def reference_draws(config, table, seed):
    """The keys of stages 3, 4 and 5 that session ``seed`` reads under the
    contract, counted pulse by pulse from the reference stream: a loss key
    for each pulse whose bases match, below full efficiency; for each of
    those that arrives, an adversary key when a threshold of its sent
    state's row of ``table.edges`` lies strictly between 0 and 2**53, and
    a measurement key when its threshold in ``table.receiver``, at its
    outcome and sent state, does."""
    n = config.n_pulses
    alice_bits, alice_bases, bob_bases = (
        bits(seed, stage, n) for stage in (ALICE_BITS, ALICE_BASES, BOB_BASES)
    )
    lost = int(threshold(config.efficiency))
    counts = {ADVERSARY: 0, LOSS: 0, MEASURE: 0}
    for i in range(n):
        if alice_bases[i] != bob_bases[i]:
            continue
        if config.efficiency < 1:
            counts[LOSS] += 1
            if key(seed, LOSS, i) >= lost:
                continue
        code = 2 * alice_bases[i] + alice_bits[i]
        counts[ADVERSARY] += any(0 < edge < 2**53
                                 for edge in table.edges[code].tolist())
        outcome = row_outcome(table, code, key(seed, ADVERSARY, i))
        edge = int(table.receiver[outcome, code])
        counts[MEASURE] += 0 < edge < 2**53
    return counts


class TestEveSiftedAccuracy:
    def test_none_without_guesses(self):
        config = ExperimentConfig(n_pulses=100, n_sessions=1)
        report = run_experiment(config)
        assert report.sessions[0].eve_accuracy is None

    def test_range(self):
        rng = random.Random(0)
        config = ExperimentConfig(
            n_pulses=2_000, n_sessions=1, eve_kind="intercept-resend",
            master_seed=rng.getrandbits(32),
        )
        accuracy = run_experiment(config).sessions[0].eve_accuracy
        assert 0.0 <= accuracy <= 1.0
