"""Tests for the experiment runner, reporting, and serialization."""

import hashlib
import json
import math
import random
from dataclasses import asdict

import numpy as np
import pytest

from bb84sim.amplification import PrivacyParams, compress, sample_hash
from bb84sim import amplification, cli, harness, protocol, quantum, stream
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
from bb84sim.stream import BLOCK
from test_protocol import (
    columns,
    reference_parity_verify,
    reference_session,
)


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

    def test_reseeded_generators_start_as_new_ones(self):
        # 4096-pulse sessions run two to a batch, so five sessions take
        # three batches from one pool of two generators, each drawn from
        # before the next batch reseeds it
        config = ExperimentConfig(n_pulses=4096, n_sessions=1, master_seed=11)

        def work(indices, rngs):
            states = [rng.getstate() for rng in rngs]
            for rng in rngs:
                rng.getrandbits(100)
            return list(zip(indices, states))

        jobs = [(indices, work) for indices in harness._batches(config, 3, 5)]
        got = [pair for batch in harness._sweep(config, jobs)
               for pair in batch]
        assert [index for index, _ in got] == [3, 4, 5, 6, 7]
        for index, state in got:
            assert state == random.Random(derive_seed(11, index)).getstate()


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
            rng = random.Random(derive_seed(config.master_seed, index))
            batch = run_session(
                SessionConfig(n_pulses=config.n_pulses),
                build_strategy(config),
                rng,
            )
            key, guess = batch.reconciled(0)
            params = PrivacyParams(len(key), 100, 8)
            descriptor = sample_hash(params, rng)
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
        # zeros, and it is hashed all the same; a passive channel has no
        # guess, and a detected session no key
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
            run_session(
                config,
                build_strategy(config),
                random.Random(error.seed),
            )

    @staticmethod
    def first_failing_curve_session(master_seed, k_values, n_sessions):
        """oracle: the first session of a one-at-a-time sweep whose sifted
        key cannot support its round count"""
        sweep = [k for k in k_values for _ in range(n_sessions)]
        for index, k in enumerate(sweep):
            batch = run_session(
                SessionConfig(n_pulses=2), channel_table("none"),
                random.Random(derive_seed(master_seed, index)),
            )
            if len(batch.sifted_alice) <= k:
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
        # at master seed 4, sessions 1 and 3 of the first batch fail and
        # session 0 does not
        config = ExperimentConfig(n_pulses=2, n_sessions=4, master_seed=4)
        with pytest.raises(SessionError) as excinfo:
            detection_rate_curve(config, [1, 5])
        error = excinfo.value
        assert error.session_index == 1
        assert error.session_index == self.first_failing_curve_session(
            4, [1, 5], 4
        )
        assert error.seed == derive_seed(4, 1)

    def test_batch_error_names_the_lowest_failing_session(self):
        # in one batch, session 2 leaves too few bits for amplification and
        # session 3 too few for the parity rounds; a one-at-a-time sweep
        # stops at session 2
        config = ExperimentConfig(
            n_pulses=24, n_sessions=6, parity_rounds=4, pa_leak_bits=3,
            pa_margin_bits=2, master_seed=42,
        )
        lengths = [
            len(run_session(
                SessionConfig(n_pulses=24), channel_table("none"),
                random.Random(derive_seed(42, index)),
            ).sifted_alice)
            for index in range(6)
        ]
        assert [n <= 4 for n in lengths].index(True) == 3
        assert [n - 4 <= 3 + 2 for n in lengths].index(True) == 2
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
        for k_values in ([1, -1], [1, 2.5], [1, np.int64(2)]):
            with pytest.raises(InvalidConfigError):
                detection_rate_curve(config, k_values)
        assert entered == []

    def test_reruns_are_identical(self):
        config = ExperimentConfig(
            n_pulses=500, n_sessions=5, eve_kind="indirect-physical",
            parity_rounds=4, master_seed=99,
        )
        assert run_experiment(config).to_json() == run_experiment(config).to_json()


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
        assert json.loads(report.to_json())["rng_contract"] == "bb84sim-2"
        assert "rng_contract" not in json.loads(report.to_json())["config"]
        assert report.to_csv().splitlines()[-1] == "# rng_contract=bb84sim-2"

    @pytest.mark.parametrize("contract", [None, "bb84sim-1", 2])
    def test_other_stream_contract_is_refused_on_load(self, contract):
        payload = json.loads(self.make_report().to_json())
        if contract is None:
            del payload["rng_contract"]
        else:
            payload["rng_contract"] = contract
        with pytest.raises(ValueError, match="contract"):
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
    together with ``RNG_CONTRACT``."""

    ARGV = ["run", "--pulses", "2000", "--sessions", "3", "--parity-rounds", "8"]

    @pytest.mark.parametrize(
        "extra, digest",
        [
            (["--eve", "none"],
             "88f2a93b6def5e23498410607d9b0341a31737a0ac8d6467519380959d6cddfe"),
            (["--eve", "intercept-resend"],
             "dec5ba5f0394c814b62b61466f97a75013696d748056a84981b2c72342997daf"),
            (["--eve", "indirect-oracle"],
             "6a61b6b219350ed42707cf2b195d9ce38fa1f80b2d76d69df5e718bd9699f427"),
            (["--eve", "indirect-physical"],
             "c3ad39f106e7e05a5cfdd9c70a92b2a38200b97be3c8e57f172e7b3b6120f431"),
            (["--eve", "indirect-oracle", "--pa-t", "200", "--pa-s", "16"],
             "42367aa378c7bb70d0bf1cccc73ff12140997295742fbc26500c3336ec887f8f"),
        ],
        ids=["none", "intercept-resend", "indirect-oracle", "indirect-physical",
             "indirect-oracle-pa"],
    )
    def test_report_digest(self, capsys, extra, digest):
        assert cli.main(self.ARGV + extra) == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # digests of the sequential engine's curves, pinned before the batch
    # engine replaced it: a moved digest is a defect in the batch engine
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--pulses", "96", "--sessions", "200", "--force-differ",
              "--seed", "5"],
             "4ab02003acd1f2d7b95f3016f2c87d1efcb0166f54ce96fbebd9b4976139626b"),
            (["--eve", "intercept-resend", "--pulses", "100", "--sessions",
              "50", "--efficiency", "0.8", "--k-values", "1,3,8", "--seed",
              "2"],
             "791b72c185896401b14a9d5870626efa0650d79f803e240e53e8960efe5c6db7"),
        ],
        ids=["forced-difference", "intercept-resend-lossy"],
    )
    def test_curve_digest(self, capsys, argv, digest):
        assert cli.main(["detect-curve", *argv]) == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # sessions longer than BLOCK, batches of one whose parity rounds draw
    # tens of thousands of outputs in one call, beside a curve of many
    # short sessions and a lossy 10k-pulse session whose per-pulse stages
    # draw two blocks each
    @pytest.mark.parametrize(
        "kwargs, k_values, digest",
        [
            ({"n_pulses": 100_000, "n_sessions": 2, "parity_rounds": 32,
              "eve_kind": "intercept-resend"}, None,
             "cb1c49687a4e4a6922ecbe84d78543a7ff0d25ed124e0d5e45763c74cbb184d3"),
            ({"n_pulses": 100_000, "n_sessions": 1, "efficiency": 0.8,
              "parity_rounds": 32, "eve_kind": "indirect-oracle",
              "pa_leak_bits": 20_000, "pa_margin_bits": 16}, None,
             "f68b0ac3d7f1fe2fe5a1d5e9562799091495437a5d31e700ab02cac210d46b97"),
            ({"n_pulses": 96, "n_sessions": 1000}, [1, 2, 3, 4, 5, 6, 7, 8],
             "a888445fc98394b13772f69fed7cc8f8d4d95ffa63de8e83e1e4d2d29836b833"),
            ({"n_pulses": 10_000, "n_sessions": 1, "efficiency": 0.9,
              "parity_rounds": 32, "eve_kind": "intercept-resend"}, None,
             "ff9ab8e391306047b4be8f109acd194e259b1a7077e82a36c86966cd95c425a0"),
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


def session_row(config, index, batch, rng):
    """The report row of the one session of ``batch``, replayed on its own
    generator."""
    alice, bob = batch.sifted_alice.tolist(), batch.sifted_bob.tolist()
    length = len(alice)
    errors = sum(a != b for a, b in zip(alice, bob))
    guess_bits = batch.adversary.guess_bits
    guesses = None if guess_bits is None else guess_bits[batch.pulses.outcomes]
    accuracy = None
    if guesses is not None and length:
        sifted_guesses = np.take(guesses, batch.sifted).tolist()
        accuracy = sum(g == a for g, a in zip(sifted_guesses, alice)) / length
    final_length, advantage = 0, None
    if not batch.detected[0]:
        key = batch.sifted_alice[batch.kept]
        final_length = len(key)
        if config.privacy_enabled:
            params = PrivacyParams(
                final_length, config.pa_leak_bits, config.pa_margin_bits
            )
            descriptor = sample_hash(params, rng)
            final_length = params.output_bits
            if guesses is not None:
                guess = np.take(guesses, batch.sifted[batch.kept])
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
    """Whether parity verification of the session drawn from ``seed`` meets
    an empty subset, by the generator outputs its rounds consume."""
    rng = random.Random(seed)
    batch = run_session(
        SessionConfig(config.n_pulses, config.efficiency), adversary, rng
    )
    length = len(batch.sifted_alice)
    if length <= config.parity_rounds:
        return False
    plain = random.Random()
    plain.setstate(rng.getstate())
    for done in range(config.parity_rounds):
        plain.getrandbits(32 * ((length - done + 31) // 32))
    reference_parity_verify(
        batch.sifted_alice.tolist(), batch.sifted_bob.tolist(),
        config.parity_rounds, rng,
    )
    return rng.getstate() != plain.getstate()


def replayed_curve(config, k_values, force_differ):
    """oracle: the sweep as a loop over single sessions, flipping and
    verifying each sifted key with plain generator calls; ``None`` when a
    session has too few sifted bits"""
    strategy = build_strategy(config)
    curve, index = [], 0
    for k in k_values:
        detections = 0
        for _ in range(config.n_sessions):
            rng = random.Random(derive_seed(config.master_seed, index))
            index += 1
            batch = run_session(
                SessionConfig(config.n_pulses, config.efficiency),
                strategy, rng,
            )
            alice = batch.sifted_alice.tolist()
            bob = batch.sifted_bob.tolist()
            if not alice or len(alice) <= k:
                return None
            if force_differ:
                flip = min(int(rng.random() * len(bob)), len(bob) - 1)
                bob[flip] ^= 1
            detections += reference_parity_verify(alice, bob, k, rng)[0]
        curve.append((k, detections / config.n_sessions))
    return curve


class TestBatchEngine:
    """Batched sessions against the same sessions replayed one at a time,
    each on its own generator."""

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
            rng = random.Random(derive_seed(config.master_seed, index))
            batch = run_session(config, strategy, rng)
            assert row == session_row(config, index, batch, rng)

    @pytest.mark.parametrize("eve", ["intercept-resend", "indirect-oracle"])
    def test_amplified_rows_equal_per_session_replay(self, eve):
        config = ExperimentConfig(
            n_pulses=700, n_sessions=30, efficiency=0.7, parity_rounds=3,
            eve_kind=eve, pa_leak_bits=40, pa_margin_bits=8, master_seed=2,
        )
        strategy = build_strategy(config)
        rows = run_experiment(config).sessions
        for index, row in enumerate(rows):
            rng = random.Random(derive_seed(config.master_seed, index))
            batch = run_session(config, strategy, rng)
            assert row == session_row(config, index, batch, rng)

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
                len(run_session(SessionConfig(8), strategy,
                                random.Random(s)).sifted_alice)
                for s in seeds
            ]
            if any(redraws[1:]) and min(lengths) > config.parity_rounds:
                break
        else:
            pytest.fail("no batch with a redraw found")
        rngs = [random.Random(s) for s in seeds]
        batch = run_batch(config, strategy, rngs)
        for s, seed in enumerate(seeds):
            rng = random.Random(seed)
            want = run_session(config, strategy, rng)
            assert columns(batch, s) == columns(want)
            assert rngs[s].getstate() == rng.getstate()
        redrawn = redraws.index(True, 1)
        reference, rng = reference_session(config, strategy, seeds[redrawn])
        _, discarded, detected = columns(batch, redrawn)
        assert detected == reference[0]
        assert discarded == sorted(record[3] for record in reference[3])
        assert batch.reconciled(redrawn)[0].tolist() == reference[1]
        assert rngs[redrawn].getstate() == rng.getstate()

    @pytest.mark.parametrize("n_pulses, n_sessions", [(20_000, 1), (96, 85)])
    def test_per_pulse_draws_hold_at_most_one_block(
        self, monkeypatch, n_pulses, n_sessions
    ):
        # a 20k-pulse session is a batch of one, and 85 sessions of 96
        # pulses make one batch of 8160: no call of the adversary's sampler
        # or of the key draw may see more than BLOCK pulses, yet together
        # they see every pulse, once for the adversary and three times for
        # the keys (adversary, loss, measurement)
        sizes = {"intercept": [], "keys": []}
        intercept, keys = ChannelTable.intercept, stream.keys

        def spy_intercept(table, codes, drawn):
            sizes["intercept"].append(codes.size)
            return intercept(table, codes, drawn)

        def spy_keys(words, n):
            sizes["keys"].append(len(words) * n)
            return keys(words, n)

        monkeypatch.setattr(ChannelTable, "intercept", spy_intercept)
        for module in (stream, protocol, quantum):
            monkeypatch.setattr(module, "keys", spy_keys)
        run_experiment(ExperimentConfig(
            n_pulses=n_pulses, n_sessions=n_sessions, efficiency=0.8,
            parity_rounds=4, eve_kind="intercept-resend",
        ))
        pulses = n_pulses * n_sessions
        assert max(sizes["intercept"]) <= BLOCK
        assert max(sizes["keys"]) <= BLOCK
        assert sum(sizes["intercept"]) == pulses
        assert sum(sizes["keys"]) == 3 * pulses


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
