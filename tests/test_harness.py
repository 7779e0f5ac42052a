"""Tests for the experiment runner, reporting, and serialization."""

import hashlib
import json
import math
import random

import numpy as np
import pytest

from bb84sim.amplification import PrivacyParams, compress, sample_hash
from bb84sim import cli
from bb84sim.errors import InvalidConfigError, KeyTooShortError, SessionError
from bb84sim.harness import (
    RNG_CONTRACT,
    AggregateStats,
    ExperimentConfig,
    ExperimentReport,
    build_strategy,
    compute_aggregates,
    curve_to_csv,
    curve_to_json,
    derive_seed,
    detection_rate_curve,
    eve_sifted_accuracy,
    run_experiment,
)
from bb84sim.adversary import (
    IndirectCopyOracle,
    IndirectCopyPhysical,
    InterceptResend,
    NoEve,
)
from bb84sim.protocol import SessionConfig, run_session


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
            {"n_pulses": 1, "n_sessions": 1, "master_seed": -1},
            {"n_pulses": 1, "n_sessions": 1, "output_format": "xml"},
            {"n_pulses": 1, "n_sessions": 1, "ancilla_angle": math.nan},
            {"n_pulses": 1, "n_sessions": 1, "ancilla_angle": math.inf},
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
        assert config.session_config == SessionConfig(5, 0.5, 2)

    def test_build_strategy_covers_all_kinds(self):
        base = dict(n_pulses=10, n_sessions=1)
        assert isinstance(
            build_strategy(ExperimentConfig(**base, eve_kind="none")), NoEve
        )
        assert isinstance(
            build_strategy(
                ExperimentConfig(**base, eve_kind="intercept-resend",
                                 attack_fraction=0.5)
            ),
            InterceptResend,
        )
        assert isinstance(
            build_strategy(ExperimentConfig(**base, eve_kind="indirect-oracle")),
            IndirectCopyOracle,
        )
        assert isinstance(
            build_strategy(
                ExperimentConfig(**base, eve_kind="indirect-physical")
            ),
            IndirectCopyPhysical,
        )


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
            transcript = run_session(
                SessionConfig(n_pulses=config.n_pulses),
                build_strategy(config),
                rng,
            )
            key = transcript.reconciled_key
            params = PrivacyParams(len(key), 100, 8)
            descriptor = sample_hash(params, rng)
            agreement = float(
                np.mean(
                    compress(key, descriptor)
                    == compress(transcript.eve_reconciled_guess, descriptor)
                )
            )
            assert row.final_key_length == params.output_bits
            assert type(row.eve_advantage) is float
            assert row.eve_advantage == agreement - 0.5

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
                config.session_config,
                build_strategy(config),
                random.Random(error.seed),
            )

    def test_curve_session_error_names_its_seed(self):
        config = ExperimentConfig(n_pulses=2, n_sessions=4, master_seed=3)
        with pytest.raises(SessionError) as excinfo:
            detection_rate_curve(config, [1, 5])
        error = excinfo.value
        assert error.seed == derive_seed(3, error.session_index)
        assert f"seed {error.seed}" in str(error)

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
