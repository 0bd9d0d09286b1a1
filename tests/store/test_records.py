"""Record schema: bit-identical JSON round-trips and key derivation."""

import json

import pytest

from repro.channel.burst_stats import BurstProfile
from repro.channel.codeword import CodewordConfig, DecodingReport
from repro.channel.gilbert_elliott import GilbertElliottParams
from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.energy import EnergyReport
from repro.dram.stats import EnergyTally
from repro.interleaver.two_stage import TwoStageConfig
from repro.store import records
from repro.store.records import (
    KIND_CAMPAIGN,
    KIND_PHASE,
    RECORDS,
    SCHEMA_VERSION,
    burst_profile_from_payload,
    burst_profile_to_payload,
    campaign_cell_config,
    canonical_json,
    decoding_report_from_payload,
    decoding_report_to_payload,
    derive_key,
    downlink_result_from_payload,
    downlink_result_to_payload,
    e2e_cell_config,
    e2e_cell_from_config,
    e2e_result_from_payload,
    e2e_result_to_payload,
    energy_report_from_payload,
    energy_report_to_payload,
    energy_tally_from_payload,
    energy_tally_to_payload,
    mixed_result_from_payload,
    mixed_result_to_payload,
    mixed_task_config,
    phase_stats_from_payload,
    phase_stats_to_payload,
    phase_task_config,
    policy_config,
    policy_from_config,
    record_for,
)
from repro.system.campaign import CACHE_VERSION, CampaignCell, evaluate_cell
from repro.system.e2e import E2ECell
from repro.system.parallel import MixedTask, PhaseTask

CHANNEL = GilbertElliottParams(p_g2b=0.004 / 0.996 / 60.0, p_b2g=1 / 60.0,
                               p_bad=0.7)
INTERLEAVER = TwoStageConfig(triangle_n=15, symbols_per_element=4,
                             codeword_symbols=24)
CODE = CodewordConfig(n_symbols=24, t_correctable=2)


def through_json(payload):
    """The exact trip a payload takes through a store document."""
    return json.loads(json.dumps(payload, sort_keys=True, allow_nan=False))


class TestKeyDerivation:
    def test_canonical_json_is_sorted_and_tight(self):
        assert canonical_json({"b": 1, "a": [1.5, "x"]}) == '{"a":[1.5,"x"],"b":1}'

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_derive_key_is_deterministic_and_order_insensitive(self):
        a = derive_key(KIND_PHASE, {"n": 8, "mapping": "row-major"})
        b = derive_key(KIND_PHASE, {"mapping": "row-major", "n": 8})
        assert a == b
        assert len(a) == 32
        assert all(c in "0123456789abcdef" for c in a)

    def test_derive_key_separates_kinds_and_configs(self):
        config = {"n": 8}
        assert derive_key(KIND_PHASE, config) != derive_key(KIND_CAMPAIGN, config)
        assert derive_key(KIND_PHASE, config) != derive_key(KIND_PHASE, {"n": 9})

    def test_schema_version_participates_in_key(self, monkeypatch):
        before = derive_key(KIND_PHASE, {"n": 8})
        monkeypatch.setattr(records, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
        assert derive_key(KIND_PHASE, {"n": 8}) != before


class TestConfigDicts:
    def test_policy_roundtrip(self):
        policy = ControllerConfig(queue_depth=4, per_bank_depth=2,
                                  refresh_enabled=False, record_commands=True)
        assert policy_from_config(through_json(policy_config(policy))) == policy
        assert policy_config(None) is None
        assert policy_from_config(None) is None

    def test_phase_task_config_covers_every_axis(self):
        base = PhaseTask(config_name="DDR4-3200", mapping="row-major",
                         op=OP_WRITE, n=8)
        variants = [
            PhaseTask("DDR3-1600", "row-major", OP_WRITE, 8),
            PhaseTask("DDR4-3200", "optimized", OP_WRITE, 8),
            PhaseTask("DDR4-3200", "row-major", OP_READ, 8),
            PhaseTask("DDR4-3200", "row-major", OP_WRITE, 9),
            PhaseTask("DDR4-3200", "row-major", OP_WRITE, 8,
                      policy=ControllerConfig(refresh_enabled=False)),
        ]
        keys = {derive_key(KIND_PHASE, phase_task_config(t))
                for t in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_mixed_task_config_includes_group(self):
        a = mixed_task_config(MixedTask("DDR4-3200", "row-major", 8, group=4))
        b = mixed_task_config(MixedTask("DDR4-3200", "row-major", 8, group=8))
        assert a != b

    def test_e2e_cell_config_roundtrip(self):
        cell = E2ECell(channel=CHANNEL, interleaver=INTERLEAVER, code=CODE,
                       config_name="DDR4-3200", mapping="optimized",
                       seed=7, frames=3,
                       policy=ControllerConfig(refresh_enabled=False))
        assert e2e_cell_from_config(through_json(e2e_cell_config(cell))) == cell

    def test_campaign_cell_config_folds_in_cache_version(self):
        cell = CampaignCell(CHANNEL, INTERLEAVER, CODE, seed=1, frames=5)
        config = campaign_cell_config(cell)
        assert config["cache_version"] == CACHE_VERSION
        assert CampaignCell.from_dict(through_json(config)) == cell


class TestPayloadRoundTrips:
    def test_energy_tally(self):
        tally = EnergyTally(act_pre=12, rd=34, wr=56, ref=7,
                            makespan_ps=987654321012345)
        assert energy_tally_from_payload(
            through_json(energy_tally_to_payload(tally))) == tally

    def test_phase_stats_bit_identical_including_tally(self):
        stats = PhaseTask("DDR4-3200", "row-major", OP_WRITE, 8).execute()
        loaded = phase_stats_from_payload(
            through_json(phase_stats_to_payload(stats)))
        assert loaded == stats
        # equality excludes the tally and the command counts; pin them too
        assert loaded.energy_tally == stats.energy_tally
        assert loaded.command_counts == stats.command_counts

    def test_mixed_result(self):
        result = MixedTask("DDR4-3200", "row-major", 8, group=4).execute()
        loaded = mixed_result_from_payload(
            through_json(mixed_result_to_payload(result)))
        assert loaded == result
        assert loaded.stats.energy_tally == result.stats.energy_tally

    def test_burst_profile_exact_floats(self):
        profile = BurstProfile(total_symbols=100, error_symbols=7,
                               burst_count=3, max_burst=4, mean_burst=7 / 3)
        loaded = burst_profile_from_payload(
            through_json(burst_profile_to_payload(profile)))
        assert loaded == profile
        assert loaded.mean_burst == profile.mean_burst  # exact, not approx

    def test_decoding_report(self):
        report = DecodingReport(codewords=20, failed=3, corrected_symbols=11,
                                residual_symbol_errors=9)
        assert decoding_report_from_payload(
            through_json(decoding_report_to_payload(report))) == report

    def test_energy_report_exact_floats(self):
        report = EnergyReport(activation_nj=0.1 + 0.2, burst_nj=1 / 3,
                              refresh_nj=2 / 7, background_nj=1e-17,
                              payload_bytes=480, makespan_ps=123456789)
        loaded = energy_report_from_payload(
            through_json(energy_report_to_payload(report)))
        assert loaded == report
        assert loaded.burst_nj == report.burst_nj

    def test_campaign_cell_result(self):
        cell = CampaignCell(CHANNEL, INTERLEAVER, CODE, seed=3, frames=10)
        result = evaluate_cell(cell)
        record = RECORDS[CampaignCell]
        loaded = record.decode(through_json(record.encode(result)))
        assert loaded == result

    def test_e2e_result_with_downlink_and_latencies(self):
        cell = E2ECell(channel=CHANNEL, interleaver=INTERLEAVER, code=CODE,
                       config_name="DDR4-3200", mapping="row-major",
                       seed=2024, frames=2)
        result = cell.execute()
        payload = through_json(e2e_result_to_payload(result))
        loaded = e2e_result_from_payload(payload)
        assert loaded == result
        assert loaded.write.energy_tally == result.write.energy_tally
        assert loaded.read.energy_tally == result.read.energy_tally
        # the downlink half round-trips on its own too
        downlink = downlink_result_from_payload(
            through_json(downlink_result_to_payload(result.downlink)))
        assert downlink == result.downlink


class TestAdaptiveRecordKinds:
    """The three estimator kinds added with schema version 2."""

    def _adaptive_cell(self):
        from repro.system.adaptive import AdaptiveCell
        return AdaptiveCell(channel=CHANNEL, interleaver=INTERLEAVER,
                            code=CODE, seed=5, max_frames=60,
                            ci_width=0.05, batch_frames=16)

    def _rare_event_cell(self):
        from repro.system.adaptive import RareEventCell, default_proposal
        return RareEventCell(channel=CHANNEL,
                             proposal=default_proposal(CHANNEL, 4.0),
                             interleaver=INTERLEAVER, code=CODE,
                             seed=5, frames=20)

    def _scenario_cell(self):
        from repro.system.adaptive import ScenarioCell, contact_pass_segments
        return ScenarioCell(segments=contact_pass_segments(
            frames_per_segment=2), interleaver=INTERLEAVER, code=CODE, seed=5)

    def test_kinds_are_distinct_namespaces(self):
        from repro.store.records import (
            KIND_ADAPTIVE,
            KIND_RARE_EVENT,
            KIND_SCENARIO,
        )
        kinds = {KIND_CAMPAIGN, KIND_ADAPTIVE, KIND_RARE_EVENT, KIND_SCENARIO}
        assert len(kinds) == 4
        config = {"n": 8}
        keys = {derive_key(kind, config) for kind in kinds}
        assert len(keys) == 4

    def test_adaptive_config_and_payload_roundtrip(self):
        from repro.system.adaptive import AdaptiveCell, evaluate_adaptive
        cell = self._adaptive_cell()
        config = campaign_cell_config(cell)
        assert config["cache_version"] == CACHE_VERSION
        assert AdaptiveCell.from_dict(through_json(config)) == cell
        result = evaluate_adaptive(cell)
        record = RECORDS[AdaptiveCell]
        loaded = record.decode(through_json(record.encode(result)))
        assert loaded == result

    def test_rare_event_config_and_payload_roundtrip(self):
        from repro.system.adaptive import RareEventCell, evaluate_rare_event
        cell = self._rare_event_cell()
        config = campaign_cell_config(cell)
        assert config["cache_version"] == CACHE_VERSION
        assert RareEventCell.from_dict(through_json(config)) == cell
        result = evaluate_rare_event(cell)
        record = RECORDS[RareEventCell]
        loaded = record.decode(through_json(record.encode(result)))
        assert loaded == result
        # the float accumulators must survive the JSON trip exactly
        assert loaded.sum_weight == result.sum_weight
        assert (loaded.weighted_failed_baseline_sq
                == result.weighted_failed_baseline_sq)

    def test_scenario_config_and_payload_roundtrip(self):
        from repro.system.adaptive import ScenarioCell, evaluate_scenario
        cell = self._scenario_cell()
        config = campaign_cell_config(cell)
        assert config["cache_version"] == CACHE_VERSION
        assert ScenarioCell.from_dict(through_json(config)) == cell
        result = evaluate_scenario(cell)
        record = RECORDS[ScenarioCell]
        loaded = record.decode(through_json(record.encode(result)))
        assert loaded == result

    def test_store_rejects_foreign_cell_payload(self, tmp_path):
        from repro.store.store import ResultStore
        from repro.system.adaptive import AdaptiveCell, evaluate_adaptive
        store = ResultStore(str(tmp_path))
        cell = self._adaptive_cell()
        store.save(cell, evaluate_adaptive(cell))
        other = AdaptiveCell(channel=CHANNEL, interleaver=INTERLEAVER,
                             code=CODE, seed=6, max_frames=60,
                             ci_width=0.05, batch_frames=16)
        assert store.load(cell) is not None
        assert store.load(other) is None


class TestRecordTable:
    def test_every_task_type_has_its_own_kind(self):
        kinds = [record.kind for record in RECORDS.values()]
        assert len(kinds) == len(set(kinds)) == 7
        assert {records.KIND_PHASE, records.KIND_MIXED, records.KIND_E2E,
                records.KIND_CAMPAIGN, records.KIND_ADAPTIVE,
                records.KIND_RARE_EVENT, records.KIND_SCENARIO} == set(kinds)

    def test_recording_phase_cells_are_still_stored(self):
        """Only mixed cells bypass the store when they record commands."""
        task = PhaseTask("DDR4-3200", "row-major", OP_WRITE, 8,
                         policy=ControllerConfig(record_commands=True))
        assert record_for(task) is RECORDS[PhaseTask]
