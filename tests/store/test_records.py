"""Record schema: bit-identical JSON round-trips and key derivation."""

import json
from dataclasses import dataclass
from operator import attrgetter
from typing import List

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
    campaign_cell_config,
    canonical_json,
    decode,
    derive_key,
    encode,
    phase_task_config,
    policy_config,
    policy_from_config,
    record_for,
)
from repro.system.adaptive import (
    AdaptiveCell,
    RareEventCell,
    ScenarioCell,
    contact_pass_segments,
    default_proposal,
)
from repro.system.campaign import CACHE_VERSION, CampaignCell
from repro.system.e2e import E2ECell
from repro.system.parallel import MixedTask, PhaseTask

CHANNEL = GilbertElliottParams(p_g2b=0.004 / 0.996 / 60.0, p_b2g=1 / 60.0,
                               p_bad=0.7)
INTERLEAVER = TwoStageConfig(triangle_n=15, symbols_per_element=4,
                             codeword_symbols=24)
CODE = CodewordConfig(n_symbols=24, t_correctable=2)

#: One cell of every stored kind (each task type of ``RECORDS``).
CELLS = {
    "phase": PhaseTask("DDR4-3200", "row-major", OP_WRITE, 8),
    "mixed": MixedTask("DDR4-3200", "row-major", 8, group=4),
    "e2e": E2ECell(channel=CHANNEL, interleaver=INTERLEAVER, code=CODE,
                   config_name="DDR4-3200", mapping="row-major",
                   seed=2024, frames=2,
                   policy=ControllerConfig(refresh_enabled=False)),
    "campaign": CampaignCell(CHANNEL, INTERLEAVER, CODE, seed=3, frames=10),
    "adaptive": AdaptiveCell(channel=CHANNEL, interleaver=INTERLEAVER,
                             code=CODE, seed=5, max_frames=60,
                             ci_width=0.05, batch_frames=16),
    "rare-event": RareEventCell(channel=CHANNEL,
                                proposal=default_proposal(CHANNEL, 4.0),
                                interleaver=INTERLEAVER, code=CODE,
                                seed=5, frames=20),
    "scenario": ScenarioCell(segments=contact_pass_segments(
        frames_per_segment=2), interleaver=INTERLEAVER, code=CODE, seed=5),
}

#: Values of the stored dataclasses no cell result above carries.
VALUES = {
    "EnergyTally": EnergyTally(act_pre=12, rd=34, wr=56, ref=7,
                               makespan_ps=987654321012345),
    "BurstProfile": BurstProfile(total_symbols=100, error_symbols=7,
                                 burst_count=3, max_burst=4,
                                 mean_burst=7 / 3),
    "DecodingReport": DecodingReport(codewords=20, failed=3,
                                     corrected_symbols=11,
                                     residual_symbol_errors=9),
    "EnergyReport": EnergyReport(activation_nj=0.1 + 0.2, burst_nj=1 / 3,
                                 refresh_nj=2 / 7, background_nj=1e-17,
                                 payload_bytes=480, makespan_ps=123456789),
}

#: Per case, the parts dataclass equality skips (energy tallies,
#: command counts) or the floats that must come back exact, not approx.
EXACT = {
    "result:phase": ("energy_tally", "command_counts"),
    "result:mixed": ("stats.energy_tally",),
    "result:e2e": ("write.energy_tally", "read.energy_tally", "downlink"),
    "result:rare-event": ("sum_weight", "weighted_failed_baseline_sq"),
    "BurstProfile": ("mean_burst",),
    "EnergyReport": ("burst_nj",),
}


def through_json(payload):
    """The exact trip a payload takes through a store document."""
    return json.loads(json.dumps(payload, sort_keys=True, allow_nan=False))


def _stored_value(case):
    """The value a round-trip case encodes: a cell, its result or a part."""
    role, _, name = case.partition(":")
    if role == "cell":
        return CELLS[name]
    if role == "result":
        return CELLS[name].execute()
    return VALUES[case]


@pytest.mark.parametrize("case", [f"{role}:{kind}" for kind in CELLS
                                  for role in ("cell", "result")]
                         + sorted(VALUES))
def test_round_trip_is_bit_identical(case):
    value = _stored_value(case)
    payload = through_json(encode(value))
    loaded = decode(type(value), payload)
    assert loaded == value
    for path in EXACT.get(case, ()):
        assert attrgetter(path)(loaded) == attrgetter(path)(value)
    # every stored field, equality-skipped or not, encodes back the same
    assert through_json(encode(loaded)) == payload


def test_unrepresentable_field_type_is_named():
    @dataclass
    class Odd:
        values: List[int]

    with pytest.raises(TypeError, match="Odd.values"):
        encode(Odd([1]))


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

    def test_mixed_config_includes_group(self):
        a = encode(MixedTask("DDR4-3200", "row-major", 8, group=4))
        b = encode(MixedTask("DDR4-3200", "row-major", 8, group=8))
        assert a != b

    @pytest.mark.parametrize("kind", ["campaign", "adaptive", "rare-event",
                                      "scenario"])
    def test_campaign_cell_config_folds_in_cache_version(self, kind):
        cell = CELLS[kind]
        config = campaign_cell_config(cell)
        assert config["cache_version"] == CACHE_VERSION
        assert decode(type(cell), through_json(config)) == cell


class TestAdaptiveRecordKinds:
    """The three estimator kinds added with schema version 2."""

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

    def test_store_rejects_foreign_cell_payload(self, tmp_path):
        from repro.store.store import ResultStore
        store = ResultStore(str(tmp_path))
        cell = CELLS["adaptive"]
        store.save(cell, cell.execute())
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
