"""Store keys of the cell kinds the phase/mixed key tests do not cover.

``test_engine_store_keys.py`` and ``test_policy_store_keys.py`` pin the
``phase`` and ``mixed`` digests.  This file pins one cell of every other
result kind, read off the file name the store gives the entry when the
result is saved: a store warmed by older code must stay warm, so the
same ``<kind>-<key>.json`` has to come out for as long as the schema
version stays put.
"""

import os

import pytest

from repro.channel.codeword import CodewordConfig
from repro.channel.gilbert_elliott import GilbertElliottParams
from repro.interleaver.two_stage import TwoStageConfig
from repro.store.store import ResultStore
from repro.system.adaptive import (
    AdaptiveCell,
    RareEventCell,
    ScenarioCell,
    contact_pass_segments,
    default_proposal,
)
from repro.system.campaign import CampaignCell
from repro.system.e2e import E2ECell

CHANNEL = GilbertElliottParams(p_g2b=0.004 / 0.996 / 60.0, p_b2g=1 / 60.0,
                               p_bad=0.7)
INTERLEAVER = TwoStageConfig(triangle_n=15, symbols_per_element=4,
                             codeword_symbols=24)
CODE = CodewordConfig(n_symbols=24, t_correctable=2)

#: Digest of each cell below, as the store named its entry when the
#: digests were frozen.
PINNED = {
    "e2e": "6b36d7e765707fb404c004d9ad9758b5",
    "campaign": "61852528f35518124c03ed25e3861afb",
    "adaptive": "f871a965c848c89e55c5b988dc35a8b0",
    "rare-event": "79dc6db5fa01996aad8a3120996d85c0",
    "scenario": "c21f6f506b7834798f4cd7fa4eaea431",
}

#: kind -> one cell of that kind.
CELLS = {
    "e2e": E2ECell(channel=CHANNEL, interleaver=INTERLEAVER, code=CODE,
                   config_name="DDR4-3200", mapping="optimized", seed=2024,
                   frames=2),
    "campaign": CampaignCell(CHANNEL, INTERLEAVER, CODE, seed=7, frames=10),
    "adaptive": AdaptiveCell(channel=CHANNEL, interleaver=INTERLEAVER,
                             code=CODE, seed=7, max_frames=60, ci_width=0.05,
                             batch_frames=16),
    "rare-event": RareEventCell(channel=CHANNEL,
                                proposal=default_proposal(CHANNEL, 4.0),
                                interleaver=INTERLEAVER, code=CODE, seed=7,
                                frames=20),
    "scenario": ScenarioCell(
        segments=contact_pass_segments(frames_per_segment=2),
        interleaver=INTERLEAVER, code=CODE, seed=7),
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_saved_entry_name_is_pinned(tmp_path, kind):
    cell = CELLS[kind]
    store = ResultStore(str(tmp_path))
    result = cell.execute()
    store.save(cell, result)
    assert os.listdir(str(tmp_path)) == [f"{kind}-{PINNED[kind]}.json"]
    assert store.load(cell) == result


def test_every_kind_has_a_distinct_digest():
    assert len(set(PINNED.values())) == len(PINNED)
