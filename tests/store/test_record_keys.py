"""Store entry names and bytes of one cell of every result kind.

``test_engine_store_keys.py`` and ``test_policy_store_keys.py`` pin more
``phase`` and ``mixed`` digests.  This file pins one cell of each of
the seven kinds, read off the file name the store gives the entry when
the result is saved: a store warmed by older code must stay warm, so
the same ``<kind>-<key>.json`` has to come out for as long as the
schema version stays put.  The sha256 of each saved file pins the
entry's bytes too (config plus payload), so a change to what a cell
computes or how it is serialized — a renamed stored field, say —
cannot hide behind an unchanged name.
"""

import hashlib
import os

import pytest

from repro.channel.codeword import CodewordConfig
from repro.channel.gilbert_elliott import GilbertElliottParams
from repro.dram.controller import OP_WRITE, ControllerConfig
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
from repro.system.parallel import MixedTask, PhaseTask

CHANNEL = GilbertElliottParams(p_g2b=0.004 / 0.996 / 60.0, p_b2g=1 / 60.0,
                               p_bad=0.7)
INTERLEAVER = TwoStageConfig(triangle_n=15, symbols_per_element=4,
                             codeword_symbols=24)
CODE = CodewordConfig(n_symbols=24, t_correctable=2)

#: Digest of each cell below, as the store named its entry when the
#: digests were frozen.
PINNED = {
    "phase": "da6aa8bce7df806eb8cf1b2bce16d9b3",
    "mixed": "1dd40247e8f6b1cd7d1e2ce39fedba8a",
    "e2e": "6b36d7e765707fb404c004d9ad9758b5",
    "campaign": "61852528f35518124c03ed25e3861afb",
    "adaptive": "f871a965c848c89e55c5b988dc35a8b0",
    "rare-event": "79dc6db5fa01996aad8a3120996d85c0",
    "scenario": "c21f6f506b7834798f4cd7fa4eaea431",
}

#: sha256 of each cell's saved entry file (config plus payload).
ENTRY_SHA256 = {
    "phase":
        "733ea2a6817f95f68f642a24d51da11ec17f0c232e316d56b062bcf3a65eea24",
    "mixed":
        "4d57ba21b0300d76f68b433eae963f112298e59be00aa6a618049df062d18c9d",
    "e2e": "81d0f3706b863cd278d4a110a8efd62b1a578d258adfd1d60f43bbf5a975833c",
    "campaign":
        "ff00c52534c7a2d92f51da7b2762e8e8ef299fdc4238a45e3f4e0892c7001d2c",
    "adaptive":
        "2850a32d5b26eaaafa313b7e6af2a8a680f4e4da7296029fdf11137d30ffda0c",
    "rare-event":
        "42076c7ae97fb66a0497cd218379090189fd77f0d694ba13a49eafe18e8597ec",
    "scenario":
        "41a4d3b98f30d1c4286c82a4661dcadc77d89950d8c5ada0ba7b8c3c0f518dc6",
}

#: kind -> one cell of that kind.
CELLS = {
    # the cap discipline covers the one policy key written only for it
    "phase": PhaseTask("DDR4-3200", "optimized", OP_WRITE, 16,
                       policy=ControllerConfig(discipline="frfcfs-cap",
                                               cap=3)),
    "mixed": MixedTask("LPDDR4-4266", "row-major", 12, group=4),
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


@pytest.mark.parametrize("kind", sorted(ENTRY_SHA256))
def test_saved_entry_bytes_are_pinned(tmp_path, kind):
    cell = CELLS[kind]
    ResultStore(str(tmp_path)).save(cell, cell.execute())
    (name,) = os.listdir(str(tmp_path))
    with open(os.path.join(str(tmp_path), name), "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    assert digest == ENTRY_SHA256[kind]


def test_every_kind_has_a_distinct_digest():
    assert len(set(PINNED.values())) == len(PINNED)
