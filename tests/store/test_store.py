"""ResultStore: atomicity, miss discipline, the generic load/save pair."""

import json
import os

import pytest

from repro.channel.codeword import CodewordConfig
from repro.channel.gilbert_elliott import GilbertElliottParams
from repro.dram.controller import OP_WRITE, ControllerConfig
from repro.interleaver.two_stage import TwoStageConfig
from repro.store.records import (
    KIND_CAMPAIGN,
    KIND_PHASE,
    campaign_cell_config,
    derive_key,
    phase_task_config,
)
from repro.store.store import ResultStore
from repro.system.campaign import CampaignCell, evaluate_cell
from repro.system.e2e import E2ECell
from repro.system.parallel import MixedTask, PhaseTask
from repro.system.sweep import run_energy_table

CHANNEL = GilbertElliottParams(p_g2b=0.004 / 0.996 / 60.0, p_b2g=1 / 60.0,
                               p_bad=0.7)
INTERLEAVER = TwoStageConfig(triangle_n=15, symbols_per_element=4,
                             codeword_symbols=24)
CODE = CodewordConfig(n_symbols=24, t_correctable=2)

PHASE = PhaseTask(config_name="DDR4-3200", mapping="row-major",
                  op=OP_WRITE, n=8)


class TestDocumentLayer:
    def test_write_read_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        key = store.write("phase", {"n": 8}, {"value": 1.5})
        assert store.read("phase", {"n": 8}) == {"value": 1.5}
        assert os.path.exists(store.entry_path("phase", key))

    def test_creates_root_directory(self, tmp_path):
        # Made by the first write, not by the constructor: a run that
        # fails its input checks must leave no empty store behind.
        root = tmp_path / "a" / "b"
        store = ResultStore(str(root))
        assert not (tmp_path / "a").exists()
        key = store.write("phase", {"n": 8}, {"value": 1})
        assert root.is_dir()
        assert os.listdir(str(root)) == [os.path.basename(
            store.entry_path("phase", key))]

    def test_missing_root_misses_cleanly(self, tmp_path, capsys):
        root = tmp_path / "missing"
        store = ResultStore(str(root))
        cells = [CampaignCell(CHANNEL, INTERLEAVER, CODE, 1, 10)]
        assert store.read("phase", {"n": 8}) is None
        assert store.load(cells[0]) is None
        assert store.list_entries("phase") == []
        assert store.campaign_progress(cells) == 0
        assert not root.exists()
        assert capsys.readouterr().err == ""

    def test_root_under_a_file_fails_the_write(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        store = ResultStore(str(blocker / "store"))
        with pytest.raises(NotADirectoryError):
            store.write("phase", {"n": 8}, {"value": 1})
        assert os.listdir(str(tmp_path)) == ["file"]

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.write("phase", {"n": 8}, {"value": 1})
        assert not [name for name in os.listdir(str(tmp_path))
                    if name.endswith(".tmp")]

    def test_absent_entry_is_quiet(self, tmp_path, capsys):
        store = ResultStore(str(tmp_path))
        assert store.read("phase", {"n": 8}) is None
        assert capsys.readouterr().err == ""

    def test_corrupt_entry_warns_once_per_path(self, tmp_path, capsys):
        store = ResultStore(str(tmp_path))
        key = store.write("phase", {"n": 8}, {"value": 1})
        path = store.entry_path("phase", key)
        with open(path, "w") as stream:
            stream.write("{ not json")
        assert store.read("phase", {"n": 8}) is None
        assert store.read("phase", {"n": 8}) is None
        err = capsys.readouterr().err
        assert err.count("unreadable") == 1
        assert path in err
        assert "recomputing" in err

    def test_directory_at_entry_path_warns(self, tmp_path, capsys):
        store = ResultStore(str(tmp_path))
        key = derive_key("phase", {"n": 8})
        os.makedirs(store.entry_path("phase", key))
        assert store.read("phase", {"n": 8}) is None
        assert "unreadable" in capsys.readouterr().err

    def test_non_object_document_warns(self, tmp_path, capsys):
        store = ResultStore(str(tmp_path))
        key = derive_key("phase", {"n": 8})
        with open(store.entry_path("phase", key), "w") as stream:
            json.dump([1, 2, 3], stream)
        assert store.read("phase", {"n": 8}) is None
        assert "unreadable" in capsys.readouterr().err

    def test_foreign_config_is_quiet(self, tmp_path, capsys):
        store = ResultStore(str(tmp_path))
        key = store.write("phase", {"n": 8}, {"value": 1})
        path = store.entry_path("phase", key)
        with open(path) as stream:
            document = json.load(stream)
        document["config"] = {"n": 9}  # simulated hash collision / hand edit
        with open(path, "w") as stream:
            json.dump(document, stream)
        assert store.read("phase", {"n": 8}) is None
        assert capsys.readouterr().err == ""

    def test_stale_schema_is_quiet(self, tmp_path, capsys):
        store = ResultStore(str(tmp_path))
        key = store.write("phase", {"n": 8}, {"value": 1})
        path = store.entry_path("phase", key)
        with open(path) as stream:
            document = json.load(stream)
        document["schema"] = 0
        with open(path, "w") as stream:
            json.dump(document, stream)
        assert store.read("phase", {"n": 8}) is None
        assert capsys.readouterr().err == ""

    def test_list_entries_skips_foreign_files(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.write("job", {"frames": 1}, {"total": 2})
        store.write("job", {"frames": 2}, {"total": 3})
        store.write("phase", {"n": 8}, {"value": 1})
        (tmp_path / "README.txt").write_text("not a store entry")
        entries = store.list_entries("job")
        assert len(entries) == 2
        assert {config["frames"] for config, _ in entries} == {1, 2}

    def test_warnings_go_to_stderr_not_stdout(self, tmp_path, capsys):
        store = ResultStore(str(tmp_path))
        key = store.write("phase", {"n": 8}, {"value": 1})
        with open(store.entry_path("phase", key), "w") as stream:
            stream.write("garbage")
        store.read("phase", {"n": 8})
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unreadable" in captured.err


class TestLoadSave:
    def test_phase_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        stats = PHASE.execute()
        assert store.load(PHASE) is None
        store.save(PHASE, stats)
        loaded = store.load(PHASE)
        assert loaded == stats
        assert loaded.energy_tally == stats.energy_tally

    def test_energy_cells_are_stored_as_phase_records(self, tmp_path):
        """The cross-sweep glue: energy and table1 address the same records."""
        store = ResultStore(str(tmp_path))
        [row, _] = run_energy_table(n=8, config_names=("DDR4-3200",),
                                    store=store)
        # two cells, each decomposed into its two phase entries
        names = sorted(os.listdir(str(tmp_path)))
        assert len(names) == 4
        assert all(name.startswith("phase-") for name in names)
        phase = PhaseTask("DDR4-3200", "row-major", OP_WRITE, 8, policy=None)
        assert store.load(phase) == row.result.write

    def test_mixed_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        task = MixedTask("DDR4-3200", "row-major", 8, group=4)
        result = task.execute()
        store.save(task, result)
        assert store.load(task) == result

    def test_mixed_recording_policies_bypass_the_store(self, tmp_path):
        store = ResultStore(str(tmp_path))
        policy = ControllerConfig(record_commands=True)
        task = MixedTask("DDR4-3200", "row-major", 8, group=4, policy=policy)
        result = task.execute()
        store.save(task, result)
        assert os.listdir(str(tmp_path)) == []
        assert store.load(task) is None

    def test_e2e_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cell = E2ECell(channel=CHANNEL, interleaver=INTERLEAVER, code=CODE,
                       config_name="DDR4-3200", mapping="row-major",
                       seed=2024, frames=2)
        result = cell.execute()
        store.save(cell, result)
        assert store.load(cell) == result

    def test_campaign_roundtrip_and_progress(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cells = [CampaignCell(CHANNEL, INTERLEAVER, CODE, seed, 10)
                 for seed in (1, 2, 3)]
        assert store.campaign_progress(cells) == 0
        result = evaluate_cell(cells[0])
        store.save(cells[0], result)
        assert store.load(cells[0]) == result
        assert store.load(cells[1]) is None
        assert store.campaign_progress(cells) == 1
        # progress counts entries that load, not files that exist
        key = derive_key(KIND_CAMPAIGN, campaign_cell_config(cells[0]))
        with open(store.entry_path(KIND_CAMPAIGN, key), "w") as stream:
            stream.write("{not json")
        assert store.campaign_progress(cells) == 0

    def test_malformed_payload_recomputes_quietly(self, tmp_path, capsys):
        store = ResultStore(str(tmp_path))
        stats = PHASE.execute()
        store.save(PHASE, stats)
        key = derive_key(KIND_PHASE, phase_task_config(PHASE))
        path = store.entry_path(KIND_PHASE, key)
        with open(path) as stream:
            document = json.load(stream)
        del document["payload"]["requests"]  # foreign payload shape
        with open(path, "w") as stream:
            json.dump(document, stream)
        assert store.load(PHASE) is None
        assert capsys.readouterr().err == ""

    def test_campaign_embedded_cell_mismatch_recomputes(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(CHANNEL, INTERLEAVER, CODE, seed=1, frames=10)
        store.save(cell, evaluate_cell(cell))
        key = derive_key(KIND_CAMPAIGN, campaign_cell_config(cell))
        path = store.entry_path(KIND_CAMPAIGN, key)
        with open(path) as stream:
            document = json.load(stream)
        document["payload"]["cell"]["seed"] = 999
        with open(path, "w") as stream:
            json.dump(document, stream)
        assert store.load(cell) is None

    def test_unknown_task_type_is_refused(self, tmp_path):
        store = ResultStore(str(tmp_path))
        with pytest.raises(KeyError):
            store.save(object(), {"value": 1})
        with pytest.raises(KeyError):
            store.load(object())
