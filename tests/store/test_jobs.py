"""Job engine: content-addressed identity, persistence, resume."""

import time

import pytest

from repro.cli import _campaign_spec, build_parser
from repro.store.jobs import (
    DEFAULT_GRID_SPEC,
    JobEngine,
    grid_from_spec,
    normalize_spec,
)
from repro.store.records import KIND_CAMPAIGN, campaign_cell_config, derive_key
from repro.store.store import ResultStore
from repro.system import campaign as campaign_module
from repro.system.campaign import (
    campaign_report,
    run_campaign,
    summarize_campaign,
)

#: Two cells (2 seeds x 1 channel x 1 geometry), ~10 frames each: fast.
SMALL_SPEC = {
    "fade_symbols": [60.0],
    "fade_fraction": [0.004],
    "triangle_n": [15],
    "seeds": 2,
    "frames": 10,
}


def small_engine(tmp_path):
    return JobEngine(ResultStore(str(tmp_path / "store")), jobs=1)


def _wait_for(engine, record, timeout_s=60.0):
    """Block until the job's worker thread has exited."""
    deadline = time.monotonic() + timeout_s
    while engine.running(record) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not engine.running(record)


class TestGridSpec:
    def test_default_spec_is_the_162_cell_grid(self):
        cells = grid_from_spec({})
        assert len(cells) == 162  # 3 fades x 3 fractions x 3 sizes x 6 seeds

    def test_empty_spec_equals_full_default_spec(self):
        assert grid_from_spec({}) == grid_from_spec(dict(DEFAULT_GRID_SPEC))

    def test_spec_matches_cli_defaults_exactly(self):
        args = build_parser().parse_args(["campaign"])
        assert grid_from_spec(_campaign_spec(args)) == grid_from_spec({})

    def test_normalize_is_idempotent_and_coerces_types(self):
        a = normalize_spec({"frames": 400})
        b = normalize_spec({"frames": 400.0})
        assert a == b == normalize_spec({})
        assert normalize_spec(a) == a

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown grid spec keys"):
            normalize_spec({"framez": 10})

    def test_malformed_value_rejected(self):
        # int() of an infinity raises OverflowError, not ValueError
        for spec in ({"frames": "many"}, {"frames": float("inf")},
                     {"triangle_n": [float("-inf")]}):
            with pytest.raises(ValueError, match="malformed grid spec"):
                normalize_spec(spec)

    def test_non_positive_counts_rejected(self):
        with pytest.raises(ValueError, match="seeds and frames"):
            grid_from_spec({"seeds": 0})


class TestJobEngine:
    def test_submit_is_idempotent_and_persisted(self, tmp_path):
        engine = small_engine(tmp_path)
        first = engine.submit(SMALL_SPEC)
        second = engine.submit(dict(SMALL_SPEC, frames=10.0))
        assert first.job_id == second.job_id
        assert len(first.cells) == 2
        # a fresh engine over the same store sees the job
        rebooted = JobEngine(ResultStore(str(tmp_path / "store")))
        assert [r.job_id for r in rebooted.list_jobs()] == [first.job_id]
        assert rebooted.get(first.job_id).cells == first.cells

    def test_different_specs_get_different_ids(self, tmp_path):
        engine = small_engine(tmp_path)
        a = engine.submit(SMALL_SPEC)
        b = engine.submit(dict(SMALL_SPEC, frames=11))
        assert a.job_id != b.job_id

    def test_get_unknown_job_returns_none(self, tmp_path):
        assert small_engine(tmp_path).get("0" * 32) is None

    def test_run_completes_and_table_matches_cli_report(self, tmp_path):
        engine = small_engine(tmp_path)
        record = engine.submit(SMALL_SPEC)
        assert engine.completed(record) == 0
        assert engine.table(record) is None
        results = engine.run(record)
        assert engine.completed(record) == len(record.cells)
        assert engine.status(record)["done"] is True
        expected = campaign_report(results, summarize_campaign(results))
        assert engine.table(record) == expected

    def test_results_are_incremental(self, tmp_path):
        engine = small_engine(tmp_path)
        record = engine.submit(SMALL_SPEC)
        # warm exactly one cell through the standard campaign path
        run_campaign([record.cells[0]], store=engine.store, resume=True)
        loaded = engine.results(record)
        assert loaded[0] is not None
        assert loaded[1] is None
        assert engine.status(record)["completed"] == 1

    def test_run_resumes_from_warm_store(self, tmp_path, monkeypatch):
        engine = small_engine(tmp_path)
        record = engine.submit(SMALL_SPEC)
        engine.run(record)
        calls = []
        real = campaign_module.evaluate_cell

        def counting(cell):
            calls.append(cell)
            return real(cell)

        monkeypatch.setattr(campaign_module, "evaluate_cell", counting)
        results = engine.run(record)
        assert calls == []  # every cell served from the store
        assert len(results) == len(record.cells)

    def test_start_skips_completed_jobs(self, tmp_path):
        engine = small_engine(tmp_path)
        record = engine.submit(SMALL_SPEC)
        engine.run(record)
        assert engine.start(record) is False
        assert engine.running(record) is False

    def test_status_shape(self, tmp_path):
        engine = small_engine(tmp_path)
        record = engine.submit(SMALL_SPEC)
        status = engine.status(record)
        assert status == {
            "job": record.job_id,
            "total": 2,
            "completed": 0,
            "done": False,
            "running": False,
            "error": None,
            "spec": normalize_spec(SMALL_SPEC),
        }

    def test_failed_run_reports_its_error(self, tmp_path, monkeypatch,
                                          capsys):
        """A job whose thread raises says so, and a restart clears it."""
        engine = small_engine(tmp_path)
        record = engine.submit(SMALL_SPEC)
        real = campaign_module.evaluate_cell

        def broken(cell):
            raise RuntimeError("simulated worker fault")

        monkeypatch.setattr(campaign_module, "evaluate_cell", broken)
        assert engine.start(record) is True
        _wait_for(engine, record)
        status = engine.status(record)
        assert status["running"] is False
        assert status["done"] is False
        assert status["error"] == "RuntimeError: simulated worker fault"
        assert "Traceback" in capsys.readouterr().err

        monkeypatch.setattr(campaign_module, "evaluate_cell", real)
        assert engine.start(record) is True
        _wait_for(engine, record)
        status = engine.status(record)
        assert status["done"] is True
        assert status["error"] is None

    def test_corrupt_entry_reopens_a_finished_job(self, tmp_path):
        """Progress counts entries that load, so a broken one recomputes."""
        engine = small_engine(tmp_path)
        record = engine.submit(SMALL_SPEC)
        engine.run(record)
        before = engine.table(record)
        key = derive_key(KIND_CAMPAIGN, campaign_cell_config(record.cells[0]))
        with open(engine.store.entry_path(KIND_CAMPAIGN, key), "w") as stream:
            stream.write("{not json")
        status = engine.status(record)
        assert status["completed"] == 1
        assert status["done"] is False
        assert engine.table(record) is None
        assert engine.start(record) is True
        _wait_for(engine, record)
        assert engine.status(record)["done"] is True
        assert engine.table(record) == before
