"""Monte Carlo campaign engine: grid, statistics, cache, determinism."""

import csv
import io
import json
import math
import os

import numpy as np
import pytest

from repro.channel.codeword import CodewordConfig
from repro.channel.gilbert_elliott import GilbertElliottParams
from repro.interleaver.two_stage import TwoStageConfig
from repro.store.records import (
    KIND_CAMPAIGN,
    campaign_cell_config,
    decode,
    derive_key,
    encode,
)
from repro.store.store import ResultStore
from repro.system import campaign as campaign_module
from repro.system.campaign import (
    CampaignCell,
    CellResult,
    campaign_grid,
    evaluate_cell,
    export_csv,
    export_json,
    format_campaign,
    run_campaign,
    summarize_campaign,
    wilson_interval,
)

CHANNEL = GilbertElliottParams(p_g2b=0.004 / 0.996 / 60.0, p_b2g=1 / 60.0,
                               p_bad=0.7)
INTERLEAVER = TwoStageConfig(triangle_n=15, symbols_per_element=4,
                             codeword_symbols=24)
CODE = CodewordConfig(n_symbols=24, t_correctable=2)


def _cells(seeds=(1, 2, 3), frames=30):
    return campaign_grid([CHANNEL], [INTERLEAVER], [CODE], seeds, frames)


def _store_key(cell):
    """The key the result store files ``cell``'s result under."""
    return derive_key(KIND_CAMPAIGN, campaign_cell_config(cell))


class TestWilsonInterval:
    def test_bounds_and_ordering(self):
        low, high = wilson_interval(3, 100)
        assert 0.0 <= low < 3 / 100 < high <= 1.0

    def test_zero_failures_interval_starts_at_zero(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0
        assert 0.0 < high < 0.15

    def test_all_failures_interval_ends_at_one(self):
        low, high = wilson_interval(50, 50)
        assert high == 1.0
        assert 0.85 < low < 1.0

    def test_narrows_with_trials(self):
        narrow = wilson_interval(10, 10000)
        wide = wilson_interval(1, 1000)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_matches_closed_form(self):
        failures, trials, z = 7, 200, 1.96
        p = failures / trials
        center = (p + z * z / (2 * trials)) / (1 + z * z / trials)
        half = (z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials ** 2))
                / (1 + z * z / trials))
        low, high = wilson_interval(failures, trials, z)
        assert low == pytest.approx(center - half)
        assert high == pytest.approx(center + half)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)
        with pytest.raises(ValueError):
            wilson_interval(1, 10, z=0.0)

    # -- property sweep (the adaptive stopping rule leans on these) ---

    @pytest.mark.parametrize("trials", [1, 2, 10, 100, 10000])
    @pytest.mark.parametrize("numerator", [0, 1, 2])
    def test_property_interval_within_unit_range(self, trials, numerator):
        failures = min(trials, (trials * numerator) // 2)
        low, high = wilson_interval(failures, trials)
        assert 0.0 <= low <= high <= 1.0

    @pytest.mark.parametrize("failures,trials",
                             [(0, 1), (1, 1), (1, 3), (7, 200), (50, 50),
                              (999, 1000)])
    def test_property_interval_contains_point_estimate(self, failures,
                                                       trials):
        low, high = wilson_interval(failures, trials)
        assert low <= failures / trials <= high

    @pytest.mark.parametrize("rate_num,rate_den", [(0, 1), (1, 20), (1, 2)])
    def test_property_half_width_shrinks_monotonically_in_trials(
            self, rate_num, rate_den):
        # Fixed observed rate, growing sample: the half-width — the
        # adaptive stopping criterion — must only ever shrink.
        widths = []
        for scale in (1, 4, 16, 64, 256):
            trials = rate_den * scale
            failures = rate_num * scale
            low, high = wilson_interval(failures, trials)
            widths.append((high - low) / 2.0)
        assert all(earlier > later
                   for earlier, later in zip(widths, widths[1:]))


class TestGridAndCells:
    def test_grid_is_full_cross_product(self):
        channels = [CHANNEL,
                    GilbertElliottParams(p_g2b=1e-4, p_b2g=1 / 40.0, p_bad=0.7)]
        cells = campaign_grid(channels, [INTERLEAVER], [CODE], range(5), 10)
        assert len(cells) == 2 * 1 * 1 * 5
        assert len({_store_key(cell) for cell in cells}) == len(cells)

    def test_grid_skips_mismatched_code_lengths(self):
        other_code = CodewordConfig(n_symbols=30, t_correctable=2)
        cells = campaign_grid([CHANNEL], [INTERLEAVER], [CODE, other_code],
                              [1], 10)
        assert len(cells) == 1
        assert cells[0].code == CODE

    def test_cell_roundtrips_through_dict(self):
        cell = _cells()[0]
        assert decode(CampaignCell, encode(cell)) == cell

    def test_cache_key_depends_on_every_axis(self):
        base = _cells(seeds=[1], frames=30)[0]
        variants = [
            CampaignCell(base.channel, base.interleaver, base.code, 2, 30),
            CampaignCell(base.channel, base.interleaver, base.code, 1, 31),
            CampaignCell(
                GilbertElliottParams(p_g2b=0.001, p_b2g=0.1, p_bad=0.7),
                base.interleaver, base.code, 1, 30),
        ]
        keys = {_store_key(base)} | {_store_key(v) for v in variants}
        assert len(keys) == 4

    def test_rejects_zero_frames(self):
        with pytest.raises(ValueError):
            CampaignCell(CHANNEL, INTERLEAVER, CODE, seed=0, frames=0)

    def test_zero_frames_error_names_the_field(self):
        with pytest.raises(ValueError, match="frames"):
            CampaignCell(CHANNEL, INTERLEAVER, CODE, seed=0, frames=0)
        with pytest.raises(ValueError, match="frames"):
            CampaignCell(CHANNEL, INTERLEAVER, CODE, seed=0, frames=-5)

    def test_rejects_mismatched_dimensions(self):
        bad_code = CodewordConfig(n_symbols=30, t_correctable=2)
        with pytest.raises(ValueError, match="codeword_symbols"):
            CampaignCell(CHANNEL, INTERLEAVER, bad_code, seed=0, frames=10)

    def test_cell_result_rejects_zero_codewords(self):
        cell = _cells(seeds=[1], frames=10)[0]
        with pytest.raises(ValueError, match="codewords"):
            CellResult(cell, 0, 0, 0, 0, 0, 0, 0)

    @pytest.mark.parametrize("field_index,field_name",
                             [(0, "failed_interleaved"),
                              (1, "failed_baseline")])
    def test_cell_result_rejects_out_of_range_failures(self, field_index,
                                                       field_name):
        cell = _cells(seeds=[1], frames=10)[0]
        for bad_value in (-1, 101):
            failed = [0, 0]
            failed[field_index] = bad_value
            with pytest.raises(ValueError, match=field_name):
                CellResult(cell, 100, failed[0], failed[1], 0, 0, 0, 0)


class TestEvaluateCell:
    def test_matches_reference_downlink(self):
        from repro.system.downlink import OpticalDownlink

        cell = _cells(seeds=[11], frames=25)[0]
        result = evaluate_cell(cell)
        reference = OpticalDownlink(
            INTERLEAVER, CODE, CHANNEL,
            rng=np.random.default_rng(11)).run(25)
        assert result.codewords == reference.interleaved.codewords
        assert result.failed_interleaved == reference.interleaved.failed
        assert result.failed_baseline == reference.baseline.failed
        assert result.error_symbols == reference.channel_profile.error_symbols
        assert result.max_burst == reference.channel_profile.max_burst

    def test_result_roundtrips_through_dict(self):
        result = evaluate_cell(_cells(seeds=[4], frames=10)[0])
        assert decode(CellResult, encode(result)) == result

    def test_gain_semantics(self):
        cell = _cells(seeds=[4], frames=10)[0]
        clean = CellResult(cell, 100, 0, 0, 0, 0, 0, 0)
        rescued = CellResult(cell, 100, 0, 7, 10, 3, 0, 9)
        partial = CellResult(cell, 100, 2, 8, 10, 3, 3, 9)
        assert clean.gain == 1.0
        assert rescued.gain == float("inf")
        assert partial.gain == 4.0


class TestDeterminism:
    """Same seeds => identical results, no matter the worker count."""

    def test_jobs_do_not_perturb_results(self):
        cells = _cells(seeds=(1, 2, 3, 4), frames=20)
        serial = run_campaign(cells, jobs=1)
        parallel_two = run_campaign(cells, jobs=2)
        parallel_all = run_campaign(cells, jobs=0)
        assert serial == parallel_two == parallel_all

    def test_results_keep_input_order(self):
        cells = _cells(seeds=(9, 5, 7), frames=15)
        results = run_campaign(cells, jobs=2)
        assert [r.cell.seed for r in results] == [9, 5, 7]

    def test_repeated_runs_identical(self):
        cells = _cells(seeds=(42,), frames=20)
        assert run_campaign(cells) == run_campaign(cells)


class TestCache:
    def test_cache_written_and_reused(self, tmp_path, monkeypatch):
        cells = _cells(seeds=(1, 2), frames=15)
        cache_dir = str(tmp_path / "cache")
        first = run_campaign(cells, store=ResultStore(cache_dir))
        assert len(os.listdir(cache_dir)) == len(cells)

        calls = []
        real = campaign_module.evaluate_cell

        def counting(cell):
            calls.append(cell)
            return real(cell)

        monkeypatch.setattr(campaign_module, "evaluate_cell", counting)
        resumed = run_campaign(cells, store=ResultStore(cache_dir), resume=True)
        assert calls == []
        assert resumed == first

    def test_without_resume_cells_recompute(self, tmp_path, monkeypatch):
        cells = _cells(seeds=(1,), frames=15)
        cache_dir = str(tmp_path / "cache")
        run_campaign(cells, store=ResultStore(cache_dir))

        calls = []
        real = campaign_module.evaluate_cell

        def counting(cell):
            calls.append(cell)
            return real(cell)

        monkeypatch.setattr(campaign_module, "evaluate_cell", counting)
        run_campaign(cells, store=ResultStore(cache_dir))
        assert len(calls) == 1

    def test_partial_cache_fills_gaps(self, tmp_path):
        cells = _cells(seeds=(1, 2, 3), frames=15)
        cache_dir = str(tmp_path / "cache")
        run_campaign(cells[:1], store=ResultStore(cache_dir))
        results = run_campaign(cells, store=ResultStore(cache_dir), resume=True)
        assert [r.cell.seed for r in results] == [1, 2, 3]
        assert results == run_campaign(cells)

    def test_interrupted_campaign_persists_finished_cells(self, tmp_path,
                                                          monkeypatch):
        cells = _cells(seeds=(1, 2, 3), frames=15)
        cache_dir = str(tmp_path / "cache")
        real = campaign_module.evaluate_cell

        def dies_on_last(cell):
            if cell.seed == 3:
                raise RuntimeError("simulated kill")
            return real(cell)

        monkeypatch.setattr(campaign_module, "evaluate_cell", dies_on_last)
        with pytest.raises(RuntimeError):
            run_campaign(cells, store=ResultStore(cache_dir))
        # The two finished cells must already be on disk...
        assert len(os.listdir(cache_dir)) == 2

        calls = []

        def counting(cell):
            calls.append(cell.seed)
            return real(cell)

        monkeypatch.setattr(campaign_module, "evaluate_cell", counting)
        resumed = run_campaign(cells, store=ResultStore(cache_dir), resume=True)
        # ...so the resumed run computes only the interrupted cell.
        assert calls == [3]
        assert resumed == run_campaign(cells)

    def test_corrupt_entries_are_recomputed(self, tmp_path):
        cells = _cells(seeds=(8,), frames=15)
        cache_dir = str(tmp_path / "cache")
        run_campaign(cells, store=ResultStore(cache_dir))
        entry = os.path.join(cache_dir, os.listdir(cache_dir)[0])
        with open(entry, "w") as stream:
            stream.write("{not json")
        results = run_campaign(cells, store=ResultStore(cache_dir), resume=True)
        assert results == run_campaign(cells)

    def test_mismatched_cell_payload_rejected(self, tmp_path):
        cells = _cells(seeds=(8,), frames=15)
        cache_dir = str(tmp_path / "cache")
        run_campaign(cells, store=ResultStore(cache_dir))
        entry = os.path.join(cache_dir, os.listdir(cache_dir)[0])
        with open(entry) as stream:
            data = json.load(stream)
        data["payload"]["cell"]["seed"] = 999  # entry lies about its config
        with open(entry, "w") as stream:
            json.dump(data, stream)
        results = run_campaign(cells, store=ResultStore(cache_dir), resume=True)
        assert results[0].cell.seed == 8


class TestSummaryAndExports:
    def test_summary_pools_across_seeds(self):
        cells = _cells(seeds=(1, 2, 3), frames=20)
        results = run_campaign(cells)
        summaries = summarize_campaign(results)
        assert len(summaries) == 1
        summary = summaries[0]
        assert summary.cells == 3
        assert summary.codewords == sum(r.codewords for r in results)
        assert summary.failed_interleaved == sum(
            r.failed_interleaved for r in results)
        assert summary.frames == 60
        low, high = summary.interval_interleaved
        assert low <= summary.failure_rate_interleaved <= high

    def test_summary_group_order_follows_grid(self):
        slow_fade = GilbertElliottParams(p_g2b=1e-4, p_b2g=1 / 90.0, p_bad=0.7)
        cells = campaign_grid([CHANNEL, slow_fade], [INTERLEAVER], [CODE],
                              (1, 2), 10)
        summaries = summarize_campaign(run_campaign(cells))
        assert [s.channel for s in summaries] == [CHANNEL, slow_fade]

    def test_format_campaign_table(self):
        summaries = summarize_campaign(run_campaign(_cells(frames=15)))
        text = format_campaign(summaries)
        assert "CWER" in text
        assert "95% CI" in text
        assert "gain" in text

    def test_format_campaign_infinite_gain(self):
        # Regression: a perfect interleaved arm (gain == inf)
        # renders as the "inf" cell without tripping float formatting.
        cell = _cells(seeds=[1], frames=10)[0]
        perfect = CellResult(cell, 100, 0, 9, 12, 4, 0, 8)
        summaries = summarize_campaign([perfect])
        assert math.isinf(summaries[0].gain)
        lines = format_campaign(summaries).splitlines()
        assert "inf" in lines[1]

    def test_export_json_schema(self):
        results = run_campaign(_cells(seeds=(1, 2), frames=15))
        summaries = summarize_campaign(results)
        stream = io.StringIO()
        export_json(results, summaries, stream)
        document = json.loads(stream.getvalue())
        assert len(document["cells"]) == 2
        assert len(document["summaries"]) == 1
        restored = decode(CellResult, document["cells"][0])
        assert restored == results[0]

    def test_export_json_infinite_gain_is_null(self):
        # A perfect interleaved arm yields gain == inf; the JSON
        # export must stay RFC-parseable (no `Infinity` token).
        cell = _cells(seeds=[1], frames=10)[0]
        perfect = CellResult(cell, 100, 0, 9, 12, 4, 0, 8)
        summaries = summarize_campaign([perfect])
        assert summaries[0].gain == float("inf")
        stream = io.StringIO()
        export_json([perfect], summaries, stream)
        text = stream.getvalue()
        assert "Infinity" not in text
        document = json.loads(text)
        assert document["summaries"][0]["pooled_gain"] is None

    def test_export_csv_infinite_gain_is_empty_field(self):
        # Regression: the CSV export used to print `inf` where the JSON
        # export emits null.  Both documented conventions now agree:
        # a non-finite gain is an *absent* value — null in JSON, an
        # empty field in CSV.
        cell = _cells(seeds=[1], frames=10)[0]
        perfect = CellResult(cell, 100, 0, 9, 12, 4, 0, 8)
        assert math.isinf(perfect.gain)

        csv_stream = io.StringIO()
        export_csv([perfect], csv_stream)
        row = next(csv.DictReader(io.StringIO(csv_stream.getvalue())))
        assert row["gain"] == ""
        assert "inf" not in csv_stream.getvalue()

        json_stream = io.StringIO()
        export_json([perfect], summarize_campaign([perfect]), json_stream)
        document = json.loads(json_stream.getvalue())
        assert document["summaries"][0]["pooled_gain"] is None

    def test_export_csv_finite_gain_still_numeric(self):
        cell = _cells(seeds=[1], frames=10)[0]
        partial = CellResult(cell, 100, 2, 8, 10, 3, 3, 9)
        stream = io.StringIO()
        export_csv([partial], stream)
        row = next(csv.DictReader(io.StringIO(stream.getvalue())))
        assert float(row["gain"]) == 4.0

    def test_export_csv_rows(self):
        results = run_campaign(_cells(seeds=(1, 2), frames=15))
        stream = io.StringIO()
        export_csv(results, stream)
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 3  # header + one row per cell
        header = lines[0].split(",")
        assert "failure_rate_interleaved" in header
        assert "ci_low_baseline" in header


class TestCampaignStatistics:
    """The paper's claim at campaign scale: deep interleaving wins."""

    def test_deep_interleaver_beats_shallow(self):
        deep = TwoStageConfig(triangle_n=48, symbols_per_element=4,
                              codeword_symbols=24)
        shallow_cells = campaign_grid([CHANNEL], [INTERLEAVER], [CODE],
                                      range(4), 60)
        deep_cells = campaign_grid([CHANNEL], [deep], [CODE], range(4), 60)
        shallow = summarize_campaign(run_campaign(shallow_cells))[0]
        deep_summary = summarize_campaign(run_campaign(deep_cells))[0]
        assert (deep_summary.failure_rate_interleaved
                < shallow.failure_rate_interleaved)
        assert deep_summary.gain > 1.0
