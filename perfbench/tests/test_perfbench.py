"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import session  # noqa: E402
import workloads  # noqa: E402
from repro.dram.engine import SchedulingEngine  # noqa: E402

#: Per-layer metrics that must be non-zero in a tiny traced run of each
#: workload: the layers the workload reaches.  (Tiny phases end before
#: the first refresh deadline, so refresh counts stay 0 here.)
REACHED = {
    "table1": ("mapping.addrgen_s", "mapping.bursts", "engine.run_s",
               "engine.phases", "engine.bursts"),
    "table1-jobs": ("parallel.dispatch_s", "parallel.tasks", "engine.run_s",
                    "engine.bursts", "mapping.addrgen_s"),
    "e2e": ("engine.run_s", "engine.commands_recorded", "energy.fold_s",
            "energy.calls", "e2e.bridge_s", "e2e.self_s", "channel.sample_s",
            "channel.symbols", "downlink.decode_s", "mapping.addrgen_s"),
    "campaign": ("channel.sample_s", "channel.symbols", "downlink.decode_s",
                 "interleaver.permutation_s", "store.write_s", "store.writes",
                 "store.bytes_written", "store.read_s", "store.reads",
                 "store.hits"),
}


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        return {m["name"]: m["unit"] for m in json.load(stream)[kind]}


def run_cli(trace):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "campaign",
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_are_the_declared_ones(trace, kind):
    result = run_cli(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == declared(kind)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_workload_passes_its_checks_at_tiny_size(name, tmp_path):
    record = session.run_session(name, 11, 0.0, False, "tiny", ROOT, str(tmp_path))
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] > 0
    assert all(seconds > 0 for times in record["passes"].values() for seconds in times)


@pytest.mark.parametrize("name,module,function", [
    ("table1", "repro.system.sweep", "format_table1"),
    ("table1-jobs", "repro.system.sweep", "format_table1"),
    ("e2e", "repro.system.sweep", "format_e2e_table"),
    ("campaign", "repro.system.campaign", "campaign_report"),
])
def test_perturbed_output_is_reported_failed(name, module, function, tmp_path,
                                             monkeypatch):
    workload = workloads.make(name, 11, "tiny", str(tmp_path), ROOT, None)
    assert workload.run().failed == 0
    original = getattr(sys.modules[module], function)

    def perturbed(*args):
        lines = original(*args).splitlines()
        lines[-2] = lines[-2].replace("0", "9").replace("%", "")
        return "\n".join(lines)

    monkeypatch.setattr(sys.modules[module], function, perturbed)
    sweep = workload.run()
    assert sweep.failed > 0
    assert sweep.failures


def test_full_size_table1_matches_its_pins_and_catches_one_changed_row(tmp_path):
    workload = workloads.make("table1", 12345, "full", str(tmp_path), ROOT,
                              workloads.load_pins())
    sweep = workload.run()
    assert sweep.failures == [] and sweep.cells == 40
    sweep.outputs["table"][5] = sweep.outputs["table"][5].replace("%", "% ")
    sweep.failures = []
    workload.check(sweep)
    assert sweep.failed == 4  # one configuration row: four cells


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_it_reaches(name, tmp_path):
    record = session.run_session(name, 11, 0.0, True, "tiny", ROOT, str(tmp_path))
    assert record["failed"] == 0, record["failures"]
    layers = record["layers"]
    expected = (set(session.LAYER_TIMES.values()) | set(session.LAYER_COUNTS)
                | set(session.LAYER_CALLS.values())
                | {"trace.overhead_pct", "trace.unattributed_pct"})
    assert set(layers) == expected
    assert [metric for metric in REACHED[name] if not layers[metric] > 0] == []
    assert any(span[4] >= 0 for span in record["spans"])  # parent links exist
    assert not hasattr(SchedulingEngine.run, "__wrapped__")  # wrappers removed
