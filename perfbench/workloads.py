"""The benchmark's four workloads: inputs from a seed, one sweep, checks.

Every workload is a closed loop: one caller submits a sweep through the
library's public sweep function and waits for it.  A sweep returns a
:class:`Sweep` holding its timed passes, its rendered outputs (one list
of lines per output) and the quantities the metrics are computed from.

Output checks compare each rendered line against ``pins.json``.  Lines
whose content does not depend on the workload seed are pinned for every
seed; the others only for :data:`DEFAULT_SEED`.  Under any other seed
those outputs are checked by invariants instead: ``table1-jobs`` rows
equal the pinned ``table1`` rows, the warm ``campaign`` pass equals the
cold pass, and every sweep of a run repeats the first one.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")

#: Seed the pins were taken at; the library's own default channel seed.
DEFAULT_SEED = 2024
WORKLOADS = ("table1", "table1-jobs", "e2e", "campaign")

#: Warm ``campaign`` passes per sweep: one pass takes ~10 ms, too short
#: for a single timing to be steady.
WARM_REPEATS = 5

#: Full size is the benchmark; tiny size is for the benchmark's own tests.
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "table1": {"n": 256, "configs": None},
        "e2e": {"n": 32, "frames": 40, "configs": None},
        "campaign": {},
    },
    "tiny": {
        "table1": {"n": 16, "configs": ("DDR3-800", "DDR4-3200")},
        "e2e": {"n": 15, "frames": 4, "configs": ("DDR4-3200",)},
        "campaign": {"fade_symbols": [40.0], "fade_fraction": [0.004],
                     "triangle_n": [15], "seeds": 2, "frames": 16},
    },
}


@dataclass
class Sweep:
    """One sweep of a workload.

    Attributes:
        passes: ``(label, start, end)`` perf-counter windows of the
            timed library calls, in order.
        outputs: rendered outputs, one list of lines each.
        cells: simulation cells the sweep attempted.
        work: work counts (``bursts``, ``frames``, ``hits``).
        sim: simulated quantities (deterministic).
        failures: messages of checks the sweep failed, with the cells
            each one covers.
    """

    passes: List[Tuple[str, float, float]] = field(default_factory=list)
    outputs: Dict[str, List[str]] = field(default_factory=dict)
    cells: int = 0
    work: Dict[str, int] = field(default_factory=dict)
    sim: Dict[str, float] = field(default_factory=dict)
    failures: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        """Cells failing a check, at most the cells attempted."""
        return min(self.cells, sum(cells for _, cells in self.failures))


def digest(line: str) -> str:
    """Short content digest of one output line."""
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]


def load_pins() -> Dict[str, Any]:
    """The pinned line digests (see ``make_pins.py``)."""
    with open(PINS_PATH) as stream:
        return json.load(stream)


def paper_table1(repo_root: str) -> Dict[Tuple[str, str], Tuple[float, float]]:
    """``PAPER_TABLE1`` from ``benchmarks/bench_table1.py``, read without import.

    Parsing the literal keeps pytest and the benchmark module's imports
    out of the measured process.
    """
    path = os.path.join(repo_root, "benchmarks", "bench_table1.py")
    with open(path) as stream:
        tree = ast.parse(stream.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "PAPER_TABLE1" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise ValueError(f"PAPER_TABLE1 not found in {path}")


class Workload:
    """Base: a named sweep with seed-derived inputs and output checks.

    Args:
        seed: workload seed.
        size: ``"full"`` (the benchmark) or ``"tiny"`` (self-tests).
        work_dir: scratch directory inside the checkout.
        repo_root: the repository checkout.
        pins: pinned digests; ``None`` checks invariants only.
    """

    name = ""
    #: output name -> True when its lines do not depend on the seed.
    seed_free: Dict[str, bool] = {}

    def __init__(self, seed: int, size: str, work_dir: str, repo_root: str,
                 pins: Optional[Dict[str, Any]]) -> None:
        self.seed = seed
        self.repo_root = repo_root
        self.params = SIZES[size]
        self.work_dir = work_dir
        self.pins = pins
        self.first: Optional[Dict[str, List[str]]] = None

    def run(self) -> Sweep:
        """One sweep, checked."""
        sweep = Sweep()
        try:
            self.sweep(sweep)
        except Exception as error:  # a raising sweep fails all its cells
            sweep.cells = max(sweep.cells, self.cells_per_sweep())
            sweep.failures.append((f"raised {type(error).__name__}: {error}",
                                   sweep.cells))
            return sweep
        self.check(sweep)
        return sweep

    def cells_per_sweep(self) -> int:
        raise NotImplementedError

    def sweep(self, sweep: Sweep) -> None:
        raise NotImplementedError

    def cells_of_line(self, output: str, index: int) -> int:
        """Cells a rendered line reports (0 for headers and footers)."""
        return 0

    def pinned(self, output: str) -> Optional[List[str]]:
        """Pinned digests applying to ``output`` under this run's seed."""
        if self.pins is None:
            return None
        if not self.seed_free.get(output) and self.seed != DEFAULT_SEED:
            return None
        return self.pins.get(self.pin_key, {}).get(output)

    @property
    def pin_key(self) -> str:
        return self.name

    def compare(self, sweep: Sweep, what: str, output: str,
                lines: Sequence[str], expected: Sequence[str]) -> None:
        """Record the cells of every line of ``lines`` unlike ``expected``."""
        if len(lines) != len(expected):
            sweep.failures.append((f"{what}: {len(lines)} lines, expected "
                                   f"{len(expected)}", sweep.cells))
            return
        for index, (got, want) in enumerate(zip(lines, expected)):
            if got != want:
                sweep.failures.append((f"{what}: line {index} differs",
                                       max(1, self.cells_of_line(output, index))))

    def check(self, sweep: Sweep) -> None:
        """Pins where they apply, else agreement with the run's first sweep."""
        if self.first is None:
            self.first = sweep.outputs
        for output, lines in sweep.outputs.items():
            pins = self.pinned(output)
            if pins is not None:
                self.compare(sweep, f"{output} vs pin", output,
                             [digest(line) for line in lines], pins)
            else:
                self.compare(sweep, f"{output} vs first sweep", output,
                             lines, self.first[output])
        self.check_invariants(sweep)

    def check_invariants(self, sweep: Sweep) -> None:
        """Workload-specific checks that need no pin."""


class Table1(Workload):
    """``run_table1`` over every Table I cell, serial, no store."""

    name = "table1"
    seed_free = {"table": True}
    jobs: Optional[int] = None

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        from repro.dram.presets import TABLE1_CONFIG_NAMES

        size = self.params["table1"]
        self.n = size["n"]
        self.configs = tuple(size["configs"] or TABLE1_CONFIG_NAMES)
        self.paper = paper_table1(self.repo_root)

    def cells_per_sweep(self) -> int:
        return 4 * len(self.configs)

    def cells_of_line(self, output: str, index: int) -> int:
        return 4 if 2 <= index < 2 + len(self.configs) else 0

    def sweep(self, sweep: Sweep) -> None:
        from repro.system.sweep import format_table1, run_table1

        start = perf_counter()
        rows = run_table1(n=self.n, config_names=self.configs, jobs=self.jobs)
        sweep.passes.append(("sweep", start, perf_counter()))
        sweep.cells = self.cells_per_sweep()
        sweep.outputs["table"] = format_table1(rows).splitlines()
        sweep.work["bursts"] = sum(
            phase.requests
            for row in rows for result in (row.row_major, row.optimized)
            for phase in (result.write, result.read))
        sweep.sim["sim_opt_min_util_pct"] = 100.0 * min(
            min(row.optimized.write_utilization, row.optimized.read_utilization)
            for row in rows)
        errors = [
            abs(100.0 * cell - paper)
            for row in rows
            for mapping, result in (("row-major", row.row_major),
                                    ("optimized", row.optimized))
            for cell, paper in zip(
                (result.write_utilization, result.read_utilization),
                self.paper[(row.config_name, mapping)])
        ]
        sweep.sim["sim_util_err_pp"] = sum(errors) / len(errors)

    def check_invariants(self, sweep: Sweep) -> None:
        if sweep.work["bursts"] != 4 * len(self.configs) * self.n * (self.n + 1) // 2:
            sweep.failures.append(("bursts scheduled != 4 phases x n(n+1)/2 "
                                   "per configuration", sweep.cells))


class Table1Jobs(Table1):
    """The ``table1`` grid over a process pool of ``nproc`` workers.

    Its rows must equal the serial ``table1`` rows, so it is checked
    against the ``table1`` pins (seed-free), or against a serial run at
    sizes that have no pins.
    """

    name = "table1-jobs"

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.jobs = len(os.sched_getaffinity(0))
        if self.pins is None:
            from repro.system.sweep import format_table1, run_table1

            self.first = {"table": format_table1(run_table1(
                n=self.n, config_names=self.configs)).splitlines()}

    @property
    def pin_key(self) -> str:
        return "table1"


class E2E(Workload):
    """``run_e2e_table`` on its default grid, channel seed = workload seed."""

    name = "e2e"
    # The DRAM side of a cell never sees the channel, so its columns are
    # the same under every seed; the full table is pinned at one seed.
    seed_free = {"table": False, "dram": True}

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        from repro.dram.presets import TABLE1_CONFIG_NAMES

        size = self.params["e2e"]
        self.n = size["n"]
        self.frames = size["frames"]
        self.configs = tuple(size["configs"] or TABLE1_CONFIG_NAMES)

    def cells_per_sweep(self) -> int:
        return 2 * len(self.configs)

    def cells_of_line(self, output: str, index: int) -> int:
        first = 1 if output == "table" else 0
        return 1 if first <= index < first + self.cells_per_sweep() else 0

    def sweep(self, sweep: Sweep) -> None:
        from repro.system.sweep import format_e2e_table, run_e2e_table

        start = perf_counter()
        rows = run_e2e_table(n=self.n, config_names=self.configs,
                             frames=self.frames, seed=self.seed)
        sweep.passes.append(("sweep", start, perf_counter()))
        sweep.cells = self.cells_per_sweep()
        sweep.outputs["table"] = format_e2e_table(rows).splitlines()
        sweep.outputs["dram"] = [
            f"{row.config_name} {row.mapping_name} "
            f"{row.result.write_utilization!r} {row.result.read_utilization!r} "
            f"{row.result.write_latencies_ps} {row.result.read_latencies_ps} "
            f"{row.result.energy.total_nj!r}"
            for row in rows
        ]
        sweep.work["frames"] = sum(row.result.cell.frames for row in rows)
        sweep.work["bursts"] = sum(row.result.write.requests + row.result.read.requests
                                   for row in rows)
        sweep.sim["sim_read_p99_us"] = max(
            row.result.read_latency_percentile(99) for row in rows) / 1e6

    def check_invariants(self, sweep: Sweep) -> None:
        elements = self.n * (self.n + 1) // 2
        if sweep.work["bursts"] != 2 * sweep.work["frames"] * elements:
            sweep.failures.append(("bursts != 2 phases x frames x elements",
                                   sweep.cells))


class Campaign(Workload):
    """``run_campaign`` on the CLI's default grid: cold pass, then warm.

    Each sweep opens a fresh ``ResultStore``; the cold pass writes every
    cell into it, and each warm pass (``resume=True``) reads them back.
    """

    name = "campaign"

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        from repro.store.jobs import grid_from_spec

        spec = dict(self.params["campaign"], seed_base=self.seed)
        self.grid = grid_from_spec(spec)
        self.seeds_per_row = len({cell.seed for cell in self.grid})

    def cells_per_sweep(self) -> int:
        return (1 + WARM_REPEATS) * len(self.grid)

    def cells_of_line(self, output: str, index: int) -> int:
        return self.seeds_per_row if index >= 2 else 0

    def pinned(self, output: str) -> Optional[List[str]]:
        # Both passes must print the one pinned report.
        return super().pinned("report" if output in ("cold", "warm") else output)

    def sweep(self, sweep: Sweep) -> None:
        from repro.store.store import ResultStore
        from repro.system.campaign import (campaign_report, run_campaign,
                                           summarize_campaign)

        root = tempfile.mkdtemp(prefix="store-", dir=self.work_dir)
        try:
            store = ResultStore(root)
            sweep.cells = self.cells_per_sweep()
            start = perf_counter()
            cold = run_campaign(self.grid, store=store)
            sweep.passes.append(("cold", start, perf_counter()))
            warm_runs = []
            for _ in range(WARM_REPEATS):
                start = perf_counter()
                warm_runs.append(run_campaign(self.grid, store=store, resume=True))
                sweep.passes.append(("warm", start, perf_counter()))
            stored = store.campaign_progress(self.grid)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        sweep.outputs["cold"] = campaign_report(
            cold, summarize_campaign(cold)).splitlines()
        sweep.outputs["warm"] = campaign_report(
            warm_runs[-1], summarize_campaign(warm_runs[-1])).splitlines()
        sweep.work["frames"] = sum(result.cell.frames for result in cold)
        sweep.work["hits"] = len(self.grid)
        if stored != len(self.grid):
            sweep.failures.append((f"store holds {stored} of {len(self.grid)} "
                                   "cells after the cold pass", len(self.grid)))
        differing = sum(run != cold for run in warm_runs)
        if differing:
            sweep.failures.append((f"{differing} warm passes differ from the "
                                   "cold pass", differing * len(self.grid)))

    def check_invariants(self, sweep: Sweep) -> None:
        self.compare(sweep, "warm vs cold", "warm",
                     sweep.outputs["warm"], sweep.outputs["cold"])


FACTORIES: Dict[str, Callable[..., Workload]] = {
    "table1": Table1,
    "table1-jobs": Table1Jobs,
    "e2e": E2E,
    "campaign": Campaign,
}


def make(name: str, seed: int, size: str, work_dir: str, repo_root: str,
         pins: Optional[Dict[str, Any]]) -> Workload:
    """Build workload ``name``; ``pins`` only apply at full size."""
    return FACTORIES[name](seed, size, work_dir, repo_root,
                           pins if size == "full" else None)
