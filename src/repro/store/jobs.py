"""Campaign job engine: persistent, resumable grid runs over the store.

A *job* is one campaign grid submitted for asynchronous execution.  Its
identity is content-addressed — the job id is the store key of its
normalized grid specification — so submitting the same grid twice
yields the same job, and "resubmit after a crash" is indistinguishable
from "resume".  No timestamps, counters or other persisted bookkeeping
exist anywhere: progress is derived by counting the per-cell results
the campaign engine has already persisted in the store, which makes the
engine correct across interruptions, server restarts and concurrent
submissions by construction.

The execution path is exactly the CLI's: cells run through
:func:`repro.system.campaign.run_campaign` with the shared
:class:`~repro.store.store.ResultStore` and ``resume=True``, on the
same process pool.  A warm store therefore serves a job's cells without
recomputation regardless of whether a previous ``repro campaign``
invocation, a crashed job or another client paid for them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.channel.codeword import CodewordConfig
from repro.channel.gilbert_elliott import coherence_params
from repro.interleaver.two_stage import TwoStageConfig
from repro.store.records import KIND_JOB, JSONDict, derive_key
from repro.store.store import ResultStore
from repro.system.campaign import (
    CampaignCell,
    CellResult,
    campaign_grid,
    campaign_report,
    run_campaign,
    summarize_campaign,
)

#: Grid specification defaults — field for field the defaults of
#: ``repro campaign`` (the 162-cell grid: 3 fades x 3 fractions x 3
#: triangle sizes x 6 seeds), so a spec of ``{}`` submitted to the
#: server runs exactly what the bare CLI command runs.
DEFAULT_GRID_SPEC: JSONDict = {
    "fade_symbols": [40.0, 60.0, 90.0],
    "fade_fraction": [0.002, 0.004, 0.008],
    "p_bad": 0.7,
    "p_good": 0.0,
    "triangle_n": [15, 32, 48],
    "symbols_per_element": 4,
    "codeword_symbols": 24,
    "t_correctable": 2,
    "seeds": 6,
    "seed_base": 2024,
    "frames": 400,
}


def normalize_spec(spec: JSONDict) -> JSONDict:
    """Merge a partial grid spec with the defaults and coerce types.

    Normalization makes job identity robust: ``{"frames": 400}`` and
    ``{}`` and ``{"frames": 400.0}`` all canonicalize to the same spec,
    hence the same content-addressed job id.

    Args:
        spec: any subset of :data:`DEFAULT_GRID_SPEC` keys.

    Raises:
        ValueError: on unknown keys or malformed values.
    """
    unknown = set(spec) - set(DEFAULT_GRID_SPEC)
    if unknown:
        known = ", ".join(sorted(DEFAULT_GRID_SPEC))
        raise ValueError(
            f"unknown grid spec keys {sorted(unknown)}; known: {known}")
    merged = dict(DEFAULT_GRID_SPEC)
    merged.update(spec)
    try:
        return {
            "fade_symbols": [float(x) for x in list(merged["fade_symbols"])],
            "fade_fraction": [float(x) for x in list(merged["fade_fraction"])],
            "p_bad": float(merged["p_bad"]),
            "p_good": float(merged["p_good"]),
            "triangle_n": [int(x) for x in list(merged["triangle_n"])],
            "symbols_per_element": int(merged["symbols_per_element"]),
            "codeword_symbols": int(merged["codeword_symbols"]),
            "t_correctable": int(merged["t_correctable"]),
            "seeds": int(merged["seeds"]),
            "seed_base": int(merged["seed_base"]),
            "frames": int(merged["frames"]),
        }
    except (TypeError, ValueError, OverflowError) as error:
        raise ValueError(f"malformed grid spec: {error}") from None


def grid_from_spec(spec: JSONDict) -> List[CampaignCell]:
    """Build the campaign cell grid a (partial) spec describes.

    The single grid builder shared by ``repro campaign`` and the job
    engine, so the CLI and the server can never drift apart on what the
    default grid means.

    Args:
        spec: any subset of :data:`DEFAULT_GRID_SPEC` keys
            (:func:`normalize_spec` fills the rest).

    Raises:
        ValueError: on unknown keys, malformed values, or grid
            parameters the simulators reject (bad fade statistics,
            non-positive seeds/frames, inconsistent geometry).
    """
    merged = normalize_spec(spec)
    if merged["seeds"] < 1 or merged["frames"] < 1:
        raise ValueError("seeds and frames must be >= 1")
    channels = [
        coherence_params(length, fraction, p_bad=merged["p_bad"],
                         p_good=merged["p_good"])
        for length in merged["fade_symbols"]
        for fraction in merged["fade_fraction"]
    ]
    interleavers = [
        TwoStageConfig(triangle_n=n,
                       symbols_per_element=merged["symbols_per_element"],
                       codeword_symbols=merged["codeword_symbols"])
        for n in merged["triangle_n"]
    ]
    codes = [CodewordConfig(n_symbols=merged["codeword_symbols"],
                            t_correctable=merged["t_correctable"])]
    seeds = range(merged["seed_base"], merged["seed_base"] + merged["seeds"])
    return campaign_grid(channels, interleavers, codes, seeds,
                         merged["frames"])


@dataclass(frozen=True)
class JobRecord:
    """One submitted campaign grid.

    Attributes:
        job_id: content-addressed identity (store key of the
            normalized spec).
        spec: the normalized grid specification.
        cells: the grid, in deterministic
            :func:`~repro.system.campaign.campaign_grid` order.
    """

    job_id: str
    spec: JSONDict
    cells: Tuple[CampaignCell, ...]


class JobEngine:
    """Submit, execute and observe campaign jobs over one store.

    Thread-safe: the HTTP server calls in from concurrent handler
    threads.  Execution itself happens on one background thread per
    active job (the heavy lifting is in ``run_campaign``'s process
    pool, so one coordinating thread per job suffices).
    """

    def __init__(self, store: ResultStore,
                 jobs: Optional[int] = None) -> None:
        """Create an engine over ``store``.

        Args:
            store: the shared result store (cells and job records).
            jobs: worker processes per running job (see
                :func:`repro.system.parallel.resolve_jobs`).
        """
        self.store = store
        self.jobs = jobs
        self._threads: Dict[str, threading.Thread] = {}
        self._errors: Dict[str, str] = {}
        self._lock = threading.Lock()

    def submit(self, spec: JSONDict) -> JobRecord:
        """Register a grid (idempotently) and return its job record.

        Does not start execution — pair with :meth:`start`.  The job
        record is persisted in the store, so a restarted server lists
        and resumes jobs submitted before the restart.

        Raises:
            ValueError: when the spec is unknown-keyed or malformed.
        """
        cells = grid_from_spec(spec)
        normalized = normalize_spec(spec)
        job_id = derive_key(KIND_JOB, normalized)
        self.store.write(KIND_JOB, normalized, {"total": len(cells)})
        return JobRecord(job_id=job_id, spec=normalized, cells=tuple(cells))

    def get(self, job_id: str) -> Optional[JobRecord]:
        """Look a persisted job up by id (``None`` when unknown)."""
        for config, _payload in self.store.list_entries(KIND_JOB):
            if derive_key(KIND_JOB, config) == job_id:
                return JobRecord(job_id=job_id, spec=config,
                                 cells=tuple(grid_from_spec(config)))
        return None

    def list_jobs(self) -> List[JobRecord]:
        """All persisted jobs, in deterministic (key-sorted) order."""
        records = []
        for config, _payload in self.store.list_entries(KIND_JOB):
            records.append(
                JobRecord(job_id=derive_key(KIND_JOB, config), spec=config,
                          cells=tuple(grid_from_spec(config))))
        return records

    def start(self, record: JobRecord) -> bool:
        """Begin (or resume) executing a job in the background.

        Returns ``True`` when a worker thread was launched, ``False``
        when the job is already running or already complete — starting
        is idempotent, like everything else here.  A launch clears the
        error a previous failed run left.
        """
        with self._lock:
            thread = self._threads.get(record.job_id)
            if thread is not None and thread.is_alive():
                return False
            if self.completed(record) >= len(record.cells):
                return False
            self._errors.pop(record.job_id, None)
            thread = threading.Thread(target=self._run_in_thread,
                                      args=(record,), daemon=True)
            self._threads[record.job_id] = thread
            thread.start()
            return True

    def _run_in_thread(self, record: JobRecord) -> None:
        """The worker-thread body: :meth:`run`, a failure logged and kept."""
        try:
            self.run(record)
        except Exception as error:
            import traceback  # only a failed job needs it

            traceback.print_exc()
            with self._lock:
                self._errors[record.job_id] = (
                    f"{type(error).__name__}: {error}")

    def run(self, record: JobRecord) -> List[CellResult]:
        """Execute a job synchronously (what the worker thread runs).

        Runs the grid through the standard campaign engine with
        ``resume=True`` over the shared store: cells persisted by
        earlier runs — interrupted jobs, prior CLI invocations, other
        sweeps' clients — are reused, the rest are simulated and
        persisted the moment they finish.
        """
        return run_campaign(list(record.cells), jobs=self.jobs,
                            store=self.store, resume=True)

    def completed(self, record: JobRecord) -> int:
        """Cells of the job whose persisted result loads."""
        return self.store.campaign_progress(list(record.cells))

    def running(self, record: JobRecord) -> bool:
        """Whether a worker thread is currently executing the job."""
        thread = self._threads.get(record.job_id)
        return thread is not None and thread.is_alive()

    def status(self, record: JobRecord) -> JSONDict:
        """Progress snapshot of a job (the ``GET /jobs/<id>`` body).

        ``error`` is ``"<Type>: <message>"`` of the exception the job's
        last run died with, or ``None``.
        """
        completed = self.completed(record)
        total = len(record.cells)
        return {
            "job": record.job_id,
            "total": total,
            "completed": completed,
            "done": completed >= total,
            "running": self.running(record),
            "error": self._errors.get(record.job_id),
            "spec": record.spec,
        }

    def results(self, record: JobRecord) -> List[Optional[CellResult]]:
        """Per-cell results in grid order (``None`` = not finished yet).

        The incremental-results primitive: pollers receive every cell
        completed so far while the rest of the grid is still running.
        """
        return [self.store.load(cell) for cell in record.cells]

    def table(self, record: JobRecord) -> Optional[str]:
        """The finished job's campaign report, or ``None`` if incomplete.

        Byte-identical to what ``repro campaign --no-chart`` prints for
        the same grid — the server and the CLI share
        :func:`~repro.system.campaign.campaign_report`.
        """
        results = self.results(record)
        complete = [result for result in results if result is not None]
        if len(complete) < len(record.cells):
            return None
        return campaign_report(complete, summarize_campaign(complete))
