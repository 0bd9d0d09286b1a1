"""Content-addressed on-disk result store shared by every sweep.

One flat directory of atomic JSON documents, one per simulation cell,
named ``<kind>-<key>.json`` where ``key`` is the
:func:`~repro.store.records.derive_key` hash of the cell's canonical
configuration.  The layout generalizes the campaign engine's per-cell
cache (PR 2) to every sweep kind and keeps its two guarantees:

* **atomic writes** — documents land via a per-writer temp file and
  :func:`os.replace`, so a killed run never leaves torn entries and
  concurrent writers of one key never collide;
* **never trust a hash alone** — every read compares the stored
  configuration against the requested one, so hash collisions and
  hand-edited files recompute instead of corrupting results.

Error discipline (the PR 7 bugfix): an *absent* entry is the normal
cache-miss case and stays quiet, but an *unreadable* entry — permission
error, corrupt JSON, a directory squatting on the path — warns once to
stderr before recomputing, so store corruption is visible instead of
silently burning CPU.

Cross-sweep reuse happens at the key level: a ``table1`` run persists
each phase under its :func:`~repro.store.records.phase_task_config`
key, and a later ``energy`` run finds the write/read pair of the same
(config, mapping, n) cell via :meth:`ResultStore.load_interleaver`
without re-entering the scheduling engine (see
:data:`~repro.store.records.FRAME_MAPPINGS` for the applicability
guard).
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import threading
from typing import Dict, List, Optional, Set, Tuple

from repro.dram.controller import OP_READ, OP_WRITE
from repro.dram.mixed import MixedResult
from repro.dram.simulator import InterleaverSimResult
from repro.dram.stats import PhaseStats
from repro.store.records import (
    FRAME_MAPPINGS,
    KIND_ADAPTIVE,
    KIND_CAMPAIGN,
    KIND_E2E,
    KIND_MIXED,
    KIND_PHASE,
    KIND_RARE_EVENT,
    KIND_SCENARIO,
    JSONDict,
    SCHEMA_VERSION,
    adaptive_cell_config,
    adaptive_result_from_payload,
    adaptive_result_to_payload,
    campaign_cell_config,
    campaign_result_from_payload,
    campaign_result_to_payload,
    derive_key,
    e2e_cell_config,
    e2e_result_from_payload,
    e2e_result_to_payload,
    interleaver_phase_task,
    interleaver_result_from_phases,
    mixed_result_from_payload,
    mixed_result_to_payload,
    mixed_task_config,
    phase_stats_from_payload,
    phase_stats_to_payload,
    phase_task_config,
    rare_event_cell_config,
    rare_event_result_from_payload,
    rare_event_result_to_payload,
    scenario_cell_config,
    scenario_result_from_payload,
    scenario_result_to_payload,
)
from repro.system.adaptive import (
    AdaptiveCell,
    AdaptiveResult,
    RareEventCell,
    RareEventResult,
    ScenarioCell,
    ScenarioResult,
)
from repro.system.campaign import CampaignCell, CellResult
from repro.system.e2e import E2ECell, E2EResult
from repro.system.parallel import InterleaverTask, MixedTask, PhaseTask


class ResultStore:
    """A directory of content-addressed simulation results.

    Cheap to construct and picklable in spirit (it holds only a path
    and a warning set), so it can be threaded through sweep functions
    without ceremony.  All writes are atomic; all reads verify the
    stored configuration against the requested one.

    Attributes:
        root: the store directory (created on construction).
    """

    def __init__(self, root: str) -> None:
        """Open (and create if missing) the store rooted at ``root``."""
        self.root = root
        self._warned: Set[str] = set()
        os.makedirs(root, exist_ok=True)

    # -- generic document layer --------------------------------------

    def entry_path(self, kind: str, key: str) -> str:
        """Path of the document holding ``(kind, key)``."""
        return os.path.join(self.root, f"{kind}-{key}.json")

    def write(self, kind: str, config: JSONDict, payload: JSONDict) -> str:
        """Persist one result document atomically; returns its key.

        Args:
            kind: record namespace (``"phase"``, ``"campaign"``, ...).
            config: canonical cell description (the content-address
                basis, stored alongside for collision detection).
            payload: the JSON-friendly result body.
        """
        key = derive_key(kind, config)
        path = self.entry_path(kind, key)
        document = {
            "kind": kind,
            "schema": SCHEMA_VERSION,
            "config": config,
            "payload": payload,
        }
        text = json.dumps(document, sort_keys=True, allow_nan=False)
        # One temp file per writer: concurrent writers of one key (CLI
        # runs and ``repro serve`` over a shared store) never touch each
        # other's half-written file.
        tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            with open(tmp, "w") as stream:
                stream.write(text)
            os.replace(tmp, path)  # atomic: never a torn entry
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            # Lost the replace race (platforms where an open target
            # blocks it): fine when the winner wrote these bytes.
            if not self._holds(path, text):
                raise
        return key

    @staticmethod
    def _holds(path: str, text: str) -> bool:
        """Whether the document at ``path`` is exactly ``text``."""
        try:
            with open(path) as stream:
                return stream.read() == text
        except OSError:
            return False

    def read(self, kind: str, config: JSONDict) -> Optional[JSONDict]:
        """Load the payload stored for ``(kind, config)``, if trustworthy.

        Returns ``None`` — meaning "recompute" — in three cases, with
        different verbosity:

        * the entry is **absent** (normal cache miss): quiet;
        * the entry is **unreadable** (permission error, corrupt JSON,
          a directory at the path): warns once per path to stderr;
        * the entry is **foreign** (schema/kind/config mismatch after a
          hash collision or hand edit): quiet, by the never-trust-a-hash
          rule.
        """
        path = self.entry_path(kind, derive_key(kind, config))
        try:
            with open(path) as stream:
                document = json.load(stream)
        except FileNotFoundError:
            return None  # entry absent: the normal cache-miss case
        except (OSError, ValueError) as error:
            self._warn_unreadable(path, error)
            return None
        if not isinstance(document, dict):
            self._warn_unreadable(path, ValueError("not a JSON object"))
            return None
        if (document.get("kind") != kind
                or document.get("schema") != SCHEMA_VERSION
                or document.get("config") != config):
            return None  # stale or colliding entry: recompute, quietly
        payload = document.get("payload")
        if not isinstance(payload, dict):
            self._warn_unreadable(path, ValueError("payload missing"))
            return None
        return payload

    def _warn_unreadable(self, path: str, error: Exception) -> None:
        """Report an unreadable entry once per path, then stay quiet."""
        if path in self._warned:
            return
        self._warned.add(path)
        print(f"warning: result store entry {path} is unreadable "
              f"({error}); recomputing", file=sys.stderr)

    def list_entries(self, kind: str) -> List[Tuple[JSONDict, JSONDict]]:
        """All readable ``(config, payload)`` pairs of one kind.

        Used by the job engine to enumerate persisted jobs.  Entries
        are returned in sorted filename order (deterministic across
        runs); unreadable or foreign files are skipped with the same
        warn-once discipline as :meth:`read`.
        """
        prefix = f"{kind}-"
        entries: List[Tuple[JSONDict, JSONDict]] = []
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return entries
        for name in names:
            if not name.startswith(prefix) or not name.endswith(".json"):
                continue
            path = os.path.join(self.root, name)
            try:
                with open(path) as stream:
                    document = json.load(stream)
            except (OSError, ValueError) as error:
                self._warn_unreadable(path, error)
                continue
            if (not isinstance(document, dict)
                    or document.get("kind") != kind
                    or document.get("schema") != SCHEMA_VERSION):
                continue
            config = document.get("config")
            payload = document.get("payload")
            if isinstance(config, dict) and isinstance(payload, dict):
                entries.append((config, payload))
        return entries

    # -- typed layer: one load/store pair per sweep kind ---------------

    def store_phase(self, task: PhaseTask, stats: PhaseStats) -> None:
        """Persist one phase simulation result."""
        self.write(KIND_PHASE, phase_task_config(task),
                   phase_stats_to_payload(stats))

    def load_phase(self, task: PhaseTask) -> Optional[PhaseStats]:
        """Load a phase result, or ``None`` on a miss."""
        payload = self.read(KIND_PHASE, phase_task_config(task))
        if payload is None:
            return None
        try:
            return phase_stats_from_payload(payload)
        except (KeyError, TypeError, ValueError):
            return None  # foreign payload shape: recompute
        except AttributeError:
            return None

    def store_interleaver(self, task: InterleaverTask,
                          result: InterleaverSimResult) -> None:
        """Persist a full-frame result as its two phase records.

        Decomposing instead of storing the pair as one blob is what
        makes reuse *cross-sweep*: the write/read records land under
        the exact keys a ``table1`` run uses, so either sweep can warm
        the other.  Mappings whose display name differs from their
        registry key (see :data:`~repro.store.records.FRAME_MAPPINGS`)
        are not persisted — reassembly could not reproduce their
        ``mapping_name`` byte-identically.
        """
        if task.mapping not in FRAME_MAPPINGS:
            return
        self.store_phase(interleaver_phase_task(task, OP_WRITE), result.write)
        self.store_phase(interleaver_phase_task(task, OP_READ), result.read)

    def load_interleaver(self, task: InterleaverTask
                         ) -> Optional[InterleaverSimResult]:
        """Assemble a full-frame result from two cached phase records.

        Hits only when *both* phases of the cell are present (a prior
        ``table1`` or ``energy`` run persisted them) and the mapping is
        reassembly-safe; any miss returns ``None`` and the caller
        simulates.
        """
        if task.mapping not in FRAME_MAPPINGS:
            return None
        write = self.load_phase(interleaver_phase_task(task, OP_WRITE))
        if write is None:
            return None
        read = self.load_phase(interleaver_phase_task(task, OP_READ))
        if read is None:
            return None
        return interleaver_result_from_phases(task, write, read)

    def store_mixed(self, task: MixedTask, result: MixedResult) -> None:
        """Persist one mixed-traffic result.

        Cells whose policy records per-command traces are skipped: the
        command list is a debugging artifact the JSON schema
        deliberately omits, and serving a recorded run from the store
        would silently drop it.
        """
        if task.policy is not None and task.policy.record_commands:
            return
        self.write(KIND_MIXED, mixed_task_config(task),
                   mixed_result_to_payload(result))

    def load_mixed(self, task: MixedTask) -> Optional[MixedResult]:
        """Load a mixed-traffic result, or ``None`` on a miss."""
        if task.policy is not None and task.policy.record_commands:
            return None
        payload = self.read(KIND_MIXED, mixed_task_config(task))
        if payload is None:
            return None
        try:
            return mixed_result_from_payload(payload)
        except (KeyError, TypeError, ValueError):
            return None

    def store_e2e(self, cell: E2ECell, result: E2EResult) -> None:
        """Persist one end-to-end co-simulation result."""
        self.write(KIND_E2E, e2e_cell_config(cell),
                   e2e_result_to_payload(result))

    def load_e2e(self, cell: E2ECell) -> Optional[E2EResult]:
        """Load an end-to-end result, or ``None`` on a miss."""
        payload = self.read(KIND_E2E, e2e_cell_config(cell))
        if payload is None:
            return None
        try:
            return e2e_result_from_payload(payload)
        except (KeyError, TypeError, ValueError):
            return None

    def store_campaign(self, result: CellResult) -> None:
        """Persist one Monte Carlo campaign cell result."""
        self.write(KIND_CAMPAIGN, campaign_cell_config(result.cell),
                   campaign_result_to_payload(result))

    def load_campaign(self, cell: CampaignCell) -> Optional[CellResult]:
        """Load a campaign cell result, or ``None`` on a miss."""
        payload = self.read(KIND_CAMPAIGN, campaign_cell_config(cell))
        if payload is None:
            return None
        try:
            result = campaign_result_from_payload(payload)
        except (KeyError, TypeError, ValueError):
            return None
        if result.cell != cell:
            return None  # embedded cell drifted from the config: recompute
        return result

    def store_adaptive(self, result: AdaptiveResult) -> None:
        """Persist one adaptive-stopping cell result."""
        self.write(KIND_ADAPTIVE, adaptive_cell_config(result.cell),
                   adaptive_result_to_payload(result))

    def load_adaptive(self, cell: AdaptiveCell) -> Optional[AdaptiveResult]:
        """Load an adaptive-stopping result, or ``None`` on a miss."""
        payload = self.read(KIND_ADAPTIVE, adaptive_cell_config(cell))
        if payload is None:
            return None
        try:
            result = adaptive_result_from_payload(payload)
        except (KeyError, TypeError, ValueError):
            return None
        if result.cell != cell:
            return None  # embedded cell drifted from the config: recompute
        return result

    def store_rare_event(self, result: RareEventResult) -> None:
        """Persist one importance-sampled cell result."""
        self.write(KIND_RARE_EVENT, rare_event_cell_config(result.cell),
                   rare_event_result_to_payload(result))

    def load_rare_event(self, cell: RareEventCell
                        ) -> Optional[RareEventResult]:
        """Load an importance-sampled result, or ``None`` on a miss."""
        payload = self.read(KIND_RARE_EVENT, rare_event_cell_config(cell))
        if payload is None:
            return None
        try:
            result = rare_event_result_from_payload(payload)
        except (KeyError, TypeError, ValueError):
            return None
        if result.cell != cell:
            return None
        return result

    def store_scenario(self, result: ScenarioResult) -> None:
        """Persist one time-varying channel scenario result."""
        self.write(KIND_SCENARIO, scenario_cell_config(result.cell),
                   scenario_result_to_payload(result))

    def load_scenario(self, cell: ScenarioCell) -> Optional[ScenarioResult]:
        """Load a scenario result, or ``None`` on a miss."""
        payload = self.read(KIND_SCENARIO, scenario_cell_config(cell))
        if payload is None:
            return None
        try:
            result = scenario_result_from_payload(payload)
        except (KeyError, TypeError, ValueError):
            return None
        if result.cell != cell:
            return None
        return result

    def campaign_progress(self, cells: List[CampaignCell]) -> int:
        """How many of ``cells`` already have a stored result.

        The job engine's progress counter: derived entirely from the
        store contents, so it is correct across interruptions, restarts
        and concurrent writers without any mutable bookkeeping.
        """
        count = 0
        config_keys: Dict[str, bool] = {}
        for cell in cells:
            key = derive_key(KIND_CAMPAIGN, campaign_cell_config(cell))
            if key in config_keys:
                present = config_keys[key]
            else:
                present = os.path.exists(self.entry_path(KIND_CAMPAIGN, key))
                config_keys[key] = present
            if present:
                count += 1
        return count
