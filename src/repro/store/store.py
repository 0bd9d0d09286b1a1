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

Above the document layer sits one pair for every task type:
:meth:`ResultStore.save` and :meth:`ResultStore.load` look the task's
type up in :data:`~repro.store.records.RECORDS` for its record kind,
canonical config and payload codec.  Cross-sweep reuse happens at the
key level: a ``table1`` and an ``energy`` run both persist each phase
as a :class:`~repro.system.parallel.PhaseTask` under its
:func:`~repro.store.records.phase_task_config` key, so either sweep
finds the other's write/read pair without re-entering the scheduling
engine.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import threading
from typing import List, Optional, Set, Tuple, TypeVar, cast

from repro.store.records import SCHEMA_VERSION, JSONDict, derive_key, record_for
from repro.system.campaign import CampaignCell
from repro.system.parallel import Task

_R = TypeVar("_R")


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

    # -- task layer: one load/save pair for every task type -------------

    def save(self, task: Task[_R], result: _R) -> None:
        """Persist ``task``'s result under its record kind and config.

        Tasks that bypass the store (see
        :func:`~repro.store.records.record_for`) are not written.
        """
        record = record_for(task)
        if record is not None:
            self.write(record.kind, record.config(task), record.encode(result))

    def load(self, task: Task[_R]) -> Optional[_R]:
        """Load ``task``'s result, or ``None`` on a miss.

        On top of :meth:`read`'s refusals, three more cases miss and
        the caller recomputes: a task that bypasses the store, a
        payload that does not decode, and a payload whose embedded cell
        is not ``task`` (a hand edit the config check cannot see).
        """
        record = record_for(task)
        if record is None:
            return None
        payload = self.read(record.kind, record.config(task))
        if payload is None:
            return None
        try:
            result = record.decode(payload)
        except (AttributeError, KeyError, TypeError, ValueError):
            return None  # foreign payload shape: recompute, quietly
        if getattr(result, "cell", task) != task:
            return None  # embedded cell drifted from the config: recompute
        return cast(_R, result)

    def campaign_progress(self, cells: List[CampaignCell]) -> int:
        """How many of ``cells`` have a stored result that loads.

        The job engine's progress counter: derived entirely from the
        store contents, so it is correct across interruptions, restarts
        and concurrent writers without any mutable bookkeeping.  It
        counts exactly the entries :meth:`load` serves, so a corrupt or
        foreign entry leaves its cell pending until it is recomputed.
        """
        return sum(self.load(cell) is not None for cell in cells)
