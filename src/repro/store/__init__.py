"""Content-addressed result store, shared by every sweep.

The package has four layers, bottom up:

* :mod:`repro.store.records` — the typed, versioned schema: canonical
  config dicts (content-address basis) and bit-identical JSON payload
  round-trips for every sweep's result type.
* :mod:`repro.store.store` — :class:`~repro.store.store.ResultStore`,
  the atomic on-disk document store all five sweeps (``table1``,
  ``mixed``, ``energy``, ``e2e``, ``campaign``) write through and read
  from.
* :mod:`repro.store.export` — the one file-opening/export helper every
  CLI ``--json``/``--csv``/``--out`` writer funnels through.
* :mod:`repro.store.jobs` / :mod:`repro.store.server` — the
  ``repro serve`` job engine: persistent, resumable, content-addressed
  campaign jobs over the store, behind a stdlib HTTP API.

The names below are re-exported lazily (see :mod:`repro._lazy`): a
batch command that writes through the store never loads the HTTP
server.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.store.export import open_export, write_csv_rows
    from repro.store.jobs import DEFAULT_GRID_SPEC, JobEngine, JobRecord, grid_from_spec
    from repro.store.records import SCHEMA_VERSION, canonical_json, derive_key
    from repro.store.server import ReproServer, create_server
    from repro.store.store import ResultStore

__getattr__, __dir__ = attach(__name__, __file__)
