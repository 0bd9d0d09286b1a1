"""The one place CLI exports open files.

Every ``--json``/``--csv``/``--out`` path in the CLI funnels through
:func:`open_export`, which fixes two long-standing paper cuts in one
move:

* **CSV newline discipline** — the :mod:`csv` module documents that
  writer streams must be opened with ``newline=""``; the previous
  ``open(path, "w")`` writers produced corrupted ``\\r\\r\\n`` rows on
  Windows.  JSON and plain-text exports are unaffected by the setting
  (they write ``"\\n"`` explicitly), so one opener serves all formats.
* **missing parent directories** — ``--json out/run7/cells.json`` used
  to die with a raw ``FileNotFoundError`` traceback; the opener now
  creates intermediate directories first.

The row-level helper :func:`write_csv_rows` is the CSV exporter the
sweep commands share; JSON documents are written by their commands
(``campaign.export_json``) with the store's canonical settings (sorted
keys, ``allow_nan=False``).
"""

from __future__ import annotations

import csv
import os
from typing import Any, Dict, IO, Iterable, Sequence


def open_export(path: str) -> IO[str]:
    """Open ``path`` for writing an export, creating parent directories.

    Returns a text stream opened with ``newline=""`` — required for
    :mod:`csv` writers, harmless for JSON/plain text — usable as a
    context manager exactly like :func:`open`.

    Args:
        path: destination file; intermediate directories are created.
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, "w", newline="")


def write_csv_rows(path: str, fieldnames: Sequence[str],
                   rows: Iterable[Dict[str, Any]]) -> None:
    """Write one CSV table (header + rows) through the export opener.

    Args:
        path: destination file (parents created).
        fieldnames: column order of the header.
        rows: one dict per row, keyed by field name.
    """
    with open_export(path) as stream:
        writer = csv.DictWriter(stream, fieldnames=list(fieldnames))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
