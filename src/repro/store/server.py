"""``repro serve``: a zero-dependency HTTP API over the job engine.

Built entirely on ``http.server`` (stdlib, threading server), the
API lets many clients share one warm result store instead of each
re-simulating — the "simulate once, serve many" face of the store.

Routes::

    GET  /healthz              liveness probe
    GET  /jobs                 all persisted jobs with progress
    POST /jobs                 submit a grid spec (JSON body, {} = the
                               default 162-cell campaign grid) —
                               idempotent, starts/resumes execution
    GET  /jobs/<id>            progress snapshot of one job
    GET  /jobs/<id>/results    incremental per-cell results (completed
                               cells so far, in grid order)
    GET  /jobs/<id>/table      the finished campaign report, text/plain,
                               byte-identical to ``repro campaign
                               --no-chart`` (409 until the job is done)

All state lives in the store: killing the server loses nothing, and a
restarted server resumes any unfinished job on resubmission of its
spec (same content-addressed id).

A submission whose ``Content-Length`` is not a non-negative integer
gets 400, and one declaring more than :data:`MAX_BODY_BYTES` gets 413;
neither body is read.
"""

from __future__ import annotations

import json
import os
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple

from repro.store.jobs import JobEngine, JobRecord
from repro.store.records import encode
from repro.store.store import ResultStore

#: Largest accepted request body; grid specs are a few hundred bytes.
MAX_BODY_BYTES = 64 * 1024


class ReproServer(ThreadingHTTPServer):
    """The HTTP server, carrying the shared :class:`JobEngine`.

    Attributes:
        engine: the job engine every handler thread talks to.
    """

    #: Handler threads die with the process; jobs persist in the store.
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], engine: JobEngine) -> None:
        """Bind to ``address`` and serve ``engine``."""
        super().__init__(address, RequestHandler)
        self.engine = engine


def create_server(store_root: str, host: str = "127.0.0.1", port: int = 0,
                  jobs: Optional[int] = None) -> ReproServer:
    """Build a ready-to-serve :class:`ReproServer`.

    Args:
        store_root: result-store directory (created if missing).
        host: bind address.
        port: bind port (``0`` = ephemeral; read
            ``server.server_address`` for the chosen one).
        jobs: worker processes per running job.

    Raises:
        OSError: if the store directory cannot be made (the error names
            it) or the address cannot be bound.
    """
    os.makedirs(store_root, exist_ok=True)  # fail here, not at the first job
    engine = JobEngine(ResultStore(store_root), jobs=jobs)
    return ReproServer((host, port), engine)


class RequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the job engine (one instance per request)."""

    #: Advertised in responses; keep in lockstep with the package.
    server_version = "repro-serve/1"

    def log_message(self, format: str, *args: Any) -> None:
        """Silence per-request logging (timestamped noise on stderr)."""

    @property
    def engine(self) -> JobEngine:
        """The shared job engine of the owning server."""
        server = self.server
        assert isinstance(server, ReproServer)
        return server.engine

    def _send_json(self, code: int, document: Any) -> None:
        """Write one JSON response with the store's canonical settings."""
        body = json.dumps(document, sort_keys=True,
                          allow_nan=False).encode("utf-8") + b"\n"
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, code: int, text: str) -> None:
        """Write one plain-text response."""
        body = text.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _job_or_404(self, job_id: str) -> Optional[JobRecord]:
        """Resolve a job id, answering 404 when it is unknown."""
        record = self.engine.get(job_id)
        if record is None:
            self._send_json(404, {"error": f"unknown job {job_id}"})
        return record

    def do_GET(self) -> None:
        """Serve the read-only routes."""
        parts = [part for part in self.path.split("?")[0].split("/") if part]
        if parts == ["healthz"]:
            self._send_json(200, {"status": "ok"})
            return
        if parts == ["jobs"]:
            statuses = [self.engine.status(record)
                        for record in self.engine.list_jobs()]
            self._send_json(200, {"jobs": statuses})
            return
        if len(parts) == 2 and parts[0] == "jobs":
            record = self._job_or_404(parts[1])
            if record is not None:
                self._send_json(200, self.engine.status(record))
            return
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "results":
            record = self._job_or_404(parts[1])
            if record is not None:
                results = self.engine.results(record)
                self._send_json(200, {
                    "job": record.job_id,
                    "total": len(results),
                    "completed": sum(1 for r in results if r is not None),
                    "cells": [encode(r) for r in results if r is not None],
                })
            return
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "table":
            record = self._job_or_404(parts[1])
            if record is not None:
                table = self.engine.table(record)
                if table is None:
                    self._send_json(409, {"error": "job not complete"})
                else:
                    self._send_text(200, table + "\n")
            return
        self._send_json(404, {"error": f"no route {self.path}"})

    def do_POST(self) -> None:
        """Serve job submission (idempotent: same spec, same job)."""
        parts = [part for part in self.path.split("?")[0].split("/") if part]
        if parts != ["jobs"]:
            self._send_json(404, {"error": f"no route {self.path}"})
            return
        declared = self.headers.get("Content-Length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            self._send_json(400, {"error": f"bad Content-Length {declared!r}"})
            return
        length = int(declared)
        if length > MAX_BODY_BYTES:
            self._send_json(413, {"error": f"request body over "
                                           f"{MAX_BODY_BYTES} bytes"})
            return
        body = self.rfile.read(length) if length else b""
        try:
            spec = json.loads(body) if body.strip() else {}
        except ValueError:
            self._send_json(400, {"error": "request body is not JSON"})
            return
        if not isinstance(spec, dict):
            self._send_json(400, {"error": "grid spec must be a JSON object"})
            return
        try:
            record = self.engine.submit(spec)
        except ValueError as error:
            self._send_json(400, {"error": str(error)})
            return
        self.engine.start(record)
        self._send_json(202, self.engine.status(record))
