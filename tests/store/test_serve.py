"""``repro serve`` HTTP API: submit, poll, results, table, errors."""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.store.server import MAX_BODY_BYTES, create_server
from repro.system.campaign import campaign_report, summarize_campaign

#: Two cells, ~10 frames each: the whole job finishes in well under a second.
SMALL_SPEC = {
    "fade_symbols": [60.0],
    "fade_fraction": [0.004],
    "triangle_n": [15],
    "seeds": 2,
    "frames": 10,
}

#: Generous wall-clock cap for polling loops (the job itself is fast).
DEADLINE_S = 60.0


@pytest.fixture
def server(tmp_path):
    server = create_server(str(tmp_path / "store"), port=0, jobs=1)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def request(server, path, body=None, method=None):
    host, port = server.server_address[:2]
    url = f"http://{host}:{port}{path}"
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def request_json(server, path, body=None, method=None):
    status, raw = request(server, path, body=body, method=method)
    return status, json.loads(raw)


def post_declaring(server, content_length):
    """POST /jobs with a hand-set Content-Length header and no body."""
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.putrequest("POST", "/jobs")
        connection.putheader("Content-Length", content_length)
        connection.endheaders()
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def poll_until_done(server, job_id):
    deadline = time.monotonic() + DEADLINE_S
    while time.monotonic() < deadline:
        status, body = request_json(server, f"/jobs/{job_id}")
        assert status == 200
        if body["done"]:
            return body
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish within {DEADLINE_S}s")


class TestCreateServer:
    def test_makes_the_store_directory_before_serving(self, tmp_path):
        root = tmp_path / "a" / "store"
        server = create_server(str(root), port=0, jobs=1)
        server.server_close()
        assert root.is_dir()


class TestRoutes:
    def test_healthz(self, server):
        assert request_json(server, "/healthz") == (200, {"status": "ok"})

    def test_unknown_route_404(self, server):
        status, body = request_json(server, "/nope")
        assert status == 404
        assert "no route" in body["error"]

    def test_unknown_job_404(self, server):
        status, body = request_json(server, "/jobs/" + "0" * 32)
        assert status == 404
        assert "unknown job" in body["error"]

    def test_jobs_listing_starts_empty(self, server):
        assert request_json(server, "/jobs") == (200, {"jobs": []})

    @pytest.mark.parametrize("body,message", [
        (b"{ not json", "not JSON"),
        # a number that overflows to infinity is a malformed spec, not a crash
        (b'{"frames": 1e400}', "malformed grid spec"),
    ])
    def test_post_bad_json_400(self, server, body, message):
        host, port = server.server_address[:2]
        req = urllib.request.Request(f"http://{host}:{port}/jobs",
                                     data=body, method="POST")
        try:
            with urllib.request.urlopen(req, timeout=30) as response:
                status, raw = response.status, response.read()
        except urllib.error.HTTPError as error:
            status, raw = error.code, error.read()
        assert status == 400
        assert message in json.loads(raw)["error"]
        assert request_json(server, "/jobs") == (200, {"jobs": []})

    @pytest.mark.parametrize("declared,expected,message", [
        ("abc", 400, "Content-Length"),
        ("-1", 400, "Content-Length"),
        ("99999999999", 413, str(MAX_BODY_BYTES)),
    ])
    def test_post_bad_content_length(self, server, declared, expected,
                                     message):
        status, body = post_declaring(server, declared)
        assert status == expected
        assert message in body["error"]
        # nothing was registered, and the server still answers
        assert request_json(server, "/jobs") == (200, {"jobs": []})

    def test_post_non_object_400(self, server):
        status, body = request_json(server, "/jobs", body=[1, 2],
                                    method="POST")
        assert status == 400
        assert "JSON object" in body["error"]

    def test_post_unknown_key_400(self, server):
        status, body = request_json(server, "/jobs", body={"framez": 1},
                                    method="POST")
        assert status == 400
        assert "unknown grid spec keys" in body["error"]

    def test_table_before_completion_409(self, server):
        # register without starting: the table cannot exist yet
        record = server.engine.submit(SMALL_SPEC)
        status, body = request_json(server, f"/jobs/{record.job_id}/table")
        assert status == 409
        assert body["error"] == "job not complete"


class TestJobLifecycle:
    def test_submit_poll_results_table(self, server):
        status, submitted = request_json(server, "/jobs", body=SMALL_SPEC,
                                         method="POST")
        assert status == 202
        assert submitted["total"] == 2
        job_id = submitted["job"]

        final = poll_until_done(server, job_id)
        assert final["completed"] == 2

        status, results = request_json(server, f"/jobs/{job_id}/results")
        assert status == 200
        assert results["completed"] == results["total"] == 2
        assert len(results["cells"]) == 2
        assert all(cell["cell"]["frames"] == 10 for cell in results["cells"])

        status, raw = request(server, f"/jobs/{job_id}/table")
        assert status == 200
        # byte-identical to the CLI report over the same store
        engine_results = [r for r in
                          server.engine.results(server.engine.get(job_id))
                          if r is not None]
        expected = campaign_report(engine_results,
                                   summarize_campaign(engine_results))
        assert raw.decode() == expected + "\n"

        status, listing = request_json(server, "/jobs")
        assert status == 200
        assert [job["job"] for job in listing["jobs"]] == [job_id]

    def test_resubmission_is_idempotent(self, server):
        _, first = request_json(server, "/jobs", body=SMALL_SPEC,
                                method="POST")
        poll_until_done(server, first["job"])
        status, second = request_json(server, "/jobs", body=SMALL_SPEC,
                                      method="POST")
        assert status == 202
        assert second["job"] == first["job"]
        assert second["completed"] == 2
        assert second["done"] is True

    def test_empty_body_submits_the_default_grid(self, server, monkeypatch):
        # registering the 162-cell grid is instant; running it is not —
        # suppress execution and check the registration alone
        monkeypatch.setattr(server.engine, "start", lambda record: False)
        host, port = server.server_address[:2]
        req = urllib.request.Request(f"http://{host}:{port}/jobs",
                                     data=b"", method="POST")
        with urllib.request.urlopen(req, timeout=30) as response:
            body = json.loads(response.read())
            status = response.status
        assert status == 202
        assert body["total"] == 162  # the full default campaign grid
        assert body["spec"]["frames"] == 400
