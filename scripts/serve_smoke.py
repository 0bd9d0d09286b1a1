"""End-to-end smoke test of ``repro serve`` (the CI ``serve-smoke`` job).

Boots a real ``repro serve`` subprocess on an ephemeral port, submits a
campaign grid over HTTP (the bare default 162-cell grid unless a spec
is given), polls the job to completion, fetches the served table, and
diffs it against the stdout of ``repro campaign`` over the same store —
the two must be byte-identical, proving the server, the job engine and
the CLI share one execution path.  It then checks the served per-cell
results: each must equal, as parsed JSON, the payload of its entry in
the store directory.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py            # default grid
    PYTHONPATH=src python scripts/serve_smoke.py \
        --spec '{"triangle_n": [15], "seeds": 2, "frames": 10}'

Exit status 0 when both checks pass, 1 otherwise.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

SERVING_RE = re.compile(r"serving on http://([^:]+):(\d+)")


def repro_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else os.pathsep.join([src, existing])
    return env


def start_server(store: str) -> "tuple[subprocess.Popen, str]":
    """Launch ``repro serve`` on an ephemeral port; return (proc, base URL)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", store,
         "--port", "0", "--jobs", "0"],
        env=repro_env(), cwd=REPO_ROOT,
        stdout=subprocess.PIPE, text=True)
    assert proc.stdout is not None
    line = proc.stdout.readline()
    match = SERVING_RE.search(line)
    if not match:
        proc.kill()
        raise SystemExit(f"server did not announce its address: {line!r}")
    host, port = match.group(1), match.group(2)
    return proc, f"http://{host}:{port}"


def request(url: str, data: "bytes | None" = None) -> "tuple[int, bytes]":
    req = urllib.request.Request(url, data=data,
                                 method="POST" if data is not None else "GET")
    with urllib.request.urlopen(req, timeout=60) as response:
        return response.status, response.read()


def stored_payloads(store: str) -> "dict[str, object]":
    """Payload of every campaign entry in ``store``, by its cell as JSON.

    The cell is the entry's config without the ``cache_version`` key the
    store adds to it.
    """
    payloads = {}
    for name in os.listdir(store):
        if not (name.startswith("campaign-") and name.endswith(".json")):
            continue
        with open(os.path.join(store, name)) as stream:
            document = json.load(stream)
        cell = dict(document["config"])
        cell.pop("cache_version")
        payloads[json.dumps(cell, sort_keys=True)] = document["payload"]
    return payloads


def result_mismatches(results: dict, store: str) -> "list[str]":
    """Why the served ``/results`` document differs from the store, if so."""
    cells = results["cells"]
    problems = []
    if not results["completed"] == results["total"] == len(cells):
        problems.append(f"{len(cells)} cells served, {results['completed']} "
                        f"completed of {results['total']}")
    payloads = stored_payloads(store)
    for cell in cells:
        key = json.dumps(cell["cell"], sort_keys=True)
        if key not in payloads:
            problems.append(f"no store entry for served cell {key}")
        elif payloads[key] != cell:
            problems.append(f"served cell {key} differs from its store entry")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", default="{}",
                        help="grid spec JSON (default: the full default "
                             "162-cell campaign grid)")
    parser.add_argument("--timeout", type=float, default=1800.0,
                        help="polling deadline in seconds (default 1800)")
    args = parser.parse_args()
    spec = json.loads(args.spec)

    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        store = os.path.join(tmp, "store")
        server, base = start_server(store)
        try:
            status, body = request(f"{base}/healthz")
            assert status == 200, (status, body)

            status, body = request(f"{base}/jobs",
                                   data=json.dumps(spec).encode())
            assert status == 202, (status, body)
            job = json.loads(body)
            job_id, total = job["job"], job["total"]
            print(f"submitted job {job_id}: {total} cells")

            deadline = time.monotonic() + args.timeout
            completed = -1
            while time.monotonic() < deadline:
                status, body = request(f"{base}/jobs/{job_id}")
                assert status == 200, (status, body)
                snapshot = json.loads(body)
                if snapshot["completed"] != completed:
                    completed = snapshot["completed"]
                    print(f"progress: {completed}/{total}")
                if snapshot["done"]:
                    break
                if snapshot["error"]:
                    print(f"error: job failed: {snapshot['error']}",
                          file=sys.stderr)
                    return 1
                time.sleep(1.0)
            else:
                print("error: job did not finish before the deadline",
                      file=sys.stderr)
                return 1

            status, served = request(f"{base}/jobs/{job_id}/table")
            assert status == 200, (status, served)
            status, body = request(f"{base}/jobs/{job_id}/results")
            assert status == 200, (status, body)
            results = json.loads(body)
        finally:
            server.terminate()
            server.wait(timeout=30)

        # the CLI over the same (now fully warm) store must print the
        # exact same report without recomputing anything
        from repro.store.jobs import normalize_spec  # after PYTHONPATH setup

        merged = normalize_spec(spec)
        cli = subprocess.run(
            [sys.executable, "-m", "repro", "campaign",
             "--fade-symbols", *[str(x) for x in merged["fade_symbols"]],
             "--fade-fraction", *[str(x) for x in merged["fade_fraction"]],
             "--p-bad", str(merged["p_bad"]),
             "--p-good", str(merged["p_good"]),
             "--triangle-n", *[str(x) for x in merged["triangle_n"]],
             "--symbols-per-element", str(merged["symbols_per_element"]),
             "--codeword-symbols", str(merged["codeword_symbols"]),
             "--t-correctable", str(merged["t_correctable"]),
             "--seeds", str(merged["seeds"]),
             "--seed-base", str(merged["seed_base"]),
             "--frames", str(merged["frames"]),
             "--store", store, "--resume", "--no-chart", "--jobs", "0"],
            env=repro_env(), cwd=REPO_ROOT, capture_output=True, timeout=600)
        if cli.returncode != 0:
            print(cli.stderr.decode(), file=sys.stderr)
            return 1

        if cli.stdout != served:
            print("error: served table differs from `repro campaign` stdout",
                  file=sys.stderr)
            print("--- served ---", file=sys.stderr)
            sys.stderr.buffer.write(served)
            print("--- campaign ---", file=sys.stderr)
            sys.stderr.buffer.write(cli.stdout)
            return 1
        print("served table byte-identical to repro campaign")

        problems = result_mismatches(results, store)
        if problems:
            for problem in problems:
                print(f"error: {problem}", file=sys.stderr)
            return 1
        print(f"serve-smoke OK: {len(results['cells'])} served cells equal "
              "their store entries")
        return 0


if __name__ == "__main__":
    sys.exit(main())
