"""Concurrent writers of one store: no lost writes, no torn entries."""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import pytest

import repro
from repro.store import store as store_module
from repro.store.store import ResultStore

KEYS = 5
WRITES = 1000
WRITERS = 2
#: Store root preferred for the hammer: on a disk file system an
#: ``os.replace`` over an existing file can block for tens of
#: milliseconds, which would make the writers take turns instead of
#: racing.
SHM = "/dev/shm"

#: One writer process: ``WRITES`` writes cycling over ``KEYS`` cells
#: (identical payload per cell, as for a content-addressed result), each
#: followed by a read of the next cell.  It signals readiness once
#: imported, then waits for the go-file so that all writers start
#: together.  Prints the failures it saw.
WRITER = """
import json, os, sys, time
from repro.store.store import ResultStore

store = ResultStore(sys.argv[1])
keys, writes = int(sys.argv[2]), int(sys.argv[3])
sync = sys.argv[4]
open(os.path.join(sync, f"ready-{os.getpid()}"), "w").close()
while not os.path.exists(os.path.join(sync, "go")):
    time.sleep(0.001)
errors = []
for i in range(writes):
    cell = i % keys
    try:
        store.write("hammer", {"cell": cell}, {"value": cell * 7})
        other = (cell + 1) % keys
        payload = store.read("hammer", {"cell": other})
        if payload is not None and payload != {"value": other * 7}:
            errors.append(f"cell {other} read back {payload!r}")
    except Exception as error:
        errors.append(f"{type(error).__name__}: {error}")
print(json.dumps(errors))
"""


def _env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture
def store_root(tmp_path):
    """A fresh store directory on ``/dev/shm`` if writable, else ``tmp_path``."""
    if os.path.isdir(SHM) and os.access(SHM, os.W_OK | os.X_OK):
        base = tempfile.mkdtemp(prefix="repro-hammer-", dir=SHM)
        yield os.path.join(base, "store")
        shutil.rmtree(base, ignore_errors=True)
    else:
        yield str(tmp_path / "store")


def _release_when_ready(writers, sync):
    """Create the go-file once every writer has imported and signalled."""
    deadline = time.monotonic() + 120
    while sum(name.startswith("ready-") for name in os.listdir(sync)) < len(writers):
        for writer in writers:
            if writer.poll() is not None:
                pytest.fail(f"writer exited before starting: "
                            f"{writer.communicate()[1]}")
        assert time.monotonic() < deadline, "writers never became ready"
        time.sleep(0.005)
    open(os.path.join(sync, "go"), "w").close()


def test_two_processes_hammering_five_keys(store_root, tmp_path, capsys):
    sync = str(tmp_path / "sync")
    os.mkdir(sync)
    writers = [
        subprocess.Popen([sys.executable, "-c", WRITER, store_root, str(KEYS),
                          str(WRITES), sync],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, env=_env())
        for _ in range(WRITERS)
    ]
    try:
        _release_when_ready(writers, sync)
    except BaseException:
        for writer in writers:
            writer.kill()
        raise
    for writer in writers:
        out, err = writer.communicate(timeout=120)
        assert writer.returncode == 0, err
        assert json.loads(out) == [], err
    store = ResultStore(store_root)
    for cell in range(KEYS):
        assert store.read("hammer", {"cell": cell}) == {"value": cell * 7}
    assert capsys.readouterr().err == ""  # no unreadable-entry warnings
    assert sorted(os.listdir(store_root)) == sorted(
        os.path.basename(store.entry_path("hammer", key))
        for key in {store_module.derive_key("hammer", {"cell": cell})
                    for cell in range(KEYS)})


class TestLostReplaceRace:
    """Where ``os.replace`` can fail on an open target (Windows)."""

    def _refuse_replace(self, monkeypatch):
        def refuse(src, dst):
            raise PermissionError("target is open")
        monkeypatch.setattr(store_module.os, "replace", refuse)

    def test_identical_winner_counts_as_success(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path))
        key = store.write("cell", {"x": 1}, {"y": 2})
        self._refuse_replace(monkeypatch)
        assert store.write("cell", {"x": 1}, {"y": 2}) == key
        assert os.listdir(str(tmp_path)) == [f"cell-{key}.json"]

    def test_different_winner_raises(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path))
        store.write("cell", {"x": 1}, {"y": 2})
        self._refuse_replace(monkeypatch)
        with pytest.raises(PermissionError):
            store.write("cell", {"x": 1}, {"y": 3})
        assert len(os.listdir(str(tmp_path))) == 1  # temp file removed
