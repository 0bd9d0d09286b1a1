"""Concurrent writers of one store: no lost writes, no torn entries."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.store import store as store_module
from repro.store.store import ResultStore

KEYS = 5
WRITES = 1000

#: One writer process: ``WRITES`` writes cycling over ``KEYS`` cells
#: (identical payload per cell, as for a content-addressed result), each
#: followed by a read of the next cell.  Prints the failures it saw.
WRITER = """
import json, sys
from repro.store.store import ResultStore

store = ResultStore(sys.argv[1])
keys, writes = int(sys.argv[2]), int(sys.argv[3])
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


def test_two_processes_hammering_five_keys(tmp_path, capsys):
    root = str(tmp_path / "store")
    writers = [
        subprocess.Popen([sys.executable, "-c", WRITER, root, str(KEYS),
                          str(WRITES)],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, env=_env())
        for _ in range(2)
    ]
    for writer in writers:
        out, err = writer.communicate(timeout=120)
        assert writer.returncode == 0, err
        assert json.loads(out) == [], err
    store = ResultStore(root)
    for cell in range(KEYS):
        assert store.read("hammer", {"cell": cell}) == {"value": cell * 7}
    assert capsys.readouterr().err == ""  # no unreadable-entry warnings
    assert sorted(os.listdir(root)) == sorted(
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
