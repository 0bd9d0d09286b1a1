"""The native backend's loader: its cache, its ffi modules, its lock.

Each entry point is a shared object plus an ffi module beside it
(:mod:`repro.dram._kernelc`).  These tests build into a private
``REPRO_KERNELC_CACHE`` and reload with an emptied ``_libraries``, as a
fresh process would.
"""

import hashlib
import os
import threading

import pytest

from repro.dram import _kernelc

pytestmark = pytest.mark.skipif(not _kernelc.available(),
                                reason="no native backend")

LOADERS = {"kernel": _kernelc.load, "sampler": _kernelc.load_sampler}


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A private cache holding both entry points, and a fresh process view."""
    monkeypatch.setenv("REPRO_KERNELC_CACHE", str(tmp_path))
    monkeypatch.setattr(_kernelc, "_libraries", {})
    assert _kernelc.available() and _kernelc.load_sampler() is not None
    monkeypatch.setattr(_kernelc, "_libraries", {})
    return tmp_path


def _digests(directory, suffix):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in os.listdir(str(directory)) if name.endswith(suffix)}


def _no_compiler(monkeypatch):
    def refuse(*args):
        raise AssertionError("the shared object was rebuilt")
    monkeypatch.setattr(_kernelc, "_compile", refuse)


def test_cache_without_ffi_modules_loads_without_a_rebuild(cache,
                                                           monkeypatch):
    """A cache written before the ffi modules existed: only they are added."""
    objects = _digests(cache, ".so")
    for name in _digests(cache, ".py"):
        os.unlink(str(cache / name))
    _no_compiler(monkeypatch)
    assert _kernelc.available()
    assert _kernelc.load_sampler() is not None
    assert _digests(cache, ".so") == objects
    assert len(_digests(cache, ".py")) == 2


@pytest.mark.parametrize("defect", ["truncated", "foreign version"])
def test_defective_ffi_module_is_generated_again(cache, monkeypatch, defect):
    modules = _digests(cache, ".py")
    for name in modules:
        path = cache / name
        text = path.read_text()
        path.write_text(text[:len(text) // 2] if defect == "truncated"
                        else text.replace("_version = 0x", "_version = 0x7f"))
    _no_compiler(monkeypatch)
    assert _kernelc.available()
    assert _kernelc.load_sampler() is not None
    assert _digests(cache, ".py") == modules


def test_ffi_module_that_keeps_failing_falls_back(cache, monkeypatch):
    """Generated once more, then given up: the caller takes its fallback."""
    writes = []
    monkeypatch.setattr(_kernelc, "_write_ffi_module",
                        lambda *args: writes.append(args) or True)
    monkeypatch.setattr(_kernelc, "_run_ffi_module", lambda path: None)
    assert _kernelc.load() is None
    assert len(writes) == 1


@pytest.mark.parametrize("stem", sorted(LOADERS))
def test_concurrent_first_callers_share_one_load(stem, monkeypatch):
    """No thread sees the fallback while another builds and loads."""
    monkeypatch.setattr(_kernelc, "_libraries", {})
    threads = 8
    barrier = threading.Barrier(threads)
    results = [None] * threads

    def first_call(slot):
        barrier.wait()
        results[slot] = LOADERS[stem]()

    workers = [threading.Thread(target=first_call, args=(slot,))
               for slot in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert results[0] is not None
    assert all(result is results[0] for result in results)
