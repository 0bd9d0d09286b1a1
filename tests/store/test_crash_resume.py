"""Crash durability: SIGKILL a campaign mid-run, resume byte-identically.

The end-to-end proof of the store's atomic-write + resume contract: a
``repro campaign --store`` subprocess is killed with SIGKILL after some
(but not all) cells have been persisted, rerun with ``--resume``, and
the resumed stdout must be byte-identical to an uninterrupted run —
with the surviving entries served from disk, untouched.
"""

import os
import subprocess
import sys
import time

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Six cells slow enough (~25 ms each) to kill one mid-grid reliably.
#: A nonzero ``p_good`` keeps them on the dense channel route: the
#: native sampler runs such a cell in about a millisecond, too fast for
#: the kill to land between two cells.
CAMPAIGN_ARGS = [
    "campaign",
    "--fade-symbols", "60",
    "--fade-fraction", "0.004",
    "--p-good", "0.001",
    "--triangle-n", "15",
    "--seeds", "6",
    "--frames", "2500",
    "--jobs", "1",
    "--no-chart",
    "--resume",
]
TOTAL_CELLS = 6

#: Kill once this many cells are on disk (some, but never all).
KILL_AFTER_CELLS = 2

DEADLINE_S = 120.0


def campaign_command(store_dir):
    return [sys.executable, "-m", "repro"] + CAMPAIGN_ARGS + [
        "--store", store_dir]


def campaign_env():
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else os.pathsep.join(
        [src, existing])
    return env


def stored_cells(store_dir):
    if not os.path.isdir(store_dir):
        return []
    return sorted(name for name in os.listdir(store_dir)
                  if name.startswith("campaign-") and name.endswith(".json"))


@pytest.mark.slow
def test_sigkill_mid_campaign_then_resume_is_byte_identical(tmp_path):
    # -- reference: one uninterrupted run in its own store ------------
    reference_store = str(tmp_path / "reference")
    reference = subprocess.run(
        campaign_command(reference_store), env=campaign_env(),
        cwd=REPO_ROOT, capture_output=True, timeout=DEADLINE_S)
    assert reference.returncode == 0, reference.stderr.decode()
    assert len(stored_cells(reference_store)) == TOTAL_CELLS

    # -- the victim: killed after some cells, before the last one -----
    store_dir = str(tmp_path / "interrupted")
    victim = subprocess.Popen(
        campaign_command(store_dir), env=campaign_env(), cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + DEADLINE_S
        while time.monotonic() < deadline:
            if len(stored_cells(store_dir)) >= KILL_AFTER_CELLS:
                break
            if victim.poll() is not None:
                raise AssertionError(
                    "campaign exited before reaching the kill threshold")
            time.sleep(0.005)
        victim.kill()  # SIGKILL: no cleanup handlers, no atexit
        victim.wait(timeout=30)
    finally:
        if victim.poll() is None:
            victim.kill()
            victim.wait(timeout=30)

    survivors = stored_cells(store_dir)
    assert KILL_AFTER_CELLS <= len(survivors) < TOTAL_CELLS, \
        "the kill must land mid-grid for the test to prove anything"
    survivor_mtimes = {
        name: os.stat(os.path.join(store_dir, name)).st_mtime_ns
        for name in survivors
    }

    # -- resume: same command, same store, run to completion ----------
    resumed = subprocess.run(
        campaign_command(store_dir), env=campaign_env(), cwd=REPO_ROOT,
        capture_output=True, timeout=DEADLINE_S)
    assert resumed.returncode == 0, resumed.stderr.decode()

    # byte-identical stdout to the run that was never interrupted
    assert resumed.stdout == reference.stdout

    # every surviving cell was served from disk, not recomputed
    assert len(stored_cells(store_dir)) == TOTAL_CELLS
    for name, mtime_ns in survivor_mtimes.items():
        assert os.stat(
            os.path.join(store_dir, name)).st_mtime_ns == mtime_ns
