"""Golden-file pins of the Monte Carlo campaign tables and exports.

The stdout of ``repro campaign`` in the naive, adaptive (``--ci-rel``),
rare-event and contact-pass scenario modes, and the naive run's
``--json``/``--csv`` files, are pinned byte for byte.  The grid is
small (2 seeds, fade fractions 0.004 and 0.02, 60 frames) but both arms
fail in almost every row, so a change to how failure counts pool across
seeds, segments or the whole pass, or to the failure rates, Wilson
intervals and gains derived from them, shows as a diff.  Every run is
deterministic and takes well under a second.

Regenerate with ``PYTHONPATH=src python
tests/integration/test_campaign_golden.py`` and update the golden files
in the same commit; a drift must always be a conscious decision.
"""

import contextlib
import io
import os
import sys
from typing import Dict

import pytest

from repro.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "golden")

GRID = ["--seeds", "2", "--fade-fraction", "0.004", "0.02", "--frames", "60"]

#: Golden name -> ``repro campaign`` arguments of the run it pins.
RUNS = {
    "campaign": GRID,
    "campaign_adaptive": GRID + ["--ci-rel", "0.5", "--batch-frames", "20"],
    "campaign_rare_event": GRID + ["--rare-event"],
    "campaign_contact_pass": ["--seeds", "2", "--fade-fraction", "0.02",
                              "--frames", "60", "--scenario", "contact-pass"],
}

#: Runs whose ``--json``/``--csv`` exports are pinned too.
EXPORTS = ("campaign",)


def run_outputs(name: str, directory: str) -> Dict[str, str]:
    """``{golden file name: text}`` of one run; exports land in ``directory``."""
    argv = ["campaign", *RUNS[name]]
    exports = {}
    if name in EXPORTS:
        for suffix in ("json", "csv"):
            exports[f"{name}.{suffix}"] = path = os.path.join(
                directory, f"{name}.{suffix}")
            argv += [f"--{suffix}", path]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    outputs = {f"{name}.txt": stdout.getvalue()}
    for golden, path in exports.items():
        with open(path, newline="") as stream:
            outputs[golden] = stream.read()
    return outputs


@pytest.mark.parametrize("name", sorted(RUNS))
def test_campaign_output_matches_golden(name, tmp_path):
    for golden, actual in run_outputs(name, str(tmp_path)).items():
        with open(os.path.join(GOLDEN_DIR, golden), newline="") as stream:
            expected = stream.read()
        assert actual == expected, (
            f"campaign output drifted from tests/golden/{golden} — if the "
            "change is intentional, regenerate the golden file.")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for run in sorted(RUNS):
            for golden, text in run_outputs(run, scratch).items():
                with open(os.path.join(GOLDEN_DIR, golden), "w",
                          newline="") as out:
                    out.write(text)
                print(f"wrote tests/golden/{golden}", file=sys.stderr)
