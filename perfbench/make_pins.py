"""Regenerate ``pins.json``: line digests of every output at the default seed.

Run from the repository root, on a commit whose outputs are trusted::

    PYTHONPATH=src python3 perfbench/make_pins.py

Only needed when an output changes on purpose; the library's results
are meant to stay bit-identical, so the pins rarely move.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, PINS_PATH, digest, make  # noqa: E402


def main() -> None:
    root = os.path.dirname(HERE)
    pins = {}
    with tempfile.TemporaryDirectory() as work_dir:
        for name, outputs in (("table1", {"table": "table"}),
                              ("e2e", {"table": "table", "dram": "dram"}),
                              ("campaign", {"report": "cold"})):
            sweep = make(name, DEFAULT_SEED, "full", work_dir, root, None).run()
            if sweep.failures:
                raise SystemExit(f"{name}: {sweep.failures}")
            pins[name] = {pin: [digest(line) for line in sweep.outputs[output]]
                          for pin, output in outputs.items()}
    with open(PINS_PATH, "w") as stream:
        json.dump(pins, stream, indent=1, sort_keys=True)
        stream.write("\n")


if __name__ == "__main__":
    main()
