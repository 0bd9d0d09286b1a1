"""Test-only oracles and the seeded scenarios they are checked on.

Tests import this package as ``oracles`` (pytest puts ``tests/`` on
the path; ``benchmarks/conftest.py`` does the same for the
benchmarks).  Library code never imports it: ``tests/test_api.py``
imports every ``repro`` module in a child interpreter that has only
``src/`` on its path.
"""

from __future__ import annotations
