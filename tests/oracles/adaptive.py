"""Scalar per-frame oracle of the time-varying channel scenarios.

:func:`evaluate_scenario_reference` builds the segments exactly like
:func:`repro.system.adaptive.evaluate_scenario`, on the shared cell
generator, but runs each through the per-frame
:meth:`~repro.system.downlink.OpticalDownlink.run` loop.  The scenario
batteries prove the two bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.system.adaptive import (ScenarioCell, ScenarioResult,
                                   _segment_result)
from repro.system.downlink import OpticalDownlink


def evaluate_scenario_reference(cell: ScenarioCell) -> ScenarioResult:
    """Scalar per-frame reference of one scenario cell."""
    rng = np.random.default_rng(cell.seed)
    results = []
    for segment in cell.segments:
        downlink = OpticalDownlink(cell.interleaver, cell.code,
                                   segment.channel, rng=rng)
        results.append(_segment_result(segment,
                                       downlink.run(segment.frames)))
    return ScenarioResult(cell=cell, segments=tuple(results))
