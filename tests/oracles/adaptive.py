"""Scalar per-frame oracle of the time-varying channel scenarios.

:func:`evaluate_scenario_reference` builds the segments exactly like
:func:`repro.system.adaptive.evaluate_scenario`, on the shared cell
generator, but runs each through the per-frame
:meth:`~repro.system.downlink.OpticalDownlink.run` loop and packages
its counts itself.  The scenario batteries prove the two bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.system.adaptive import ScenarioCell, ScenarioResult, SegmentResult
from repro.system.downlink import OpticalDownlink


def evaluate_scenario_reference(cell: ScenarioCell) -> ScenarioResult:
    """Scalar per-frame reference of one scenario cell."""
    rng = np.random.default_rng(cell.seed)
    results = []
    for segment in cell.segments:
        downlink = OpticalDownlink(cell.interleaver, cell.code,
                                   segment.channel, rng=rng)
        outcome = downlink.run(segment.frames)
        results.append(SegmentResult(
            label=segment.label,
            frames=segment.frames,
            codewords=outcome.interleaved.codewords,
            failed_interleaved=outcome.interleaved.failed,
            failed_baseline=outcome.baseline.failed,
            error_symbols=outcome.channel_profile.error_symbols,
            max_burst=outcome.channel_profile.max_burst,
            max_errors_interleaved=outcome.max_errors_interleaved,
            max_errors_baseline=outcome.max_errors_baseline,
        ))
    return ScenarioResult(cell=cell, segments=tuple(results))
