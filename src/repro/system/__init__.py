"""System-level evaluation: downlink simulation, campaigns, throughput, sweeps."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.system.adaptive import (
        AdaptiveCell,
        AdaptiveResult,
        RareEventCell,
        RareEventResult,
        ScenarioCell,
        ScenarioResult,
        ScenarioSegment,
        SegmentResult,
        contact_pass_segments,
        default_proposal,
        evaluate_adaptive,
        evaluate_rare_event,
        evaluate_scenario,
        format_adaptive,
        format_rare_event,
        format_scenario,
        frame_weight,
        half_width,
        transition_counts,
    )
    from repro.system.campaign import (
        CampaignCell,
        CampaignSummary,
        CellResult,
        campaign_grid,
        evaluate_cell,
        format_campaign,
        run_campaign,
        summarize_campaign,
        wilson_interval,
    )
    from repro.system.downlink import DownlinkResult, OpticalDownlink
    from repro.system.e2e import (
        E2ECell,
        E2EResult,
        FrameStreamSource,
        latency_percentile_ps,
        run_e2e,
    )
    from repro.system.parallel import MixedTask, PhaseTask, Task, run_tasks
    from repro.system.sweep import (
        E2ERow,
        EnergyRow,
        MixedRow,
        SizeSweepPoint,
        Table1Row,
        ablation_factories,
        default_mappings,
        format_e2e_table,
        format_energy_table,
        format_mixed_table,
        format_table1,
        run_e2e_table,
        run_energy_table,
        run_mixed_table,
        run_table1,
        sweep_sizes,
    )
    from repro.system.throughput import (
        EnergyProvisioningPoint,
        ProvisioningChoice,
        ThroughputReport,
        energy_pareto,
        provision,
        required_channels,
        throughput_report,
    )

__getattr__, __dir__ = attach(__name__, __file__)
