"""Typed result-record schema of the content-addressed store.

Every sweep in this repository — ``table1``, ``mixed``, ``energy``,
``e2e``, ``campaign`` and the adaptive, rare-event and scenario
estimators — decomposes into independent cells described by frozen
dataclasses of primitives.  This module is the single place where those
descriptions and their results cross the JSON boundary:

* a **config dict** is the canonical JSON-friendly description of one
  cell (the content-address basis) — :func:`phase_task_config`,
  :func:`mixed_task_config`, :func:`e2e_cell_config`,
  :func:`campaign_cell_config`;
* a **payload dict** is the JSON form of the cell's result —
  :func:`phase_stats_to_payload` / :func:`phase_stats_from_payload` and
  friends, or the result's own ``to_dict``/``from_dict`` for the Monte
  Carlo kinds;
* :func:`derive_key` hashes ``(kind, schema version, config)`` into the
  store's content address, so two cells share an entry exactly when
  their full configuration is identical;
* :data:`RECORDS` maps each task type to its :class:`Record` — kind,
  config, payload encoder and decoder — which is all
  :meth:`~repro.store.store.ResultStore.load` and
  :meth:`~repro.store.store.ResultStore.save` need.

Round-trips are **bit-identical**: every payload value is an int, a
str, or a float serialized through :func:`json.dumps` (whose
``repr``-based float formatting is exact — ``float(repr(x)) == x`` for
every finite ``x``), so a loaded record compares ``==`` to the object
that was stored, exact float equality included.  The batteries in
``tests/store/test_records.py`` pin that for every record kind.

Versioning: bump :data:`SCHEMA_VERSION` whenever a payload layout or a
config-dict field changes — the version participates in the content
address, so stale entries from older code *miss* instead of
resurfacing.  The Monte Carlo kinds additionally fold in
:data:`repro.system.campaign.CACHE_VERSION`, the pre-store cache's
evaluation version, preserving its bump-on-semantics-change contract.
"""

from __future__ import annotations

import hashlib
import json
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Type,
    Union,
    cast,
)

from repro.channel.codeword import CodewordConfig
from repro.channel.gilbert_elliott import GilbertElliottParams
from repro.dram.controller import ControllerConfig
from repro.dram.policy import POLICY_FRFCFS_CAP, POLICY_OPEN_PAGE
from repro.dram.energy import EnergyReport
from repro.dram.stats import EnergyTally, PhaseStats
from repro.interleaver.two_stage import TwoStageConfig
from repro.system.adaptive import (
    AdaptiveCell,
    AdaptiveResult,
    RareEventCell,
    RareEventResult,
    ScenarioCell,
    ScenarioResult,
)
from repro.system.campaign import CACHE_VERSION, CampaignCell, CellResult
from repro.system.downlink import DownlinkResult
from repro.system.e2e import E2ECell, E2EResult
from repro.system.parallel import MixedTask, PhaseTask
from repro.channel.burst_stats import BurstProfile
from repro.channel.codeword import DecodingReport
from repro.dram.mixed import MixedResult

#: JSON-friendly dictionary (config and payload shape).
JSONDict = Dict[str, Any]

#: Bump when any record layout or config-dict field changes: the
#: version participates in every content address, so entries written by
#: older code miss instead of being misread.
SCHEMA_VERSION = 2

#: Record kinds known to the store (one namespace per result type).
KIND_PHASE = "phase"
KIND_MIXED = "mixed"
KIND_E2E = "e2e"
KIND_CAMPAIGN = "campaign"
KIND_ADAPTIVE = "adaptive"
KIND_RARE_EVENT = "rare-event"
KIND_SCENARIO = "scenario"
KIND_JOB = "job"

#: The cells of the four Monte Carlo estimators; see
#: :func:`campaign_cell_config`.
MonteCarloCell = Union[CampaignCell, AdaptiveCell, RareEventCell, ScenarioCell]


def canonical_json(value: Any) -> str:
    """Serialize ``value`` to the canonical JSON the content address hashes.

    Sorted keys and tight separators make the encoding unique for a
    given structure; ``allow_nan=False`` fails loud instead of emitting
    the non-RFC ``NaN``/``Infinity`` tokens.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def derive_key(kind: str, config: JSONDict) -> str:
    """Content address of a record: hash of (kind, schema, config).

    Args:
        kind: record namespace (:data:`KIND_PHASE` … :data:`KIND_JOB`).
        config: canonical cell description (JSON-friendly primitives).

    Returns:
        A 32-hex-digit sha256 prefix — the same truncation the
        campaign cache used, with a collision guard at load time
        (stored configs are compared to the requested one).
    """
    payload = {"kind": kind, "schema": SCHEMA_VERSION, "config": config}
    digest = hashlib.sha256(canonical_json(payload).encode("ascii"))
    return digest.hexdigest()[:32]


# ---------------------------------------------------------------------------
# config dicts — the content-address basis of each sweep's cell
# ---------------------------------------------------------------------------


def policy_config(policy: Optional[ControllerConfig]) -> Optional[JSONDict]:
    """Canonical description of a controller policy (``None`` passes through).

    The scheduling discipline folds in **omit-when-default** style: the
    ``discipline`` key appears only for a non-default discipline, and
    the ``cap`` key only under :data:`~repro.dram.policy
    .POLICY_FRFCFS_CAP` (the one discipline that reads it).  Open-page
    policies therefore serialize to the exact pre-policy-zoo dict, so
    every content address derived before the discipline field existed
    stays byte-identical and existing caches stay warm — pinned by
    ``tests/store/test_policy_store_keys.py``.
    """
    if policy is None:
        return None
    config: JSONDict = {
        "queue_depth": policy.queue_depth,
        "per_bank_depth": policy.per_bank_depth,
        "refresh_enabled": policy.refresh_enabled,
        "record_commands": policy.record_commands,
    }
    if policy.discipline != POLICY_OPEN_PAGE:
        config["discipline"] = policy.discipline
        if policy.discipline == POLICY_FRFCFS_CAP:
            config["cap"] = policy.cap
    return config


def policy_from_config(data: Optional[JSONDict]) -> Optional[ControllerConfig]:
    """Inverse of :func:`policy_config`."""
    if data is None:
        return None
    return ControllerConfig(
        queue_depth=int(data["queue_depth"]),
        per_bank_depth=int(data["per_bank_depth"]),
        refresh_enabled=bool(data["refresh_enabled"]),
        record_commands=bool(data["record_commands"]),
        discipline=str(data.get("discipline", POLICY_OPEN_PAGE)),
        cap=int(data.get("cap", 4)),
    )


def phase_task_config(task: PhaseTask) -> JSONDict:
    """Canonical description of one phase simulation cell.

    The shared currency of cross-sweep reuse: ``table1`` persists its
    phases under this config, and any later sweep needing the same
    (config, mapping, op, n, policy) phase — the energy table's
    write/read halves, an ablation variant — hits the same entry.
    """
    return {
        "config_name": task.config_name,
        "mapping": task.mapping,
        "op": task.op,
        "n": task.n,
        "policy": policy_config(task.policy),
        # The retired ``PhaseTask.use_arrays`` field, at the only value
        # any production sweep stored: keeps every phase key, and so
        # every warm store, byte-identical without a schema bump.
        "use_arrays": None,
    }


def mixed_task_config(task: MixedTask) -> JSONDict:
    """Canonical description of one steady-state mixed-traffic cell."""
    return {
        "config_name": task.config_name,
        "mapping": task.mapping,
        "n": task.n,
        "group": task.group,
        "policy": policy_config(task.policy),
    }


def e2e_cell_config(cell: E2ECell) -> JSONDict:
    """Canonical description of one joint downlink -> DRAM cell."""
    return {
        "p_g2b": cell.channel.p_g2b,
        "p_b2g": cell.channel.p_b2g,
        "p_bad": cell.channel.p_bad,
        "p_good": cell.channel.p_good,
        "triangle_n": cell.interleaver.triangle_n,
        "symbols_per_element": cell.interleaver.symbols_per_element,
        "codeword_symbols": cell.interleaver.codeword_symbols,
        "n_symbols": cell.code.n_symbols,
        "t_correctable": cell.code.t_correctable,
        "config_name": cell.config_name,
        "mapping": cell.mapping,
        "seed": cell.seed,
        "frames": cell.frames,
        "policy": policy_config(cell.policy),
    }


def e2e_cell_from_config(data: JSONDict) -> E2ECell:
    """Inverse of :func:`e2e_cell_config`."""
    return E2ECell(
        channel=GilbertElliottParams(
            p_g2b=float(data["p_g2b"]),
            p_b2g=float(data["p_b2g"]),
            p_bad=float(data["p_bad"]),
            p_good=float(data["p_good"]),
        ),
        interleaver=TwoStageConfig(
            triangle_n=int(data["triangle_n"]),
            symbols_per_element=int(data["symbols_per_element"]),
            codeword_symbols=int(data["codeword_symbols"]),
        ),
        code=CodewordConfig(
            n_symbols=int(data["n_symbols"]),
            t_correctable=int(data["t_correctable"]),
        ),
        config_name=str(data["config_name"]),
        mapping=str(data["mapping"]),
        seed=int(data["seed"]),
        frames=int(data["frames"]),
        policy=policy_from_config(
            cast(Optional[JSONDict], data["policy"])),
    )


def campaign_cell_config(cell: MonteCarloCell) -> JSONDict:
    """Canonical description of one Monte Carlo cell of any estimator.

    The cell's own ``to_dict()`` plus
    :data:`repro.system.campaign.CACHE_VERSION`, the campaign
    evaluation's version, so bumping either version retires stale
    entries.  The naive, adaptive, rare-event and scenario kinds all
    use it: their results embed or mirror a
    :class:`~repro.system.campaign.CellResult`, so a bump of the
    campaign evaluation semantics must retire them too.
    """
    return dict(cell.to_dict(), cache_version=CACHE_VERSION)


# ---------------------------------------------------------------------------
# payload serializers — bit-identical JSON round-trips per result type
# ---------------------------------------------------------------------------


def energy_tally_to_payload(tally: EnergyTally) -> JSONDict:
    """JSON form of an :class:`~repro.dram.stats.EnergyTally` (pure ints)."""
    return {
        "act_pre": tally.act_pre,
        "rd": tally.rd,
        "wr": tally.wr,
        "ref": tally.ref,
        "makespan_ps": tally.makespan_ps,
    }


def energy_tally_from_payload(data: JSONDict) -> EnergyTally:
    """Inverse of :func:`energy_tally_to_payload`."""
    return EnergyTally(
        act_pre=int(data["act_pre"]),
        rd=int(data["rd"]),
        wr=int(data["wr"]),
        ref=int(data["ref"]),
        makespan_ps=int(data["makespan_ps"]),
    )


def phase_stats_to_payload(stats: PhaseStats) -> JSONDict:
    """JSON form of a :class:`~repro.dram.stats.PhaseStats`.

    The energy tally — excluded from dataclass equality but the input
    of every downstream energy report — is persisted alongside, so an
    ``energy`` run can reuse a phase a ``table1`` run simulated.
    """
    return {
        "requests": stats.requests,
        "page_hits": stats.page_hits,
        "page_misses": stats.page_misses,
        "page_empties": stats.page_empties,
        "activates": stats.activates,
        "precharges": stats.precharges,
        "refreshes": stats.refreshes,
        "data_time_ps": stats.data_time_ps,
        "makespan_ps": stats.makespan_ps,
        "command_counts": dict(stats.command_counts),
        "energy_tally": (None if stats.energy_tally is None
                         else energy_tally_to_payload(stats.energy_tally)),
    }


def phase_stats_from_payload(data: JSONDict) -> PhaseStats:
    """Inverse of :func:`phase_stats_to_payload`."""
    tally = cast(Optional[JSONDict], data["energy_tally"])
    return PhaseStats(
        requests=int(data["requests"]),
        page_hits=int(data["page_hits"]),
        page_misses=int(data["page_misses"]),
        page_empties=int(data["page_empties"]),
        activates=int(data["activates"]),
        precharges=int(data["precharges"]),
        refreshes=int(data["refreshes"]),
        data_time_ps=int(data["data_time_ps"]),
        makespan_ps=int(data["makespan_ps"]),
        command_counts={str(name): int(count) for name, count
                        in cast(JSONDict, data["command_counts"]).items()},
        energy_tally=(None if tally is None
                      else energy_tally_from_payload(tally)),
    )


def mixed_result_to_payload(result: MixedResult) -> JSONDict:
    """JSON form of a :class:`~repro.dram.mixed.MixedResult`.

    Recorded command lists are never persisted — the store refuses
    cells whose policy sets ``record_commands`` (see
    :func:`record_for`), so the empty command list round-trips
    exactly.
    """
    return {
        "stats": phase_stats_to_payload(result.stats),
        "reads": result.reads,
        "writes": result.writes,
        "turnarounds": result.turnarounds,
    }


def mixed_result_from_payload(data: JSONDict) -> MixedResult:
    """Inverse of :func:`mixed_result_to_payload`."""
    return MixedResult(
        stats=phase_stats_from_payload(cast(JSONDict, data["stats"])),
        reads=int(data["reads"]),
        writes=int(data["writes"]),
        turnarounds=int(data["turnarounds"]),
    )


def burst_profile_to_payload(profile: BurstProfile) -> JSONDict:
    """JSON form of a :class:`~repro.channel.burst_stats.BurstProfile`."""
    return {
        "total_symbols": profile.total_symbols,
        "error_symbols": profile.error_symbols,
        "burst_count": profile.burst_count,
        "max_burst": profile.max_burst,
        "mean_burst": profile.mean_burst,
    }


def burst_profile_from_payload(data: JSONDict) -> BurstProfile:
    """Inverse of :func:`burst_profile_to_payload`."""
    return BurstProfile(
        total_symbols=int(data["total_symbols"]),
        error_symbols=int(data["error_symbols"]),
        burst_count=int(data["burst_count"]),
        max_burst=int(data["max_burst"]),
        mean_burst=float(data["mean_burst"]),
    )


def decoding_report_to_payload(report: DecodingReport) -> JSONDict:
    """JSON form of a :class:`~repro.channel.codeword.DecodingReport`."""
    return {
        "codewords": report.codewords,
        "failed": report.failed,
        "corrected_symbols": report.corrected_symbols,
        "residual_symbol_errors": report.residual_symbol_errors,
    }


def decoding_report_from_payload(data: JSONDict) -> DecodingReport:
    """Inverse of :func:`decoding_report_to_payload`."""
    return DecodingReport(
        codewords=int(data["codewords"]),
        failed=int(data["failed"]),
        corrected_symbols=int(data["corrected_symbols"]),
        residual_symbol_errors=int(data["residual_symbol_errors"]),
    )


def downlink_result_to_payload(result: DownlinkResult) -> JSONDict:
    """JSON form of a :class:`~repro.system.downlink.DownlinkResult`."""
    return {
        "channel_profile": burst_profile_to_payload(result.channel_profile),
        "interleaved": decoding_report_to_payload(result.interleaved),
        "baseline": decoding_report_to_payload(result.baseline),
        "max_errors_interleaved": result.max_errors_interleaved,
        "max_errors_baseline": result.max_errors_baseline,
    }


def downlink_result_from_payload(data: JSONDict) -> DownlinkResult:
    """Inverse of :func:`downlink_result_to_payload`."""
    return DownlinkResult(
        channel_profile=burst_profile_from_payload(
            cast(JSONDict, data["channel_profile"])),
        interleaved=decoding_report_from_payload(
            cast(JSONDict, data["interleaved"])),
        baseline=decoding_report_from_payload(
            cast(JSONDict, data["baseline"])),
        max_errors_interleaved=int(data["max_errors_interleaved"]),
        max_errors_baseline=int(data["max_errors_baseline"]),
    )


def energy_report_to_payload(report: EnergyReport) -> JSONDict:
    """JSON form of an :class:`~repro.dram.energy.EnergyReport`."""
    return {
        "activation_nj": report.activation_nj,
        "burst_nj": report.burst_nj,
        "refresh_nj": report.refresh_nj,
        "background_nj": report.background_nj,
        "payload_bytes": report.payload_bytes,
        "makespan_ps": report.makespan_ps,
    }


def energy_report_from_payload(data: JSONDict) -> EnergyReport:
    """Inverse of :func:`energy_report_to_payload`."""
    return EnergyReport(
        activation_nj=float(data["activation_nj"]),
        burst_nj=float(data["burst_nj"]),
        refresh_nj=float(data["refresh_nj"]),
        background_nj=float(data["background_nj"]),
        payload_bytes=int(data["payload_bytes"]),
        makespan_ps=int(data["makespan_ps"]),
    )


def e2e_result_to_payload(result: E2EResult) -> JSONDict:
    """JSON form of an :class:`~repro.system.e2e.E2EResult`.

    Everything the joint cell produced — channel comparison, both DRAM
    phase statistics (tallies included), per-frame latencies and the
    frame energy report — so a loaded record compares ``==`` to the
    freshly computed one.
    """
    return {
        "cell": e2e_cell_config(result.cell),
        "downlink": downlink_result_to_payload(result.downlink),
        "write": phase_stats_to_payload(result.write),
        "read": phase_stats_to_payload(result.read),
        "write_latencies_ps": list(result.write_latencies_ps),
        "read_latencies_ps": list(result.read_latencies_ps),
        "energy": energy_report_to_payload(result.energy),
    }


def e2e_result_from_payload(data: JSONDict) -> E2EResult:
    """Inverse of :func:`e2e_result_to_payload`."""
    return E2EResult(
        cell=e2e_cell_from_config(cast(JSONDict, data["cell"])),
        downlink=downlink_result_from_payload(
            cast(JSONDict, data["downlink"])),
        write=phase_stats_from_payload(cast(JSONDict, data["write"])),
        read=phase_stats_from_payload(cast(JSONDict, data["read"])),
        write_latencies_ps=tuple(
            int(value) for value in
            cast(List[Any], data["write_latencies_ps"])),
        read_latencies_ps=tuple(
            int(value) for value in
            cast(List[Any], data["read_latencies_ps"])),
        energy=energy_report_from_payload(cast(JSONDict, data["energy"])),
    )


# ---------------------------------------------------------------------------
# the task table — how each task type crosses the store boundary
# ---------------------------------------------------------------------------


class Record(NamedTuple):
    """How the results of one task type are stored.

    Attributes:
        kind: the record namespace (:data:`KIND_PHASE` …
            :data:`KIND_SCENARIO`): the entry's file-name prefix and a
            key input.
        config: task -> canonical description, the content-address
            basis.
        encode: result -> JSON payload.
        decode: JSON payload -> result, the inverse of ``encode``.
    """

    kind: str
    config: Callable[[Any], JSONDict]
    encode: Callable[[Any], JSONDict]
    decode: Callable[[JSONDict], Any]


#: Task type -> its :class:`Record`: the one place the store learns
#: what a task is.
RECORDS: Dict[Type[Any], Record] = {
    PhaseTask: Record(KIND_PHASE, phase_task_config, phase_stats_to_payload,
                      phase_stats_from_payload),
    MixedTask: Record(KIND_MIXED, mixed_task_config, mixed_result_to_payload,
                      mixed_result_from_payload),
    E2ECell: Record(KIND_E2E, e2e_cell_config, e2e_result_to_payload,
                    e2e_result_from_payload),
    CampaignCell: Record(KIND_CAMPAIGN, campaign_cell_config,
                         CellResult.to_dict, CellResult.from_dict),
    AdaptiveCell: Record(KIND_ADAPTIVE, campaign_cell_config,
                         AdaptiveResult.to_dict, AdaptiveResult.from_dict),
    RareEventCell: Record(KIND_RARE_EVENT, campaign_cell_config,
                          RareEventResult.to_dict, RareEventResult.from_dict),
    ScenarioCell: Record(KIND_SCENARIO, campaign_cell_config,
                         ScenarioResult.to_dict, ScenarioResult.from_dict),
}


def record_for(task: Any) -> Optional[Record]:
    """The :class:`Record` of ``task``, or ``None`` if it bypasses the store.

    Mixed cells whose policy records per-command traces bypass it: the
    command list is a debugging artifact the JSON schema deliberately
    omits, and serving a recorded run from the store would silently
    drop it.

    Raises:
        KeyError: for a task type :data:`RECORDS` does not list.
    """
    if (isinstance(task, MixedTask) and task.policy is not None
            and task.policy.record_commands):
        return None
    return RECORDS[type(task)]
