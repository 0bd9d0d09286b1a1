"""DRAM energy accounting (DRAMPower-style, command-level).

The paper motivates the optimized mapping not only by bandwidth but by
cost and *energy*: an over-provisioned DRAM (faster grade, more
channels) burns more power, and a mapping that thrashes rows pays the
row-activation energy on almost every access (the concern of the
paper's reference [8]).

The model charges a fixed energy per command — the standard abstraction
of DRAMPower and vendor power calculators:

* ``e_act_pre``: one ACT/PRE pair (charging a row, restoring it),
* ``e_rd`` / ``e_wr``: one burst transfer, including I/O,
* ``e_ref``: one refresh command in the configuration's refresh mode
  (tRFC worth of all-bank current for REFab, the much smaller
  single-bank charge for REFpb/REFsb — see
  :func:`refresh_command_energy_pj`),
* ``p_background``: standby power integrated over the phase makespan.

Values are derived from public IDD/IPP datasheet figures and scale with
the page size and bus width of the presets; they are representative,
not vendor-exact (the reproduction compares *mappings*, and both
mappings see identical parameters).  Every Table I configuration has
its own preset (:func:`energy_params_for`): the faster grade of each
family pays slightly less per access (newer bins) but more background
power (interface and clocking running at speed).

Phase energy has one accounting path, :func:`energy_from_tally`: the
scheduling engine fills an integer :class:`~repro.dram.stats.EnergyTally`
on every :class:`~repro.dram.stats.PhaseStats` from counters it already
keeps, and :func:`energy_from_stats` reads it off the statistics.  The
proof that the tally is right is a scalar per-command recount of the
recorded command list (the test-only oracle ``tests/oracles/energy.py``);
the differential battery in ``tests/dram/test_energy_differential.py``
holds the two exactly equal.  Both count commands first and multiply
counts by per-command energies once (``_build_report``), so float
summation order can never make them disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.dram.presets import REFRESH_PER_BANK, DramConfig
from repro.dram.stats import EnergyTally, PhaseStats
from repro.units import PS_PER_S


@dataclass(frozen=True)
class EnergyParams:
    """Per-command energies (picojoules) and background power (milliwatts).

    Attributes:
        e_act_pre_pj: energy of one ACT + PRE pair.
        e_rd_pj: energy of one read burst (core + I/O).
        e_wr_pj: energy of one write burst.
        e_ref_pj: energy of one refresh command in the configuration's
            *native* refresh mode (REFab for DDR3/DDR4, REFpb/REFsb for
            DDR5/LPDDR).
        p_background_mw: standby/active-idle power charged over the
            whole phase duration.
        e_ref_ab_pj: energy of one *all-bank* refresh command, for
            families whose native mode is per-bank but which can be run
            with all-bank refresh (``0`` when the native mode already
            is all-bank — ``e_ref_pj`` then applies).
    """

    e_act_pre_pj: float
    e_rd_pj: float
    e_wr_pj: float
    e_ref_pj: float
    p_background_mw: float
    e_ref_ab_pj: float = 0.0

    def __post_init__(self) -> None:
        for name in ("e_act_pre_pj", "e_rd_pj", "e_wr_pj", "e_ref_pj",
                     "p_background_mw", "e_ref_ab_pj"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


#: Representative per-family energy parameters (x-bit-width-scaled when
#: applied).  ACT/PRE energy scales with page size; burst energy with
#: bytes moved.  Sources: vendor DDR3/DDR4 power calculators, LPDDR
#: datasheet IDD figures, DRAMPower defaults; rounded.  Used as the
#: fallback for custom configurations of a known family; the Table I
#: presets in ``_CONFIG_PARAMS`` take precedence by name.
_FAMILY_PARAMS: Dict[str, EnergyParams] = {
    "DDR3": EnergyParams(e_act_pre_pj=3200.0, e_rd_pj=2100.0, e_wr_pj=2200.0,
                         e_ref_pj=45000.0, p_background_mw=350.0),
    "DDR4": EnergyParams(e_act_pre_pj=2400.0, e_rd_pj=1400.0, e_wr_pj=1500.0,
                         e_ref_pj=60000.0, p_background_mw=280.0),
    "DDR5": EnergyParams(e_act_pre_pj=1500.0, e_rd_pj=900.0, e_wr_pj=950.0,
                         e_ref_pj=7000.0, p_background_mw=220.0,
                         e_ref_ab_pj=120000.0),
    "LPDDR4": EnergyParams(e_act_pre_pj=1200.0, e_rd_pj=450.0, e_wr_pj=480.0,
                           e_ref_pj=5500.0, p_background_mw=45.0,
                           e_ref_ab_pj=40000.0),
    "LPDDR5": EnergyParams(e_act_pre_pj=900.0, e_rd_pj=320.0, e_wr_pj=340.0,
                           e_ref_pj=4200.0, p_background_mw=40.0,
                           e_ref_ab_pj=32000.0),
}

#: Per-configuration presets for all ten Table I speed grades.  The
#: slower grade of each family keeps the family baseline (by
#: reference, one source of truth); the faster grade trades slightly
#: lower per-access energy (newer process bins) for higher background
#: power (DLL/PLL, interface training at speed).
_CONFIG_PARAMS: Dict[str, EnergyParams] = {
    "DDR3-800": _FAMILY_PARAMS["DDR3"],
    "DDR3-1600": EnergyParams(e_act_pre_pj=3000.0, e_rd_pj=1950.0,
                              e_wr_pj=2050.0, e_ref_pj=45000.0,
                              p_background_mw=390.0),
    "DDR4-1600": _FAMILY_PARAMS["DDR4"],
    "DDR4-3200": EnergyParams(e_act_pre_pj=2250.0, e_rd_pj=1300.0,
                              e_wr_pj=1400.0, e_ref_pj=60000.0,
                              p_background_mw=320.0),
    "DDR5-3200": _FAMILY_PARAMS["DDR5"],
    "DDR5-6400": EnergyParams(e_act_pre_pj=1400.0, e_rd_pj=840.0,
                              e_wr_pj=890.0, e_ref_pj=7000.0,
                              p_background_mw=250.0, e_ref_ab_pj=120000.0),
    "LPDDR4-2133": _FAMILY_PARAMS["LPDDR4"],
    "LPDDR4-4266": EnergyParams(e_act_pre_pj=1120.0, e_rd_pj=420.0,
                                e_wr_pj=450.0, e_ref_pj=5500.0,
                                p_background_mw=52.0, e_ref_ab_pj=40000.0),
    "LPDDR5-4267": _FAMILY_PARAMS["LPDDR5"],
    "LPDDR5-8533": EnergyParams(e_act_pre_pj=840.0, e_rd_pj=300.0,
                                e_wr_pj=320.0, e_ref_pj=4200.0,
                                p_background_mw=46.0, e_ref_ab_pj=32000.0),
}


def energy_params_for(config: DramConfig) -> EnergyParams:
    """Energy parameters for a configuration.

    Table I configurations resolve to their per-grade preset in
    ``_CONFIG_PARAMS``; custom configurations of a known family
    fall back to the family baseline.

    Raises:
        KeyError: for an unknown family with no per-config preset.
    """
    params = _CONFIG_PARAMS.get(config.name)
    if params is not None:
        return params
    try:
        return _FAMILY_PARAMS[config.family]
    except KeyError:
        raise KeyError(
            f"no energy parameters for family {config.family!r}; "
            f"known: {sorted(_FAMILY_PARAMS)}"
        ) from None


def refresh_command_energy_pj(params: EnergyParams, config: DramConfig) -> float:
    """Energy of one refresh command under ``config.refresh_mode``.

    ``e_ref_pj`` is the native-mode value.  A per-bank-native
    configuration run with all-bank refresh (legal whenever a test or
    scenario swaps the mode) charges ``e_ref_ab_pj`` instead — one
    REFab sweeps every bank at once and costs correspondingly more than
    a single-bank REFpb/REFsb.
    """
    if config.refresh_mode != REFRESH_PER_BANK and params.e_ref_ab_pj > 0:
        return params.e_ref_ab_pj
    return params.e_ref_pj


@dataclass(frozen=True)
class EnergyReport:
    """Energy breakdown of one simulated phase.

    All values in nanojoules except the per-bit figure.
    """

    activation_nj: float
    burst_nj: float
    refresh_nj: float
    background_nj: float
    payload_bytes: int
    makespan_ps: int = 0

    @property
    def total_nj(self) -> float:
        """Whole-phase energy: all four components summed."""
        return self.activation_nj + self.burst_nj + self.refresh_nj + self.background_nj

    @property
    def pj_per_bit(self) -> float:
        """Total energy per payload bit — the figure of merit."""
        bits = self.payload_bytes * 8
        if bits == 0:
            return 0.0
        return self.total_nj * 1000.0 / bits

    @property
    def activation_share(self) -> float:
        """Fraction of total energy spent opening/closing rows."""
        total = self.total_nj
        if total == 0:
            return 0.0
        return self.activation_nj / total

    @property
    def avg_power_mw(self) -> float:
        """Average power over the phase makespan, in milliwatts."""
        if self.makespan_ps <= 0:
            return 0.0
        # nJ / ps = 1e-9 J / 1e-12 s = 1e3 W = 1e6 mW.
        return self.total_nj / self.makespan_ps * 1e6


def _build_report(config: DramConfig, params: EnergyParams, act_pre: int,
                  rd: int, wr: int, ref: int, makespan_ps: int) -> EnergyReport:
    """The one place count tallies turn into joules.

    The tally path and the scalar command-recount oracle both funnel
    through this function with plain integer counts, so identical
    counts produce bit-identical float reports.
    """
    activation_nj = act_pre * params.e_act_pre_pj / 1000.0
    burst_nj = (rd * params.e_rd_pj + wr * params.e_wr_pj) / 1000.0
    refresh_nj = ref * refresh_command_energy_pj(params, config) / 1000.0
    seconds = makespan_ps / PS_PER_S
    background_nj = params.p_background_mw * 1e-3 * seconds * 1e9
    return EnergyReport(
        activation_nj=activation_nj,
        burst_nj=burst_nj,
        refresh_nj=refresh_nj,
        background_nj=background_nj,
        payload_bytes=(rd + wr) * config.geometry.burst_bytes,
        makespan_ps=makespan_ps,
    )


def energy_from_tally(config: DramConfig, tally: EnergyTally,
                      params: Optional[EnergyParams] = None) -> EnergyReport:
    """Energy of one phase from the engine's integer command tallies.

    The one production path: the scheduling engine fills
    ``stats.energy_tally`` on every run from counters it already keeps,
    and this function turns those counts into an :class:`EnergyReport`.
    Its proof is the scalar per-command recount in
    ``tests/oracles/energy.py``, which the differential battery holds
    exactly equal — not approximately — to this report.
    """
    params = params or energy_params_for(config)
    return _build_report(config, params, act_pre=tally.act_pre, rd=tally.rd,
                         wr=tally.wr, ref=tally.ref,
                         makespan_ps=tally.makespan_ps)


def energy_from_stats(config: DramConfig, stats: PhaseStats) -> EnergyReport:
    """Energy of one phase from the tally its statistics carry.

    Every sweep and the co-simulation take phase energy this way.

    Raises:
        ValueError: when ``stats`` carries no
            :class:`~repro.dram.stats.EnergyTally`.
    """
    if stats.energy_tally is None:
        raise ValueError("phase statistics carry no energy tally")
    return energy_from_tally(config, stats.energy_tally)


def combine_interleaver_reports(write: EnergyReport,
                                read: EnergyReport) -> EnergyReport:
    """Combine write- and read-phase reports into one frame report.

    Payload bytes are counted once (each byte is written once and read
    once); makespans add, so :attr:`EnergyReport.avg_power_mw` averages
    over the whole frame.
    """
    return EnergyReport(
        activation_nj=write.activation_nj + read.activation_nj,
        burst_nj=write.burst_nj + read.burst_nj,
        refresh_nj=write.refresh_nj + read.refresh_nj,
        background_nj=write.background_nj + read.background_nj,
        payload_bytes=write.payload_bytes,
        makespan_ps=write.makespan_ps + read.makespan_ps,
    )
