"""The ten DRAM configurations evaluated in the paper (Table I).

Five JEDEC standards with two speed grades each:

* DDR3-800 / DDR3-1600       (64-bit channel, 8 banks, no bank groups)
* DDR4-1600 / DDR4-3200      (64-bit channel, 4 bank groups x 4 banks)
* DDR5-3200 / DDR5-6400      (32-bit subchannel, 8 bank groups x 4 banks)
* LPDDR4-2133 / LPDDR4-4266  (16-bit channel, 8 banks, no bank groups)
* LPDDR5-4267 / LPDDR5-8533  (16-bit channel, 4 bank groups x 4 banks, BG mode)

Timing values are taken from public JEDEC standards and vendor
datasheets where available and interpolated from neighboring speed bins
otherwise; each preset documents its sources of approximation.  The
reproduction targets the *shape* of the paper's Table I (orderings,
crossovers, which configurations collapse under the row-major mapping),
not third-decimal agreement, so small deviations from any particular
vendor's bin are acceptable.

Refresh mode follows the standard: DDR3/DDR4 use all-bank refresh
(REFab stalls the whole rank for tRFC); DDR5, LPDDR4 and LPDDR5 support
per-bank refresh (REFpb/REFsb), which the controller can hide behind
accesses to other banks — this is why the paper's DDR5/LPDDR results
lose almost nothing to refresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.dram.geometry import Geometry
from repro.dram.timing import TimingParams, from_datasheet
from repro.units import burst_duration_ps, peak_bandwidth_bytes_per_s

#: Refresh strategies supported by the controller.
REFRESH_ALL_BANK = "all-bank"
REFRESH_PER_BANK = "per-bank"


@dataclass(frozen=True)
class DramConfig:
    """A complete, simulatable DRAM channel configuration.

    Attributes:
        name: canonical configuration name, e.g. ``"DDR4-3200"``.
        family: JEDEC standard family, e.g. ``"DDR4"``.
        data_rate_mtps: data rate in mega-transfers per second.
        geometry: channel organization.
        timing: JEDEC timing parameters.
        refresh_mode: ``"all-bank"`` or ``"per-bank"``.
    """

    name: str
    family: str
    data_rate_mtps: int
    geometry: Geometry
    timing: TimingParams
    refresh_mode: str

    def __post_init__(self) -> None:
        if self.refresh_mode not in (REFRESH_ALL_BANK, REFRESH_PER_BANK):
            raise ValueError(f"unknown refresh mode {self.refresh_mode!r}")
        if self.refresh_mode == REFRESH_PER_BANK and self.timing.trfc_pb <= 0:
            raise ValueError(f"{self.name}: per-bank refresh requires trfc_pb > 0")

    @property
    def burst_duration_ps(self) -> int:
        """Data-bus occupancy of one burst in picoseconds."""
        return burst_duration_ps(self.data_rate_mtps, self.geometry.burst_length)

    @property
    def peak_bandwidth_bytes_per_s(self) -> float:
        """Theoretical peak channel bandwidth."""
        return peak_bandwidth_bytes_per_s(self.data_rate_mtps, self.geometry.bus_width_bits)

    @property
    def has_bank_groups(self) -> bool:
        """Whether the device discriminates tCCD/tRRD by bank group."""
        return self.geometry.bank_groups > 1


def _ddr3(data_rate: int, cl: int, cwl: int, trcd_ns: float, tras_ns: float) -> DramConfig:
    """DDR3 64-bit channel of x8 2 Gb devices (1 KB device page -> 8 KB channel page)."""
    geometry = Geometry(
        bank_groups=1,
        banks_per_group=8,
        rows=32768,
        columns=1024,          # 8 KB channel page / 8 B bus word
        bus_width_bits=64,
        burst_length=8,
    )
    timing = from_datasheet(
        data_rate,
        cl_ck=cl,
        cwl_ck=cwl,
        trcd_ns=trcd_ns,
        trp_ns=trcd_ns,
        tras_ns=tras_ns,
        trrd_s_ns=6.0,          # 1 KB page devices
        trrd_l_ns=6.0,          # DDR3 has no bank groups
        tfaw_ns=30.0,           # 1 KB page devices
        tccd_s_ck=4,            # tCCD = 4 nCK = BL/2: seamless bursts
        tccd_l_ns=0.0,
        twr_ns=15.0,
        twtr_s_ns=7.5,
        twtr_l_ns=7.5,
        trtp_ns=7.5,
        trtw_ck=6,
        trefi_us=7.8,
        trfc_ns=160.0,          # 2 Gb devices
    )
    return DramConfig(
        name=f"DDR3-{data_rate}",
        family="DDR3",
        data_rate_mtps=data_rate,
        geometry=geometry,
        timing=timing,
        refresh_mode=REFRESH_ALL_BANK,
    )


def _ddr4(data_rate: int, cl: int, cwl: int, tras_ns: float,
          tfaw_ns: float, tccd_l_ns: float) -> DramConfig:
    """DDR4 64-bit channel of x8 8 Gb devices (4 BG x 4 banks, 8 KB channel page)."""
    geometry = Geometry(
        bank_groups=4,
        banks_per_group=4,
        rows=65536,
        columns=1024,
        bus_width_bits=64,
        burst_length=8,
    )
    timing = from_datasheet(
        data_rate,
        cl_ck=cl,
        cwl_ck=cwl,
        trcd_ns=13.75,
        trp_ns=13.75,
        tras_ns=tras_ns,
        trrd_s_ns=2.5,          # 1 KB page x8: max(4 nCK, 2.5 ns)
        trrd_l_ns=4.9,
        tfaw_ns=tfaw_ns,
        tccd_s_ck=4,
        tccd_l_ns=tccd_l_ns,
        twr_ns=15.0,
        twtr_s_ns=2.5,
        twtr_l_ns=7.5,
        trtp_ns=7.5,
        trtw_ck=8,
        trefi_us=7.8,
        trfc_ns=350.0,          # 8 Gb devices
    )
    return DramConfig(
        name=f"DDR4-{data_rate}",
        family="DDR4",
        data_rate_mtps=data_rate,
        geometry=geometry,
        timing=timing,
        refresh_mode=REFRESH_ALL_BANK,
    )


def _ddr5(data_rate: int, cl: int, cwl: int) -> DramConfig:
    """DDR5 32-bit subchannel of x8 16 Gb devices (8 BG x 4 banks, 4 KB page).

    DDR5 supports same-bank refresh (REFsb), so the controller refreshes
    banks one at a time and hides the refresh behind traffic to the
    other 31 banks; this reproduces the paper's ~100 % DDR5 results.
    ``tFAW = max(32 nCK, 10 ns)``, the x8 fine-granularity value.
    """
    tck_ns = 2000.0 / data_rate
    geometry = Geometry(
        bank_groups=8,
        banks_per_group=4,
        rows=65536,
        columns=1024,           # 4 KB page / 4 B bus word
        bus_width_bits=32,
        burst_length=16,
    )
    timing = from_datasheet(
        data_rate,
        cl_ck=cl,
        cwl_ck=cwl,
        trcd_ns=16.0,
        trp_ns=16.0,
        tras_ns=32.0,
        trrd_s_ns=8 * tck_ns,
        trrd_l_ns=5.0,
        tfaw_ns=max(32 * tck_ns, 10.0),
        tccd_s_ck=8,            # 8 nCK = BL16/2: seamless across bank groups
        tccd_l_ns=5.0,
        twr_ns=30.0,
        twtr_s_ns=2.5,
        twtr_l_ns=10.0,
        trtp_ns=7.5,
        trtw_ck=16,
        trefi_us=3.9,
        trfc_ns=295.0,          # 16 Gb REFab
        trfc_pb_ns=130.0,       # 16 Gb REFsb
    )
    return DramConfig(
        name=f"DDR5-{data_rate}",
        family="DDR5",
        data_rate_mtps=data_rate,
        geometry=geometry,
        timing=timing,
        refresh_mode=REFRESH_PER_BANK,
    )


def _lpddr4(data_rate: int, rl: int, wl: int) -> DramConfig:
    """LPDDR4 16-bit channel, 8 banks, 8 Gb per channel (4 KB page, BL16).

    LPDDR4 has no bank groups; ``tCCD = 8 nCK = BL/2`` so back-to-back
    bursts are seamless on any bank.  Per-bank refresh (REFpb) is the
    norm for LPDDR4 controllers.
    """
    geometry = Geometry(
        bank_groups=1,
        banks_per_group=8,
        rows=16384,
        columns=2048,           # 4 KB page / 2 B bus word
        bus_width_bits=16,
        burst_length=16,
    )
    timing = from_datasheet(
        data_rate,
        cl_ck=rl,
        cwl_ck=wl,
        trcd_ns=18.0,
        trp_ns=18.0,
        tras_ns=42.0,
        trrd_s_ns=10.0,
        trrd_l_ns=10.0,
        tfaw_ns=40.0,
        tccd_s_ck=8,
        tccd_l_ns=0.0,
        twr_ns=18.0,
        twtr_s_ns=10.0,
        twtr_l_ns=10.0,
        trtp_ns=7.5,
        trtw_ck=8,
        trefi_us=0.4875,        # tREFIpb = tREFIab / 8 banks
        trfc_ns=280.0,
        trfc_pb_ns=140.0,       # 8 Gb REFpb
    )
    return DramConfig(
        name=f"LPDDR4-{data_rate}",
        family="LPDDR4",
        data_rate_mtps=data_rate,
        geometry=geometry,
        timing=timing,
        refresh_mode=REFRESH_PER_BANK,
    )


def _lpddr5(data_rate: int, rl: int, wl: int) -> DramConfig:
    """LPDDR5 16-bit channel in bank-group mode (4 BG x 4 banks), 16 Gb die.

    LPDDR5 at >= 3200 MT/s operates in bank-group mode: back-to-back
    bursts to the *same* bank group pay a doubled CAS-to-CAS spacing
    (modeled as ``tCCD_L = 2 x tCCD_S``) while alternating bank groups
    is seamless — the same first-order behavior the paper exploits.
    The command clock runs at WCK/4 (data rate / 8); ``tRRD`` and
    ``tFAW`` use the LPDDR5X-class 3.75 ns / 14 ns floors.
    """
    geometry = Geometry(
        bank_groups=4,
        banks_per_group=4,
        rows=32768,
        columns=2048,           # 4 KB page / 2 B bus word
        bus_width_bits=16,
        burst_length=16,
    )
    # Express CK-domain values against the simulator's DDR-style command
    # clock (data_rate / 2) so `from_datasheet` stays uniform: one LPDDR5
    # CK = 4 simulator clocks.
    burst_ns = geometry.burst_length * 1000.0 / data_rate
    timing = from_datasheet(
        data_rate,
        cl_ck=rl * 4,
        cwl_ck=wl * 4,
        trcd_ns=18.0,
        trp_ns=18.0,
        tras_ns=42.0,
        trrd_s_ns=3.75,
        trrd_l_ns=3.75,
        tfaw_ns=14.0,
        tccd_s_ck=8,            # 8 DDR-style clocks = BL16 burst duration
        tccd_l_ns=2 * burst_ns,
        twr_ns=28.0,
        twtr_s_ns=10.0,
        twtr_l_ns=12.0,
        trtp_ns=7.5,
        trtw_ck=8,
        trefi_us=0.4875,        # per-bank refresh interval
        trfc_ns=280.0,
        trfc_pb_ns=140.0,
    )
    return DramConfig(
        name=f"LPDDR5-{data_rate}",
        family="LPDDR5",
        data_rate_mtps=data_rate,
        geometry=geometry,
        timing=timing,
        refresh_mode=REFRESH_PER_BANK,
    )


_BUILDERS: Dict[str, Callable[[], DramConfig]] = {
    "DDR3-800": lambda: _ddr3(800, cl=5, cwl=5, trcd_ns=12.5, tras_ns=37.5),
    "DDR3-1600": lambda: _ddr3(1600, cl=11, cwl=8, trcd_ns=13.75, tras_ns=35.0),
    "DDR4-1600": lambda: _ddr4(1600, cl=11, cwl=9, tras_ns=35.0, tfaw_ns=25.0, tccd_l_ns=6.25),
    "DDR4-3200": lambda: _ddr4(3200, cl=22, cwl=16, tras_ns=32.0, tfaw_ns=21.0, tccd_l_ns=5.0),
    "DDR5-3200": lambda: _ddr5(3200, cl=26, cwl=24),
    "DDR5-6400": lambda: _ddr5(6400, cl=46, cwl=44),
    "LPDDR4-2133": lambda: _lpddr4(2133, rl=20, wl=10),
    "LPDDR4-4266": lambda: _lpddr4(4266, rl=36, wl=18),
    "LPDDR5-4267": lambda: _lpddr5(4267, rl=15, wl=7),
    "LPDDR5-8533": lambda: _lpddr5(8533, rl=17, wl=9),
}

#: Configuration names in the order of the paper's Table I.
TABLE1_CONFIG_NAMES: Tuple[str, ...] = tuple(_BUILDERS)


#: Presets built so far, by name.  A configuration is frozen, so one
#: object serves every caller.
_BUILT: Dict[str, DramConfig] = {}


def get_config(name: str) -> DramConfig:
    """Return the preset configuration with the given canonical name.

    Each preset is built once per process and then shared.

    Raises:
        KeyError: if ``name`` is not one of :data:`TABLE1_CONFIG_NAMES`.
    """
    config = _BUILT.get(name)
    if config is None:
        try:
            builder = _BUILDERS[name]
        except KeyError:
            known = ", ".join(TABLE1_CONFIG_NAMES)
            raise KeyError(f"unknown DRAM configuration {name!r}; "
                           f"known: {known}") from None
        config = _BUILT[name] = builder()
    return config


def all_configs() -> Tuple[DramConfig, ...]:
    """All ten Table I configurations, in paper order."""
    return tuple(get_config(name) for name in TABLE1_CONFIG_NAMES)
