"""Retention-time model behind the paper's Figure 2.

Figure 2 reports, per traced volume, how long each scheme can retain
*all* stale data:

* **LocalSSD** keeps stale pages in the drive's spare (over-provisioned)
  capacity only, so retention time is spare capacity divided by the
  volume's daily stale-data production.
* **LocalSSD+Compression** stretches the same spare capacity by the
  volume's compression ratio.
* **RSSD** drains stale data over NVMe-oE, so retention time is bounded
  by the remote tier's budget (and, in principle, by link bandwidth --
  which for GB/day volumes over GbE is never the binding constraint).

The model is analytic because simulating hundreds of days of traffic
page by page adds nothing: stale production per day and compression
ratio are the only inputs, and both are validated against short
simulated replays in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.workloads.fiu import FIU_VOLUMES, figure2_volumes
from repro.workloads.msr import MSR_VOLUMES
from repro.workloads.synthetic import VolumeProfile

GB = 1024**3


def lookup_volume(name: str) -> VolumeProfile:
    """Find a volume profile across the MSR and FIU catalogues."""
    if name in MSR_VOLUMES:
        return MSR_VOLUMES[name]
    if name in FIU_VOLUMES:
        return FIU_VOLUMES[name]
    raise KeyError(
        f"unknown trace volume {name!r}; known volumes: "
        f"{sorted(set(MSR_VOLUMES) | set(FIU_VOLUMES))}"
    )


@dataclass(frozen=True)
class RetentionScenario:
    """Device / deployment parameters for the retention experiment.

    Defaults approximate the paper's setup: a 1 TB drive with 12.5%
    over-provisioning, a GbE NVMe-oE link, and a multi-terabyte remote
    budget across the storage server and cloud.
    """

    device_capacity_gb: float = 1024.0
    overprovision_ratio: float = 0.125
    local_retention_fraction: float = 0.7
    remote_budget_gb: float = 2048.0
    link_bandwidth_gbps: float = 1.0
    overwrite_fraction: float = 0.85
    horizon_days: float = 240.0

    def __post_init__(self) -> None:
        if self.device_capacity_gb <= 0 or self.remote_budget_gb <= 0:
            raise ValueError("capacities must be positive")
        if not 0.0 < self.overprovision_ratio < 1.0:
            raise ValueError("overprovision_ratio must be within (0, 1)")
        if not 0.0 < self.local_retention_fraction <= 1.0:
            raise ValueError("local_retention_fraction must be within (0, 1]")
        if not 0.0 < self.overwrite_fraction <= 1.0:
            raise ValueError("overwrite_fraction must be within (0, 1]")
        if self.link_bandwidth_gbps <= 0 or self.horizon_days <= 0:
            raise ValueError("link bandwidth and horizon must be positive")

    @property
    def local_retention_budget_gb(self) -> float:
        """Spare capacity (GB) available for holding stale data locally."""
        return (
            self.device_capacity_gb
            * self.overprovision_ratio
            * self.local_retention_fraction
        )

    @property
    def link_capacity_gb_per_day(self) -> float:
        """Payload the NVMe-oE link can move per day."""
        bytes_per_day = self.link_bandwidth_gbps * 1e9 / 8.0 * 86_400
        return bytes_per_day / GB


def stale_gb_per_day(profile: VolumeProfile, scenario: RetentionScenario) -> float:
    """Stale data produced per day: daily writes that displace older versions."""
    return profile.daily_write_gb * scenario.overwrite_fraction


def retention_days_local(profile: VolumeProfile, scenario: RetentionScenario) -> float:
    """Retention time of the LocalSSD baseline (spare capacity only)."""
    produced = stale_gb_per_day(profile, scenario)
    if produced == 0:
        return scenario.horizon_days
    return min(scenario.horizon_days, scenario.local_retention_budget_gb / produced)


def retention_days_local_compressed(
    profile: VolumeProfile, scenario: RetentionScenario
) -> float:
    """Retention time of LocalSSD when retained pages are compressed in place."""
    produced = stale_gb_per_day(profile, scenario) * profile.mean_compress_ratio
    if produced == 0:
        return scenario.horizon_days
    return min(scenario.horizon_days, scenario.local_retention_budget_gb / produced)


def retention_days_rssd(profile: VolumeProfile, scenario: RetentionScenario) -> float:
    """Retention time of RSSD (remote budget, compressed, link permitting)."""
    produced = stale_gb_per_day(profile, scenario) * profile.mean_compress_ratio
    if produced == 0:
        return scenario.horizon_days
    if produced > scenario.link_capacity_gb_per_day:
        # The link cannot keep up; retention degrades to what fits locally
        # plus whatever the link manages to drain per day.
        drained = scenario.link_capacity_gb_per_day
        local_days = scenario.local_retention_budget_gb / max(produced - drained, 1e-9)
        return min(scenario.horizon_days, local_days)
    return min(scenario.horizon_days, scenario.remote_budget_gb / produced)


@dataclass(frozen=True)
class FigureTwoRow:
    """One bar group of Figure 2."""

    volume: str
    local_days: float
    local_compressed_days: float
    rssd_days: float

    @property
    def rssd_advantage(self) -> float:
        """RSSD retention relative to the LocalSSD baseline."""
        if self.local_days == 0:
            return float("inf")
        return self.rssd_days / self.local_days


def figure2_rows(
    volumes: Optional[List[str]] = None,
    scenario: Optional[RetentionScenario] = None,
) -> List[FigureTwoRow]:
    """Compute every bar of Figure 2 for the requested volumes."""
    scenario = scenario if scenario is not None else RetentionScenario()
    names = volumes if volumes is not None else figure2_volumes()
    rows: List[FigureTwoRow] = []
    for name in names:
        profile = lookup_volume(name)
        rows.append(
            FigureTwoRow(
                volume=name,
                local_days=retention_days_local(profile, scenario),
                local_compressed_days=retention_days_local_compressed(profile, scenario),
                rssd_days=retention_days_rssd(profile, scenario),
            )
        )
    return rows
