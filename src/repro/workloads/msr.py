"""MSR-Cambridge volume profiles.

The MSR-Cambridge traces (SNIA IOTTA) cover a week of block I/O from
enterprise servers.  The actual traces are not redistributable, so each
volume used by the paper's Figure 2 is represented by a
:class:`~repro.workloads.synthetic.VolumeProfile` calibrated to the
published per-volume characteristics: daily write volume, write/read
mix, request sizes and working-set skew.  Retention time is driven by
daily write volume and overwrite locality, which these profiles encode.
"""

from __future__ import annotations

from typing import Dict

from repro.workloads.synthetic import VolumeProfile

#: Per-volume statistical profiles (daily write volume in GB/day).
MSR_VOLUMES: Dict[str, VolumeProfile] = {
    "hm": VolumeProfile(
        name="hm",
        daily_write_gb=2.2,
        write_fraction=0.64,
        mean_request_pages=2,
        working_set_pages=250_000,
        zipf_theta=0.95,
        mean_entropy=4.1,
        mean_compress_ratio=0.42,
    ),
    "src": VolumeProfile(
        name="src",
        daily_write_gb=6.5,
        write_fraction=0.57,
        mean_request_pages=4,
        working_set_pages=600_000,
        zipf_theta=0.9,
        mean_entropy=4.6,
        mean_compress_ratio=0.5,
    ),
    "ts": VolumeProfile(
        name="ts",
        daily_write_gb=1.8,
        write_fraction=0.82,
        mean_request_pages=2,
        working_set_pages=150_000,
        zipf_theta=1.0,
        mean_entropy=3.8,
        mean_compress_ratio=0.4,
    ),
    "wdev": VolumeProfile(
        name="wdev",
        daily_write_gb=1.1,
        write_fraction=0.8,
        mean_request_pages=2,
        working_set_pages=120_000,
        zipf_theta=1.0,
        mean_entropy=3.9,
        mean_compress_ratio=0.38,
    ),
    "rsrch": VolumeProfile(
        name="rsrch",
        daily_write_gb=1.4,
        write_fraction=0.91,
        mean_request_pages=2,
        working_set_pages=110_000,
        zipf_theta=1.05,
        mean_entropy=4.0,
        mean_compress_ratio=0.41,
    ),
    "stg": VolumeProfile(
        name="stg",
        daily_write_gb=5.8,
        write_fraction=0.85,
        mean_request_pages=3,
        working_set_pages=500_000,
        zipf_theta=0.85,
        mean_entropy=4.4,
        mean_compress_ratio=0.47,
    ),
    "usr": VolumeProfile(
        name="usr",
        daily_write_gb=4.1,
        write_fraction=0.4,
        mean_request_pages=5,
        working_set_pages=900_000,
        zipf_theta=0.8,
        mean_entropy=4.8,
        mean_compress_ratio=0.55,
    ),
    "web": VolumeProfile(
        name="web",
        daily_write_gb=2.9,
        write_fraction=0.46,
        mean_request_pages=3,
        working_set_pages=400_000,
        zipf_theta=0.9,
        mean_entropy=4.5,
        mean_compress_ratio=0.5,
    ),
    "proj": VolumeProfile(
        name="proj",
        daily_write_gb=8.9,
        write_fraction=0.6,
        mean_request_pages=6,
        working_set_pages=1_200_000,
        zipf_theta=0.8,
        mean_entropy=4.7,
        mean_compress_ratio=0.52,
    ),
    "prn": VolumeProfile(
        name="prn",
        daily_write_gb=5.3,
        write_fraction=0.75,
        mean_request_pages=3,
        working_set_pages=450_000,
        zipf_theta=0.88,
        mean_entropy=4.3,
        mean_compress_ratio=0.46,
    ),
}
