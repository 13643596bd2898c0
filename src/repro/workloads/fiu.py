"""FIU (Florida International University) trace profiles.

The FIU IODedup traces cover end-user and departmental servers (mail,
web, research home directories).  As with the MSR volumes, the actual
traces cannot be redistributed, so each volume used by Figure 2 is
described by a calibrated :class:`VolumeProfile`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.workloads.synthetic import VolumeProfile

#: Per-volume statistical profiles for the FIU traces.
FIU_VOLUMES: Dict[str, VolumeProfile] = {
    "fiu-res": VolumeProfile(
        name="fiu-res",
        daily_write_gb=3.4,
        write_fraction=0.77,
        mean_request_pages=2,
        working_set_pages=300_000,
        zipf_theta=0.95,
        mean_entropy=4.2,
        mean_compress_ratio=0.44,
    ),
    "email": VolumeProfile(
        name="email",
        daily_write_gb=7.8,
        write_fraction=0.88,
        mean_request_pages=2,
        working_set_pages=700_000,
        zipf_theta=1.0,
        mean_entropy=4.9,
        mean_compress_ratio=0.58,
    ),
    "online": VolumeProfile(
        name="online",
        daily_write_gb=2.4,
        write_fraction=0.74,
        mean_request_pages=2,
        working_set_pages=220_000,
        zipf_theta=1.0,
        mean_entropy=4.3,
        mean_compress_ratio=0.45,
    ),
    "webusers": VolumeProfile(
        name="webusers",
        daily_write_gb=1.9,
        write_fraction=0.72,
        mean_request_pages=2,
        working_set_pages=180_000,
        zipf_theta=0.92,
        mean_entropy=4.4,
        mean_compress_ratio=0.47,
    ),
    "webresearch": VolumeProfile(
        name="webresearch",
        daily_write_gb=1.2,
        write_fraction=0.69,
        mean_request_pages=2,
        working_set_pages=140_000,
        zipf_theta=0.9,
        mean_entropy=4.1,
        mean_compress_ratio=0.43,
    ),
}


def figure2_volumes() -> List[str]:
    """The volume labels plotted in the paper's Figure 2, in order."""
    return [
        "hm",
        "src",
        "ts",
        "wdev",
        "rsrch",
        "stg",
        "usr",
        "fiu-res",
        "email",
        "online",
        "web",
        "webusers",
    ]
