"""The benchmark's workloads: inputs, timed unit, correctness checks.

Each workload drives the simulator only through public entry points
(``BatchTraceReplayer``, ``Session``, ``run_campaign``, ``ResultCache``)
and splits its work into four steps the runner times separately:

* ``setup()``   -- build the inputs from the seed (timed as set-up);
* ``prepare()`` -- per-unit state such as a fresh device (untimed);
* ``run()``     -- the timed unit, returning its output;
* ``check(out)``-- correctness checks, returning failure messages.

``digest(out)`` hashes the unit's simulated outcome (every deterministic
counter plus artifact bytes): every unit of a run, traced or not, must
produce the same digest, and a change that only speeds the simulator up
must leave it unchanged.  Sizes go through :func:`repro.bench.scaled`,
so ``REPRO_SMOKE=1`` shrinks them like the rest of ``benchmarks/``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import time
from collections import defaultdict
from typing import Dict, List

import repro.campaign.engine as campaign_engine
from repro.api import ScenarioSpec, Session
from repro.bench import scaled
from repro.campaign import CampaignGrid
from repro.campaign.cache import ResultCache, code_fingerprint
from repro.campaign.checkpoint import CheckpointJournal
from repro.core.config import RSSDConfig
from repro.core.rssd import RSSD
from repro.sim import percentile
from repro.ssd.geometry import SSDGeometry
from repro.workloads.records import TraceOp
from repro.workloads.replay import BatchTraceReplayer
from repro.workloads.synthetic import BurstyWorkload

from tracer import harvest_device


def _sha256(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _device_counters(device: object) -> Dict[str, int]:
    counters: Dict[str, int] = defaultdict(int)
    harvest_device(counters, device)
    return dict(counters)


class Workload:
    """Interface shared by the three workloads (see the module docstring)."""

    name = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Build the inputs (repeated; each repetition is timed)."""

    def prepare(self) -> None:
        """Per-unit preparation outside the timer."""

    def run(self) -> object:
        raise NotImplementedError

    def check(self, output: object) -> List[str]:
        raise NotImplementedError

    def digest(self, output: object) -> str:
        raise NotImplementedError

    def items(self, output: object) -> int:
        """Work items one unit completed, for the ``items_per_s`` metric."""
        raise NotImplementedError

    def harvest(self, counters: Dict[str, int], output: object) -> None:
        """Add work counters the tracer's hooks cannot see (traced runs)."""

    def release(self) -> None:
        """Drop the last unit's state before the next one (and at exit)."""

    def side(self, output: object) -> Dict[str, object]:
        """Small per-unit side measurements, kept after ``output`` is dropped."""
        return {}

    def extra(self, sides: List[Dict[str, object]]) -> Dict[str, object]:
        """Workload-specific summary of the untraced units' ``side`` values."""
        return {}


class ReplayBursty(Workload):
    """Batched replay of a bursty trace onto a fresh RSSD per pass.

    About half the device's pages are written, so GC never runs: time
    goes to replay grouping, content synthesis and the batched kernel
    path, with retention, oplog and offload riding along.
    """

    name = "replay-bursty"
    RECORDS = scaled(500_000, 20_000)
    GEOMETRY = dict(channels=4, chips_per_channel=2, blocks_per_chip=512, pages_per_block=64)
    #: ``ReplayResult`` fields counting each op's records and pages
    #: (``BurstyWorkload`` emits no flushes).
    RESULT_FIELDS = {
        TraceOp.WRITE: ("writes", "pages_written"),
        TraceOp.READ: ("reads", "pages_read"),
        TraceOp.TRIM: ("trims", "pages_trimmed"),
    }

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.geometry = SSDGeometry(**self.GEOMETRY)
        self.trace: list = []
        self.expected: Dict[str, int] = {}
        self.device = None

    def setup(self) -> None:
        self.trace = []
        self.trace = BurstyWorkload(
            self.geometry.exported_pages,
            write_fraction=0.25,
            read_fraction=0.70,
            burst_records=(64, 256),
            seed=self.seed,
        ).generate(self.RECORDS)
        expected: Dict[str, int] = dict.fromkeys(
            [name for fields in self.RESULT_FIELDS.values() for name in fields], 0
        )
        expected["records_replayed"] = len(self.trace)
        for record in self.trace:
            records, pages = self.RESULT_FIELDS[record.op]
            expected[records] += 1
            expected[pages] += max(1, record.npages)
        self.expected = expected

    def prepare(self) -> None:
        self.device = RSSD(RSSDConfig(geometry=self.geometry))

    def run(self) -> object:
        replayer = BatchTraceReplayer(self.device, max_batch_pages=256, honor_timestamps=False)
        return replayer.replay(self.trace)

    def check(self, output) -> List[str]:
        failures = []
        for field, want in self.expected.items():
            got = getattr(output, field)
            if got != want:
                failures.append(f"ReplayResult.{field} = {got}, trace has {want}")
        if self.device.data_loss_pages != 0:
            failures.append(f"data_loss_pages = {self.device.data_loss_pages}")
        if not self.device.oplog.verify_integrity():
            failures.append("oplog hash chain does not verify")
        return failures

    def digest(self, output) -> str:
        return _sha256(
            {
                "replay": dataclasses.asdict(output),
                "device": _device_counters(self.device),
                "oplog_head": self.device.oplog.chain.head.hex(),
            }
        )

    def items(self, output) -> int:
        return output.records_replayed

    def harvest(self, counters: Dict[str, int], output) -> None:
        harvest_device(counters, self.device)

    def release(self) -> None:
        self.device = None

    def side(self, output) -> Dict[str, object]:
        return {"device_calls": output.device_calls}

    def extra(self, sides: List[Dict[str, object]]) -> Dict[str, object]:
        calls = sides[0]["device_calls"] if sides else 0
        return {
            "trace_records": len(self.trace),
            "device_calls": calls,
            "coalescing_factor": len(self.trace) / calls if calls else 0.0,
        }


class CellTraceHm(Workload):
    """One RSSD/classic/trace-hm scenario on the tiny device per unit.

    The write-heavy hm trace replays per-op onto a 448-page device, so
    the per-op SSD path, FTL, GC, retention, offload, the oplog chain
    and forensic scoring do the work -- the cell that dominates fuzz
    sessions.
    """

    name = "cell-trace-hm"
    HOURS = scaled(0.5, 0.02)

    def setup(self) -> None:
        self.spec = ScenarioSpec(
            defense="RSSD",
            attack="classic",
            workload="trace-hm",
            device="tiny",
            victim_files=8,
            file_size_bytes=4096,
            user_activity_hours=self.HOURS,
            recent_edit_fraction=0.3,
            seed=self.seed,
        )
        self.session = None

    def run(self) -> object:
        self.session = Session(self.spec)
        self.session.run()
        return self.session

    def check(self, session) -> List[str]:
        result = session.result
        failures = []
        if result.exact_pages_lost != 0:
            failures.append(f"exact_pages_lost = {result.exact_pages_lost}")
        if result.integrity_errors:
            failures.append(f"integrity_errors = {result.integrity_errors}")
        if not result.remote_time_order_ok:
            failures.append("remote tier arrival order is broken")
        if session.defense.rssd.data_loss_pages != 0:
            failures.append(f"data_loss_pages = {session.defense.rssd.data_loss_pages}")
        if result.recovery_fraction != 1.0:
            failures.append(f"recovery_fraction = {result.recovery_fraction}")
        return failures

    def digest(self, session) -> str:
        return _sha256(
            {
                "cell": session.result.to_cell_result().to_dict(),
                "device": _device_counters(session.defense.rssd),
                "events": session.bus.published_counts,
            }
        )

    def items(self, session) -> int:
        return session.result.host_commands

    def release(self) -> None:
        self.session = None

    def side(self, session) -> Dict[str, object]:
        return {"gc_invocations": session.metrics().gc_invocations}

    def extra(self, sides: List[Dict[str, object]]) -> Dict[str, object]:
        return dict(sides[0]) if sides else {}


class CampaignTable1(Workload):
    """The default 11-defense x 4-attack Table-1 grid on ``tiny``.

    One unit is a cold pass into a fresh directory with a
    ``ResultCache`` and a ``CheckpointJournal`` (what ``repro campaign
    --cache-dir`` does) followed by a cache-only warm re-run of the
    same directory.  Cells carry real bytes, so host file system,
    entropy, cipher and the attacks do the work; the warm re-run
    isolates spec hashing, cache lookup and decode.
    """

    name = "campaign-table1"
    #: Smoke runs keep every defense on the classic column and a few
    #: rows of the other attacks: still every traced boundary, but only
    #: two of the slow gc-attack fills.
    FILTERS = scaled(
        None,
        [
            "*/classic/*",
            "RSSD/gc-attack/*",
            "FlashGuard/gc-attack/*",
            "RSSD/timing-attack/*",
            "RSSD/trimming-attack/*",
            "LocalSSD/trimming-attack/*",
        ],
    )

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.reference = None
        self.passes = 0
        self.pass_dir = None

    def setup(self) -> None:
        self.grid = CampaignGrid(
            victim_files=scaled(24, 4),
            file_size_bytes=scaled(8192, 4096),
            user_activity_hours=scaled(30.0, 2.0),
            seed=self.seed,
        )
        self.cells = len(self.grid.cells(self.FILTERS))
        # Opening a cache fingerprints the source tree once per process.
        code_fingerprint()

    def prepare(self) -> None:
        self.release()
        self.passes += 1
        self.pass_dir = os.path.join(self.workdir, f"pass-{self.passes}")
        os.makedirs(self.pass_dir)

    def run(self) -> object:
        cell_times: List[float] = []
        last = [time.perf_counter()]

        def after_cell(index, spec, result) -> None:
            now = time.perf_counter()
            cell_times.append(now - last[0])
            last[0] = now

        cold = campaign_engine.run_campaign(
            self.grid,
            filters=self.FILTERS,
            cache=ResultCache(os.path.join(self.pass_dir, "cache")),
            journal=CheckpointJournal(os.path.join(self.pass_dir, "journal.jsonl")),
            after_cell=after_cell,
        )
        warm_start = time.perf_counter()
        warm = campaign_engine.run_campaign(
            self.grid,
            filters=self.FILTERS,
            cache=ResultCache(os.path.join(self.pass_dir, "cache")),
        )
        return cold, warm, cell_times, time.perf_counter() - warm_start

    def check(self, output) -> List[str]:
        cold, warm = output[:2]
        failures = []
        cold_json = cold.to_json()
        if self.reference is None:
            self.reference = cold_json
        elif cold_json != self.reference:
            failures.append("cold artifact bytes differ from the first pass")
        if warm.to_json() != cold_json:
            failures.append("warm artifact bytes differ from the cold pass")
        expected_cold = {"hits": 0, "misses": self.cells, "stale": 0, "stores": self.cells}
        if cold.cache_stats.to_dict() != expected_cold:
            failures.append(f"cold cache stats {cold.cache_stats.to_dict()}")
        expected_warm = {"hits": self.cells, "misses": 0, "stale": 0, "stores": 0}
        if warm.cache_stats.to_dict() != expected_warm:
            failures.append(f"warm cache stats {warm.cache_stats.to_dict()}")
        return failures

    def digest(self, output) -> str:
        return hashlib.sha256(output[0].to_json().encode("utf-8")).hexdigest()

    def items(self, output) -> int:
        return len(output[0].cells)

    def harvest(self, counters: Dict[str, int], output) -> None:
        for artifact in output[:2]:
            for key, value in artifact.cache_stats.to_dict().items():
                counters[f"campaign.cache_{key}"] += value

    def release(self) -> None:
        if self.pass_dir is not None:
            shutil.rmtree(self.pass_dir, ignore_errors=True)
            self.pass_dir = None

    def side(self, output) -> Dict[str, object]:
        return {"cell_s": output[2], "warm_pass_s": output[3]}

    def extra(self, sides: List[Dict[str, object]]) -> Dict[str, object]:
        extra: Dict[str, object] = {"cells_per_pass": self.cells}
        if not sides:
            return extra
        ordered = sorted(value for side in sides for value in side["cell_s"])
        warm = statistics.median(side["warm_pass_s"] for side in sides)
        extra.update(
            cell_n=len(ordered),
            cell_p50_s=percentile(ordered, 0.5),
            cell_p90_s=percentile(ordered, 0.9),
            warm_pass_s=warm,
            warm_cells_per_s=self.cells / warm,
        )
        return extra


WORKLOADS = {cls.name: cls for cls in (ReplayBursty, CellTraceHm, CampaignTable1)}

#: The default seed of each workload, then a held-out seed for claims.
SEEDS = {"replay-bursty": (11, 12), "cell-trace-hm": (1, 2), "campaign-table1": (23, 24)}
