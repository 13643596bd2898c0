"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the ``repro`` layers *from outside*:
each boundary in :data:`BOUNDARIES` names a class attribute or module
global, and :meth:`Tracer.install` swaps it for a wrapper at the place
callers look it up (so a ``from x import f`` alias elsewhere is a
separate boundary, and the harness self-test checks every declared
boundary fires).  Nothing under ``src/`` changes.

Each call records a span -- boundary, start, end, parent span, run id --
and its *self time*: its duration minus the time its child spans cover.
Aggregates (calls, inclusive and self time per boundary) are kept for
every call; the raw span log is optional and bounded, because a single
``trace-hm`` cell makes about a million calls.

Counters are deterministic work counts: some come from boundary hooks
(bytes hashed, records replayed), the rest are read from the layers'
own statistics objects (``DeviceMetrics``, ``RetentionStats``,
``OffloadStats``, ``LinkStats``, ``EventBus.published_counts``) when a
scenario finishes, see :func:`harvest_device` and :func:`harvest_session`.
"""

from __future__ import annotations

import importlib
import itertools
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

REPLAY = "replay-bursty"
CELL = "cell-trace-hm"
CAMPAIGN = "campaign-table1"

#: Root span of every timed unit (and every setup repetition); its self
#: time is the harness's own share plus any code no boundary covers.
ROOT_METRIC = "bench.self_s"

Hook = Callable[["Tracer", tuple, object], None]


def _bytes_arg(key: str, position: int = 1) -> Hook:
    """Hook adding ``len(args[position])`` to counter ``key``."""

    def hook(tracer: "Tracer", args: tuple, result: object) -> None:
        tracer.counters[key] += len(args[position])

    return hook


def _replay_result(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counters["workloads.trace_records"] += result.records_replayed
    tracer.counters["workloads.device_calls"] += result.device_calls


def _session_run(tracer: "Tracer", args: tuple, result) -> None:
    harvest_session(tracer.counters, args[0])


def _timeline(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counters["forensics.timeline_events"] += len(result.events)


def _rebuild(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counters["forensics.rebuild_pages"] += result.pages_recovered


def _compress(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counters["crypto.compress_bytes"] += result.original_size


#: Every traced boundary: ``(target, time metric, workloads it must fire
#: on, hook)``.  ``target`` is ``module:Class.attr`` or ``module:name``;
#: the layer is the metric's prefix.  Self times of all boundaries that
#: share a metric add up.  An empty workload tuple means the boundary is
#: wrapped for completeness but no benchmark workload reaches it.
BOUNDARIES: List[Tuple[str, str, Tuple[str, ...], Optional[Hook]]] = [
    # -- workloads: trace generation and replay ----------------------------
    ("repro.workloads.synthetic:BurstyWorkload.generate", "workloads.trace_gen_s", (REPLAY,), None),
    ("repro.workloads.synthetic:profile_workload", "workloads.trace_gen_s", (CELL,), None),
    ("repro.workloads.replay:TraceReplayer.replay", "workloads.replay_self_s", (CELL,), _replay_result),
    ("repro.workloads.replay:BatchTraceReplayer.replay", "workloads.replay_self_s", (REPLAY,), _replay_result),
    # -- ssd: host interface, GC -------------------------------------------
    ("repro.ssd.device:SSD.read", "ssd.host_io_self_s", (CELL, CAMPAIGN), None),
    ("repro.ssd.device:SSD.write", "ssd.host_io_self_s", (CELL, CAMPAIGN), None),
    ("repro.ssd.device:SSD.trim", "ssd.host_io_self_s", (CAMPAIGN,), None),
    ("repro.ssd.device:SSD.read_batch", "ssd.host_io_self_s", (REPLAY,), None),
    ("repro.ssd.device:SSD.write_batch", "ssd.host_io_self_s", (REPLAY,), None),
    ("repro.ssd.device:SSD.trim_range", "ssd.host_io_self_s", (REPLAY,), None),
    ("repro.ssd.gc:GarbageCollector.collect", "ssd.gc_collect_s", (CELL, CAMPAIGN), None),
    # -- core: retention, offload, oplog, trim handler, detectors ----------
    ("repro.core.retention:RetentionManager.on_invalidate", "core.retention_s", (REPLAY, CELL, CAMPAIGN), None),
    ("repro.core.retention:RetentionManager.may_release", "core.retention_s", (CELL,), None),
    ("repro.core.retention:RetentionManager.count_releasable", "core.retention_s", (CELL,), None),
    ("repro.core.retention:RetentionManager.on_release", "core.retention_s", (CELL,), None),
    ("repro.core.retention:RetentionManager.reclaim_pressure", "core.retention_s", (CAMPAIGN,), None),
    ("repro.core.offload:OffloadEngine.drain_all", "core.offload_s", (REPLAY, CELL, CAMPAIGN), None),
    ("repro.core.offload:OffloadEngine.drain", "core.offload_s", (REPLAY, CELL, CAMPAIGN), None),
    ("repro.core.offload:OffloadEngine.offload_log_segments", "core.offload_s", (REPLAY, CELL, CAMPAIGN), None),
    ("repro.core.oplog:OperationLog.on_host_op", "core.oplog_append_s", (REPLAY, CELL, CAMPAIGN), None),
    ("repro.core.trim_handler:EnhancedTrimHandler.trim", "core.trim_handler_s", (CAMPAIGN,), None),
    ("repro.core.trim_handler:EnhancedTrimHandler.trim_range", "core.trim_handler_s", (REPLAY,), None),
    ("repro.core.detection:LocalDetector.on_host_op", "core.detector_s", (REPLAY, CELL, CAMPAIGN), None),
    ("repro.core.detection:RemoteDetector.analyze", "core.detector_s", (CELL, CAMPAIGN), None),
    # -- crypto: hash chain, entropy, cipher, compression ------------------
    ("repro.crypto.hashing:HashChain.append", "crypto.hash_chain_s", (REPLAY, CELL, CAMPAIGN), _bytes_arg("crypto.chain_bytes")),
    ("repro.crypto.hashing:HashChain.verify", "crypto.hash_chain_s", (REPLAY, CELL, CAMPAIGN), None),
    ("repro.ssd.flash:shannon_entropy", "crypto.entropy_s", (CELL, CAMPAIGN), _bytes_arg("crypto.entropy_bytes", 0)),
    ("repro.crypto.entropy:shannon_entropy", "crypto.entropy_s", (), _bytes_arg("crypto.entropy_bytes", 0)),
    ("repro.crypto.cipher:StreamCipher.encrypt", "crypto.cipher_s", (CELL, CAMPAIGN), _bytes_arg("crypto.cipher_bytes")),
    ("repro.crypto.compression:CompressionModel.compress_pages", "crypto.compress_s", (REPLAY, CELL, CAMPAIGN), _compress),
    # -- nvmeoe: NIC and remote tier ---------------------------------------
    ("repro.nvmeoe.nic:EmbeddedNIC.send_capsule", "nvmeoe.nic_send_s", (REPLAY, CELL, CAMPAIGN), None),
    ("repro.nvmeoe.remote:TieredRemote.store_capsule", "nvmeoe.remote_store_s", (REPLAY, CELL, CAMPAIGN), None),
    # -- host: file system and block layer ---------------------------------
    ("repro.host.filesystem:SimpleFS.populate", "host.fs_populate_s", (CELL, CAMPAIGN), None),
    ("repro.host.filesystem:SimpleFS.read_file", "host.fs_ops_s", (CELL, CAMPAIGN), None),
    ("repro.host.filesystem:SimpleFS.overwrite_file", "host.fs_ops_s", (CELL, CAMPAIGN), None),
    ("repro.host.filesystem:SimpleFS.delete_file", "host.fs_ops_s", (CAMPAIGN,), None),
    ("repro.host.blockdev:HostBlockDevice.read_bytes", "host.blockdev_read_s", (CELL, CAMPAIGN), None),
    ("repro.host.blockdev:HostBlockDevice.write_bytes", "host.blockdev_write_s", (CELL, CAMPAIGN), _bytes_arg("host.bytes_written", 2)),
    # -- attacks ------------------------------------------------------------
    ("repro.attacks.classic:ClassicRansomware.execute", "attacks.execute_s", (CELL, CAMPAIGN), None),
    ("repro.attacks.gc_attack:GCAttack.execute", "attacks.execute_s", (CAMPAIGN,), None),
    ("repro.attacks.timing_attack:TimingAttack.execute", "attacks.execute_s", (CAMPAIGN,), None),
    ("repro.attacks.trimming_attack:TrimmingAttack.execute", "attacks.execute_s", (CAMPAIGN,), None),
    # -- defenses: retention checks, detectors, host-op observers ----------
    ("repro.defenses.base:SelectiveRetentionPolicy.may_release", "defenses.retention_check_s", (CAMPAIGN,), None),
    ("repro.defenses.base:Defense.detect", "defenses.detect_s", (CAMPAIGN,), None),
    ("repro.defenses.software:UnveilDefense.detect", "defenses.detect_s", (CAMPAIGN,), None),
    ("repro.defenses.software:CryptoDropDefense.detect", "defenses.detect_s", (CAMPAIGN,), None),
    ("repro.defenses.software:ShieldFSDefense.detect", "defenses.detect_s", (CAMPAIGN,), None),
    ("repro.defenses.ssdinsider:SSDInsiderDefense.detect", "defenses.detect_s", (CAMPAIGN,), None),
    ("repro.defenses.rblocker:RBlockerDefense.detect", "defenses.detect_s", (CAMPAIGN,), None),
    ("repro.defenses.rssd_adapter:RSSDDefense.detect", "defenses.detect_s", (CELL, CAMPAIGN), None),
    ("repro.defenses.software:UnveilDefense.on_host_op", "defenses.observe_s", (CAMPAIGN,), None),
    ("repro.defenses.software:CryptoDropDefense.on_host_op", "defenses.observe_s", (CAMPAIGN,), None),
    ("repro.defenses.software:CloudBackupDefense.on_host_op", "defenses.observe_s", (CAMPAIGN,), None),
    ("repro.defenses.software:ShieldFSDefense.on_host_op", "defenses.observe_s", (CAMPAIGN,), None),
    ("repro.defenses.software:JournalingFSDefense.on_host_op", "defenses.observe_s", (CAMPAIGN,), None),
    ("repro.defenses.ssdinsider:SSDInsiderDefense.on_host_op", "defenses.observe_s", (CAMPAIGN,), None),
    ("repro.defenses.flashguard:FlashGuardDefense.on_host_op", "defenses.observe_s", (CAMPAIGN,), None),
    ("repro.defenses.rblocker:RBlockerDefense.on_host_op", "defenses.observe_s", (CAMPAIGN,), None),
    # -- forensics ------------------------------------------------------------
    ("repro.forensics.timeline:OperationTimeline.from_oplog", "forensics.timeline_s", (CELL, CAMPAIGN), _timeline),
    ("repro.forensics.pitr:PointInTimeRecovery.rebuild_image", "forensics.rebuild_s", (CELL, CAMPAIGN), _rebuild),
    ("repro.forensics.engine:ForensicsEngine.classify", "forensics.classify_s", (CELL, CAMPAIGN), None),
    ("repro.forensics.engine:ForensicsEngine.verify_chain", "forensics.verify_chain_s", (CELL, CAMPAIGN), None),
    ("repro.forensics.pitr:TraceRecorder.on_host_op", "forensics.recorder_s", (CELL, CAMPAIGN), None),
    ("repro.api.session:reference_image", "forensics.reference_image_s", (CAMPAIGN,), None),
    # -- api: the session facade and its event bus --------------------------
    ("repro.api.session:Session.provision", "api.provision_s", (CELL, CAMPAIGN), None),
    ("repro.api.session:Session.run", "api.session_self_s", (CELL, CAMPAIGN), _session_run),
    ("repro.api.events:EventBus.publish", "api.event_bus_s", (CELL, CAMPAIGN), None),
    # -- campaign: spec hashing, result cache, journal, engine ---------------
    ("repro.api.spec:ScenarioSpec.spec_hash", "campaign.spec_hash_s", (CAMPAIGN,), None),
    ("repro.campaign.cache:ResultCache.get", "campaign.cache_get_s", (CAMPAIGN,), None),
    ("repro.campaign.cache:ResultCache.put", "campaign.cache_put_s", (CAMPAIGN,), None),
    ("repro.campaign.checkpoint:CheckpointJournal.start", "campaign.journal_append_s", (CAMPAIGN,), None),
    ("repro.campaign.checkpoint:CheckpointJournal.append_cell", "campaign.journal_append_s", (CAMPAIGN,), None),
    ("repro.campaign.results:CellResult.from_dict", "campaign.decode_s", (CAMPAIGN,), None),
    ("repro.campaign.cache:map_with_cache", "campaign.engine_self_s", (CAMPAIGN,), None),
    ("repro.campaign.engine:run_campaign", "campaign.engine_self_s", (CAMPAIGN,), None),
]

#: Boundaries whose calls are counted under a per-layer count metric.
CALL_COUNTERS: Dict[str, str] = {
    "repro.ssd.device:SSD.write": "ssd.write_calls",
    "repro.ssd.device:SSD.read": "ssd.read_calls",
    "repro.ssd.device:SSD.trim": "ssd.trim_calls",
    "repro.ssd.device:SSD.read_batch": "ssd.batch_calls",
    "repro.ssd.device:SSD.write_batch": "ssd.batch_calls",
    "repro.ssd.device:SSD.trim_range": "ssd.batch_calls",
    "repro.core.detection:LocalDetector.on_host_op": "core.detector_ops",
    "repro.crypto.hashing:HashChain.append": "crypto.chain_appends",
    "repro.nvmeoe.nic:EmbeddedNIC.send_capsule": "nvmeoe.capsules",
    "repro.attacks.classic:ClassicRansomware.execute": "attacks.execute_calls",
    "repro.attacks.gc_attack:GCAttack.execute": "attacks.execute_calls",
    "repro.attacks.timing_attack:TimingAttack.execute": "attacks.execute_calls",
    "repro.attacks.trimming_attack:TrimmingAttack.execute": "attacks.execute_calls",
    "repro.api.session:Session.provision": "api.provision_calls",
    "repro.api.spec:ScenarioSpec.spec_hash": "campaign.spec_hash_calls",
    "repro.campaign.checkpoint:CheckpointJournal.start": "campaign.journal_fsyncs",
    "repro.campaign.checkpoint:CheckpointJournal.append_cell": "campaign.journal_fsyncs",
}

#: Boundaries whose inclusive per-call durations are kept as samples.
SAMPLED = {"repro.ssd.device:SSD.write": "ssd.write_call"}

#: Every deterministic work counter a traced unit reports (0 when the
#: workload never reaches the layer): boundary hooks, call counts and
#: the harvested statistics objects.
COUNTERS = (
    "workloads.trace_records", "workloads.device_calls",
    "ssd.write_calls", "ssd.read_calls", "ssd.trim_calls", "ssd.batch_calls",
    "ssd.gc_invocations", "ssd.gc_pages_relocated", "ssd.gc_stale_pages_released",
    "ssd.flash_blocks_erased", "ssd.flash_pages_programmed", "ssd.flash_pages_read",
    "ssd.host_pages_written",
    "core.retention_stale_seen", "core.retention_relocations", "core.pressure_evicted",
    "core.data_loss_pages", "core.offload_pages", "core.page_capsules", "core.log_capsules",
    "core.offload_raw_bytes", "core.offload_wire_bytes", "core.oplog_entries",
    "core.detector_ops",
    "crypto.chain_appends", "crypto.chain_bytes", "crypto.entropy_bytes",
    "crypto.cipher_bytes", "crypto.compress_bytes",
    "nvmeoe.capsules", "nvmeoe.wire_bytes",
    "host.bytes_written",
    "attacks.execute_calls",
    "forensics.timeline_events", "forensics.rebuild_pages",
    "api.provision_calls", "api.events_seen",
    "campaign.spec_hash_calls", "campaign.cache_hits", "campaign.cache_misses",
    "campaign.cache_stale", "campaign.cache_stores", "campaign.journal_fsyncs",
)


def harvest_device(counters: Dict[str, int], device: object) -> None:
    """Add one finished device's work counters (an ``SSD`` or an ``RSSD``)."""
    raw = getattr(device, "ssd", device)
    metrics = raw.metrics
    for name in (
        "gc_invocations",
        "gc_pages_relocated",
        "gc_stale_pages_released",
        "flash_blocks_erased",
        "flash_pages_programmed",
        "flash_pages_read",
        "host_pages_written",
    ):
        counters[f"ssd.{name}"] += getattr(metrics, name)
    retention = getattr(device, "retention", None)
    offload = getattr(device, "offload", None)
    if retention is None or offload is None:
        return
    stats = retention.stats
    counters["core.retention_stale_seen"] += stats.stale_pages_seen
    counters["core.retention_relocations"] += stats.relocations
    counters["core.pressure_evicted"] += stats.pages_pressure_evicted
    counters["core.data_loss_pages"] += stats.data_loss_pages
    shipped = offload.stats
    counters["core.offload_pages"] += shipped.pages_offloaded
    counters["core.page_capsules"] += shipped.page_capsules
    counters["core.log_capsules"] += shipped.log_capsules
    counters["core.offload_raw_bytes"] += shipped.raw_bytes
    counters["core.offload_wire_bytes"] += shipped.wire_bytes
    counters["nvmeoe.wire_bytes"] += device.link.stats.wire_bytes_sent
    counters["core.oplog_entries"] += device.oplog.total_entries


def harvest_session(counters: Dict[str, int], session: object) -> None:
    """Add a finished :class:`~repro.api.session.Session`'s work counters."""
    defense = session.defense
    harvest_device(counters, getattr(defense, "rssd", defense.device))
    counters["api.events_seen"] += sum(session.bus.published_counts.values())


def _resolve(target: str) -> Tuple[object, str]:
    """The object holding ``target``'s attribute, and the attribute name."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Span aggregation over the wrapped boundaries.

    ``span_limit`` bounds the raw span log kept for ``--trace-out``
    (0 keeps none); aggregates always cover every call.  Index 0 of the
    per-boundary lists is the root span.
    """

    def __init__(self, span_limit: int = 0) -> None:
        self.targets = [ROOT_METRIC] + [target for target, _, _, _ in BOUNDARIES]
        self.metrics = [ROOT_METRIC] + [metric for _, metric, _, _ in BOUNDARIES]
        size = len(self.targets)
        self.calls = [0] * size
        self.total_s = [0.0] * size
        self.self_s = [0.0] * size
        self.counters: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.run_id = 0
        self._stack: List[list] = []
        self._originals: List[Tuple[object, str, object]] = []
        self._span_ids = itertools.count(1)
        self.span_limit = span_limit
        self.spans_dropped = 0
        self._span_cols = {
            key: array(code, [])
            for key, code in (
                ("boundary", "i"), ("start", "d"), ("end", "d"), ("span", "q"),
                ("parent", "q"), ("run", "i"),
            )
        }

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        """Swap every boundary for its tracing wrapper (idempotent)."""
        if self._originals:
            return
        for index, (target, _, _, hook) in enumerate(BOUNDARIES, start=1):
            owner, attr = _resolve(target)
            # Class attributes are read from the defining class itself, so
            # a boundary naming an inherited method fails loudly.
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            sample_key = SAMPLED.get(target)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(index, raw.__func__, hook, sample_key))
            else:
                wrapped = self._wrap(index, raw, hook, sample_key)
            self._originals.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, raw in reversed(self._originals):
            setattr(owner, attr, raw)
        self._originals.clear()

    def _wrap(self, index: int, fn: Callable, hook: Optional[Hook], sample_key: Optional[str]):
        clock = time.perf_counter
        stack = self._stack
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        samples = self.samples[sample_key] if sample_key else None
        record = self._record_span if self.span_limit > 0 else None
        span_ids = self._span_ids

        def traced(*args, **kwargs):
            # frame: [time covered by child spans, span id, parent span id]
            frame = [0.0, next(span_ids), stack[-1][1] if stack else 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[index] += 1
                total_s[index] += duration
                self_s[index] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if samples is not None:
                    samples.append(duration)
                if record is not None:
                    record(index, start, end, frame)
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _record_span(self, index: int, start: float, end: float, frame: list) -> None:
        cols = self._span_cols
        if len(cols["start"]) >= self.span_limit:
            self.spans_dropped += 1
            return
        cols["boundary"].append(index)
        cols["start"].append(start)
        cols["end"].append(end)
        cols["span"].append(frame[1])
        cols["parent"].append(frame[2])
        cols["run"].append(self.run_id)

    # -- root spans -----------------------------------------------------------

    def root(self, fn: Callable[[], object]) -> object:
        """Run ``fn`` under a new root span (one timed unit or setup rep)."""
        self.run_id += 1
        return self._wrap(0, fn, None, None)()

    # -- reading --------------------------------------------------------------

    def snapshot(self) -> dict:
        """A copy of every aggregate, for per-unit deltas."""
        return {
            "calls": list(self.calls),
            "self_s": list(self.self_s),
            "total_s": list(self.total_s),
            "counters": dict(self.counters),
        }

    @staticmethod
    def delta(after: dict, before: dict) -> dict:
        """``after - before`` of two :meth:`snapshot` results."""
        return {
            "calls": [a - b for a, b in zip(after["calls"], before["calls"])],
            "self_s": [a - b for a, b in zip(after["self_s"], before["self_s"])],
            "total_s": [a - b for a, b in zip(after["total_s"], before["total_s"])],
            "counters": {
                key: value - before["counters"].get(key, 0)
                for key, value in after["counters"].items()
                if value - before["counters"].get(key, 0)
            },
        }

    def call_counts(self, delta: dict) -> Dict[str, int]:
        """The per-layer call-count metrics of one :meth:`delta`."""
        counts: Dict[str, int] = defaultdict(int)
        for target, counter in CALL_COUNTERS.items():
            counts[counter] += delta["calls"][self.targets.index(target)]
        return dict(counts)

    def spans(self) -> dict:
        """The bounded raw span log, column-wise, for ``--trace-out``."""
        cols = self._span_cols
        return {
            "boundaries": self.targets,
            "dropped": self.spans_dropped,
            **{key: column.tolist() for key, column in cols.items()},
        }
