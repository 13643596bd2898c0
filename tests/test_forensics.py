"""Unit tests for the post-attack forensics & point-in-time recovery package."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.api import provision_environment
from repro.attacks.classic import ClassicRansomware, DestructionMode
from repro.attacks.trimming_attack import TrimmingAttack
from repro.campaign import registries
from repro.core.config import RSSDConfig
from repro.core.rssd import RSSD
from repro.forensics import (
    ForensicsEngine,
    OperationTimeline,
    TraceRecorder,
    reference_image,
)
from repro.sim import SimClock
from repro.ssd.device import SSD, HostOpType
from repro.ssd.flash import PageContent


def make_content(tag: int, entropy: float = 3.0) -> PageContent:
    return PageContent.synthetic(
        fingerprint=tag, length=4096, entropy=entropy, compress_ratio=0.5
    )


def attacked_rssd(attack_cls=TrimmingAttack, drain: bool = True):
    """A tiny RSSD that lived through a seeded attack, plus ground truth."""
    rssd = RSSD(config=RSSDConfig.tiny())
    recorder = TraceRecorder()
    rssd.ssd.add_observer(recorder)
    env = provision_environment(rssd, victim_files=10, file_size_bytes=8192, seed=5)
    registries.office_edit_activity(env, random.Random(7), 4.0, 0.3)
    outcome = attack_cls(seed=3).execute(env)
    if drain:
        rssd.drain_offload_queue()
    return rssd, recorder, outcome


# ---------------------------------------------------------------------------
# Timeline reconstruction
# ---------------------------------------------------------------------------


class TestTimeline:
    def test_multi_page_entries_expand_to_per_page_events(self, rssd):
        rssd.write_batch(4, [make_content(1), make_content(2), make_content(3)])
        timeline = OperationTimeline.from_oplog(rssd.oplog)
        assert [event.lba for event in timeline.events] == [4, 5, 6]
        # Only the first page of an aggregated write carries its hash.
        assert timeline.events[0].exact_fingerprint
        assert timeline.events[0].fingerprint == 1
        assert not timeline.events[1].exact_fingerprint
        assert timeline.events[1].fingerprint is None

    def test_governing_event_and_state_at_follow_write_trim_order(self, rssd):
        rssd.write(0, make_content(10))
        t_written = rssd.clock.now_us
        rssd.clock.advance(50)
        rssd.write(0, make_content(11))
        t_overwritten = rssd.clock.now_us
        rssd.clock.advance(50)
        rssd.trim(0, 1)
        timeline = OperationTimeline.from_oplog(rssd.oplog, rssd.retention)
        history = timeline.history(0)
        assert history.writes == 2 and history.trims == 1
        assert history.state_at(t_written) == 10
        assert history.state_at(t_overwritten) == 11
        assert history.state_at(rssd.clock.now_us) is None
        assert history.governing_event(t_written).op_type is HostOpType.WRITE
        assert timeline.image_at(t_overwritten)[0] == 11

    def test_timeline_includes_retained_versions(self, rssd):
        rssd.write(3, make_content(21))
        rssd.clock.advance(10)
        rssd.write(3, make_content(22))
        timeline = OperationTimeline.from_oplog(rssd.oplog, rssd.retention)
        versions = timeline.history(3).versions
        assert [v.fingerprint for v in versions] == [21]
        assert versions[0].offloaded in (False, True)

    def test_empty_log_yields_empty_verified_timeline(self, rssd):
        timeline = OperationTimeline.from_oplog(rssd.oplog, rssd.retention)
        assert timeline.events == []
        assert timeline.chain_verified
        assert timeline.lbas() == []
        assert timeline.span_us == 0
        assert timeline.image_at(10**12) == {}


# ---------------------------------------------------------------------------
# Chain tampering
# ---------------------------------------------------------------------------


class TestChainTampering:
    def test_tampered_entry_breaks_verification(self):
        rssd, _, _ = attacked_rssd()
        segment = rssd.oplog.sealed_segments()[0]
        original = segment.entries[4]
        segment.entries[4] = dataclasses.replace(original, fingerprint=0xBAD)
        timeline = OperationTimeline.from_oplog(rssd.oplog, rssd.retention)
        assert not timeline.chain_verified
        # Tampering is localised to the containing checkpoint interval
        # (tiny config checkpoints every 16 entries, so the divergence
        # surfaces at the first checkpoint at or after the bad entry).
        assert timeline.tampered_at is not None
        assert 4 <= timeline.tampered_at < 16

        engine = ForensicsEngine(rssd)
        status = engine.verify_chain()
        assert not status.chain_verified and not status.trustworthy
        assert any("oplog-chain-mismatch" in error for error in status.errors())

    def test_clean_chain_verifies_with_no_errors(self):
        rssd, _, _ = attacked_rssd()
        status = ForensicsEngine(rssd).verify_chain()
        assert status.chain_verified and status.remote_time_order_ok
        assert status.trustworthy and status.errors() == []

    def test_remote_order_violation_is_a_structured_error(self):
        rssd, _, _ = attacked_rssd()
        segments = rssd.remote.server._segments
        assert len(segments) >= 2, "scenario must offload at least two capsules"
        segments[0], segments[-1] = segments[-1], segments[0]
        status = ForensicsEngine(rssd).verify_chain()
        assert status.remote_time_order_ok is False and not status.trustworthy
        assert any("remote-time-order-violation" in error for error in status.errors())


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


class TestClassification:
    @pytest.mark.parametrize(
        "attack_factory, expected_pattern",
        [
            (lambda: ClassicRansomware(destruction=DestructionMode.OVERWRITE, seed=3),
             "encrypt-overwrite"),
            (lambda: TrimmingAttack(seed=3), "encrypt-then-trim"),
        ],
    )
    def test_patterns(self, attack_factory, expected_pattern):
        rssd = RSSD(config=RSSDConfig.tiny())
        env = provision_environment(rssd, victim_files=10, file_size_bytes=8192, seed=5)
        registries.office_edit_activity(env, random.Random(7), 4.0, 0.3)
        outcome = attack_factory().execute(env)
        classification = ForensicsEngine(rssd).classify()
        assert classification.pattern == expected_pattern
        assert classification.malicious_streams == outcome.malicious_streams
        assert classification.first_malicious_us is not None
        assert classification.first_malicious_us >= outcome.start_us
        assert classification.last_malicious_us <= outcome.end_us
        # The blast radius covers at least every victim page.
        assert classification.blast_radius_pages >= len(outcome.victim_lbas)
        assert classification.blast_radius_bytes == (
            classification.blast_radius_pages * rssd.page_size
        )

    def test_no_attack_classifies_as_none(self, rssd):
        env = provision_environment(rssd, victim_files=6, file_size_bytes=8192, seed=5)
        registries.office_edit_activity(env, random.Random(7), 2.0, 0.3)
        classification = ForensicsEngine(rssd).classify()
        assert classification.pattern == "none"
        assert not classification.attack_found
        assert classification.blast_radius_pages == 0


# ---------------------------------------------------------------------------
# Point-in-time recovery
# ---------------------------------------------------------------------------


class TestPointInTimeRecovery:
    def test_rebuild_matches_reference_replay_of_trace_prefix(self):
        rssd, recorder, outcome = attacked_rssd()
        engine = ForensicsEngine(rssd)
        target_us = outcome.start_us
        image = engine.recover_to(target_us)
        assert image.is_exact and image.pages_lost == 0
        reference = reference_image(recorder.ops, target_us)
        assert image.matches(reference)

    def test_rebuild_matches_device_level_replay_of_trace_prefix(self):
        """Replaying the recorded prefix on a fresh SSD gives the same image."""
        rssd, recorder, outcome = attacked_rssd()
        target_us = outcome.start_us
        image = ForensicsEngine(rssd).recover_to(target_us)

        fresh = SSD(geometry=rssd.config.geometry, clock=SimClock())
        for op in recorder.prefix(target_us):
            if op.op_type is HostOpType.WRITE:
                assert op.npages == 1, "campaign traffic is page-granular"
                fresh.write(op.lba, op.content)
            elif op.op_type is HostOpType.TRIM:
                fresh.trim(op.lba, op.npages)
        for lba, fingerprint in image.pages.items():
            live = fresh.read_content(lba)
            if fingerprint is None:
                assert live is None
            else:
                assert live is not None and live.fingerprint == fingerprint

    def test_intermediate_timestamps_recover_every_prefix(self):
        rssd, recorder, outcome = attacked_rssd(attack_cls=TrimmingAttack)
        engine = ForensicsEngine(rssd)
        timestamps = sorted({op.timestamp_us for op in recorder.ops})
        for target_us in timestamps[:: max(1, len(timestamps) // 8)]:
            image = engine.recovery().rebuild_image(target_us)
            assert image.matches(reference_image(recorder.ops, target_us)), (
                f"rebuild diverged from trace-prefix replay at t={target_us}"
            )

    def test_multi_page_batch_writes_compare_by_coverage(self):
        """Pages an aggregated write left hash-less still match the reference."""
        rssd = RSSD(config=RSSDConfig.tiny())
        recorder = TraceRecorder()
        rssd.ssd.add_observer(recorder)
        rssd.write_batch(0, [make_content(1), make_content(2), make_content(3)])
        rssd.clock.advance(10)
        target_us = rssd.clock.now_us
        rssd.clock.advance(10)
        rssd.write_batch(0, [make_content(9), make_content(9), make_content(9)])
        image = ForensicsEngine(rssd).recover_to(target_us)
        assert sorted(image.pages) == [0, 1, 2]
        # Only the first page of the batch carries evidence; the rest
        # recover by timestamp and are flagged unverified, not divergent.
        assert image.unverified == [1, 2]
        assert not image.is_exact
        assert image.matches(reference_image(recorder.ops, target_us))

    def test_partial_offload_still_recovers_from_local_copies(self):
        rssd, recorder, outcome = attacked_rssd(drain=False)
        assert rssd.retention.pending_pages >= 0
        image = ForensicsEngine(rssd).recover_to(outcome.start_us)
        assert image.is_exact
        assert image.matches(reference_image(recorder.ops, outcome.start_us))

    def test_destroyed_unoffloaded_version_is_reported_lost(self):
        rssd, _, outcome = attacked_rssd(attack_cls=TrimmingAttack)
        # Simulate a misconfigured retention ablation: one victim page's
        # archived versions were physically destroyed before offload.
        victim = outcome.victim_lbas[0]
        versions = rssd.retention._archive[victim]
        assert versions, "victim page must have archived versions"
        for record in versions:
            record.released = True
            record.offloaded = False
        image = ForensicsEngine(rssd).recover_to(outcome.start_us)
        assert victim in image.lost
        assert not image.is_exact

    def test_remote_only_pages_count_as_remote_recoveries(self):
        rssd, _, outcome = attacked_rssd()
        victim = outcome.victim_lbas[0]
        for record in rssd.retention._archive[victim]:
            assert record.offloaded, "drained scenario must have offloaded versions"
            record.released = True  # local copy reclaimed by GC
        image = ForensicsEngine(rssd).recover_to(outcome.start_us)
        assert victim in image.recovered_remote
        assert image.is_exact

    def test_simulated_fetch_accounts_recovery_time(self):
        rssd, _, outcome = attacked_rssd()
        victim = outcome.victim_lbas[0]
        for record in rssd.retention._archive[victim]:
            record.released = True
        engine = ForensicsEngine(rssd)
        before = rssd.clock.now_us
        image = engine.recover_to(outcome.start_us, simulate_fetch=True)
        assert image.recovered_remote
        assert image.duration_us > 0
        assert rssd.clock.now_us > before

    def test_apply_writes_image_back_to_device(self):
        rssd, _, outcome = attacked_rssd(attack_cls=TrimmingAttack)
        engine = ForensicsEngine(rssd)
        image = engine.recover_to(outcome.start_us)
        # Pages whose live copy already is the target version are left
        # alone; only the others are rewritten.
        stale = [
            lba
            for lba, content in image.contents.items()
            if rssd.read_content(lba) is None
            or rssd.read_content(lba).fingerprint != content.fingerprint
        ]
        assert stale
        written = engine.recovery().apply(image)
        assert written == len(stale)
        for lba, fingerprint in image.pages.items():
            live = rssd.read_content(lba)
            if fingerprint is None:
                assert live is None
            else:
                assert live is not None and live.fingerprint == fingerprint

    @pytest.mark.parametrize("attack_cls", [ClassicRansomware, TrimmingAttack])
    def test_apply_trims_pages_first_written_after_target(self, attack_cls):
        rssd, recorder, outcome = attacked_rssd(attack_cls=attack_cls)
        target_us = outcome.start_us
        before = reference_image(recorder.ops, target_us)
        written = {
            op.lba + offset
            for op in recorder.ops
            if op.op_type is HostOpType.WRITE
            for offset in range(max(1, op.npages))
        }
        created_after = written - set(before)
        assert created_after, "the ransom note is written after the target"
        engine = ForensicsEngine(rssd)
        image = engine.recover_to(target_us)
        assert created_after <= set(image.created_after)
        engine.recovery().apply(image)
        for lba in sorted(created_after):
            assert rssd.read_content(lba) is None, lba

    def test_empty_log_recovers_nothing(self, rssd):
        engine = ForensicsEngine(rssd)
        image = engine.recover_to(10**12)
        assert image.pages == {} and image.is_exact
        assert engine.snapshots() == []


# ---------------------------------------------------------------------------
# Snapshots & the combined report
# ---------------------------------------------------------------------------


class TestSnapshotsAndReport:
    def test_snapshots_cover_sealed_segments_and_log_head(self):
        rssd = RSSD(config=RSSDConfig.tiny())  # seals every 32 entries
        for index in range(70):
            rssd.write(index % 16, make_content(index))
            rssd.clock.advance(5)
        snapshots = ForensicsEngine(rssd).snapshots()
        seals = [snap for snap in snapshots if snap.kind == "segment-seal"]
        assert len(seals) == rssd.oplog.sealed_segment_count == 2
        assert snapshots[-1].kind == "log-head"
        assert [snap.timestamp_us for snap in snapshots] == sorted(
            snap.timestamp_us for snap in snapshots
        )

    def test_investigate_roundtrips_through_canonical_json(self):
        rssd, _, _ = attacked_rssd()
        report = ForensicsEngine(rssd).investigate()
        from repro.forensics import ForensicReport

        clone = ForensicReport.from_json(report.to_json())
        assert clone == report
        assert clone.to_json() == report.to_json()

    def test_investigate_without_attack_has_empty_recovery_section(self, rssd):
        rssd.write(0, make_content(1))
        report = ForensicsEngine(rssd).investigate()
        assert report.pattern == "none"
        assert report.recovery_target_us is None
        assert report.pages_recovered == 0 and report.recovery_exact
