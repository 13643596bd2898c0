"""Session lifecycle, typed event bus, and facade/engine equivalence."""

from __future__ import annotations

import pytest

from repro.api import (
    DetectionEvent,
    EventBus,
    GCEvent,
    HostOpEvent,
    OffloadEvent,
    RetentionEvictEvent,
    ScenarioSpec,
    Session,
    record_events,
)
from repro.campaign.engine import run_cell
from repro.campaign.grid import CampaignGrid
from repro.defenses.base import SelectiveRetentionPolicy
from repro.sim import SimClock
from repro.ssd.device import SSD
from repro.ssd.ftl import InvalidationCause, StalePage
from repro.ssd.geometry import SSDGeometry


def tiny_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        defense="RSSD",
        attack="trimming-attack",
        victim_files=6,
        user_activity_hours=2.0,
        seed=7,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestEventBus:
    def test_subscribe_publish_unsubscribe(self):
        bus = EventBus()
        seen = []
        subscription = bus.subscribe(DetectionEvent, seen.append)
        event = DetectionEvent(detector="x", detected=True, timestamp_us=1)
        bus.publish(event)
        bus.unsubscribe(subscription)
        bus.publish(event)
        assert seen == [event]
        assert bus.published_counts["DetectionEvent"] == 2

    def test_events_are_delivered_by_exact_type(self):
        bus = EventBus()
        detections, gcs = [], []
        bus.subscribe(DetectionEvent, detections.append)
        bus.subscribe(GCEvent, gcs.append)
        bus.publish(DetectionEvent(detector="x", detected=False, timestamp_us=None))
        assert len(detections) == 1 and gcs == []

    def test_non_callable_handler_is_rejected(self):
        with pytest.raises(TypeError):
            EventBus().subscribe(DetectionEvent, "not-callable")

    def test_record_events_defaults_to_all_types(self):
        bus = EventBus()
        events, subscriptions = record_events(bus)
        assert len(subscriptions) == 5
        bus.publish(DetectionEvent(detector="x", detected=True, timestamp_us=None))
        assert len(events) == 1


class TestDeviceTaps:
    def test_gc_listener_fires_on_collection(self):
        device = SSD(geometry=SSDGeometry.tiny(), clock=SimClock())
        passes = []
        device.gc_listeners.append(
            lambda result, timestamp_us, forced: passes.append((result, forced))
        )
        device.write(lba=0, data=b"x" * device.page_size)
        device.run_gc_now(force=True)
        assert passes and passes[-1][1] is True

    def test_retention_evict_listener_fires_on_capacity_pressure(self):
        clock = SimClock()
        policy = SelectiveRetentionPolicy(
            clock=clock, should_retain=lambda record: True, capacity_pages=1
        )
        evicted = []
        policy.evict_listeners.append(
            lambda record, cause, timestamp_us: evicted.append((record.lpn, cause))
        )

        def stale(lpn):
            from repro.ssd.flash import PageContent

            return StalePage(
                lpn=lpn,
                ppn=lpn,
                content=PageContent.synthetic(
                    fingerprint=lpn, length=4096, entropy=1.0, compress_ratio=0.5
                ),
                written_us=0,
                invalidated_us=0,
                cause=InvalidationCause.OVERWRITE,
                version=1,
            )

        policy.on_invalidate(stale(1))
        policy.on_invalidate(stale(2))
        assert evicted == [(1, "capacity")]

    def test_gc_pressure_evictions_are_published(self):
        clock = SimClock()
        policy = SelectiveRetentionPolicy(
            clock=clock,
            should_retain=lambda record: True,
            capacity_pages=10,
            pin_under_pressure=False,
        )
        causes = []
        policy.evict_listeners.append(
            lambda record, cause, timestamp_us: causes.append(cause)
        )
        from repro.ssd.flash import PageContent

        policy.on_invalidate(
            StalePage(
                lpn=1,
                ppn=1,
                content=PageContent.synthetic(
                    fingerprint=1, length=4096, entropy=1.0, compress_ratio=0.5
                ),
                written_us=0,
                invalidated_us=0,
                cause=InvalidationCause.OVERWRITE,
                version=1,
            )
        )
        released = policy.reclaim_pressure(ftl=None, needed_pages=1)
        assert released == 1 and causes == ["gc-pressure"]


class TestSessionLifecycle:
    def test_provision_then_run_then_result(self):
        session = Session(tiny_spec())
        assert not session.provisioned and not session.executed
        with pytest.raises(RuntimeError, match="not run yet"):
            _ = session.result
        session.provision()
        assert session.provisioned and session.defense is not None
        result = session.run()
        assert session.executed and session.result is result
        assert result.recovery_fraction == 1.0 and result.defended

    def test_run_provisions_on_demand_and_refuses_to_rerun(self):
        session = Session(tiny_spec())
        session.run()
        with pytest.raises(RuntimeError, match="already ran"):
            session.run()
        with pytest.raises(RuntimeError, match="already provisioned"):
            session.provision()

    def test_views_require_the_right_phase(self):
        session = Session(tiny_spec())
        with pytest.raises(RuntimeError, match="not provisioned"):
            session.metrics()
        with pytest.raises(RuntimeError, match="not provisioned"):
            session.forensics()
        session.run()
        assert session.metrics().host_commands > 0
        assert session.forensics() is not None

    def test_views_reflect_the_executed_scenario(self):
        session = Session(tiny_spec())
        result = session.run()
        metrics = session.metrics()
        assert metrics.host_commands == result.host_commands
        assert metrics.write_amplification == result.write_amplification
        detection = session.detection()
        assert detection.detected is result.detected
        assert detection.events  # RSSD publishes local + remote reports
        assert {event.detector for event in detection.events} == {
            "local-window",
            "remote-offloaded",
        }

    def test_geometry_override_breaks_spec_provenance(self):
        session = Session(tiny_spec(defense="LocalSSD"), geometry=SSDGeometry.tiny())
        result = session.run()
        assert result.spec is None
        with pytest.raises(ValueError, match="geometry override"):
            result.to_cell_result()
        with pytest.raises(ValueError, match="geometry override"):
            result.to_dict()

    def test_detection_time_and_latency_agree(self):
        """The view's time and latency derive from the same detector."""
        session = Session(tiny_spec())
        result = session.run()
        view = session.detection()
        if view.detection_time_us is not None:
            start = result.attack_outcome.start_us
            assert view.detection_time_us - start == view.detection_latency_us

    def test_forensics_view_is_none_without_evidence_chain(self):
        session = Session(tiny_spec(defense="LocalSSD"))
        session.run()
        assert session.forensics() is None


class TestSessionEvents:
    def test_host_ops_flow_through_the_bus(self):
        session = Session(tiny_spec())
        events, _ = record_events(session.bus, HostOpEvent)
        result = session.run()
        assert len(events) == result.host_commands
        timestamps = [event.timestamp_us for event in events]
        assert timestamps == sorted(timestamps)

    def test_offload_and_detection_events_for_rssd(self):
        session = Session(tiny_spec())
        events, _ = record_events(session.bus, OffloadEvent, DetectionEvent)
        session.run()
        offloads = [e for e in events if isinstance(e, OffloadEvent)]
        assert offloads and all(e.kind in ("pages", "log-segment") for e in offloads)
        assert all(e.wire_bytes > 0 for e in offloads)
        detections = [e for e in events if isinstance(e, DetectionEvent)]
        assert any(e.detected for e in detections)

    def test_subscriber_less_sessions_still_count_host_ops(self):
        """The hot-path fast path skips allocation, not accounting."""
        session = Session(tiny_spec(defense="LocalSSD"))
        result = session.run()
        assert session.bus.published_counts["HostOpEvent"] == result.host_commands
        assert session.bus.subscriber_count(HostOpEvent) == 0

    def test_bus_subscribers_do_not_change_results(self):
        """A listening session is bit-identical to a deaf one."""
        quiet = Session(tiny_spec()).run()
        noisy_session = Session(tiny_spec())
        record_events(noisy_session.bus)
        noisy = noisy_session.run()
        assert noisy.to_cell_result().to_dict() == quiet.to_cell_result().to_dict()


class TestPublicSurface:
    def test_every_promised_name_resolves_and_is_documented(self):
        """``repro.api.__all__`` is the semver promise; keep it honest."""
        import inspect

        import repro.api as api

        for name in api.__all__:
            obj = getattr(api, name)  # raises if a promised name is missing
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert (obj.__doc__ or "").strip(), f"{name} lacks a docstring"

    def test_the_facade_exports_the_five_event_types(self):
        import repro.api as api

        for name in (
            "HostOpEvent",
            "GCEvent",
            "DetectionEvent",
            "OffloadEvent",
            "RetentionEvictEvent",
        ):
            assert name in api.__all__


class TestFacadeEngineEquivalence:
    def test_session_reproduces_campaign_cells_bit_for_bit(self):
        grid = CampaignGrid.tiny()
        for cell in grid.cells()[:2]:
            engine_result = run_cell(cell)
            session = Session(ScenarioSpec.from_cell(cell, campaign_seed=grid.seed))
            facade_result = session.run().to_cell_result()
            assert facade_result.to_dict() == engine_result.to_dict()

    def test_to_cell_result_requires_a_spec(self):
        session = Session(tiny_spec(), geometry=SSDGeometry.tiny())
        result = session.run()
        with pytest.raises(ValueError, match="ScenarioSpec"):
            result.to_cell_result()
