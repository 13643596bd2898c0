"""Tests for the enhanced trim handler and point-in-time rollback on RSSD."""

import pytest

from repro.core.config import RSSDConfig
from repro.core.rssd import RSSD
from repro.core.trim_handler import TrimMode, TrimRejectedError
from repro.forensics import ForensicsEngine
from repro.ssd.flash import PageContent


def roll_back(rssd, timestamp_us, lbas=None):
    """Rebuild the image as of ``timestamp_us`` and apply it to ``rssd``."""
    recovery = ForensicsEngine(rssd).recovery()
    image = recovery.rebuild_image(timestamp_us, simulate_fetch=True, lbas=lbas)
    return image, recovery.apply(image)


@pytest.fixture
def loaded_rssd():
    """An RSSD with a small set of written pages carrying real bytes."""
    rssd = RSSD(config=RSSDConfig.tiny())
    for lba in range(16):
        rssd.write(lba, b"original content of page %02d " % lba)
    return rssd


class TestEnhancedTrim:
    def test_enhanced_trim_unmaps_but_retains(self, loaded_rssd):
        rssd = loaded_rssd
        records = rssd.trim(0, 4)
        assert len(records) == 4
        assert rssd.read(0) == b"\x00" * rssd.page_size
        assert rssd.trim_handler.trimmed_data_retained()
        assert rssd.trim_handler.stats.pages_retained == 4
        assert rssd.trim_handler.trimmed_lbas == {0, 1, 2, 3}

    def test_trimmed_data_recoverable(self, loaded_rssd):
        rssd = loaded_rssd
        attack_start = rssd.clock.now_us
        rssd.clock.advance(10)
        rssd.trim(5, 1)
        image, written = roll_back(rssd, attack_start, lbas=[5])
        assert written == 1 and sorted(image.pages) == [5]
        assert rssd.read(5).startswith(b"original content of page 05")

    def test_disabled_mode_rejects_trim(self, loaded_rssd):
        rssd = loaded_rssd
        rssd.trim_handler.set_mode(TrimMode.DISABLED)
        with pytest.raises(TrimRejectedError):
            rssd.trim(0, 1)
        assert rssd.trim_handler.stats.pages_rejected == 1
        # Data untouched.
        assert rssd.read(0).startswith(b"original content of page 00")

    def test_naive_mode_restores_commodity_behaviour(self, loaded_rssd):
        rssd = loaded_rssd
        rssd.trim_handler.set_mode(TrimMode.NAIVE)
        assert rssd.ssd.eager_trim_gc is True
        rssd.trim(0, 1)
        assert rssd.read(0) == b"\x00" * rssd.page_size

    def test_trim_stats_count_commands(self, loaded_rssd):
        rssd = loaded_rssd
        rssd.trim(0, 2)
        rssd.trim(4, 1)
        assert rssd.trim_handler.stats.trim_commands == 2
        assert rssd.trim_handler.stats.pages_trimmed == 3

    def test_single_page_trims_charge_remap_cost(self, loaded_rssd):
        """Regression: int(0.6 * 1) truncated the remap cost to 0 us.

        The fractional firmware cost must accumulate across commands
        instead of being truncated away on every single-page trim.
        """
        rssd = loaded_rssd
        handler = rssd.trim_handler
        assert handler._remap_cost_accum_us == 0.0
        rssd.trim(0, 1)
        # 0.6us accumulated, below one whole microsecond.
        assert handler._remap_cost_accum_us == pytest.approx(0.6)
        rssd.trim(1, 1)
        # 1.2us accumulated: 1us charged to the clock, 0.2us retained.
        assert handler._remap_cost_accum_us == pytest.approx(0.2)

    def test_remap_cost_accumulates_fractions(self, loaded_rssd):
        handler = loaded_rssd.trim_handler
        clock = loaded_rssd.clock
        start = clock.now_us
        for _ in range(50):
            handler._charge_remap_cost(1)
        charged = clock.now_us - start
        # 50 x 0.6us = 30us of firmware cost: whole microseconds land on
        # the clock, the (sub-us) remainder stays in the accumulator.
        assert charged + handler._remap_cost_accum_us == pytest.approx(30.0)
        assert charged >= 29

    def test_unmapped_pages_tracked_separately(self, loaded_rssd):
        """Regression: pages_trimmed used to count LBAs with no mapping."""
        rssd = loaded_rssd
        stats = rssd.trim_handler.stats
        rssd.trim(0, 2)          # both mapped
        rssd.trim(0, 2)          # both now unmapped
        rssd.trim(4, 4)          # all mapped
        assert stats.pages_trimmed == 6
        assert stats.pages_unmapped == 2
        assert stats.pages_retained == 6

    def test_trim_range_equivalent_to_trim(self):
        from repro.core.config import RSSDConfig as Config

        per_op = RSSD(config=Config.tiny())
        batched = RSSD(config=Config.tiny())
        for device in (per_op, batched):
            for lba in range(12):
                device.write(lba, b"payload %02d" % lba)
        records_a = per_op.trim(3, 6)
        records_b = batched.trim_range(3, 6)
        assert [r.lpn for r in records_a] == [r.lpn for r in records_b]
        assert per_op.trim_handler.stats == batched.trim_handler.stats
        assert per_op.clock.now_us == batched.clock.now_us


class TestPointInTimeRollback:
    def test_restore_to_reverses_overwrites(self, loaded_rssd):
        rssd = loaded_rssd
        clean_point = rssd.clock.now_us
        rssd.clock.advance(100)
        for lba in range(8):
            rssd.write(lba, b"ENCRYPTED!!! pay the ransom now " * 2, stream_id=9)
        image, written = roll_back(rssd, clean_point)
        assert image.is_exact and image.pages_lost == 0
        # Only the overwritten pages are rewritten; 8..15 are still clean.
        assert written == 8
        for lba in range(16):
            assert rssd.read(lba).startswith(b"original content of page %02d" % lba)

    def test_restore_drops_pages_created_after_target(self, loaded_rssd):
        rssd = loaded_rssd
        clean_point = rssd.clock.now_us
        rssd.clock.advance(100)
        new_lba = 100
        rssd.write(new_lba, b"attacker staging file", stream_id=9)
        image, _ = roll_back(rssd, clean_point)
        assert new_lba in image.created_after
        assert new_lba not in image.pages and new_lba not in image.contents
        assert rssd.read(new_lba) == b"\x00" * rssd.page_size

    def test_overwrite_issued_at_the_target_is_rolled_back(self, loaded_rssd):
        """The write starts at the target but the log stamps its completion."""
        rssd = loaded_rssd
        target = rssd.clock.now_us
        rssd.write(2, b"ciphertext issued at the target", stream_id=9)
        assert rssd.ssd.ftl.lookup(2).written_us == target
        image, written = roll_back(rssd, target)
        assert written == 1
        assert rssd.read(2).startswith(b"original content of page 02")

    def test_trim_before_target_stays_trimmed(self, loaded_rssd):
        """The page's state at the target is the trim, not its older bytes."""
        rssd = loaded_rssd
        rssd.trim(5, 1)
        rssd.clock.advance(10)
        target = rssd.clock.now_us
        rssd.clock.advance(10)
        rssd.write(5, b"written after the target", stream_id=9)
        image, _ = roll_back(rssd, target)
        assert 5 in image.unmapped
        assert rssd.read_content(5) is None
        assert rssd.read(5) == b"\x00" * rssd.page_size

    def test_undo_attack_limits_scope_to_malicious_streams(self, loaded_rssd):
        rssd = loaded_rssd
        attack_start = rssd.clock.now_us
        rssd.clock.advance(50)
        # Attacker overwrites lba 0; an innocent user writes lba 10.
        rssd.write(0, b"ciphertext", stream_id=66)
        rssd.write(10, b"legitimate user update", stream_id=2)
        scope = ForensicsEngine(rssd).timeline.lbas_modified_since(
            attack_start, streams=[66]
        )
        assert scope == [0]
        image, _ = roll_back(rssd, attack_start, lbas=scope)
        assert 0 in image.contents
        assert 10 not in image.pages
        assert rssd.read(0).startswith(b"original content of page 00")
        # The user's write survives recovery.
        assert rssd.read(10).startswith(b"legitimate user update")

    def test_recovery_fetches_from_remote_when_local_copy_released(self):
        rssd = RSSD(config=RSSDConfig.tiny())
        clean_data = {}
        for lba in range(8):
            rssd.write(lba, b"clean version %d " % lba)
            clean_data[lba] = b"clean version %d " % lba
        clean_point = rssd.clock.now_us
        rssd.clock.advance(10)
        # Heavy overwrite churn forces GC to release offloaded local copies.
        for round_index in range(40):
            for lba in range(8):
                rssd.write(lba, PageContent.synthetic(round_index * 1000 + lba, 4096, entropy=7.8))
        rssd.drain_offload_queue()
        # GC reclaims the clean versions' local copies once offloaded.
        for lba in range(8):
            for record in rssd.retention.versions_for(lba):
                if record.written_us <= clean_point:
                    assert record.offloaded
                    record.released = True
        image, written = roll_back(rssd, clean_point, lbas=list(range(4)))
        assert image.is_exact
        assert written == 4 and sorted(image.pages) == [0, 1, 2, 3]
        # The restores came back over NVMe-oE, and the fetch covered
        # only the pages in scope.
        assert image.recovered_remote == [0, 1, 2, 3]
        assert image.duration_us > 0
        for lba in range(4):
            assert rssd.read(lba).startswith(clean_data[lba])

    def test_recovery_report_duration_positive(self, loaded_rssd):
        rssd = loaded_rssd
        clean_point = rssd.clock.now_us
        rssd.clock.advance(10)
        rssd.write(0, b"ciphertext", stream_id=9)
        image, _ = roll_back(rssd, clean_point)
        assert image.duration_us >= 0

    def test_lbas_modified_since(self, loaded_rssd):
        rssd = loaded_rssd
        stamp = rssd.clock.now_us
        rssd.clock.advance(10)
        rssd.write(3, b"new data")
        rssd.trim(7, 1)
        rssd.write(9, b"other stream", stream_id=4)
        timeline = ForensicsEngine(rssd).timeline
        modified = timeline.lbas_modified_since(stamp + 1)
        assert modified == [3, 7, 9]
        assert timeline.lbas_modified_since(stamp + 1, streams=[4]) == [9]
        assert timeline.lbas_modified_since(stamp + 1, streams=[]) == []
