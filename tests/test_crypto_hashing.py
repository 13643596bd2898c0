"""Tests for hash chains (the evidence-chain substrate)."""

import pytest

from repro.crypto.hashing import HashChain, chain_digest


class TestHashChain:
    def test_empty_chain_head_is_stable(self):
        assert HashChain().head == HashChain().head
        assert HashChain().length == 0

    def test_append_changes_head(self):
        chain = HashChain()
        initial = chain.head
        chain.append(b"entry-0")
        assert chain.head != initial
        assert chain.length == 1

    def test_verify_accepts_original_entries(self):
        chain = HashChain()
        entries = [b"op-%d" % i for i in range(50)]
        for entry in entries:
            chain.append(entry)
        assert chain.verify(entries)

    def test_verify_rejects_modified_entry(self):
        chain = HashChain()
        entries = [b"op-%d" % i for i in range(50)]
        for entry in entries:
            chain.append(entry)
        tampered = list(entries)
        tampered[20] = b"op-20-tampered"
        assert not chain.verify(tampered)

    def test_verify_rejects_removed_and_reordered_entries(self):
        chain = HashChain()
        entries = [b"op-%d" % i for i in range(10)]
        for entry in entries:
            chain.append(entry)
        assert not chain.verify(entries[:-1])
        reordered = entries[:5] + entries[6:] + [entries[5]]
        assert not chain.verify(reordered)

    def test_checkpoints_created_at_interval(self):
        chain = HashChain(checkpoint_interval=10)
        for i in range(35):
            chain.append(b"entry-%d" % i)
        assert len(chain.checkpoints) == 3
        assert chain.checkpoints[0].entry_index == 9

    def test_find_divergence_locates_tampering(self):
        chain = HashChain(checkpoint_interval=8)
        entries = [b"op-%d" % i for i in range(40)]
        for entry in entries:
            chain.append(entry)
        tampered = list(entries)
        tampered[3] = b"evil"
        divergence = chain.find_divergence(tampered)
        assert divergence is not None
        assert divergence <= 7  # first checkpoint after the tampered entry

    def test_find_divergence_clean_returns_none(self):
        chain = HashChain(checkpoint_interval=8)
        entries = [b"op-%d" % i for i in range(20)]
        for entry in entries:
            chain.append(entry)
        assert chain.find_divergence(entries) is None

    def test_replay_matches_incremental(self):
        chain = HashChain()
        entries = [b"a", b"b", b"c"]
        for entry in entries:
            chain.append(entry)
        assert HashChain.replay(entries) == chain.head

    def test_chain_digest_order_matters(self):
        assert chain_digest(b"a", b"b") != chain_digest(b"b", b"a")

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            HashChain(checkpoint_interval=0)
