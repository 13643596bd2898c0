"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.crypto.cipher import StreamCipher
from repro.crypto.compression import Compressor
from repro.crypto.hashing import HashChain
from repro.sim import percentile
from repro.ssd.device import SSD
from repro.ssd.flash import PageContent, shannon_entropy
from repro.ssd.geometry import SSDGeometry
from repro.ssd.ftl import InvalidationCause


# ---------------------------------------------------------------------------
# Crypto substrates
# ---------------------------------------------------------------------------

@given(data=st.binary(min_size=0, max_size=2048), nonce=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=50, deadline=None)
def test_cipher_roundtrip_property(data, nonce):
    cipher = StreamCipher(b"property-test-key")
    assert cipher.decrypt(cipher.encrypt(data, nonce), nonce) == data


@given(data=st.binary(min_size=0, max_size=4096))
@settings(max_examples=50, deadline=None)
def test_compressor_roundtrip_property(data):
    compressor = Compressor()
    assert compressor.decompress(compressor.compress(data)) == data


@given(entries=st.lists(st.binary(min_size=0, max_size=64), min_size=1, max_size=60))
@settings(max_examples=50, deadline=None)
def test_hash_chain_verifies_only_exact_history(entries):
    chain = HashChain()
    for entry in entries:
        chain.append(entry)
    assert chain.verify(entries)
    # Any single-entry mutation breaks verification.
    mutated = list(entries)
    mutated[len(mutated) // 2] = mutated[len(mutated) // 2] + b"x"
    assert not chain.verify(mutated)


@given(entries=st.lists(st.binary(min_size=0, max_size=64), min_size=1, max_size=60),
       index=st.integers(min_value=0, max_value=1000))
@settings(max_examples=50, deadline=None)
def test_hash_chain_rejects_a_dropped_or_swapped_entry_anywhere(entries, index):
    chain = HashChain()
    for entry in entries:
        chain.append(entry)
    position = index % len(entries)
    assert not chain.verify(entries[:position] + entries[position + 1 :])
    swapped = list(entries)
    other = (position + 1) % len(entries)
    swapped[position], swapped[other] = swapped[other], swapped[position]
    assert chain.verify(swapped) == (swapped == entries)


@given(entries=st.lists(st.binary(min_size=0, max_size=16), min_size=1, max_size=60),
       index=st.integers(min_value=0, max_value=1000),
       interval=st.integers(min_value=1, max_value=16))
@settings(max_examples=50, deadline=None)
def test_find_divergence_stops_at_the_first_checkpoint_after_a_change(
    entries, index, interval
):
    chain = HashChain(checkpoint_interval=interval)
    for entry in entries:
        chain.append(entry)
    assert chain.find_divergence(entries) is None
    position = index % len(entries)
    mutated = list(entries)
    mutated[position] = entries[position] + b"x"
    covering = [cp.entry_index for cp in chain.checkpoints if cp.entry_index >= position]
    assert chain.find_divergence(mutated) == (covering[0] if covering else None)


@given(data=st.binary(min_size=1, max_size=4096))
@settings(max_examples=50, deadline=None)
def test_entropy_bounds_property(data):
    entropy = shannon_entropy(data)
    assert 0.0 <= entropy <= 8.0
    content = PageContent.from_bytes(data)
    assert 0.0 < content.compress_ratio <= 1.0
    assert content.length == len(data)


@given(values=st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=200),
       fraction=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=50, deadline=None)
def test_percentile_within_range(values, fraction):
    result = percentile(sorted(values), fraction)
    if values:
        assert min(values) <= result <= max(values)
    else:
        assert result == 0.0


# ---------------------------------------------------------------------------
# FTL / device invariants
# ---------------------------------------------------------------------------

@st.composite
def device_operations(draw):
    """A short random sequence of (op, lba) pairs against a tiny device."""
    count = draw(st.integers(min_value=1, max_value=120))
    ops = []
    for _ in range(count):
        kind = draw(st.sampled_from(["write", "trim", "read"]))
        lba = draw(st.integers(min_value=0, max_value=63))
        ops.append((kind, lba))
    return ops


@given(ops=device_operations())
@settings(max_examples=30, deadline=None)
def test_device_read_your_writes_property(ops):
    """The device always returns the most recently written data per LBA."""
    ssd = SSD(geometry=SSDGeometry.tiny())
    shadow = {}
    for index, (kind, lba) in enumerate(ops):
        if kind == "write":
            content = PageContent.synthetic(fingerprint=index + 1, length=4096)
            ssd.write(lba, content)
            shadow[lba] = content.fingerprint
        elif kind == "trim":
            ssd.trim(lba)
            shadow.pop(lba, None)
        else:
            ssd.read(lba)
    for lba, fingerprint in shadow.items():
        live = ssd.read_content(lba)
        assert live is not None and live.fingerprint == fingerprint
    # Unmapped LBAs stay unmapped.
    for lba in range(64):
        if lba not in shadow:
            assert ssd.read_content(lba) is None


@given(ops=device_operations())
@settings(max_examples=30, deadline=None)
def test_flash_accounting_invariants(ops):
    """Cached per-block counters always match a full page walk."""
    from repro.ssd.flash import PageState

    ssd = SSD(geometry=SSDGeometry.tiny())
    for index, (kind, lba) in enumerate(ops):
        if kind == "write":
            ssd.write(lba, PageContent.synthetic(index + 1, 4096))
        elif kind == "trim":
            ssd.trim(lba)
    for block in ssd.flash.iter_blocks():
        assert block.valid_count == block.count_state(PageState.VALID)
        assert block.invalid_count == block.count_state(PageState.INVALID)
        assert block.valid_count + block.invalid_count <= block.next_program_offset
    # Every mapped LBA points at a valid flash page holding that LBA.
    for lba in range(64):
        meta = ssd.ftl.lookup(lba)
        if meta is not None:
            page = ssd.flash.page(meta.ppn)
            assert page.state is PageState.VALID
            assert page.lpn == lba


@given(ops=device_operations())
@settings(max_examples=20, deadline=None)
def test_rssd_retention_invariant_property(ops):
    """RSSD never destroys a stale page before it is safe remotely."""
    from repro.core.config import RSSDConfig
    from repro.core.rssd import RSSD

    rssd = RSSD(config=RSSDConfig.tiny())
    versions_written = {}
    for index, (kind, lba) in enumerate(ops):
        if kind == "write":
            rssd.write(lba, PageContent.synthetic(index + 1, 4096))
            versions_written[lba] = versions_written.get(lba, 0) + 1
        elif kind == "trim":
            rssd.trim(lba)
        else:
            rssd.read(lba)
    assert rssd.data_loss_pages == 0
    # Superseded versions are all accounted for: still on flash or offloaded.
    stale_seen = rssd.retention.stats.stale_pages_seen
    accounted = rssd.retained_pages_local + rssd.retention.stats.pages_released_after_offload
    assert accounted >= 0
    assert rssd.retention.stats.pages_released_unoffloaded == 0
    assert stale_seen == rssd.retention.archived_versions


@given(entries=st.lists(st.tuples(st.integers(0, 63), st.floats(0.0, 8.0)), min_size=1, max_size=80))
@settings(max_examples=30, deadline=None)
def test_oplog_total_ordering_property(entries):
    """The operation log preserves arrival order and passes verification."""
    from repro.core.oplog import OperationLog
    from repro.ssd.device import HostOp, HostOpType

    log = OperationLog(segment_entries=16)
    for index, (lba, entropy) in enumerate(entries):
        op = HostOp(
            sequence=index,
            op_type=HostOpType.WRITE,
            lba=lba,
            npages=1,
            timestamp_us=index * 10,
            latency_us=1.0,
            content=PageContent.synthetic(index, 4096, entropy=round(entropy, 3)),
            stream_id=1,
        )
        log.on_host_op(op)
    all_entries = log.all_entries()
    assert [entry.sequence for entry in all_entries] == list(range(len(entries)))
    assert log.verify_integrity()
