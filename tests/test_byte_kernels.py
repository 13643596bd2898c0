"""Bit-exact checks of the byte-level kernels against per-byte loop references.

Entropy values, keystream bytes, ciphertexts and the GC attack's junk
bytes (with the rng state it leaves behind) feed goldens and simulation
digests, so they are compared with ``==``: the vectorised kernels must
reproduce the plain loops exactly, float summation order included.
"""

import hashlib
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.gc_attack import GCAttack
from repro.crypto.cipher import StreamCipher, keystream_bytes
from repro.ssd.flash import shannon_entropy


def reference_entropy(data):
    """Per-byte dict count, summed in first-occurrence order."""
    if not data:
        return 0.0
    counts = {}
    for byte in data:
        counts[byte] = counts.get(byte, 0) + 1
    total = len(data)
    entropy = 0.0
    for count in counts.values():
        probability = count / total
        entropy -= probability * math.log2(probability)
    return entropy


def reference_keystream(key, nonce, length):
    """One full SHA-256 per 32-byte counter block."""
    blocks = []
    counter = 0
    produced = 0
    while produced < length:
        block = hashlib.sha256(
            key + nonce.to_bytes(16, "big", signed=False) + counter.to_bytes(8, "big")
        ).digest()
        blocks.append(block)
        produced += len(block)
        counter += 1
    return b"".join(blocks)[:length]


def reference_encrypt(key, plaintext, nonce):
    """Per-byte XOR with the reference keystream."""
    stream = reference_keystream(key, nonce, len(plaintext))
    return bytes(p ^ s for p, s in zip(plaintext, stream))


def random_page(seed, length=4096):
    rng = random.Random(seed)
    return bytes(rng.getrandbits(8) for _ in range(length))


TEXT_PAGE = (b"Quarterly report, draft 3: revenue up, costs flat.\n" * 100)[:4096]


class TestShannonEntropy:
    @given(data=st.binary(max_size=4096))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_arbitrary_bytes(self, data):
        assert shannon_entropy(data) == reference_entropy(data)

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"\x00",
            b"\xff",
            bytes(4096),
            bytes(range(256)),
            bytes(range(255, -1, -1)) * 16,
            TEXT_PAGE,
            random_page(1),
            random_page(2, 7),
            random_page(3, 4095),
            random_page(4, 8193),
            (TEXT_PAGE * 3)[:8193],
        ],
        ids=[
            "empty", "one-zero", "one-ff", "zero-page", "all-values",
            "all-values-reversed", "text-page", "random-page", "odd-7",
            "odd-4095", "odd-8193", "text-8193",
        ],
    )
    def test_matches_reference_on_pages(self, data):
        assert shannon_entropy(data) == reference_entropy(data)

    @pytest.mark.parametrize("wrap", [bytearray, memoryview], ids=["bytearray", "memoryview"])
    def test_accepts_bytes_like_inputs(self, wrap):
        for data in (b"", TEXT_PAGE, random_page(5), random_page(6, 4095)):
            assert shannon_entropy(wrap(data)) == reference_entropy(data)


class TestKeystream:
    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 4096])
    def test_matches_reference(self, length):
        for key, nonce in ((b"k", 0), (b"offload-key", 7), (b"x" * 40, 2**128 - 1)):
            assert keystream_bytes(key, nonce, length) == reference_keystream(key, nonce, length)


class TestStreamCipherEncrypt:
    @given(
        plaintext=st.binary(max_size=4200),
        nonce=st.integers(min_value=0, max_value=2**128 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_per_byte_xor(self, plaintext, nonce):
        key = b"property-test-key"
        assert StreamCipher(key).encrypt(plaintext, nonce) == reference_encrypt(
            key, plaintext, nonce
        )

    @pytest.mark.parametrize(
        "plaintext", [b"", b"\x00", bytes(4096), TEXT_PAGE, random_page(7), random_page(8, 33)]
    )
    def test_pages_match_per_byte_xor(self, plaintext):
        key = hashlib.sha256(b"pay-or-lose-your-files").digest()
        cipher = StreamCipher(key)
        for nonce in (1, 2, 1000):
            expected = reference_encrypt(key, plaintext, nonce)
            assert cipher.encrypt(plaintext, nonce) == expected
            assert cipher.encrypt(bytearray(plaintext), nonce) == expected
            assert cipher.decrypt(expected, nonce) == plaintext

    def test_all_zero_ciphertext_keeps_its_length(self):
        stream = keystream_bytes(b"key", 3, 64)
        assert StreamCipher(b"key").encrypt(stream, 3) == bytes(64)


class _RecordingFileSystem:
    """Reports free space until ``files`` junk files exist; keeps their bytes."""

    def __init__(self, files):
        self.files = files
        self.created = []

    def free_pages_remaining(self):
        return 10**9 if len(self.created) < self.files else 0

    def create_file(self, name, data):
        self.created.append((name, data))


def _junk_environment(page_size, files):
    blockdev = SimpleNamespace(page_size=page_size, capacity_pages=10**6, stream_id=0)
    return SimpleNamespace(blockdev=blockdev, fs=_RecordingFileSystem(files), attacker_stream=9)


class TestGCAttackJunk:
    @pytest.mark.parametrize("seed", [0, 97, 20240611])
    @pytest.mark.parametrize(
        "page_size,junk_file_pages", [(1, 1), (5, 1), (4096, 1), (4096, 4)]
    )
    def test_junk_and_rng_state_match_per_byte_draws(self, seed, page_size, junk_file_pages):
        attack = GCAttack(junk_file_pages=junk_file_pages, seed=seed)
        reference = random.Random(seed)
        env = _junk_environment(page_size, files=3)
        written = attack._fill_capacity(env)
        assert written == 3 * junk_file_pages
        expected = [
            bytes(reference.getrandbits(8) for _ in range(page_size * junk_file_pages))
            for _ in range(3)
        ]
        assert [data for _, data in env.fs.created] == expected
        assert attack.rng.getstate() == reference.getstate()
        # The draws that follow the flood are unchanged too.
        assert attack.rng.random() == reference.random()
