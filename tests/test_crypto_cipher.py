"""Tests for the stream cipher."""

import pytest

from repro.crypto.cipher import StreamCipher, keystream_bytes
from repro.ssd.flash import shannon_entropy


class TestKeystream:
    def test_length_matches_request(self):
        assert len(keystream_bytes(b"key", 0, 100)) == 100
        assert keystream_bytes(b"key", 0, 0) == b""

    def test_deterministic_for_same_inputs(self):
        assert keystream_bytes(b"key", 5, 64) == keystream_bytes(b"key", 5, 64)

    def test_differs_across_nonces_and_keys(self):
        assert keystream_bytes(b"key", 1, 64) != keystream_bytes(b"key", 2, 64)
        assert keystream_bytes(b"key-a", 1, 64) != keystream_bytes(b"key-b", 1, 64)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            keystream_bytes(b"", 0, 10)
        with pytest.raises(ValueError):
            keystream_bytes(b"key", 0, -1)
        for nonce in (-1, 2**128):
            with pytest.raises(ValueError):
                keystream_bytes(b"key", nonce, 0)
            with pytest.raises(ValueError):
                StreamCipher(b"key").encrypt(b"data", nonce)


class TestStreamCipher:
    def test_roundtrip(self):
        cipher = StreamCipher(b"secret key material")
        plaintext = b"the quarterly report, now encrypted for ransom" * 10
        ciphertext = cipher.encrypt(plaintext, nonce=3)
        assert ciphertext != plaintext
        assert cipher.decrypt(ciphertext, nonce=3) == plaintext

    def test_wrong_nonce_does_not_decrypt(self):
        cipher = StreamCipher(b"secret key material")
        ciphertext = cipher.encrypt(b"hello world hello world", nonce=1)
        assert cipher.decrypt(ciphertext, nonce=2) != b"hello world hello world"

    def test_ciphertext_has_high_entropy(self):
        cipher = StreamCipher.from_passphrase("ransomware-key")
        plaintext = (b"aaaabbbbcccc" * 400)[:4096]
        ciphertext = cipher.encrypt(plaintext, nonce=9)
        assert shannon_entropy(plaintext) < 3.0
        assert shannon_entropy(ciphertext) > 7.5

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            StreamCipher(b"")

    def test_negative_nonce_rejected(self):
        with pytest.raises(ValueError):
            StreamCipher(b"key").encrypt(b"data", nonce=-1)

    def test_key_fingerprint_is_stable_and_safe(self):
        cipher = StreamCipher(b"key")
        assert cipher.key_fingerprint == StreamCipher(b"key").key_fingerprint
        assert len(cipher.key_fingerprint) == 16

    def test_from_passphrase_deterministic(self):
        first = StreamCipher.from_passphrase("pay up")
        second = StreamCipher.from_passphrase("pay up")
        assert first.encrypt(b"x" * 32, 1) == second.encrypt(b"x" * 32, 1)
