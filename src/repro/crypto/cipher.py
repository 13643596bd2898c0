"""A keystream cipher used both by RSSD's offload path and by attack models.

The cipher XORs plaintext with a SHA-256-derived keystream in counter
mode.  It is symmetric (encrypt == decrypt with the same key and nonce),
deterministic, and produces high-entropy output, which is all the
simulation requires of it.
"""

from __future__ import annotations

import hashlib


def keystream_bytes(key: bytes, nonce: int, length: int) -> bytes:
    """Generate ``length`` keystream bytes for (``key``, ``nonce``).

    Block ``i`` is ``SHA-256(key || nonce || i)`` with a 16-byte
    big-endian nonce and an 8-byte big-endian counter.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    if not key:
        raise ValueError("key must not be empty")
    if not 0 <= nonce < 1 << 128:
        raise ValueError("nonce must be within [0, 2**128)")
    prefix = hashlib.sha256(key + nonce.to_bytes(16, "big"))
    blocks = []
    for counter in range((length + 31) // 32):
        block = prefix.copy()
        block.update(counter.to_bytes(8, "big"))
        blocks.append(block.digest())
    return b"".join(blocks)[:length]


class StreamCipher:
    """Counter-mode XOR cipher with a per-message nonce."""

    def __init__(self, key: bytes) -> None:
        if not key:
            raise ValueError("key must not be empty")
        self._key = bytes(key)

    @property
    def key_fingerprint(self) -> str:
        """Short identifier of the key (safe to log)."""
        return hashlib.sha256(self._key).hexdigest()[:16]

    def encrypt(self, plaintext: bytes, nonce: int) -> bytes:
        """Encrypt ``plaintext`` under the given message nonce."""
        length = len(plaintext)
        stream = keystream_bytes(self._key, nonce, length)
        mixed = int.from_bytes(plaintext, "big") ^ int.from_bytes(stream, "big")
        return mixed.to_bytes(length, "big")

    def decrypt(self, ciphertext: bytes, nonce: int) -> bytes:
        """Decrypt ``ciphertext`` (identical to :meth:`encrypt` for XOR)."""
        return self.encrypt(ciphertext, nonce)

    @classmethod
    def from_passphrase(cls, passphrase: str) -> "StreamCipher":
        """Derive a cipher from a human passphrase (attack-sample convenience)."""
        return cls(hashlib.sha256(passphrase.encode("utf-8")).digest())
