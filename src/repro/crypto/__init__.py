"""Cryptographic and compression substrates.

RSSD compresses and encrypts retained pages before shipping them over
NVMe-oE, and folds every logged storage operation into a hash chain so
the post-attack evidence chain is tamper-evident.  Ransomware samples
also use the cipher here to encrypt victim files in the attack models.

Nothing in this package is intended to be cryptographically strong --
the simulation only needs (a) ciphertext that is indistinguishable from
random to the entropy detectors, (b) realistic compression *ratios*,
and (c) collision-resistant hashing for the evidence chain, for which
the standard library's SHA-256 is used.
"""

from repro.crypto.cipher import StreamCipher, keystream_bytes
from repro.crypto.compression import CompressionModel, Compressor, CompressionResult
from repro.crypto.entropy import (
    DEFAULT_ENCRYPTED_THRESHOLD,
    DEFAULT_JUMP_THRESHOLD,
    EntropyJumpTracker,
    EntropyWindow,
)
from repro.crypto.hashing import HashChain, chain_digest

__all__ = [
    "CompressionModel",
    "CompressionResult",
    "Compressor",
    "DEFAULT_ENCRYPTED_THRESHOLD",
    "DEFAULT_JUMP_THRESHOLD",
    "EntropyJumpTracker",
    "EntropyWindow",
    "HashChain",
    "StreamCipher",
    "chain_digest",
    "keystream_bytes",
]
