"""The hash chain behind the trusted evidence chain.

RSSD folds every logged storage operation into a SHA-256 hash chain and
periodically seals checkpoints.  During post-attack analysis the chain
is re-computed from the retained log; any tampering (entry removal,
reordering, modification) breaks the chain at the tampered position.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence

GENESIS = b"rssd-evidence-chain-genesis"


def chain_digest(previous_digest: bytes, entry: bytes) -> bytes:
    """Digest of one chain link: H(previous || entry)."""
    return hashlib.sha256(previous_digest + entry).digest()


@dataclass(frozen=True)
class ChainCheckpoint:
    """A sealed point in the hash chain (index of last covered entry + digest)."""

    entry_index: int
    digest: bytes


class HashChain:
    """An append-only SHA-256 hash chain with periodic sealed checkpoints."""

    def __init__(self, checkpoint_interval: int = 1024) -> None:
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be at least 1")
        self.checkpoint_interval = checkpoint_interval
        self._head = hashlib.sha256(GENESIS).digest()
        self._length = 0
        self._checkpoints: List[ChainCheckpoint] = []

    @property
    def head(self) -> bytes:
        """Current chain head digest."""
        return self._head

    @property
    def length(self) -> int:
        """Number of entries folded into the chain."""
        return self._length

    @property
    def checkpoints(self) -> List[ChainCheckpoint]:
        return list(self._checkpoints)

    def append(self, entry: bytes) -> bytes:
        """Fold ``entry`` into the chain and return the new head."""
        self._head = chain_digest(self._head, entry)
        self._length += 1
        if self._length % self.checkpoint_interval == 0:
            self._checkpoints.append(
                ChainCheckpoint(entry_index=self._length - 1, digest=self._head)
            )
        return self._head

    @staticmethod
    def replay(entries: Sequence[bytes]) -> bytes:
        """Recompute the head digest from scratch over ``entries``."""
        head = hashlib.sha256(GENESIS).digest()
        for entry in entries:
            head = chain_digest(head, entry)
        return head

    def verify(self, entries: Sequence[bytes]) -> bool:
        """Check that ``entries`` reproduce the current head digest."""
        return len(entries) == self._length and self.replay(entries) == self._head

    def find_divergence(self, entries: Sequence[bytes]) -> Optional[int]:
        """Index of the first entry where ``entries`` diverge from a checkpoint.

        Returns ``None`` if every checkpoint is consistent with the
        provided entries (the tail beyond the last checkpoint is checked
        by :meth:`verify`).
        """
        head = hashlib.sha256(GENESIS).digest()
        checkpoint_map = {cp.entry_index: cp.digest for cp in self._checkpoints}
        for index, entry in enumerate(entries):
            head = chain_digest(head, entry)
            expected = checkpoint_map.get(index)
            if expected is not None and expected != head:
                return index
        return None
