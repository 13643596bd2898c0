"""The baseline retention policy against a list-backed reference.

:class:`SelectiveRetentionPolicy` keeps its retained records in an
insertion-ordered map keyed by record identity.  The reference below is
the plain list version: membership by scan, eviction by ``pop(0)``.
Hypothesis drives both through the same invalidate / GC release /
capacity overflow / reclaim pressure / clock sequences, each on its own
twin records, and every observable answer must agree.
"""

from typing import List, Optional

from hypothesis import given, settings, strategies as st

from repro.defenses.base import SelectiveRetentionPolicy
from repro.sim import SimClock
from repro.ssd.flash import PageContent
from repro.ssd.ftl import InvalidationCause, StalePage

WINDOW_US = 1_000
LPNS = 4


class ListRetentionPolicy:
    """Reference: the retained set as a list, oldest first."""

    def __init__(self, clock, should_retain, window_us, capacity_pages, pin_under_pressure):
        self.clock = clock
        self.should_retain = should_retain
        self.window_us = window_us
        self.capacity_pages = capacity_pages
        self.pin_under_pressure = pin_under_pressure
        self._retained: List[StalePage] = []
        self._evicted = 0
        self._forced_releases = 0
        self.evict_listeners = []

    def on_invalidate(self, record):
        if not self.should_retain(record):
            return
        self._retained.append(record)
        while len(self._retained) > self.capacity_pages:
            evicted = self._retained.pop(0)
            evicted.released = True
            self._evicted += 1
            for listener in self.evict_listeners:
                listener(evicted, "capacity", self.clock.now_us)

    def _expired(self, record):
        return (self.clock.now_us - record.invalidated_us) > self.window_us

    def _is_retained(self, record):
        return record in self._retained and not record.released and not self._expired(record)

    def may_release(self, record):
        return not self._is_retained(record)

    def on_release(self, record):
        if record in self._retained:
            self._retained.remove(record)

    def reclaim_pressure(self, ftl, needed_pages):
        if self.pin_under_pressure:
            return 0
        released = 0
        while self._retained and released < needed_pages:
            record = self._retained.pop(0)
            record.released = True
            self._forced_releases += 1
            released += 1
            for listener in self.evict_listeners:
                listener(record, "gc-pressure", self.clock.now_us)
        return released

    @property
    def retained_count(self):
        return sum(1 for record in self._retained if self._is_retained(record))

    @property
    def evicted_count(self):
        return self._evicted + self._forced_releases

    def lookup(self, lba, before_us) -> Optional[PageContent]:
        best = None
        for record in self._retained:
            if record.lpn != lba or record.released or self._expired(record):
                continue
            if record.written_us <= before_us:
                if best is None or record.written_us > best.written_us:
                    best = record
        return best.content if best is not None else None


class _World:
    """One policy plus the FTL-side bookkeeping GC would do around it."""

    def __init__(self, policy_cls, clock, capacity_pages, pin_under_pressure):
        self.policy = policy_cls(
            clock,
            lambda record: record.cause is InvalidationCause.OVERWRITE,
            WINDOW_US,
            capacity_pages,
            pin_under_pressure,
        )
        self.records: List[StalePage] = []
        #: Indices of records still in the FTL's stale index (not yet
        #: released by a GC erase).
        self.indexed: List[int] = []
        self.evictions = []
        self.policy.evict_listeners.append(self._on_evict)

    def _on_evict(self, record, cause, timestamp_us):
        index = next(i for i, known in enumerate(self.records) if known is record)
        self.evictions.append((index, cause, timestamp_us))

    def invalidate(self, record):
        self.records.append(record)
        self.indexed.append(len(self.records) - 1)
        self.policy.on_invalidate(record)

    def gc_visit(self, slot):
        """GC meets one stale page: release it if the policy allows.

        A page the policy keeps is relocated, which leaves the policy's
        state untouched (``on_relocate`` is a no-op).
        """
        index = self.indexed[slot % len(self.indexed)]
        record = self.records[index]
        releasable = self.policy.may_release(record)
        if releasable:
            record.released = True
            self.indexed.remove(index)
            self.policy.on_release(record)
        return releasable

    def observe(self, clock):
        policy = self.policy
        lookups = [
            policy.lookup(lpn, before_us)
            for lpn in range(LPNS)
            for before_us in (0, clock.now_us // 2, clock.now_us)
        ]
        decisions = [policy.may_release(self.records[index]) for index in self.indexed]
        return (
            lookups,
            decisions,
            policy.retained_count,
            policy.evicted_count,
            list(self.evictions),
        )


_ops = st.one_of(
    st.tuples(
        st.just("invalidate"),
        st.integers(0, LPNS - 1),
        st.sampled_from([InvalidationCause.OVERWRITE, InvalidationCause.TRIM]),
        st.integers(0, 3 * WINDOW_US),
    ),
    st.tuples(st.just("gc"), st.integers(0, 63)),
    st.tuples(st.just("pressure"), st.integers(1, 4)),
    st.tuples(st.just("advance"), st.integers(1, 2 * WINDOW_US)),
)


@given(
    ops=st.lists(_ops, max_size=80),
    capacity_pages=st.integers(1, 6),
    pin_under_pressure=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_policy_matches_list_reference(ops, capacity_pages, pin_under_pressure):
    clock = SimClock()
    worlds = [
        _World(cls, clock, capacity_pages, pin_under_pressure)
        for cls in (SelectiveRetentionPolicy, ListRetentionPolicy)
    ]
    versions = [0] * LPNS
    for op in ops:
        kind = op[0]
        if kind == "invalidate":
            _, lpn, cause, age_us = op
            versions[lpn] += 1
            content = PageContent.synthetic(lpn * 1000 + versions[lpn], 4096)
            for world in worlds:
                world.invalidate(
                    StalePage(
                        lpn=lpn,
                        ppn=len(world.records),
                        content=content,
                        written_us=max(0, clock.now_us - age_us),
                        invalidated_us=clock.now_us,
                        cause=cause,
                        version=versions[lpn],
                    )
                )
        elif kind == "gc":
            if worlds[0].indexed:
                answers = [world.gc_visit(op[1]) for world in worlds]
                assert answers[0] == answers[1]
        elif kind == "pressure":
            released = [world.policy.reclaim_pressure(None, op[1]) for world in worlds]
            assert released[0] == released[1]
        else:
            clock.advance(op[1])
        assert worlds[0].observe(clock) == worlds[1].observe(clock)
