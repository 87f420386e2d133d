import errno
import os
import random
import shutil
import tempfile
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from conftest import (
    PACK_FRAME,
    PACK_LIVE,
    PACK_NAME,
    PACK_STAMPS,
    PackRecord,
    disk_record,
    fail_disk_writes,
    fail_in_place_writes,
    flip_disk_entry,
    pack_records,
)
from xcache.addressing import RouteTable
from xcache.chunking import CHUNK_MAGIC, Chunk, build_cid_chunk, encode_chunk
from xcache.store import (
    CacheEntry,
    DiskStore,
    LogicalClock,
    MemoryStore,
    StorageManager,
    StoreError,
)


@pytest.fixture
def disk_manager(tmp_path):
    """Opens managers whose disk tier lives in ``tmp_path``, and closes
    every one of them when the test ends."""
    opened = []

    def open_manager(**options):
        opened.append(StorageManager(disk_dir=tmp_path, **options))
        return opened[-1]

    yield open_manager
    for manager in opened:
        manager.close()


def chunk_for(tag, ttl=1_000_000):
    return build_cid_chunk(f"payload:{tag}".encode(), ttl)


class LruOracle:
    """Brute-force reference: victim = min (last_access, insert_seq)."""

    def __init__(self):
        self.state = {}
        self.seq = 0

    def store(self, key, now):
        self.seq += 1
        self.state[key] = (now, self.seq)

    def get(self, key, now):
        if key in self.state:
            self.state[key] = (now, self.state[key][1])

    def evict(self):
        if not self.state:
            return None
        victim = min(self.state, key=lambda k: self.state[k])
        del self.state[victim]
        return victim


class TestClocksAndEntries:
    def test_logical_clock(self):
        clock = LogicalClock()
        assert clock.now_ms() == 0
        clock.advance(5)
        assert clock.now_ms() == 5
        clock.set(100)
        assert clock.now_ms() == 100

    def test_expiry_boundary(self):
        entry = CacheEntry(chunk_for("a", ttl=100), "mem", 0, 0, expires_at=100)
        assert not entry.expired(99)
        assert entry.expired(100)
        assert entry.expired(101)


class TestPlacement:
    def test_memory_then_disk(self, disk_manager):
        clock = LogicalClock()
        manager = disk_manager(mem_capacity=2, disk_capacity=8, clock=clock)
        a, b, c = chunk_for("a"), chunk_for("b"), chunk_for("c")
        assert manager.store(a) == ("mem", [])
        assert manager.store(b) == ("mem", [])
        assert manager.store(c) == ("disk", [])
        for ch in (a, b, c):
            assert manager.get(ch.id).payload == ch.payload

    def test_zero_memory_capacity_spills_everything_to_disk(self, disk_manager):
        manager = disk_manager(mem_capacity=0, disk_capacity=4, clock=LogicalClock())
        assert manager.store(chunk_for("a"))[0] == "disk"

    def test_both_full_evicts_from_disk(self, disk_manager):
        clock = LogicalClock()
        manager = disk_manager(mem_capacity=1, disk_capacity=2, clock=clock)
        a, b, c, d = (chunk_for(t) for t in "abcd")
        manager.store(a)  # mem
        clock.advance(1)
        manager.store(b)  # disk
        clock.advance(1)
        manager.store(c)  # disk
        clock.advance(1)
        manager.get(b.id)  # b freshly used
        clock.advance(1)
        store_id, evicted = manager.store(d)
        assert store_id == "disk"
        assert evicted == [c.id]  # least recently used on the disk store
        assert manager.get(c.id) is None

    def test_nothing_fits_is_an_error(self):
        manager = StorageManager(mem_capacity=0, clock=LogicalClock())
        with pytest.raises(StoreError):
            manager.store(chunk_for("a"))


class TestLru:
    def test_textbook_sequence(self):
        clock = LogicalClock()
        manager = StorageManager(mem_capacity=3, clock=clock)
        a, b, c, d = (chunk_for(t) for t in "abcd")
        for ch in (a, b, c):
            manager.store(ch)
            clock.advance(1)
        manager.get(a.id)
        clock.advance(1)
        _, evicted = manager.store(d)
        assert evicted == [b.id]
        assert {x for x in manager.ids()} == {a.id, c.id, d.id}

    def test_single_entry_evicts_itself(self):
        manager = StorageManager(mem_capacity=4, clock=LogicalClock())
        a = chunk_for("a")
        manager.store(a)
        assert manager.evict_one("mem") == a.id
        assert manager.get(a.id) is None

    def test_evict_on_empty_store_returns_none(self):
        manager = StorageManager(mem_capacity=4, clock=LogicalClock())
        assert manager.evict_one("mem") is None

    def test_gets_do_not_reorder_untouched_entries(self):
        clock = LogicalClock()
        manager = StorageManager(mem_capacity=3, clock=clock)
        a, b, c = (chunk_for(t) for t in "abc")
        for ch in (a, b, c):
            manager.store(ch)
            clock.advance(1)
        for _ in range(5):
            manager.get(c.id)
            clock.advance(1)
        assert manager.evict_one("mem") == a.id
        assert manager.evict_one("mem") == b.id

    @pytest.mark.parametrize("backing", ["mem", "disk"])
    def test_replay_against_oracle(self, disk_manager, backing):
        clock = LogicalClock()
        if backing == "mem":
            manager = StorageManager(mem_capacity=64, clock=clock)
        else:
            manager = disk_manager(mem_capacity=0, disk_capacity=64, clock=clock)
        oracle = LruOracle()
        rng = random.Random(41)
        chunks = {i: chunk_for(f"r{i}") for i in range(32)}
        stored = set()
        for step in range(10_000):
            op = rng.random()
            if rng.random() < 0.7:
                clock.advance(1)
            if op < 0.45:
                i = rng.randrange(32)
                if chunks[i].id in stored:
                    continue
                manager.store(chunks[i])
                oracle.store(chunks[i].id, clock.now_ms())
                stored.add(chunks[i].id)
            elif op < 0.8 and stored:
                xid = rng.choice(sorted(stored, key=lambda x: x.value))
                assert manager.get(xid) is not None
                oracle.get(xid, clock.now_ms())
            elif stored:
                assert manager.evict_one(backing) == oracle.evict()
                stored = set(oracle.state)
            assert set(manager.ids()) == set(oracle.state)

    def test_get_and_remove_update_victim_order(self):
        clock = LogicalClock()
        manager = StorageManager(mem_capacity=4, clock=clock)
        a, b, c, d = (chunk_for(t) for t in "abcd")
        for now, ch in enumerate((a, b, c, d)):
            clock.set(now)
            manager.store(ch)
        clock.set(5)
        manager.get(a.id)
        assert manager.evict_one("mem") == b.id
        manager.remove(c.id)
        assert manager.evict_one("mem") == d.id

    def test_policy_tie_breaks_by_insertion_order(self):
        manager = StorageManager(mem_capacity=4, clock=LogicalClock())
        a, b = chunk_for("a"), chunk_for("b")
        manager.store(a)
        manager.store(b)
        manager.get(a.id)  # same stamp: does not outrank insertion order
        assert manager.evict_one("mem") == a.id

    def test_insertion_order_survives_two_reopens(self, disk_manager):
        def reopen():
            return disk_manager(mem_capacity=0, disk_capacity=8, clock=LogicalClock())

        first = reopen()
        old = [chunk_for(f"old{i}") for i in range(4)]
        for ch in old:
            first.store(ch)
        for ch in old[:3]:
            first.remove(ch.id)
        first.close()
        second = reopen()
        new = [chunk_for(f"new{i}") for i in range(4)]
        for ch in new:
            second.store(ch)
        second.close()
        third = reopen()
        # every access stamp is 0, so victims follow insertion order
        victims = [third.evict_one("disk") for _ in range(5)]
        assert victims == [old[3].id] + [ch.id for ch in new]


class TestTtl:
    def test_sweep_boundary(self):
        clock = LogicalClock()
        manager = StorageManager(mem_capacity=4, clock=clock)
        chunk = chunk_for("t", ttl=100)
        manager.store(chunk)
        assert manager.sweep(99) == []
        assert manager.get(chunk.id) is not None
        swept = manager.sweep(101)
        assert swept == [chunk.id]
        assert manager.get(chunk.id) is None

    def test_expired_get_returns_nothing_before_sweep(self):
        clock = LogicalClock()
        manager = StorageManager(mem_capacity=4, clock=clock)
        chunk = chunk_for("t", ttl=100)
        manager.store(chunk)
        clock.set(150)
        assert manager.get(chunk.id) is None

    def test_zero_ttl_refused(self):
        manager = StorageManager(mem_capacity=4, clock=LogicalClock())
        with pytest.raises(StoreError):
            manager.store(build_cid_chunk(b"once", 0))

    def test_mixed_ttls_swept_exactly(self):
        clock = LogicalClock()
        manager = StorageManager(mem_capacity=1100, clock=clock)
        rng = random.Random(13)
        expiries = {}
        for i in range(1000):
            ttl = rng.randint(1, 500)
            chunk = build_cid_chunk(f"m{i}".encode(), ttl)
            manager.store(chunk)
            expiries[chunk.id] = ttl
        cutoff = 250
        expected = {xid for xid, ttl in expiries.items() if ttl <= cutoff}
        swept = manager.sweep(cutoff)
        assert set(swept) == expected
        assert set(manager.ids()) == set(expiries) - expected


class TestNoResurrection:
    def test_after_eviction(self):
        manager = StorageManager(mem_capacity=2, clock=LogicalClock())
        a = chunk_for("a")
        manager.store(a)
        manager.evict_one("mem")
        assert manager.get(a.id) is None
        manager.store(a)
        assert manager.get(a.id) is not None

    def test_after_expiry(self):
        clock = LogicalClock()
        manager = StorageManager(mem_capacity=2, clock=clock)
        a = chunk_for("a", ttl=10)
        manager.store(a)
        clock.set(50)
        manager.sweep()
        assert manager.get(a.id) is None
        clock.set(60)
        manager.store(a)
        assert manager.get(a.id) is not None


class TestRepublish:
    def test_identical_republish_refreshes_deadline(self):
        clock = LogicalClock()
        manager = StorageManager(mem_capacity=4, clock=clock)
        chunk = chunk_for("a", ttl=100)
        manager.store(chunk)
        clock.set(80)
        manager.store(chunk)
        assert manager.sweep(150) == []  # deadline moved to 180
        assert manager.sweep(200) == [chunk.id]

    def test_identical_republish_refresh_survives_reopen(self, disk_manager):
        clock = LogicalClock()
        manager = disk_manager(mem_capacity=0, disk_capacity=4, clock=clock)
        chunk, other = chunk_for("a", ttl=100), chunk_for("b", ttl=1000)
        manager.store(chunk)
        manager.store(other)
        clock.set(90)
        manager.store(chunk)  # deadline 190, access stamp 90
        manager.close()
        reopened = disk_manager(mem_capacity=0, disk_capacity=4, clock=LogicalClock(150))
        assert reopened.get(chunk.id) == chunk
        assert reopened.evict_one("disk") == other.id

    def test_same_id_new_content_replaces(self):
        # only possible for named chunks in honest use; modeled with a
        # hand-built pair sharing the id
        manager = StorageManager(mem_capacity=4, clock=LogicalClock())
        first = chunk_for("a")
        manager.store(first)
        second = Chunk(id=first.id, ttl_ms=500, payload=b"different")
        manager.store(second)
        assert manager.get(first.id).payload == b"different"


class TestDiskDurability:
    def test_entries_survive_reopen(self, disk_manager):
        clock = LogicalClock()
        manager = disk_manager(mem_capacity=0, disk_capacity=8, clock=clock)
        keep = chunk_for("keep", ttl=1000)
        lose = chunk_for("lose", ttl=50)
        manager.store(keep)
        manager.store(lose)
        manager.close()

        clock2 = LogicalClock(start_ms=100)  # past `lose`'s deadline
        reopened = disk_manager(mem_capacity=0, disk_capacity=8, clock=clock2)
        assert reopened.get(keep.id).payload == keep.payload
        assert reopened.get(lose.id) is None

    def test_reopened_disk_entries_hold_no_chunks_in_memory(self, disk_manager):
        rng = random.Random(7)
        chunks = [build_cid_chunk(rng.randbytes(64 * 1024), 1_000_000) for _ in range(200)]
        manager = disk_manager(mem_capacity=0, disk_capacity=256)
        for chunk in chunks:
            manager.store(chunk)
        manager.close()
        del manager

        tracemalloc.start()
        try:
            reopened = disk_manager(mem_capacity=0, disk_capacity=256)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(reopened) == 200
        assert held < 1 << 20  # 200 x 64 KiB would be 12.5 MiB
        # an identical republish reads the chunk back from disk to compare
        assert reopened.store(chunks[0]) == ("disk", [])
        assert reopened.get(chunks[0].id) == chunks[0]

    def test_read_recency_survives_reopen(self, disk_manager):
        def reopen():
            return disk_manager(mem_capacity=0, disk_capacity=8, clock=clock)

        clock = LogicalClock()
        manager = reopen()
        a, b, c = (chunk_for(t) for t in "abc")
        for ch in (a, b, c):
            manager.store(ch)
            clock.advance(1)
        manager.get(a.id)
        manager.close()
        reopened = reopen()
        assert [reopened.evict_one("disk") for _ in range(3)] == [b.id, c.id, a.id]

    def test_memory_entries_do_not_survive(self, disk_manager):
        manager = disk_manager(mem_capacity=2, disk_capacity=8, clock=LogicalClock())
        a = chunk_for("a")
        manager.store(a)  # lands in memory
        manager.close()
        reopened = disk_manager(mem_capacity=2, disk_capacity=8, clock=LogicalClock())
        assert reopened.get(a.id) is None

    def test_corrupt_file_skipped_on_open(self, disk_manager, tmp_path):
        manager = disk_manager(mem_capacity=0, disk_capacity=8, clock=LogicalClock())
        a, b = chunk_for("a"), chunk_for("b")
        manager.store(a)
        manager.store(b)
        manager.close()
        # a's record no longer decodes; b's, after it, still does
        flip_disk_entry(tmp_path, a.id, disk_record(tmp_path, a.id).index(CHUNK_MAGIC))
        reopened = disk_manager(mem_capacity=0, disk_capacity=8, clock=LogicalClock())
        assert reopened.get(a.id) is None
        assert reopened.ids() == [b.id]

    def test_a_record_with_an_unknown_frame_is_skipped_on_open(self, disk_manager, tmp_path):
        manager = disk_manager(mem_capacity=0, disk_capacity=8, clock=LogicalClock())
        a, b = chunk_for("a"), chunk_for("b")
        manager.store(a)
        manager.store(b)
        manager.close()
        flip_disk_entry(tmp_path, a.id, 0)  # the live magic: neither live nor killed
        reopened = disk_manager(mem_capacity=0, disk_capacity=8, clock=LogicalClock())
        assert reopened.ids() == [b.id]
        assert reopened.get(b.id) == b

    def test_a_damaged_body_length_loses_only_its_record(self, disk_manager, tmp_path):
        manager = disk_manager(mem_capacity=0, disk_capacity=8, clock=LogicalClock())
        chunks = [chunk_for(f"len{i}") for i in range(5)]
        for ch in chunks:
            manager.store(ch)
        manager.close()
        flip_disk_entry(tmp_path, chunks[1].id, len(PACK_LIVE), 0x7F)  # runs past the end
        reopened = disk_manager(mem_capacity=0, disk_capacity=8, clock=LogicalClock())
        assert set(reopened.ids()) == {ch.id for ch in chunks} - {chunks[1].id}
        reopened.store(chunks[1])
        assert reopened.get(chunks[1].id) == chunks[1]

    def test_tampered_payload_detected_on_get(self, disk_manager, tmp_path):
        manager = disk_manager(mem_capacity=0, disk_capacity=8, clock=LogicalClock())
        a = chunk_for("a")
        manager.store(a)
        flip_disk_entry(tmp_path, a.id, -1)  # flip last payload byte
        got = manager.get(a.id)
        # decode still succeeds; verification is the caller's duty, but
        # the payload must reflect the on-disk bytes
        assert got is None or got.payload != a.payload

    def test_swapped_file_rejected(self, disk_manager, tmp_path):
        manager = disk_manager(mem_capacity=0, disk_capacity=8, clock=LogicalClock())
        a, b = chunk_for("a"), chunk_for("b")
        manager.store(a)
        manager.store(b)
        record_a, record_b = pack_records(tmp_path)
        assert record_a.length == record_b.length
        with open(tmp_path / PACK_NAME, "r+b") as pack:  # b's record now holds a's chunk
            pack.seek(record_b.offset)
            pack.write(disk_record(tmp_path, a.id))
        assert manager.get(b.id) is None
        assert manager.get(a.id) == a

    def test_a_reopen_keeps_the_most_recent_within_capacity(self, disk_manager, tmp_path):
        clock = LogicalClock()
        manager = disk_manager(mem_capacity=0, disk_capacity=4, clock=clock)
        a, b, c, d = (chunk_for(t) for t in "abcd")
        for ch in (a, b, c, d):
            manager.store(ch)
            clock.advance(1)
        manager.get(a.id)  # recency order is now b, c, d, a
        manager.close()
        assert len(DiskStore(tmp_path, 1).load_entries(now_ms=0)) == 4  # every live record
        smaller = disk_manager(mem_capacity=0, disk_capacity=2, clock=clock)
        assert set(smaller.ids()) == {d.id, a.id}
        smaller.close()
        again = disk_manager(mem_capacity=0, disk_capacity=4, clock=clock)
        assert [again.evict_one("disk") for _ in range(3)] == [d.id, a.id, None]

    def test_the_pack_stays_bounded_over_replaces_and_removes(self, disk_manager, tmp_path):
        clock = LogicalClock()
        manager = disk_manager(mem_capacity=0, disk_capacity=8, clock=clock)
        rng = random.Random(5)
        held = {chunk.id: chunk for chunk in (chunk_for(f"bound{i}") for i in range(8))}
        longest = 0
        for _ in range(1000):
            xid, op = rng.choice(list(held)), rng.random()
            if op < 0.25:
                manager.remove(xid)
            elif op < 0.5:  # the same chunk again: its record is rewritten
                manager.store(held[xid])
            else:  # new content under the id
                payload = rng.randbytes(rng.randint(1, 600))
                held[xid] = Chunk(id=xid, ttl_ms=1_000_000, payload=payload)
                manager.store(held[xid])
            clock.advance(1)
            records = pack_records(tmp_path)
            live = sum(r.length for r in records)
            longest = max([longest] + [r.length for r in records])
            assert (tmp_path / PACK_NAME).stat().st_size <= 2 * live + longest
            assert sorted(r.xid.value for r in records) == sorted(x.value for x in manager.ids())

    def test_a_reopen_cuts_a_torn_tail(self, disk_manager, tmp_path):
        manager = disk_manager(mem_capacity=0, disk_capacity=8, clock=LogicalClock())
        a, b, c = (chunk_for(t) for t in "abc")
        manager.store(a)
        manager.store(b)
        manager.close()
        pack = tmp_path / PACK_NAME
        whole = pack.stat().st_size
        with open(pack, "ab") as f:  # an append cut short: its body runs past the end
            f.write(PACK_FRAME.pack(PACK_LIVE, 500) + b"partial")
        reopened = disk_manager(mem_capacity=0, disk_capacity=8, clock=LogicalClock())
        assert pack.stat().st_size == whole
        reopened.store(c)
        assert [r.xid for r in pack_records(tmp_path)] == [a.id, b.id, c.id]

    def test_a_reopen_of_a_well_formed_pack_writes_nothing(self, disk_manager, tmp_path):
        manager = disk_manager(mem_capacity=0, disk_capacity=8, clock=LogicalClock())
        chunks = [chunk_for(f"w{i}") for i in range(4)]
        for ch in chunks:
            manager.store(ch)
        manager.remove(chunks[1].id)  # a killed record stays in place
        manager.get(chunks[2].id)
        manager.close()
        pack = tmp_path / PACK_NAME
        before = (pack.read_bytes(), pack.stat().st_mtime_ns)
        assert len(DiskStore(tmp_path, 1).load_entries(now_ms=0)) == 3
        assert (pack.read_bytes(), pack.stat().st_mtime_ns) == before

    def test_a_reopen_keeps_the_later_of_two_live_records(self, tmp_path):
        store = DiskStore(tmp_path, capacity=4)
        a = chunk_for("a")
        store.store(CacheEntry(a, "disk", 0, 0, 100))
        store.store(CacheEntry(a, "disk", 0, 0, 200))  # appends, then kills the first
        store.close()
        with open(tmp_path / PACK_NAME, "r+b") as pack:  # as if the kill never landed
            pack.write(PACK_LIVE)
        assert len(pack_records(tmp_path)) == 2
        reloaded = DiskStore(tmp_path, capacity=4)
        assert [(e.chunk, e.expires_at) for e in reloaded.load_entries(now_ms=0)] == [(a, 200)]
        assert reloaded.get(a.id) == a
        reloaded.close()
        first = PACK_FRAME.size + PACK_STAMPS.size + len(encode_chunk(a))
        assert [r.offset for r in pack_records(tmp_path)] == [first]


class TestKillFaults:
    """A record whose kill the file system refuses stays indexed, since a
    reopen would find it live.  A reopen that cannot kill or cut goes on
    without the record or the tail."""

    def fill(self, disk_manager, tags):
        manager = disk_manager(mem_capacity=0, disk_capacity=len(tags), clock=LogicalClock())
        chunks = [chunk_for(tag) for tag in tags]
        for chunk in chunks:
            manager.store(chunk)
        return manager, chunks

    def reopened_ids(self, disk_manager, manager):
        manager.close()
        return set(disk_manager(mem_capacity=0, disk_capacity=8, clock=LogicalClock()).ids())

    def test_a_remove_whose_kill_fails_keeps_the_entry(self, disk_manager):
        manager, (a, b) = self.fill(disk_manager, "ab")
        with pytest.MonkeyPatch.context() as patch:
            fail_in_place_writes(patch)
            with pytest.raises(StoreError):
                manager.remove(a.id)
        assert manager.get(a.id) == a
        assert self.reopened_ids(disk_manager, manager) == {a.id, b.id}

    def test_an_eviction_whose_kill_fails_tries_the_next_victim(self, disk_manager, tmp_path):
        manager, (a, b) = self.fill(disk_manager, "ab")
        c = chunk_for("c")
        with pytest.MonkeyPatch.context() as patch:
            fail_in_place_writes(patch, offsets={pack_records(tmp_path)[0].offset})  # a's record
            assert manager.store(c) == ("disk", [b.id])
        assert manager.evict_one("disk") == a.id  # a stayed the oldest
        manager.store(b)
        assert self.reopened_ids(disk_manager, manager) == {b.id, c.id}

    def test_a_store_that_can_kill_no_victim_fails_whole(self, disk_manager):
        manager, (a, b) = self.fill(disk_manager, "ab")
        with pytest.MonkeyPatch.context() as patch:
            fail_in_place_writes(patch)
            with pytest.raises(StoreError) as info:
                manager.store(chunk_for("c"))
            assert manager.evict_one("disk") is None
        assert info.value.evicted == ()
        assert set(manager.ids()) == {a.id, b.id}
        assert self.reopened_ids(disk_manager, manager) == {a.id, b.id}

    def test_a_replace_whose_kill_fails_keeps_the_old_content(self, disk_manager, tmp_path):
        manager, (a,) = self.fill(disk_manager, "a")
        renamed = Chunk(id=a.id, ttl_ms=40, payload=b"renamed")
        with pytest.MonkeyPatch.context() as patch:
            fail_in_place_writes(patch)
            with pytest.raises(StoreError) as info:
                manager.store(renamed)
            with pytest.raises(StoreError):
                manager.store(a)  # an identical republish rewrites the record
        assert info.value.evicted == ()
        assert manager.get(a.id) == a
        assert [r.xid for r in pack_records(tmp_path)] == [a.id]
        assert self.reopened_ids(disk_manager, manager) == {a.id}

    def test_a_sweep_keeps_what_it_cannot_kill(self, disk_manager):
        clock = LogicalClock()
        manager = disk_manager(mem_capacity=0, disk_capacity=4, clock=clock)
        short = chunk_for("short", ttl=10)
        manager.store(short)
        clock.advance(10)
        with pytest.MonkeyPatch.context() as patch:
            fail_in_place_writes(patch)
            assert manager.sweep() == []
        assert manager.ids() == [short.id] and not manager.contains(short.id)
        assert manager.sweep() == [short.id]

    def test_a_reopen_that_cannot_kill_an_expired_record_leaves_it_out(
        self, disk_manager, tmp_path
    ):
        manager = disk_manager(mem_capacity=0, disk_capacity=4, clock=LogicalClock())
        short, lasting = chunk_for("short", ttl=10), chunk_for("lasting")
        manager.store(short)
        manager.store(lasting)
        manager.close()
        with pytest.MonkeyPatch.context() as patch:
            fail_in_place_writes(patch)
            reopened = disk_manager(mem_capacity=0, disk_capacity=4, clock=LogicalClock(20))
            assert reopened.ids() == [lasting.id]
        assert [r.xid for r in pack_records(tmp_path)] == [short.id, lasting.id]
        reopened.close()
        again = disk_manager(mem_capacity=0, disk_capacity=4, clock=LogicalClock(20))
        assert again.ids() == [lasting.id]
        assert [r.xid for r in pack_records(tmp_path)] == [lasting.id]

    def test_a_reopen_that_cannot_kill_an_earlier_record_keeps_the_later(
        self, disk_manager, tmp_path
    ):
        # b's record keeps the pack from being compacted at a's kill
        manager, (a, b) = self.fill(disk_manager, "ab")
        renamed = Chunk(id=a.id, ttl_ms=1_000_000, payload=b"renamed")
        manager.store(renamed)
        manager.close()
        with open(tmp_path / PACK_NAME, "r+b") as pack:  # as if the replace's kill never landed
            pack.write(PACK_LIVE)
        with pytest.MonkeyPatch.context() as patch:
            fail_in_place_writes(patch)
            reopened = disk_manager(mem_capacity=0, disk_capacity=8, clock=LogicalClock())
            assert reopened.get(a.id) == renamed
        assert [r.xid for r in pack_records(tmp_path)] == [a.id, b.id, a.id]
        assert self.reopened_ids(disk_manager, reopened) == {a.id, b.id}
        assert [r.xid for r in pack_records(tmp_path)] == [b.id, a.id]

    def test_a_reopen_that_cannot_cut_a_torn_tail_appends_over_it(self, disk_manager, tmp_path):
        manager = disk_manager(mem_capacity=0, disk_capacity=8, clock=LogicalClock())
        a, b = chunk_for("a"), chunk_for("b")
        manager.store(a)
        manager.close()
        pack = tmp_path / PACK_NAME
        with open(pack, "ab") as f:  # an append cut short: its body runs past the end
            f.write(PACK_FRAME.pack(PACK_LIVE, 500) + b"partial")
        torn = pack.stat().st_size

        def refuse(fd, length):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "ftruncate", refuse)
            reopened = disk_manager(mem_capacity=0, disk_capacity=8, clock=LogicalClock())
            assert reopened.ids() == [a.id] and pack.stat().st_size == torn
            reopened.store(b)  # lands where the torn append began
        assert [r.xid for r in pack_records(tmp_path)] == [a.id, b.id]
        assert self.reopened_ids(disk_manager, reopened) == {a.id, b.id}


class TestStores:
    def test_memory_store_basics(self):
        store = MemoryStore(capacity=2)
        a = chunk_for("a")
        entry = CacheEntry(a, "mem", 0, 0, 10)
        store.store(entry)
        assert store.get(a.id) == a
        assert len(store) == 1
        assert store.remove(a.id)
        assert not store.remove(a.id)

    def test_disk_store_keeps_one_pack_of_framed_records(self, tmp_path):
        store = DiskStore(tmp_path, capacity=4)
        assert list(tmp_path.iterdir()) == []  # created on the first write
        a, b = chunk_for("a"), chunk_for("b")
        store.store(CacheEntry(a, "disk", 3, 5, 10))
        store.store(CacheEntry(b, "disk", 4, 6, 20))
        store.close()
        assert [p.name for p in tmp_path.iterdir()] == [PACK_NAME]

        def record(chunk, inserted, last_access, expires):
            body = PACK_STAMPS.pack(b"XCS1", inserted, last_access, expires) + encode_chunk(chunk)
            return PACK_FRAME.pack(PACK_LIVE, len(body)) + body

        first, second = record(a, 3, 5, 10), record(b, 4, 6, 20)
        assert (tmp_path / PACK_NAME).read_bytes() == first + second
        assert pack_records(tmp_path) == [
            PackRecord(a.id, 0, len(first)),
            PackRecord(b.id, len(first), len(second)),
        ]

    def test_interrupted_disk_write_keeps_previous_copy(self, tmp_path, monkeypatch):
        store = DiskStore(tmp_path, capacity=4)
        a, b = chunk_for("a"), chunk_for("b")
        store.store(CacheEntry(a, "disk", 0, 0, 100))
        whole = (tmp_path / PACK_NAME).stat().st_size

        fail_disk_writes(monkeypatch, torn=True)
        with pytest.raises(StoreError) as info:
            store.store(CacheEntry(a, "disk", 0, 50, 200))
        assert isinstance(info.value.__cause__, OSError)
        monkeypatch.undo()
        # the torn half was cut off, so the next append follows a's record
        assert (tmp_path / PACK_NAME).stat().st_size == whole
        assert store.get(a.id) == a
        store.store(CacheEntry(b, "disk", 1, 1, 100))
        store.close()
        assert [(r.xid, r.offset) for r in pack_records(tmp_path)] == [(a.id, 0), (b.id, whole)]
        assert [p.name for p in tmp_path.iterdir()] == [PACK_NAME]
        reloaded = DiskStore(tmp_path, capacity=4).load_entries(now_ms=0)
        assert [(e.chunk, e.expires_at) for e in reloaded] == [(a, 100), (b, 100)]


@dataclass
class ModelEntry:
    chunk: Chunk
    store_id: str
    expires_at: int


class StoreLawsMachine(RuleBasedStateMachine):
    """A memory+disk manager against a brute-force model.

    The model keeps one LruOracle per store.  A clean close stamps the
    disk entries read since their last write, so a reopen restores the
    victim order the model had.  The clock advances before each read.
    Removal, eviction and reopen wait until three entries are held, and
    most chunks outlive a run, so runs reach full stores instead of
    emptying them as fast as they fill.  A store may meet a full disk:
    its pack append fails, and the model applies the evictions made for
    it, then refuses it.  A step may find that no record can be killed:
    the manager then keeps every disk entry it would have dropped.  The
    reference reader's view of the pack must match the manager's disk
    tier after every step.  The managers share one route table, as a
    node's stores do across a restart, and it must route what the open
    manager holds, but for entries a read found expired.
    """

    CAPACITY = {"mem": 1, "disk": 3}

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="xcache-laws-")
        self.clock = LogicalClock()
        self.routes = RouteTable()
        self.manager = self._open()
        ttls = (1000, 1000, 1000, 1000, 30)
        self.pool = [chunk_for(f"law{i}", ttl=ttl) for i, ttl in enumerate(ttls)]
        # a named republish: same id, new content
        self.pool.append(Chunk(id=self.pool[3].id, ttl_ms=40, payload=b"renamed"))
        self.longest = PACK_FRAME.size + PACK_STAMPS.size + max(
            len(encode_chunk(c)) for c in self.pool
        )
        self.entries: dict = {}
        self.lru = {"mem": LruOracle(), "disk": LruOracle()}
        # ids a read found expired since they were last written; an id
        # evicted meanwhile stays here, which the invariant ignores
        self.unrouted: set = set()

    def teardown(self):
        self.manager.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def _open(self):
        return StorageManager(
            mem_capacity=self.CAPACITY["mem"],
            disk_capacity=self.CAPACITY["disk"],
            disk_dir=self.dir,
            clock=self.clock,
            routes=self.routes,
        )

    def _live(self, xid):
        entry = self.entries.get(xid)
        return entry is not None and self.clock.now_ms() < entry.expires_at

    def _drop(self, xid):
        entry = self.entries.pop(xid)
        del self.lru[entry.store_id].state[xid]

    def _store(self, chunk, disk_fails=False, kills_fail=False):
        """Apply a store to the model; returns what the manager's store
        returns, or, when ``disk_fails`` and the write goes to disk,
        ``StoreError`` and the ids the error reports: the evictions made
        for the write stand, and a replaced entry is gone too.  When
        ``kills_fail``, no disk record can be killed, so a store that
        must drop a disk entry, or rewrite one, fails and keeps them."""
        now = self.clock.now_ms()
        existing = self.entries.get(chunk.id)
        if self._live(chunk.id) and existing.chunk == chunk:
            if (disk_fails or kills_fail) and existing.store_id == "disk":
                return StoreError, ()
            self.lru[existing.store_id].get(chunk.id, now)
            existing.expires_at = now + chunk.ttl_ms
            return existing.store_id, []
        if kills_fail and existing is not None and existing.store_id == "disk":
            return StoreError, ()
        dropped = []
        if existing is not None:
            self._drop(chunk.id)
            dropped.append(chunk.id)
        target = "mem" if len(self.lru["mem"].state) < self.CAPACITY["mem"] else "disk"
        lru = self.lru[target]
        if kills_fail and target == "disk" and len(lru.state) >= self.CAPACITY["disk"]:
            return StoreError, tuple(dropped)
        evicted = []
        while len(lru.state) >= self.CAPACITY[target]:
            evicted.append(lru.evict())
            del self.entries[evicted[-1]]
        if disk_fails and target == "disk":
            return StoreError, tuple(dropped + evicted)
        lru.store(chunk.id, now)
        self.entries[chunk.id] = ModelEntry(chunk, target, now + chunk.ttl_ms)
        self.unrouted.discard(chunk.id)
        return target, evicted

    @rule(i=st.integers(0, 5))
    def store(self, i):
        expected = self._store(self.pool[i])
        assert self.manager.store(self.pool[i]) == expected

    @rule(i=st.integers(0, 5), torn=st.booleans())
    def store_while_the_disk_is_full(self, i, torn):
        # the pack append fails whole, or after half its bytes landed
        expected = self._store(self.pool[i], disk_fails=True)
        with pytest.MonkeyPatch.context() as patch:
            fail_disk_writes(patch, torn=torn)
            if expected[0] is not StoreError:
                assert self.manager.store(self.pool[i]) == expected
                return
            with pytest.raises(StoreError) as info:
                self.manager.store(self.pool[i])
        assert info.value.evicted == expected[1]

    @rule(op=st.sampled_from(["store", "remove", "evict", "sweep"]), i=st.integers(0, 5))
    def while_kills_fail(self, op, i):
        """A step during which no in-place write lands, so no disk record
        can be killed: what the manager cannot kill, it keeps."""
        chunk = self.pool[i]
        with pytest.MonkeyPatch.context() as patch:
            fail_in_place_writes(patch)
            if op == "store":
                expected = self._store(chunk, kills_fail=True)
                if expected[0] is not StoreError:
                    assert self.manager.store(chunk) == expected
                    return
                with pytest.raises(StoreError) as info:
                    self.manager.store(chunk)
                assert info.value.evicted == expected[1]
            elif op == "remove":
                entry = self.entries.get(chunk.id)
                if entry is not None and entry.store_id == "disk":
                    with pytest.raises(StoreError):
                        self.manager.remove(chunk.id)
                    return
                if entry is not None:
                    self._drop(chunk.id)
                assert self.manager.remove(chunk.id) == (entry is not None)
            elif op == "evict":
                assert self.manager.evict_one("disk") is None
            else:
                expired = {
                    x for x, e in self.entries.items() if e.store_id == "mem" and not self._live(x)
                }
                for xid in expired:
                    self._drop(xid)
                assert set(self.manager.sweep()) == expired

    @rule(dt=st.integers(0, 30), i=st.integers(0, 5))
    def get(self, dt, i):
        self.clock.advance(dt)
        xid = self.pool[i].id
        expected = None
        if self._live(xid):
            expected = self.entries[xid].chunk
            self.lru[self.entries[xid].store_id].get(xid, self.clock.now_ms())
        elif xid in self.entries:
            self.unrouted.add(xid)
        assert self.manager.get(xid) == expected

    @precondition(lambda self: len(self.entries) >= 3)
    @rule(i=st.integers(0, 5))
    def remove(self, i):
        xid = self.pool[i].id
        present = xid in self.entries
        if present:
            self._drop(xid)
        assert self.manager.remove(xid) == present

    @precondition(lambda self: len(self.entries) >= 3)
    @rule(store_id=st.sampled_from(["mem", "disk"]))
    def evict_one(self, store_id):
        victim = self.lru[store_id].evict()
        if victim is not None:
            del self.entries[victim]
        assert self.manager.evict_one(store_id) == victim

    @precondition(lambda self: any(not self._live(x) for x in self.entries))
    @rule()
    def sweep(self):
        expired = {x for x in self.entries if not self._live(x)}
        for xid in expired:
            self._drop(xid)
        assert set(self.manager.sweep()) == expired

    @precondition(lambda self: len(self.entries) >= 3)
    @rule()
    def reopen(self):
        self.manager.close()
        on_disk = self._on_disk()
        persisted_order = sorted(
            on_disk, key=lambda x: (on_disk[x].last_access, on_disk[x].inserted_at)
        )
        state = self.lru["disk"].state
        assert persisted_order == sorted(state, key=state.__getitem__)
        assert self.routes.locals() == frozenset()
        self.manager = self._open()
        assert self.routes.locals() == set(self.manager.ids())
        for xid, entry in list(self.entries.items()):
            if entry.store_id == "mem" or not self._live(xid):
                self._drop(xid)
        reopened = self.manager._lru["disk"]
        assert sorted(reopened, key=reopened.__getitem__) == sorted(state, key=state.__getitem__)

    def _on_disk(self):
        # load_entries(now_ms=0) reads every live record and, on a
        # well-formed pack, writes nothing
        return {e.chunk.id: e for e in DiskStore(self.dir, 1).load_entries(now_ms=0)}

    @invariant()
    def pack_matches_the_disk_tier(self):
        records = pack_records(self.dir)
        held = [x for x in self.manager.ids() if self.manager.placement(x) == "disk"]
        assert sorted(r.xid.value for r in records) == sorted(x.value for x in held)
        assert len(held) <= self.CAPACITY["disk"]
        pack = Path(self.dir) / PACK_NAME
        size = pack.stat().st_size if pack.exists() else 0
        assert size < 2 * sum(r.length for r in records) + self.longest

    @invariant()
    def disk_holds_deadlines_and_unique_stamps(self):
        on_disk = self._on_disk()
        expected = {x: e for x, e in self.entries.items() if e.store_id == "disk"}
        assert {x: e.expires_at for x, e in on_disk.items()} == {
            x: e.expires_at for x, e in expected.items()
        }
        assert len({e.inserted_at for e in on_disk.values()}) == len(on_disk)

    @invariant()
    def routes_name_the_held_entries(self):
        assert self.routes.locals() == set(self.manager.ids()) - self.unrouted

    @invariant()
    def same_contents(self):
        assert set(self.manager.ids()) == set(self.entries)
        for chunk in self.pool:
            assert self.manager.contains(chunk.id) == self._live(chunk.id)


TestStoreLaws = StoreLawsMachine.TestCase
TestStoreLaws.settings = settings(max_examples=100, stateful_step_count=40, deadline=None)


class HeapVictimMachine(RuleBasedStateMachine):
    """The eviction heap against the scan it replaces.

    The reference keeps each entry's LRU key ``(last access, insertion
    seq)`` and picks the victim as ``min(lru, key=lru.__getitem__)``.
    Clock moves are small, so many stamps share a millisecond, and the
    clock also steps backwards.  After every step the machine evicts
    the victim, compares it with the reference, and stores a live
    victim again, so the store stays full enough to matter.
    """

    CAPACITY = 6

    def __init__(self):
        super().__init__()
        self.clock = LogicalClock(start_ms=100)
        self.manager = StorageManager(mem_capacity=self.CAPACITY, clock=self.clock)
        self.pool = [chunk_for(f"heap{i}", ttl=(5, 40, 1000)[i % 3]) for i in range(10)]
        self.chunks = {c.id: c for c in self.pool}
        self.lru: dict = {}
        self.expires: dict = {}
        self.seq = 0

    def _live(self, xid):
        return xid in self.expires and self.clock.now_ms() < self.expires[xid]

    def _victim(self):
        return min(self.lru, key=self.lru.__getitem__)

    def _forget(self, xid):
        del self.lru[xid]
        del self.expires[xid]

    def _insert(self, chunk):
        now = self.clock.now_ms()
        self.lru[chunk.id] = (now, self.seq)
        self.expires[chunk.id] = now + chunk.ttl_ms
        self.seq += 1

    @rule(i=st.integers(0, 9))
    def store(self, i):
        chunk, now = self.pool[i], self.clock.now_ms()
        if self._live(chunk.id):
            self.lru[chunk.id] = (now, self.lru[chunk.id][1])
            self.expires[chunk.id] = now + chunk.ttl_ms
            assert self.manager.store(chunk) == ("mem", [])
            return
        if chunk.id in self.lru:
            self._forget(chunk.id)
        evicted = []
        while len(self.lru) >= self.CAPACITY:
            evicted.append(self._victim())
            self._forget(evicted[-1])
        self._insert(chunk)
        assert self.manager.store(chunk) == ("mem", evicted)

    @rule(i=st.integers(0, 9), times=st.integers(1, 20))
    def get(self, i, times):
        # repeated reads leave stale heap items behind
        xid = self.pool[i].id
        live = self._live(xid)
        if live:
            self.lru[xid] = (self.clock.now_ms(), self.lru[xid][1])
        for _ in range(times):
            assert self.manager.get(xid) == (self.chunks[xid] if live else None)

    @rule(i=st.integers(0, 9))
    def remove(self, i):
        xid = self.pool[i].id
        present = xid in self.lru
        if present:
            self._forget(xid)
        assert self.manager.remove(xid) == present

    @rule()
    def sweep(self):
        expired = {x for x in self.lru if not self._live(x)}
        for xid in expired:
            self._forget(xid)
        assert set(self.manager.sweep()) == expired

    @rule(dt=st.integers(0, 3))
    def advance(self, dt):
        self.clock.advance(dt)

    @rule(dt=st.integers(1, 20))
    def set_back(self, dt):
        self.clock.set(self.clock.now_ms() - dt)

    @invariant()
    def victim_matches_the_scan(self):
        heap = self.manager._heap["mem"]
        assert len(heap) <= 2 * len(self.lru) + 4
        if not self.lru:
            assert self.manager.evict_one("mem") is None
            return
        victim = self._victim()
        live = self._live(victim)
        self._forget(victim)
        assert self.manager.evict_one("mem") == victim
        if live:
            chunk = self.chunks[victim]
            self._insert(chunk)
            assert self.manager.store(chunk) == ("mem", [])


TestHeapVictim = HeapVictimMachine.TestCase
TestHeapVictim.settings = settings(max_examples=100, stateful_step_count=40, deadline=None)
