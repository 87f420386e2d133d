import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from xcache.chunking import Chunk, build_cid_chunk
from xcache.store import (
    CacheEntry,
    DiskStore,
    LogicalClock,
    MemoryStore,
    StorageManager,
    StoreError,
)


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
    def test_memory_then_disk(self, tmp_path):
        clock = LogicalClock()
        manager = StorageManager(mem_capacity=2, disk_capacity=8, disk_dir=tmp_path, clock=clock)
        a, b, c = chunk_for("a"), chunk_for("b"), chunk_for("c")
        assert manager.store(a) == ("mem", [])
        assert manager.store(b) == ("mem", [])
        assert manager.store(c) == ("disk", [])
        for ch in (a, b, c):
            assert manager.get(ch.id).payload == ch.payload

    def test_zero_memory_capacity_spills_everything_to_disk(self, tmp_path):
        manager = StorageManager(
            mem_capacity=0, disk_capacity=4, disk_dir=tmp_path, clock=LogicalClock()
        )
        assert manager.store(chunk_for("a"))[0] == "disk"

    def test_both_full_evicts_from_disk(self, tmp_path):
        clock = LogicalClock()
        manager = StorageManager(mem_capacity=1, disk_capacity=2, disk_dir=tmp_path, clock=clock)
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
    def test_replay_against_oracle(self, backing, tmp_path):
        clock = LogicalClock()
        if backing == "mem":
            manager = StorageManager(mem_capacity=64, clock=clock)
        else:
            manager = StorageManager(
                mem_capacity=0, disk_capacity=64, disk_dir=tmp_path, clock=clock
            )
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

    def test_insertion_order_survives_two_reopens(self, tmp_path):
        def reopen():
            return StorageManager(
                mem_capacity=0, disk_capacity=8, disk_dir=tmp_path, clock=LogicalClock()
            )

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

    def test_identical_republish_refresh_survives_reopen(self, tmp_path):
        clock = LogicalClock()
        manager = StorageManager(mem_capacity=0, disk_capacity=4, disk_dir=tmp_path, clock=clock)
        chunk, other = chunk_for("a", ttl=100), chunk_for("b", ttl=1000)
        manager.store(chunk)
        manager.store(other)
        clock.set(90)
        manager.store(chunk)  # deadline 190, access stamp 90
        manager.close()
        reopened = StorageManager(
            mem_capacity=0, disk_capacity=4, disk_dir=tmp_path, clock=LogicalClock(150)
        )
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
    def test_entries_survive_reopen(self, tmp_path):
        clock = LogicalClock()
        manager = StorageManager(mem_capacity=0, disk_capacity=8, disk_dir=tmp_path, clock=clock)
        keep = chunk_for("keep", ttl=1000)
        lose = chunk_for("lose", ttl=50)
        manager.store(keep)
        manager.store(lose)
        manager.close()

        clock2 = LogicalClock(start_ms=100)  # past `lose`'s deadline
        reopened = StorageManager(
            mem_capacity=0, disk_capacity=8, disk_dir=tmp_path, clock=clock2
        )
        assert reopened.get(keep.id).payload == keep.payload
        assert reopened.get(lose.id) is None

    def test_memory_entries_do_not_survive(self, tmp_path):
        manager = StorageManager(
            mem_capacity=2, disk_capacity=8, disk_dir=tmp_path, clock=LogicalClock()
        )
        a = chunk_for("a")
        manager.store(a)  # lands in memory
        manager.close()
        reopened = StorageManager(
            mem_capacity=2, disk_capacity=8, disk_dir=tmp_path, clock=LogicalClock()
        )
        assert reopened.get(a.id) is None

    def test_corrupt_file_skipped_on_open(self, tmp_path):
        manager = StorageManager(mem_capacity=0, disk_capacity=8, disk_dir=tmp_path, clock=LogicalClock())
        a = chunk_for("a")
        manager.store(a)
        manager.close()
        victim = next(tmp_path.glob("*.chunk"))
        victim.write_bytes(b"garbage")
        reopened = StorageManager(
            mem_capacity=0, disk_capacity=8, disk_dir=tmp_path, clock=LogicalClock()
        )
        assert reopened.get(a.id) is None
        assert len(reopened) == 0

    def test_index_written_on_close(self, tmp_path):
        manager = StorageManager(mem_capacity=0, disk_capacity=8, disk_dir=tmp_path, clock=LogicalClock())
        manager.store(chunk_for("a"))
        manager.close()
        assert (tmp_path / "index.json").exists()

    def test_tampered_payload_detected_on_get(self, tmp_path):
        manager = StorageManager(mem_capacity=0, disk_capacity=8, disk_dir=tmp_path, clock=LogicalClock())
        a = chunk_for("a")
        manager.store(a)
        path = next(tmp_path.glob("*.chunk"))
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip last payload byte
        path.write_bytes(bytes(blob))
        got = manager.get(a.id)
        # decode still succeeds; verification is the caller's duty, but
        # the payload must reflect the on-disk bytes
        assert got is None or got.payload != a.payload

    def test_swapped_file_rejected(self, tmp_path):
        manager = StorageManager(mem_capacity=0, disk_capacity=8, disk_dir=tmp_path, clock=LogicalClock())
        a, b = chunk_for("a"), chunk_for("b")
        manager.store(a)
        manager.store(b)
        files = sorted(tmp_path.glob("*.chunk"))
        blob = files[0].read_bytes()
        files[1].write_bytes(blob)  # file for one id now holds the other chunk
        swapped = [x for x in (a, b) if f"{x.id.value.hex()}" in files[1].name][0]
        assert manager.get(swapped.id) is None


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

    def test_disk_store_filenames_use_hex_ids(self, tmp_path):
        store = DiskStore(tmp_path, capacity=4)
        a = chunk_for("a")
        store.store(CacheEntry(a, "disk", 0, 0, 10))
        assert (tmp_path / f"cid-{a.id.value.hex()}.chunk").exists()

    def test_interrupted_disk_write_keeps_previous_copy(self, tmp_path, monkeypatch):
        store = DiskStore(tmp_path, capacity=4)
        a = chunk_for("a")
        store.store(CacheEntry(a, "disk", 0, 0, 100))

        def torn_write(path, data):
            with open(path, "wb") as f:
                f.write(data[: len(data) // 2])
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_bytes", torn_write)
        with pytest.raises(OSError):
            store.store(CacheEntry(a, "disk", 0, 50, 200))
        monkeypatch.undo()
        assert [p.name for p in tmp_path.glob("*.chunk")] == [f"cid-{a.id.value.hex()}.chunk"]
        assert list(tmp_path.glob("*.tmp")) == []
        reloaded = DiskStore(tmp_path, capacity=4).load_entries(now_ms=0)
        assert [(e.chunk, e.expires_at) for e in reloaded] == [(a, 100)]


@dataclass
class ModelEntry:
    chunk: Chunk
    store_id: str
    expires_at: int
    written: tuple  # the entry's LRU key as of its last write


class StoreLawsMachine(RuleBasedStateMachine):
    """A memory+disk manager against a brute-force model.

    The model keeps one LruOracle per store.  Reads are not written to
    disk, so across a reopen a disk entry's recency falls back to the
    LRU key of its last write.  The clock advances before each read.
    Removal, eviction and reopen wait until three entries are held, and
    most chunks outlive a run, so runs reach full stores instead of
    emptying them as fast as they fill.
    """

    CAPACITY = {"mem": 1, "disk": 3}

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="xcache-laws-")
        self.clock = LogicalClock()
        self.manager = self._open()
        ttls = (1000, 1000, 1000, 1000, 30)
        self.pool = [chunk_for(f"law{i}", ttl=ttl) for i, ttl in enumerate(ttls)]
        # a named republish: same id, new content
        self.pool.append(Chunk(id=self.pool[3].id, ttl_ms=40, payload=b"renamed"))
        self.entries: dict = {}
        self.lru = {"mem": LruOracle(), "disk": LruOracle()}

    def teardown(self):
        self.manager.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def _open(self):
        return StorageManager(
            mem_capacity=self.CAPACITY["mem"],
            disk_capacity=self.CAPACITY["disk"],
            disk_dir=self.dir,
            clock=self.clock,
        )

    def _live(self, xid):
        entry = self.entries.get(xid)
        return entry is not None and self.clock.now_ms() < entry.expires_at

    def _drop(self, xid):
        entry = self.entries.pop(xid)
        del self.lru[entry.store_id].state[xid]

    @rule(i=st.integers(0, 5))
    def store(self, i):
        chunk, now = self.pool[i], self.clock.now_ms()
        existing = self.entries.get(chunk.id)
        if self._live(chunk.id) and existing.chunk == chunk:
            lru = self.lru[existing.store_id]
            lru.get(chunk.id, now)
            existing.expires_at = now + chunk.ttl_ms
            existing.written = lru.state[chunk.id]
            assert self.manager.store(chunk) == (existing.store_id, [])
            return
        if existing is not None:
            self._drop(chunk.id)
        target = "mem" if len(self.lru["mem"].state) < self.CAPACITY["mem"] else "disk"
        lru = self.lru[target]
        evicted = []
        while len(lru.state) >= self.CAPACITY[target]:
            evicted.append(lru.evict())
            del self.entries[evicted[-1]]
        lru.store(chunk.id, now)
        self.entries[chunk.id] = ModelEntry(
            chunk, target, now + chunk.ttl_ms, lru.state[chunk.id]
        )
        assert self.manager.store(chunk) == (target, evicted)

    @rule(dt=st.integers(0, 30), i=st.integers(0, 5))
    def get(self, dt, i):
        self.clock.advance(dt)
        xid = self.pool[i].id
        expected = None
        if self._live(xid):
            expected = self.entries[xid].chunk
            self.lru[self.entries[xid].store_id].get(xid, self.clock.now_ms())
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
        self.manager = self._open()
        for xid, entry in list(self.entries.items()):
            if entry.store_id == "mem" or not self._live(xid):
                self._drop(xid)
            else:
                self.lru["disk"].state[xid] = entry.written

    @invariant()
    def disk_holds_what_a_reopen_restores(self):
        # load_entries(now_ms=0) reads every file and deletes none
        on_disk = {e.chunk.id: e for e in DiskStore(self.dir, 1).load_entries(now_ms=0)}
        expected = {x: e for x, e in self.entries.items() if e.store_id == "disk"}
        assert {x: e.expires_at for x, e in on_disk.items()} == {
            x: e.expires_at for x, e in expected.items()
        }
        assert len({e.inserted_at for e in on_disk.values()}) == len(on_disk)
        persisted_order = sorted(
            on_disk, key=lambda x: (on_disk[x].last_access, on_disk[x].inserted_at)
        )
        assert persisted_order == sorted(expected, key=lambda x: expected[x].written)

    @invariant()
    def same_contents(self):
        assert set(self.manager.ids()) == set(self.entries)
        for chunk in self.pool:
            assert self.manager.contains(chunk.id) == self._live(chunk.id)


TestStoreLaws = StoreLawsMachine.TestCase
TestStoreLaws.settings = settings(max_examples=100, stateful_step_count=40, deadline=None)
