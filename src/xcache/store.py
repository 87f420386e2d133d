"""Content stores, placement and eviction.

A storage manager places verified chunks in memory first and then on
disk, tracks per-entry bookkeeping (placement, expiry deadline, LRU
key) and evicts the least recently used entry of a full store in
O(log n).  Time is injected so expiry tests are deterministic; the wall
clock is the production default.
"""

from __future__ import annotations

import heapq
import logging
import os
import struct
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .addressing import Xid
from .chunking import Chunk, ChunkError, decode_chunk, encode_chunk

log = logging.getLogger(__name__)

_META = struct.Struct(">4sQQQ")  # magic, inserted_at, last_access, expires_at
_META_MAGIC = b"XCS1"
_LAST_ACCESS = struct.Struct(">Q")
_LAST_ACCESS_AT = struct.calcsize(">4sQ")  # offset of last_access in _META
_TMP_SUFFIX = ".tmp"
# Stale heap items tolerated beyond one per live entry before a rebuild.
_HEAP_SLACK = 4


class StoreError(Exception):
    """Placement or store-backend failure.  ``evicted`` holds the ids
    ``StorageManager.store`` evicted to make room for a write that then
    failed."""

    evicted: tuple[Xid, ...] = ()


class LogicalClock:
    """Manually advanced millisecond clock for deterministic tests/sims."""

    def __init__(self, start_ms: int = 0):
        self._now = start_ms

    def now_ms(self) -> int:
        return self._now

    def advance(self, delta_ms: int) -> None:
        self._now += delta_ms

    def set(self, now_ms: int) -> None:
        self._now = now_ms


class WallClock:
    def now_ms(self) -> int:
        return int(time.time() * 1000)


@dataclass
class CacheEntry:
    """A stored chunk with the stamps written alongside it: placement,
    insertion sequence number, access stamp and expiry deadline."""

    chunk: Chunk
    store_id: str
    inserted_at: int
    last_access: int
    expires_at: int

    def expired(self, now_ms: int) -> bool:
        return now_ms >= self.expires_at


class _Stamps(NamedTuple):
    """What the manager keeps of a stored entry: the chunk itself stays
    in its store only, so disk-resident chunks hold no memory."""

    store_id: str
    inserted_at: int
    expires_at: int

    def expired(self, now_ms: int) -> bool:
        return now_ms >= self.expires_at


class ContentStore(ABC):
    """A chunk container holding at most ``capacity`` chunks."""

    store_id: str

    def __init__(self, capacity: int):
        self.capacity = capacity

    @abstractmethod
    def store(self, entry: CacheEntry) -> None:
        """Write the entry, replacing any earlier one for the same id."""

    @abstractmethod
    def get(self, xid: Xid) -> Chunk | None: ...

    @abstractmethod
    def remove(self, xid: Xid) -> bool: ...

    @abstractmethod
    def __len__(self) -> int: ...

    def has_slot(self) -> bool:
        return len(self) < self.capacity


class MemoryStore(ContentStore):
    store_id = "mem"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._chunks: dict[Xid, Chunk] = {}

    def store(self, entry: CacheEntry) -> None:
        self._chunks[entry.chunk.id] = entry.chunk

    def get(self, xid: Xid) -> Chunk | None:
        return self._chunks.get(xid)

    def remove(self, xid: Xid) -> bool:
        return self._chunks.pop(xid, None) is not None

    def __len__(self) -> int:
        return len(self._chunks)


class DiskStore(ContentStore):
    """One file per chunk named by its hex id, inside a configured
    directory.  Each file carries the entry bookkeeping stamps before the
    encoded chunk, so unexpired entries survive a close/reopen cycle.
    The last-access stamp sits at a fixed offset in that header, so a
    read's recency can be stamped without rewriting the chunk.  The
    in-memory index is rebuilt by scanning on open.
    """

    store_id = "disk"

    def __init__(self, directory: str | Path, capacity: int):
        super().__init__(capacity)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._files: dict[Xid, Path] = {}

    def _path_for(self, xid: Xid) -> Path:
        return self.directory / f"{xid.xtype.scheme}-{xid.value.hex()}.chunk"

    def store(self, entry: CacheEntry) -> None:
        """Write to a temporary file, then rename it over the chunk's file,
        so a reader or a reopen never sees a half-written chunk.  The
        temporary name does not match the ``*.chunk`` scan pattern.  A
        write the file system refuses (a full disk, say) raises
        ``StoreError``: the entry was not stored."""
        blob = _META.pack(
            _META_MAGIC, entry.inserted_at, entry.last_access, entry.expires_at
        ) + encode_chunk(entry.chunk)
        path = self._path_for(entry.chunk.id)
        tmp = path.with_name(path.name + _TMP_SUFFIX)
        try:
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise StoreError(f"could not write {path.name}: {exc}") from exc
        self._files[entry.chunk.id] = path

    def get(self, xid: Xid) -> Chunk | None:
        path = self._files.get(xid)
        if path is None:
            return None
        try:
            blob = path.read_bytes()
            chunk = decode_chunk(blob[_META.size :])
            if chunk.id != xid:
                raise StoreError("file does not contain the indexed chunk")
            return chunk
        except (OSError, ChunkError, StoreError) as exc:
            log.warning("disk store %s: dropping unreadable %s: %s", self.store_id, path, exc)
            self.remove(xid)
            return None

    def stamp_access(self, xid: Xid, last_access: int) -> None:
        """Overwrite the last-access stamp in the entry's file header in
        place; the rest of the file is untouched."""
        path = self._files.get(xid)
        if path is None:
            return
        try:
            with open(path, "r+b") as f:
                f.seek(_LAST_ACCESS_AT)
                f.write(_LAST_ACCESS.pack(last_access))
        except OSError as exc:
            log.warning("disk store %s: could not stamp %s: %s", self.store_id, path, exc)

    def remove(self, xid: Xid) -> bool:
        path = self._files.pop(xid, None)
        if path is None:
            return False
        try:
            path.unlink()
        except OSError:
            pass
        return True

    def __len__(self) -> int:
        return len(self._files)

    def load_entries(self, now_ms: int) -> list[CacheEntry]:
        """Scan the directory, delete temporary files left by interrupted
        writes, drop expired or corrupt files, and return surviving
        entries sorted by insertion stamp."""
        for stale in self.directory.glob("*.chunk" + _TMP_SUFFIX):
            stale.unlink(missing_ok=True)
        entries: list[CacheEntry] = []
        for path in sorted(self.directory.glob("*.chunk")):
            try:
                blob = path.read_bytes()
                magic, inserted, last_access, expires = _META.unpack(blob[: _META.size])
                if magic != _META_MAGIC:
                    raise StoreError("bad meta magic")
                chunk = decode_chunk(blob[_META.size :])
            except (OSError, struct.error, ChunkError, StoreError) as exc:
                log.warning("disk store %s: skipping %s: %s", self.store_id, path, exc)
                continue
            if now_ms >= expires:
                path.unlink(missing_ok=True)
                continue
            self._files[chunk.id] = path
            entries.append(
                CacheEntry(chunk, self.store_id, inserted, last_access, expires)
            )
        entries.sort(key=lambda e: (e.inserted_at, e.chunk.id.value))
        return entries


class StorageManager:
    """Places verified chunks in memory first, then on disk, and evicts
    the least recently used entry of a full store; access-stamp ties
    break by insertion order, oldest first.  The victim comes off a
    per-store heap in O(log n).  All operations are serialized, so
    concurrent callers see chunk-granular linearizable behavior."""

    def __init__(
        self,
        mem_capacity: int = 64,
        disk_capacity: int = 0,
        disk_dir: str | Path | None = None,
        clock=None,
    ):
        self.clock = clock if clock is not None else WallClock()
        self._lock = threading.RLock()
        self._insert_seq = 0

        self.stores: list[ContentStore] = [MemoryStore(mem_capacity)]
        if disk_capacity > 0 and disk_dir is not None:
            self.stores.append(DiskStore(disk_dir, disk_capacity))
        self._by_id = {s.store_id: s for s in self.stores}
        # Each entry's placement and stamps as last written to its store.
        self._entries: dict[Xid, _Stamps] = {}
        # Per store, each entry's LRU key (last access, insertion seq): the
        # only record of recency.  The victim is the minimum key.
        self._lru: dict[str, dict[Xid, tuple[int, int]]] = {
            s.store_id: {} for s in self.stores
        }
        # Per store, a min-heap of (LRU key, id) pairs.  An item whose key
        # is no longer the entry's key in _lru is stale and skipped when
        # it surfaces.  Keys are unique per store (the insertion seq is),
        # so ids are never compared and the victim is min() over _lru.
        self._heap: dict[str, list[tuple[tuple[int, int], Xid]]] = {
            s.store_id: [] for s in self.stores
        }
        # Disk entries read since their last write: their access stamps
        # reach the file headers on close.
        self._read_on_disk: set[Xid] = set()

        for store in self.stores:
            if isinstance(store, DiskStore):
                for entry in store.load_entries(self.clock.now_ms()):
                    # Entries come sorted by insertion stamp; one repeated by
                    # files this manager did not write gets a fresh one.
                    seq = max(entry.inserted_at, self._insert_seq)
                    self._entries[entry.chunk.id] = _Stamps(
                        store.store_id, seq, entry.expires_at
                    )
                    self._set_key(store.store_id, entry.chunk.id, (entry.last_access, seq))
                    self._insert_seq = seq + 1

    def store(self, chunk: Chunk) -> tuple[str, list[Xid]]:
        """Place a verified chunk; returns (store id, evicted ids).

        A zero TTL means "do not cache": the store refuses it.  Storing
        an id that is already present refreshes its deadline instead.  A
        write that fails after evictions made room for it raises
        ``StoreError`` carrying their ids: they are gone all the same.
        """
        with self._lock:
            if chunk.ttl_ms == 0:
                raise StoreError("refusing to store a do-not-cache (ttl=0) chunk")
            now = self.clock.now_ms()
            existing = self._entries.get(chunk.id)
            if existing is not None and not existing.expired(now):
                store = self._by_id[existing.store_id]
                if store.get(chunk.id) == chunk:
                    # identical republish: refresh the stamps, keep placement
                    self._write(store, chunk, existing.inserted_at, now)
                    return store.store_id, []
            if existing is not None:
                # same id, different content (named republish): replace
                self._drop(chunk.id)

            target = self._place()
            evicted: list[Xid] = []
            while not target.has_slot():
                evicted.append(self.evict_one(target.store_id))
            try:
                self._write(target, chunk, self._insert_seq, now)
            except StoreError as exc:
                exc.evicted = tuple(evicted)
                raise
            self._insert_seq += 1
            return target.store_id, evicted

    def get(self, xid: Xid) -> Chunk | None:
        """Unexpired lookup; records an access."""
        with self._lock:
            now = self.clock.now_ms()
            entry = self._entries.get(xid)
            if entry is None or entry.expired(now):
                return None
            store_id = entry.store_id
            chunk = self._by_id[store_id].get(xid)
            if chunk is None:
                self._drop(xid)
                return None
            self._set_key(store_id, xid, (now, entry.inserted_at))
            if store_id == DiskStore.store_id:
                self._read_on_disk.add(xid)
            return chunk

    def placement(self, xid: Xid) -> str | None:
        """The id of the store holding the entry, or None; looks only."""
        with self._lock:
            entry = self._entries.get(xid)
            return entry.store_id if entry is not None else None

    def contains(self, xid: Xid) -> bool:
        with self._lock:
            entry = self._entries.get(xid)
            return entry is not None and not entry.expired(self.clock.now_ms())

    def remove(self, xid: Xid) -> bool:
        with self._lock:
            if xid not in self._entries:
                return False
            self._drop(xid)
            return True

    def evict_one(self, store_id: str) -> Xid | None:
        """Drop the store's least recently used entry; returns its id, or
        None if the store is empty."""
        with self._lock:
            lru, heap = self._lru[store_id], self._heap[store_id]
            while heap:
                key, xid = heapq.heappop(heap)
                if lru.get(xid) is key:
                    self._drop(xid)
                    return xid
            return None

    def sweep(self, now_ms: int | None = None) -> list[Xid]:
        """Drop every entry whose deadline has passed; returns their ids."""
        with self._lock:
            now = self.clock.now_ms() if now_ms is None else now_ms
            expired = [x for x, e in self._entries.items() if e.expired(now)]
            for xid in expired:
                self._drop(xid)
            return expired

    def ids(self) -> list[Xid]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def close(self) -> None:
        """Stamp the disk entries read since their last write with their
        last access, so a reopen restores this victim order."""
        with self._lock:
            if self._read_on_disk:
                disk, lru = self._by_id[DiskStore.store_id], self._lru[DiskStore.store_id]
                for xid in self._read_on_disk:
                    disk.stamp_access(xid, lru[xid][0])
                self._read_on_disk.clear()

    def _place(self) -> ContentStore:
        """Fill memory, spill to disk; when every store is full, the last
        store takes the eviction."""
        for store in self.stores:
            if store.has_slot():
                return store
        if self.stores[-1].capacity < 1:
            raise StoreError("chunk does not fit in any store")
        return self.stores[-1]

    def _write(self, store: ContentStore, chunk: Chunk, seq: int, now: int) -> None:
        entry = CacheEntry(chunk, store.store_id, seq, now, now + chunk.ttl_ms)
        store.store(entry)
        self._entries[chunk.id] = _Stamps(store.store_id, seq, entry.expires_at)
        self._set_key(store.store_id, chunk.id, (now, seq))
        self._read_on_disk.discard(chunk.id)

    def _set_key(self, store_id: str, xid: Xid, key: tuple[int, int]) -> None:
        self._lru[store_id][xid] = key
        heapq.heappush(self._heap[store_id], (key, xid))
        self._compact(store_id)

    def _compact(self, store_id: str) -> None:
        """Rebuild the store's heap from _lru once stale items make up
        more than half of it, so it stays O(entries)."""
        lru, heap = self._lru[store_id], self._heap[store_id]
        if len(heap) > 2 * len(lru) + _HEAP_SLACK:
            heap[:] = [(key, xid) for xid, key in lru.items()]
            heapq.heapify(heap)

    def _drop(self, xid: Xid) -> None:
        entry = self._entries.pop(xid)
        self._by_id[entry.store_id].remove(xid)
        del self._lru[entry.store_id][xid]
        self._read_on_disk.discard(xid)
        self._compact(entry.store_id)
