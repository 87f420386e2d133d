"""Content stores, placement and eviction.

A storage manager places verified chunks in memory first and then on
disk, tracks per-entry bookkeeping (placement, expiry deadline, LRU
key) and evicts the least recently used entry of a full store.  Time is
injected so expiry tests are deterministic; the wall clock is the
production default.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

from .addressing import Xid
from .chunking import Chunk, ChunkError, decode_chunk, encode_chunk

log = logging.getLogger(__name__)

_META = struct.Struct(">4sQQQ")
_META_MAGIC = b"XCS1"
_TMP_SUFFIX = ".tmp"


class StoreError(Exception):
    """Placement or store-backend failure."""


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

    def close(self) -> None:
        pass


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
    The in-memory index is rebuilt by scanning on open; an index file is
    written on close purely for inspection.
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
        temporary name does not match the ``*.chunk`` scan pattern."""
        blob = _META.pack(
            _META_MAGIC, entry.inserted_at, entry.last_access, entry.expires_at
        ) + encode_chunk(entry.chunk)
        path = self._path_for(entry.chunk.id)
        tmp = path.with_name(path.name + _TMP_SUFFIX)
        try:
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise
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

    def close(self) -> None:
        index = {xid.text(): path.name for xid, path in sorted(
            self._files.items(), key=lambda kv: kv[0].value
        )}
        try:
            (self.directory / "index.json").write_text(json.dumps(index, indent=1))
        except OSError as exc:
            log.warning("disk store %s: could not write index: %s", self.store_id, exc)


class StorageManager:
    """Places verified chunks in memory first, then on disk, and evicts
    the least recently used entry of a full store; access-stamp ties
    break by insertion order, oldest first.  All operations are
    serialized, so concurrent callers see chunk-granular linearizable
    behavior."""

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
        # Each entry as last written to its store; its access stamp is not
        # refreshed by reads.
        self._entries: dict[Xid, CacheEntry] = {}
        # Per store, each entry's LRU key (last access, insertion seq): the
        # only record of recency.  The victim is the minimum key.
        self._lru: dict[str, dict[Xid, tuple[int, int]]] = {
            s.store_id: {} for s in self.stores
        }

        for store in self.stores:
            if isinstance(store, DiskStore):
                for entry in store.load_entries(self.clock.now_ms()):
                    self._entries[entry.chunk.id] = entry
                    self._lru[store.store_id][entry.chunk.id] = (
                        entry.last_access, entry.inserted_at
                    )
                    self._insert_seq = max(self._insert_seq, entry.inserted_at + 1)

    def store(self, chunk: Chunk) -> tuple[str, list[Xid]]:
        """Place a verified chunk; returns (store id, evicted ids).

        A zero TTL means "do not cache": the store refuses it.  Storing
        an id that is already present refreshes its deadline instead.
        """
        with self._lock:
            if chunk.ttl_ms == 0:
                raise StoreError("refusing to store a do-not-cache (ttl=0) chunk")
            now = self.clock.now_ms()
            existing = self._entries.get(chunk.id)
            if existing is not None and not existing.expired(now) and existing.chunk == chunk:
                # identical republish: refresh the stamps, keep placement
                store = self._by_id[existing.store_id]
                self._write(store, chunk, existing.inserted_at, now)
                return store.store_id, []
            if existing is not None:
                # same id, different content (named republish): replace
                self._drop(chunk.id)

            target = self._place()
            evicted: list[Xid] = []
            while not target.has_slot():
                evicted.append(self.evict_one(target.store_id))
            self._write(target, chunk, self._insert_seq, now)
            self._insert_seq += 1
            return target.store_id, evicted

    def get(self, xid: Xid) -> Chunk | None:
        """Unexpired lookup; records an access."""
        with self._lock:
            now = self.clock.now_ms()
            entry = self._entries.get(xid)
            if entry is None or entry.expired(now):
                return None
            chunk = self._by_id[entry.store_id].get(xid)
            if chunk is None:
                self._drop(xid)
                return None
            lru = self._lru[entry.store_id]
            lru[xid] = (now, lru[xid][1])
            return chunk

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
            lru = self._lru[store_id]
            if not lru:
                return None
            victim = min(lru, key=lru.__getitem__)
            self._drop(victim)
            return victim

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
        with self._lock:
            for store in self.stores:
                store.close()

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
        self._entries[chunk.id] = entry
        self._lru[store.store_id][chunk.id] = (now, seq)

    def _drop(self, xid: Xid) -> None:
        entry = self._entries.pop(xid)
        self._by_id[entry.store_id].remove(xid)
        del self._lru[entry.store_id][xid]
