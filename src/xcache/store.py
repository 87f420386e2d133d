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
import re
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, NamedTuple

from .addressing import RouteTable, Xid
from .chunking import Chunk, ChunkError, decode_chunk, encode_chunk

log = logging.getLogger(__name__)

_META = struct.Struct(">4sQQQ")  # magic, inserted_at, last_access, expires_at
_META_MAGIC = b"XCS1"
_LAST_ACCESS = struct.Struct(">Q")
# A disk record's frame: a live or killed magic, then the body length.
_FRAME = struct.Struct(">4sI")
_LIVE = b"XPR+"
_KILLED = b"XPR-"
_ANY_FRAME = re.compile(rb"XPR[+-]")  # either magic
_SCAN_BLOCK = 1 << 16  # bytes read at a time when looking past a damaged frame
_HEADER = _FRAME.size + _META.size  # where a record's encoded chunk starts
_LAST_ACCESS_AT = _FRAME.size + struct.calcsize(">4sQ")  # in a record
PACK_NAME = "chunks.pack"
_TMP_SUFFIX = ".tmp"
# Stale heap items tolerated beyond one per live entry before a rebuild.
_HEAP_SLACK = 4


def _create_or_open(path: str, flags: int) -> int:
    return os.open(path, flags | os.O_CREAT, 0o644)


def _next_frame(fd: int, at: int, size: int) -> int | None:
    """The offset of the first frame at or after ``at`` with a known magic
    and a body that fits in the file, or None."""
    while True:
        block = os.pread(fd, _SCAN_BLOCK, at)
        for found in _ANY_FRAME.finditer(block):
            start = at + found.start()
            if start + _FRAME.size <= size:
                _, body_len = _FRAME.unpack(os.pread(fd, _FRAME.size, start))
                if start + _FRAME.size + body_len <= size:
                    return start
        if len(block) < _SCAN_BLOCK:
            return None
        at += len(block) - (len(_LIVE) - 1)  # a magic may straddle two blocks


class StoreError(Exception):
    """Placement or store-backend failure.  ``evicted`` holds the ids
    ``StorageManager.store`` dropped for a write that then failed: those
    evicted to make room, and the entry it was replacing."""

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


class MemoryStore:
    """Chunks held in a dict, at most ``capacity`` of them."""

    store_id = "mem"

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._chunks: dict[Xid, Chunk] = {}

    def store(self, entry: CacheEntry) -> None:
        self._chunks[entry.chunk.id] = entry.chunk

    def get(self, xid: Xid) -> Chunk | None:
        return self._chunks.get(xid)

    def remove(self, xid: Xid) -> bool:
        return self._chunks.pop(xid, None) is not None

    def __len__(self) -> int:
        return len(self._chunks)


class DiskStore:
    """Every chunk in one append-only pack file, ``chunks.pack``, inside a
    configured directory, found through an in-memory index of each id's
    record offset and length.

    A record is a frame (a live or killed magic and the body length),
    then the entry's stamps (``_META``), then the ``encode_chunk``
    bytes.  A write appends a record at the end of the last good one;
    replacing an id appends the new record before it kills the old one,
    so a reopen between the two finds the later one.  A kill and a
    read's access stamp rewrite a few bytes in place.  A record whose
    kill the file system refuses stays indexed, since a reopen would
    find it live: the remove, or the replace, raises ``StoreError``.
    Once killed bytes exceed live bytes, the live records are copied to
    a temporary pack that then replaces the old one, so the file stays
    within about twice its live bytes.  ``load_entries`` indexes an existing pack and must
    run before anything else touches it.  The file is created on the
    first write, and its descriptor is held until ``close``.  Nothing is
    ``fsync``ed: crash consistency on a file system that may reorder or
    drop unsynced writes is out of scope (Pillai et al., "All File
    Systems Are Not Created Equal", OSDI 2014).
    """

    store_id = "disk"

    def __init__(self, directory: str | Path, capacity: int):
        self.capacity = capacity
        Path(directory).mkdir(parents=True, exist_ok=True)
        self.path = Path(directory) / PACK_NAME
        self._file: BinaryIO | None = None
        self._index: dict[Xid, tuple[int, int]] = {}  # id -> (offset, length)
        self._end = 0  # where the next record goes; load_entries finds it
        self._live = 0  # bytes of indexed records

    def _fd(self) -> int:
        if self._file is None:
            self._file = open(self.path, "r+b", buffering=0, opener=_create_or_open)
        return self._file.fileno()

    def store(self, entry: CacheEntry) -> None:
        """Append the entry's record, then kill the id's earlier one.  A
        write the file system refuses (a full disk, say), or a kill of
        the earlier record it refuses, raises ``StoreError`` and cuts the
        pack back to its last good record: the entry was not stored, and
        an earlier copy stays."""
        body = _META.pack(
            _META_MAGIC, entry.inserted_at, entry.last_access, entry.expires_at
        ) + encode_chunk(entry.chunk)
        record = _FRAME.pack(_LIVE, len(body)) + body
        at = self._end
        try:
            if os.pwrite(self._fd(), record, at) != len(record):
                raise OSError("short write")
        except OSError as exc:
            self._cut(at)
            raise StoreError(f"could not append to {self.path.name}: {exc}") from exc
        earlier = self._index.get(entry.chunk.id)
        if earlier is not None:
            try:
                self._kill(earlier[0])
            except StoreError:
                self._cut(at)
                raise
        self._end = at + len(record)
        self._live += len(record)
        self._index[entry.chunk.id] = (at, len(record))
        if earlier is not None:
            self._forget(earlier[1])

    def get(self, xid: Xid) -> Chunk | None:
        where = self._index.get(xid)
        if where is None:
            return None
        offset, length = where
        try:
            chunk = decode_chunk(os.pread(self._fd(), length, offset)[_HEADER:])
            if chunk.id != xid:
                raise StoreError("record does not contain the indexed chunk")
            return chunk
        except (OSError, ChunkError, StoreError) as exc:
            log.warning("disk store: unreadable %s at %d: %s", xid.text(short=True), offset, exc)
            return None

    def stamp_access(self, xid: Xid, last_access: int) -> None:
        """Overwrite the last-access stamp of the entry's record in place;
        the rest of the record is untouched."""
        where = self._index.get(xid)
        if where is None:
            return
        try:
            os.pwrite(self._fd(), _LAST_ACCESS.pack(last_access), where[0] + _LAST_ACCESS_AT)
        except OSError as exc:
            log.warning("disk store: could not stamp %s: %s", xid.text(short=True), exc)

    def remove(self, xid: Xid) -> bool:
        """Kill the id's record; a kill the file system refuses raises
        ``StoreError`` and leaves the record indexed."""
        where = self._index.get(xid)
        if where is None:
            return False
        self._kill(where[0])
        del self._index[xid]
        self._forget(where[1])
        return True

    def __len__(self) -> int:
        return len(self._index)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def load_entries(self, now_ms: int) -> list[CacheEntry]:
        """Scan the pack record by record and index the last live record
        of each id.  Killed records and records that do not decode are
        skipped; expired records and earlier records of a kept id are
        killed.  A damaged frame (an unknown magic, or a body running past
        the end of the file) is skipped up to the next whole frame; with
        none after it, it is a torn tail and is cut off.  On a well-formed
        pack with nothing expired this writes nothing.  A kill or a cut
        the file system refuses is logged and the scan goes on: a record
        left live is met again, and killed again, by the next reopen, and
        the next append overwrites a tail left uncut.  Returns the
        surviving entries sorted by insertion stamp."""
        self.close()
        self._index.clear()
        self._end = self._live = 0
        entries: dict[Xid, CacheEntry] = {}
        doomed: list[int] = []  # offsets of the records to kill
        try:
            pack = open(self.path, "r+b", buffering=0)
        except FileNotFoundError:
            return []
        with pack:
            fd, at = pack.fileno(), 0
            size = os.fstat(fd).st_size
            while at + _FRAME.size <= size:
                magic, body_len = _FRAME.unpack(os.pread(fd, _FRAME.size, at))
                length = _FRAME.size + body_len
                if magic not in (_LIVE, _KILLED) or at + length > size:
                    resume = _next_frame(fd, at + 1, size)
                    if resume is None:
                        break
                    log.warning("disk store: skipping %d damaged bytes at %d", resume - at, at)
                    at = resume
                    continue
                entry = None
                if magic == _LIVE:
                    entry = self._read_entry(os.pread(fd, body_len, at + _FRAME.size), at)
                if entry is not None:
                    xid = entry.chunk.id
                    earlier = self._index.pop(xid, None)
                    if earlier is not None:  # a replace whose kill did not land
                        doomed.append(earlier[0])
                        del entries[xid]
                    if now_ms >= entry.expires_at:
                        doomed.append(at)
                    else:
                        self._index[xid] = (at, length)
                        entries[xid] = entry
                at += length
            for offset in doomed:
                try:
                    os.pwrite(fd, _KILLED, offset)
                except OSError as exc:
                    log.warning("disk store: could not kill the record at %d: %s", offset, exc)
            if at < size:
                log.warning("disk store: cutting %d torn bytes off %s", size - at, self.path)
                try:
                    os.ftruncate(fd, at)
                except OSError as exc:
                    log.warning("disk store: could not cut %s: %s", self.path, exc)
        self._end = at
        self._live = sum(length for _, length in self._index.values())
        if self._end - self._live > self._live:
            self._compact()
        return sorted(entries.values(), key=lambda e: (e.inserted_at, e.chunk.id.value))

    def _read_entry(self, body: bytes, at: int) -> CacheEntry | None:
        try:
            magic, inserted, last_access, expires = _META.unpack(body[: _META.size])
            if magic != _META_MAGIC:
                raise StoreError("bad meta magic")
            chunk = decode_chunk(body[_META.size :])
        except (struct.error, ChunkError, StoreError) as exc:
            log.warning("disk store: skipping the record at %d of %s: %s", at, self.path, exc)
            return None
        return CacheEntry(chunk, self.store_id, inserted, last_access, expires)

    def _cut(self, end: int) -> None:
        """Cut a failed append's bytes off the pack; if that fails too, the
        next append overwrites them."""
        if self._file is None:
            return
        try:
            os.ftruncate(self._file.fileno(), end)
        except OSError as exc:
            log.warning("disk store: could not cut %s back to %d: %s", self.path, end, exc)

    def _kill(self, offset: int) -> None:
        """Write the killed magic over the frame of the record at
        ``offset``; raises ``StoreError`` if the write fails."""
        try:
            os.pwrite(self._fd(), _KILLED, offset)
        except OSError as exc:
            raise StoreError(f"could not kill the record at {offset}: {exc}") from exc

    def _forget(self, length: int) -> None:
        """Account for a killed record; compact once killed bytes exceed
        live ones."""
        self._live -= length
        if self._end - self._live > self._live:
            self._compact()

    def _compact(self) -> None:
        """Copy the live records, in file order, into a temporary pack that
        then replaces this one.  On failure the old pack stays as it was."""
        tmp = self.path.with_name(PACK_NAME + _TMP_SUFFIX)
        index: dict[Xid, tuple[int, int]] = {}
        at = 0
        try:
            fd = self._fd()
            with open(tmp, "wb") as out:
                for xid, (offset, length) in sorted(self._index.items(), key=lambda i: i[1][0]):
                    record = os.pread(fd, length, offset)
                    if len(record) == length:  # a short read is dropped at its next get
                        out.write(record)
                        index[xid] = (at, length)
                        at += length
            os.replace(tmp, self.path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            log.warning("disk store: could not compact %s: %s", self.path, exc)
            return
        self.close()
        self._index = index
        self._end = self._live = at


class StorageManager:
    """Places verified chunks in memory first, then on disk, and evicts
    the least recently used entry of a full store; access-stamp ties
    break by insertion order, oldest first.  The victim comes off a
    per-store heap in O(log n).

    The manager keeps its node's content routes in ``routes``: every
    entry it writes or reloads gets a local route, which goes when the
    entry is dropped, when ``get`` finds it expired, and on ``close``.
    A manager built without a node's table keeps a private one."""

    def __init__(
        self,
        mem_capacity: int = 64,
        disk_capacity: int = 0,
        disk_dir: str | Path | None = None,
        clock=None,
        routes: RouteTable | None = None,
    ):
        self.clock = clock if clock is not None else WallClock()
        self.routes = routes if routes is not None else RouteTable()
        self._insert_seq = 0

        self.stores: list[MemoryStore | DiskStore] = [MemoryStore(mem_capacity)]
        self._disk: DiskStore | None = None
        if disk_capacity > 0 and disk_dir is not None:
            self._disk = DiskStore(disk_dir, disk_capacity)
            self.stores.append(self._disk)
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

        if self._disk is not None:
            self._reopen(self._disk)

    def _reopen(self, disk: DiskStore) -> None:
        """Index the disk tier's entries and keep its ``capacity`` most
        recently used; the rest are evicted, which kills their records, so
        the next reopen agrees."""
        for entry in disk.load_entries(self.clock.now_ms()):
            # Entries come sorted by insertion stamp; one repeated by
            # records this manager did not write gets a fresh one.
            seq = max(entry.inserted_at, self._insert_seq)
            self._entries[entry.chunk.id] = _Stamps(disk.store_id, seq, entry.expires_at)
            self._set_key(disk.store_id, entry.chunk.id, (entry.last_access, seq))
            self.routes.add_local(entry.chunk.id)
            self._insert_seq = seq + 1
        for _ in range(len(disk) - disk.capacity):
            if self.evict_one(disk.store_id) is None:
                break

    def store(self, chunk: Chunk) -> tuple[str, list[Xid]]:
        """Place a verified chunk; returns (store id, evicted ids).

        A zero TTL means "do not cache": the store refuses it.  Storing
        an id that is already present refreshes its deadline instead; new
        content under a present id replaces the old entry.  A write that
        fails, or finds no victim whose record can be killed, raises
        ``StoreError`` carrying the ids dropped to make room for it, the
        replaced one included: they are gone all the same.  A replaced
        entry whose record cannot be killed stays, and so does its
        content: the store raises ``StoreError`` with nothing dropped.
        """
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
        try:
            while len(target) >= target.capacity:
                victim = self.evict_one(target.store_id)
                if victim is None:
                    raise StoreError(f"no {target.store_id} entry could be evicted")
                evicted.append(victim)
            self._write(target, chunk, self._insert_seq, now)
        except StoreError as exc:
            exc.evicted = (chunk.id, *evicted) if existing is not None else tuple(evicted)
            raise
        self._insert_seq += 1
        return target.store_id, evicted

    def get(self, xid: Xid) -> Chunk | None:
        """Unexpired lookup; records an access.  An expired entry's route
        is withdrawn, and the entry is left for the sweep."""
        now = self.clock.now_ms()
        entry = self._entries.get(xid)
        if entry is None:
            return None
        if entry.expired(now):
            self.routes.remove_local(xid)
            return None
        store_id = entry.store_id
        chunk = self._by_id[store_id].get(xid)
        if chunk is None:
            self._try_drop(xid)
            return None
        self._set_key(store_id, xid, (now, entry.inserted_at))
        if store_id == DiskStore.store_id:
            self._read_on_disk.add(xid)
        return chunk

    def placement(self, xid: Xid) -> str | None:
        """The id of the store holding the entry, or None; looks only."""
        entry = self._entries.get(xid)
        return entry.store_id if entry is not None else None

    def contains(self, xid: Xid) -> bool:
        entry = self._entries.get(xid)
        return entry is not None and not entry.expired(self.clock.now_ms())

    def remove(self, xid: Xid) -> bool:
        """Drop the entry; returns whether there was one.  A disk entry
        whose record cannot be killed stays, and ``StoreError`` says so."""
        if xid not in self._entries:
            return False
        self._drop(xid)
        return True

    def evict_one(self, store_id: str) -> Xid | None:
        """Drop the store's least recently used entry; returns its id, or
        None if the store is empty.  An entry whose record cannot be
        killed stays, in its place in the victim order, and the next one
        is tried."""
        lru, heap = self._lru[store_id], self._heap[store_id]
        kept, victim = [], None
        while heap and victim is None:
            key, xid = item = heapq.heappop(heap)
            if lru.get(xid) is not key:
                continue
            if self._try_drop(xid):
                victim = xid
            else:
                kept.append(item)
        for item in kept:
            heapq.heappush(heap, item)
        return victim

    def sweep(self, now_ms: int | None = None) -> list[Xid]:
        """Drop every entry whose deadline has passed; returns their ids."""
        now = self.clock.now_ms() if now_ms is None else now_ms
        expired = [x for x, e in self._entries.items() if e.expired(now)]
        return [xid for xid in expired if self._try_drop(xid)]

    def ids(self) -> list[Xid]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def close(self) -> None:
        """Withdraw every entry's route, stamp the disk entries read since
        their last write with their last access, so a reopen restores this
        victim order, and close the disk tier's file."""
        for xid in self._entries:
            self.routes.remove_local(xid)
        if self._disk is None:
            return
        lru = self._lru[DiskStore.store_id]
        for xid in self._read_on_disk:
            self._disk.stamp_access(xid, lru[xid][0])
        self._read_on_disk.clear()
        self._disk.close()

    def _place(self) -> MemoryStore | DiskStore:
        """Fill memory, spill to disk; when every store is full, the last
        store takes the eviction."""
        for store in self.stores:
            if len(store) < store.capacity:
                return store
        if self.stores[-1].capacity < 1:
            raise StoreError("chunk does not fit in any store")
        return self.stores[-1]

    def _write(self, store: MemoryStore | DiskStore, chunk: Chunk, seq: int, now: int) -> None:
        entry = CacheEntry(chunk, store.store_id, seq, now, now + chunk.ttl_ms)
        store.store(entry)
        self._entries[chunk.id] = _Stamps(store.store_id, seq, entry.expires_at)
        self._set_key(store.store_id, chunk.id, (now, seq))
        self._read_on_disk.discard(chunk.id)
        self.routes.add_local(chunk.id)

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
        """Forget the entry; raises ``StoreError``, keeping it, if its
        store cannot remove it."""
        entry = self._entries[xid]
        self._by_id[entry.store_id].remove(xid)
        del self._entries[xid]
        del self._lru[entry.store_id][xid]
        self._read_on_disk.discard(xid)
        self.routes.remove_local(xid)
        self._compact(entry.store_id)

    def _try_drop(self, xid: Xid) -> bool:
        """``_drop``, but an entry whose record cannot be killed is logged
        and kept; returns whether it went."""
        try:
            self._drop(xid)
        except StoreError as exc:
            log.warning("keeping %s: %s", xid.text(short=True), exc)
            return False
        return True
