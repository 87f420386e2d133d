"""The content cache daemon.

Applications talk to a daemon instance through handles.  Fetches that
the local store can satisfy complete inline on the fast path; anything
else is queued and executed by a fixed pool of worker threads that run
the network transport, verify what arrived, and cache it according to
the active policy.  Nothing enters any store without passing
verification, which is also what makes opportunistic caching safe: the
daemon taps its node's forwarding path, reassembles content sessions
it forwards, and becomes a provider for chunks that verify.
"""

from __future__ import annotations

import itertools
import logging
import queue
import threading
from abc import ABC, abstractmethod
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

from .addressing import CONTENT_TYPES, DagAddress, Xid, XidType, make_fallback_dag
from .chunking import (
    Chunk,
    ChunkDecodeError,
    ChunkError,
    DEFAULT_MAX_PAYLOAD,
    PublisherKey,
    REASON_NCID,
    VerifyResult,
    build_cid_chunk,
    build_ncid_chunk,
    compute_ncid,
    decode_chunk,
    encode_chunk,
    fingerprint,
    reject,
    verify_cid,
    verify_ncid,
    verify_ncid_via,
)
from .netsim import (
    HandshakeTimeout,
    NetNode,
    NoRouteError,
    SegFlags,
    Segment,
    SimStalledError,
    TransferTimeout,
)
from .store import StorageManager, StoreError, WallClock
from .urls import NcidUrl, canonical_name, parse_dag_url, parse_ncid_url

log = logging.getLogger(__name__)

_QUEUE_HIGH_WATER = 1024


class XcacheError(Exception):
    pass


class InvalidHandleError(XcacheError):
    """Use of a handle after destroy (or before init)."""


class PublishError(XcacheError):
    pass


class FetchError(XcacheError):
    pass


class UnroutableError(FetchError):
    pass


class FetchTimeoutError(FetchError):
    pass


class VerificationError(FetchError):
    def __init__(self, reason: str):
        super().__init__(f"verification failed: {reason}")
        self.reason = reason


class CanceledError(FetchError):
    pass


class CertificateRequiredError(FetchError):
    """Named fetch attempted without any certificate source."""


class NotifEvent(Enum):
    CHUNK_ARRIVED = "chunk-arrived"
    CHUNK_EVICTED = "chunk-evicted"


@dataclass(frozen=True)
class Notification:
    event: NotifEvent
    addr: DagAddress


class CachePolicy(ABC):
    """Decides, once per session when the provider answers, whether a
    node should keep a copy of the content flowing through it."""

    @abstractmethod
    def decide(self, intent: Xid, provider_dag: DagAddress) -> bool: ...


class AlwaysCache(CachePolicy):
    def decide(self, intent, provider_dag):
        return True


class NeverCache(CachePolicy):
    def decide(self, intent, provider_dag):
        return False


def policy_from_name(name: str) -> CachePolicy:
    if name == "always":
        return AlwaysCache()
    if name == "never":
        return NeverCache()
    raise ValueError(f"unknown cache policy {name!r}")


@dataclass
class DaemonConfig:
    workers: int = 4
    mem_capacity_chunks: int = 64
    disk_capacity_chunks: int = 0
    disk_dir: str | None = None
    cache_policy: str = "always"
    segment_size: int = 1024
    window: int = 8
    rto_multiplier: int = 4
    max_payload: int = DEFAULT_MAX_PAYLOAD


_CONFIG_INT_KEYS = {
    "workers",
    "mem_capacity_chunks",
    "disk_capacity_chunks",
    "segment_size",
    "window",
    "rto_multiplier",
    "max_payload",
}


def parse_config(text: str) -> DaemonConfig:
    """Parse ``key = value`` daemon configuration text."""
    cfg = DaemonConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, _, value = (part.strip() for part in line.partition("="))
        if not hasattr(cfg, key):
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in _CONFIG_INT_KEYS:
            setattr(cfg, key, int(value))
        elif key == "cache_policy":
            policy_from_name(value)  # validate early
            cfg.cache_policy = value
        else:
            setattr(cfg, key, value)
    return cfg


class SimClock:
    """Adapter exposing simulated time to the storage layer."""

    def __init__(self, sim):
        self._sim = sim

    def now_ms(self) -> int:
        return self._sim.now


class Request:
    """One queued unit of work; reaches exactly one terminal state."""

    _ids = itertools.count(1)

    def __init__(self, kind: str, handle, **args):
        self.kind = kind
        self.handle = handle
        self.args = args
        self.followers: list[Request] = []
        self.seq = next(Request._ids)
        self._done = threading.Event()
        self._state_lock = threading.Lock()
        self.result = None
        self.error: Exception | None = None

    def complete(self, result=None, error: Exception | None = None) -> None:
        with self._state_lock:
            if not self._done.is_set():
                self.result = result
                self.error = error
                self._done.set()
        for follower in self.followers:
            follower.complete(result, error)

    def cancel(self) -> None:
        with self._state_lock:
            if not self._done.is_set():
                self.error = CanceledError("handle destroyed while request pending")
                self._done.set()

    def finished(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float = 30.0):
        if not self._done.wait(timeout):
            raise FetchTimeoutError("request did not complete in time")
        if self.error is not None:
            raise self.error
        return self.result


class PendingFetch:
    """Completion slot for a non-blocking fetch."""

    def __init__(self, request: Request):
        self._request = request

    def done(self) -> bool:
        return self._request.finished()

    def result(self, timeout: float = 30.0) -> bytes:
        chunk, _ = self._request.wait(timeout)
        return chunk.payload

    def entry(self, timeout: float = 30.0):
        return self._request.wait(timeout)


@dataclass
class _IngestBuffer:
    intent: Xid
    provider_dag: DagAddress
    segments: dict[int, bytes] = field(default_factory=dict)
    fin_seq: int | None = None


@dataclass(frozen=True)
class FetchStats:
    """Where a fetch was served from and what it cost on the wire."""

    provider: str
    hops: int
    segments: int
    retransmits: int


LOCAL_STATS = FetchStats(provider="local", hops=0, segments=0, retransmits=0)


class XcacheHandle:
    """Opaque per-application context; all API calls go through one."""

    def __init__(self, daemon: "Xcached"):
        self._daemon = daemon
        self.alive = True
        self._pending: set[Request] = set()
        self._notif_queue: queue.Queue = queue.Queue()
        self._handlers: dict[NotifEvent, list] = defaultdict(list)

    # Thin delegates so application code reads naturally.
    def put_chunk(self, data: bytes, ttl_ms: int) -> DagAddress:
        return self._daemon.put_chunk(self, data, ttl_ms)

    def put_named_content(self, name, data, ttl_ms, key, key_ref) -> DagAddress:
        return self._daemon.put_named_content(self, name, data, ttl_ms, key, key_ref)

    def fetch_chunk(self, addr, blocking: bool = True, timeout: float = 30.0):
        return self._daemon.fetch_chunk(self, addr, blocking=blocking, timeout=timeout)

    def get_named_chunk(self, url, cert=None, timeout: float = 30.0) -> bytes:
        return self._daemon.get_named_chunk(self, url, cert=cert, timeout=timeout)

    def destroy_chunk(self, addr) -> None:
        self._daemon.destroy_chunk(self, addr)

    def register_notif(self, event: NotifEvent, handler) -> None:
        self._daemon.check_handle(self)
        self._handlers[event].append(handler)

    def notif_channel(self) -> queue.Queue:
        """Pollable readiness signal: non-empty means process_notif will
        invoke handlers."""
        self._daemon.check_handle(self)
        return self._notif_queue

    def process_notif(self) -> int:
        """Drain queued notifications, invoking matching handlers in
        registration order; returns how many were processed."""
        self._daemon.check_handle(self)
        processed = 0
        while True:
            try:
                notif = self._notif_queue.get_nowait()
            except queue.Empty:
                return processed
            for handler in list(self._handlers.get(notif.event, [])):
                handler(self, notif)
            processed += 1

    def launch_notif_listener(self) -> threading.Thread:
        """Dedicated listener: drains notifications continuously until
        the handle is destroyed."""
        self._daemon.check_handle(self)

        def _listen():
            while self.alive:
                try:
                    notif = self._notif_queue.get(timeout=0.05)
                except queue.Empty:
                    continue
                for handler in list(self._handlers.get(notif.event, [])):
                    handler(self, notif)

        thread = threading.Thread(target=_listen, name="xcache-notif", daemon=True)
        thread.start()
        return thread

    def destroy(self) -> None:
        self._daemon.destroy_handle(self)


class Xcached:
    """One daemon instance: storage manager, request queue, worker pool,
    notification fan-out, and (when attached to a simulated node) the
    content serving and opportunistic caching machinery."""

    def __init__(self, config: DaemonConfig | None = None, node: NetNode | None = None, clock=None):
        self.config = config if config is not None else DaemonConfig()
        self.node = node
        if clock is None:
            clock = SimClock(node.sim) if node is not None else WallClock()
        self.clock = clock
        self.manager = StorageManager(
            mem_capacity=self.config.mem_capacity_chunks,
            disk_capacity=self.config.disk_capacity_chunks,
            disk_dir=self.config.disk_dir,
            clock=clock,
        )
        self.policy: CachePolicy = policy_from_name(self.config.cache_policy)
        self.counters: Counter = Counter()
        self.published: dict[Xid, DagAddress] = {}

        self._lock = threading.RLock()
        self._handles: set[XcacheHandle] = set()
        self._queue: queue.Queue = queue.Queue()
        self._inflight: dict[Xid, Request] = {}
        self._ingest_buffers: dict[bytes, _IngestBuffer] = {}
        self._high_water_warned = False
        self._alive = True

        if node is not None:
            node.daemon = self
            node.server_socket.handler = self._serve_session
            node.subscribe_capture(self._on_capture)

        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"xcache-worker-{i}", daemon=True)
            for i in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- handles -------------------------------------------------------

    def init_handle(self) -> XcacheHandle:
        if not self._alive:
            raise XcacheError("daemon is shut down")
        handle = XcacheHandle(self)
        with self._lock:
            self._handles.add(handle)
        return handle

    def destroy_handle(self, handle: XcacheHandle) -> None:
        self.check_handle(handle)
        with self._lock:
            handle.alive = False
            for request in list(handle._pending):
                request.cancel()
            handle._pending.clear()
            while not handle._notif_queue.empty():
                try:
                    handle._notif_queue.get_nowait()
                except queue.Empty:
                    break
            self._handles.discard(handle)

    def check_handle(self, handle: XcacheHandle) -> None:
        if not isinstance(handle, XcacheHandle) or handle._daemon is not self or not handle.alive:
            raise InvalidHandleError("handle is not live on this daemon")

    # -- publish -------------------------------------------------------

    def put_chunk(self, handle: XcacheHandle, data: bytes, ttl_ms: int) -> DagAddress:
        """Build, store and route a plain content chunk; returns the
        address remote clients can fetch it by."""
        self.check_handle(handle)
        if ttl_ms <= 0:
            raise PublishError("published content needs a positive TTL")
        try:
            chunk = build_cid_chunk(data, ttl_ms, max_payload=self.config.max_payload)
        except ChunkError as exc:
            raise PublishError(str(exc)) from exc
        with self._lock:
            if not self._admit(chunk, origin="publish"):
                raise PublishError("no store admitted the chunk")
            return self.published[chunk.id]

    def put_named_content(
        self,
        handle: XcacheHandle,
        name: str,
        data: bytes,
        ttl_ms: int,
        key: PublisherKey,
        key_ref: DagAddress | str,
    ) -> DagAddress:
        """Publish named content.  The public key chunk referenced by
        ``key_ref`` must already be published on this node; the daemon
        self-verifies before serving anything."""
        self.check_handle(handle)
        if isinstance(key_ref, str):
            key_ref = parse_dag_url(key_ref, allow_short=True)
        if ttl_ms <= 0:
            raise PublishError("published content needs a positive TTL")
        key_chunk = self.manager.get(key_ref.intent_xid())
        if key_chunk is None:
            raise PublishError("public key chunk is not published here yet")
        try:
            chunk = build_ncid_chunk(
                name, data, ttl_ms, key, key_ref, max_payload=self.config.max_payload
            )
        except ChunkError as exc:
            raise PublishError(str(exc)) from exc
        result = verify_ncid(chunk, key_chunk)
        if not result.accepted:
            raise PublishError(f"self-verification failed: {result.reason}")
        with self._lock:
            if not self._admit(chunk, origin="publish"):
                raise PublishError("no store admitted the chunk")
            return self.published[chunk.id]

    # -- fetch ---------------------------------------------------------

    def fetch_chunk(
        self,
        handle: XcacheHandle,
        addr: DagAddress | str,
        blocking: bool = True,
        timeout: float = 30.0,
    ):
        """Fetch the content the address points at; returns the payload
        bytes (or a PendingFetch when non-blocking).

        Fast path: present and unexpired in the local store, returned
        inline without touching the queue.  Slow path: queued; a worker
        connects to the content, verifies what arrives (discarding it on
        failure) and caches it according to policy.
        """
        result = self.fetch_entry(handle, addr, blocking=blocking, timeout=timeout)
        if blocking:
            chunk, _ = result
            return chunk.payload
        return result

    def fetch_entry(
        self,
        handle: XcacheHandle,
        addr: DagAddress | str,
        blocking: bool = True,
        timeout: float = 30.0,
    ):
        """Like fetch_chunk but returns ``(Chunk, FetchStats)`` so
        front-ends can report where the bytes came from."""
        self.check_handle(handle)
        if isinstance(addr, str):
            addr = parse_dag_url(addr, allow_short=True)
        intent = addr.intent_xid()
        if intent.xtype not in CONTENT_TYPES:
            raise FetchError(f"cannot fetch a {intent.xtype.value} intent")
        with self._lock:
            chunk = self.manager.get(intent)
            if chunk is not None:
                self.counters["fast_path"] += 1
                if blocking:
                    return chunk, LOCAL_STATS
                done = Request("fetch", handle, addr=addr, intent=intent)
                done.complete(result=(chunk, LOCAL_STATS))
                return PendingFetch(done)

            self.counters["queued"] += 1
            request = Request("fetch", handle, addr=addr, intent=intent)
            handle._pending.add(request)
            leader = self._inflight.get(intent)
            if leader is not None and not leader.finished():
                leader.followers.append(request)
            else:
                self._inflight[intent] = request
                self._enqueue(request)
        if blocking:
            return request.wait(timeout)
        return PendingFetch(request)

    def get_named_chunk(
        self,
        handle: XcacheHandle,
        url: NcidUrl | str,
        cert: DagAddress | str | None = None,
        timeout: float = 30.0,
    ) -> bytes:
        """Fetch named content by URL.

        The certificate address comes from the URL's PubCert locator or
        the explicit ``cert`` argument.  The publisher fingerprint taken
        from the certificate chunk pins down the content identifier, and
        the fetch then verifies against that same certificate."""
        chunk, _ = self.get_named_entry(handle, url, cert=cert, timeout=timeout)
        return chunk.payload

    def get_named_entry(
        self,
        handle: XcacheHandle,
        url: NcidUrl | str,
        cert: DagAddress | str | None = None,
        timeout: float = 30.0,
    ):
        self.check_handle(handle)
        if isinstance(url, str):
            url = parse_ncid_url(url)
        if cert is None:
            cert = url.locator("PubCert")
        if cert is None:
            raise CertificateRequiredError(
                "no certificate source: URL has no PubCert locator and none was given"
            )
        cert_dag = parse_dag_url(cert, allow_short=True) if isinstance(cert, str) else cert
        if cert_dag.intent_xid().xtype is not XidType.CID:
            raise FetchError("certificate address must point at a plain content chunk")
        key_chunk, _ = self.fetch_entry(handle, cert_dag, timeout=timeout)
        name = canonical_name(url.address, url.locators)
        ncid = compute_ncid(name, fingerprint(key_chunk.payload))
        fetch_dag = make_fallback_dag(ncid, _fallback_chain(cert_dag))
        return self.fetch_entry(handle, fetch_dag, timeout=timeout)

    def destroy_chunk(self, handle: XcacheHandle, addr: DagAddress | str | Xid) -> None:
        """Remove locally held content and withdraw its route.  Absent
        content is a no-op; remote copies are untouched."""
        self.check_handle(handle)
        if isinstance(addr, str):
            addr = parse_dag_url(addr, allow_short=True)
        xid = addr if isinstance(addr, Xid) else addr.intent_xid()
        with self._lock:
            self.manager.remove(xid)
            self._withdraw(xid)

    # -- maintenance -----------------------------------------------------

    def sweep_ttl(self, now_ms: int | None = None) -> list[Xid]:
        """Expire overdue entries; emits one eviction notification per
        expired chunk."""
        with self._lock:
            expired = self.manager.sweep(now_ms)
            for xid in expired:
                addr = self.published.get(xid, self._address_for(xid))
                self._withdraw(xid)
                self._notify(NotifEvent.CHUNK_EVICTED, addr)
            return expired

    def shutdown(self) -> None:
        self._alive = False
        for _ in self._workers:
            self._queue.put(None)
        for worker in self._workers:
            worker.join(timeout=2.0)
        self.manager.close()

    # -- internals -------------------------------------------------------

    def _enqueue(self, request: Request) -> None:
        self._queue.put(request)
        if self._queue.qsize() > _QUEUE_HIGH_WATER and not self._high_water_warned:
            self._high_water_warned = True
            log.warning("request queue beyond %d entries", _QUEUE_HIGH_WATER)

    def _worker_loop(self) -> None:
        while True:
            request = self._queue.get()
            if request is None:
                return
            if request.finished() and not request.followers:
                with self._lock:
                    if self._inflight.get(request.args.get("intent")) is request:
                        del self._inflight[request.args["intent"]]
                continue
            try:
                if request.kind == "fetch":
                    entry = self._fetch_remote(request.args["addr"], request.args["intent"])
                    self._finish(request, result=entry)
                elif request.kind == "ingest":
                    self._ingest_with_key_fetch(request.args["chunk"], request.args["provider"])
                    self._finish(request)
            except XcacheError as exc:
                self._finish(request, error=exc)
            except Exception as exc:  # worker threads must survive anything
                log.exception("worker failed on %s request", request.kind)
                self._finish(request, error=XcacheError(str(exc)))

    def _finish(self, request: Request, result=None, error=None) -> None:
        with self._lock:
            intent = request.args.get("intent")
            if intent is not None and self._inflight.get(intent) is request:
                del self._inflight[intent]
            request.complete(result, error)
            if request.handle is not None:
                request.handle._pending.discard(request)

    def _fetch_remote(self, addr: DagAddress, intent: Xid) -> tuple[Chunk, FetchStats]:
        chunk = self.manager.get(intent)
        if chunk is not None:  # arrived while queued
            return chunk, LOCAL_STATS
        raw, provider_dag, stats = self._transfer(addr)
        try:
            chunk = decode_chunk(raw, max_payload=self.config.max_payload)
        except ChunkDecodeError as exc:
            raise VerificationError(f"undecodable chunk ({exc.kind})") from exc
        result = self._verify_fetched(chunk, intent)
        if not result.accepted:
            raise VerificationError(result.reason or "rejected")
        if chunk.ttl_ms > 0 and self.policy.decide(intent, provider_dag):
            with self._lock:
                self._admit(chunk, origin="fetch")
        return chunk, stats

    def _transfer(self, addr: DagAddress) -> tuple[bytes, DagAddress, FetchStats]:
        if self.node is None:
            raise UnroutableError("daemon has no network attachment")
        try:
            session = self.node.connect_to_content(addr)
        except NoRouteError as exc:
            raise UnroutableError(str(exc)) from exc
        except (HandshakeTimeout, SimStalledError) as exc:
            raise FetchTimeoutError(str(exc)) from exc
        try:
            raw = session.recv_chunk()
        except (TransferTimeout, SimStalledError) as exc:
            raise FetchTimeoutError(str(exc)) from exc
        stats = FetchStats(
            provider=session.provider_name or "?",
            hops=session.syn_hops or 0,
            segments=session.rx_segments,
            retransmits=self.node.sim.session_stats[session.session_id]["retransmits"],
        )
        return raw, session.provider_dag, stats

    def _verify_fetched(self, chunk: Chunk, intent: Xid) -> VerifyResult:
        """Check the received chunk against what was actually requested."""
        if intent.xtype is XidType.CID:
            if chunk.id != intent:
                return reject("hash-mismatch")
            return verify_cid(chunk)
        if chunk.id != intent:
            return reject(REASON_NCID)
        return verify_ncid_via(chunk, partial(self._fetch_key, chunk.key_ref))

    def _fetch_key(self, key_ref: DagAddress, key_cid: Xid) -> Chunk | None:
        """The key chunk a named chunk's verification needs: the local
        copy, or else one fetched from ``key_ref``, verified and admitted."""
        self.counters["key_fetches"] += 1
        local = self.manager.get(key_cid)
        if local is not None:
            return local
        raw, _, _ = self._transfer(key_ref)
        try:
            key_chunk = decode_chunk(raw, max_payload=self.config.max_payload)
        except ChunkDecodeError:
            return None
        if key_chunk.id != key_cid or not verify_cid(key_chunk):
            return None
        if key_chunk.ttl_ms > 0:
            with self._lock:
                self._admit(key_chunk, origin="fetch")
        return key_chunk

    def _admit(self, chunk: Chunk, origin: str) -> bool:
        """Single chokepoint through which chunks enter the store (verified
        ones, and those inject_unverified_chunk plants); installs
        routes/bindings, withdraws evicted content and fans out
        notifications."""
        try:
            _, evicted = self.manager.store(chunk)
        except StoreError as exc:
            log.warning("store refused chunk %s: %s", chunk.id.text(short=True), exc)
            return False
        for victim in evicted:
            addr = self.published.get(victim, self._address_for(victim))
            self._withdraw(victim)
            self._notify(NotifEvent.CHUNK_EVICTED, addr)
        addr = self._address_for(chunk.id)
        self.published[chunk.id] = addr
        if self.node is not None:
            self.node.server_socket.bind(chunk.id, addr)
        if origin != "publish":
            self._notify(NotifEvent.CHUNK_ARRIVED, addr)
        return True

    def _withdraw(self, xid: Xid) -> None:
        self.published.pop(xid, None)
        if self.node is not None:
            self.node.server_socket.unbind(xid)

    def _address_for(self, xid: Xid) -> DagAddress:
        if self.node is not None:
            return self.node.local_dag_for(xid)
        return make_fallback_dag(xid, [])

    def _notify(self, event: NotifEvent, addr: DagAddress) -> None:
        with self._lock:
            handles = list(self._handles)
        for handle in handles:
            if handle.alive and handle._handlers.get(event):
                handle._notif_queue.put(Notification(event, addr))

    def inject_unverified_chunk(self, chunk: Chunk) -> None:
        """Attack/test instrumentation: place a chunk without verifying
        it, modeling a malicious or broken node.  Honest daemons never
        call this."""
        with self._lock:
            if not self._admit(chunk, origin="publish"):
                raise PublishError("no store admitted the chunk")

    # -- node-facing machinery ------------------------------------------

    def _serve_session(self, session, xid: Xid) -> None:
        chunk = self.manager.get(xid)
        if chunk is None:
            # Stale binding: the content vanished between request and
            # serve.  Answer with an empty stream so the client fails
            # promptly (undecodable) instead of waiting out a timeout.
            log.warning("%s: bound content %s vanished before serving", self._name(), xid)
            self._withdraw(xid)
            session.start_send(b"")
            return
        session.start_send(encode_chunk(chunk))

    def _on_capture(self, seg: Segment) -> None:
        """Forwarding-path tap: decide on the provider's answer, buffer
        the session's data segments (retransmissions deduplicate), and
        on FIN reassemble, verify and adopt the chunk."""
        if seg.flags & SegFlags.SYNACK:
            intent = seg.src_dag.intent_xid()
            if intent.xtype not in CONTENT_TYPES:
                return
            if seg.session in self._ingest_buffers or self.manager.contains(intent):
                return
            if self.policy.decide(intent, seg.src_dag):
                self._ingest_buffers[seg.session] = _IngestBuffer(intent, seg.src_dag)
            return
        buf = self._ingest_buffers.get(seg.session)
        if buf is None:
            return
        if seg.flags & SegFlags.FIN:
            buf.fin_seq = seg.seq
        elif seg.flags == SegFlags.NONE:
            buf.segments.setdefault(seg.seq, seg.payload)
        else:
            return
        if buf.fin_seq is not None and all(i in buf.segments for i in range(buf.fin_seq)):
            del self._ingest_buffers[seg.session]
            raw = b"".join(buf.segments[i] for i in range(buf.fin_seq))
            self._ingest_reassembled(raw, buf)

    def _ingest_reassembled(self, raw: bytes, buf: _IngestBuffer) -> None:
        try:
            chunk = decode_chunk(raw, max_payload=self.config.max_payload)
        except ChunkDecodeError as exc:
            log.warning("%s: discarding undecodable capture: %s", self._name(), exc)
            return
        if chunk.id != buf.intent or chunk.ttl_ms == 0:
            return
        if chunk.id.xtype is XidType.CID:
            if verify_cid(chunk).accepted:
                with self._lock:
                    self._admit(chunk, origin="opportunistic")
            return
        key_chunk = self.manager.get(chunk.key_ref.intent_xid()) if chunk.key_ref else None
        if key_chunk is not None:
            if verify_ncid(chunk, key_chunk).accepted:
                with self._lock:
                    self._admit(chunk, origin="opportunistic")
            return
        # Key chunk not local; verification needs a network fetch, which
        # cannot run inside event processing.  Hand it to a worker.
        self._enqueue(Request("ingest", None, chunk=chunk, provider=buf.provider_dag))

    def _ingest_with_key_fetch(self, chunk: Chunk, provider_dag: DagAddress) -> None:
        result = verify_ncid_via(chunk, partial(self._fetch_key, chunk.key_ref))
        if result.accepted:
            with self._lock:
                self._admit(chunk, origin="opportunistic")

    def _name(self) -> str:
        return self.node.name if self.node is not None else "local"


def _fallback_chain(dag: DagAddress) -> list[Xid]:
    """Extract the fallback path of a published address (the chain the
    lowest-priority source edge walks to the intent); used to anchor a
    derived fetch near the same publisher."""
    chain: list[Xid] = []
    cursor = dag.source_edges[-1]
    while cursor != dag.intent:
        chain.append(dag.nodes[cursor].xid)
        if not dag.nodes[cursor].out_edges:
            break
        cursor = dag.nodes[cursor].out_edges[0]
    return chain
