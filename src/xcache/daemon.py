"""The content cache daemon.

Applications talk to a daemon instance through handles.  Fetches that
the local store can satisfy complete inline on the fast path.  A miss
starts its transfer on the caller's thread, in call order.  The event
that ends the transfer verifies what arrived, caches it when the
daemon's cache flag is set, and completes the fetch and every caller
that coalesced onto it; a named chunk whose key chunk is not at hand
fetches the key first, the same way.  Blocking callers and
``PendingFetch`` results pump the simulator until their own fetch has
finished, and the daemon starts no threads.  The daemon's lock is its
node's engine lock, so a miss registers itself and starts its session
in one critical section: a caller that finds a fetch in flight finds
its session started, and a wait that drains the event queue is a
stall.  Nothing enters any store, and nothing read from the disk tier
reaches a caller, without passing ``Xcached.verify``, which is also
what makes opportunistic caching safe: the daemon taps its node's
forwarding path, reassembles content sessions it forwards, and becomes
a provider for chunks that verify.
"""

from __future__ import annotations

import logging
import math
import queue
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial

from .addressing import CONTENT_TYPES, DagAddress, Xid, XidType, make_fallback_dag
from .chunking import (
    Chunk,
    ChunkDecodeError,
    ChunkError,
    DEFAULT_MAX_PAYLOAD,
    PublisherKey,
    REASON_HASH,
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
    verify_ncid_via,
)
from .netsim import NetNode, NoRouteError, SegFlags, Segment, SimStalledError
from .store import DiskStore, StorageManager, StoreError
from .urls import NcidUrl, canonical_name, parse_dag_url, parse_ncid_url

log = logging.getLogger(__name__)


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


def cache_flag(policy: str) -> bool:
    """Whether a daemon with this ``cache_policy`` keeps copies of the
    content it fetches or forwards."""
    if policy not in ("always", "never"):
        raise ValueError(f"unknown cache policy {policy!r}")
    return policy == "always"


@dataclass
class DaemonConfig:
    # validated but without effect, as the daemon starts no threads; kept
    # so that configuration files and callers that set it still load
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


def parse_config(text: str, base: DaemonConfig | None = None) -> DaemonConfig:
    """Parse and validate ``key = value`` daemon configuration text; keys
    it does not set keep their value in ``base`` (default: the defaults)."""
    cfg = replace(base) if base is not None else DaemonConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        try:
            if not sep:
                raise ValueError("expected key = value")
            if not hasattr(cfg, key):
                raise ValueError(f"unknown key {key!r}")
            if key in _CONFIG_INT_KEYS:
                value = int(value)
            elif key == "cache_policy":
                cache_flag(value)
            setattr(cfg, key, value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
    return cfg


class Request:
    """One fetch and the callers coalesced onto it (its followers);
    reaches exactly one terminal state, which ``wait`` pumps ``sim`` for.
    It changes state only under the engine lock."""

    def __init__(self, handle, intent: Xid, sim):
        self.handle = handle
        self.intent = intent
        self.sim = sim
        self.followers: list[Request] = []
        self._done = False
        self.result = None
        self.error: Exception | None = None

    def complete(self, result=None, error: Exception | None = None) -> None:
        if not self._done:
            self.result = result
            self.error = error
            self._done = True
        for follower in self.followers:
            follower.complete(result, error)

    def cancel(self) -> None:
        if not self._done:
            self.error = CanceledError("handle destroyed while request pending")
            self._done = True

    def finished(self) -> bool:
        return self._done

    def wait(self):
        """Pump the simulator until this request has finished.  A session
        ends within its retry budget or idle timeout in simulated time,
        so an event queue that drains first is a stall, raised as
        ``FetchTimeoutError``."""
        if not self._done:
            try:
                self.sim.wait_for(self.finished)
            except SimStalledError as exc:
                raise FetchTimeoutError(str(exc)) from exc
        if self.error is not None:
            raise self.error
        return self.result


class PendingFetch:
    """Completion slot for a non-blocking fetch.  ``done`` only looks;
    ``result`` and ``entry`` pump the simulator until it has finished."""

    def __init__(self, request: Request):
        self._request = request

    def done(self) -> bool:
        return self._request.finished()

    def result(self) -> bytes:
        chunk, _ = self._request.wait()
        return chunk.payload

    def entry(self):
        return self._request.wait()


@dataclass
class _IngestBuffer:
    intent: Xid
    last_seen: int  # simulated ms of the session's latest captured segment
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

    def fetch_chunk(self, addr, blocking: bool = True):
        return self._daemon.fetch_chunk(self, addr, blocking=blocking)

    def get_named_chunk(self, url, cert=None) -> bytes:
        return self._daemon.get_named_chunk(self, url, cert=cert)

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
    """One daemon instance on one simulated node: storage manager, fetch
    coalescing, notification fan-out, content serving and opportunistic
    caching.  What the node serves is its route table's
    local content set: admitting a chunk adds its route, and eviction,
    expiry and removal withdraw it; the node asks ``_serve`` for the
    bytes when a request arrives.  The store's clock is the node's
    simulator unless ``clock`` is given."""

    def __init__(self, config: DaemonConfig | None = None, *, node: NetNode, clock=None):
        self.config = config if config is not None else DaemonConfig()
        self.node = node
        self.manager = StorageManager(
            mem_capacity=self.config.mem_capacity_chunks,
            disk_capacity=self.config.disk_capacity_chunks,
            disk_dir=self.config.disk_dir,
            clock=clock if clock is not None else node.sim,
        )
        self.caching = cache_flag(self.config.cache_policy)
        self.counters: Counter = Counter()

        self._lock = node.sim.lock
        self._handles: set[XcacheHandle] = set()
        self._inflight: dict[Xid, Request] = {}
        self._ingest_buffers: dict[bytes, _IngestBuffer] = {}
        self._ingest_sweep_at = math.inf  # no buffer expires before this
        self._alive = True

        node.serve = self._serve
        node.capture = self._on_capture
        for xid in self.manager.ids():  # entries reloaded from the disk tier
            node.routes.add_local(xid)

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
        return self._publish(chunk)

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
        ``key_ref`` must already be published on this node and hold
        ``key.public``.  A ``PublisherKey`` refuses a public half that is
        not its private half's, so the chunk signed here verifies under
        that key chunk by construction and is not verified again."""
        self.check_handle(handle)
        if isinstance(key_ref, str):
            key_ref = parse_dag_url(key_ref, allow_short=True)
        if ttl_ms <= 0:
            raise PublishError("published content needs a positive TTL")
        key_chunk = self.manager.get(key_ref.intent_xid())
        if key_chunk is None:
            raise PublishError("public key chunk is not published here yet")
        if key_chunk.payload != key.public:
            raise PublishError("the key chunk does not hold the publisher's public key")
        try:
            chunk = build_ncid_chunk(
                name, data, ttl_ms, key, key_ref, max_payload=self.config.max_payload
            )
        except ChunkError as exc:
            raise PublishError(str(exc)) from exc
        return self._publish(chunk)

    # -- fetch ---------------------------------------------------------

    def fetch_chunk(
        self,
        handle: XcacheHandle,
        addr: DagAddress | str,
        blocking: bool = True,
    ):
        """Fetch the content the address points at; returns the payload
        bytes (or a PendingFetch when non-blocking).

        Fast path: present and unexpired in the local store, returned
        without a transfer.  A memory hit was verified when it was
        admitted and returns inline; a disk hit is verified again, since
        its file can change behind the store, fetching its key chunk
        first if a named chunk's key is not at hand, and one that fails
        is dropped with its route and raises ``VerificationError``.  Slow
        path: the caller's thread starts a session to the content; inside
        the event that ends it, what arrived is verified (and discarded
        on failure) and cached if the cache flag is set.  A fetch of
        content another caller is already fetching or verifying follows
        that fetch instead.

        The transfer is bounded in simulated time by the transport's
        retry budget and idle timeout; a wait that drains the event queue
        first raises ``FetchTimeoutError`` at once.
        """
        result = self.fetch_entry(handle, addr, blocking=blocking)
        if blocking:
            chunk, _ = result
            return chunk.payload
        return result

    def fetch_entry(
        self,
        handle: XcacheHandle,
        addr: DagAddress | str,
        blocking: bool = True,
        *,
        key_chunk: Chunk | None = None,
    ):
        """Like fetch_chunk but returns ``(Chunk, FetchStats)`` so
        front-ends can report where the bytes came from.  ``key_chunk`` is
        a verified certificate the caller already holds: a named chunk
        whose key it is, fetched or read from disk, verifies against it
        instead of fetching the key again."""
        self.check_handle(handle)
        if isinstance(addr, str):
            addr = parse_dag_url(addr, allow_short=True)
        intent = addr.intent_xid()
        if intent.xtype not in CONTENT_TYPES:
            raise FetchError(f"cannot fetch a {intent.xtype.value} intent")
        with self._lock:
            chunk = self._held(intent)  # a miss withdraws the route before any SYN leaves
            self.counters["queued" if chunk is None else "fast_path"] += 1
            if chunk is not None and self.manager.placement(intent) != DiskStore.store_id:
                if blocking:
                    return chunk, LOCAL_STATS
                done = Request(handle, intent, self.node.sim)
                done.complete(result=(chunk, LOCAL_STATS))
                return PendingFetch(done)

            request = Request(handle, intent, self.node.sim)
            handle._pending.add(request)
            leader = self._inflight.get(intent)
            if leader is not None and not leader.finished():
                leader.followers.append(request)
            else:
                self._inflight[intent] = request
                if chunk is None:
                    steps = self._fetch_remote(addr, intent, key_chunk)
                else:
                    steps = self._verify_disk_hit(chunk, intent, key_chunk)
                self._drive(steps, partial(self._finish, request))
        if not blocking:
            return PendingFetch(request)
        return request.wait()

    def get_named_chunk(
        self,
        handle: XcacheHandle,
        url: NcidUrl | str,
        cert: DagAddress | str | None = None,
    ) -> bytes:
        """Fetch named content by URL.

        The certificate address comes from the URL's PubCert locator or
        the explicit ``cert`` argument.  The publisher fingerprint taken
        from the certificate chunk pins down the content identifier, and
        the fetch then verifies against that same certificate."""
        chunk, _ = self.get_named_entry(handle, url, cert=cert)
        return chunk.payload

    def get_named_entry(
        self,
        handle: XcacheHandle,
        url: NcidUrl | str,
        cert: DagAddress | str | None = None,
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
        key_chunk, _ = self.fetch_entry(handle, cert_dag)
        name = canonical_name(url.address, url.locators)
        ncid = compute_ncid(name, fingerprint(key_chunk.payload))
        fetch_dag = make_fallback_dag(ncid, _fallback_chain(cert_dag))
        return self.fetch_entry(handle, fetch_dag, key_chunk=key_chunk)

    def destroy_chunk(self, handle: XcacheHandle, addr: DagAddress | str | Xid) -> None:
        """Remove locally held content and withdraw its route.  Absent
        content is a no-op; remote copies are untouched."""
        self.check_handle(handle)
        if isinstance(addr, str):
            addr = parse_dag_url(addr, allow_short=True)
        xid = addr if isinstance(addr, Xid) else addr.intent_xid()
        with self._lock:
            self.manager.remove(xid)
            self.node.routes.remove_local(xid)

    # -- maintenance -----------------------------------------------------

    def sweep_ttl(self, now_ms: int | None = None) -> list[Xid]:
        """Expire overdue entries; emits one eviction notification per
        expired chunk."""
        with self._lock:
            expired = self.manager.sweep(now_ms)
            for xid in expired:
                self.node.routes.remove_local(xid)
                self._notify(NotifEvent.CHUNK_EVICTED, xid)
            return expired

    def shutdown(self) -> None:
        self._alive = False
        self.manager.close()

    # -- internals -------------------------------------------------------

    def _drive(self, steps, done, outcome=None) -> None:
        """Run a fetch written as a generator.  Each ``yield addr`` starts
        a session to ``addr``'s content; the generator resumes inside the
        event that ends it, with ``(raw bytes, FetchStats)`` sent in or
        the session's ``FetchError`` raised at the ``yield``.  ``done``
        gets what the generator returns or raises, any error wrapped in a
        ``FetchError``, so nothing reaches the thread that is pumping."""
        while True:
            try:
                if isinstance(outcome, Exception):
                    addr = steps.throw(outcome)
                else:
                    addr = steps.send(outcome)
            except StopIteration as stop:
                done(stop.value)
                return
            except FetchError as exc:
                done(error=exc)
                return
            except Exception as exc:  # a fault in the fetch, not in the network
                log.exception("%s: fetch failed", self.node.name)
                done(error=FetchError(f"internal error: {exc!r}"))
                return
            try:
                self.node.start_connect(addr, on_end=partial(self._resume, steps, done))
                return
            except NoRouteError as exc:
                outcome = UnroutableError(str(exc))

    def _resume(self, steps, done, session) -> None:
        """A session's ``on_end``: go on with the fetch that started it."""
        if session.state == "failed":
            outcome = FetchTimeoutError(session.fail_reason)
        else:
            stats = FetchStats(
                provider=session.reply.node,
                hops=session.reply.hops,
                segments=session.rx_segments,
                retransmits=session.session_retransmits,
            )
            outcome = (b"".join(session.rx_payloads), stats)
        self._drive(steps, done, outcome)

    def _finish(self, request: Request, result=None, error=None) -> None:
        with self._lock:
            if self._inflight.get(request.intent) is request:
                del self._inflight[request.intent]
            request.complete(result, error)
            for done in (request, *request.followers):
                done.handle._pending.discard(done)

    def _fetch_remote(self, addr: DagAddress, intent: Xid, held: Chunk | None):
        """A miss, as ``_drive`` runs it: transfer, decode, verify, and
        cache when the cache flag is set."""
        raw, stats = yield addr
        chunk = self._decode(raw)
        result = yield from self._verify_fetched(chunk, intent, held)
        if not result.accepted:
            raise VerificationError(result.reason or "rejected")
        if chunk.ttl_ms > 0 and self.caching:
            with self._lock:
                self._admit(chunk, origin="fetch")
        return chunk, stats

    def _verify_disk_hit(self, chunk: Chunk, intent: Xid, held: Chunk | None):
        """A hit on the disk tier, as ``_drive`` runs it: the file can change
        behind the store, so the chunk is verified as a fetched one is, and
        one that fails is dropped with its local route."""
        result = yield from self._verify_fetched(chunk, intent, held)
        if not result.accepted:
            with self._lock:
                self.manager.remove(intent)
                self.node.routes.remove_local(intent)
            raise VerificationError(result.reason or "rejected")
        return chunk, LOCAL_STATS

    def _verify_fetched(self, chunk: Chunk, intent: Xid, held: Chunk | None = None):
        """``verify`` for a chunk from the network or the disk tier, as a
        step ``_drive`` runs.  A named chunk's key chunk is the local copy,
        else ``held`` (a verified certificate the caller already has) when
        it is that key, else one fetched from the chunk's ``key_ref``,
        verified and admitted.  ``verify_ncid_via`` asks only for plain
        chunks, so verifying the key never fetches another key."""
        missing = []

        def fetch_key(key_cid: Xid) -> Chunk | None:
            self.counters["key_fetches"] += 1
            key = self._held(key_cid)
            if key is None and held is not None and held.id == key_cid:
                key = held
            if key is None:
                missing.append(key_cid)
            return key

        result = self.verify(chunk, intent, fetch_key)
        if not missing:
            return result
        raw, _ = yield chunk.key_ref
        try:
            key = self._decode(raw)
        except VerificationError:
            key = None
        if key is not None and not self.verify(key, missing[0]):
            key = None
        if key is not None and key.ttl_ms > 0 and self.caching:
            with self._lock:
                self._admit(key, origin="fetch")
        return self.verify(chunk, intent, lambda key_cid: key)

    def verify(self, chunk: Chunk, intent: Xid, fetch_key=None) -> VerifyResult:
        """The one check a chunk passes where it crosses a trust boundary:
        a chunk from the network before it enters a store or reaches an
        application, and a disk hit before it reaches an application, both
        through ``_verify_fetched``.  Its id must be the requested
        ``intent``; a plain chunk must then hash to it, and a named chunk
        must verify against the key chunk ``fetch_key(key_cid)`` returns
        (by default the local copy).  Memory hits were checked on
        admission, ``_serve`` leaves the check to the receiver, and a
        publish builds a chunk that verifies by construction."""
        if chunk.id != intent:
            return reject(REASON_HASH if intent.xtype is XidType.CID else REASON_NCID)
        if intent.xtype is XidType.CID:
            return verify_cid(chunk)
        return verify_ncid_via(chunk, fetch_key or self.manager.get)

    def _held(self, xid: Xid) -> Chunk | None:
        """The store's copy of ``xid``.  On a miss the node's local route
        for it is withdrawn, since a local route must mean held content:
        the store drops a disk entry that no longer reads without telling
        the daemon."""
        chunk = self.manager.get(xid)
        if chunk is None:
            self.node.routes.remove_local(xid)
        return chunk

    def _decode(self, raw: bytes) -> Chunk:
        try:
            return decode_chunk(raw, max_payload=self.config.max_payload)
        except ChunkDecodeError as exc:
            raise VerificationError(f"undecodable chunk ({exc.kind})") from exc

    def _admit(self, chunk: Chunk, origin: str) -> bool:
        """Single chokepoint through which chunks enter the store (verified
        ones, and those inject_unverified_chunk plants); adds the chunk's
        local route, withdraws evicted content and fans out notifications.
        Returns whether a store admitted the chunk."""
        try:
            _, evicted = self.manager.store(chunk)
        except StoreError as exc:
            log.warning("store refused chunk %s: %s", chunk.id.text(short=True), exc)
            return False
        for victim in evicted:
            self.node.routes.remove_local(victim)
            self._notify(NotifEvent.CHUNK_EVICTED, victim)
        self.node.routes.add_local(chunk.id)
        if origin != "publish":
            self._notify(NotifEvent.CHUNK_ARRIVED, chunk.id)
        return True

    def _publish(self, chunk: Chunk) -> DagAddress:
        """Admit a chunk this node publishes; returns the address remote
        clients can fetch it by."""
        with self._lock:
            if not self._admit(chunk, origin="publish"):
                raise PublishError("no store admitted the chunk")
        return self.node.local_dag_for(chunk.id)

    def _notify(self, event: NotifEvent, xid: Xid) -> None:
        """Queue ``event`` for every live handle with a handler for it;
        ``xid``'s address is built only if some handle listens."""
        with self._lock:
            handles = list(self._handles)
        addr = None
        for handle in handles:
            if handle.alive and handle._handlers.get(event):
                if addr is None:
                    addr = self.node.local_dag_for(xid)
                handle._notif_queue.put(Notification(event, addr))

    def inject_unverified_chunk(self, chunk: Chunk) -> None:
        """Attack/test instrumentation: place a chunk without verifying
        it, modeling a malicious or broken node.  Honest daemons never
        call this."""
        self._publish(chunk)

    # -- node-facing machinery ------------------------------------------

    def _serve(self, xid: Xid) -> bytes | None:
        """The node's ``serve``: the encoded chunk, or None once it is
        gone or expired."""
        chunk = self.manager.get(xid)
        return encode_chunk(chunk) if chunk is not None else None

    def _on_capture(self, seg: Segment) -> None:
        """Forwarding-path tap: decide on the provider's answer, buffer
        the session's data segments (retransmissions deduplicate), and
        on FIN reassemble, verify and adopt the chunk.  A buffer left idle
        past the receiver's idle timeout belongs to a session that ended
        without its FIN crossing this node, and is dropped."""
        now = self.node.sim.now
        if now >= self._ingest_sweep_at:
            self._expire_ingest(now)
        if seg.flags & SegFlags.SYNACK:
            intent = seg.src_dag.intent_xid()
            if not self.caching or intent.xtype not in CONTENT_TYPES:
                return
            if seg.session not in self._ingest_buffers and not self.manager.contains(intent):
                self._ingest_buffers[seg.session] = _IngestBuffer(intent, now)
                if self._ingest_sweep_at == math.inf:
                    self._ingest_sweep_at = now + self.node.sim.idle_timeout_ms + 1
            return
        buf = self._ingest_buffers.get(seg.session)
        if buf is None:
            return
        buf.last_seen = now
        if seg.flags & SegFlags.FIN:
            buf.fin_seq = seg.seq
        elif seg.flags == SegFlags.NONE:
            buf.segments.setdefault(seg.seq, seg.payload)
        else:
            return
        if buf.fin_seq is not None and all(i in buf.segments for i in range(buf.fin_seq)):
            del self._ingest_buffers[seg.session]
            raw = b"".join(buf.segments[i] for i in range(buf.fin_seq))
            self._ingest(raw, buf.intent)

    def _expire_ingest(self, now: int) -> None:
        horizon = self.node.sim.idle_timeout_ms
        self._ingest_sweep_at = math.inf
        for session, buf in list(self._ingest_buffers.items()):
            if now - buf.last_seen > horizon:
                del self._ingest_buffers[session]
            else:
                self._ingest_sweep_at = min(self._ingest_sweep_at, buf.last_seen + horizon + 1)

    def _ingest(self, raw: bytes, intent: Xid) -> None:
        """Verify a reassembled capture as a fetched chunk is verified, and
        adopt it.  A named chunk whose key chunk is not local fetches the
        key first; its SYN leaves before the captured FIN is forwarded
        on."""
        try:
            chunk = self._decode(raw)
        except VerificationError as exc:
            log.warning("%s: discarding capture: %s", self.node.name, exc)
            return
        if chunk.ttl_ms == 0:
            return
        self._drive(self._verify_fetched(chunk, intent), partial(self._adopt, chunk))

    def _adopt(self, chunk: Chunk, result: VerifyResult | None = None, error=None) -> None:
        if error is not None:
            log.warning("%s: discarding capture: %s", self.node.name, error)
        elif result.accepted:
            with self._lock:
                self._admit(chunk, origin="opportunistic")


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
