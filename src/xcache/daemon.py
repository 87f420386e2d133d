"""The content cache daemon.

Applications talk to a daemon instance through handles.  Fetches that
the local store can satisfy complete inline on the fast path.  A miss
starts its transfer on the caller's thread, in call order, and every
later fetch of the same content takes a slot on that one transfer.  The
event that ends the transfer verifies what arrived, caches it when the
daemon's cache flag is set, and completes every slot on it.  A named
chunk whose key chunk is not at hand takes a slot on that key's one
transfer, like any fetch.  Blocking callers and ``PendingFetch``
results pump the simulator until their own slot has completed, and
notification handlers run only in ``process_notif``, so the daemon
starts no threads.  A daemon belongs to the thread that owns its node's
simulator: a public call from any other thread raises
``netsim.ForeignThreadError``, so the daemon takes no lock.  Nothing
enters any store, and nothing read from the disk tier reaches a caller,
without passing ``Xcached.verify``, which is also what makes
opportunistic caching safe: a caching daemon installs its node's capture
tap, which hands it each content session the node forwards, reassembled,
and becomes a provider for chunks that verify.
"""

from __future__ import annotations

import logging
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, replace
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
from .netsim import NetNode, NoRouteError, SimStalledError
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
    """An event on one chunk.  ``addr`` is the notifying node's own
    address for it (``local_dag_for``), which routes only to that node;
    after ``CHUNK_EVICTED`` the node no longer holds the chunk, so a fetch
    by ``addr`` is unroutable.  Use ``addr.intent_xid()`` to learn which
    chunk left, and refetch it by the address it was published under."""

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


# Integer keys and the least value each accepts (None: any).
_CONFIG_INT_KEYS = {
    "workers": None,
    "mem_capacity_chunks": 0,
    "disk_capacity_chunks": 0,
    "segment_size": 1,
    "window": 1,
    "rto_multiplier": 1,
    "max_payload": 1,
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
                value, least = int(value), _CONFIG_INT_KEYS[key]
                if least is not None and value < least:
                    raise ValueError(f"{key} must be at least {least}")
            elif key == "cache_policy":
                cache_flag(value)
            setattr(cfg, key, value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
    return cfg


class PendingFetch:
    """One caller's slot on a fetch; reaches exactly one terminal state.
    ``done`` only looks; ``result`` and ``entry`` pump the simulator until
    it has finished."""

    def __init__(self, handle, sim):
        self._handle = handle
        self._sim = sim
        self._done = False
        self._result = None
        self._error: Exception | None = None

    def _complete(self, result=None, error: Exception | None = None) -> None:
        if not self._done:
            self._result, self._error, self._done = result, error, True
        self._handle._pending.discard(self)

    def done(self) -> bool:
        return self._done

    def result(self) -> bytes:
        chunk, _ = self.entry()
        return chunk.payload

    def entry(self):
        """``(Chunk, FetchStats)``.  A session ends within its retry budget
        or idle timeout in simulated time, so an event queue that drains
        first is a stall, raised as ``FetchTimeoutError``."""
        if not self._done:
            try:
                self._sim.wait_for(self.done)
            except SimStalledError as exc:
                raise FetchTimeoutError(str(exc)) from exc
        if self._error is not None:
            raise self._error
        return self._result


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
        self._pending: set[PendingFetch] = set()
        self._notifs: deque[Notification] = deque()
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

    def process_notif(self) -> int:
        """Run the handlers of every queued notification, in registration
        order, on the owner thread, where a handler may call the daemon;
        returns how many notifications were processed."""
        self._daemon.check_handle(self)
        processed = 0
        while self._notifs:
            notif = self._notifs.popleft()
            for handler in list(self._handlers.get(notif.event, [])):
                handler(self, notif)
            processed += 1
        return processed

    def destroy(self) -> None:
        self._daemon.destroy_handle(self)


class Xcached:
    """One daemon instance on one simulated node: storage manager, fetch
    coalescing, notification fan-out, content serving and opportunistic
    caching.  What the node serves is its route table's local content
    set, which the store keeps: the store adds a chunk's route when it
    writes or reloads the chunk, and withdraws it on eviction, expiry,
    removal and close, so a shut-down daemon's node routes no content.
    The node asks ``_serve`` for the bytes when a request arrives.  The
    store's clock is the node's simulator unless ``clock`` is given."""

    def __init__(self, config: DaemonConfig | None = None, *, node: NetNode, clock=None):
        self.config = config if config is not None else DaemonConfig()
        self.node = node
        self.manager = StorageManager(
            mem_capacity=self.config.mem_capacity_chunks,
            disk_capacity=self.config.disk_capacity_chunks,
            disk_dir=self.config.disk_dir,
            clock=clock if clock is not None else node.sim,
            routes=node.routes,
        )
        self.counters: Counter = Counter()
        # digests of the publisher signatures this daemon has accepted; a
        # node is its own trust domain, so no daemon sees another's
        self._signatures: set[bytes] = set()

        self._handles: set[XcacheHandle] = set()
        # each transfer in flight, by intent: its waiters, in the order
        # they attached (see ``_attach``)
        self._inflight: dict[Xid, list] = {}
        self._alive = True

        node.serve = self._serve
        self.caching = cache_flag(self.config.cache_policy)

    @property
    def caching(self) -> bool:
        """Whether this daemon keeps copies of the content it fetches or
        forwards.  Only a caching daemon installs its node's capture tap:
        turning caching off removes the tap and clears the node's partly
        reassembled captures, so nothing captured before is adopted
        after."""
        return self._caching

    @caching.setter
    def caching(self, on: bool) -> None:
        self.node.sim.check_thread()
        self._caching = on
        self.node.capture = self._ingest if on else None
        if not on:
            self.node.captures.clear()

    # -- handles -------------------------------------------------------

    def init_handle(self) -> XcacheHandle:
        self._check_live()
        handle = XcacheHandle(self)
        self._handles.add(handle)
        return handle

    def destroy_handle(self, handle: XcacheHandle) -> None:
        self.check_handle(handle)
        handle.alive = False
        for slot in list(handle._pending):
            slot._complete(error=CanceledError("handle destroyed while request pending"))
        handle._notifs.clear()
        self._handles.discard(handle)

    def check_handle(self, handle: XcacheHandle) -> None:
        """Every handle call's first step: the caller must be the
        simulator's owner thread, and the handle live on this daemon."""
        self.node.sim.check_thread()
        if not isinstance(handle, XcacheHandle) or handle._daemon is not self or not handle.alive:
            raise InvalidHandleError("handle is not live on this daemon")

    def _check_live(self) -> None:
        """The first step of a daemon call that no handle makes: the caller
        must be the owner thread, and the daemon not shut down."""
        self.node.sim.check_thread()
        if not self._alive:
            raise XcacheError("daemon is shut down")

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
        its file can change behind the store, and one that fails is
        dropped with its route and raises ``VerificationError``.  Slow
        path: the caller's thread starts a session to the content; inside
        the event that ends it, what arrived is verified (and discarded
        on failure) and cached if the cache flag is set.  Each content has
        at most one transfer in flight: a fetch of content already being
        fetched or verified takes a slot on that transfer, which every
        slot's result comes from; so does a named chunk, fetched or read
        from disk, whose key chunk is not at hand, on the key's transfer.
        A canceled slot leaves the transfer running for the others.

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
        chunk = self.manager.get(intent)
        self.counters["queued" if chunk is None else "fast_path"] += 1
        if chunk is not None and self.manager.placement(intent) != DiskStore.store_id:
            if blocking:
                return chunk, LOCAL_STATS
            slot = PendingFetch(handle, self.node.sim)
            slot._complete((chunk, LOCAL_STATS))
            return slot

        slot = PendingFetch(handle, self.node.sim)
        handle._pending.add(slot)
        if chunk is None:
            steps = partial(self._fetch_remote, addr, intent, key_chunk)
        else:
            steps = partial(self._verify_disk_hit, chunk, intent, key_chunk)
        self._attach(intent, steps, slot._complete)
        return slot.entry() if blocking else slot

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
        content is a no-op; remote copies are untouched.  A disk record
        that cannot be killed raises ``StoreError`` and keeps both the
        content and its route."""
        self.check_handle(handle)
        if isinstance(addr, str):
            addr = parse_dag_url(addr, allow_short=True)
        self.manager.remove(addr if isinstance(addr, Xid) else addr.intent_xid())

    # -- maintenance -----------------------------------------------------

    def sweep_ttl(self, now_ms: int | None = None) -> list[Xid]:
        """Expire overdue entries; emits one eviction notification per
        expired chunk."""
        self._check_live()
        expired = self.manager.sweep(now_ms)
        for xid in expired:
            self._notify(NotifEvent.CHUNK_EVICTED, xid)
        return expired

    def shutdown(self) -> None:
        """End the daemon.  Every live handle is destroyed: its pending
        fetches raise ``CanceledError`` and its later calls raise
        ``InvalidHandleError``; no handle can be made, no chunk injected
        and no TTL swept after.  Caching stops, so the forwarding tap is
        gone, and a transfer that ends afterwards is canceled before it
        verifies or admits anything.  The store is then closed, which
        withdraws every content route, so the node serves nothing and
        forwards a request for what it held on; no handle, transfer,
        capture or served request reads the store again."""
        self.node.sim.check_thread()
        self._alive = False
        for handle in list(self._handles):
            self.destroy_handle(handle)
        self.caching = False
        self.manager.close()

    # -- internals -------------------------------------------------------

    def _attach(self, intent: Xid, steps, waiter) -> None:
        """The one way a transfer starts: ``waiter``, any callable taking
        ``(result, error)``, takes a slot on ``intent``'s transfer in
        flight, or else on a new one that runs the generator ``steps()``."""
        if intent in self._inflight:
            self._inflight[intent].append(waiter)
        else:
            # attached before the transfer starts, which can end at once
            self._inflight[intent] = [waiter]
            self._drive(steps(), partial(self._finish, intent))

    def _finish(self, intent: Xid, result=None, error=None) -> None:
        for waiter in self._inflight.pop(intent):
            waiter(result, error)

    def _drive(self, steps, done, result=None, error=None) -> None:
        """Run a fetch written as a generator.  Each ``yield`` hands
        ``_drive`` a step ``start(resume)``; the generator goes on when the
        step calls ``resume(result, error)``, with ``result`` sent in or
        ``error`` raised at the ``yield``.  ``done`` gets what the generator
        returns or raises, any error wrapped in a ``FetchError``, so nothing
        reaches the thread that is pumping."""
        try:
            start = steps.send(result) if error is None else steps.throw(error)
        except StopIteration as stop:
            done(stop.value)
        except FetchError as exc:
            done(error=exc)
        except Exception as exc:  # a fault in the fetch, not in the network
            log.exception("%s: fetch failed", self.node.name)
            done(error=FetchError(f"internal error: {exc!r}"))
        else:
            start(partial(self._drive, steps, done))

    def _connect(self, addr: DagAddress, resume) -> None:
        """The one step that starts a session, to ``addr``'s content; it
        resumes with ``(raw bytes, FetchStats)`` or a ``FetchError``."""
        try:
            self.node.start_connect(addr, on_end=partial(self._session_ended, resume))
        except NoRouteError as exc:
            resume(error=UnroutableError(str(exc)))

    def _session_ended(self, resume, session) -> None:
        """A session's ``on_end``: resume with what it carried, or, once
        the daemon is shut down, with a cancellation."""
        if not self._alive:
            resume(error=CanceledError("daemon shut down while the transfer ran"))
        elif session.state == "failed":
            resume(error=FetchTimeoutError(session.fail_reason))
        else:
            stats = FetchStats(
                provider=session.reply.node,
                hops=session.reply.hops,
                segments=session.rx_segments,
                retransmits=session.session_retransmits,
            )
            resume((b"".join(session.rx_payloads), stats))

    def _fetch_remote(self, addr: DagAddress, intent: Xid, held: Chunk | None):
        """A miss, as ``_drive`` runs it: transfer, decode, verify, and
        cache when the cache flag is set."""
        raw, stats = yield partial(self._connect, addr)
        chunk = self._decode(raw)
        result = yield from self._verify_fetched(chunk, intent, held)
        if not result.accepted:
            raise VerificationError(result.reason or "rejected")
        if chunk.ttl_ms > 0 and self.caching:
            self._admit(chunk, origin="fetch")
        return chunk, stats

    def _verify_disk_hit(self, chunk: Chunk, intent: Xid, held: Chunk | None):
        """A hit on the disk tier, as ``_drive`` runs it: the file can change
        behind the store, so the chunk is verified as a fetched one is, and
        one that fails is dropped with its local route.  An unchanged named
        chunk re-verifies through the signature memo; changed bytes give a
        different memo key and are verified in full."""
        result = yield from self._verify_fetched(chunk, intent, held)
        if not result.accepted:
            try:
                self.manager.remove(intent)
            except StoreError as exc:  # still held, so still routed
                log.warning("%s: keeping a disk hit that failed: %s", self.node.name, exc)
            raise VerificationError(result.reason or "rejected")
        return chunk, LOCAL_STATS

    def _verify_fetched(self, chunk: Chunk, intent: Xid, held: Chunk | None = None):
        """``verify`` for a chunk from the network or the disk tier, as a
        step ``_drive`` runs.  A named chunk's key chunk is the local copy,
        else ``held`` (a verified certificate the caller already has) when
        it is that key, else the result of the key's one transfer, on which
        the chunk takes a slot like any fetch: a key it rejects leaves the
        chunk ``key-chunk-invalid``, and its other errors are the chunk's.
        The key is a plain chunk, so its transfer waits on no other key."""
        missing = []

        def fetch_key(key_cid: Xid) -> Chunk | None:
            self.counters["key_fetches"] += 1
            key = self.manager.get(key_cid)
            if key is None and held is not None and held.id == key_cid:
                key = held
            if key is None:
                missing.append(key_cid)
            return key

        result = self.verify(chunk, intent, fetch_key)
        if not missing:
            return result
        key_steps = partial(self._fetch_remote, chunk.key_ref, missing[0], None)
        try:
            key, _ = yield partial(self._attach, missing[0], key_steps)
        except VerificationError:
            key = None
        return self.verify(chunk, intent, lambda key_cid: key)

    def verify(self, chunk: Chunk, intent: Xid, fetch_key) -> VerifyResult:
        """The one check a chunk passes where it crosses a trust boundary:
        a chunk from the network before it enters a store or reaches an
        application, and a disk hit before it reaches an application, both
        through ``_verify_fetched``.  Its id must be the requested
        ``intent``; a plain chunk must then hash to it, and a named chunk
        must verify against the key chunk ``fetch_key(key_cid)`` returns
        (None when there is none).  Memory hits were checked on
        admission, ``_serve`` leaves the check to the receiver, and a
        publish builds a chunk that verifies by construction.

        The daemon's signature memo skips only the Ed25519 step of a
        named chunk whose key, signature, name and payload are
        byte-identical to ones it accepted before, as when it meets an
        evicted chunk again or rereads an unchanged disk file; the key
        chunk's hash, the key reference and the name binding are checked
        every time.  See ``chunking.verify_named_signature``."""
        if chunk.id != intent:
            return reject(REASON_HASH if intent.xtype is XidType.CID else REASON_NCID)
        if intent.xtype is XidType.CID:
            return verify_cid(chunk)
        return verify_ncid_via(chunk, fetch_key, self._signatures)

    def _decode(self, raw: bytes) -> Chunk:
        try:
            return decode_chunk(raw, max_payload=self.config.max_payload)
        except ChunkDecodeError as exc:
            raise VerificationError(f"undecodable chunk ({exc.kind})") from exc

    def _admit(self, chunk: Chunk, origin: str) -> bool:
        """Single chokepoint through which chunks enter the store (verified
        ones, and those inject_unverified_chunk plants); fans out
        notifications, also for evictions made for a write that then
        failed.  Returns whether a store admitted the chunk."""
        admitted = True
        try:
            _, evicted = self.manager.store(chunk)
        except StoreError as exc:
            log.warning("store refused chunk %s: %s", chunk.id.text(short=True), exc)
            admitted, evicted = False, exc.evicted
        for victim in evicted:
            self._notify(NotifEvent.CHUNK_EVICTED, victim)
        if not admitted:
            return False
        if origin != "publish":
            self._notify(NotifEvent.CHUNK_ARRIVED, chunk.id)
        return True

    def _publish(self, chunk: Chunk) -> DagAddress:
        """Admit a chunk this node publishes; returns the address remote
        clients can fetch it by."""
        if not self._admit(chunk, origin="publish"):
            raise PublishError("no store admitted the chunk")
        return self.node.local_dag_for(chunk.id)

    def _notify(self, event: NotifEvent, xid: Xid) -> None:
        """Queue ``event`` for every live handle with a handler for it;
        ``xid``'s address is built only if some handle listens."""
        addr = None
        for handle in self._handles:
            if handle.alive and handle._handlers.get(event):
                if addr is None:
                    addr = self.node.local_dag_for(xid)
                handle._notifs.append(Notification(event, addr))

    def inject_unverified_chunk(self, chunk: Chunk) -> None:
        """Attack/test instrumentation: place a chunk without verifying
        it, modeling a malicious or broken node.  Honest daemons never
        call this."""
        self._check_live()
        self._publish(chunk)

    # -- node-facing machinery ------------------------------------------

    def _serve(self, xid: Xid) -> bytes | None:
        """The node's ``serve``: the encoded chunk, or None once it is
        gone or expired.  A shut-down daemon's node routes no content, so
        it is never asked."""
        chunk = self.manager.get(xid)
        return encode_chunk(chunk) if chunk is not None else None

    def _ingest(self, intent: Xid, raw: bytes) -> None:
        """The node's ``capture`` tap: verify a forwarded session's bytes
        as a fetched chunk is verified, and adopt the chunk.  A named chunk
        whose key chunk is not local takes a slot on the key's transfer; a
        SYN that starts one leaves before the captured FIN is forwarded
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
        elif result.accepted and self.caching:
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
