"""In-process simulated network with a content-aware reliable transport.

Nodes forward segments hop by hop using DAG-address resolution against
their route tables.  A client "connects" to content: the handshake SYN
doubles as the content request, carrying the requested identifier, and
whichever node holds that content (origin publisher or an on-path
cache) terminates routing and answers.  Bytes then flow over a
Go-Back-N sliding window with cumulative ACKs: a lost segment's window
is resent on the third duplicate ACK or when the retransmission timer
fires, whichever comes first.  A node's owner can install a raw capture
tap that sees every content segment the node forwards, which is what
opportunistic caching feeds on.  The tap receives the live segment, not
a copy, and must treat it as read-only: the forwarding path goes on to
mutate its ``hops`` and ``dst_position``.

The engine is a discrete-event loop over logical milliseconds;
equal-timestamp events run in enqueue order.  A queue entry is
``(due time, enqueue number, fn, args)`` and runs as ``fn(*args)``, so
no closure is built per event: a forwarded segment is queued with the
node it lands on, a session timer with its arming epoch and handler.
``step`` and ``wait_for`` run entries through one routine.  Recording
the trace is opt-in (assign a list to ``Simulator.trace``).  Each point
that records (a transmission, a drop, a delivery) first tests
``trace is not None`` and only then builds its record, so an untraced
run builds none and makes no call for it.

Events run only while a caller pumps the loop (``step``, ``wait_for``).
``start_connect`` draws a session's ids and sends its SYN on the
caller's thread, and its ``on_end`` callback runs inside the event that
ends the session.  So when one thread starts sessions and pumps, the
event trace is fully determined by the topology, the workload and the
seed, however many sessions are in flight.  Every call that touches the
engine holds its one reentrant lock (``Simulator.lock``) throughout, so
several threads may make them; the trace is then determined only while
one fetch is in flight at a time.  A waiter pumps until its predicate
holds, and a queue that drains first is a stall: every session holds a
timer until it ends, so nothing but an event can end a wait.

The serving side never blocks.  What a node serves is its route table's
local content set: when a SYN for a local content route is delivered,
the node asks its owner's ``serve`` callable for the bytes inside event
processing and answers with a session that streams them once the
handshake completes.  If the owner no longer holds the content, the node
withdraws the stale route and forwards the SYN on from the DAG position
it arrived with, so a fallback edge can still reach a node that holds
it.

Each end of a session registers itself on its node when it is created:
under its session id, under its endpoint SID, and with that SID as a
local route.  Once the end has completed or failed, its last armed
timer releases all three when it fires, so the release adds no event.
For a completed client that is its idle timer, which outlasts every
retransmission the sender can still make, so a late duplicate FIN is
still acknowledged (TCP's TIME-WAIT); a transfer without data re-arms
it on the FIN.  For a finished sender it is its last retransmission
timer.  An end that fails, or has no timer left, is released at once.

Addressing of a session, once established:

* SYN:           src = client session address, dst = content address
* SYNACK:        src = published chunk address, dst = client session
                 address; its ``reply`` field carries a ``SynAck`` value
                 (the provider's reply endpoint, node name and the hop
                 count of the SYN) and its payload is empty
* data and FIN:  src = published chunk address (so on-path taps can
                 attribute the bytes), dst = client session address
* ACKs:          src = client session address, dst = provider reply
                 endpoint (host-anchored, so a cache that acquires the
                 content mid-session cannot swallow them)
"""

from __future__ import annotations

import heapq
import itertools
import random
import threading
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

from .addressing import (
    ALL_XID_TYPES,
    CONTENT_TYPES,
    SOURCE,
    AddressError,
    DagAddress,
    DeliverLocal,
    Forward,
    RouteTable,
    Xid,
    XidType,
    make_fallback_dag,
    parse_xid,
    resolve_next,
    symbolic_xid,
)

DEFAULT_SEGMENT_PAYLOAD = 1024
DEFAULT_WINDOW = 8
DEFAULT_RTO_MULTIPLIER = 4
DEFAULT_MAX_RETRIES = 16
# Duplicate ACKs that make a sender resend its window before its timer
# fires (fast retransmit, RFC 5681 section 3.2).
DUPACK_THRESHOLD = 3


class SimError(Exception):
    pass


class TopologyError(SimError):
    """Bad topology configuration text."""


class NoRouteError(SimError):
    """The origin node has no usable edge toward the destination."""


class SimStalledError(SimError):
    """The event queue drained while ``wait_for`` was still waiting."""


class SegFlags:
    """Segment flag bits.  Plain ints, not an ``IntFlag``, so the flag
    tests on the per-segment path run in C."""

    NONE = 0
    SYN = 1
    SYNACK = 2
    ACK = 4
    FIN = 8


@dataclass(frozen=True, slots=True)
class SynAck:
    """What a SYNACK tells its client: the provider's reply endpoint,
    which the client's ACKs address, the provider's node name, and the
    number of hops its SYN took."""

    endpoint_dag: DagAddress
    node: str
    hops: int


@dataclass
class Segment:
    """Transport unit.  ``intent`` is present on SYN only (the request),
    ``reply`` on SYNACK only.  ``dst_position`` and ``hops`` are
    forwarding state that travels with the segment."""

    session: bytes
    seq: int
    flags: int  # SegFlags bits
    src_dag: DagAddress
    dst_dag: DagAddress
    intent: Xid | None = None
    payload: bytes = b""
    reply: SynAck | None = None
    dst_position: int | None = SOURCE
    hops: int = 0


@dataclass(frozen=True)
class Link:
    a: str
    b: str
    delay_ms: int
    loss: float


class Simulator:
    """Event engine plus topology: nodes, links, routes, clock and RNG.

    ``trace`` is None, and nothing is recorded, unless a caller assigns
    it a list; it then collects one record per xmit, drop and delivery.
    """

    def __init__(
        self,
        seed: int = 0,
        segment_payload: int = DEFAULT_SEGMENT_PAYLOAD,
        window: int = DEFAULT_WINDOW,
        rto_multiplier: int = DEFAULT_RTO_MULTIPLIER,
        max_retries: int = DEFAULT_MAX_RETRIES,
    ):
        self.seed = seed
        self.rng = random.Random(seed)
        self.segment_payload = segment_payload
        self.window = window
        self.rto_multiplier = rto_multiplier
        self.max_retries = max_retries

        self.now = 0
        self.nodes: dict[str, NetNode] = {}
        self.links: dict[tuple[str, str], Link] = {}
        self.node_opts: dict[str, dict] = {}
        self.trace: list[tuple] | None = None
        self.stats: Counter = Counter()

        self._delay_sum = 0
        self._heap: list[tuple[int, int, Callable[..., object], tuple]] = []
        self._seq = itertools.count()
        self.lock = threading.RLock()  # the engine lock

    # -- topology ----------------------------------------------------

    def add_node(self, name: str, understood=None, **opts) -> "NetNode":
        if name in self.nodes:
            raise TopologyError(f"duplicate node {name!r}")
        node = NetNode(self, name, understood=understood)
        self.nodes[name] = node
        self.node_opts[name] = dict(opts)
        return node

    def add_link(self, a: str, b: str, delay_ms: int = 1, loss: float = 0.0) -> None:
        for name in (a, b):
            if name not in self.nodes:
                raise TopologyError(f"link references unknown node {name!r}")
        if not 0.0 <= loss <= 1.0:
            raise TopologyError(f"loss probability {loss} out of [0,1]")
        old = self.links.get((a, b))
        self.links[(a, b)] = Link(a, b, delay_ms, loss)
        self.links[(b, a)] = Link(b, a, delay_ms, loss)
        self._delay_sum += delay_ms - (old.delay_ms if old is not None else 0)

    def add_route(self, node: str, xid: Xid, next_hop: str) -> None:
        if node not in self.nodes:
            raise TopologyError(f"route on unknown node {node!r}")
        if next_hop not in self.nodes:
            raise TopologyError(f"route toward unknown node {next_hop!r}")
        self.nodes[node].routes.add_route(xid, next_hop)

    def path_delay_bound(self) -> int:
        """Upper bound on the one-way delay of any simple path: the sum
        of all distinct link delays.  Links change only through
        ``add_link``, which keeps the sum up to date."""
        return max(1, self._delay_sum)

    @property
    def rto_ms(self) -> int:
        return self.rto_multiplier * self.path_delay_bound()

    @property
    def idle_timeout_ms(self) -> int:
        """How long a receiver waits for its next in-order segment: long
        enough to cover the sender's whole retransmission budget."""
        return self.rto_ms * (self.max_retries + 2)

    # -- event engine ------------------------------------------------

    def now_ms(self) -> int:
        """Simulated time, so a simulator can serve as a store's clock."""
        return self.now

    def schedule(self, delay_ms: int, fn: Callable[..., object], *args) -> None:
        """Run ``fn(*args)`` once ``delay_ms`` of simulated time have
        passed."""
        with self.lock:
            heapq.heappush(self._heap, (self.now + delay_ms, next(self._seq), fn, args))

    def _run_events(self, predicate=None, until_ms: int | None = None) -> None:
        """Run events one at a time in (time, enqueue order) until
        ``predicate()`` holds, the next one is due after ``until_ms``, or
        the queue drains.  The caller holds the lock."""
        heap, pop = self._heap, heapq.heappop
        while heap:
            if until_ms is not None and heap[0][0] > until_ms:
                break
            if predicate is not None and predicate():
                break
            when, _, fn, args = pop(heap)
            if when > self.now:
                self.now = when
            fn(*args)

    def wait_for(self, predicate) -> None:
        """Run events under the engine lock until the predicate holds.
        A queue that drains while it is still false is a stall: raises
        ``SimStalledError`` at once, with the clock at the last event."""
        with self.lock:
            self._run_events(predicate)
            if not predicate():
                raise SimStalledError("event queue drained while a call was waiting")

    def step(self, until_ms: int | None = None) -> None:
        """Advance through all events due at or before ``until_ms``
        (all pending events when None)."""
        with self.lock:
            self._run_events(until_ms=until_ms)
            if until_ms is not None and until_ms > self.now:
                self.now = until_ms

    def _trace(
        self, kind: str, node: str, seg: Segment, to: str | None = None, reason: str | None = None
    ) -> None:
        """Append one record; callers test ``trace is not None`` first, so
        an untraced run builds no record and makes no call."""
        intent = seg.intent.text() if seg.intent is not None else None
        self.trace.append(
            (
                kind,
                self.now,
                node,
                to,
                reason,
                seg.session.hex(),
                seg.flags,
                seg.seq,
                intent,
                len(seg.payload),
            )
        )


def _serve_nothing(xid: Xid) -> None:
    return None


def _arrive(node: NetNode, seg: Segment) -> None:
    # ``on_segment`` is looked up when the segment lands, not when it is
    # sent, so a wrapper installed on the method in between sees it.
    node.on_segment(seg)


class NetNode:
    """A simulated node: identity XIDs, route table, transport endpoints,
    and two slots its owner fills.  ``serve(xid)`` returns the bytes of
    content the node holds, or None once it no longer does; it is asked
    when a SYN for a local content route is delivered.  ``capture(seg)``,
    when set, receives every forwarded content segment (either address
    naming a content principal); it gets the live segment, not a copy,
    and must treat it as read-only, since forwarding updates its ``hops``
    and ``dst_position`` after the tap returns."""

    def __init__(self, sim: Simulator, name: str, understood=None):
        self.sim = sim
        self.name = name
        self.ad = symbolic_xid(XidType.AD, name)
        self.hid = symbolic_xid(XidType.HID, name)
        self.understood = frozenset(understood) if understood else ALL_XID_TYPES
        self.routes = RouteTable()
        self.routes.add_local(self.ad)
        self.routes.add_local(self.hid)
        self.serve = _serve_nothing
        self.capture = None
        self.sessions: dict[bytes, object] = {}
        self.endpoints: dict[Xid, object] = {}
        self.counters: Counter = Counter()

    def __repr__(self) -> str:
        return f"NetNode({self.name})"

    def local_dag_for(self, xid: Xid) -> DagAddress:
        """The address this node publishes for content it holds: direct
        intent edge plus a fallback chain through the node identity."""
        return make_fallback_dag(xid, [self.ad, self.hid])

    # -- forwarding --------------------------------------------------

    def on_segment(self, seg: Segment) -> str:
        arrived_at = seg.dst_position
        decision = resolve_next(seg.dst_dag, self.understood, self.routes, arrived_at)
        if isinstance(decision, Forward):
            seg.dst_position = decision.position
            return self._forward(seg, decision.next_hop)
        if isinstance(decision, DeliverLocal):
            seg.dst_position = decision.node
            if seg.hops == 0:
                # Sent to itself (a node fetching content it serves):
                # deliver from the event loop, so that an ACK does not
                # re-enter the sender's window pump.
                self.sim.schedule(0, self._deliver, seg, arrived_at)
            else:
                self._deliver(seg, arrived_at)
            return "delivered"
        if self.sim.trace is not None:
            self.sim._trace("drop", self.name, seg, reason="unroutable")
        return "unroutable"

    def originate(self, seg: Segment) -> str:
        """First hop for locally created segments; raises if this node
        has no usable edge at all."""
        disposition = self.on_segment(seg)
        if disposition == "unroutable":
            raise NoRouteError(
                f"{self.name}: no route toward {seg.dst_dag.intent_xid().text(short=True)}"
            )
        return disposition

    def _forward(self, seg: Segment, hop: str) -> str:
        sim = self.sim
        if self.capture is not None and (seg.dst_dag.names_content or seg.src_dag.names_content):
            self.capture(seg)
        link = sim.links.get((self.name, hop))
        if link is None:
            if sim.trace is not None:
                sim._trace("drop", self.name, seg, to=hop, reason="no-link")
            return "dropped"
        seg.hops += 1
        if link.loss > 0.0 and sim.rng.random() < link.loss:
            if sim.trace is not None:
                sim._trace("drop", self.name, seg, to=hop, reason="loss")
            return "dropped"
        if sim.trace is not None:
            sim._trace("xmit", self.name, seg, to=hop)
        sim.schedule(link.delay_ms, _arrive, sim.nodes[hop], seg)
        return "forwarded"

    def _deliver(self, seg: Segment, arrived_at: int | None) -> None:
        if self.sim.trace is not None:
            self.sim._trace("deliver", self.name, seg)
        delivered_xid = seg.dst_dag.nodes[seg.dst_position].xid
        if seg.flags & SegFlags.SYN and delivered_xid.xtype in CONTENT_TYPES:
            self._on_content_syn(seg, delivered_xid, arrived_at)
            return
        session = self.endpoints.get(delivered_xid)
        if session is not None:
            session.on_segment(seg)

    def _on_content_syn(self, seg: Segment, xid: Xid, arrived_at: int | None) -> None:
        # A client session under the same id is this node fetching from
        # itself, not a duplicate SYN.
        existing = self.sessions.get(seg.session)
        if isinstance(existing, ServerSession):
            existing.on_duplicate_syn()
            return
        data = self.serve(xid)
        if data is None:
            # The route outlived the content: withdraw it and let the SYN
            # go on from where it arrived, never back toward the source.
            self.routes.remove_local(xid)
            seg.dst_position = arrived_at
            self.on_segment(seg)
            return
        ServerSession(self, seg, data).send_synack()

    # -- application surface -----------------------------------------

    def start_connect(self, dag: DagAddress, on_end=None) -> "ClientSession":
        """Emit the SYN/content-request under the engine lock and return
        the (not yet established) session; the event loop drives the
        rest.  ``on_end(session)``, if given, is how the session reports:
        it runs inside the event that ends it, with ``state`` either
        ``"complete"`` (the bytes are ``rx_payloads`` and the SYNACK's
        ``reply`` says who sent them) or ``"failed"`` (``fail_reason``
        says why).  A start that raises ``NoRouteError`` never calls it."""
        if dag.intent_xid().xtype not in CONTENT_TYPES:
            raise SimError("can only connect to content intents")
        with self.sim.lock:
            session = ClientSession(self, dag)
            session.start()
            session.on_end = on_end  # set once started: a start that raises never reports
        return session


_ENDED = frozenset(("complete", "done", "failed"))


class _Session:
    """What both ends of a content session share: the session id, a
    node-local endpoint SID that this end's peer addresses, one
    retransmission timer with its retry budget, and a count of this
    end's retransmissions.  Arming the timer again, or making progress,
    retires the previous arming.  A session registers itself on its node
    here and releases itself once it has ended and its last armed timer
    has fired.  ``on_end(session)``, once set, runs when this end has
    completed or failed."""

    def __init__(self, node: NetNode, session_id: bytes):
        self.node = node
        self.sim = node.sim
        self.session_id = session_id
        self.endpoint_sid = Xid(XidType.SID, self.sim.rng.randbytes(20))
        self.endpoint_dag = make_fallback_dag(self.endpoint_sid, [node.ad, node.hid])
        self.rto = self.sim.rto_ms
        self.state = "new"
        self.fail_reason: str | None = None
        self.retransmits = 0
        self._epoch = 0
        self._armed: int | None = None  # the epoch of the last armed timer, until it fires
        self._retries = 0
        self.on_end = None
        node.endpoints[self.endpoint_sid] = self
        node.sessions[session_id] = self
        node.routes.add_local(self.endpoint_sid)

    def _arm(self, delay_ms: int, fn) -> None:
        self._epoch += 1
        self._armed = self._epoch
        self.sim.schedule(delay_ms, self._fire, self._epoch, fn)

    def _fire(self, epoch: int, fn) -> None:
        # Every later arming fires no earlier, so the last armed timer is
        # the last event this session has on the queue.
        if epoch == self._armed:
            self._armed = None
        if epoch == self._epoch:
            fn()
        elif self._armed is None and self.state in _ENDED:
            self._release()

    def _end(self, state: str, reason: str | None = None) -> None:
        """Enter a terminal state.  The release waits for the last armed
        timer, or happens now if none is left."""
        self.state = state
        self.fail_reason = reason
        if self._armed is None:
            self._release()
        if self.on_end is not None:
            self.on_end(self)

    def _release(self) -> None:
        node = self.node
        node.endpoints.pop(self.endpoint_sid, None)
        node.routes.remove_local(self.endpoint_sid)
        # a self-fetch's two ends share the node and the session id
        if node.sessions.get(self.session_id) is self:
            del node.sessions[self.session_id]

    def _retry(self, reason: str) -> bool:
        """Spend one retry; once the budget is gone, fail with ``reason``."""
        self._retries += 1
        if self._retries > self.sim.max_retries:
            self._end("failed", reason)
            return False
        return True

    def _count_retransmit(self) -> None:
        self.retransmits += 1
        self.sim.stats["retransmits"] += 1

    def _progress(self) -> None:
        """Retire the pending timer and refill the retry budget."""
        self._epoch += 1
        self._retries = 0


class ClientSession(_Session):
    """Client side of a content session: handshake, in-order reassembly
    with cumulative ACKs, and completion on FIN."""

    def __init__(self, node: NetNode, content_dag: DagAddress):
        super().__init__(node, node.sim.rng.randbytes(8))
        self.content_dag = content_dag
        self._idle_ms = self.sim.idle_timeout_ms

        self.reply: SynAck | None = None  # set by the SYNACK

        self.rx_payloads: list[bytes] = []
        self.rx_expected = 0
        self.rx_segments = 0
        self.session_retransmits = 0  # both ends' retransmissions, set on completion

    def start(self) -> None:
        self.state = "syn-sent"
        try:
            self._send_syn(first=True)
        except NoRouteError:
            self._end("failed", "no-route")
            raise
        self._arm(self.rto, self._syn_timeout)

    def _send_syn(self, first: bool = False) -> None:
        seg = Segment(
            session=self.session_id,
            seq=0,
            flags=SegFlags.SYN,
            src_dag=self.endpoint_dag,
            dst_dag=self.content_dag,
            intent=self.content_dag.intent_xid(),
        )
        if first:
            self.node.originate(seg)
        else:
            self.node.on_segment(seg)

    def _syn_timeout(self) -> None:
        if self._retry("handshake-timeout"):
            self._count_retransmit()
            self._send_syn()
            self._arm(self.rto, self._syn_timeout)

    def _idle_timeout(self) -> None:
        self._end("failed", "transfer-timeout")

    def _arm_idle(self) -> None:
        # Liveness guard for an established transfer: armed when the
        # SYNACK establishes the session and re-armed on every in-order
        # segment.
        self._arm(self._idle_ms, self._idle_timeout)

    def on_segment(self, seg: Segment) -> None:
        if seg.flags & SegFlags.SYNACK:
            if self.state == "syn-sent":
                self.reply = seg.reply
                self.state = "established"
                self._progress()
                self._arm_idle()
            self._send_ack()
            return
        if seg.flags & SegFlags.ACK:
            return
        if self.state not in ("established", "complete"):
            return
        if seg.seq == self.rx_expected and self.state == "established":
            self.rx_expected += 1
            if seg.flags & SegFlags.FIN:
                if not self.rx_segments:
                    self._arm_idle()  # the linger; with no data the last arming was the SYNACK's
                self._progress()
                # the server end keeps its endpoint until after this one completes
                reply = self.reply
                server = self.sim.nodes[reply.node].endpoints.get(reply.endpoint_dag.intent_xid())
                self.session_retransmits = self.retransmits + (
                    server.retransmits if server is not None else 0
                )
                self._send_ack()  # before on_end, which may start a session
                self._end("complete")
                return
            self.rx_payloads.append(seg.payload)
            self.rx_segments += 1
            self._arm_idle()
        self._send_ack()

    def _send_ack(self) -> None:
        seg = Segment(
            session=self.session_id,
            seq=self.rx_expected,
            flags=SegFlags.ACK,
            src_dag=self.endpoint_dag,
            dst_dag=self.reply.endpoint_dag,
        )
        self.node.on_segment(seg)


class ServerSession(_Session):
    """Provider side: answers the handshake with the published chunk's
    address as source, then streams the bytes it was created with under a
    fixed-window Go-Back-N: cumulative ACKs advance the base, and the
    whole outstanding window is resent on the third duplicate ACK for the
    base (once per base) or on a timeout, whichever comes first.  The FIN
    consumes the final sequence number."""

    def __init__(self, node: NetNode, syn: Segment, data: bytes):
        super().__init__(node, syn.session)
        self.client_dag = syn.src_dag
        self.serve_dag = node.local_dag_for(syn.dst_dag.intent_xid())
        self.reply = SynAck(self.endpoint_dag, node.name, syn.hops)
        self.state = "syn-rcvd"

        size = self.sim.segment_payload
        self._payloads = [data[i : i + size] for i in range(0, len(data), size)]
        self._total = len(self._payloads) + 1  # data segments plus the trailing FIN
        self._base = 0
        self._next_seq = 0
        self._dupacks = 0  # duplicate ACKs for the current base

    def send_synack(self) -> None:
        self._emit_synack()
        self._arm(self.rto, self._synack_timeout)

    def _emit_synack(self) -> None:
        seg = Segment(
            session=self.session_id,
            seq=0,
            flags=SegFlags.SYNACK,
            src_dag=self.serve_dag,
            dst_dag=self.client_dag,
            reply=self.reply,
        )
        self.node.on_segment(seg)

    def _synack_timeout(self) -> None:
        if self._retry("handshake-timeout"):
            self._count_retransmit()
            self._emit_synack()
            self._arm(self.rto, self._synack_timeout)

    def on_duplicate_syn(self) -> None:
        if self.state in ("syn-rcvd", "established"):
            self._emit_synack()

    def on_segment(self, seg: Segment) -> None:
        if not seg.flags & SegFlags.ACK:
            return
        if self.state == "syn-rcvd":
            self.state = "established"
            self._progress()
            self.node.counters["sessions_served"] += 1
            self._pump()
            self._arm(self.rto, self._send_timeout)
        else:
            self._on_ack(seg.seq)

    def _pump(self) -> None:
        end = min(self._base + self.sim.window, self._total)
        while self._next_seq < end:
            self._emit(self._next_seq)
            self._next_seq += 1

    def _emit(self, seq: int, retransmit: bool = False) -> None:
        if seq < len(self._payloads):
            flags, payload = SegFlags.NONE, self._payloads[seq]
        else:
            flags, payload = SegFlags.FIN, b""
        seg = Segment(
            session=self.session_id,
            seq=seq,
            flags=flags,
            src_dag=self.serve_dag,
            dst_dag=self.client_dag,
            payload=payload,
        )
        if retransmit:
            self._count_retransmit()
        self.sim.stats["data_segments_sent"] += 1
        self.node.on_segment(seg)

    def _on_ack(self, acked: int) -> None:
        if self.state != "established" or acked < self._base:
            return
        if acked == self._base:
            # A duplicate: an established sender always has data out.  At
            # most one fast resend per base, and it spends no retry, since
            # the duplicates show that the receiver is alive.
            self._dupacks += 1
            if self._dupacks == DUPACK_THRESHOLD:
                self._resend_window()
                self._arm(self.rto, self._send_timeout)
            return
        self._base = acked
        self._dupacks = 0
        self._progress()
        if self._base >= self._total:
            self._end("done")
            return
        self._pump()
        self._arm(self.rto, self._send_timeout)

    def _resend_window(self) -> None:
        for seq in range(self._base, self._next_seq):
            self._emit(seq, retransmit=True)

    def _send_timeout(self) -> None:
        if self._retry("retry-limit"):
            self._resend_window()
            self._arm(self.rto, self._send_timeout)


# -- topology configuration ------------------------------------------


def parse_topology(text: str):
    """Parse the line-oriented topology form into directives.

    Lines: ``node <name> [cache=<chunks>]``,
    ``link <a> <b> delay=<ms> loss=<prob>``,
    ``route <node> <xid> <next>``, ``seed <u64>``.
    Comments start with '#'.
    """
    directives = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]

        def fail(msg: str):
            raise TopologyError(f"line {lineno}: {msg}")

        def kv(tokens_left, allowed):
            out = {}
            for tok in tokens_left:
                if "=" not in tok:
                    fail(f"expected key=value, got {tok!r}")
                key, _, value = tok.partition("=")
                if key not in allowed:
                    fail(f"unknown option {key!r}")
                out[key] = value
            return out

        if kind == "node":
            if not args:
                fail("node needs a name")
            opts = kv(args[1:], {"cache"})
            directives.append(("node", lineno, args[0], opts))
        elif kind == "link":
            if len(args) < 2:
                fail("link needs two node names")
            opts = kv(args[2:], {"delay", "loss"})
            directives.append(("link", lineno, args[0], args[1], opts))
        elif kind == "route":
            if len(args) != 3:
                fail("route needs <node> <xid> <next>")
            directives.append(("route", lineno, args[0], args[1], args[2]))
        elif kind == "seed":
            if len(args) != 1 or not args[0].isdigit():
                fail("seed needs one unsigned integer")
            directives.append(("seed", lineno, int(args[0])))
        else:
            fail(f"unknown directive {kind!r}")
    return directives


def build_simulator(text: str, seed: int | None = None, **transport) -> Simulator:
    """Construct a Simulator from topology text.  An explicit ``seed``
    argument overrides any seed line."""
    directives = parse_topology(text)
    if seed is None:
        for d in directives:
            if d[0] == "seed":
                seed = d[2]
        seed = seed if seed is not None else 0
    sim = Simulator(seed=seed, **transport)
    for d in directives:
        kind = d[0]
        try:
            if kind == "node":
                _, lineno, name, opts = d
                parsed = {}
                if "cache" in opts:
                    parsed["cache"] = int(opts["cache"])
                sim.add_node(name, **parsed)
            elif kind == "link":
                _, lineno, a, b, opts = d
                sim.add_link(
                    a,
                    b,
                    delay_ms=int(opts.get("delay", 1)),
                    loss=float(opts.get("loss", 0.0)),
                )
            elif kind == "route":
                _, lineno, node, xid_text, nxt = d
                sim.add_route(node, parse_xid(xid_text, allow_short=True), nxt)
        except TopologyError as exc:
            raise TopologyError(f"line {d[1]}: {exc}") from exc
        except (ValueError, AddressError) as exc:
            raise TopologyError(f"line {d[1]}: {exc}") from exc
    return sim
