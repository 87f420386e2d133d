"""In-process simulated network with a content-aware reliable transport.

Nodes forward segments hop by hop using DAG-address resolution against
their route tables.  A client "connects" to content: the handshake SYN
doubles as the content request, carrying the requested identifier, and
whichever node holds that content (origin publisher or an on-path
cache) terminates routing and answers.  Bytes then flow over a
Go-Back-N sliding window with cumulative ACKs and retransmission
timers.  Nodes on the forwarding path can subscribe a raw capture tap
that sees every forwarded content segment without altering it, which is
what opportunistic caching feeds on.

The engine is a discrete-event loop over logical milliseconds.  Given a
topology, a workload and a seed, the event trace is fully determined;
equal-timestamp events run in enqueue order.  The blocking client calls
(connect/recv) pump the event loop under a shared engine lock, so they
may be issued from multiple worker threads and are serialized at event
granularity.  The serving side never blocks: each node's server socket
answers a SYN for bound content inside event processing and, once the
handshake completes, hands the session to the handler its owner
installed, which starts the Go-Back-N stream.

Addressing of a session, once established:

* SYN:           src = client session address, dst = content address
* SYNACK:        src = published chunk address, dst = client session
                 address; the payload carries the provider's reply
                 endpoint, node name and observed hop count
* data and FIN:  src = published chunk address (so on-path taps can
                 attribute the bytes), dst = client session address
* ACKs:          src = client session address, dst = provider reply
                 endpoint (host-anchored, so a cache that acquires the
                 content mid-session cannot swallow them)
"""

from __future__ import annotations

import heapq
import logging
import random
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from enum import IntFlag

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
from .urls import parse_dag_url, serialize_dag_url

log = logging.getLogger(__name__)

DEFAULT_SEGMENT_PAYLOAD = 1024
DEFAULT_WINDOW = 8
DEFAULT_RTO_MULTIPLIER = 4
DEFAULT_MAX_RETRIES = 16


class SimError(Exception):
    pass


class TopologyError(SimError):
    """Bad topology configuration text."""


class NoRouteError(SimError):
    """The origin node has no usable edge toward the destination."""


class HandshakeTimeout(SimError):
    """SYN (or SYNACK) retry budget exhausted without an answer."""


class TransferTimeout(SimError):
    """An established session stopped making progress."""


class SimStalledError(SimError):
    """The event queue drained while a blocking call was still waiting."""


class SegFlags(IntFlag):
    NONE = 0
    SYN = 1
    SYNACK = 2
    ACK = 4
    FIN = 8


@dataclass
class Segment:
    """Transport unit.  ``intent`` is present on SYN only (the request).
    ``dst_position`` and ``hops`` are forwarding state that travels with
    the segment."""

    session: bytes
    seq: int
    flags: SegFlags
    src_dag: DagAddress
    dst_dag: DagAddress
    intent: Xid | None = None
    payload: bytes = b""
    dst_position: int | None = SOURCE
    hops: int = 0


@dataclass(frozen=True)
class Link:
    a: str
    b: str
    delay_ms: int
    loss: float


class Simulator:
    """Event engine plus topology: nodes, links, routes, clock and RNG."""

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
        self.trace: list[tuple] = []
        self.stats: Counter = Counter()
        self.session_stats: dict[bytes, Counter] = defaultdict(Counter)

        self._heap: list[tuple[int, int, object]] = []
        self._seq = 0
        self._cond = threading.Condition(threading.RLock())

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
        self.links[(a, b)] = Link(a, b, delay_ms, loss)
        self.links[(b, a)] = Link(b, a, delay_ms, loss)

    def add_route(self, node: str, xid: Xid, next_hop: str) -> None:
        if node not in self.nodes:
            raise TopologyError(f"route on unknown node {node!r}")
        if next_hop not in self.nodes:
            raise TopologyError(f"route toward unknown node {next_hop!r}")
        self.nodes[node].routes.add_route(xid, next_hop)

    def path_delay_bound(self) -> int:
        """Upper bound on the one-way delay of any simple path: the sum
        of all distinct link delays."""
        seen, total = set(), 0
        for (a, b), link in self.links.items():
            key = frozenset((a, b))
            if key not in seen:
                seen.add(key)
                total += link.delay_ms
        return max(1, total)

    @property
    def rto_ms(self) -> int:
        return self.rto_multiplier * self.path_delay_bound()

    # -- event engine ------------------------------------------------

    def schedule(self, delay_ms: int, fn) -> None:
        with self._cond:
            self._seq += 1
            heapq.heappush(self._heap, (self.now + delay_ms, self._seq, fn))
            self._cond.notify_all()

    def submit(self, fn):
        """Run ``fn`` immediately under the engine lock; the entry point
        for application threads that originate traffic."""
        with self._cond:
            result = fn()
            self._cond.notify_all()
            return result

    def _run_next(self) -> bool:
        if not self._heap:
            return False
        when, _, fn = heapq.heappop(self._heap)
        if when > self.now:
            self.now = when
        fn()
        return True

    def wait_for(self, predicate, idle_timeout: float = 5.0) -> None:
        """Pump events until the predicate holds.  Multiple threads may
        wait concurrently; one event runs at a time.  Raises if the
        queue stays empty too long (real time) with the predicate false.
        """
        idle = 0.0
        while True:
            with self._cond:
                if predicate():
                    return
                if self._run_next():
                    self._cond.notify_all()
                    idle = 0.0
                    continue
                self._cond.wait(0.05)
                if predicate():
                    return
            idle += 0.05
            if idle >= idle_timeout:
                raise SimStalledError("event queue idle while a call was waiting")

    def step(self, until_ms: int | None = None) -> list[tuple]:
        """Advance through all events due at or before ``until_ms``
        (all pending events when None); returns the delivery records
        processed by this call."""
        with self._cond:
            mark = len(self.trace)
            while self._heap and (until_ms is None or self._heap[0][0] <= until_ms):
                self._run_next()
            if until_ms is not None and until_ms > self.now:
                self.now = until_ms
            self._cond.notify_all()
            return [rec for rec in self.trace[mark:] if rec[0] == "deliver"]

    def count_retransmit(self, session_id: bytes) -> None:
        self.stats["retransmits"] += 1
        self.session_stats[session_id]["retransmits"] += 1

    def _trace(self, kind: str, node: str, seg: Segment, **extra) -> None:
        intent = seg.intent.text() if seg.intent is not None else None
        self.trace.append(
            (
                kind,
                self.now,
                node,
                extra.get("to"),
                extra.get("reason"),
                seg.session.hex(),
                int(seg.flags),
                seg.seq,
                intent,
                len(seg.payload),
            )
        )


class NetNode:
    """A simulated node: identity XIDs, route table, transport endpoints,
    one content server socket, and capture taps."""

    def __init__(self, sim: Simulator, name: str, understood=None):
        self.sim = sim
        self.name = name
        self.ad = symbolic_xid(XidType.AD, name)
        self.hid = symbolic_xid(XidType.HID, name)
        self.understood = frozenset(understood) if understood else ALL_XID_TYPES
        self.routes = RouteTable()
        self.routes.add_local(self.ad)
        self.routes.add_local(self.hid)
        self.server_socket = ContentServerSocket(self)
        self.sessions: dict[bytes, object] = {}
        self.endpoints: dict[Xid, object] = {}
        self.capture_subs: list = []
        self.counters: Counter = Counter()
        self.daemon = None

    def __repr__(self) -> str:
        return f"NetNode({self.name})"

    def subscribe_capture(self, fn) -> None:
        """Register a tap that receives a copy of every forwarded
        content segment (either address naming a content principal)."""
        self.capture_subs.append(fn)

    def local_dag_for(self, xid: Xid) -> DagAddress:
        """The address this node publishes for content it holds: direct
        intent edge plus a fallback chain through the node identity."""
        return make_fallback_dag(xid, [self.ad, self.hid])

    # -- forwarding --------------------------------------------------

    def on_segment(self, seg: Segment) -> str:
        decision = resolve_next(seg.dst_dag, self.understood, self.routes, seg.dst_position)
        if isinstance(decision, DeliverLocal):
            seg.dst_position = decision.node
            self._deliver(seg)
            return "delivered"
        if isinstance(decision, Forward):
            seg.dst_position = decision.position
            return self._forward(seg, decision.next_hop)
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
        self._feed_capture(seg)
        link = self.sim.links.get((self.name, hop))
        if link is None:
            self.sim._trace("drop", self.name, seg, reason="no-link", to=hop)
            return "dropped"
        seg.hops += 1
        if link.loss > 0.0 and self.sim.rng.random() < link.loss:
            self.sim._trace("drop", self.name, seg, reason="loss", to=hop)
            return "dropped"
        self.sim._trace("xmit", self.name, seg, to=hop)
        target = self.sim.nodes[hop]
        self.sim.schedule(link.delay_ms, lambda: target.on_segment(seg))
        return "forwarded"

    def _feed_capture(self, seg: Segment) -> None:
        if not self.capture_subs:
            return
        if (
            seg.dst_dag.intent_xid().xtype in CONTENT_TYPES
            or seg.src_dag.intent_xid().xtype in CONTENT_TYPES
        ):
            for sub in self.capture_subs:
                sub(replace(seg))

    def _deliver(self, seg: Segment) -> None:
        self.sim._trace("deliver", self.name, seg)
        delivered_xid = seg.dst_dag.nodes[seg.dst_position].xid
        if seg.flags & SegFlags.SYN and delivered_xid.xtype in CONTENT_TYPES:
            self.server_socket.on_syn(seg)
            return
        session = self.endpoints.get(delivered_xid)
        if session is None:
            session = self.sessions.get(seg.session)
        if session is not None:
            session.on_segment(seg)

    # -- application surface -----------------------------------------

    def start_connect(self, dag: DagAddress) -> "ClientSession":
        """Emit the SYN/content-request and return the (not yet
        established) session; completion is driven by the event loop."""
        if dag.intent_xid().xtype not in CONTENT_TYPES:
            raise SimError("can only connect to content intents")

        def _start():
            session = ClientSession(self, dag)
            session.start()
            return session

        return self.sim.submit(_start)

    def connect_to_content(self, dag: DagAddress, idle_timeout: float = 5.0) -> "ClientSession":
        """Open a session with whatever node can serve ``dag``'s intent.
        The SYN is the content request; returns an established session.
        """
        session = self.start_connect(dag)
        session.wait_established(idle_timeout)
        return session


class ContentServerSocket:
    """A server socket bound to every content identifier published on
    its node.  A SYN for bound content is answered inside event
    processing, and once the handshake completes ``handler(session,
    xid)`` is called to stream the requested content; whoever binds
    content installs the handler."""

    def __init__(self, node: NetNode):
        self.node = node
        self.handler = None
        self.bound: dict[Xid, DagAddress] = {}

    def bind(self, xid: Xid, serve_dag: DagAddress | None = None) -> None:
        self.bound[xid] = serve_dag if serve_dag is not None else self.node.local_dag_for(xid)
        self.node.routes.add_local(xid)

    def unbind(self, xid: Xid) -> None:
        self.bound.pop(xid, None)
        self.node.routes.remove_local(xid)

    def on_syn(self, seg: Segment) -> None:
        existing = self.node.sessions.get(seg.session)
        if existing is not None:
            if isinstance(existing, ServerSession):
                existing.on_duplicate_syn()
            return
        xid = seg.intent
        if xid is None or xid not in self.bound:
            self.node.sim._trace("drop", self.node.name, seg, reason="unbound")
            return
        ServerSession(self.node, seg, self.bound[xid]).send_synack()


class _Session:
    """What both ends of a content session share: the session id, a
    node-local endpoint SID that this end's peer addresses, and one
    retransmission timer with its retry budget.  Arming the timer again,
    or making progress, retires the previous arming."""

    def __init__(self, node: NetNode, session_id: bytes):
        self.node = node
        self.sim = node.sim
        self.session_id = session_id
        self.endpoint_sid = Xid(XidType.SID, self.sim.rng.randbytes(20))
        self.endpoint_dag = make_fallback_dag(self.endpoint_sid, [node.ad, node.hid])
        self.rto = self.sim.rto_ms
        self.state = "new"
        self.fail_reason: str | None = None
        self._epoch = 0
        self._retries = 0
        node.endpoints[self.endpoint_sid] = self
        node.sessions[session_id] = self
        node.routes.add_local(self.endpoint_sid)

    def _arm(self, delay_ms: int, fn) -> None:
        self._epoch += 1
        epoch = self._epoch

        def fire() -> None:
            if epoch == self._epoch:
                fn()

        self.sim.schedule(delay_ms, fire)

    def _retry(self, reason: str) -> bool:
        """Spend one retry; once the budget is gone, fail with ``reason``."""
        self._retries += 1
        if self._retries > self.sim.max_retries:
            self.state = "failed"
            self.fail_reason = reason
            return False
        return True

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

        self.provider_name: str | None = None
        self.provider_endpoint: DagAddress | None = None
        self.provider_dag: DagAddress | None = None
        self.syn_hops: int | None = None

        self.rx_payloads: list[bytes] = []
        self.rx_expected = 0
        self.rx_segments = 0

    def start(self) -> None:
        self.state = "syn-sent"
        self._send_syn(first=True)
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
            self.sim.count_retransmit(self.session_id)
            self._send_syn()
            self._arm(self.rto, self._syn_timeout)

    def _idle_timeout(self) -> None:
        self.state = "failed"
        self.fail_reason = "transfer-timeout"

    def _arm_idle(self) -> None:
        # Liveness guard for an in-flight transfer.  Armed on data
        # arrival (not at establishment, so a provider applying
        # real-world think time between accept and send is not raced by
        # logical-time fast-forward) and re-armed on every in-order
        # segment; generous enough to cover the sender's whole
        # retransmission budget.
        self._arm(self.rto * (self.sim.max_retries + 2), self._idle_timeout)

    def on_segment(self, seg: Segment) -> None:
        if seg.flags & SegFlags.SYNACK:
            if self.state == "syn-sent":
                try:
                    endpoint_url, provider, hops = seg.payload.decode("utf-8").split("\n")
                    self.provider_endpoint = parse_dag_url(endpoint_url)
                    self.provider_name = provider
                    self.syn_hops = int(hops)
                except (ValueError, UnicodeDecodeError) as exc:
                    log.warning("%s: malformed SYNACK meta: %s", self.node.name, exc)
                    return
                self.provider_dag = seg.src_dag
                self.state = "established"
                self._progress()
            self._send_ack()
            return
        if seg.flags & SegFlags.ACK:
            return
        if self.state not in ("established", "complete"):
            return
        if seg.seq == self.rx_expected and self.state == "established":
            if seg.flags & SegFlags.FIN:
                self.state = "complete"
                self._progress()
            else:
                self.rx_payloads.append(seg.payload)
                self.rx_segments += 1
                self._arm_idle()
            self.rx_expected += 1
        self._send_ack()

    def _send_ack(self) -> None:
        if self.provider_endpoint is None:
            return
        seg = Segment(
            session=self.session_id,
            seq=self.rx_expected,
            flags=SegFlags.ACK,
            src_dag=self.endpoint_dag,
            dst_dag=self.provider_endpoint,
        )
        self.node.on_segment(seg)

    def wait_established(self, idle_timeout: float = 5.0) -> None:
        self.sim.wait_for(
            lambda: self.state in ("established", "complete", "failed"),
            idle_timeout=idle_timeout,
        )
        if self.state == "failed":
            raise HandshakeTimeout(self.fail_reason or "connect failed")

    def recv_chunk(self, idle_timeout: float = 5.0) -> bytes:
        """Block until the sender's FIN lands; returns the exact byte
        sequence that was sent."""
        self.sim.wait_for(
            lambda: self.state in ("complete", "failed"), idle_timeout=idle_timeout
        )
        if self.state == "failed":
            raise TransferTimeout(self.fail_reason or "transfer failed")
        return b"".join(self.rx_payloads)


class ServerSession(_Session):
    """Provider side: answers the handshake with the published chunk's
    address as source, then streams the handler's bytes under a
    fixed-window Go-Back-N: cumulative ACKs advance the base, a timeout
    resends the whole outstanding window, and the FIN consumes the final
    sequence number."""

    def __init__(self, node: NetNode, syn: Segment, serve_dag: DagAddress):
        super().__init__(node, syn.session)
        self.client_dag = syn.src_dag
        self.requested = syn.intent
        self.serve_dag = serve_dag
        self.syn_hops = syn.hops
        self.state = "syn-rcvd"

        self._payloads: list[bytes] | None = None
        self._total = 0  # data segments plus the trailing FIN
        self._base = 0
        self._next_seq = 0

    def send_synack(self) -> None:
        self._emit_synack()
        self._arm(self.rto, self._synack_timeout)

    def _emit_synack(self) -> None:
        meta = "\n".join(
            [serialize_dag_url(self.endpoint_dag), self.node.name, str(self.syn_hops)]
        ).encode("utf-8")
        seg = Segment(
            session=self.session_id,
            seq=0,
            flags=SegFlags.SYNACK,
            src_dag=self.serve_dag,
            dst_dag=self.client_dag,
            payload=meta,
        )
        self.node.on_segment(seg)

    def _synack_timeout(self) -> None:
        if self._retry("handshake-timeout"):
            self.sim.count_retransmit(self.session_id)
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
            self.node.server_socket.handler(self, self.requested)
        if self._payloads is not None:
            self._on_ack(seg.seq)

    def start_send(self, data: bytes) -> None:
        """Begin streaming ``data``; asynchronous, driven by ACKs and
        retransmission timers."""
        if self.state != "established":
            raise SimError("session not established")
        if self._payloads is not None:
            raise SimError("send already in progress")
        size = self.sim.segment_payload
        self._payloads = [data[i : i + size] for i in range(0, len(data), size)]
        self._total = len(self._payloads) + 1
        self._pump()
        self._arm(self.rto, self._send_timeout)

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
            self.sim.count_retransmit(self.session_id)
        self.sim.stats["data_segments_sent"] += 1
        self.node.on_segment(seg)

    def _on_ack(self, acked: int) -> None:
        if self.state != "established" or acked <= self._base:
            return
        self._base = acked
        self._progress()
        if self._base >= self._total:
            self.state = "done"
            return
        self._pump()
        self._arm(self.rto, self._send_timeout)

    def _send_timeout(self) -> None:
        if self._retry("retry-limit"):
            for seq in range(self._base, self._next_seq):
                self._emit(seq, retransmit=True)
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
