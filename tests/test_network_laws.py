"""Network laws: the whole stack over LINE3_TOPO as a state machine.

Rules publish, fetch, forge, flip caching, drop packets, remove routes,
destroy content, advance time and restart daemons, in any order; the
invariants of ``NetworkLawsMachine`` must hold after every step.  The
test keeps a model of what was published and checks the stack against
it (model-based state-machine testing: Hughes, "Experiences with
QuickCheck: Testing the Hard Stuff and Staying Sane", 2016).

``pub`` has a memory tier and a disk tier in a temporary directory, so a
restart reloads what was spilled and loses what was in memory.  The
router is the attacker: once it has forged a chunk it is not honest, and
the bytes it returns to its own callers are not checked against the
model.  Replaying a run and a long soak are left out, to keep the
machine to a few seconds.
"""

import math
import random
import shutil
import tempfile
from dataclasses import replace
from typing import NamedTuple

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from conftest import LINE3_TOPO, flip_disk_entry
from xcache.addressing import CONTENT_TYPES, Xid, XidType
from xcache.chunking import Chunk, PublisherKey, build_ncid_chunk
from xcache.daemon import DaemonConfig, FetchError, PendingFetch, Xcached
from xcache.netsim import build_simulator
from xcache.urls import NcidUrl, serialize_dag_url, serialize_ncid_url

LONG_TTL = 600_000
SHORT_TTL = 500  # expires within one advance
PLAIN = [bytes([i]) * size for i, size in enumerate((1, 300, 1000, 2500))]
NAMES = ["law/a", "law/b"]
VERSIONS = [b"first version", b"second version " * 100]
# A chunk's bytes on the wire: its payload plus a header, which for a
# named chunk holds the name, the key's address and the signature.
LARGEST_ENCODED = max(map(len, PLAIN + VERSIONS)) + 512
NODES = ["client", "router", "pub"]
FETCHERS = ["client", "router"]
PICK = st.integers(0, 63)  # an index into the published ids, taken modulo


class Fetch(NamedTuple):
    """A non-blocking fetch, kept until it has ended and been checked."""

    slot: PendingFetch
    node: str
    xid: Xid
    started: int


class NetworkLawsMachine(RuleBasedStateMachine):
    """Invariants after every step:

    - for every live daemon, every content route on its node names an
      id its store holds, and every unexpired id in its store is routed;
    - every fetch returns bytes published under its id, or raises a
      ``FetchError``.  A named id may return any version published under
      its name, since a cache keeps its copy until the TTL runs out;
    - every fetch ends within one transfer's bound in simulated time, or
      two for named content, whose key may be missing;
    - once the event queue has drained, as it does when time advances
      past the idle timeout, no node holds a session, an endpoint, an
      endpoint route, a capture or a transfer in flight.
    """

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="xcache-network-laws-")
        self.sim = sim = build_simulator(LINE3_TOPO)
        self.configs = {
            "client": DaemonConfig(mem_capacity_chunks=3),
            "router": DaemonConfig(mem_capacity_chunks=3),
            "pub": DaemonConfig(mem_capacity_chunks=2, disk_capacity_chunks=4, disk_dir=self.dir),
        }
        self.daemons, self.handles = {}, {}
        for name in sim.nodes:
            self._start(name)
        self.honest = dict.fromkeys(sim.nodes, True)
        self.key = PublisherKey.generate(rng=random.Random(26))
        self.cert = None  # the key chunk's address, once published
        self.published: dict = {}  # id -> every payload published under it
        self.dags: dict = {}  # id -> the address pub published it under
        self.names: dict = {}  # named id -> its name
        self.pending: list[Fetch] = []
        self.client_hop = sim.nodes["client"].routes.next_hop(sim.nodes["pub"].ad)
        # One transfer: a handshake that spends every retry, then an idle
        # timeout per segment of the largest chunk, FIN included.
        segments = math.ceil(LARGEST_ENCODED / sim.segment_payload) + 1
        self.transfer_ms = sim.rto_ms * (sim.max_retries + 1) + segments * sim.idle_timeout_ms
        # each slot's completion time, recorded as it completes
        self.patch = pytest.MonkeyPatch()
        complete = PendingFetch._complete

        def timed_complete(slot, result=None, error=None):
            if not slot.done():
                slot.ended = slot._sim.now
            complete(slot, result, error)

        self.patch.setattr(PendingFetch, "_complete", timed_complete)

    def teardown(self):
        self.patch.undo()
        for daemon in self.daemons.values():
            daemon.shutdown()
        shutil.rmtree(self.dir, ignore_errors=True)

    def _start(self, name):
        self.daemons[name] = Xcached(self.configs[name], node=self.sim.nodes[name])
        self.handles[name] = self.daemons[name].init_handle()

    def _publish(self, dag, data):
        self.published.setdefault(dag.intent_xid(), set()).add(data)
        self.dags[dag.intent_xid()] = dag

    def _pick(self, i):
        xids = sorted(self.dags, key=lambda x: x.value)
        return xids[i % len(xids)]

    def _check(self, node, xid, started, ended, result=None, error=None):
        """The fetch ended in time, with bytes published under its id or
        with a typed error; a dishonest node's own answers go unchecked."""
        transfers = 1 if xid.xtype is XidType.CID else 2
        assert ended - started <= transfers * self.transfer_ms, (started, ended)
        if error is not None:
            assert isinstance(error, FetchError), repr(error)
        elif self.honest[node]:
            assert result in self.published[xid]

    def _settle(self, fetch):
        try:
            data = fetch.slot.result()
        except FetchError as exc:
            data, error = None, exc
        else:
            error = None
        assert fetch.slot.done(), "the event queue drained before the fetch ended"
        self._check(fetch.node, fetch.xid, fetch.started, fetch.slot.ended, data, error)

    # -- publish -------------------------------------------------------

    @rule(i=st.integers(0, len(PLAIN) - 1), ttl=st.sampled_from([LONG_TTL, SHORT_TTL]))
    def publish_plain(self, i, ttl):
        self._publish(self.handles["pub"].put_chunk(PLAIN[i], ttl), PLAIN[i])

    @rule(
        name=st.sampled_from(NAMES),
        version=st.sampled_from(VERSIONS),
        ttl=st.sampled_from([LONG_TTL, SHORT_TTL]),
    )
    def publish_named(self, name, version, ttl):
        # the key chunk is published again first, as pub may have dropped it
        pub = self.handles["pub"]
        self.cert = pub.put_chunk(self.key.public, LONG_TTL)
        self._publish(self.cert, self.key.public)
        dag = pub.put_named_content(name, version, ttl, self.key, self.cert)
        self._publish(dag, version)
        self.names[dag.intent_xid()] = name

    # -- fetch ---------------------------------------------------------

    @precondition(lambda self: self.dags)
    @rule(node=st.sampled_from(FETCHERS), picks=st.lists(PICK, min_size=1, max_size=4))
    def fetch_nonblocking(self, node, picks):
        """k fetches from a new handle, left pending for later steps."""
        handle = self.daemons[node].init_handle()
        for i in picks:
            xid = self._pick(i)
            slot = handle.fetch_chunk(self.dags[xid], blocking=False)
            self.pending.append(Fetch(slot, node, xid, self.sim.now))

    @precondition(lambda self: self.dags)
    @rule(node=st.sampled_from(FETCHERS), i=PICK, by_url=st.booleans())
    def fetch_blocking(self, node, i, by_url):
        """One blocking fetch by DAG, or of named content by ``ncid`` URL,
        which moves the key chunk named by its PubCert locator first."""
        daemon, handle = self.daemons[node], self.handles[node]
        xid, started = self._pick(i), self.sim.now
        try:
            if by_url and xid in self.names:
                url = NcidUrl(self.names[xid], (("PubCert", serialize_dag_url(self.cert)),))
                chunk, _ = daemon.get_named_entry(handle, serialize_ncid_url(url))
            else:
                chunk, _ = daemon.fetch_entry(handle, self.dags[xid])
        except FetchError as exc:
            self._check(node, xid, started, self.sim.now, error=exc)
        else:
            self._check(node, xid, started, self.sim.now, chunk.payload)

    @precondition(lambda self: self.pending)
    @rule()
    def wait_for_every_pending_fetch(self):
        for fetch in self.pending:
            self._settle(fetch)
        self.pending.clear()

    @precondition(lambda self: any(not f.slot.done() for f in self.pending))
    @rule(i=PICK)
    def destroy_a_handle_with_a_pending_fetch(self, i):
        waiting = [f for f in self.pending if not f.slot.done()]
        handle = waiting[i % len(waiting)].slot._handle
        if handle.alive:
            handle.destroy()

    # -- faults and maintenance ------------------------------------------

    @precondition(lambda self: self.dags and self.honest["router"])
    @rule(i=PICK)
    def forge_at_the_router(self, i):
        # the genuine header, signature included, over other bytes
        xid = self._pick(i)
        if xid.xtype is XidType.CID:
            forged = Chunk(id=xid, ttl_ms=LONG_TTL, payload=b"forged")
        else:
            genuine = build_ncid_chunk(self.names[xid], VERSIONS[0], LONG_TTL, self.key, self.cert)
            forged = replace(genuine, payload=b"forged")
        self.daemons["router"].inject_unverified_chunk(forged)
        self.honest["router"] = False

    @rule(node=st.sampled_from(NODES))
    def flip_caching(self, node):
        self.daemons[node].caching = not self.daemons[node].caching

    @rule(
        link=st.sampled_from([("client", "router"), ("router", "pub")]),
        loss=st.sampled_from([0.0, 0.05, 0.2]),
    )
    def set_loss(self, link, loss):
        self.sim.add_link(*link, delay_ms=5, loss=loss)

    @rule()
    def remove_or_restore_the_clients_route_to_pub(self):
        routes, ad = self.sim.nodes["client"].routes, self.sim.nodes["pub"].ad
        if routes.next_hop(ad) is None:
            routes.add_route(ad, self.client_hop)
        else:
            routes.remove_route(ad)

    @precondition(lambda self: self.dags)
    @rule(node=st.sampled_from(NODES), i=PICK)
    def destroy_chunk(self, node, i):
        self.handles[node].destroy_chunk(self.dags[self._pick(i)])

    @rule(dt=st.sampled_from([1, 40, 400, 800, 3000]))
    def advance_and_sweep(self, dt):
        self.sim.step(self.sim.now + dt)
        for daemon in self.daemons.values():
            daemon.sweep_ttl()

    @rule(node=st.sampled_from(["pub", "client"]))
    def restart(self, node):
        """Shut the daemon down, then start a new one on the same node and
        disk directory."""
        self.daemons[node].shutdown()
        self._start(node)

    @precondition(lambda self: self._on_disk())
    @rule(i=PICK)
    def flip_a_disk_payload_byte(self, i):
        on_disk = self._on_disk()
        flip_disk_entry(self.dir, on_disk[i % len(on_disk)], -1)  # the payload's last byte

    def _on_disk(self):
        manager = self.daemons["pub"].manager
        return sorted((x for x in manager.ids() if manager.placement(x) == "disk"), key=lambda x: x.value)

    # -- invariants ----------------------------------------------------

    @invariant()
    def routes_are_what_the_store_holds(self):
        for name, daemon in self.daemons.items():
            routes, manager = self.sim.nodes[name].routes, daemon.manager
            routed = {x for x in routes.locals() if x.xtype in CONTENT_TYPES}
            assert routed <= set(manager.ids()), name
            assert {x for x in manager.ids() if manager.contains(x)} <= routed, name

    @invariant()
    def every_fetch_ends_in_time(self):
        for fetch in [f for f in self.pending if f.slot.done()]:
            self._settle(fetch)
            self.pending.remove(fetch)
        for fetch in self.pending:
            transfers = 1 if fetch.xid.xtype is XidType.CID else 2
            assert self.sim.now - fetch.started <= transfers * self.transfer_ms

    @invariant()
    def a_drained_network_holds_no_session_state(self):
        if self.sim._heap:
            return
        for name, node in self.sim.nodes.items():
            daemon = self.daemons[name]
            assert node.sessions == {} and node.endpoints == {}, name
            assert not any(x.xtype is XidType.SID for x in node.routes.locals()), name
            assert daemon.node.captures == {} and daemon._inflight == {}, name


TestNetworkLaws = NetworkLawsMachine.TestCase
TestNetworkLaws.settings = settings(max_examples=100, stateful_step_count=30, deadline=None)
