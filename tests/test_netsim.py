import ast
import gc
import hashlib
import random
import signal
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import LINE3_TOPO, PAIR_TOPO, EagerTimer, make_cluster, run_session
from xcache.addressing import DECISION_MEMO_MAX, XidType, make_fallback_dag, symbolic_xid
from xcache.chunking import compute_cid, decode_chunk
from xcache import netsim
from xcache.daemon import DaemonConfig
from xcache.netsim import (
    NoRouteError,
    SegFlags,
    Segment,
    SimStalledError,
    Simulator,
    TopologyError,
    build_simulator,
    parse_topology,
)
from xcache.urls import parse_dag_url, serialize_dag_url

PAIR_LOSSY = """
node client
node pub
link client pub delay=2 loss=0.1
route client AD-pub pub
route pub AD-client client
"""

CHAIN4_LOSSY = """
node client
node r1
node r2
node pub
link client r1 delay=3 loss=0.05
link r1 r2 delay=2 loss=0.05
link r2 pub delay=4 loss=0.05
route client AD-pub r1
route r1 AD-pub r2
route r2 AD-pub pub
route pub AD-client r2
route r2 AD-client r1
route r1 AD-client client
"""


def serve_bytes(node, payload: bytes):
    """Make the node serve a chunk of raw bytes, and no other content."""
    cid = compute_cid(payload)
    node.serve = lambda xid: payload if xid == cid else None
    node.routes.add_local(cid)
    return node.local_dag_for(cid)


def deliveries(sim):
    return [rec for rec in sim.trace if rec[0] == "deliver"]


class TestTopologyConfig:
    def test_parses_all_directives(self):
        directives = parse_topology(LINE3_TOPO)
        kinds = [d[0] for d in directives]
        assert kinds.count("node") == 3
        assert kinds.count("link") == 2
        assert kinds.count("seed") == 1

    def test_seed_line_used(self):
        sim = build_simulator("seed 99\nnode a\n")
        assert sim.seed == 99

    def test_seed_override_wins(self):
        sim = build_simulator("seed 99\nnode a\n", seed=5)
        assert sim.seed == 5

    def test_unknown_directive(self):
        with pytest.raises(TopologyError, match="line 1"):
            build_simulator("frobnicate a b\n")

    def test_link_to_unknown_node(self):
        with pytest.raises(TopologyError):
            build_simulator("node a\nlink a b delay=1 loss=0\n")

    def test_duplicate_node(self):
        with pytest.raises(TopologyError):
            build_simulator("node a\nnode a\n")

    def test_loss_out_of_range(self):
        with pytest.raises(TopologyError):
            build_simulator("node a\nnode b\nlink a b delay=1 loss=1.5\n")

    def test_negative_delay(self):
        # an arrival queued before its send would also shrink
        # path_delay_bound, and with it the retransmission timeout
        with pytest.raises(TopologyError, match="line 3: link delay -5 ms is negative"):
            build_simulator("node a\nnode b\nlink a b delay=-5\n")
        sim = build_simulator("node a\nnode b\n")
        with pytest.raises(TopologyError, match="negative"):
            sim.add_link("a", "b", delay_ms=-1)
        assert sim.links == {} and sim.path_delay_bound() == 1

    def test_negative_cache(self):
        # refused here as parse_config refuses mem_capacity_chunks below 0
        with pytest.raises(TopologyError, match="line 2: cache must be at least 0"):
            build_simulator("node a\nnode b cache=-3\n")

    def test_zero_delay_and_cache_are_accepted(self):
        sim = build_simulator("node a cache=0\nnode b\nlink a b delay=0\n")
        assert sim.node_opts["a"]["cache"] == 0 and sim.links[("a", "b")].delay_ms == 0

    def test_route_with_unknown_next_hop(self):
        with pytest.raises(TopologyError):
            build_simulator("node a\nroute a AD-x b\n")

    def test_comments_and_cache_option(self):
        sim = build_simulator("# hi\nnode a cache=3  # trailing\n")
        assert sim.node_opts["a"]["cache"] == 3

    @pytest.mark.parametrize(
        "text, message",
        [
            ("node a foo", "line 1: expected key=value, got 'foo'"),
            ("node a color=red", "line 1: unknown option 'color'"),
            ("node", "line 1: node needs a name"),
            ("node a\nlink a", "line 2: link needs two node names"),
            ("route a AD-x", "line 1: route needs <node> <xid> <next>"),
            ("seed x", "line 1: seed needs one unsigned integer"),
            (
                "node a\nnode b\nlink a b delay=abc",
                "line 3: invalid literal for int() with base 10: 'abc'",
            ),
            ("node a\nnode b\nroute a QQ-x b", "line 3: unknown principal type tag 'QQ'"),
            ("node b\nroute a AD-x b", "line 2: route on unknown node 'a'"),
        ],
    )
    def test_each_error_names_its_line(self, text, message):
        with pytest.raises(TopologyError) as info:
            build_simulator(text)
        assert str(info.value) == message


class TestEventEngine:
    def test_step_on_empty_queue(self):
        sim = Simulator()
        sim.step(100)
        assert sim.now == 100

    def test_equal_time_events_run_in_insertion_order(self):
        sim = Simulator()
        ran = []
        sim.schedule(5, lambda: ran.append("first"))
        sim.schedule(5, lambda: ran.append("second"))
        sim.step()
        assert ran == ["first", "second"]

    def test_step_until_boundary(self):
        sim = build_simulator(PAIR_TOPO)
        sim.trace = []
        seg = Segment(
            session=b"s" * 8,
            seq=0,
            flags=SegFlags.NONE,
            src_dag=make_fallback_dag(sim.nodes["client"].ad, []),
            dst_dag=make_fallback_dag(sim.nodes["pub"].ad, []),
        )
        sim.nodes["client"].on_segment(seg)
        sim.step(4)  # link delay is 5
        assert deliveries(sim) == []
        sim.step(5)
        assert [(rec[1], rec[2], rec[5]) for rec in deliveries(sim)] == [
            (5, "pub", seg.session.hex())
        ]

    def test_identical_seeds_identical_traces(self):
        def run(seed):
            sim = build_simulator(PAIR_LOSSY, seed=seed)
            sim.trace = []
            payload = bytes(1000)
            dag = serve_bytes(sim.nodes["pub"], payload)
            session = run_session(sim.nodes["client"], dag)
            assert (session.state, b"".join(session.rx_payloads)) == ("complete", payload)
            return list(sim.trace)

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_trace_is_off_unless_assigned(self):
        sim = build_simulator(LINE3_TOPO)
        dag = serve_bytes(sim.nodes["pub"], bytes(3000))
        session = run_session(sim.nodes["client"], dag)
        assert (session.state, b"".join(session.rx_payloads)) == ("complete", bytes(3000))
        assert sim.trace is None

    def test_a_lossy_transfer_records_only_while_a_trace_is_assigned(self):
        sim = build_simulator(PAIR_LOSSY, seed=3)
        calls = []
        record = sim._trace

        def spy(*args, **kwargs):
            calls.append(args[0])
            record(*args, **kwargs)

        sim._trace = spy
        payload = bytes(20_000)
        dag = serve_bytes(sim.nodes["pub"], payload)
        session = run_session(sim.nodes["client"], dag)
        assert (session.state, b"".join(session.rx_payloads)) == ("complete", payload)
        assert sim.stats["retransmits"] > 0
        assert (calls, sim.trace) == ([], None)  # not even a call is made

        sim.trace = []
        session = run_session(sim.nodes["client"], dag)
        assert (session.state, b"".join(session.rx_payloads)) == ("complete", payload)
        assert {"xmit", "drop", "deliver"} <= {rec[0] for rec in sim.trace}
        assert calls == [rec[0] for rec in sim.trace]

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 4),  # delay; small, so that times collide
                st.booleans(),  # scheduled as (fn, arg) rather than a closure
                st.none() | st.integers(0, 4),  # delay of a follow-up it schedules
            ),
            min_size=1,
            max_size=25,
        ),
        st.sampled_from(["step", "step-split", "wait_for"]),
    )
    def test_events_run_in_time_then_enqueue_order(self, events, run):
        sim = Simulator()
        ran = []
        queue = []  # every event as (time, enqueue number, label)

        def enqueue(delay, label, as_arg, child):
            queue.append((sim.now + delay, len(queue), label))
            if as_arg:
                sim.schedule(delay, fire, label, child)
            else:
                sim.schedule(delay, lambda: fire(label, child))

        def fire(label, child):
            ran.append((sim.now, label))
            if child is not None:  # queued from inside the run, as the other kind
                enqueue(child, label + "'", not label.endswith("a"), None)

        for i, (delay, as_arg, child) in enumerate(events):
            enqueue(delay, f"{i}{'a' if as_arg else 'c'}", as_arg, child)
        expected_count = len(events) + sum(child is not None for _, _, child in events)

        if run == "wait_for":
            sim.wait_for(lambda: len(ran) == expected_count)
        elif run == "step-split":
            sim.step(2)
            assert all(when <= 2 for when, _ in ran)
            sim.step()
        else:
            sim.step()

        expected = [(when, label) for when, _, label in sorted(queue)]
        assert ran == expected
        last = max(when for when, _ in expected)
        assert sim.now == (max(last, 2) if run == "step-split" else last)

    def test_wait_for_stalls_cleanly(self):
        # a queue that drains before the predicate holds raises at once,
        # with the clock where the last event left it
        sim = Simulator()
        sim.schedule(3, lambda: None)
        with pytest.raises(SimStalledError):
            sim.wait_for(lambda: False)
        assert sim.now == 3
        with pytest.raises(SimStalledError):
            sim.wait_for(lambda: False)
        assert sim.now == 3

    def test_wait_for_stops_at_the_event_that_satisfies_it(self):
        sim = Simulator()
        ran = []
        for label, delay in (("a", 1), ("b", 2), ("c", 3)):
            sim.schedule(delay, lambda label=label: ran.append(label))
        sim.wait_for(lambda: "b" in ran)
        assert (ran, sim.now) == (["a", "b"], 2)
        sim.wait_for(lambda: len(ran) == 3)
        assert (ran, sim.now) == (["a", "b", "c"], 3)

    def test_path_delay_bound_follows_add_link(self):
        sim = Simulator(rto_multiplier=2, max_retries=3)
        for name in "abc":
            sim.add_node(name)
        assert sim.path_delay_bound() == 1
        sim.add_link("a", "b", delay_ms=3)
        sim.add_link("b", "c", delay_ms=4)
        assert sim.path_delay_bound() == 7
        sim.add_link("c", "b", delay_ms=10)  # replaces b–c in both directions
        assert sim.path_delay_bound() == 13
        assert (sim.rto_ms, sim.idle_timeout_ms) == (26, 26 * 5)


class TestConnect:
    def test_session_terminates_at_publisher(self):
        sim = build_simulator(LINE3_TOPO)
        payload = b"from the origin"
        dag = serve_bytes(sim.nodes["pub"], payload)
        session = run_session(sim.nodes["client"], dag)
        assert (session.reply.node, session.reply.hops) == ("pub", 2)
        assert (session.state, b"".join(session.rx_payloads)) == ("complete", payload)
        assert sim.nodes["pub"].counters["sessions_served"] == 1

    def test_session_terminates_at_cache(self):
        sim = build_simulator(LINE3_TOPO)
        payload = b"cached copy"
        serve_bytes(sim.nodes["pub"], payload)
        dag = serve_bytes(sim.nodes["router"], payload)
        session = run_session(sim.nodes["client"], dag)
        assert (session.reply.node, session.reply.hops) == ("router", 1)
        assert (session.state, b"".join(session.rx_payloads)) == ("complete", payload)
        assert sim.nodes["pub"].counters["sessions_served"] == 0

    def test_no_route_fails_immediately(self):
        sim = build_simulator(PAIR_TOPO)
        stranger = make_fallback_dag(symbolic_xid(XidType.CID, "ghost"), [])
        with pytest.raises(NoRouteError):
            sim.nodes["client"].start_connect(stranger)

    def test_black_hole_times_out(self):
        sim = build_simulator(LINE3_TOPO, max_retries=3)
        cid = compute_cid(b"nowhere")
        sim.add_route("client", cid, "router")  # router has no idea
        dag = make_fallback_dag(cid, [])
        session = run_session(sim.nodes["client"], dag)
        assert (session.state, session.fail_reason) == ("failed", "handshake-timeout")

    def test_node_fetches_content_it_serves(self):
        # the SYN is delivered on the client's own node, where the
        # client session already holds the session id
        sim = build_simulator(PAIR_TOPO)
        pub = sim.nodes["pub"]
        payload = random.Random(4).randbytes(1024 * 1024)
        dag = serve_bytes(pub, payload)
        session = run_session(pub, dag)
        assert session.reply.node == "pub"
        assert (session.state, b"".join(session.rx_payloads)) == ("complete", payload)
        assert sim.stats["data_segments_sent"] == 1025  # each segment once
        assert sim.stats["retransmits"] == 0

    def test_only_content_intents_connect(self):
        sim = build_simulator(PAIR_TOPO)
        host_dag = make_fallback_dag(sim.nodes["pub"].hid, [])
        with pytest.raises(Exception, match="content"):
            sim.nodes["client"].start_connect(host_dag)


class TestAcceptAs:
    """A node asks its owner for the content each request names."""

    def _pair_with_two_chunks(self):
        sim = build_simulator(PAIR_TOPO)
        pub = sim.nodes["pub"]
        payloads = {}
        dags = {}
        for text in (b"chunk CCC", b"chunk DDD"):
            cid = compute_cid(text)
            payloads[cid] = text
            pub.routes.add_local(cid)
            dags[cid] = pub.local_dag_for(cid)
        served = []

        def serve(xid):
            served.append(xid)
            return payloads.get(xid)

        pub.serve = serve
        return sim, payloads, dags, served

    @pytest.mark.parametrize("reverse", [False, True])
    def test_two_concurrent_requests_pair_correctly(self, reverse):
        sim, payloads, dags, served = self._pair_with_two_chunks()
        order = list(dags)
        if reverse:
            order.reverse()

        # both requests in flight before either is served
        ended = []
        clients = {
            cid: sim.nodes["client"].start_connect(dags[cid], on_end=ended.append) for cid in order
        }
        sim.wait_for(lambda: len(ended) == len(clients))
        for cid, client in clients.items():
            assert (client.state, b"".join(client.rx_payloads)) == ("complete", payloads[cid])
        assert served == order  # served in arrival order

    def test_accept_returns_requested_xid(self):
        sim, payloads, dags, served = self._pair_with_two_chunks()
        target = list(dags)[1]
        client = run_session(sim.nodes["client"], dags[target])
        assert (client.state, b"".join(client.rx_payloads)) == ("complete", payloads[target])
        assert served == [target]

    def test_syn_for_unbound_content_not_delivered(self):
        sim = build_simulator(PAIR_TOPO, max_retries=2)
        pub = sim.nodes["pub"]
        serve_bytes(pub, b"something")
        ghost = compute_cid(b"not bound")
        dag = pub.local_dag_for(ghost)
        session = run_session(sim.nodes["client"], dag)
        assert (session.state, session.fail_reason) == ("failed", "handshake-timeout")
        assert pub.sessions == {}

    def test_a_stale_route_is_withdrawn_and_the_syn_goes_on(self):
        sim = build_simulator(LINE3_TOPO)
        router = sim.nodes["router"]
        dag = serve_bytes(sim.nodes["pub"], b"only the origin holds it")
        router.routes.add_local(dag.intent_xid())  # but the router serves nothing
        session = run_session(sim.nodes["client"], dag)
        assert (session.reply.node, session.reply.hops) == ("pub", 2)
        received = (session.state, b"".join(session.rx_payloads))
        assert received == ("complete", b"only the origin holds it")
        assert not router.routes.is_local(dag.intent_xid())


class TestTransfer:
    def test_64k_lossless_segment_count(self):
        sim = build_simulator(PAIR_TOPO)
        payload = random.Random(1).randbytes(64 * 1024)
        dag = serve_bytes(sim.nodes["pub"], payload)
        session = run_session(sim.nodes["client"], dag)
        assert (session.state, b"".join(session.rx_payloads)) == ("complete", payload)
        assert session.rx_segments == 64  # ceil(64KiB / 1KiB)
        assert sim.stats["retransmits"] == 0

    def test_empty_payload_fin_only(self):
        sim = build_simulator(PAIR_TOPO)
        dag = serve_bytes(sim.nodes["pub"], b"")
        session = run_session(sim.nodes["client"], dag)
        assert (session.state, b"".join(session.rx_payloads)) == ("complete", b"")
        assert session.rx_segments == 0

    def test_custom_segment_size(self):
        sim = build_simulator(PAIR_TOPO, segment_payload=100)
        payload = bytes(950)
        dag = serve_bytes(sim.nodes["pub"], payload)
        session = run_session(sim.nodes["client"], dag)
        assert (session.state, b"".join(session.rx_payloads)) == ("complete", payload)
        assert session.rx_segments == 10

    def test_lossy_delivery_seeded_trials(self):
        total_retransmits = 0
        for seed in range(20):
            sim = build_simulator(PAIR_LOSSY, seed=seed)
            payload = random.Random(seed).randbytes(64 * 1024)
            dag = serve_bytes(sim.nodes["pub"], payload)
            session = run_session(sim.nodes["client"], dag)
            assert session.state == "complete"
            received = b"".join(session.rx_payloads)
            assert hashlib.sha256(received).digest() == hashlib.sha256(payload).digest()
            total_retransmits += sim.stats["retransmits"]
        assert total_retransmits > 0

    def test_heavy_loss_with_raised_retry_cap(self):
        topo = PAIR_LOSSY.replace("loss=0.1", "loss=0.3")
        sim = build_simulator(topo, seed=3, max_retries=64)
        payload = random.Random(3).randbytes(16 * 1024)
        dag = serve_bytes(sim.nodes["pub"], payload)
        session = run_session(sim.nodes["client"], dag)
        assert (session.state, b"".join(session.rx_payloads)) == ("complete", payload)


class TestFastRetransmit:
    """A sender resends its window on the third duplicate ACK for its
    base, at most once per base, and leaves a lost resend to its timer.
    ``pub`` drops chosen transmissions of one mid-stream data segment
    through a wrapper on its ``_forward``."""

    PAYLOAD = random.Random(15).randbytes(16 * 1024)  # 16 data segments and the FIN
    LOST = 5  # inside the first window, with segments 6 and 7 behind it

    def transfer(self, drops):
        """Fetch PAYLOAD over PAIR_TOPO while ``pub`` drops the first
        ``drops`` transmissions of segment LOST.  Returns the simulator,
        the time the client completed and the times segment LOST left
        ``pub``."""
        sim = build_simulator(PAIR_TOPO)
        pub = sim.nodes["pub"]
        dag = serve_bytes(pub, self.PAYLOAD)
        forward, sent = pub._forward, []

        def lossy_forward(seg, hop):
            if seg.flags == SegFlags.NONE and seg.seq == self.LOST:
                sent.append(sim.now)
                if len(sent) <= drops:
                    return "dropped"
            return forward(seg, hop)

        pub._forward = lossy_forward
        session = run_session(sim.nodes["client"], dag)
        finished = sim.now
        sim.step()
        assert (session.state, b"".join(session.rx_payloads)) == ("complete", self.PAYLOAD)
        return sim, finished, sent

    def test_one_loss_costs_one_round_trip(self):
        sim, lossless, sent = self.transfer(drops=0)
        assert (lossless, sent, sim.stats["retransmits"]) == (40, [15], 0)
        rtt = 2 * sim.links[("client", "pub")].delay_ms
        assert rtt < sim.rto_ms
        # 6, 7 and the first of 8..12 (sent as ACKs 1..5 came in) each
        # draw a duplicate ACK for 5; the third one resends 5..12
        sim, finished, sent = self.transfer(drops=1)
        assert finished == lossless + rtt
        assert sent == [15, 15 + 2 * rtt]
        assert sim.stats["retransmits"] == 8

    def test_a_lost_fast_resend_is_left_to_the_timer(self):
        # the fast resend of 5..12 loses 5 again: 6..12 draw seven more
        # duplicates for the same base, which resend nothing, and the
        # timer armed with the fast resend sends 5..12 once more
        sim, finished, sent = self.transfer(drops=2)
        assert sent == [15, 35, 35 + sim.rto_ms]
        assert (finished, sim.stats["retransmits"]) == (70, 16)


class TestGiveUp:
    """Each retry budget ends in a failed session with a typed reason."""

    def test_synack_gives_up_without_handshake_ack(self):
        # pub has no route back to the client, so no SYNACK ever lands
        sim = build_simulator(PAIR_TOPO.replace("route pub AD-client client", ""), max_retries=3)
        dag = serve_bytes(sim.nodes["pub"], b"unanswerable")
        client = sim.nodes["client"].start_connect(dag)
        pub = sim.nodes["pub"]
        sim.wait_for(lambda: client.session_id in pub.sessions)
        server = pub.sessions[client.session_id]
        sim.step()
        assert (server.state, server.fail_reason) == ("failed", "handshake-timeout")
        assert (client.state, client.fail_reason) == ("failed", "handshake-timeout")
        assert pub.sessions == {} and sim.nodes["client"].sessions == {}

    def _midway(self, max_retries=4):
        sim = build_simulator(PAIR_TOPO, max_retries=max_retries)
        dag = serve_bytes(sim.nodes["pub"], random.Random(2).randbytes(64 * 1024))
        client = sim.nodes["client"].start_connect(dag)
        sim.wait_for(lambda: client.rx_segments >= 10)
        return sim, client, sim.nodes["pub"].sessions[client.session_id]

    def test_sender_gives_up_when_acks_stop(self):
        sim, client, server = self._midway()
        sim.nodes["client"].routes.remove_route(sim.nodes["pub"].ad)
        sim.step()
        assert (server.state, server.fail_reason) == ("failed", "retry-limit")
        assert client.rx_segments < 64

    def test_receiver_gives_up_when_no_data_follows_the_handshake(self):
        # the sender cannot reach the client once the client is
        # established, so no data segment ever lands: the idle timer armed
        # at the SYNACK ends the client, and both ends are released
        sim = build_simulator(PAIR_TOPO)
        client_node, pub = sim.nodes["client"], sim.nodes["pub"]
        client = client_node.start_connect(serve_bytes(pub, bytes(3000)))
        sim.wait_for(lambda: client.state == "established")
        pub.routes.remove_route(client_node.ad)
        sim.step()
        assert (client.state, client.fail_reason) == ("failed", "transfer-timeout")
        for node in (client_node, pub):
            assert node.sessions == {} and node.endpoints == {}

    def test_receiver_idle_timer_fails_transfer(self):
        sim, client, server = self._midway()
        sim.nodes["pub"].routes.remove_route(sim.nodes["client"].ad)
        sim.wait_for(lambda: client.state in ("complete", "failed"))
        assert (client.state, client.fail_reason) == ("failed", "transfer-timeout")


class TestRelease:
    """Each end of a session leaves its node once it has ended and its
    last armed timer has fired."""

    @pytest.mark.parametrize("size, segments", [(3000, 3), (0, 0)])
    def test_completed_client_acknowledges_a_late_fin(self, size, segments):
        sim = build_simulator(PAIR_TOPO)
        client_node, pub = sim.nodes["client"], sim.nodes["pub"]
        dag = serve_bytes(pub, bytes(size))
        client = client_node.start_connect(dag)
        sim.wait_for(lambda: client.state == "established" and client.rx_segments == segments)
        server = pub.sessions[client.session_id]
        link = sim.links[("client", "pub")]
        sim.links[("client", "pub")] = replace(link, loss=1.0)  # the FIN's ACK is lost
        sim.wait_for(lambda: client.state == "complete")
        sim.links[("client", "pub")] = link
        assert client_node.endpoints == {client.endpoint_sid: client}
        sim.step()
        assert server.state == "done" and server.retransmits == 1
        for node in (client_node, pub):
            assert node.sessions == {} and node.endpoints == {}
        assert client_node.routes.locals() == {client_node.ad, client_node.hid}
        assert pub.routes.locals() == {pub.ad, pub.hid, dag.intent_xid()}

    def test_connect_without_a_route_leaves_nothing(self):
        sim = build_simulator(PAIR_TOPO)
        client_node = sim.nodes["client"]
        stranger = make_fallback_dag(symbolic_xid(XidType.CID, "ghost"), [])
        with pytest.raises(NoRouteError):
            client_node.start_connect(stranger)
        assert client_node.sessions == {} and client_node.endpoints == {}
        assert client_node.routes.locals() == {client_node.ad, client_node.hid}


class _TimedEnd(netsim._Session):
    """A session end without a peer, for driving its timer directly; it
    logs each handler its timer runs and its release, at ``sim.now``."""

    def __init__(self, node, log):
        super().__init__(node, b"timer-law")
        self.log = log

    def _release(self):
        if self.node.endpoints.get(self.endpoint_sid) is self:
            self.log.append((self.sim.now, "release"))
        super()._release()


class _EagerTimedEnd(EagerTimer, _TimedEnd):
    pass


def _timer_handler(label, then):
    """A timer handler that logs ``label`` and then re-arms after ``then``
    ms, ends the session (``"end"``, as a timeout does), or stops."""

    def fire(session):
        session.log.append((session.sim.now, "fire", label))
        if then == "end":
            session._end("failed")
        elif then is not None:
            session._arm(then, _timer_handler(label + "'", None))

    return fire


_DELAY = st.integers(0, 6)  # small, so that due times collide
_TIMER_STEP = st.tuples(
    st.integers(0, 3),  # ms to advance before the step
    st.sampled_from(["arm", "arm", "progress", "end"]),
    _DELAY,  # an arming's delay
    st.none() | st.just("end") | _DELAY,  # what its handler does next
    # the delay of a probe event queued after the step; "tie" is the
    # arming's delay, so the probe falls due with the arming
    st.none() | st.just("tie") | _DELAY,
)


class TestOneTimerEntry:
    """A session end keeps at most one entry on the event queue, and its
    timer runs the handlers and the release an entry per arming ran."""

    @staticmethod
    def run_timer(end_cls, program):
        """Drive one session end's timer through ``program``, queueing a
        probe event after a step where it says so; returns the log of
        handlers, releases and probes, and whether the end is still held
        once the queue has drained."""
        sim = Simulator()
        node = sim.add_node("n")
        log = []
        end = end_cls(node, log)
        for i, (gap, op, delay, then, probe) in enumerate(program):
            sim.step(sim.now + gap)
            if end.state != "new":
                pass  # as in the transport, an ended session arms nothing
            elif op == "arm":
                end._arm(delay, _timer_handler(str(i), then))
            elif op == "progress":
                end._progress()
            else:
                # an end outside a handler follows progress, as every
                # caller's does
                end._progress()
                end._end("done")
            if probe is not None:
                probe = delay if probe == "tie" else probe
                sim.schedule(probe, lambda i=i: log.append((sim.now, "probe", i)))
        sim.step()
        return log, end in node.endpoints.values()

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_TIMER_STEP, max_size=30))
    def test_the_timer_runs_what_one_entry_per_arming_ran(self, program):
        lazy = self.run_timer(_TimedEnd, program)
        assert lazy == self.run_timer(_EagerTimedEnd, program)
        event("released" if any(rec[1] == "release" for rec in lazy[0]) else "held")

    @staticmethod
    def timer_owners(sim):
        """The session end each queued timer entry belongs to."""
        return [
            getattr(fn, "__self__", None) or args[0]
            for _, _, fn, args in sim._heap
            if getattr(fn, "__name__", None) == "_fire"
        ]

    def test_a_lossy_transfer_queues_one_entry_per_session_end(self):
        sim = build_simulator(PAIR_TOPO)
        sim.add_link("client", "pub", delay_ms=5, loss=0.05)
        payload = random.Random(19).randbytes(64 * 1024)
        dag = serve_bytes(sim.nodes["pub"], payload)
        ended = []
        client = sim.nodes["client"].start_connect(dag, on_end=ended.append)
        seen = 0
        while sim._heap:
            sim.step(sim.now + 1)
            owners = Counter(self.timer_owners(sim))
            live = [end for node in sim.nodes.values() for end in node.endpoints.values()]
            assert set(owners) <= set(live)
            assert all(count == 1 for count in owners.values()), sim.now
            seen = max(seen, len(owners))
        assert ended == [client] and b"".join(client.rx_payloads) == payload
        assert sim.stats["retransmits"] > 0  # the loss did bite
        assert seen == 2  # both ends held a timer at once


class TestDecisionMemo:
    """Forwarding decisions are memoized on the address object, which
    ``parse_dag_url`` shares between every simulator in the process."""

    PAYLOAD = bytes(range(256)) * 5

    def traffic(self, dag, sizes):
        """Serve ``PAYLOAD`` on a fresh LINE3 simulator and fetch it over
        ``dag`` 30 times, noting the memo's size after every hop; returns
        a weak reference to the simulator."""
        sim = build_simulator(LINE3_TOPO)
        serve_bytes(sim.nodes["pub"], self.PAYLOAD)
        for node in sim.nodes.values():
            # every hop, the origin's first included, goes through here
            def on_segment(seg, inner=node.on_segment):
                disposition = inner(seg)
                sizes.append(len(dag.decisions))
                return disposition

            node.on_segment = on_segment
        for _ in range(30):
            session = run_session(sim.nodes["client"], dag)
            assert b"".join(session.rx_payloads) == self.PAYLOAD
        return weakref.ref(sim)

    def test_a_shared_address_keeps_no_simulator_alive(self, monkeypatch):
        misses = []
        resolve = netsim.resolve_next
        monkeypatch.setattr(
            netsim, "resolve_next", lambda dag, *args: misses.append(dag) or resolve(dag, *args)
        )
        pub = [symbolic_xid(XidType.AD, "pub"), symbolic_xid(XidType.HID, "pub")]
        published = make_fallback_dag(compute_cid(self.PAYLOAD), pub)
        dag = parse_dag_url(serialize_dag_url(published))
        sizes = []
        first = self.traffic(dag, sizes)
        second = self.traffic(dag, sizes)
        gc.collect()
        assert first() is None and second() is None
        assert misses.count(dag) > DECISION_MEMO_MAX  # the memo filled up, and was cleared
        assert 0 < max(sizes) <= DECISION_MEMO_MAX


class TestEverySessionEnds:
    """A slice of the network-level laws: over CHAIN4_LOSSY's chain with
    any seed, per-link loss, payload size and retry budget, each end of
    a session ends in time with a typed outcome and then leaves its
    node."""

    LINKS = [("client", "r1"), ("r1", "r2"), ("r2", "pub")]
    REASONS = {"handshake-timeout", "transfer-timeout", "retry-limit"}

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        losses=st.lists(st.floats(0.0, 0.2), min_size=3, max_size=3),
        size=st.integers(0, 12 * 1024),
        max_retries=st.integers(0, 16),
    )
    def test_a_session_completes_or_fails_in_time(self, seed, losses, size, max_retries):
        sim = build_simulator(CHAIN4_LOSSY, seed=seed, max_retries=max_retries)
        for (a, b), loss in zip(self.LINKS, losses):
            sim.add_link(a, b, sim.links[(a, b)].delay_ms, loss)
        payload = random.Random(seed).randbytes(size)
        pub = sim.nodes["pub"]
        dag = serve_bytes(pub, payload)
        ended, servers = [], set()
        client = sim.nodes["client"].start_connect(dag, on_end=ended.append)
        # a server end is registered inside an event and released by a
        # later one, so looking before every event sees each of them
        sim.wait_for(lambda: servers.update(pub.sessions.values()) or ended)
        event(client.fail_reason or client.state)
        if client.state == "complete":
            assert b"".join(client.rx_payloads) == payload
        else:
            assert client.state == "failed" and client.fail_reason in self.REASONS
        # the SYN timer ends the handshake, and each of the segments and
        # the FIN must then arrive within an idle timeout of the last
        segments = -(-size // sim.segment_payload)
        assert sim.now <= (max_retries + 1) * sim.rto_ms + (segments + 1) * sim.idle_timeout_ms
        sim.step()
        for server in servers:
            assert server.state == "done" or (
                server.state == "failed" and server.fail_reason in self.REASONS
            )
        for node in sim.nodes.values():
            assert node.sessions == {} and node.endpoints == {}
            assert not any(xid.xtype is XidType.SID for xid in node.routes.locals())


class TestCutThrough:
    """A segment crosses a run of nodes that would only forward it (no
    tap for it, a memoized ``Forward``) in one step: their links' delays
    and losses apply when it enters the run, and one arrival is queued
    where the run ends."""

    LOSSLESS = CHAIN4_LOSSY.replace("loss=0.05", "loss=0")

    def test_a_transit_node_sees_one_arrival_per_address(self):
        # r1 and r2 have no tap and their tables never change, so each
        # resolves each of the session's three addresses (the content, the
        # client's session, the provider's reply endpoint) once, on the
        # first segment toward it, and is crossed by every later one
        sim = build_simulator(self.LOSSLESS)
        seen = Counter()
        for name, node in sim.nodes.items():

            def on_segment(seg, inner=node.on_segment, name=name):
                seen[name] += 1
                return inner(seg)

            node.on_segment = on_segment
        payload = bytes(40_000)
        session = run_session(sim.nodes["client"], serve_bytes(sim.nodes["pub"], payload))
        assert (session.state, b"".join(session.rx_payloads)) == ("complete", payload)
        assert session.reply.hops == 3
        assert (seen["r1"], seen["r2"]) == (3, 3)
        assert seen["pub"] > 40 and seen["client"] > 40

    def test_loss_stays_per_link(self):
        # over every directed link, the share of crossings lost stays
        # within 4 sigma of the link's 5 % setting, whether the link leaves
        # a node the segment arrived at or one it crossed
        crossings, drops = Counter(), Counter()
        for seed in range(6):
            sim = build_simulator(CHAIN4_LOSSY, seed=seed)
            sim.trace = []
            payload = random.Random(seed).randbytes(384 * 1024)
            session = run_session(sim.nodes["client"], serve_bytes(sim.nodes["pub"], payload))
            assert (session.state, b"".join(session.rx_payloads)) == ("complete", payload)
            sim.step()
            for kind, _, node, to, reason, *_ in sim.trace:
                if kind == "xmit" or (kind, reason) == ("drop", "loss"):
                    crossings[node, to] += 1
                    drops[node, to] += kind == "drop"
        assert len(crossings) == 6 and sum(crossings.values()) >= 20_000
        p = 0.05
        for link, n in crossings.items():
            assert abs(drops[link] / n - p) <= 4 * (p * (1 - p) / n) ** 0.5, (link, drops[link], n)

    @pytest.mark.parametrize("change", ["route", "loss"])
    def test_a_skipped_node_decides_when_the_segment_enters(self, change):
        # a data segment leaves pub at t, crosses r2 at t + 4 and r1 at
        # t + 6, and lands at client at t + 9; a change at r1 made at
        # t + 5 applies only to the segments that enter after it
        sim = build_simulator(self.LOSSLESS, seed=9)
        sim.trace = []
        client, r1 = sim.nodes["client"], sim.nodes["r1"]
        payload = random.Random(9).randbytes(12 * 1024)
        ended = []
        session = client.start_connect(serve_bytes(sim.nodes["pub"], payload), ended.append)

        def in_flight():
            for when, _, fn, args in sim._heap:
                if fn is netsim._arrive and args[0] is client and args[1].flags == SegFlags.NONE:
                    return when, args[1]
            return None

        sim.wait_for(lambda: in_flight() is not None)
        sent = sim.now
        when, seg = in_flight()
        assert (when, seg.hops) == (sent + 9, 3)
        sim.step(sent + 5)
        if change == "route":
            r1.routes.remove_route(client.ad)
        else:
            sim.add_link("client", "r1", delay_ms=3, loss=1.0)
        sim.step(when)
        records = [rec[:4] for rec in sim.trace if rec[5:8] == (seg.session.hex(), 0, seg.seq)]
        assert records[-2:] == [("xmit", sent + 6, "r1", "client"), ("deliver", when, "client", None)]
        assert session.rx_expected > seg.seq
        sim.wait_for(lambda: ended)
        # the segments sent after the change meet it at r1
        dropped = {(rec[2], rec[3], rec[4]) for rec in sim.trace if rec[0] == "drop"}
        if change == "route":
            assert dropped == {("r1", None, "unroutable")}
        else:
            assert dropped == {("r1", "client", "loss"), ("client", "r1", "loss")}
        assert session.state == "failed" and session.fail_reason in TestEverySessionEnds.REASONS
        segments = -(-len(payload) // sim.segment_payload)
        assert sim.now <= (sim.max_retries + 1) * sim.rto_ms + (segments + 1) * sim.idle_timeout_ms

    def test_a_route_loop_ends_in_a_typed_failure(self):
        # r2 sends the SYN back to r1, which sends it to r2 again, over
        # lossless links: each SYN lands again after at most as many skipped
        # hops as there are nodes, so simulated time moves on and the
        # handshake timer ends the session
        sim = build_simulator(self.LOSSLESS.replace("route r2 AD-pub pub", "route r2 AD-pub r1"))
        hops_at = {}
        for name in ("r1", "r2"):
            node = sim.nodes[name]

            def on_segment(seg, inner=node.on_segment):
                # a looping SYN stays alive, so its id stays its own
                assert seg.hops - hops_at.get(id(seg), seg.hops) <= len(sim.nodes) + 1
                hops_at[id(seg)] = seg.hops
                return inner(seg)

            node.on_segment = on_segment
        payload = bytes(5000)
        ended = []
        sim.nodes["client"].start_connect(serve_bytes(sim.nodes["pub"], payload), ended.append)

        def hung(signum, frame):
            raise AssertionError("one event ran for 30 s: the route loop was never cut")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            sim.wait_for(lambda: ended)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert (ended[0].state, ended[0].fail_reason) == ("failed", "handshake-timeout")
        assert len(hops_at) == sim.max_retries + 1  # every SYN sent went round the loop
        segments = -(-len(payload) // sim.segment_payload)
        assert sim.now <= (sim.max_retries + 1) * sim.rto_ms + (segments + 1) * sim.idle_timeout_ms

    @pytest.mark.parametrize("seed", [1, 2, 3, 2024])
    def test_a_traced_run_is_the_same_execution(self, seed):
        def run(traced):
            sim = build_simulator(CHAIN4_LOSSY, seed=seed)
            if traced:
                sim.trace = []
            payload = random.Random(seed).randbytes(64 * 1024)
            session = run_session(sim.nodes["client"], serve_bytes(sim.nodes["pub"], payload))
            received = b"".join(session.rx_payloads)
            sim.step()
            return sim.now, dict(sim.stats), received, sim.rng.getstate()

        assert run(traced=True) == run(traced=False)

    def test_tracing_may_stop_while_a_skipped_hop_record_is_queued(self):
        sim = build_simulator(self.LOSSLESS)
        sim.trace = []
        ended = []
        payload = bytes(5000)
        sim.nodes["client"].start_connect(serve_bytes(sim.nodes["pub"], payload), ended.append)
        sim.wait_for(lambda: any(entry[2] == sim._trace for entry in sim._heap))
        sim.trace = None
        sim.wait_for(lambda: ended)
        assert (ended[0].state, b"".join(ended[0].rx_payloads)) == ("complete", payload)

    def test_only_forward_sends_a_segment_over_a_link(self):
        # one forwarding path: a segment's arrival is queued, and a link's
        # loss read, in NetNode._forward alone, and it queues one arrival
        def reads(tree, scope=()):
            for node in ast.iter_child_nodes(tree):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    yield from reads(node, scope + (node.name,))
                    continue
                if isinstance(node, ast.Name) and node.id == "_arrive":
                    yield ".".join(scope)
                elif isinstance(node, ast.Attribute) and node.attr == "loss":
                    yield ".".join(scope)
                yield from reads(node, scope)

        source = Path(netsim.__file__).parent
        for path in sorted(source.glob("*.py")):
            for scope in reads(ast.parse(path.read_text())):
                assert (path.name, scope) == ("netsim.py", "NetNode._forward"), (path.name, scope)
        tree = ast.parse(Path(netsim.__file__).read_text())
        forward = next(
            fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "_forward"
        )
        assert ast.unparse(forward).count("_arrive") == 1


class TestDeterminism:
    # Pinned from a run of the transport as it stood before its session
    # classes were merged; a change that reorders events, RNG draws or
    # timers changes these numbers.  The hashes here and in PINNED_LINE3
    # were re-pinned when the SYNACK's reply endpoint moved from its
    # payload text to a segment field: each equals the hash of the older
    # trace with every SYNACK record's payload length set to 0.  Both were
    # re-pinned again when the sender learned fast retransmit: here the
    # new trace equals the older one's first 164 records.  Counting from
    # 0, record 163 is the delivery at pub, at t = 81, of the third
    # duplicate ACK for 13; record 164 is now pub resending 13, where the
    # older trace had the fourth duplicate's delivery and waited for the
    # timer.  Both were re-pinned again when a segment began to cross
    # nodes that only forward it without an arrival there, drawing those
    # links' losses when it enters the run.  Here the new trace equals the
    # older one's first 39 records.  Counting from 0, record 37 is the
    # client's ACK for 1 leaving for r1 at t = 36.  It now crosses r1 and
    # r2 at once, so it also takes the next two draws, and the first of
    # them is the one that lost the ACK for 2 on client-r1 (record 39) in
    # the older trace: the ACK for 1 is now lost on r1-r2, recorded at
    # t = 39, and the ACK for 2, drawing later, crosses.
    PINNED = (918, 40, 105, "d6dcda416bfbdf8d2df681d908883eda6f0e560efcd8ef4e2b2cd11f0074e45b")

    def test_seeded_lossy_transfer_is_pinned(self):
        sim = build_simulator(CHAIN4_LOSSY, seed=2024)
        sim.trace = []
        payload = random.Random(2024).randbytes(64 * 1024)
        dag = serve_bytes(sim.nodes["pub"], payload)
        session = run_session(sim.nodes["client"], dag)
        assert (session.state, b"".join(session.rx_payloads)) == ("complete", payload)
        sim.step()
        digest = hashlib.sha256(repr(sim.trace).encode()).hexdigest()
        observed = (sim.now, sim.stats["retransmits"], sim.stats["data_segments_sent"], digest)
        assert observed == self.PINNED

    # Pinned from the transport before segments crossed forwarding nodes
    # without an arrival there; a lossless run must give the same trace
    # with or without that cut-through.
    PINNED_LOSSLESS = (810, 532, "09b33199a58f23f83aa85be77a3e4f5e7296ec7e00f0d56d5447ebfbd2b8581e")

    def test_lossless_chain_trace_is_pinned(self):
        sim = build_simulator(CHAIN4_LOSSY.replace("loss=0.05", "loss=0"), seed=2024)
        sim.trace = []
        payload = random.Random(2024).randbytes(64 * 1024)
        dag = serve_bytes(sim.nodes["pub"], payload)
        session = run_session(sim.nodes["client"], dag)
        assert (session.state, b"".join(session.rx_payloads)) == ("complete", payload)
        sim.step()
        digest = hashlib.sha256(repr(sim.trace).encode()).hexdigest()
        assert (sim.now, len(sim.trace), digest) == self.PINNED_LOSSLESS

    # Pinned from the transport as it stood before the per-hop path lost
    # its closures and frozen decision values.  Unlike PINNED, this run
    # goes through a capture tap, fallback edges and a self-fetch.  With
    # fast retransmit the trace equals the older one's first 95 records:
    # counting from 0, record 94 delivers the third duplicate ACK for 5
    # to pub at t = 150, and record 95 is now pub resending 5 instead of
    # the fourth duplicate's delivery.  The run still makes 32
    # retransmissions.  With cut-through the client's ACKs, which name no
    # content and so are not tapped, cross the caching router without an
    # arrival there and draw the router-pub loss when they leave the
    # client.  The new trace equals the older one's first 281 records: at
    # t = 280 the ACKs for 2 and 3 (records 277 and 279) each take one
    # more draw, so record 281, the second ACK for 3, meets the draw that
    # lost record 285 in the older trace, and is lost on client-router.
    PINNED_LINE3 = (1110, 36, 102, "acc8754465b04f3432a45f473f68f68e7e5473d14b28621d33449e052f5f1697")

    def test_caching_fallback_and_self_fetch_trace_is_pinned(self):
        sim, daemons, handles = make_cluster(
            LINE3_TOPO.replace("loss=0.0", "loss=0.05"), DaemonConfig(workers=1), seed=2025
        )
        try:
            sim.trace = []
            daemons["client"].caching = False  # so the router's copy serves the repeats
            rng = random.Random(2025)
            payloads = [rng.randbytes(size) for size in (20_000, 9_000)]
            dags = [handles["pub"].put_chunk(data, 600_000) for data in payloads]
            providers = []
            for dag, data in zip(dags * 2, payloads * 2):
                # the client has no route to the CID, so the SYN leaves on
                # the fallback edge toward AD-pub
                chunk, stats = daemons["client"].fetch_entry(handles["client"], dag)
                assert chunk.payload == data
                providers.append(stats.provider)
            # the router's tap admitted both chunks on their way past
            assert providers == ["pub", "pub", "router", "router"]
            # pub fetches content it serves: hops == 0 at the delivery
            session = run_session(sim.nodes["pub"], dags[1])
            assert (session.state, session.reply.node, session.reply.hops) == ("complete", "pub", 0)
            assert decode_chunk(b"".join(session.rx_payloads)).payload == payloads[1]
            sim.step()
            digest = hashlib.sha256(repr(sim.trace).encode()).hexdigest()
            observed = (sim.now, sim.stats["retransmits"], sim.stats["data_segments_sent"], digest)
            assert observed == self.PINNED_LINE3
        finally:
            for daemon in daemons.values():
                daemon.shutdown()


class TestRawCapture:
    """A node's ``capture`` tap gets each content session it forwards
    once, reassembled, as ``(content id, bytes)``."""

    def test_router_sees_content_session_segments(self):
        sim = build_simulator(LINE3_TOPO)
        router = sim.nodes["router"]
        captured = []
        router.capture = lambda intent, raw: captured.append((intent, raw))
        payload = bytes(3000)
        dag = serve_bytes(sim.nodes["pub"], payload)
        assert run_session(sim.nodes["client"], dag).state == "complete"
        sim.step()
        assert captured == [(dag.intent_xid(), payload)]
        assert router.captures == {}

    def test_host_traffic_not_captured(self):
        sim = build_simulator(LINE3_TOPO)
        sim.trace = []
        router = sim.nodes["router"]
        captured = []
        router.capture = lambda intent, raw: captured.append((intent, raw))
        seg = Segment(
            session=b"h" * 8,
            seq=0,
            flags=SegFlags.NONE,
            src_dag=make_fallback_dag(sim.nodes["client"].ad, []),
            dst_dag=make_fallback_dag(sim.nodes["pub"].ad, []),
        )
        sim.nodes["client"].on_segment(seg)
        sim.step()
        assert [(rec[2], rec[5]) for rec in deliveries(sim)] == [("pub", seg.session.hex())]
        assert captured == [] and router.captures == {}

    def test_capture_is_transparent(self):
        def run(subscribe):
            sim = build_simulator(LINE3_TOPO, seed=11)
            sim.trace = []
            if subscribe:
                sim.nodes["router"].capture = lambda intent, raw: None
            payload = bytes(5000)
            dag = serve_bytes(sim.nodes["pub"], payload)
            assert run_session(sim.nodes["client"], dag).state == "complete"
            return list(sim.trace)

        assert run(False) == run(True)

    def test_capture_complete_under_loss_with_duplicates(self):
        # retransmitted duplicates cross the router, and the tap still
        # gets the session's bytes exactly once
        topo = """
        node client
        node router
        node pub
        link client router delay=2 loss=0.08
        link router pub delay=2 loss=0.08
        route client AD-pub router
        route router AD-pub pub
        route pub AD-client router
        route router AD-client client
        """
        sim = build_simulator(topo, seed=5)
        router = sim.nodes["router"]
        captured = []
        router.capture = lambda intent, raw: captured.append((intent, raw))
        payload = random.Random(5).randbytes(32 * 1024)
        dag = serve_bytes(sim.nodes["pub"], payload)
        session = run_session(sim.nodes["client"], dag)
        assert (session.state, b"".join(session.rx_payloads)) == ("complete", payload)
        sim.step()
        assert sim.stats["retransmits"] > 0
        assert captured == [(dag.intent_xid(), payload)]
        assert router.captures == {}

    def test_a_node_opens_no_capture_for_content_it_serves(self):
        sim = build_simulator(LINE3_TOPO)
        client, router, pub = sim.nodes["client"], sim.nodes["router"], sim.nodes["pub"]
        captured = []
        router.capture = lambda intent, raw: captured.append((intent, raw))
        payload = bytes(3000)
        dag = serve_bytes(pub, payload)
        # the SYN has crossed the router to pub, whose SYNACK is on its way
        # back when the router starts serving the same content
        session = client.start_connect(dag)
        sim.wait_for(lambda: session.session_id in pub.sessions)
        serve_bytes(router, payload)
        sim.wait_for(lambda: session.state in ("complete", "failed"))
        assert (session.state, session.reply.node) == ("complete", "pub")
        assert router.captures == {}
        # the router's own answer crosses its forwarding path too
        session = run_session(client, dag)
        assert (session.state, session.reply.node) == ("complete", "router")
        assert router.captures == {}
        sim.step()
        assert captured == []

    def test_a_capture_whose_fin_never_crosses_is_dropped(self):
        sim = build_simulator(LINE3_TOPO)
        client, router, pub = sim.nodes["client"], sim.nodes["router"], sim.nodes["pub"]
        captured = []
        router.capture = lambda intent, raw: captured.append((intent, raw))
        dag = serve_bytes(pub, random.Random(3).randbytes(64 * 1024))
        session = client.start_connect(dag)
        sim.wait_for(lambda: session.rx_segments >= 10)
        pub.routes.remove_route(client.ad)  # nothing more of it crosses the router
        (capture,) = router.captures.values()
        last_seen = capture.last_seen
        sim.step(last_seen + sim.idle_timeout_ms)
        assert list(router.captures.values()) == [capture]
        assert capture.last_seen == last_seen and capture.fin_seq is None
        sim.step(last_seen + sim.idle_timeout_ms + 1)
        assert router.captures == {}
        sim.step()
        assert (session.state, session.fail_reason) == ("failed", "transfer-timeout")
        assert captured == []


class TestHandshakeDuality:
    def test_syn_is_the_only_request_shape(self):
        sim = build_simulator(LINE3_TOPO)
        sim.trace = []
        dag = serve_bytes(sim.nodes["pub"], bytes(2048))
        assert run_session(sim.nodes["client"], dag).state == "complete"
        for record in sim.trace:
            kind, flags, intent = record[0], record[6], record[8]
            if kind == "drop":
                continue
            if flags & int(SegFlags.SYN):
                assert intent is not None  # the SYN carries the request
            else:
                assert intent is None  # nothing else resembles a request


class TestSynAckIsAValue:
    """The SYNACK hands its client the reply endpoint as a value, so the
    transport neither writes nor parses URL text."""

    def test_a_transfer_handles_no_url_text(self):
        sim = build_simulator(PAIR_TOPO)
        sim.trace = []
        dag = serve_bytes(sim.nodes["pub"], bytes(3000))
        before = parse_dag_url.cache_info()
        session = run_session(sim.nodes["client"], dag)
        after = parse_dag_url.cache_info()
        assert (session.state, b"".join(session.rx_payloads)) == ("complete", bytes(3000))
        assert after.hits + after.misses == before.hits + before.misses
        synacks = [rec for rec in sim.trace if rec[6] == SegFlags.SYNACK]
        assert synacks and all(rec[9] == 0 for rec in synacks)  # payload length

    def test_netsim_imports_nothing_of_xcache_but_addressing(self):
        imported = set()
        for node in ast.walk(ast.parse(Path(netsim.__file__).read_text())):
            if isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        ours = {name for name in imported if name.startswith(".") or name.split(".")[0] == "xcache"}
        assert ours == {".addressing"}
