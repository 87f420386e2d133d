import ast
import hashlib
import queue
import random
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    LINE3_TOPO,
    PAIR_TOPO,
    disk_record,
    fail_disk_writes,
    fail_in_place_writes,
    flip_disk_entry,
    lone_daemon,
    make_cluster,
    pack_records,
    run_session,
)
import xcache
from xcache import chunking
from xcache.addressing import CONTENT_TYPES, XidType, make_fallback_dag
from xcache.chunking import (
    CHUNK_MAGIC,
    Chunk,
    ChunkError,
    PublisherKey,
    build_cid_chunk,
    compute_cid,
    compute_ncid,
    decode_chunk,
    encode_chunk,
    sign_named,
    verify_cid,
)
from xcache.daemon import (
    CanceledError,
    CertificateRequiredError,
    DaemonConfig,
    FetchError,
    FetchTimeoutError,
    InvalidHandleError,
    NotifEvent,
    PublishError,
    UnroutableError,
    VerificationError,
    XcacheError,
    Xcached,
    parse_config,
)
from xcache.netsim import ForeignThreadError, SegFlags, build_simulator
from xcache.store import LogicalClock, StoreError
from xcache.urls import NcidUrl, canonical_name, parse_dag_url, serialize_dag_url, serialize_ncid_url


def shutdown_all(daemons):
    for daemon in daemons.values():
        daemon.shutdown()


class TestConfig:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg.workers == 4
        assert cfg.cache_policy == "always"

    def test_parse_overrides(self):
        cfg = parse_config(
            """
            workers = 2
            mem_capacity_chunks = 7   # inline comment
            cache_policy = never
            segment_size = 512
            """
        )
        assert cfg.workers == 2
        assert cfg.mem_capacity_chunks == 7
        assert cfg.cache_policy == "never"
        assert cfg.segment_size == 512

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("bogus = 1")

    def test_bad_policy_name(self):
        with pytest.raises(ValueError, match="policy"):
            parse_config("cache_policy = sometimes")

    def test_non_integer_value(self):
        with pytest.raises(ValueError, match="config line 2: invalid literal for int"):
            parse_config("window = 4\nworkers = abc")

    @pytest.mark.parametrize(
        "key, least",
        [
            ("segment_size", 1),
            ("window", 1),
            ("rto_multiplier", 1),
            ("max_payload", 1),
            ("mem_capacity_chunks", 0),
            ("disk_capacity_chunks", 0),
        ],
    )
    def test_a_value_out_of_range_names_its_line(self, key, least):
        assert getattr(parse_config(f"{key} = {least}"), key) == least
        with pytest.raises(ValueError, match=f"^config line 2: {key} must be at least {least}$"):
            parse_config(f"window = 4\n{key} = {least - 1}")

    def test_overrides_apply_to_a_base_config(self):
        base = DaemonConfig(window=3, cache_policy="never")
        cfg = parse_config("workers = 1", base=base)
        assert (cfg.workers, cfg.window, cfg.cache_policy) == (1, 3, "never")
        assert base.workers == 4

    def test_a_daemon_starts_no_thread(self):
        before = threading.active_count()
        daemon = lone_daemon(DaemonConfig(workers=4))
        assert threading.active_count() == before
        daemon.shutdown()
        assert threading.active_count() == before
        assert not hasattr(xcache.daemon, "threading") and not hasattr(xcache.daemon, "queue")


class TestHandles:
    def test_use_after_destroy_errors(self):
        daemon = lone_daemon(DaemonConfig(workers=0))
        handle = daemon.init_handle()
        handle.destroy()
        with pytest.raises(InvalidHandleError):
            handle.put_chunk(b"x", 1000)
        with pytest.raises(InvalidHandleError):
            handle.destroy()
        daemon.shutdown()

    def test_handles_are_independent(self):
        daemon = lone_daemon(DaemonConfig(workers=0))
        h1, h2 = daemon.init_handle(), daemon.init_handle()
        h1.destroy()
        dag = h2.put_chunk(b"still fine", 1000)
        assert h2.fetch_chunk(dag) == b"still fine"
        daemon.shutdown()

    def test_destroy_cancels_pending_fetch(self):
        sim = build_simulator(PAIR_TOPO)
        daemon = Xcached(DaemonConfig(), node=sim.nodes["client"])
        try:
            handle = daemon.init_handle()
            ghost = make_fallback_dag(compute_cid(b"missing"), [sim.nodes["pub"].ad])
            pending = handle.fetch_chunk(ghost, blocking=False)
            handle.destroy()
            with pytest.raises(CanceledError):
                pending.result()
            assert handle._pending == set()
        finally:
            daemon.shutdown()


class TestShutdown:
    def test_a_handle_call_is_refused(self):
        daemon = lone_daemon(DaemonConfig())
        handle = daemon.init_handle()
        daemon.shutdown()
        with pytest.raises(InvalidHandleError):
            handle.put_chunk(b"too late", 60000)

    def test_an_inflight_fetch_is_canceled_and_admits_nothing(self, line3):
        sim, daemons, handles = line3
        client = daemons["client"]
        dag = handles["pub"].put_chunk(b"in flight at shutdown", 60000)
        pending = handles["client"].fetch_chunk(dag, blocking=False)
        client.shutdown()
        with pytest.raises(CanceledError):
            pending.result()
        sim.step()
        assert not client.manager.contains(dag.intent_xid())
        assert client._inflight == {}

    def test_a_transfer_that_ends_after_shutdown_fetches_no_key(self, line3):
        # the named chunk arrives after shutdown, its key not at hand: the
        # fetch ends there instead of starting the key's transfer (the
        # router, which would fetch the key for what it captures, does not
        # cache)
        sim, daemons, handles = line3
        daemons["router"].caching = False
        key = PublisherKey.generate(rng=random.Random(25))
        cert_dag = handles["pub"].put_chunk(key.public, 60000)
        dag = handles["pub"].put_named_content("late/name", b"signed", 60000, key, cert_dag)
        pending = handles["client"].fetch_chunk(dag, blocking=False)
        daemons["client"].shutdown()
        sim.step()
        with pytest.raises(CanceledError):
            pending.result()
        assert sim.nodes["pub"].counters["sessions_served"] == 1

    def test_an_injected_chunk_and_a_sweep_are_refused(self, tmp_path):
        # neither reopens the closed disk tier nor writes to it
        config = DaemonConfig(mem_capacity_chunks=0, disk_capacity_chunks=4, disk_dir=str(tmp_path))
        daemon = lone_daemon(config)
        daemon.init_handle().put_chunk(b"published before", 60000)
        daemon.shutdown()
        planted = build_cid_chunk(b"planted after", 60000)
        with pytest.raises(XcacheError, match="shut down"):
            daemon.inject_unverified_chunk(planted)
        with pytest.raises(XcacheError, match="shut down"):
            daemon.sweep_ttl(10**12)
        assert daemon.manager._disk._file is None
        assert not daemon.manager.contains(planted.id)

    def test_a_shut_down_router_leaves_the_fetch_to_the_origin(self, line3):
        sim, daemons, handles = line3
        router = daemons["router"]
        dag = handles["pub"].put_chunk(b"cached on the way", 60000)
        handles["client"].fetch_chunk(dag)  # the router keeps a copy
        handles["client"].destroy_chunk(dag)
        assert router.manager.contains(dag.intent_xid())
        router.shutdown()
        chunk, stats = daemons["client"].fetch_entry(handles["client"], dag)
        assert (chunk.payload, stats.provider) == (b"cached on the way", "pub")
        assert not sim.nodes["router"].routes.is_local(dag.intent_xid())

    def test_a_restarted_daemon_routes_only_what_its_store_holds(self, tmp_path):
        # the memory tier's chunk is gone after a restart and the disk
        # tier's is reloaded: the node routes exactly the reloaded one
        sim = build_simulator(PAIR_TOPO)
        node = sim.nodes["pub"]
        config = DaemonConfig(mem_capacity_chunks=1, disk_capacity_chunks=4, disk_dir=str(tmp_path))

        def content_routes():
            return {xid for xid in node.routes.locals() if xid.xtype in CONTENT_TYPES}

        pub = Xcached(config, node=node)
        handle = pub.init_handle()
        handle.put_chunk(b"in memory", 60000)
        on_disk = handle.put_chunk(b"spilled to disk", 60000).intent_xid()
        assert len(content_routes()) == 2
        pub.shutdown()
        assert content_routes() == set()
        pub = Xcached(config, node=node)
        try:
            assert content_routes() == set(pub.manager.ids()) == {on_disk}
        finally:
            pub.shutdown()


class TestPublish:
    def test_put_then_remote_fetch(self, line3):
        sim, daemons, handles = line3
        dag = handles["pub"].put_chunk(b"some web object", 60000)
        assert handles["client"].fetch_chunk(dag) == b"some web object"

    def test_put_is_idempotent_for_same_bytes(self, line3):
        _, _, handles = line3
        dag1 = handles["pub"].put_chunk(b"same", 60000)
        dag2 = handles["pub"].put_chunk(b"same", 60000)
        assert dag1 == dag2

    def test_published_address_shape(self, line3):
        sim, _, handles = line3
        dag = handles["pub"].put_chunk(b"shaped", 60000)
        url = serialize_dag_url(dag)
        reparsed = parse_dag_url(url)
        assert reparsed == dag
        assert dag.intent_xid() == compute_cid(b"shaped")
        node = sim.nodes["pub"]
        assert [n.xid for n in dag.nodes] == [node.ad, node.hid, dag.intent_xid()]
        assert dag.source_edges == (2, 0)  # direct edge first, fallback second

    def test_zero_ttl_is_publish_error(self, line3):
        _, _, handles = line3
        with pytest.raises(PublishError):
            handles["pub"].put_chunk(b"x", 0)

    def test_oversize_payload_is_publish_error(self):
        daemon = lone_daemon(DaemonConfig(workers=0, max_payload=64))
        handle = daemon.init_handle()
        with pytest.raises(PublishError):
            handle.put_chunk(b"y" * 100, 1000)
        daemon.shutdown()

    @pytest.mark.parametrize("ttl", [60000.5, 600000.0, True], ids=["fraction", "float", "bool"])
    @pytest.mark.parametrize("disk", [False, True], ids=["memory", "disk"])
    def test_a_ttl_that_is_not_an_int_is_publish_error(self, tmp_path, disk, ttl):
        # the wire format holds a TTL as an unsigned int: such a chunk,
        # once stored, could not be encoded for the disk tier or a fetch
        config = DaemonConfig(mem_capacity_chunks=0, disk_capacity_chunks=4, disk_dir=str(tmp_path))
        daemon = lone_daemon(config if disk else DaemonConfig())
        try:
            handle = daemon.init_handle()
            key = PublisherKey.generate(rng=random.Random(26))
            cert_dag = handle.put_chunk(key.public, 60000)
            with pytest.raises(PublishError, match="not an int"):
                handle.put_chunk(b"plain", ttl)
            with pytest.raises(PublishError, match="not an int"):
                handle.put_named_content("ttl/name", b"signed", ttl, key, cert_dag)
            assert daemon.manager.ids() == [cert_dag.intent_xid()]
        finally:
            daemon.shutdown()


class TestConcurrentFetches:
    def test_a_burst_of_nonblocking_fetches_repeats(self):
        # eight misses in flight at once over lossy links: the sessions
        # start in call order and complete inside event processing, so
        # every run gives the same clock, counts and bytes
        topo = LINE3_TOPO.replace("loss=0.0", "loss=0.05")
        outcomes = set()
        for _ in range(6):
            sim, daemons, handles = make_cluster(topo, config=DaemonConfig(workers=4), seed=7)
            try:
                rng = random.Random(7)
                payloads = [rng.randbytes(5000) for _ in range(8)]
                dags = [handles["pub"].put_chunk(data, 600_000) for data in payloads]
                pendings = [handles["client"].fetch_chunk(dag, blocking=False) for dag in dags]
                assert [pending.result() for pending in pendings] == payloads
                stats = sim.stats
                outcomes.add((sim.now, stats["retransmits"], stats["data_segments_sent"]))
            finally:
                shutdown_all(daemons)
        assert len(outcomes) == 1

    def test_a_fetch_whose_sender_goes_silent_ends_in_simulated_time(self, pair):
        # the client is established but the sender can no longer reach it,
        # so no data segment ever lands: the client's idle timer ends the
        # fetch, and the wait never drains the queue
        sim, daemons, handles = pair
        client_node, pub = sim.nodes["client"], sim.nodes["pub"]
        dag = handles["pub"].put_chunk(b"never delivered", 60000)
        pending = handles["client"].fetch_chunk(dag, blocking=False)
        sim.wait_for(lambda: any(s.state == "established" for s in client_node.sessions.values()))
        pub.routes.remove_route(client_node.ad)
        with pytest.raises(FetchTimeoutError, match="transfer-timeout"):
            pending.result()
        sim.step()
        assert client_node.sessions == {} and pub.sessions == {}
        assert daemons["client"]._inflight == {} and handles["client"]._pending == set()

    def test_a_fault_while_completing_fails_only_that_fetch(self, line3, monkeypatch):
        # one fetch's completion raises inside event processing, while the
        # caller pumps for another fetch: the fault ends only its own fetch,
        # as a FetchError, and never reaches the pumping caller
        sim, daemons, handles = line3
        client = daemons["client"]
        good = handles["pub"].put_chunk(b"good bytes", 60000)
        bad = handles["pub"].put_chunk(b"bad bytes", 60000)
        decode = client._decode

        def faulty(raw):
            chunk = decode(raw)
            if chunk.payload == b"bad bytes":
                raise RuntimeError("decoder fault")
            return chunk

        monkeypatch.setattr(client, "_decode", faulty)
        pending = handles["client"].fetch_chunk(bad, blocking=False)
        assert handles["client"].fetch_chunk(good) == b"good bytes"
        assert pending.done()
        with pytest.raises(FetchError, match="decoder fault"):
            pending.result()
        assert client._inflight == {} and handles["client"]._pending == set()


# The pub's corpus for the burst law: plain chunks, then the key chunk,
# then named chunks signed with that key, which the client fetches or
# has to verify and does not hold at first.
BURST_IDS = 7
BURST_KEY = 4

# One round: how many client handles, the fetches as (handle, id) pairs,
# and the handle destroyed once every fetch is issued, if any.
burst_rounds = st.lists(
    st.tuples(
        st.integers(1, 6),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, BURST_IDS - 1)), min_size=1, max_size=8),
        st.none() | st.integers(0, 5),
    ),
    min_size=1,
    max_size=4,
)


def client_syns(trace):
    """The intent of each session the client opened in ``trace``."""
    syns = {
        (rec[5], rec[8])
        for rec in trace
        if rec[0] == "xmit" and rec[2] == "client" and rec[6] == SegFlags.SYN
    }
    return sorted(intent for _, intent in syns)


def run_bursts(rounds) -> str:
    """Run each round's fetches from LINE3_TOPO's client as one burst,
    every fetch issued non-blocking before any is waited for, and check
    the round's outcome; once the queue has drained, check that nothing
    is left behind.  Returns the hash of the trace."""
    sim, daemons, handles = make_cluster(LINE3_TOPO)
    sim.trace = []
    client = daemons["client"]
    try:
        rng = random.Random(3)
        payloads = [rng.randbytes(rng.choice((200, 1500, 5000))) for _ in range(BURST_IDS)]
        key = PublisherKey.generate(rng=rng)
        payloads[BURST_KEY] = key.public
        dags = [handles["pub"].put_chunk(data, 600_000) for data in payloads[: BURST_KEY + 1]]
        dags += [
            handles["pub"].put_named_content(f"burst/{i}", data, 600_000, key, dags[BURST_KEY])
            for i, data in enumerate(payloads[BURST_KEY + 1 :], start=BURST_KEY + 1)
        ]
        key_text = dags[BURST_KEY].intent_xid().text()
        every_handle = list(handles.values())
        for n_handles, fetches, destroyed in rounds:
            fetchers = [client.init_handle() for _ in range(n_handles)]
            every_handle += fetchers
            # an id still in flight from an earlier round (its leader's
            # handle destroyed) is followed, not fetched again
            missed = {
                dags[i].intent_xid().text()
                for _, i in fetches
                if not client.manager.contains(dags[i].intent_xid())
                and dags[i].intent_xid() not in client._inflight
            }
            start = len(sim.trace)
            issued = []
            for h, i in fetches:
                pending = fetchers[h % n_handles].fetch_chunk(dags[i], blocking=False)
                issued.append((h % n_handles, i, pending, pending.done()))
            if destroyed is not None:
                destroyed %= n_handles
                fetchers[destroyed].destroy()
            for h, i, pending, hit in issued:
                if h == destroyed and not hit:
                    with pytest.raises(CanceledError):
                        pending.result()
                else:
                    assert pending.result() == payloads[i]
            # one session per distinct id the client missed; a named
            # chunk's verification may add one for the key, counted below
            syns = client_syns(sim.trace[start:])
            assert [i for i in syns if i != key_text] == sorted(missed - {key_text})
            assert missed <= set(syns)

        sim.step()  # the last timers release their sessions an idle timeout after they end
        # the client moves the key once: every verification that needs
        # it takes a slot on that one transfer, and the key is kept after
        wanted_key = any(i >= BURST_KEY for _, fetches, _ in rounds for _, i in fetches)
        assert client_syns(sim.trace).count(key_text) == wanted_key
        for name, node in sim.nodes.items():
            daemon = daemons[name]
            assert daemon._inflight == {} and daemon.node.captures == {}, name
            assert node.sessions == {} and node.endpoints == {}, name
            assert node.routes.locals() == {node.ad, node.hid} | set(daemon.manager.ids()), name
        assert all(handle._pending == set() for handle in every_handle)
        return hashlib.sha256(repr(sim.trace).encode()).hexdigest()
    finally:
        shutdown_all(daemons)


class TestBurstLaws:
    @settings(max_examples=150, deadline=None)
    @given(burst_rounds)
    def test_nonblocking_bursts_from_one_thread(self, rounds):
        # each live fetch gets its own id's bytes, a destroyed handle's
        # miss is canceled, the misses coalesce into one session per id
        # that is neither held nor still in flight from an earlier round,
        # nothing is left once the queue drains, and a replay repeats
        assert run_bursts(rounds) == run_bursts(rounds)


def call_from_another_thread(fn):
    """Run ``fn()`` on a second thread; returns the exception it raised,
    or None, passed back through a queue so that none escapes the
    thread."""
    out = queue.Queue()

    def run():
        try:
            fn()
        except Exception as exc:
            out.put(exc)
        else:
            out.put(None)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    return out.get_nowait()


class TestOwnerThread:
    # each takes the client's daemon and one of its handles, and the
    # address of content nobody has asked for yet
    CALLS = {
        "sim.step": lambda daemon, handle, dag: daemon.node.sim.step(),
        "sim.wait_for": lambda daemon, handle, dag: daemon.node.sim.wait_for(lambda: False),
        "sim.schedule": lambda daemon, handle, dag: daemon.node.sim.schedule(0, lambda: None),
        "node.start_connect": lambda daemon, handle, dag: daemon.node.start_connect(dag),
        "handle.put_chunk": lambda daemon, handle, dag: handle.put_chunk(b"x", 60000),
        "handle.fetch_chunk": lambda daemon, handle, dag: handle.fetch_chunk(dag, blocking=False),
        "daemon.init_handle": lambda daemon, handle, dag: daemon.init_handle(),
        "daemon.sweep_ttl": lambda daemon, handle, dag: daemon.sweep_ttl(10**12),
        "daemon.caching": lambda daemon, handle, dag: setattr(daemon, "caching", False),
    }

    @pytest.mark.parametrize("call", CALLS)
    def test_a_call_from_another_thread_is_refused(self, line3, call):
        # a fetch is in flight and the client holds a chunk: the refused
        # call leaves the queue, the fetch, the store and the tap as they were
        sim, daemons, handles = line3
        client, handle = daemons["client"], handles["client"]
        handle.put_chunk(b"held here", 60000)
        wanted = handles["pub"].put_chunk(b"in flight", 60000)
        other = handles["pub"].put_chunk(b"not asked for yet", 60000)
        pending = handle.fetch_chunk(wanted, blocking=False)
        node = client.node
        before = (len(sim._heap), dict(client._inflight), client.manager.ids(), node.capture)
        handles_before = set(client._handles)

        error = call_from_another_thread(lambda: self.CALLS[call](client, handle, other))
        assert isinstance(error, ForeignThreadError)
        assert (len(sim._heap), client._inflight, client.manager.ids(), node.capture) == before
        assert client._handles == handles_before
        assert pending.result() == b"in flight"


class TestFetchPaths:
    def test_fast_path_counters_and_zero_network(self, line3):
        sim, daemons, handles = line3
        dag = handles["client"].put_chunk(b"local bytes", 60000)
        before = dict(daemons["client"].counters)
        sim.trace = []
        assert handles["client"].fetch_chunk(dag) == b"local bytes"
        after = daemons["client"].counters
        assert after["fast_path"] - before.get("fast_path", 0) == 1
        assert after["queued"] - before.get("queued", 0) == 0
        assert sim.trace == []  # no network events at all

    def test_remote_fetch_counters(self, line3):
        sim, daemons, handles = line3
        dag = handles["pub"].put_chunk(b"remote bytes", 60000)
        before = dict(daemons["client"].counters)
        assert handles["client"].fetch_chunk(dag) == b"remote bytes"
        after = daemons["client"].counters
        assert after["queued"] - before.get("queued", 0) == 1
        assert after["fast_path"] - before.get("fast_path", 0) == 0

    def test_stats_count_both_ends_retransmits(self):
        topo = LINE3_TOPO.replace("loss=0.0", "loss=0.05")
        sim, daemons, handles = make_cluster(topo, seed=2, config=DaemonConfig(workers=0))
        try:
            dag = handles["pub"].put_chunk(random.Random(2).randbytes(64 * 1024), 600_000)
            _, stats = daemons["client"].fetch_entry(handles["client"], dag)
            assert stats.retransmits == sim.stats["retransmits"] > 0
        finally:
            shutdown_all(daemons)

    def test_unroutable_fetch(self, line3):
        _, _, handles = line3
        ghost = make_fallback_dag(compute_cid(b"nothing here"), [])
        with pytest.raises(UnroutableError):
            handles["client"].fetch_chunk(ghost)

    def test_nonblocking_fetch_fast_path(self, line3):
        _, _, handles = line3
        dag = handles["client"].put_chunk(b"instant", 60000)
        pending = handles["client"].fetch_chunk(dag, blocking=False)
        assert pending.done()
        assert pending.result() == b"instant"

    def test_nonblocking_fetch_remote(self, line3):
        _, _, handles = line3
        dag = handles["pub"].put_chunk(b"eventually", 60000)
        pending = handles["client"].fetch_chunk(dag, blocking=False)
        assert pending.result() == b"eventually"

    def test_tampered_provider_rejected_and_not_cached(self, line3):
        sim, daemons, handles = line3
        dag = handles["pub"].put_chunk(b"honest bytes", 60000)

        def corrupt_serve(xid):
            blob = bytearray(encode_chunk(daemons["pub"].manager.get(xid)))
            blob[-1] ^= 0xFF  # payload corruption in flight
            return bytes(blob)

        sim.nodes["pub"].serve = corrupt_serve
        with pytest.raises(VerificationError):
            handles["client"].fetch_chunk(dag)
        assert not daemons["client"].manager.contains(dag.intent_xid())
        assert not daemons["router"].manager.contains(dag.intent_xid())

    def test_concurrent_fetches_share_one_session(self, line3):
        # two handles miss on one content before either pumps: the second
        # follows the first's session
        sim, daemons, handles = line3
        dag = handles["pub"].put_chunk(bytes(8000), 60000)
        h2 = daemons["client"].init_handle()
        pendings = [h.fetch_chunk(dag, blocking=False) for h in (handles["client"], h2)]
        assert [pending.result() for pending in pendings] == [bytes(8000)] * 2
        assert sim.nodes["pub"].counters["sessions_served"] == 1

    def test_multiplexed_fetches_get_their_own_content(self, line3):
        sim, daemons, handles = line3
        payloads = {i: f"object number {i}".encode() * 10 for i in range(6)}
        dags = {i: handles["pub"].put_chunk(payloads[i], 60000) for i in payloads}
        pendings = {i: handles["client"].fetch_chunk(dags[i], blocking=False) for i in payloads}
        assert {i: pending.result() for i, pending in pendings.items()} == payloads

    def test_followers_leave_their_handles_pending(self, pair):
        sim, daemons, handles = pair
        dag = handles["pub"].put_chunk(b"asked for twice", 60000)
        h1, h2 = daemons["client"].init_handle(), daemons["client"].init_handle()
        p1 = h1.fetch_chunk(dag, blocking=False)
        p2 = h2.fetch_chunk(dag, blocking=False)
        assert p2.result() == p1.result() == b"asked for twice"
        assert sim.nodes["pub"].counters["sessions_served"] == 1
        assert h1._pending == set() and h2._pending == set()

    @pytest.mark.parametrize("destroy_first", [True, False], ids=["destroyed-before", "destroyed-after"])
    def test_a_fetch_follows_a_canceled_leaders_transfer(self, line3, destroy_first):
        # the first caller's handle is destroyed before its transfer ends,
        # before or after a second caller's fetch of the same id takes a
        # slot on it; the transfer runs on and serves the second caller
        sim, daemons, handles = line3
        client = daemons["client"]
        dag = handles["pub"].put_chunk(b"asked for again", 60000)
        first = client.init_handle()
        pending = first.fetch_chunk(dag, blocking=False)
        if destroy_first:
            first.destroy()
        second = handles["client"].fetch_chunk(dag, blocking=False)
        if not destroy_first:
            first.destroy()
        with pytest.raises(CanceledError):
            pending.result()
        assert second.result() == b"asked for again"
        assert sim.nodes["pub"].counters["sessions_served"] == 1
        assert client._inflight == {}

    @pytest.mark.parametrize("with_key", [False, True], ids=["named-only", "with-key"])
    @pytest.mark.parametrize(
        "topo, served", [(PAIR_TOPO, 3), (LINE3_TOPO, 4)], ids=["pair", "line3"]
    )
    def test_named_chunks_share_their_keys_transfer(self, topo, served, with_key):
        # two named chunks under a key the client does not hold, fetched
        # together, with or without the key itself: each verification
        # takes a slot on the key's one transfer, so the pub serves the
        # two chunks and the key once; over LINE3_TOPO the router, which
        # verifies the chunks it captures, moves the key once more
        sim, daemons, handles = make_cluster(topo)
        try:
            key = PublisherKey.generate(rng=random.Random(5))
            cert_dag = handles["pub"].put_chunk(key.public, 600_000)
            payloads = [f"named {i}".encode() * 50 for i in range(2)]
            dags = [
                handles["pub"].put_named_content(f"shared/{i}", data, 600_000, key, cert_dag)
                for i, data in enumerate(payloads)
            ]
            if with_key:
                dags.append(cert_dag)
                payloads.append(key.public)
            pendings = [handles["client"].fetch_chunk(dag, blocking=False) for dag in dags]
            assert [pending.result() for pending in pendings] == payloads
            sim.step()
            assert sim.nodes["pub"].counters["sessions_served"] == served
            assert daemons["client"].counters["key_fetches"] == 2  # one lookup per verification
            assert all(daemon._inflight == {} for daemon in daemons.values())
        finally:
            shutdown_all(daemons)

    def test_fifo_dequeue_order(self):
        # sessions start in the order their fetches were issued: the
        # client's first SYN of each session names the intents in call order
        sim, daemons, handles = make_cluster(PAIR_TOPO, config=DaemonConfig(workers=1))
        try:
            payloads = {i: f"queued {i}".encode() for i in range(6)}
            dags = {i: handles["pub"].put_chunk(payloads[i], 60000) for i in payloads}
            sim.trace = []
            pendings = [handles["client"].fetch_chunk(dags[i], blocking=False) for i in payloads]
            for i, pending in enumerate(pendings):
                assert pending.result() == payloads[i]
            syn_intents = []
            for kind, _, node, _, _, _, flags, _, intent, _ in sim.trace:
                if kind == "xmit" and node == "client" and flags == SegFlags.SYN:
                    if intent not in syn_intents:
                        syn_intents.append(intent)
            assert syn_intents == [dags[i].intent_xid().text() for i in payloads]
        finally:
            shutdown_all(daemons)


class TestNamedContent:
    def publish_named(self, handles, name="fb.com/cmu", payload=b"timeline bytes", seed=1):
        key = PublisherKey.generate(rng=random.Random(seed))
        cert_dag = handles["pub"].put_chunk(key.public, 600_000)
        content_dag = handles["pub"].put_named_content(name, payload, 600_000, key, cert_dag)
        return key, cert_dag, content_dag

    def test_publish_and_remote_named_fetch(self, line3):
        _, daemons, handles = line3
        key, cert_dag, _ = self.publish_named(handles)
        url = NcidUrl("fb.com/cmu", (("PubCert", serialize_dag_url(cert_dag)),))
        data = handles["client"].get_named_chunk(serialize_ncid_url(url))
        assert data == b"timeline bytes"

    def test_named_publish_requires_key_chunk_first(self, line3):
        _, _, handles = line3
        key = PublisherKey.generate(rng=random.Random(3))
        unpublished_ref = make_fallback_dag(compute_cid(key.public), [])
        with pytest.raises(PublishError, match="not published"):
            handles["pub"].put_named_content("a/name", b"data", 60000, key, unpublished_ref)

    @staticmethod
    def assert_nothing_named(sim, daemons):
        for name, daemon in daemons.items():
            assert all(x.xtype is not XidType.NCID for x in daemon.manager.ids()), name
            assert all(x.xtype is not XidType.NCID for x in sim.nodes[name].routes.locals()), name

    def test_a_key_whose_halves_differ_is_refused(self, pair):
        sim, daemons, handles = pair
        one, two = (PublisherKey.generate(rng=random.Random(s)) for s in (11, 12))
        cert_dag = handles["pub"].put_chunk(one.public, 600_000)
        with pytest.raises((PublishError, ChunkError)):
            mixed = PublisherKey(public=one.public, private=two.private)
            handles["pub"].put_named_content("a/name", b"data", 600_000, mixed, cert_dag)
        self.assert_nothing_named(sim, daemons)

    def test_a_planted_key_chunk_is_refused(self, pair):
        sim, daemons, handles = pair
        key = PublisherKey.generate(rng=random.Random(13))
        planted = Chunk(id=compute_cid(key.public), ttl_ms=600_000, payload=b"not the key")
        daemons["pub"].inject_unverified_chunk(planted)
        cert_dag = sim.nodes["pub"].local_dag_for(planted.id)
        with pytest.raises((PublishError, ChunkError)):
            handles["pub"].put_named_content("a/name", b"data", 600_000, key, cert_dag)
        self.assert_nothing_named(sim, daemons)

    def test_a_key_ref_to_another_keys_chunk_is_refused(self, pair):
        sim, daemons, handles = pair
        key, other = (PublisherKey.generate(rng=random.Random(s)) for s in (14, 15))
        handles["pub"].put_chunk(key.public, 600_000)
        other_dag = handles["pub"].put_chunk(other.public, 600_000)
        with pytest.raises((PublishError, ChunkError)):
            handles["pub"].put_named_content("a/name", b"data", 600_000, key, other_dag)
        self.assert_nothing_named(sim, daemons)

    def test_same_name_two_publishers_distinct_content(self, line3):
        _, _, handles = line3
        key1, cert1, _ = self.publish_named(handles, payload=b"from one", seed=1)
        key2 = PublisherKey.generate(rng=random.Random(2))
        cert2 = handles["pub"].put_chunk(key2.public, 600_000)
        handles["pub"].put_named_content("fb.com/cmu", b"from two", 600_000, key2, cert2)

        assert compute_ncid("fb.com/cmu", key1.fingerprint()) != compute_ncid(
            "fb.com/cmu", key2.fingerprint()
        )
        url1 = serialize_ncid_url(NcidUrl("fb.com/cmu", (("PubCert", serialize_dag_url(cert1)),)))
        url2 = serialize_ncid_url(NcidUrl("fb.com/cmu", (("PubCert", serialize_dag_url(cert2)),)))
        assert handles["client"].get_named_chunk(url1) == b"from one"
        assert handles["client"].get_named_chunk(url2) == b"from two"

    def test_key_ref_to_a_named_address_is_a_verification_failure(self, pair):
        sim, daemons, handles = pair
        key, _, content_dag = self.publish_named(handles)
        name, payload = "fb.com/forged", b"key_ref names a named chunk"
        forged = Chunk(
            id=compute_ncid(name, key.fingerprint()),
            ttl_ms=60000,
            payload=payload,
            name=name,
            key_ref=content_dag,
            fingerprint=key.fingerprint(),
            signature=sign_named(name, payload, key),
        )
        daemons["pub"].inject_unverified_chunk(forged)
        with pytest.raises(VerificationError) as info:
            handles["client"].fetch_chunk(sim.nodes["pub"].local_dag_for(forged.id))
        assert info.value.reason == "key-chunk-invalid"

    def test_multiform_locators_select_representations(self, line3):
        _, _, handles = line3
        key = PublisherKey.generate(rng=random.Random(5))
        cert_dag = handles["pub"].put_chunk(key.public, 600_000)
        cert_url = serialize_dag_url(cert_dag)
        address = "content.facebook.com"
        payloads = {"Android": b"<mobile page>", "Desktop": b"<full page>"}
        for agent, payload in payloads.items():
            name = canonical_name(address, [("UserAgent", agent)])
            handles["pub"].put_named_content(name, payload, 600_000, key, cert_dag)
        for agent, payload in payloads.items():
            url = serialize_ncid_url(
                NcidUrl(address, (("UserAgent", agent), ("PubCert", cert_url)))
            )
            assert handles["client"].get_named_chunk(url) == payload

    def test_wrong_certificate_rejects(self, line3, monkeypatch):
        sim, daemons, handles = line3
        key, cert_dag, content_dag = self.publish_named(handles)
        other_key = PublisherKey.generate(rng=random.Random(9))
        other_cert = handles["pub"].put_chunk(other_key.public, 600_000)

        # a confused/malicious provider serves the real chunk for the
        # mismatched request (certificate fetches stay honest)
        real_chunk = daemons["pub"].manager.get(content_dag.intent_xid())
        wrong_ncid = compute_ncid("fb.com/cmu", other_key.fingerprint())
        honest_serve = daemons["pub"]._serve

        def cross_serve(xid):
            return encode_chunk(real_chunk) if xid == wrong_ncid else honest_serve(xid)

        sim.nodes["pub"].serve = cross_serve
        sim.add_route("client", wrong_ncid, "router")
        sim.add_route("router", wrong_ncid, "pub")
        sim.nodes["pub"].routes.add_local(wrong_ncid)

        url = serialize_ncid_url(
            NcidUrl("fb.com/cmu", (("PubCert", serialize_dag_url(other_cert)),))
        )
        with pytest.raises(VerificationError) as info:
            handles["client"].get_named_chunk(url)
        assert info.value.reason == "ncid-mismatch"

    def test_missing_certificate_source(self, line3):
        _, _, handles = line3
        with pytest.raises(CertificateRequiredError):
            handles["client"].get_named_chunk("ncid://nope/")

    def test_named_fetch_caches_key_and_content(self, line3):
        _, daemons, handles = line3
        key, cert_dag, content_dag = self.publish_named(handles)
        url = serialize_ncid_url(
            NcidUrl("fb.com/cmu", (("PubCert", serialize_dag_url(cert_dag)),))
        )
        handles["client"].get_named_chunk(url)
        assert daemons["client"].manager.contains(cert_dag.intent_xid())
        assert daemons["client"].manager.contains(content_dag.intent_xid())

    def test_never_cache_daemon_admits_no_key_chunk(self, line3):
        _, daemons, handles = line3
        _, cert_dag, _ = self.publish_named(handles)
        daemons["client"].caching = False
        url = serialize_ncid_url(
            NcidUrl("fb.com/cmu", (("PubCert", serialize_dag_url(cert_dag)),))
        )
        assert handles["client"].get_named_chunk(url) == b"timeline bytes"
        assert len(daemons["client"].manager) == 0

    def test_never_cache_daemon_transfers_the_certificate_once(self, line3):
        sim, daemons, handles = line3
        _, cert_dag, _ = self.publish_named(handles)
        daemons["client"].caching = False
        url = serialize_ncid_url(
            NcidUrl("fb.com/cmu", (("PubCert", serialize_dag_url(cert_dag)),))
        )
        assert handles["client"].get_named_chunk(url) == b"timeline bytes"
        # one session for the certificate, one for the named chunk
        assert sum(node.counters["sessions_served"] for node in sim.nodes.values()) == 2
        assert daemons["client"].counters["key_fetches"] == 1

    # Pinned from the daemon as it stood when the key's transfer ran on the
    # caller's thread after the named chunk's transfer had returned.  The
    # key's session now starts inside the event that ends the named
    # chunk's session, after that event's last ACK, and leaves this trace.
    # The hash was re-pinned when the SYNACK's payload text became a
    # segment field: it equals the older trace's hash with every SYNACK
    # record's payload length set to 0.
    PINNED_KEY_AFTER_CHUNK = (
        470,
        4,
        11,
        "196276e2832ec2353a20ff3a1ed55900f3a8623a54859dee5d4b02e70789433b",
    )

    def test_a_key_fetched_after_its_named_chunk_is_pinned(self):
        topo = PAIR_TOPO.replace("loss=0.0", "loss=0.05")
        sim, daemons, handles = make_cluster(topo, seed=31)
        try:
            sim.trace = []
            key = PublisherKey.generate(rng=random.Random(31))
            cert_dag = handles["pub"].put_chunk(key.public, 600_000)
            payload = random.Random(31).randbytes(6000)
            content_dag = handles["pub"].put_named_content(
                "pinned/name", payload, 600_000, key, cert_dag
            )
            # fetched by its address, with no certificate at hand
            chunk, _ = daemons["client"].fetch_entry(handles["client"], content_dag)
            assert chunk.payload == payload
            assert daemons["client"].manager.contains(cert_dag.intent_xid())
            assert daemons["client"].counters["key_fetches"] == 1
            sim.step()
            digest = hashlib.sha256(repr(sim.trace).encode()).hexdigest()
            observed = (sim.now, sim.stats["retransmits"], sim.stats["data_segments_sent"], digest)
            assert observed == self.PINNED_KEY_AFTER_CHUNK
        finally:
            shutdown_all(daemons)

    def test_exactly_one_key_fetch_per_verification(self, line3):
        _, daemons, handles = line3
        key, cert_dag, _ = self.publish_named(handles)
        url = serialize_ncid_url(
            NcidUrl("fb.com/cmu", (("PubCert", serialize_dag_url(cert_dag)),))
        )
        before = daemons["client"].counters.get("key_fetches", 0)
        handles["client"].get_named_chunk(url)
        assert daemons["client"].counters["key_fetches"] - before == 1

    def test_a_publish_verifies_no_signature(self, pair, monkeypatch):
        _, _, handles = pair
        checked = []
        real = chunking.verify_named_signature
        monkeypatch.setattr(
            chunking, "verify_named_signature", lambda *args: checked.append(args) or real(*args)
        )
        key, cert_dag, _ = self.publish_named(handles)
        for i in range(3):
            handles["pub"].put_named_content(f"more/{i}", b"bytes", 600_000, key, cert_dag)
        assert checked == []


class TestDiskTier:
    TTL = 600_000

    @staticmethod
    def disk_config(directory):
        return DaemonConfig(mem_capacity_chunks=0, disk_capacity_chunks=32, disk_dir=str(directory))

    def test_a_full_disk_refuses_a_publish(self, monkeypatch, tmp_path):
        daemon = lone_daemon(self.disk_config(tmp_path))
        try:
            handle = daemon.init_handle()
            fail_disk_writes(monkeypatch, torn=True)
            with pytest.raises(PublishError):
                handle.put_chunk(b"no room", self.TTL)
            assert daemon.manager.ids() == []
            assert daemon.node.routes.locals() == {daemon.node.ad, daemon.node.hid}
            # the failed append was cut back: not a byte of it stays
            assert sum(path.stat().st_size for path in tmp_path.iterdir()) == 0
        finally:
            daemon.shutdown()

    def test_a_full_disk_client_gets_its_bytes_uncached(self, monkeypatch, tmp_path):
        sim = build_simulator(PAIR_TOPO)
        pub = Xcached(DaemonConfig(), node=sim.nodes["pub"])
        client = Xcached(self.disk_config(tmp_path), node=sim.nodes["client"])
        try:
            dag = pub.init_handle().put_chunk(b"fetched, not kept", self.TTL)
            fail_disk_writes(monkeypatch)
            reader = client.init_handle()
            for _ in range(2):  # nothing was kept, so the second fetch goes out again
                chunk, stats = client.fetch_entry(reader, dag)
                assert (chunk.payload, stats.provider) == (b"fetched, not kept", "pub")
            assert not client.manager.contains(dag.intent_xid())
            assert not client.node.routes.is_local(dag.intent_xid())
            assert client._inflight == {}
        finally:
            pub.shutdown()
            client.shutdown()

    def test_a_full_disk_router_forwards_what_it_cannot_cache(self, monkeypatch, tmp_path):
        sim = build_simulator(LINE3_TOPO)
        daemons = {
            name: Xcached(DaemonConfig(), node=sim.nodes[name]) for name in ("client", "pub")
        }
        router = daemons["router"] = Xcached(self.disk_config(tmp_path), node=sim.nodes["router"])
        try:
            dag = daemons["pub"].init_handle().put_chunk(bytes(range(256)) * 12, self.TTL)
            fail_disk_writes(monkeypatch)
            sim.trace = []
            chunk, stats = daemons["client"].fetch_entry(daemons["client"].init_handle(), dag)
            assert (chunk.payload, stats.provider) == (bytes(range(256)) * 12, "pub")
            sim.step()  # the client's last ACKs are still on the way
            # every segment handed to the router went on toward its next hop
            arrived = [r for r in sim.trace if r[0] == "xmit" and r[3] == "router"]
            sent_on = [r for r in sim.trace if r[2] == "router" and r[0] in ("xmit", "drop")]
            assert len(sent_on) == len(arrived)
            assert not router.manager.contains(dag.intent_xid())
            assert not router.node.routes.is_local(dag.intent_xid())
            assert router.node.captures == {}
        finally:
            shutdown_all(daemons)

    def test_evictions_made_for_a_failed_write_are_reported(self, monkeypatch, tmp_path):
        config = DaemonConfig(mem_capacity_chunks=0, disk_capacity_chunks=2, disk_dir=str(tmp_path))
        daemon = lone_daemon(config)
        try:
            handle = daemon.init_handle()
            seen = []
            handle.register_notif(NotifEvent.CHUNK_EVICTED, lambda h, n: seen.append(n))
            oldest = handle.put_chunk(b"first", self.TTL).intent_xid()
            kept = handle.put_chunk(b"second", self.TTL).intent_xid()
            fail_disk_writes(monkeypatch)
            with pytest.raises(PublishError):
                handle.put_chunk(b"third", self.TTL)  # evicts the oldest, then fails
            assert daemon.manager.ids() == [kept]
            assert daemon.node.routes.locals() == {daemon.node.ad, daemon.node.hid, kept}
            assert handle.process_notif() == 1
            assert [n.addr.intent_xid() for n in seen] == [oldest]
            assert [r.xid for r in pack_records(tmp_path)] == [kept]
        finally:
            daemon.shutdown()

    def test_a_destroy_whose_kill_fails_keeps_the_chunk_and_its_route(self, monkeypatch, tmp_path):
        daemon = lone_daemon(self.disk_config(tmp_path))
        try:
            handle = daemon.init_handle()
            dag = handle.put_chunk(b"stuck on disk", self.TTL)
            with pytest.MonkeyPatch.context() as patch:
                fail_in_place_writes(patch)
                with pytest.raises(StoreError):
                    handle.destroy_chunk(dag)
            assert daemon.manager.contains(dag.intent_xid())
            assert daemon.node.routes.is_local(dag.intent_xid())
            assert handle.fetch_chunk(dag) == b"stuck on disk"
            handle.destroy_chunk(dag)  # the disk works again
            assert pack_records(tmp_path) == []
        finally:
            daemon.shutdown()

    def test_a_failed_republish_withdraws_the_replaced_route(self, monkeypatch, tmp_path):
        # the old version is dropped before the new one's write fails, so
        # the node must stop serving the name
        daemon = lone_daemon(self.disk_config(tmp_path))
        try:
            handle = daemon.init_handle()
            seen = []
            handle.register_notif(NotifEvent.CHUNK_EVICTED, lambda h, n: seen.append(n))
            key = PublisherKey.generate(rng=random.Random(24))
            cert_dag = handle.put_chunk(key.public, self.TTL)
            xid = handle.put_named_content("page", b"v1", self.TTL, key, cert_dag).intent_xid()
            fail_disk_writes(monkeypatch)
            with pytest.raises(PublishError):
                handle.put_named_content("page", b"v2", self.TTL, key, cert_dag)
            assert daemon.manager.contains(xid) == daemon.node.routes.is_local(xid)
            assert not daemon.manager.contains(xid)
            assert handle.process_notif() == 1
            assert [n.addr.intent_xid() for n in seen] == [xid]
        finally:
            daemon.shutdown()

    def test_a_reopened_daemon_serves_its_disk_tier(self, tmp_path):
        sim = build_simulator(PAIR_TOPO)
        pub = Xcached(self.disk_config(tmp_path), node=sim.nodes["pub"])
        dag = pub.init_handle().put_chunk(b"kept on disk", self.TTL)
        pub.shutdown()

        sim = build_simulator(PAIR_TOPO)
        pub = Xcached(self.disk_config(tmp_path), node=sim.nodes["pub"])
        client = Xcached(DaemonConfig(), node=sim.nodes["client"])
        try:
            assert sim.nodes["pub"].routes.is_local(dag.intent_xid())
            chunk, stats = client.fetch_entry(client.init_handle(), dag)
            assert (chunk.payload, stats.provider) == (b"kept on disk", "pub")
        finally:
            pub.shutdown()
            client.shutdown()

    def test_only_a_disk_hit_is_verified(self, monkeypatch, tmp_path):
        calls = []
        real = Xcached.verify
        monkeypatch.setattr(Xcached, "verify", lambda *args: calls.append(args) or real(*args))
        memory = lone_daemon(DaemonConfig())
        disk = lone_daemon(self.disk_config(tmp_path))
        try:
            for daemon in (memory, disk):
                handle = daemon.init_handle()
                dag = handle.put_chunk(b"held here", self.TTL)
                assert handle.fetch_chunk(dag) == b"held here"
            assert [args[0] for args in calls] == [disk]
        finally:
            memory.shutdown()
            disk.shutdown()

    @pytest.mark.parametrize("named", [False, True], ids=["cid", "ncid"])
    def test_a_tampered_disk_hit_is_dropped(self, tmp_path, named):
        daemon = lone_daemon(self.disk_config(tmp_path))
        try:
            handle = daemon.init_handle()
            if named:
                key = PublisherKey.generate(rng=random.Random(21))
                cert_dag = handle.put_chunk(key.public, self.TTL)
                dag = handle.put_named_content("on/disk", b"signed", self.TTL, key, cert_dag)
            else:
                dag = handle.put_chunk(b"hashed", self.TTL)
            xid = dag.intent_xid()
            flip_disk_entry(tmp_path, xid, -1)  # the payload's last byte
            with pytest.raises(VerificationError) as info:
                handle.fetch_chunk(dag)
            assert info.value.reason == ("signature-invalid" if named else "hash-mismatch")
            assert not daemon.manager.contains(xid)
            assert not daemon.node.routes.is_local(xid)
        finally:
            daemon.shutdown()

    @pytest.mark.parametrize("named", [False, True], ids=["chunk", "key"])
    def test_an_unreadable_disk_entry_takes_its_route_with_it(self, tmp_path, named):
        # the store drops an entry whose record no longer decodes; its local
        # route goes too, so a lone node refuses the fetch before a SYN
        # leaves instead of waiting out a handshake toward itself
        daemon = lone_daemon(self.disk_config(tmp_path))
        try:
            handle = daemon.init_handle()
            dag = unreadable = handle.put_chunk(b"on disk", self.TTL)
            if named:
                key = PublisherKey.generate(rng=random.Random(23))
                unreadable = handle.put_chunk(key.public, self.TTL)
                dag = handle.put_named_content("on/disk", b"signed", self.TTL, key, unreadable)
            xid = unreadable.intent_xid()
            flip_disk_entry(tmp_path, xid, disk_record(tmp_path, xid).index(CHUNK_MAGIC))
            sim = daemon.node.sim
            before = sim.now
            with pytest.raises(UnroutableError):
                handle.fetch_chunk(dag)
            assert sim.now == before
            assert not daemon.node.routes.is_local(xid)
            assert daemon.node.sessions == {}
        finally:
            daemon.shutdown()

    def test_a_named_disk_hit_whose_key_was_evicted_fetches_the_key(self, tmp_path):
        sim = build_simulator(PAIR_TOPO)
        pub = Xcached(DaemonConfig(), node=sim.nodes["pub"])
        config = DaemonConfig(mem_capacity_chunks=0, disk_capacity_chunks=3, disk_dir=str(tmp_path))
        client = Xcached(config, node=sim.nodes["client"])
        try:
            publisher, reader = pub.init_handle(), client.init_handle()
            key = PublisherKey.generate(rng=random.Random(22))
            cert_dag = publisher.put_chunk(key.public, self.TTL)
            dag = publisher.put_named_content("kept/name", b"signed", self.TTL, key, cert_dag)
            client.fetch_entry(reader, dag)  # admits the key, then the named chunk
            for i in range(2):  # the key is the least recently used: evicted first
                reader.fetch_chunk(publisher.put_chunk(bytes([i]) * 10, self.TTL))
            assert not client.manager.contains(cert_dag.intent_xid())
            assert client.manager.placement(dag.intent_xid()) == "disk"
            chunk, stats = client.fetch_entry(reader, dag)
            assert (chunk.payload, stats.provider) == (b"signed", "local")
            assert client.manager.contains(cert_dag.intent_xid())
        finally:
            pub.shutdown()
            client.shutdown()

    @settings(max_examples=40, deadline=None)
    @given(
        plain=st.lists(st.binary(max_size=48), max_size=3),
        named=st.lists(st.binary(max_size=48), max_size=3),
        key_seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_no_tampered_bytes_reach_a_caller(self, plain, named, key_seed, data):
        # a byte flipped anywhere in one record of a reopened store's
        # pack: every fetch returns the published bytes or fails, and only
        # the tampered chunk and the named chunks its key signs may fail.
        # A flip that leaves a record unreadable as its chunk makes a
        # miss, which a lone node cannot serve
        assume(plain or named)
        with tempfile.TemporaryDirectory() as work:
            config = self.disk_config(work)
            daemon = lone_daemon(config)
            handle = daemon.init_handle()
            published, signed_by = {}, {}
            for payload in plain:
                published[handle.put_chunk(payload, self.TTL)] = payload
            if named:
                key = PublisherKey.generate(rng=random.Random(key_seed))
                cert_dag = handle.put_chunk(key.public, self.TTL)
                published[cert_dag] = key.public
                for i, payload in enumerate(named):
                    dag = handle.put_named_content(f"n/{i}", payload, self.TTL, key, cert_dag)
                    published[dag] = payload
                    signed_by[dag.intent_xid()] = cert_dag.intent_xid()
            daemon.shutdown()

            daemon = lone_daemon(config)
            handle = daemon.init_handle()
            victim = data.draw(st.sampled_from(pack_records(work)))
            flip_disk_entry(
                work,
                victim.xid,
                data.draw(st.integers(0, victim.length - 1)),
                data.draw(st.integers(1, 255)),
            )
            try:
                for dag in data.draw(st.permutations(list(published))):
                    xid = dag.intent_xid()
                    key = signed_by.get(xid)
                    affected = victim.xid in (xid, key)
                    try:
                        chunk, _ = daemon.fetch_entry(handle, dag)
                    except (VerificationError, FetchTimeoutError, UnroutableError):
                        assert affected
                    else:
                        assert chunk.payload == published[dag]
            finally:
                daemon.shutdown()


class TestOneVerificationPath:
    VERIFIERS = {"verify_cid", "verify_ncid", "verify_ncid_via"}

    @staticmethod
    def references(tree, scope=()):
        """Every name or attribute the tree reads, with the qualified name
        of the function or class it is read in."""
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from TestOneVerificationPath.references(node, scope + (node.name,))
                continue
            if isinstance(node, ast.Name):
                yield ".".join(scope), node.id
            elif isinstance(node, ast.Attribute):
                yield ".".join(scope), node.attr
            yield from TestOneVerificationPath.references(node, scope)

    def test_only_xcached_verify_calls_the_chunk_checks(self):
        source = Path(xcache.__file__).parent
        for path in sorted(source.glob("*.py")):
            if path.name == "chunking.py":
                continue
            for scope, name in self.references(ast.parse(path.read_text())):
                if name in self.VERIFIERS:
                    assert (path.name, scope) == ("daemon.py", "Xcached.verify"), (path.name, scope)
                if path.name == "cli.py":
                    assert not name.startswith("verify"), (scope, name)


class TestOneTransferRoutine:
    def test_one_session_step_and_one_inflight_writer(self):
        # a session starts only in the step ``_connect``; a transfer is
        # entered in ``_inflight`` only by ``_attach``, and ``_finish``
        # only takes it out
        tree = ast.parse(Path(xcache.daemon.__file__).read_text())
        refs = list(TestOneVerificationPath.references(tree))
        assert {scope for scope, name in refs if name == "start_connect"} == {"Xcached._connect"}
        users = {scope for scope, name in refs if name == "_inflight"}
        assert users == {"Xcached.__init__", "Xcached._attach", "Xcached._finish"}
        finish = next(
            fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "_finish"
        )
        code = ast.unparse(finish)
        assert code.count("self._inflight") == code.count("self._inflight.pop(") == 1

    def test_the_daemon_knows_no_segment(self):
        # segment flags and sequence numbers, and with them the
        # reassembly of forwarded sessions, belong to netsim alone
        tree = ast.parse(Path(xcache.daemon.__file__).read_text())
        from_netsim = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "netsim"
            for alias in node.names
        }
        assert from_netsim == {"NetNode", "NoRouteError", "SimStalledError"}
        source = Path(xcache.__file__).parent
        for path in sorted(source.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and node.attr in ("seq", "flags"):
                    assert path.name == "netsim.py", (path.name, node.lineno, node.attr)

    def test_the_store_alone_writes_content_routes(self):
        # netsim routes a node's own AD and HID and each session end's
        # SID, and withdraws the route of content its owner declines to
        # serve; every other local route is the storage manager's, and
        # the daemon writes none
        netsim = {
            ("netsim.py", "NetNode.__init__"),
            ("netsim.py", "NetNode._on_content_syn"),
            ("netsim.py", "_Session.__init__"),
            ("netsim.py", "_Session._release"),
        }
        source = Path(xcache.__file__).parent
        for path in sorted(source.glob("*.py")):
            for scope, name in TestOneVerificationPath.references(ast.parse(path.read_text())):
                if name in ("add_local", "remove_local"):
                    where = (path.name, scope)
                    assert where in netsim or (
                        path.name == "store.py" and scope.startswith("StorageManager.")
                    ), where


class TestSignatureMemo:
    """Each daemon remembers the publisher signatures it accepted, so a
    byte-identical named chunk met again costs no second Ed25519 check."""

    TTL = 600_000

    @staticmethod
    def publish(handle, payload=b"signed once"):
        key = PublisherKey.generate(rng=random.Random(31))
        cert_dag = handle.put_chunk(key.public, TestSignatureMemo.TTL)
        return handle.put_named_content("memo/name", payload, TestSignatureMemo.TTL, key, cert_dag)

    def test_a_named_chunk_fetched_again_is_verified_once(self, pair, ed25519_verifies):
        _, daemons, handles = pair
        dag = self.publish(handles["pub"])
        for _ in range(2):
            assert handles["client"].fetch_chunk(dag) == b"signed once"
            handles["client"].destroy_chunk(dag)
        assert len(ed25519_verifies) == 1
        assert len(daemons["client"]._signatures) == 1

    def test_a_daemon_on_the_path_verifies_for_itself(self, line3, ed25519_verifies):
        _, daemons, handles = line3
        dag = self.publish(handles["pub"])
        assert handles["client"].fetch_chunk(dag) == b"signed once"
        assert daemons["router"].manager.contains(dag.intent_xid())  # captured and verified
        assert len(ed25519_verifies) == 2
        assert daemons["router"]._signatures == daemons["client"]._signatures
        assert daemons["router"]._signatures is not daemons["client"]._signatures

    def test_a_disk_file_changed_after_a_clean_read_is_rejected(self, tmp_path, ed25519_verifies):
        daemon = lone_daemon(TestDiskTier.disk_config(tmp_path))
        try:
            handle = daemon.init_handle()
            dag = self.publish(handle)
            xid = dag.intent_xid()
            for _ in range(2):  # verified, then remembered
                assert handle.fetch_chunk(dag) == b"signed once"
            assert len(ed25519_verifies) == 1
            flip_disk_entry(tmp_path, xid, -1)
            with pytest.raises(VerificationError) as info:
                handle.fetch_chunk(dag)
            assert info.value.reason == "signature-invalid"
            assert len(ed25519_verifies) == 2
            assert not daemon.manager.contains(xid)
            assert not daemon.node.routes.is_local(xid)
        finally:
            daemon.shutdown()


class TestDestroy:
    def test_destroy_then_local_fetch_unroutable(self, line3):
        _, _, handles = line3
        dag = handles["pub"].put_chunk(b"short lived", 60000)
        handles["pub"].destroy_chunk(dag)
        with pytest.raises(UnroutableError):
            handles["pub"].fetch_chunk(dag)

    def test_destroy_twice_is_fine(self, line3):
        _, _, handles = line3
        dag = handles["pub"].put_chunk(b"gone soon", 60000)
        handles["pub"].destroy_chunk(dag)
        handles["pub"].destroy_chunk(dag)

    def test_destroy_does_not_purge_remote_copies(self, line3):
        sim, daemons, handles = line3
        daemons["client"].caching = False
        dag = handles["pub"].put_chunk(b"replicated", 60000)
        handles["client"].fetch_chunk(dag)  # router caches on path
        handles["pub"].destroy_chunk(dag)
        data = handles["client"].fetch_chunk(dag)
        assert data == b"replicated"
        assert daemons["router"].manager.contains(dag.intent_xid())


class TestNotifications:
    def test_eviction_notification_via_lru(self, pair):
        sim, daemons, handles = pair
        small = lone_daemon(DaemonConfig(workers=0, mem_capacity_chunks=2))
        try:
            handle = small.init_handle()
            seen = []
            handle.register_notif(NotifEvent.CHUNK_EVICTED, lambda h, n: seen.append(n))
            dag_a = handle.put_chunk(b"aaa", 60000)
            handle.put_chunk(b"bbb", 60000)
            handle.put_chunk(b"ccc", 60000)  # evicts the oldest
            assert handle.process_notif() == 1
            assert seen[0].event is NotifEvent.CHUNK_EVICTED
            assert seen[0].addr.intent_xid() == dag_a.intent_xid()
        finally:
            small.shutdown()

    def test_arrival_notification_on_opportunistic_cache(self, line3):
        sim, daemons, handles = line3
        daemons["client"].caching = False
        router_handle = daemons["router"].init_handle()
        seen = []
        router_handle.register_notif(NotifEvent.CHUNK_ARRIVED, lambda h, n: seen.append(n))
        dag = handles["pub"].put_chunk(b"drive-by", 60000)
        handles["client"].fetch_chunk(dag)
        router_handle.process_notif()
        assert [n.addr.intent_xid() for n in seen] == [dag.intent_xid()]

    def test_unregistered_events_are_dropped(self, pair):
        _, daemons, handles = pair
        handles["pub"].put_chunk(b"quiet", 60000)
        assert handles["pub"].process_notif() == 0

    def test_handlers_called_in_registration_order(self):
        daemon = lone_daemon(DaemonConfig(workers=0, mem_capacity_chunks=1))
        try:
            handle = daemon.init_handle()
            calls = []
            handle.register_notif(NotifEvent.CHUNK_EVICTED, lambda h, n: calls.append("first"))
            handle.register_notif(NotifEvent.CHUNK_EVICTED, lambda h, n: calls.append("second"))
            handle.put_chunk(b"one", 60000)
            handle.put_chunk(b"two", 60000)
            handle.process_notif()
            assert calls == ["first", "second"]
        finally:
            daemon.shutdown()

    def test_a_handler_may_fetch_what_was_evicted(self):
        # process_notif runs handlers on the owner thread, so one may call
        # the daemon: the client's one memory slot evicts the first chunk,
        # and the handler fetches it again (evicting the second in turn)
        sim = build_simulator(PAIR_TOPO)
        pub = Xcached(DaemonConfig(), node=sim.nodes["pub"])
        client = Xcached(DaemonConfig(mem_capacity_chunks=1), node=sim.nodes["client"])
        try:
            publisher, handle = pub.init_handle(), client.init_handle()
            dags = [publisher.put_chunk(data, 60000) for data in (b"one", b"two")]
            published = {dag.intent_xid(): dag for dag in dags}
            got = []

            def fetch_again(h, notif):
                if not got:
                    got.append(h.fetch_chunk(published[notif.addr.intent_xid()]))

            handle.register_notif(NotifEvent.CHUNK_EVICTED, fetch_again)
            for dag in dags:
                handle.fetch_chunk(dag)
            assert handle.process_notif() == 2
            assert got == [b"one"]
            assert client.manager.ids() == [dags[0].intent_xid()]
        finally:
            pub.shutdown()
            client.shutdown()

    def test_an_eviction_address_names_the_chunk_but_cannot_fetch_it(self):
        # the notification's address routes only to the evicting node,
        # which no longer holds the chunk; the published address still works
        sim = build_simulator(PAIR_TOPO)
        pub = Xcached(DaemonConfig(), node=sim.nodes["pub"])
        client = Xcached(DaemonConfig(mem_capacity_chunks=1), node=sim.nodes["client"])
        try:
            publisher, handle = pub.init_handle(), client.init_handle()
            dags = [publisher.put_chunk(data, 60000) for data in (b"one", b"two")]
            seen = []
            handle.register_notif(NotifEvent.CHUNK_EVICTED, lambda h, n: seen.append(n))
            for dag in dags:
                handle.fetch_chunk(dag)
            assert handle.process_notif() == 1
            (notif,) = seen
            assert notif.addr.intent_xid() is dags[0].intent_xid()
            with pytest.raises(UnroutableError):
                handle.fetch_chunk(notif.addr)
            assert handle.fetch_chunk(dags[0]) == b"one"
        finally:
            pub.shutdown()
            client.shutdown()

    def test_ttl_sweep_emits_one_eviction(self):
        clock = LogicalClock()
        daemon = lone_daemon(DaemonConfig(workers=0), clock=clock)
        try:
            handle = daemon.init_handle()
            seen = []
            handle.register_notif(NotifEvent.CHUNK_EVICTED, lambda h, n: seen.append(n))
            handle.put_chunk(b"fleeting", 100)
            clock.set(99)
            assert daemon.sweep_ttl() == []
            clock.set(101)
            expired = daemon.sweep_ttl()
            assert len(expired) == 1
            handle.process_notif()
            assert len(seen) == 1
        finally:
            daemon.shutdown()


class TestOpportunisticCaching:
    def test_always_cache_moves_provider_to_router(self, line3):
        sim, daemons, handles = line3
        daemons["client"].caching = False
        dag = handles["pub"].put_chunk(b"popular object", 60000)
        chunk1, stats1 = daemons["client"].fetch_entry(handles["client"], dag)
        chunk2, stats2 = daemons["client"].fetch_entry(handles["client"], dag)
        assert chunk1.payload == chunk2.payload == b"popular object"
        assert (stats1.provider, stats1.hops) == ("pub", 2)
        assert (stats2.provider, stats2.hops) == ("router", 1)
        assert sim.nodes["pub"].counters["sessions_served"] == 1

    def test_never_cache_router_stores_nothing(self, line3):
        sim, daemons, handles = line3
        daemons["client"].caching = False
        daemons["router"].caching = False
        dag = handles["pub"].put_chunk(b"one-off object", 60000)
        _, stats1 = daemons["client"].fetch_entry(handles["client"], dag)
        _, stats2 = daemons["client"].fetch_entry(handles["client"], dag)
        assert stats1.provider == stats2.provider == "pub"
        assert sim.nodes["pub"].counters["sessions_served"] == 2
        assert len(daemons["router"].manager) == 0

    def test_lossy_path_reassembles_correctly(self):
        topo = LINE3_TOPO.replace("loss=0.0", "loss=0.1")
        sim, daemons, handles = make_cluster(topo, seed=21)
        try:
            daemons["client"].caching = False
            payload = random.Random(21).randbytes(32 * 1024)
            dag = handles["pub"].put_chunk(payload, 600_000)
            assert handles["client"].fetch_chunk(dag) == payload
            cached = daemons["router"].manager.get(dag.intent_xid())
            assert cached is not None
            assert hashlib.sha256(cached.payload).digest() == hashlib.sha256(payload).digest()
        finally:
            shutdown_all(daemons)

    def test_a_daemon_that_does_not_cache_installs_no_tap(self, line3):
        never = lone_daemon(DaemonConfig(cache_policy="never"))
        assert never.caching is False and never.node.capture is None
        router = line3[1]["router"]
        assert router.node.capture is not None
        router.caching = False
        assert router.node.capture is None
        router.caching = True
        assert router.node.capture is not None

    def test_caching_turned_off_mid_session_admits_nothing(self, line3):
        sim, daemons, handles = line3
        router = daemons["router"]
        daemons["client"].caching = False
        payload = random.Random(6).randbytes(8 * 1024)
        dag = handles["pub"].put_chunk(payload, 600_000)
        pending = handles["client"].fetch_chunk(dag, blocking=False)
        # the SYNACK and a data segment have crossed the router; the FIN has not
        sim.wait_for(lambda: any(buf.segments for buf in router.node.captures.values()))
        router.caching = False
        assert router.node.captures == {}
        assert pending.result() == payload
        sim.step()
        assert not router.manager.contains(dag.intent_xid())
        assert not router.node.routes.is_local(dag.intent_xid())
        assert router.node.captures == {} and router._inflight == {}

    def test_unfinished_ingest_buffer_expires(self):
        sim, daemons, handles = make_cluster(LINE3_TOPO, max_retries=4)
        try:
            client, pub = sim.nodes["client"], sim.nodes["pub"]
            big = handles["pub"].put_chunk(random.Random(5).randbytes(64 * 1024), 600_000)
            small = handles["pub"].put_chunk(b"the next session", 600_000)
            stalled = client.start_connect(big)
            sim.wait_for(lambda: stalled.rx_segments >= 10)
            assert set(daemons["router"].node.captures) == {stalled.session_id}
            pub.routes.remove_route(client.ad)  # no FIN will cross the router
            sim.wait_for(lambda: stalled.state in ("complete", "failed"))
            assert (stalled.state, stalled.fail_reason) == ("failed", "transfer-timeout")
            # dropped an idle timeout after its last segment, although no
            # capture has come since
            assert daemons["router"].node.captures == {}
            sim.step(sim.now + sim.idle_timeout_ms + 1)

            pub.routes.add_route(client.ad, "router")
            fresh = client.start_connect(small)
            sim.wait_for(lambda: fresh.state != "syn-sent")
            assert fresh.state == "established"
            assert set(daemons["router"].node.captures) == {fresh.session_id}
            sim.wait_for(lambda: fresh.state in ("complete", "failed"))
            assert fresh.state == "complete"
            assert decode_chunk(b"".join(fresh.rx_payloads)).payload == b"the next session"
            assert daemons["router"].node.captures == {}
        finally:
            shutdown_all(daemons)

    def publish_key_held_by_the_client(self, handles):
        # the client holds its own copy of the certificate, so it never
        # crosses the router and is not on the router when the named
        # chunk flies past
        key = PublisherKey.generate(rng=random.Random(11))
        cert_dag = handles["pub"].put_chunk(key.public, 600_000)
        handles["client"].put_chunk(key.public, 600_000)
        content_dag = handles["pub"].put_named_content(
            "news/front", b"headline bytes", 600_000, key, cert_dag
        )
        return cert_dag, content_dag

    def test_named_chunk_ingest_with_deferred_key_fetch(self, line3):
        # the router's verification fetches the key first: its session
        # starts when the capture completes, and the chunk is admitted in
        # the event that ends it
        sim, daemons, handles = line3
        router = daemons["router"]
        daemons["client"].caching = False
        cert_dag, content_dag = self.publish_key_held_by_the_client(handles)
        url = serialize_ncid_url(
            NcidUrl("news/front", (("PubCert", serialize_dag_url(cert_dag)),))
        )
        assert handles["client"].get_named_chunk(url) == b"headline bytes"
        assert not router.manager.contains(content_dag.intent_xid())
        sim.step()
        assert router.manager.contains(content_dag.intent_xid())
        assert router.manager.contains(cert_dag.intent_xid())
        assert router.counters["key_fetches"] == 1
        assert router._inflight == {} and router.node.captures == {}

    def test_a_failed_deferred_key_fetch_admits_nothing(self, line3):
        sim, daemons, handles = line3
        router = daemons["router"]
        daemons["client"].caching = False
        cert_dag, content_dag = self.publish_key_held_by_the_client(handles)
        pending = handles["client"].fetch_chunk(content_dag, blocking=False)
        # the data segment has crossed the router and the FIN has not:
        # without its route to AD-pub the router cannot fetch the key
        sim.wait_for(lambda: any(buf.segments for buf in router.node.captures.values()))
        sim.nodes["router"].routes.remove_route(sim.nodes["pub"].ad)
        assert pending.result() == b"headline bytes"
        sim.step()
        assert router.counters["key_fetches"] == 1
        assert not router.manager.contains(content_dag.intent_xid())
        assert not router.manager.contains(cert_dag.intent_xid())
        assert router._inflight == {} and router.node.captures == {}

    def test_verify_before_cache_audit(self, line3, monkeypatch):
        sim, daemons, handles = line3
        admitted = []
        admit = Xcached._admit

        def audited(daemon, chunk, origin):
            admitted.append((daemon.node.name, origin, verify_cid(chunk).accepted))
            return admit(daemon, chunk, origin)

        monkeypatch.setattr(Xcached, "_admit", audited)
        daemons["client"].caching = False
        dag = handles["pub"].put_chunk(b"audited", 60000)
        handles["client"].fetch_chunk(dag)
        assert admitted, "audit hook never fired"
        assert all(accepted for _, _, accepted in admitted)
        origins = {origin for _, origin, _ in admitted}
        assert "publish" in origins and "opportunistic" in origins


class TestChurn:
    def test_concurrent_fetches_under_eviction_pressure(self):
        # small client cache forces evictions while multiple handles
        # have fetches in flight; everyone must still get exact bytes
        from conftest import LINE3_TOPO

        sim = build_simulator(LINE3_TOPO)
        cfg_small = DaemonConfig(workers=3, mem_capacity_chunks=3)
        cfg_big = DaemonConfig(workers=2, mem_capacity_chunks=64)
        daemons = {
            "client": Xcached(cfg_small, node=sim.nodes["client"]),
            "router": Xcached(cfg_small, node=sim.nodes["router"]),
            "pub": Xcached(cfg_big, node=sim.nodes["pub"]),
        }
        try:
            hpub = daemons["pub"].init_handle()
            payloads = {i: f"churn object {i} ".encode() * 50 for i in range(12)}
            dags = {i: hpub.put_chunk(payloads[i], 600_000) for i in payloads}

            # four handles with a seeded draw each; each burst issues every
            # handle's next fetch before any is waited for
            fetchers = [(daemons["client"].init_handle(), random.Random(w)) for w in range(4)]
            results = []
            for _ in range(8):
                burst = []
                for handle, rng in fetchers:
                    i = rng.randrange(12)
                    burst.append((i, handle.fetch_chunk(dags[i], blocking=False)))
                results += [(i, pending.result()) for i, pending in burst]
            assert len(results) == 32
            for i, data in results:
                assert data == payloads[i]
        finally:
            for daemon in daemons.values():
                daemon.shutdown()


class TestBoundedState:
    def test_a_long_run_leaves_no_session_state(self):
        # lossy links, evicting caches, a handshake that fails and a
        # node fetching content it serves; once the lingering timers
        # have run, no session, endpoint SID or capture is left
        sim = build_simulator(LINE3_TOPO.replace("loss=0.0", "loss=0.05"), seed=9)
        small, big = DaemonConfig(workers=2, mem_capacity_chunks=6), DaemonConfig(workers=2)
        daemons = {
            name: Xcached(big if name == "pub" else small, node=node)
            for name, node in sim.nodes.items()
        }
        handles = {name: daemon.init_handle() for name, daemon in daemons.items()}
        try:
            rng = random.Random(9)
            payloads = [rng.randbytes(rng.choice((300, 1500, 4000))) for _ in range(40)]
            dags = [handles["pub"].put_chunk(data, 600_000) for data in payloads]
            for _ in range(400):
                i = min(int(rng.expovariate(0.15)), len(dags) - 1)
                fetcher = "client" if rng.random() < 0.8 else "router"
                assert handles[fetcher].fetch_chunk(dags[i]) == payloads[i]
            ghost = sim.nodes["pub"].local_dag_for(compute_cid(b"never published"))
            with pytest.raises(FetchTimeoutError):
                handles["client"].fetch_chunk(ghost)
            session = run_session(sim.nodes["pub"], dags[0])
            assert (session.state, session.reply.node) == ("complete", "pub")
            assert verify_cid(decode_chunk(b"".join(session.rx_payloads))).accepted
            assert sim.stats["retransmits"] > 0

            sim.step()
            for name, node in sim.nodes.items():
                assert node.sessions == {} and node.endpoints == {}, name
                held = set(daemons[name].manager.ids())
                assert node.routes.locals() == {node.ad, node.hid} | held, name
                assert daemons[name].node.captures == {}, name
        finally:
            shutdown_all(daemons)


class TestServeEdgeCases:
    def test_vanished_content_fails_fast_and_unbinds(self, pair):
        # no node holds the chunk any more, so the request finds no provider
        sim, daemons, handles = pair
        dag = handles["pub"].put_chunk(b"here then gone", 60000)
        daemons["pub"].manager.remove(dag.intent_xid())  # the store withdraws the route
        with pytest.raises(FetchTimeoutError):
            handles["client"].fetch_chunk(dag)
        assert not sim.nodes["pub"].routes.is_local(dag.intent_xid())

    def test_an_expired_copy_gives_way_to_a_fresh_one(self, line3):
        # the client's and the router's cached copies have expired but no
        # sweep has withdrawn their routes; the request goes on to the
        # origin, which holds a republished copy
        sim, daemons, handles = line3
        dag = handles["pub"].put_chunk(b"short-lived", 100)
        assert handles["client"].fetch_chunk(dag) == b"short-lived"
        assert sim.nodes["client"].routes.is_local(dag.intent_xid())
        sim.step(sim.now + 150)
        assert handles["pub"].put_chunk(b"short-lived", 100) == dag
        chunk, stats = daemons["client"].fetch_entry(handles["client"], dag)
        assert (chunk.payload, stats.provider) == (b"short-lived", "pub")

    def test_injected_chunk_evicts_through_the_admission_path(self):
        sim, daemons, handles = make_cluster(
            LINE3_TOPO, config=DaemonConfig(workers=2, mem_capacity_chunks=1)
        )
        try:
            evicted = []
            handles["pub"].register_notif(NotifEvent.CHUNK_EVICTED, lambda h, n: evicted.append(n))
            dag_a = handles["pub"].put_chunk(b"published first", 60000)
            daemons["pub"].inject_unverified_chunk(build_cid_chunk(b"planted", 60000))
            a = dag_a.intent_xid()
            assert handles["pub"].process_notif() == 1
            assert [n.addr.intent_xid() for n in evicted] == [a]
            assert not daemons["pub"].manager.contains(a)
            assert not sim.nodes["pub"].routes.is_local(a)
            with pytest.raises(FetchTimeoutError):
                handles["client"].fetch_chunk(dag_a)
        finally:
            shutdown_all(daemons)
