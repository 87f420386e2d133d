import hashlib
import queue
import random
import threading

import pytest

from conftest import LINE3_TOPO, PAIR_TOPO, make_cluster
from xcache.addressing import XidType, make_fallback_dag
from xcache.chunking import (
    PublisherKey,
    build_cid_chunk,
    compute_cid,
    compute_ncid,
    encode_chunk,
    verify_cid,
)
from xcache.daemon import (
    CachePolicy,
    CanceledError,
    CertificateRequiredError,
    DaemonConfig,
    FetchTimeoutError,
    InvalidHandleError,
    NeverCache,
    NotifEvent,
    PublishError,
    UnroutableError,
    VerificationError,
    Xcached,
    parse_config,
)
from xcache.netsim import build_simulator
from xcache.store import LogicalClock
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


class TestHandles:
    def test_use_after_destroy_errors(self):
        daemon = Xcached(DaemonConfig(workers=0))
        handle = daemon.init_handle()
        handle.destroy()
        with pytest.raises(InvalidHandleError):
            handle.put_chunk(b"x", 1000)
        with pytest.raises(InvalidHandleError):
            handle.destroy()
        daemon.shutdown()

    def test_handles_are_independent(self):
        daemon = Xcached(DaemonConfig(workers=0))
        h1, h2 = daemon.init_handle(), daemon.init_handle()
        h1.destroy()
        dag = h2.put_chunk(b"still fine", 1000)
        assert h2.fetch_chunk(dag) == b"still fine"
        daemon.shutdown()

    def test_destroy_cancels_pending_fetch(self):
        # no workers: the queued request deterministically never runs
        sim = build_simulator(PAIR_TOPO)
        daemon = Xcached(DaemonConfig(workers=0), node=sim.nodes["client"])
        handle = daemon.init_handle()
        ghost = make_fallback_dag(compute_cid(b"missing"), [sim.nodes["pub"].ad])
        pending = handle.fetch_chunk(ghost, blocking=False)
        handle.destroy()
        with pytest.raises(CanceledError):
            pending.result(timeout=1.0)
        daemon.shutdown()


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
        daemon = Xcached(DaemonConfig(workers=0, max_payload=64))
        handle = daemon.init_handle()
        with pytest.raises(PublishError):
            handle.put_chunk(b"y" * 100, 1000)
        daemon.shutdown()


class TestFetchPaths:
    def test_fast_path_counters_and_zero_network(self, line3):
        sim, daemons, handles = line3
        dag = handles["client"].put_chunk(b"local bytes", 60000)
        before = dict(daemons["client"].counters)
        trace_len = len(sim.trace)
        assert handles["client"].fetch_chunk(dag) == b"local bytes"
        after = daemons["client"].counters
        assert after["fast_path"] - before.get("fast_path", 0) == 1
        assert after["queued"] - before.get("queued", 0) == 0
        assert len(sim.trace) == trace_len  # no network events at all

    def test_remote_fetch_counters(self, line3):
        sim, daemons, handles = line3
        dag = handles["pub"].put_chunk(b"remote bytes", 60000)
        before = dict(daemons["client"].counters)
        assert handles["client"].fetch_chunk(dag) == b"remote bytes"
        after = daemons["client"].counters
        assert after["queued"] - before.get("queued", 0) == 1
        assert after["fast_path"] - before.get("fast_path", 0) == 0

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
        assert pending.result(timeout=10) == b"eventually"

    def test_tampered_provider_rejected_and_not_cached(self, line3, monkeypatch):
        sim, daemons, handles = line3
        dag = handles["pub"].put_chunk(b"honest bytes", 60000)

        def corrupt_serve(session, xid):
            chunk = daemons["pub"].manager.get(xid)
            blob = bytearray(encode_chunk(chunk))
            blob[-1] ^= 0xFF  # payload corruption in flight
            session.start_send(bytes(blob))

        monkeypatch.setattr(daemons["pub"], "_serve_session", corrupt_serve)
        sim.nodes["pub"].server_socket.handler = corrupt_serve
        with pytest.raises(VerificationError):
            handles["client"].fetch_chunk(dag)
        assert not daemons["client"].manager.contains(dag.intent_xid())
        assert not daemons["router"].manager.contains(dag.intent_xid())

    def test_concurrent_fetches_share_one_session(self, line3):
        sim, daemons, handles = line3
        dag = handles["pub"].put_chunk(bytes(8000), 60000)
        h2 = daemons["client"].init_handle()
        results = {}

        def fetch(tag, handle):
            results[tag] = handle.fetch_chunk(dag)

        threads = [
            threading.Thread(target=fetch, args=("a", handles["client"])),
            threading.Thread(target=fetch, args=("b", h2)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert results["a"] == results["b"] == bytes(8000)
        assert sim.nodes["pub"].counters["sessions_served"] == 1

    def test_multiplexed_fetches_get_their_own_content(self, line3):
        sim, daemons, handles = line3
        payloads = {i: f"object number {i}".encode() * 10 for i in range(6)}
        dags = {i: handles["pub"].put_chunk(payloads[i], 60000) for i in payloads}
        results = {}

        def fetch(i):
            results[i] = handles["client"].fetch_chunk(dags[i])

        threads = [threading.Thread(target=fetch, args=(i,)) for i in payloads]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=15)
        assert results == payloads

    def test_fifo_dequeue_order(self, pair, monkeypatch):
        sim, daemons, handles = pair

        class RecordingQueue(queue.Queue):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.dequeued = []

            def get(self, *args, **kwargs):
                item = super().get(*args, **kwargs)
                self.dequeued.append(item)
                return item

        monkeypatch.setattr(queue, "Queue", RecordingQueue)
        # single worker so queue order is observable end to end
        single = Xcached(DaemonConfig(workers=1), node=sim.nodes["client"])
        monkeypatch.undo()
        try:
            handle = single.init_handle()
            payloads = {i: f"queued {i}".encode() for i in range(6)}
            dags = {i: handles["pub"].put_chunk(payloads[i], 60000) for i in payloads}
            pendings = [
                (i, handle.fetch_chunk(dags[i], blocking=False)) for i in payloads
            ]
            for i, pending in pendings:
                assert pending.result(timeout=10) == payloads[i]
            dequeue_log = [request.seq for request in single._queue.dequeued]
            assert dequeue_log == sorted(dequeue_log)
        finally:
            single.shutdown()


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
        honest_serve = daemons["pub"]._serve_session

        def cross_serve(session, xid):
            if xid == wrong_ncid:
                session.start_send(encode_chunk(real_chunk))
            else:
                honest_serve(session, xid)

        sim.nodes["pub"].server_socket.handler = cross_serve
        sim.add_route("client", wrong_ncid, "router")
        sim.add_route("router", wrong_ncid, "pub")
        sim.nodes["pub"].server_socket.bind(wrong_ncid)

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

    def test_exactly_one_key_fetch_per_verification(self, line3):
        _, daemons, handles = line3
        key, cert_dag, _ = self.publish_named(handles)
        url = serialize_ncid_url(
            NcidUrl("fb.com/cmu", (("PubCert", serialize_dag_url(cert_dag)),))
        )
        before = daemons["client"].counters.get("key_fetches", 0)
        handles["client"].get_named_chunk(url)
        assert daemons["client"].counters["key_fetches"] - before == 1


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
        daemons["client"].policy = NeverCache()
        dag = handles["pub"].put_chunk(b"replicated", 60000)
        handles["client"].fetch_chunk(dag)  # router caches on path
        handles["pub"].destroy_chunk(dag)
        data = handles["client"].fetch_chunk(dag)
        assert data == b"replicated"
        assert daemons["router"].manager.contains(dag.intent_xid())


class TestNotifications:
    def test_eviction_notification_via_lru(self, pair):
        sim, daemons, handles = pair
        small = Xcached(DaemonConfig(workers=0, mem_capacity_chunks=2), node=None)
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
        daemons["client"].policy = NeverCache()
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
        assert handles["pub"].notif_channel().empty()
        assert handles["pub"].process_notif() == 0

    def test_handlers_called_in_registration_order(self):
        daemon = Xcached(DaemonConfig(workers=0, mem_capacity_chunks=1))
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

    def test_listener_thread_drains(self):
        daemon = Xcached(DaemonConfig(workers=0, mem_capacity_chunks=1))
        try:
            handle = daemon.init_handle()
            got = queue.Queue()
            handle.register_notif(NotifEvent.CHUNK_EVICTED, lambda h, n: got.put(n))
            handle.launch_notif_listener()
            handle.put_chunk(b"one", 60000)
            handle.put_chunk(b"two", 60000)
            notif = got.get(timeout=2)
            assert notif.event is NotifEvent.CHUNK_EVICTED
        finally:
            daemon.shutdown()

    def test_ttl_sweep_emits_one_eviction(self):
        clock = LogicalClock()
        daemon = Xcached(DaemonConfig(workers=0), clock=clock)
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
        daemons["client"].policy = NeverCache()
        dag = handles["pub"].put_chunk(b"popular object", 60000)
        chunk1, stats1 = daemons["client"].fetch_entry(handles["client"], dag)
        chunk2, stats2 = daemons["client"].fetch_entry(handles["client"], dag)
        assert chunk1.payload == chunk2.payload == b"popular object"
        assert (stats1.provider, stats1.hops) == ("pub", 2)
        assert (stats2.provider, stats2.hops) == ("router", 1)
        assert sim.nodes["pub"].counters["sessions_served"] == 1

    def test_never_cache_router_stores_nothing(self, line3):
        sim, daemons, handles = line3
        daemons["client"].policy = NeverCache()
        daemons["router"].policy = NeverCache()
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
            daemons["client"].policy = NeverCache()
            payload = random.Random(21).randbytes(32 * 1024)
            dag = handles["pub"].put_chunk(payload, 600_000)
            assert handles["client"].fetch_chunk(dag) == payload
            cached = daemons["router"].manager.get(dag.intent_xid())
            assert cached is not None
            assert hashlib.sha256(cached.payload).digest() == hashlib.sha256(payload).digest()
        finally:
            shutdown_all(daemons)

    def test_named_chunk_ingest_with_deferred_key_fetch(self, line3):
        # router policy refuses plain chunks, so the certificate is not
        # on the router when the named chunk flies past; verification
        # must fetch it through a worker before caching
        class NamedOnly(CachePolicy):
            def decide(self, intent, provider_dag):
                return intent.xtype is XidType.NCID

        sim, daemons, handles = line3
        daemons["client"].policy = NeverCache()
        daemons["router"].policy = NamedOnly()
        key = PublisherKey.generate(rng=random.Random(11))
        cert_dag = handles["pub"].put_chunk(key.public, 600_000)
        content_dag = handles["pub"].put_named_content(
            "news/front", b"headline bytes", 600_000, key, cert_dag
        )
        url = serialize_ncid_url(
            NcidUrl("news/front", (("PubCert", serialize_dag_url(cert_dag)),))
        )
        assert handles["client"].get_named_chunk(url) == b"headline bytes"
        # drain the router's deferred verification
        deadline = 50
        import time

        for _ in range(deadline):
            if daemons["router"].manager.contains(content_dag.intent_xid()):
                break
            time.sleep(0.05)
        assert daemons["router"].manager.contains(content_dag.intent_xid())
        assert daemons["router"].manager.contains(cert_dag.intent_xid())

    def test_verify_before_cache_audit(self, line3, monkeypatch):
        sim, daemons, handles = line3
        admitted = []
        admit = Xcached._admit

        def audited(daemon, chunk, origin):
            admitted.append((daemon._name(), origin, verify_cid(chunk).accepted))
            return admit(daemon, chunk, origin)

        monkeypatch.setattr(Xcached, "_admit", audited)
        daemons["client"].policy = NeverCache()
        dag = handles["pub"].put_chunk(b"audited", 60000)
        handles["client"].fetch_chunk(dag)
        assert admitted, "audit hook never fired"
        assert all(accepted for _, _, accepted in admitted)
        origins = {origin for _, origin, _ in admitted}
        assert "publish" in origins and "opportunistic" in origins


class TestChurn:
    def test_concurrent_fetches_under_eviction_pressure(self):
        # small client cache forces evictions while multiple handles
        # fetch disjoint objects; everyone must still get exact bytes
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

            results: dict[tuple[int, int], bytes] = {}
            errors: list[Exception] = []

            def worker(worker_id):
                handle = daemons["client"].init_handle()
                rng = random.Random(worker_id)
                try:
                    for n in range(8):
                        i = rng.randrange(12)
                        results[(worker_id, n)] = (i, handle.fetch_chunk(dags[i], timeout=30))
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not errors
            assert len(results) == 32
            for i, data in results.values():
                assert data == payloads[i]
        finally:
            for daemon in daemons.values():
                daemon.shutdown()


class TestServeEdgeCases:
    def test_vanished_content_fails_fast_and_unbinds(self, pair):
        sim, daemons, handles = pair
        dag = handles["pub"].put_chunk(b"here then gone", 60000)
        daemons["pub"].manager.remove(dag.intent_xid())  # behind the daemon's back
        with pytest.raises(VerificationError):
            handles["client"].fetch_chunk(dag, timeout=10)
        assert dag.intent_xid() not in sim.nodes["pub"].server_socket.bound

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
            assert a not in daemons["pub"].published
            assert a not in sim.nodes["pub"].server_socket.bound
            assert not sim.nodes["pub"].routes.is_local(a)
            with pytest.raises(FetchTimeoutError):
                handles["client"].fetch_chunk(dag_a, timeout=10)
        finally:
            shutdown_all(daemons)
