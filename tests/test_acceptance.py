"""End-to-end acceptance checks, one test per criterion.

Each test records a pass/fail line that the terminal summary prints
(run ``pytest tests/test_acceptance.py`` and see the "acceptance
criteria" section at the end).
"""

import hashlib
import random

import pytest

from conftest import lone_daemon, record_criterion, random_dag, run_session
from xcache.addressing import XidType, make_fallback_dag, symbolic_xid
from xcache.chunking import (
    Chunk,
    PublisherKey,
    build_cid_chunk,
    build_ncid_chunk,
    compute_cid,
    compute_ncid,
    verify_cid,
    verify_ncid_via,
)
from xcache.daemon import DaemonConfig, NotifEvent, Xcached
from xcache.netsim import build_simulator
from xcache.scenario import run_scenario
from xcache.store import LogicalClock, StorageManager
from xcache.urls import parse_dag_url, serialize_dag_url

LINE3 = """
seed 42
node client cache=8
node router cache=8
node pub cache=8
link client router delay=5 loss=0.0
link router pub delay=5 loss=0.0
route client AD-pub router
route router AD-pub pub
route client AD-router router
route pub AD-router router
route pub AD-client router
route router AD-client client
"""

POISON_TOPO = """
seed 7
node clientA cache=8
node clientB cache=8
node evil cache=8
node pub cache=8
link clientA pub delay=5 loss=0.0
link clientB evil delay=5 loss=0.0
link evil pub delay=5 loss=0.0
route clientA AD-pub pub
route pub AD-clientA clientA
route clientB AD-pub evil
route evil AD-pub pub
route pub AD-clientB evil
route evil AD-clientB clientB
route clientB AD-evil evil
"""

OPPORTUNISTIC = """
topology line3.topo
policy client never
publish pub size:2048 ttl=60000 as=c1
fetch client $c1
fetch client $c1
assert provider 0 == pub
assert hops 0 == 2
assert provider 1 == router
assert hops 1 == 1
assert sessions pub == 1
"""

NEVER_CACHE = """
topology line3.topo
policy client never
policy router never
publish pub size:2048 ttl=60000 as=c1
fetch client $c1
fetch client $c1
assert provider 0 == pub
assert provider 1 == pub
assert sessions pub == 2
"""

POISON = """
topology poison.topo
genkey fb
genkey mal
publish_key pub fb as=fbcert
publish_key evil mal as=malcert
publish_named pub name=fb.com/cmu key=fb cert=$fbcert payload=realdata ttl=600000 as=honest
fetch clientA $honest
forge evil mode=reuse-key name=fb.com/cmu victim=fb attacker=mal victimcert=$fbcert payload=spoof1 ttl=600000
routefor clientB $honest evil key=fb
fetch clientB $honest
forge evil mode=own-key name=fb.com/cmu victim=fb attacker=mal victimcert=$fbcert attackercert=$malcert payload=spoof2 ttl=600000
fetch clientB $honest
"""


def test_criterion_1_url_fidelity():
    with record_criterion(1, "URL fidelity: exact fallback example plus 1000-DAG round trip"):
        dag = make_fallback_dag(
            symbolic_xid(XidType.CID, "C"),
            [symbolic_xid(XidType.AD, "B"), symbolic_xid(XidType.HID, "P")],
        )
        url = serialize_dag_url(dag, short=True)
        assert url == "cid://2,0/AD-B,1/HID-P,2/CID-C"
        assert parse_dag_url(url, allow_short=True) == dag

        rng = random.Random(1234)
        for _ in range(1000):
            d = random_dag(rng, max_nodes=8)
            u = serialize_dag_url(d)
            assert serialize_dag_url(parse_dag_url(u)) == u


def test_criterion_2_self_certification():
    with record_criterion(2, "self-certification: all 64 single-byte tamperings rejected"):
        payload = bytes(range(64))
        chunk = build_cid_chunk(payload, 60000)
        assert verify_cid(chunk).accepted
        rejected = 0
        for i in range(64):
            mutated = bytearray(payload)
            mutated[i] ^= 0x5A
            if not verify_cid(Chunk(id=chunk.id, ttl_ms=60000, payload=bytes(mutated))).accepted:
                rejected += 1
        assert rejected == 64


def test_criterion_3_poisoning_matrix(tmp_path):
    with record_criterion(3, "poisoning: reuse-key and own-key attacks rejected, honest accepted"):
        (tmp_path / "poison.topo").write_text(POISON_TOPO)
        result = run_scenario(POISON, base_dir=tmp_path)
        verdicts = [f.verify for f in result.fetches]
        assert verdicts == [
            "accept",
            "reject:signature-invalid",
            "reject:ncid-mismatch",
        ]


@pytest.mark.parametrize("size", [1 << 10, 64 << 10, 1 << 20])
def test_criterion_4_constant_cost_verification(size):
    with record_criterion(4, "constant cost: exactly 1 key fetch at 1KiB/64KiB/1MiB"):
        key = PublisherKey.generate(rng=random.Random(44))
        key_chunk = build_cid_chunk(key.public, 600_000)
        key_ref = make_fallback_dag(key_chunk.id, [])
        payload = bytes(i % 251 for i in range(size))
        chunk = build_ncid_chunk("big/object", payload, 600_000, key, key_ref)
        fetches = []

        def fetch_key(cid):
            fetches.append(cid)
            return key_chunk

        assert verify_ncid_via(chunk, fetch_key).accepted
        assert len(fetches) == 1


def test_criterion_5_opportunistic_caching(tmp_path):
    with record_criterion(5, "opportunistic caching: router takes over; never-cache leaves origin"):
        (tmp_path / "line3.topo").write_text(LINE3)
        cached = run_scenario(OPPORTUNISTIC, base_dir=tmp_path)
        assert cached.failures == []
        uncached = run_scenario(NEVER_CACHE, base_dir=tmp_path)
        assert uncached.failures == []


def test_criterion_6_reliability_under_loss():
    with record_criterion(6, "reliability: 100/100 64KiB transfers over 10% loss, hashes equal"):
        topo = """
        node client
        node pub
        link client pub delay=2 loss=0.1
        route client AD-pub pub
        route pub AD-client client
        """
        delivered = 0
        total_retransmits = 0
        for seed in range(100):
            sim = build_simulator(topo, seed=seed)
            payload = random.Random(seed).randbytes(64 * 1024)
            cid = compute_cid(payload)
            pub = sim.nodes["pub"]
            pub.serve = lambda xid, pl=payload: pl
            pub.routes.add_local(cid)
            session = run_session(sim.nodes["client"], pub.local_dag_for(cid))
            received = b"".join(session.rx_payloads)
            same = hashlib.sha256(received).digest() == hashlib.sha256(payload).digest()
            if session.state == "complete" and same:
                delivered += 1
            total_retransmits += sim.stats["retransmits"]
        assert delivered == 100
        assert total_retransmits > 0


def test_criterion_7_store_laws(tmp_path):
    with record_criterion(7, "store laws: LRU eviction, spill placement, TTL sweep + notification"):
        # LRU: cap 3, insert A,B,C, touch A, insert D -> B evicted
        clock = LogicalClock()
        manager = StorageManager(mem_capacity=3, clock=clock)
        a, b, c, d = (build_cid_chunk(f"{t}".encode(), 600_000) for t in "abcd")
        for chunk in (a, b, c):
            manager.store(chunk)
            clock.advance(1)
        manager.get(a.id)
        clock.advance(1)
        _, evicted = manager.store(d)
        assert evicted == [b.id]

        # placement: memory capacity 2 -> third chunk lands on disk
        spill = StorageManager(
            mem_capacity=2, disk_capacity=8, disk_dir=tmp_path, clock=LogicalClock()
        )
        placements = [spill.store(build_cid_chunk(f"s{i}".encode(), 600_000))[0] for i in range(3)]
        assert placements == ["mem", "mem", "disk"]
        spill.close()

        # TTL: a 100 ms chunk expires at the 101 ms sweep with exactly
        # one eviction notification
        clock2 = LogicalClock()
        daemon = lone_daemon(DaemonConfig(workers=0), clock=clock2)
        try:
            handle = daemon.init_handle()
            notifications = []
            handle.register_notif(
                NotifEvent.CHUNK_EVICTED, lambda h, n: notifications.append(n)
            )
            dag = handle.put_chunk(b"short-lived", 100)
            clock2.set(99)
            assert daemon.sweep_ttl() == []
            clock2.set(101)
            expired = daemon.sweep_ttl()
            assert expired == [dag.intent_xid()]
            handle.process_notif()
            assert len(notifications) == 1
            assert notifications[0].addr.intent_xid() == dag.intent_xid()
        finally:
            daemon.shutdown()


def test_criterion_8_fast_path():
    with record_criterion(8, "fast path: local hit bypasses the miss path, remote fetch takes it"):
        sim = build_simulator(LINE3)
        daemons = {n: Xcached(DaemonConfig(workers=2), node=node) for n, node in sim.nodes.items()}
        try:
            hpub = daemons["pub"].init_handle()
            hcli = daemons["client"].init_handle()
            local_dag = hcli.put_chunk(b"already here", 600_000)
            remote_dag = hpub.put_chunk(b"far away", 600_000)

            before = dict(daemons["client"].counters)
            assert hcli.fetch_chunk(local_dag) == b"already here"
            mid = dict(daemons["client"].counters)
            assert mid.get("fast_path", 0) - before.get("fast_path", 0) == 1
            assert mid.get("queued", 0) - before.get("queued", 0) == 0

            assert hcli.fetch_chunk(remote_dag) == b"far away"
            after = dict(daemons["client"].counters)
            assert after.get("fast_path", 0) - mid.get("fast_path", 0) == 0
            assert after.get("queued", 0) - mid.get("queued", 0) == 1
        finally:
            for daemon in daemons.values():
                daemon.shutdown()


def test_criterion_9_determinism(tmp_path):
    with record_criterion(9, "determinism: identical scenario runs emit byte-identical reports"):
        (tmp_path / "line3.topo").write_text(LINE3)
        first = run_scenario(OPPORTUNISTIC, base_dir=tmp_path, seed=5).report
        second = run_scenario(OPPORTUNISTIC, base_dir=tmp_path, seed=5).report
        assert first == second
        assert first  # non-trivial report


def test_criterion_10_ncid_multiformity(tmp_path):
    with record_criterion(10, "multiform names: per-locator identifiers and payloads"):
        (tmp_path / "line3.topo").write_text(LINE3)
        script = """
        topology line3.topo
        genkey fb
        publish_key pub fb as=cert
        publish_named pub name=content.facebook.com key=fb cert=$cert +UserAgent=Android payload=mobile-page ttl=600000 as=android
        publish_named pub name=content.facebook.com key=fb cert=$cert +UserAgent=Desktop payload=desktop-page ttl=600000 as=desktop
        fetch client $android
        fetch client $desktop
        assert verify 0 == accept
        assert verify 1 == accept
        assert bytes 0 == 11
        assert bytes 1 == 12
        """
        result = run_scenario(script, base_dir=tmp_path)
        assert result.failures == []

        key = PublisherKey.generate(rng=random.Random(0))
        android = compute_ncid("content.facebook.com?UserAgent=Android", key.fingerprint())
        desktop = compute_ncid("content.facebook.com?UserAgent=Desktop", key.fingerprint())
        assert android != desktop
