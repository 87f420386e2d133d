import errno
import os
import random
import struct
from pathlib import Path
from typing import NamedTuple

import pytest

from xcache.addressing import DagAddress, DagNode, Xid, XidType, dag_address
from xcache.chunking import decode_chunk


def random_dag(rng: random.Random, max_nodes: int = 8, intent_type: XidType | None = None) -> DagAddress:
    """A random valid address: nodes in topological order, the last one
    the sink, every node reachable from the source."""
    n = rng.randint(1, max_nodes)
    xids = []
    seen = set()
    for i in range(n):
        while True:
            value = rng.randbytes(20)
            if value not in seen:
                seen.add(value)
                break
        if i == n - 1 and intent_type is not None:
            xtype = intent_type
        else:
            xtype = rng.choice(list(XidType))
        xids.append(Xid(xtype, value))

    nodes = []
    for i in range(n - 1):
        later = list(range(i + 1, n))
        targets = rng.sample(later, rng.randint(1, min(len(later), 3)))
        nodes.append((xids[i], targets))
    nodes.append((xids[n - 1], []))

    source = rng.sample(range(n), rng.randint(1, n))
    reachable = set()
    stack = list(source)
    while stack:
        i = stack.pop()
        if i in reachable:
            continue
        reachable.add(i)
        stack.extend(nodes[i][1])
    for i in range(n):
        if i not in reachable:
            source.append(i)
            stack = [i]
            while stack:
                j = stack.pop()
                if j in reachable:
                    continue
                reachable.add(j)
                stack.extend(nodes[j][1])
    return dag_address(nodes, source)


def relabel(dag: DagAddress, order: list[int]) -> DagAddress:
    """Permute the node array so position k holds the node order[k]."""
    new_index = {old: k for k, old in enumerate(order)}
    nodes = tuple(
        DagNode(dag.nodes[old].xid, tuple(new_index[t] for t in dag.nodes[old].out_edges))
        for old in order
    )
    return DagAddress(
        nodes=nodes,
        source_edges=tuple(new_index[t] for t in dag.source_edges),
        intent=new_index[dag.intent],
    )


LINE3_TOPO = """
# client - router - pub
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

PAIR_TOPO = """
seed 7
node client cache=8
node pub cache=8
link client pub delay=5 loss=0.0
route client AD-pub pub
route pub AD-client client
"""


def make_cluster(topo: str, config=None, seed: int | None = None, **transport):
    """Build a simulator plus one daemon and one handle per node."""
    from xcache.daemon import DaemonConfig, Xcached
    from xcache.netsim import build_simulator

    sim = build_simulator(topo, seed=seed, **transport)
    config = config if config is not None else DaemonConfig(workers=2)
    daemons = {}
    handles = {}
    for name, node in sim.nodes.items():
        daemons[name] = Xcached(config, node=node)
        handles[name] = daemons[name].init_handle()
    return sim, daemons, handles


def run_session(node, dag):
    """Start a content session from ``node`` and pump the simulator until
    the session reports its end through ``on_end``; returns the session."""
    ended = []
    session = node.start_connect(dag, on_end=ended.append)
    node.sim.wait_for(lambda: ended)
    return session


# The disk tier's pack layout, restated here so that the tests read it
# without xcache.store: each record is a frame (a live or killed magic,
# then the body length), the entry's stamps, then the encoded chunk.
PACK_NAME = "chunks.pack"
PACK_FRAME = struct.Struct(">4sI")
PACK_LIVE, PACK_KILLED = b"XPR+", b"XPR-"
PACK_STAMPS = struct.Struct(">4sQQQ")  # magic, inserted_at, last_access, expires_at


class PackRecord(NamedTuple):
    xid: Xid
    offset: int
    length: int  # frame included


def pack_records(directory) -> list[PackRecord]:
    """Each live record of the pack in ``directory``, in file order.  The
    pack must be a whole number of well-formed records: no torn tail, no
    garbage between records."""
    path = Path(directory) / PACK_NAME
    data = path.read_bytes() if path.exists() else b""
    records, at = [], 0
    while at < len(data):
        magic, body_len = PACK_FRAME.unpack_from(data, at)
        length = PACK_FRAME.size + body_len
        assert magic in (PACK_LIVE, PACK_KILLED) and at + length <= len(data), at
        if magic == PACK_LIVE:
            chunk = decode_chunk(data[at + PACK_FRAME.size + PACK_STAMPS.size : at + length])
            records.append(PackRecord(chunk.id, at, length))
        at += length
    return records


def disk_record(directory, xid) -> bytes:
    """The bytes of ``xid``'s one live record in the pack in ``directory``."""
    (record,) = [r for r in pack_records(directory) if r.xid == xid]
    data = (Path(directory) / PACK_NAME).read_bytes()
    return data[record.offset : record.offset + record.length]


def flip_disk_entry(directory, xid, at, mask=0xFF):
    """XOR byte ``at`` of ``xid``'s live record in the pack in
    ``directory`` with ``mask``; a negative ``at`` counts from the
    record's end."""
    (record,) = [r for r in pack_records(directory) if r.xid == xid]
    position = record.offset + range(record.length)[at]
    with open(Path(directory) / PACK_NAME, "r+b") as pack:
        pack.seek(position)
        byte = pack.read(1)[0]
        pack.seek(position)
        pack.write(bytes([byte ^ mask]))


def fail_disk_writes(monkeypatch, torn=False):
    """From now on every write that would grow a file, as a pack append
    does, fails as on a full disk; with ``torn``, the first half of its
    bytes lands before it fails.  Writes in place, such as a kill or an
    access stamp, still succeed."""
    real = os.pwrite

    def pwrite(fd, data, offset):
        if offset + len(data) > os.fstat(fd).st_size:
            if torn:
                real(fd, data[: len(data) // 2], offset)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", pwrite)


def fail_in_place_writes(monkeypatch, offsets=None):
    """From now on every write that does not grow a file, as a record's
    kill or access stamp does, fails with ``EIO``; with ``offsets``, only
    such writes at those offsets fail.  Appends still succeed."""
    real = os.pwrite

    def pwrite(fd, data, offset):
        if offset + len(data) <= os.fstat(fd).st_size and (offsets is None or offset in offsets):
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return real(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", pwrite)


class EagerTimer:
    """The session timer as it was before it kept one queue entry: every
    arming queues an event of its own, and each entry but the last
    arming's does nothing when it comes up.  Put ahead of a session class
    among a subclass's bases, it is the reference that the one-entry
    timer must match."""

    def _arm(self, delay_ms, fn):
        self._epoch += 1
        self._armed = self._epoch
        self.sim.schedule(delay_ms, self._fire, self._epoch, fn)

    def _fire(self, epoch, fn):
        if epoch == self._armed:
            self._armed = None
        if epoch == self._epoch:
            fn(self)
        elif self._armed is None and self.state in ("complete", "done", "failed"):
            self._release()


def lone_daemon(config, clock=None):
    """A daemon on the only node of a fresh simulator."""
    from xcache.daemon import Xcached
    from xcache.netsim import Simulator

    return Xcached(config, node=Simulator().add_node("solo"), clock=clock)


@pytest.fixture
def ed25519_verifies(monkeypatch):
    """Every Ed25519 verification ``xcache.chunking`` makes from now on, as
    (signature, message) pairs, counted by a wrapper around the key class."""
    from xcache import chunking

    calls = []
    real = chunking.Ed25519PublicKey

    class CountingPublicKey:
        def __init__(self, key):
            self._key = key

        @classmethod
        def from_public_bytes(cls, data):
            return cls(real.from_public_bytes(data))

        def verify(self, signature, message):
            calls.append((signature, message))
            self._key.verify(signature, message)

    monkeypatch.setattr(chunking, "Ed25519PublicKey", CountingPublicKey)
    return calls


@pytest.fixture
def line3():
    sim, daemons, handles = make_cluster(LINE3_TOPO)
    yield sim, daemons, handles
    for daemon in daemons.values():
        daemon.shutdown()


@pytest.fixture
def pair():
    sim, daemons, handles = make_cluster(PAIR_TOPO)
    yield sim, daemons, handles
    for daemon in daemons.values():
        daemon.shutdown()


# Acceptance reporting: one pass/fail line per criterion, shown in the
# terminal summary.
ACCEPTANCE_RESULTS: list[tuple[int, str, str]] = []


def record_criterion(number: int, description: str):
    """Context manager recording a criterion outcome for the summary."""

    class _Recorder:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            ACCEPTANCE_RESULTS.append((number, status, description))
            return False

    return _Recorder()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    merged: dict[int, tuple[str, str]] = {}
    for number, status, description in ACCEPTANCE_RESULTS:
        if number not in merged or status == "FAIL":
            merged[number] = (status, description)
    terminalreporter.section("acceptance criteria")
    for number in sorted(merged):
        status, description = merged[number]
        terminalreporter.write_line(f"criterion {number:2d} {status}: {description}")
