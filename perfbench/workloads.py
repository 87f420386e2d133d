"""Workload generators and the simulated deployments they run on.

A generator turns a seed into the inputs of one workload: topology
text, the payloads published in set-up, and the sequence of operations
the client performs.  ``Deployment`` builds the daemons on that
topology through the public ``Xcached`` API and publishes the set-up
corpus, timing each publish call.
"""

from __future__ import annotations

import hashlib
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from xcache.chunking import PublisherKey
from xcache.daemon import DaemonConfig, XcacheError, Xcached  # noqa: F401 (used by run.py)
from xcache.netsim import build_simulator
from xcache.urls import LOCATOR_PUBCERT, NcidUrl, serialize_dag_url, serialize_ncid_url

TTL_MS = 86_400_000  # far beyond any run's simulated time, so nothing expires
WORKERS = 2
SEGMENT = 1024
WINDOW = 8


@dataclass
class NodeSpec:
    name: str
    mem_chunks: int
    policy: str = "always"
    disk_chunks: int = 0


@dataclass
class Inputs:
    """Everything a workload feeds the program, generated from a seed.

    ``ops`` holds ``("fetch", corpus index)``, ``("read", name index)``
    or ``("publish", name index)``; the first ``warmup`` ops fill caches
    and are not timed.
    """

    name: str
    seed: int
    topology: str
    nodes: list[NodeSpec]
    corpus: list[bytes] = field(default_factory=list)
    names: list[bytes] = field(default_factory=list)
    initial_names: int = 0
    ops: list[tuple[str, int]] = field(default_factory=list)
    warmup: int = 0


def line_topology(seed: int, names: list[str], delay_ms: int, loss: float) -> str:
    """A chain of nodes with routes toward every node's AD along it."""
    lines = [f"seed {seed}"] + [f"node {n}" for n in names]
    lines += [f"link {a} {b} delay={delay_ms} loss={loss}" for a, b in zip(names, names[1:])]
    for i, node in enumerate(names):
        for j, dest in enumerate(names):
            if i != j:
                lines.append(f"route {node} AD-{dest} {names[i + 1] if j > i else names[i - 1]}")
    return "\n".join(lines) + "\n"


def bulk_lossy(seed: int, fetches: int, warmup: int = 8) -> Inputs:
    """Distinct 64 KiB chunks fetched across three lossy hops, no caching
    on the way."""
    rng = random.Random(seed)
    nodes = ["client", "r1", "r2", "pub"]
    total = warmup + fetches
    return Inputs(
        name="bulk-lossy",
        seed=seed,
        topology=line_topology(rng.getrandbits(32), nodes, delay_ms=5, loss=0.01),
        nodes=[NodeSpec(n, mem_chunks=64, policy="never") for n in nodes[:-1]]
        + [NodeSpec("pub", mem_chunks=total)],
        corpus=[rng.randbytes(64 * 1024) for _ in range(total)],
        ops=[("fetch", i) for i in range(total)],
        warmup=warmup,
    )


def small_zipf(seed: int, fetches: int, warmup: int = 3000, distinct: int = 4096) -> Inputs:
    """Zipf(0.9) fetches of 1 KiB chunks; client and router caches are
    smaller than the working set, so both evict."""
    rng = random.Random(seed)
    ranked = rng.sample(range(distinct), distinct)
    cum, acc = [], 0.0
    for rank in range(1, distinct + 1):
        acc += rank**-0.9
        cum.append(acc)
    draws = rng.choices(ranked, cum_weights=cum, k=warmup + fetches)
    return Inputs(
        name="small-zipf",
        seed=seed,
        topology=line_topology(rng.getrandbits(32), ["client", "router", "pub"], 5, 0.0),
        nodes=[
            NodeSpec("client", mem_chunks=256),
            NodeSpec("router", mem_chunks=1024),
            NodeSpec("pub", mem_chunks=distinct),
        ],
        corpus=[rng.randbytes(1024) for _ in range(distinct)],
        ops=[("fetch", i) for i in draws],
        warmup=warmup,
    )


def named_churn(seed: int, groups: int, warmup_groups: int = 100, initial: int = 200) -> Inputs:
    """Groups of one fresh 4 KiB named publish and three named reads:
    one recency-skewed and one uniform over all names so far, the third
    either way at random.

    The ``initial`` names published in set-up fit the publisher's memory
    tier, so set-up writes no disk; its disk tier fills during warm-up.
    """
    rng = random.Random(seed)
    total_names = initial + warmup_groups + groups
    ops: list[tuple[str, int]] = []
    published = initial
    for _ in range(warmup_groups + groups):
        ops.append(("publish", published))
        published += 1
        kinds = ["recent", "uniform", rng.choice(["recent", "uniform"])]
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "recent":
                back = min(int(rng.expovariate(1 / 8)), published - 1)
                ops.append(("read", published - 1 - back))
            else:
                ops.append(("read", rng.randrange(published)))
    return Inputs(
        name="named-churn",
        seed=seed,
        topology=line_topology(rng.getrandbits(32), ["client", "router", "pub"], 5, 0.0),
        nodes=[
            NodeSpec("client", mem_chunks=256),
            NodeSpec("router", mem_chunks=256),
            NodeSpec("pub", mem_chunks=256, disk_chunks=total_names + 16),
        ],
        names=[rng.randbytes(4096) for _ in range(total_names)],
        initial_names=initial,
        ops=ops,
        warmup=4 * warmup_groups,
    )


GENERATORS = {"bulk-lossy": bulk_lossy, "small-zipf": small_zipf, "named-churn": named_churn}


def name_of(index: int) -> str:
    return f"n{index:06d}.churn.example"


class Deployment:
    """One simulated network with a daemon per node and the set-up
    corpus published at ``pub``.  ``setup_publish_ms`` holds the wall
    time of each publish call made while setting up."""

    def __init__(self, inputs: Inputs, work_dir: Path):
        self.inputs = inputs
        self.work_dir = work_dir
        self.setup_publish_ms: list[float] = []
        self.sim = build_simulator(
            inputs.topology, segment_payload=SEGMENT, window=WINDOW, rto_multiplier=4
        )
        self.daemons: dict[str, Xcached] = {}
        for spec in inputs.nodes:
            cfg = DaemonConfig(
                workers=WORKERS,
                mem_capacity_chunks=spec.mem_chunks,
                disk_capacity_chunks=spec.disk_chunks,
                disk_dir=str(work_dir / spec.name) if spec.disk_chunks else None,
                cache_policy=spec.policy,
                segment_size=SEGMENT,
                window=WINDOW,
            )
            self.daemons[spec.name] = Xcached(cfg, node=self.sim.nodes[spec.name])
        self.client = self.daemons["client"]
        self.client_handle = self.client.init_handle()
        self.pub_handle = self.daemons["pub"].init_handle()

        self.corpus_urls = [
            self._timed_publish(self.pub_handle.put_chunk, p, TTL_MS) for p in inputs.corpus
        ]
        self.name_urls: list[str] = []
        if inputs.names:
            self.key = PublisherKey.generate(rng=random.Random(inputs.seed))
            self.key_dag = self.pub_handle.put_chunk(self.key.public, TTL_MS)
            cert = ((LOCATOR_PUBCERT, serialize_dag_url(self.key_dag)),)
            self.name_urls = [
                serialize_ncid_url(NcidUrl(name_of(i), cert)) for i in range(len(inputs.names))
            ]
            for index in range(inputs.initial_names):
                self._timed_publish(self.publish_name, index)

    def _timed_publish(self, call, *args) -> str:
        start = perf_counter()
        dag = call(*args)
        self.setup_publish_ms.append((perf_counter() - start) * 1e3)
        return serialize_dag_url(dag)

    def publish_name(self, index: int):
        return self.pub_handle.put_named_content(
            name_of(index), self.inputs.names[index], TTL_MS, self.key, self.key_dag
        )

    def sessions_held(self) -> int:
        return sum(len(node.sessions) for node in self.sim.nodes.values())

    def counters(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for daemon in self.daemons.values():
            for key in ("fast_path", "queued", "key_fetches"):
                total[key] = total.get(key, 0) + daemon.counters[key]
        return total

    def close(self) -> None:
        for daemon in self.daemons.values():
            daemon.shutdown()
        shutil.rmtree(self.work_dir, ignore_errors=True)


def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()
