"""Command-line front-ends.

Subcommands:

    publish   put a file (or stdin) into the local store; prints the URL
    fetch     resolve a URL through the local daemon, write payload
    sim       run a scripted topology scenario and print its report
    url       encode/decode DAG URLs and compute named-content digests

``publish`` and ``fetch`` run against a single-node daemon whose disk
store is one pack file in the configured directory (default
``.xcache-store``), so published content survives between invocations.
Multi-node behavior (remote fetches, opportunistic caching, poisoning
attacks) is driven through ``sim`` scenario scripts.

``fetch`` checks nothing itself: the daemon verifies each chunk it reads
from disk before returning it, so a record tampered with between
invocations exits 5.  ``publish`` refuses key files whose two halves do
not match before it stores anything.

Exit codes: 0 ok, 2 usage/parse error, 3 publish error, 4 unroutable,
5 verification failure, 6 scenario assertion failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .addressing import AddressError, dag_address, format_xid, parse_xid
from .chunking import ChunkError, PublisherKey, compute_ncid, fingerprint
from .daemon import (
    CertificateRequiredError,
    DaemonConfig,
    FetchError,
    FetchTimeoutError,
    PublishError,
    UnroutableError,
    VerificationError,
    Xcached,
    parse_config,
)
from .netsim import Simulator, TopologyError
from .scenario import ScenarioError, run_scenario
from .store import StoreError, WallClock
from .urls import (
    LOCATOR_PUBCERT,
    NcidUrl,
    UrlParseError,
    canonical_name,
    parse_dag_url,
    serialize_dag_url,
    serialize_ncid_url,
)

EX_OK = 0
EX_USAGE = 2
EX_PUBLISH = 3
EX_UNROUTABLE = 4
EX_VERIFY = 5
EX_ASSERT = 6

PUB_KEY_MAGIC = b"XPUB"
PRIV_KEY_MAGIC = b"XPRV"


def save_key_files(key: PublisherKey, pub_path: str | Path, priv_path: str | Path) -> None:
    """Write a keypair as raw binary files with a 4-byte magic each."""
    Path(pub_path).write_bytes(PUB_KEY_MAGIC + key.public)
    if key.private is None:
        raise ValueError("keypair has no private half")
    Path(priv_path).write_bytes(PRIV_KEY_MAGIC + key.private)


def load_public_key(path: str | Path) -> bytes:
    blob = Path(path).read_bytes()
    if blob[:4] != PUB_KEY_MAGIC or len(blob) != 36:
        raise ValueError(f"{path}: not a public key file")
    return blob[4:]


def load_publisher_key(pub_path: str | Path, priv_path: str | Path) -> PublisherKey:
    public = load_public_key(pub_path)
    blob = Path(priv_path).read_bytes()
    if blob[:4] != PRIV_KEY_MAGIC or len(blob) != 36:
        raise ValueError(f"{priv_path}: not a private key file")
    return PublisherKey(public=public, private=blob[4:])


def _default_config() -> DaemonConfig:
    # Disk-only store so published content survives between invocations.
    return DaemonConfig(
        mem_capacity_chunks=0, disk_dir=".xcache-store", disk_capacity_chunks=1024
    )


def _load_config(path: str | None) -> DaemonConfig:
    if path is None:
        return _default_config()
    return parse_config(Path(path).read_text())


def _local_world(cfg: DaemonConfig, seed: int) -> tuple[Xcached, object]:
    sim = Simulator(
        seed=seed,
        segment_payload=cfg.segment_size,
        window=cfg.window,
        rto_multiplier=cfg.rto_multiplier,
    )
    node = sim.add_node("local")
    daemon = Xcached(cfg, node=node, clock=WallClock())
    return daemon, daemon.init_handle()


def _read_data(spec: str) -> bytes:
    if spec == "-":
        return sys.stdin.buffer.read()
    return Path(spec).read_bytes()


def _parse_locators(pairs: list[str]) -> list[tuple[str, str]]:
    out = []
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"locator {pair!r} is not key=value")
        out.append((key, value))
    return out


def cmd_publish(args: argparse.Namespace) -> int:
    try:
        data = _read_data(args.file)
        locators = _parse_locators(args.locator or [])
        key = None
        if args.name:
            if not args.key:
                print("publish: --name requires --key PUB,PRIV", file=sys.stderr)
                return EX_USAGE
            pub_path, _, priv_path = args.key.partition(",")
            if not priv_path:
                print("publish: --key wants two comma-separated paths", file=sys.stderr)
                return EX_USAGE
            key = load_publisher_key(pub_path, priv_path)
    except (OSError, ValueError) as exc:
        print(f"publish: {exc}", file=sys.stderr)
        return EX_USAGE

    daemon, handle = _local_world(args.cfg, args.seed)
    try:
        if args.name:
            cert_dag = handle.put_chunk(key.public, ttl_ms=args.ttl)
            cert_url = serialize_dag_url(cert_dag)
            name = canonical_name(args.name, locators)
            handle.put_named_content(name, data, ttl_ms=args.ttl, key=key, key_ref=cert_dag)
            url = serialize_ncid_url(
                NcidUrl(args.name, tuple(locators) + ((LOCATOR_PUBCERT, cert_url),))
            )
        else:
            url = serialize_dag_url(handle.put_chunk(data, ttl_ms=args.ttl))
        print(url)
        return EX_OK
    except (PublishError, StoreError, ChunkError) as exc:
        print(f"publish: {exc}", file=sys.stderr)
        return EX_PUBLISH
    finally:
        daemon.shutdown()


def cmd_fetch(args: argparse.Namespace) -> int:
    daemon, handle = _local_world(args.cfg, args.seed)
    try:
        if args.url.startswith("ncid://"):
            chunk, stats = daemon.get_named_entry(handle, args.url, cert=args.cert)
        else:
            chunk, stats = daemon.fetch_entry(handle, args.url)
        if args.out:
            Path(args.out).write_bytes(chunk.payload)
        else:
            sys.stdout.buffer.write(chunk.payload)
        if args.stats:
            print(
                f"stats provider={stats.provider} hops={stats.hops} "
                f"segments={stats.segments} retransmits={stats.retransmits}",
                file=sys.stderr,
            )
        return EX_OK
    except (UrlParseError, AddressError, CertificateRequiredError) as exc:
        print(f"fetch: {exc}", file=sys.stderr)
        return EX_USAGE
    except VerificationError as exc:
        print(f"fetch: {exc}", file=sys.stderr)
        return EX_VERIFY
    except (UnroutableError, FetchTimeoutError) as exc:
        print(f"fetch: {exc}", file=sys.stderr)
        return EX_UNROUTABLE
    except (FetchError, OSError) as exc:
        print(f"fetch: {exc}", file=sys.stderr)
        return EX_USAGE
    finally:
        daemon.shutdown()


def cmd_sim(args: argparse.Namespace) -> int:
    script_path = Path(args.script)
    # Scenario daemons default to memory-only stores; a shared on-disk
    # store across simulated nodes would make no sense.
    base_config = args.cfg if args.config else DaemonConfig()
    try:
        result = run_scenario(
            script_path.read_text(),
            base_dir=script_path.parent,
            seed=args.seed if args.seed_given else None,
            base_config=base_config,
        )
    except (ScenarioError, TopologyError, OSError) as exc:
        print(f"sim: {exc}", file=sys.stderr)
        return EX_USAGE
    sys.stdout.write(result.report)
    if result.failures:
        for failure in result.failures:
            print(f"sim: {failure}", file=sys.stderr)
        return EX_ASSERT
    return EX_OK


def parse_dag_description(text: str):
    """Parse edge-list text into a DAG address.

    One line per origin: ``<from> -> <to>[, <to>...]`` where ``<from>``
    is ``source`` or an XID; listing order sets edge priority.
    """
    order: list = []
    index: dict = {}
    edges: dict = {}
    source_targets: list = []

    def intern(token: str, lineno: int):
        try:
            xid = parse_xid(token, allow_short=True)
        except AddressError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        if xid not in index:
            index[xid] = len(order)
            order.append(xid)
        return xid

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lhs, arrow, rhs = line.partition("->")
        if not arrow:
            raise ValueError(f"line {lineno}: expected '<from> -> <to>[, <to>...]'")
        targets = [t.strip() for t in rhs.split(",") if t.strip()]
        if not targets:
            raise ValueError(f"line {lineno}: no edge targets")
        target_xids = [intern(t, lineno) for t in targets]
        lhs = lhs.strip()
        if lhs == "source":
            source_targets.extend(target_xids)
        else:
            edges.setdefault(intern(lhs, lineno), []).extend(target_xids)

    if not source_targets:
        raise ValueError("description has no 'source ->' line")
    nodes = [(xid, [index[t] for t in edges.get(xid, [])]) for xid in order]
    return dag_address(nodes, [index[t] for t in source_targets])


def format_dag_description(dag) -> str:
    def name(i: int) -> str:
        return format_xid(dag.nodes[i].xid, short=True)

    lines = ["source -> " + ", ".join(name(i) for i in dag.source_edges)]
    for node in dag.nodes:
        if node.out_edges:
            lines.append(
                format_xid(node.xid, short=True)
                + " -> "
                + ", ".join(name(i) for i in node.out_edges)
            )
    return "\n".join(lines) + "\n"


def cmd_url(args: argparse.Namespace) -> int:
    try:
        if args.action == "encode":
            text = sys.stdin.read() if args.input == "-" else Path(args.input).read_text()
            print(serialize_dag_url(parse_dag_description(text), short=True))
        elif args.action == "decode":
            sys.stdout.write(format_dag_description(parse_dag_url(args.url, allow_short=True)))
        elif args.action == "ncid":
            digest = compute_ncid(args.name, fingerprint(load_public_key(args.pubkey)))
            print(digest.value.hex())
        return EX_OK
    except (UrlParseError, AddressError, ChunkError, ValueError, OSError) as exc:
        print(f"url: {exc}", file=sys.stderr)
        return EX_USAGE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xcache",
        description="Publish, fetch and simulate verified content delivery.",
    )
    parser.add_argument("--config", metavar="FILE", help="daemon config file (key = value lines)")
    parser.add_argument("--seed", type=int, default=0, help="simulation RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("publish", help="publish a file or stdin; prints the content URL")
    p.add_argument("file", nargs="?", default="-", help="input path, or - for stdin")
    p.add_argument("--ttl", type=int, default=3_600_000, help="time to live in ms")
    p.add_argument("--name", help="publish as named content under this address")
    p.add_argument("--locator", action="append", metavar="K=V", help="representation locator")
    p.add_argument("--key", metavar="PUB,PRIV", help="publisher key files")
    p.set_defaults(func=cmd_publish)

    p = sub.add_parser("fetch", help="fetch a content URL, verify, write payload")
    p.add_argument("url")
    p.add_argument("--cert", metavar="DAGURL", help="certificate address for named URLs")
    p.add_argument("--out", metavar="PATH", help="write payload here instead of stdout")
    p.add_argument("--stats", action="store_true", help="print transfer stats to stderr")
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("sim", help="run a scenario script and print its report")
    p.add_argument("script")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("url", help="DAG URL tooling")
    action = p.add_subparsers(dest="action", required=True)
    enc = action.add_parser("encode", help="edge-list description -> URL")
    enc.add_argument("input", nargs="?", default="-", help="description path, or - for stdin")
    dec = action.add_parser("decode", help="URL -> edge-list description")
    dec.add_argument("url")
    ncid = action.add_parser("ncid", help="compute a named-content digest")
    ncid.add_argument("name")
    ncid.add_argument("pubkey")
    p.set_defaults(func=cmd_url)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.seed_given = any(a == "--seed" or a.startswith("--seed=") for a in argv)
    try:
        args.cfg = _load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"xcache: {exc}", file=sys.stderr)
        return EX_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
