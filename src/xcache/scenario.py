"""Scripted topology runner.

A scenario script names a topology file and then runs ordered
publish/fetch/assert commands against a network where every node hosts
its own cache daemon.  The runner emits a line-oriented ``key=value``
report (one record per publish and per fetch) that is byte-stable for a
fixed seed, which makes diff-based acceptance checks trivial.

Script commands (shlex rules, ``#`` comments):

    topology <path>
    config <key> <value>
    policy <node> always|never
    genkey <name>
    publish <node> <payload> ttl=<ms> as=<var>
    publish_key <node> <keyname> [ttl=<ms>] as=<var>
    publish_named <node> name=<addr> key=<keyname> cert=<$var>
                  payload=<payload> ttl=<ms> [+Loc=Value]... as=<var>
    forge <node> mode=reuse-key|own-key name=<addr> victim=<key>
          attacker=<key> victimcert=<$var> [attackercert=<$var>]
          payload=<payload> ttl=<ms> [+Loc=Value]...
    routefor <node> <url> <next-hop>
    unroutefor <node> <url>
    fetch <node> <url> [cert=<$var>]
    advance <ms>
    assert provider|hops|bytes|verify <fetch-index> ==|!= <value>
    assert sessions <node> ==|!= <count>
    assert cached <node> <url> ==|!= yes|no

Payload values: a literal token, ``@file`` (relative to the script) or
``size:<n>`` for a deterministic n-byte pattern.  ``$name`` references
the value a prior ``as=name`` stored; ``forge`` plants a poisoned chunk
on a node, bypassing verification the way a malicious box would.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

from .addressing import Xid
from .chunking import Chunk, PublisherKey, compute_ncid, sign_named
from .daemon import (
    CertificateRequiredError,
    DaemonConfig,
    FetchTimeoutError,
    UnroutableError,
    VerificationError,
    Xcached,
    XcacheError,
    cache_flag,
    parse_config,
)
from .netsim import NetNode, SimError, Simulator, build_simulator
from .urls import (
    LOCATOR_PUBCERT,
    NcidUrl,
    canonical_name,
    parse_dag_url,
    parse_ncid_url,
    serialize_dag_url,
    serialize_ncid_url,
)


class ScenarioError(Exception):
    """Malformed script or command that cannot run."""


def _required(options: dict[str, str], command: str, key: str) -> str:
    """The value of a ``key=value`` option the command cannot run without."""
    if key not in options:
        raise ScenarioError(f"{command} needs {key}=<value>")
    return options[key]


@dataclass
class FetchRecord:
    index: int
    node: str
    url: str
    provider: str
    hops: int
    nbytes: int
    verify: str

    def line(self) -> str:
        return (
            f"fetch={self.index} node={self.node} provider={self.provider} "
            f"hops={self.hops} bytes={self.nbytes} verify={self.verify}"
        )


@dataclass
class ScenarioResult:
    report: str
    failures: list[str]
    fetches: list[FetchRecord]


def _pattern_bytes(n: int) -> bytes:
    return bytes(i % 251 for i in range(n))


class ScenarioRunner:
    """Executes one script.  Construct, ``run()``, inspect, ``close()``."""

    def __init__(
        self,
        script: str,
        base_dir: str | Path = ".",
        seed: int | None = None,
        base_config: DaemonConfig | None = None,
    ):
        self.base_dir = Path(base_dir)
        self.seed = seed
        self.base_config = base_config if base_config is not None else DaemonConfig()
        self.commands = self._parse(script)
        self.sim: Simulator | None = None
        self.daemons: dict[str, Xcached] = {}
        self.handles: dict[str, object] = {}
        self.keys: dict[str, PublisherKey] = {}
        self.env: dict[str, str] = {}
        self.fetches: list[FetchRecord] = []
        self.failures: list[str] = []
        self.lines: list[str] = []
        self._publish_count = 0

    # -- parsing -------------------------------------------------------

    def _parse(self, script: str) -> list[tuple[int, list[str]]]:
        commands = []
        for lineno, raw in enumerate(script.splitlines(), start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            commands.append((lineno, shlex.split(stripped, comments=True)))
        return commands

    def _subst(self, token: str) -> str:
        if token.startswith("$"):
            name = token[1:]
            if name not in self.env:
                raise ScenarioError(f"undefined variable ${name}")
            return self.env[name]
        return token

    def _split_args(self, tokens: list[str]):
        """Split trailing tokens into positional, key=value options and
        +Key=Value locator pairs."""
        positional, options, locators = [], {}, []
        for token in tokens:
            key, sep, value = token.partition("=")
            if token.startswith("+") and sep:
                locators.append((key[1:], value))
            elif sep and key.isidentifier():
                options[key] = self._subst(value)
            else:
                positional.append(self._subst(token))
        return positional, options, locators

    def _payload(self, spec: str) -> bytes:
        if spec.startswith("@"):
            return (self.base_dir / spec[1:]).read_bytes()
        if spec.startswith("size:"):
            return _pattern_bytes(int(spec[5:]))
        return spec.encode("utf-8")

    # -- execution -----------------------------------------------------

    def run(self) -> ScenarioResult:
        config_lines: dict[int, str] = {}
        topology_path: Path | None = None

        # Pre-scan so configuration applies before daemons are built.
        for lineno, tokens in self.commands:
            if tokens[0] == "topology":
                if len(tokens) != 2:
                    raise ScenarioError(f"line {lineno}: topology needs a path")
                topology_path = self.base_dir / tokens[1]
            elif tokens[0] == "config":
                if len(tokens) != 3:
                    raise ScenarioError(f"line {lineno}: config needs key and value")
                config_lines[lineno] = f"{tokens[1]} = {tokens[2]}"
        if topology_path is None:
            if not self.commands:  # empty scenario: empty report
                return ScenarioResult(report="", failures=[], fetches=[])
            raise ScenarioError("script has no topology line")

        # Blank lines in between keep the config parser's line numbers
        # those of the script.
        config_text = "\n".join(
            config_lines.get(n, "") for n in range(1, max(config_lines, default=0) + 1)
        )
        try:
            cfg = parse_config(config_text, base=self.base_config)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None

        self.sim = build_simulator(
            topology_path.read_text(),
            seed=self.seed,
            segment_payload=cfg.segment_size,
            window=cfg.window,
            rto_multiplier=cfg.rto_multiplier,
        )
        for name, node in self.sim.nodes.items():
            node_cfg = replace(
                cfg, mem_capacity_chunks=self.sim.node_opts[name].get("cache", cfg.mem_capacity_chunks)
            )
            if node_cfg.disk_dir is not None:
                # every simulated node gets its own backing directory
                node_cfg = replace(node_cfg, disk_dir=str(Path(node_cfg.disk_dir) / name))
            daemon = Xcached(node_cfg, node=node)
            self.daemons[name] = daemon
            self.handles[name] = daemon.init_handle()

        for lineno, tokens in self.commands:
            if tokens[0] in ("topology", "config"):
                continue
            try:
                self._dispatch(tokens)
            except (ScenarioError, XcacheError, SimError, ValueError, OSError) as exc:
                raise ScenarioError(f"line {lineno}: {exc}") from exc

        return ScenarioResult(report=self.report(), failures=self.failures, fetches=self.fetches)

    def report(self) -> str:
        return "".join(line + "\n" for line in self.lines)

    def close(self) -> None:
        for daemon in self.daemons.values():
            daemon.shutdown()

    def _daemon(self, node: str) -> Xcached:
        if node not in self.daemons:
            raise ScenarioError(f"unknown node {node!r}")
        return self.daemons[node]

    def _node(self, node: str) -> NetNode:
        return self._daemon(node).node

    def _handle(self, node: str):
        self._daemon(node)
        return self.handles[node]

    def _key(self, name: str) -> PublisherKey:
        if name not in self.keys:
            raise ScenarioError(f"unknown key {name!r} (genkey it first)")
        return self.keys[name]

    def _dispatch(self, tokens: list[str]) -> None:
        cmd, rest = tokens[0], tokens[1:]
        handler = getattr(self, f"_cmd_{cmd.replace('-', '_')}", None)
        if handler is None:
            raise ScenarioError(f"unknown command {cmd!r}")
        handler(rest)

    # -- commands --------------------------------------------------------

    def _cmd_policy(self, args):
        node, policy = args
        self._daemon(node).caching = cache_flag(policy)

    def _cmd_genkey(self, args):
        (name,) = args
        self.keys[name] = PublisherKey.generate(rng=self.sim.rng)

    def _record_publish(self, node: str, url: str, var: str | None) -> None:
        self._publish_count += 1
        self.lines.append(f"publish={self._publish_count} node={node} url={url}")
        if var:
            self.env[var] = url

    def _cmd_publish(self, args):
        positional, options, _ = self._split_args(args)
        node, payload_spec = positional
        dag = self._handle(node).put_chunk(
            self._payload(payload_spec), ttl_ms=int(options.get("ttl", 60000))
        )
        self._record_publish(node, serialize_dag_url(dag), options.get("as"))

    def _cmd_publish_key(self, args):
        positional, options, _ = self._split_args(args)
        node, keyname = positional
        key = self._key(keyname)
        dag = self._handle(node).put_chunk(key.public, ttl_ms=int(options.get("ttl", 3600_000)))
        self._record_publish(node, serialize_dag_url(dag), options.get("as"))

    def _cmd_publish_named(self, args):
        positional, options, locators = self._split_args(args)
        (node,) = positional
        need = partial(_required, options, "publish_named")
        key = self._key(need("key"))
        cert_url = need("cert")
        address = need("name")
        name = canonical_name(address, locators)
        self._handle(node).put_named_content(
            name,
            self._payload(need("payload")),
            ttl_ms=int(options.get("ttl", 60000)),
            key=key,
            key_ref=cert_url,
        )
        url = serialize_ncid_url(
            NcidUrl(address, tuple(locators) + ((LOCATOR_PUBCERT, cert_url),))
        )
        self._record_publish(node, url, options.get("as"))

    def _cmd_forge(self, args):
        """Plant a poisoned chunk claiming an honest publisher's name."""
        positional, options, locators = self._split_args(args)
        (node,) = positional
        need = partial(_required, options, "forge")
        victim = self._key(need("victim"))
        attacker = self._key(need("attacker"))
        name = canonical_name(need("name"), locators)
        payload = self._payload(need("payload"))
        ttl = int(options.get("ttl", 60000))
        victim_ncid = compute_ncid(name, victim.fingerprint())
        mode = need("mode")
        if mode == "reuse-key":
            fp = victim.fingerprint()
            key_ref = parse_dag_url(need("victimcert"), allow_short=True)
        elif mode == "own-key":
            fp = attacker.fingerprint()
            key_ref = parse_dag_url(need("attackercert"), allow_short=True)
        else:
            raise ScenarioError(f"unknown forge mode {mode!r}")
        forged = Chunk(
            id=victim_ncid,
            ttl_ms=ttl,
            payload=payload,
            name=name,
            key_ref=key_ref,
            fingerprint=fp,
            signature=sign_named(name, payload, attacker),
        )
        self._daemon(node).inject_unverified_chunk(forged)

    def _url_intent(self, url: str, keyname: str | None = None) -> Xid:
        if url.startswith("ncid://"):
            if keyname is None:
                raise ScenarioError("a named URL needs key=<keyname> to derive its intent")
            parsed = parse_ncid_url(url)
            name = canonical_name(parsed.address, parsed.locators)
            return compute_ncid(name, self._key(keyname).fingerprint())
        return parse_dag_url(url, allow_short=True).intent_xid()

    def _cmd_routefor(self, args):
        positional, options, _ = self._split_args(args)
        node, url, nxt = positional
        self.sim.add_route(node, self._url_intent(url, options.get("key")), nxt)

    def _cmd_unroutefor(self, args):
        positional, options, _ = self._split_args(args)
        node, url = positional
        self._node(node).routes.remove_route(self._url_intent(url, options.get("key")))

    def _cmd_fetch(self, args):
        positional, options, _ = self._split_args(args)
        node, url = positional
        daemon = self._daemon(node)
        handle = self._handle(node)
        provider, hops, nbytes, verify = "-", 0, 0, "accept"
        try:
            if url.startswith("ncid://"):
                chunk, stats = daemon.get_named_entry(handle, url, cert=options.get("cert"))
            else:
                chunk, stats = daemon.fetch_entry(handle, url)
            provider, hops, nbytes = stats.provider, stats.hops, len(chunk.payload)
        except VerificationError as exc:
            verify = f"reject:{exc.reason}"
        except UnroutableError:
            verify = "error:unroutable"
        except FetchTimeoutError:
            verify = "error:timeout"
        except CertificateRequiredError:
            verify = "error:cert-required"
        record = FetchRecord(len(self.fetches), node, url, provider, hops, nbytes, verify)
        self.fetches.append(record)
        self.lines.append(record.line())

    def _cmd_advance(self, args):
        (ms,) = args
        self.sim.step(self.sim.now + int(ms))
        for daemon in self.daemons.values():
            daemon.sweep_ttl()

    def _cmd_assert(self, args):
        if not args:
            raise ScenarioError("assert needs a metric")
        metric, rest = args[0], args[1:]
        if metric in ("provider", "hops", "bytes", "verify"):
            index, op, want = rest
            try:
                record = self.fetches[int(index)]
            except IndexError:
                raise ScenarioError(
                    f"assert references fetch {index} but only {len(self.fetches)} ran"
                ) from None
            actual = {
                "provider": record.provider,
                "hops": str(record.hops),
                "bytes": str(record.nbytes),
                "verify": record.verify,
            }[metric]
        elif metric == "sessions":
            node, op, want = rest
            actual = str(self._node(node).counters["sessions_served"])
        elif metric == "cached":
            node, url, op, want = rest
            url = self._subst(url)
            xid = parse_dag_url(url, allow_short=True).intent_xid()
            actual = "yes" if self._daemon(node).manager.contains(xid) else "no"
        else:
            raise ScenarioError(f"unknown assert metric {metric!r}")
        want = self._subst(want)
        ok = (actual == want) if op == "==" else (actual != want) if op == "!=" else None
        if ok is None:
            raise ScenarioError(f"unknown operator {op!r}")
        if not ok:
            self.failures.append(
                f"assert failed: {metric} {' '.join(rest[:-2])} -> {actual!r}, wanted {op} {want!r}"
            )


def run_scenario(
    script: str,
    base_dir: str | Path = ".",
    seed: int | None = None,
    base_config: DaemonConfig | None = None,
) -> ScenarioResult:
    runner = ScenarioRunner(script, base_dir=base_dir, seed=seed, base_config=base_config)
    try:
        return runner.run()
    finally:
        runner.close()
