"""Typed principal identifiers and DAG network addresses with fallbacks.

A network address here is a small directed acyclic graph of typed,
fixed-width identifiers (XIDs).  Edge lists are priority ordered: a
forwarder tries the first edge it can use and falls back to later ones.
The unique sink of the graph is the *intent*, the principal the sender
ultimately wants to reach.
"""

from __future__ import annotations

import itertools
import re
import threading
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Collection, Sequence

XID_LEN = 20
MAX_DAG_NODES = 16
# Most forwarding decisions one address remembers (``DagAddress.decisions``).
# An address is in flight at a few nodes at a time, each at one route-table
# state, so a full memo is cleared, not trimmed: a clear costs one miss per
# state still in use.  The URL parse memos keep addresses alive, and this
# bound is what keeps their decisions small.
DECISION_MEMO_MAX = MAX_DAG_NODES

#: Traversal position meaning "no DAG node reached yet".
SOURCE = None


class AddressError(ValueError):
    """Malformed XID text or structurally invalid DAG address."""


class DagCycleError(AddressError):
    """The address graph has a cycle; ``node`` indexes a node on it."""

    def __init__(self, node: int):
        super().__init__(f"address graph has a cycle through node {node}")
        self.node = node


class XidType(Enum):
    """Principal types the network can address.

    Closed enumeration: unknown tags are a parse error, never a default.
    """

    AD = "AD"
    HID = "HID"
    SID = "SID"
    CID = "CID"
    NCID = "nCID"

    # Members are singletons, so identity hashing is exact, and it runs
    # in C instead of Enum's Python-level hash of the member name.
    __hash__ = object.__hash__

    @property
    def scheme(self) -> str:
        """Lowercase tag used as the URL scheme for this principal type."""
        return self.value.lower()

    @classmethod
    def from_tag(cls, tag: str) -> "XidType":
        member = _BY_TAG.get(tag)
        if member is None:
            raise AddressError(f"unknown principal type tag {tag!r}")
        return member

    @classmethod
    def from_scheme(cls, scheme: str) -> "XidType":
        member = _BY_SCHEME.get(scheme)
        if member is None:
            raise AddressError(f"unknown address scheme {scheme!r}")
        return member


_BY_TAG = {member.value: member for member in XidType}
_BY_SCHEME = {member.scheme: member for member in XidType}

ALL_XID_TYPES = frozenset(XidType)
CONTENT_TYPES = frozenset({XidType.CID, XidType.NCID})

_HEX_VALUE = re.compile(r"^[0-9a-f]{40}$")
_SHORT_LABEL = re.compile(r"^[A-Za-z0-9_.]{1,20}$")


class Xid:
    """A typed 20-byte principal identifier.

    XIDs are interned: constructing one equal in (type, value) to a live
    XID returns that same object.  Equality is therefore identity and the
    hash is the object's, both computed in C, since every forwarding
    decision looks XIDs up in route tables.  The intern table holds its
    XIDs weakly, so it never outgrows the XIDs in use.  An XID is
    immutable and equals no object of another class.  ``format_xid``
    keeps its canonical text in ``_text`` the first time it is asked for
    it, not when the XID is built: most session SIDs are never printed.
    """

    __slots__ = ("xtype", "value", "_text", "__weakref__")

    xtype: XidType
    value: bytes

    def __new__(cls, xtype: XidType, value: bytes) -> Xid:
        if not isinstance(value, bytes):
            raise AddressError("XID value must be bytes")
        if len(value) != XID_LEN:
            raise AddressError(f"XID value must be exactly {XID_LEN} bytes, got {len(value)}")
        key = (xtype, value)
        ref = _INTERNED.get(key)
        xid = None if ref is None else ref()
        if xid is None:
            with _INTERN_LOCK:
                ref = _INTERNED.get(key)
                xid = None if ref is None else ref()
                if xid is None:
                    xid = object.__new__(cls)
                    object.__setattr__(xid, "xtype", xtype)
                    object.__setattr__(xid, "value", value)
                    ref = _XidRef(xid, _forget)
                    ref.key = key
                    _INTERNED[key] = ref
        return xid

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Xid is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Xid is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # copies and unpickled XIDs go through the intern table too
        return (Xid, (self.xtype, self.value))

    def text(self, short: bool = False) -> str:
        return format_xid(self, short=short)

    def __repr__(self) -> str:
        return f"Xid({self.text(short=True)})"


class _XidRef(weakref.ref):
    """A weak reference to an interned XID that knows its table key."""

    __slots__ = ("key",)


def _forget(ref: _XidRef) -> None:
    # Runs when an XID dies, on whichever thread drops it.  Removes the
    # entry only while it is a dead reference, atomically, as
    # WeakValueDictionary does: a miss may already have entered a new XID.
    _remove_dead_weakref(_INTERNED, ref.key)


# The intern table: (type, value) -> weak reference to the live XID.
_INTERNED: dict[tuple[XidType, bytes], _XidRef] = {}
_INTERN_LOCK = threading.Lock()  # held while a miss creates and enters a new XID


def symbolic_xid(xtype: XidType | str, label: str) -> Xid:
    """Build an XID from a short symbolic label (test/fixture encoding).

    The label is NUL-padded to 20 bytes.  Restricted to [A-Za-z0-9_.],
    at most 20 characters.
    """
    if isinstance(xtype, str):
        xtype = XidType.from_tag(xtype)
    if not _SHORT_LABEL.match(label):
        raise AddressError(f"invalid symbolic XID label {label!r}")
    raw = label.encode("ascii")
    return Xid(xtype, raw + b"\x00" * (XID_LEN - len(raw)))


def parse_xid(text: str, allow_short: bool = False) -> Xid:
    """Parse ``<TYPE>-<value>`` XID text.

    The canonical value is 40 lowercase hex chars.  With ``allow_short``
    a short symbolic label (e.g. ``AD-B``) is accepted and NUL-padded;
    this encoding is meant for fixtures and hand-written configs.
    """
    sep = text.find("-")
    if sep < 0:
        raise AddressError(f"XID text missing type separator: {text!r}")
    xtype = XidType.from_tag(text[:sep])
    value = text[sep + 1 :]
    if _HEX_VALUE.match(value):
        return Xid(xtype, bytes.fromhex(value))
    if allow_short and _SHORT_LABEL.match(value):
        return symbolic_xid(xtype, value)
    raise AddressError(f"bad XID value {value!r} (want 40 lowercase hex chars)")


def _symbolic_label(value: bytes) -> str | None:
    stripped = value.rstrip(b"\x00")
    if not stripped or b"\x00" in stripped:
        return None
    try:
        label = stripped.decode("ascii")
    except UnicodeDecodeError:
        return None
    return label if _SHORT_LABEL.match(label) else None


def format_xid(xid: Xid, short: bool = False) -> str:
    """Render an XID as text; with ``short``, NUL-padded symbolic values
    render as their label instead of 40 hex chars."""
    if short:
        label = _symbolic_label(xid.value)
        if label is not None:
            return f"{xid.xtype.value}-{label}"
    text = getattr(xid, "_text", None)
    if text is None:
        text = f"{xid.xtype.value}-{xid.value.hex()}"
        object.__setattr__(xid, "_text", text)
    return text


@dataclass(frozen=True)
class DagNode:
    xid: Xid
    out_edges: tuple[int, ...] = ()


@dataclass(frozen=True)
class DagAddress:
    """A DAG of XIDs with priority-ordered edges.

    ``nodes`` excludes the implicit source; ``source_edges`` are the
    source's outgoing edges.  ``intent`` indexes the unique sink.

    ``decisions`` memoizes forwarding over this address: it maps a route
    table's ``state`` and a traversal position to what ``resolve_next``
    returned there.  A state number belongs to one table at one moment,
    so an entry never goes stale; it only stops being asked for.  Keys
    are plain numbers, so the memo keeps no node or simulator alive.
    """

    nodes: tuple[DagNode, ...]
    source_edges: tuple[int, ...]
    intent: int

    def intent_xid(self) -> Xid:
        return self.nodes[self.intent].xid

    @cached_property
    def names_content(self) -> bool:
        """Whether the intent is a content principal; computed once, since
        every forwarding hop with a capture tap asks."""
        return self.nodes[self.intent].xid.xtype in CONTENT_TYPES

    @cached_property
    def decisions(self) -> dict[tuple[int, int | None], Decision]:
        """The forwarding memo; callers clear it once it holds
        ``DECISION_MEMO_MAX`` entries."""
        return {}


def dag_address(
    nodes: Sequence[DagNode | tuple[Xid, Sequence[int]]],
    source_edges: Sequence[int],
    intent: int | None = None,
) -> DagAddress:
    """Normalize, infer the intent if omitted, and validate."""
    normalized = []
    for node in nodes:
        if isinstance(node, DagNode):
            normalized.append(DagNode(node.xid, tuple(node.out_edges)))
        else:
            xid, edges = node
            normalized.append(DagNode(xid, tuple(edges)))
    if intent is None:
        sinks = [i for i, node in enumerate(normalized) if not node.out_edges]
        if len(sinks) != 1:
            raise AddressError(f"expected exactly one sink, found {len(sinks)}")
        intent = sinks[0]
    dag = DagAddress(tuple(normalized), tuple(source_edges), intent)
    validate_dag(dag)
    return dag


def validate_dag(dag: DagAddress) -> None:
    """Check every structural invariant; raise AddressError on the first
    violation.

    The checks run in this order: node count, source edges, edge targets
    in range, cycles (raised as DagCycleError, which names a node on the
    cycle), one sink and it the intent, repeated edge targets,
    reachability from the source, distinct XIDs.  Once every edge points
    at a node, a cycle is thus reported ahead of any other fault.
    """
    nodes = dag.nodes
    n = len(nodes)
    if n == 0:
        raise AddressError("address has no nodes")
    if n > MAX_DAG_NODES:
        raise AddressError(f"address has {n} nodes, maximum is {MAX_DAG_NODES}")
    if not dag.source_edges:
        raise AddressError("source has no outgoing edges")

    edge_lists = (dag.source_edges, *(node.out_edges for node in nodes))
    for who, edges in enumerate(edge_lists):
        for target in edges:
            if not 0 <= target < n:
                raise AddressError(f"{_edge_owner(who)}: edge target {target} out of range")

    cycle_node = find_cycle(dag)
    if cycle_node is not None:
        raise DagCycleError(cycle_node)

    sinks = [i for i, node in enumerate(nodes) if not node.out_edges]
    if len(sinks) != 1:
        raise AddressError(f"expected exactly one sink, found {len(sinks)}")
    if sinks[0] != dag.intent:
        raise AddressError(f"intent index {dag.intent} is not the sink {sinks[0]}")

    for who, edges in enumerate(edge_lists):
        if len(set(edges)) != len(edges):
            repeated = next(t for i, t in enumerate(edges) if t in edges[:i])
            raise AddressError(f"{_edge_owner(who)}: duplicate edge target {repeated}")

    reached = set()
    stack = list(dag.source_edges)
    while stack:
        i = stack.pop()
        if i in reached:
            continue
        reached.add(i)
        stack.extend(nodes[i].out_edges)
    if len(reached) != n:
        missing = sorted(set(range(n)) - reached)
        raise AddressError(f"nodes unreachable from source: {missing}")

    if len({node.xid for node in nodes}) != n:
        raise AddressError("duplicate XIDs within the address")


def _edge_owner(who: int) -> str:
    """Name edge list ``who`` of validate_dag: 0 is the source's, i the
    out-edges of node i - 1."""
    return "source" if who == 0 else f"node {who - 1}"


def find_cycle(dag: DagAddress) -> int | None:
    """Return a node index on a cycle, or None if the graph is acyclic."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = [WHITE] * len(dag.nodes)

    for root in range(len(dag.nodes)):
        if color[root] != WHITE:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        color[root] = GREY
        while stack:
            node, edge_pos = stack[-1]
            edges = dag.nodes[node].out_edges
            if edge_pos == len(edges):
                color[node] = BLACK
                stack.pop()
                continue
            stack[-1] = (node, edge_pos + 1)
            target = edges[edge_pos]
            if color[target] == GREY:
                return target
            if color[target] == WHITE:
                color[target] = GREY
                stack.append((target, 0))
    return None


class FallbackChain:
    """The fallback part of the standard two-route address: one node per
    XID of ``path``, each edge leading to the next, the last to the
    intent.  DagNodes are frozen, so every address built from one chain
    shares its nodes, and each costs one intent node and one DagAddress.
    """

    __slots__ = ("nodes", "_source_edges")

    def __init__(self, path: Sequence[Xid]):
        k = len(path)
        if k >= MAX_DAG_NODES:
            raise AddressError(f"address has {k + 1} nodes, maximum is {MAX_DAG_NODES}")
        if len(set(path)) != k:
            raise AddressError("duplicate XIDs within the address")
        self.nodes = tuple(DagNode(xid, (i + 1,)) for i, xid in enumerate(path))
        self._source_edges = (k, 0) if k else (k,)

    def address(self, intent: Xid) -> DagAddress:
        """The address of ``intent``: the source's first (highest
        priority) edge goes straight to the intent, the second enters the
        chain.  That shape passes validate_dag by construction, so only
        what the intent can break is checked: that no chain node has its
        XID."""
        nodes = self.nodes
        for node in nodes:
            if node.xid is intent:
                raise AddressError("duplicate XIDs within the address")
        return DagAddress((*nodes, DagNode(intent, ())), self._source_edges, len(nodes))


def make_fallback_dag(intent: Xid, fallback_path: Sequence[Xid]) -> DagAddress:
    """Build the standard two-route address: a direct edge to the intent
    plus a fallback chain through ``fallback_path`` that also terminates
    at the intent.  A caller that builds many addresses on one path keeps
    its ``FallbackChain`` instead."""
    return FallbackChain(fallback_path).address(intent)


def canonical_numbering(dag: DagAddress) -> list[int]:
    """Deterministic numbering of the nodes, as used on the wire.

    Rule: depth-first traversal from the source, visiting each node's
    out-edges in reverse priority order, assigning numbers in first-visit
    order.  Returns node indices in numbering order (position k holds the
    index of the node numbered k).  In a plain fallback-chain address the
    intent always receives the highest number.
    """
    order: list[int] = []
    seen: set[int] = set()

    def visit(edges: tuple[int, ...]) -> None:
        for target in reversed(edges):
            if target not in seen:
                seen.add(target)
                order.append(target)
                visit(dag.nodes[target].out_edges)

    visit(dag.source_edges)
    return order


_ROUTE_STATES = itertools.count()


class RouteTable:
    """Per-node forwarding state: at most one next hop per XID, plus the
    set of XIDs deliverable on this node.

    ``state`` names the table's contents: every table takes a fresh
    number from one process-wide counter when it is built and on every
    write that changes it, so no two tables, and no two contents of one
    table, share a number.  A write that changes nothing keeps it.
    Forwarding memos (``DagAddress.decisions``) key on it.  Only these
    methods may change ``_next_hop`` and ``_local``; a write that
    bypassed them would leave ``state`` naming old contents.
    """

    def __init__(self) -> None:
        self._next_hop: dict[Xid, str] = {}
        self._local: set[Xid] = set()
        self.state = next(_ROUTE_STATES)

    def add_route(self, xid: Xid, next_hop: str) -> None:
        if self._next_hop.get(xid) != next_hop:
            self._next_hop[xid] = next_hop
            self.state = next(_ROUTE_STATES)

    def remove_route(self, xid: Xid) -> None:
        if self._next_hop.pop(xid, None) is not None:
            self.state = next(_ROUTE_STATES)

    def next_hop(self, xid: Xid) -> str | None:
        return self._next_hop.get(xid)

    def add_local(self, xid: Xid) -> None:
        if xid not in self._local:
            self._local.add(xid)
            self.state = next(_ROUTE_STATES)

    def remove_local(self, xid: Xid) -> None:
        if xid in self._local:
            self._local.remove(xid)
            self.state = next(_ROUTE_STATES)

    def is_local(self, xid: Xid) -> bool:
        return xid in self._local

    def locals(self) -> frozenset[Xid]:
        return frozenset(self._local)


# Decisions are memoized per address and shared by every segment that
# carries it, so they are frozen.  Each equals only a decision of its own
# kind with equal fields.


@dataclass(frozen=True, slots=True)
class DeliverLocal:
    """The intent is deliverable on this node."""

    node: int


@dataclass(frozen=True, slots=True)
class Forward:
    """Hand the segment to ``next_hop``; ``position`` is the traversal
    position after advancing through any locally-held intermediate nodes,
    and ``via`` is the edge target being pursued."""

    next_hop: str
    position: int | None
    via: int


@dataclass(frozen=True, slots=True)
class Unroutable:
    """No usable edge; a value, not a fault."""


Decision = DeliverLocal | Forward | Unroutable


def resolve_next(
    dag: DagAddress,
    understood: Collection[XidType],
    routes: RouteTable,
    position: int | None = SOURCE,
) -> Decision:
    """One forwarding decision at a node.

    Edges from the current position are tried in priority order.  An edge
    is usable iff its target's type is understood and the target is
    either deliverable locally or has a next hop.  The first usable edge
    wins.  A locally-held intermediate target advances the position and
    the scan restarts from there; there is no lookahead past unusable
    targets and no backtracking.
    """
    nodes = dag.nodes
    local = routes._local
    next_hop = routes._next_hop
    pos = position
    edges = dag.source_edges if pos is SOURCE else nodes[pos].out_edges
    while True:
        for target in edges:
            xid = nodes[target].xid
            if xid.xtype not in understood:
                continue
            if xid in local:
                if target == dag.intent:
                    return DeliverLocal(target)
                pos = target
                edges = nodes[target].out_edges
                break
            hop = next_hop.get(xid)
            if hop is not None:
                return Forward(hop, pos, target)
        else:
            return Unroutable()
