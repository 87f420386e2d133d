"""Properties of the per-segment forwarding decision.

``resolve_next`` reads the route table's set and dict directly and keeps
no intermediate choice; ``reference_resolve_next`` below is the
straightforward edge scan through the ``RouteTable`` methods, kept as
the specification the fast version must agree with.  A node memoizes
decisions under its route table's ``state``, so the decision it acts on
must still agree after any sequence of route changes, and nothing but
``RouteTable``'s own methods may change what ``state`` names.
"""

import ast
import random
from pathlib import Path

from hypothesis import given, settings, strategies as st

import xcache
from conftest import random_dag
from xcache.addressing import (
    SOURCE,
    DeliverLocal,
    Forward,
    RouteTable,
    Unroutable,
    XidType,
    resolve_next,
)
from xcache.netsim import SegFlags, Segment, Simulator

XID_TYPES = list(XidType)


def reference_resolve_next(dag, understood, routes, position=SOURCE):
    understood = frozenset(understood)
    pos = position
    while True:
        edges = dag.source_edges if pos is SOURCE else dag.nodes[pos].out_edges
        chosen = None
        for target in edges:
            node = dag.nodes[target]
            if node.xid.xtype not in understood:
                continue
            if routes.is_local(node.xid):
                chosen = ("local", target, None)
                break
            hop = routes.next_hop(node.xid)
            if hop is not None:
                chosen = ("forward", target, hop)
                break
        if chosen is None:
            return Unroutable()
        kind, target, hop = chosen
        if kind == "forward":
            return Forward(next_hop=hop, position=pos, via=target)
        if target == dag.intent:
            return DeliverLocal(node=target)
        pos = target


@st.composite
def forwarding_cases(draw):
    dag = random_dag(random.Random(draw(st.integers(0, 2**32 - 1))), max_nodes=8)
    routes = RouteTable()
    for node in dag.nodes:
        entry = draw(st.sampled_from(["none", "local", "hop", "both"]))
        if entry in ("local", "both"):
            routes.add_local(node.xid)
        if entry in ("hop", "both"):
            routes.add_route(node.xid, draw(st.sampled_from(["east", "west", "up"])))
    understood = draw(st.sets(st.sampled_from(XID_TYPES)))
    if draw(st.booleans()):
        understood = frozenset(understood)
    return dag, understood, routes


@settings(max_examples=400, deadline=None)
@given(forwarding_cases())
def test_resolve_next_matches_reference_from_every_position(case):
    dag, understood, routes = case
    for position in [SOURCE, *range(len(dag.nodes))]:
        expected = reference_resolve_next(dag, understood, routes, position)
        assert resolve_next(dag, understood, routes, position) == expected


@given(forwarding_cases())
def test_understood_may_be_any_collection(case):
    dag, understood, routes = case
    assert resolve_next(dag, list(understood), routes) == resolve_next(dag, understood, routes)



NEIGHBOURS = ["east", "west", "up"]


@st.composite
def route_churn(draw):
    """Two addresses, the types one node understands, and a sequence of
    route changes at that node on the addresses' XIDs."""
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2))
    dags = [random_dag(random.Random(seed), max_nodes=5) for seed in seeds]
    xids = st.sampled_from([node.xid for dag in dags for node in dag.nodes])
    change = st.one_of(
        st.tuples(st.sampled_from(["add_local", "remove_local", "remove_route"]), xids),
        st.tuples(st.just("add_route"), xids, st.sampled_from(NEIGHBOURS)),
    )
    understood = draw(st.sets(st.sampled_from(XID_TYPES), min_size=1))
    return dags, understood, draw(st.lists(change, max_size=20))


@settings(max_examples=200, deadline=None)
@given(route_churn())
def test_a_node_acts_on_the_decision_for_its_current_routes(case):
    # after every route change, a segment toward either address from
    # every position, twice: the second meets the memoized decision
    dags, understood, changes = case
    sim = Simulator()
    node = sim.add_node("here", understood=understood)
    for name in NEIGHBOURS:
        sim.add_node(name)
        sim.add_link("here", name)
    sim.trace = []
    for change in [None, *changes]:
        if change is not None:
            getattr(node.routes, change[0])(*change[1:])
        for dag in dags * 2:
            for position in [SOURCE, *range(len(dag.nodes))]:
                expected = reference_resolve_next(dag, understood, node.routes, position)
                # an ACK already one hop out: delivering it changes no route
                seg = Segment(b"session", 0, SegFlags.ACK, dag, dag, dst_position=position, hops=1)
                disposition = node.on_segment(seg)
                assert dag.decisions[(node.routes.state, position)] == expected
                if isinstance(expected, Forward):
                    assert disposition == "forwarded"
                    assert seg.dst_position == expected.position
                    assert sim.trace[-1][0:4] == ("xmit", 0, "here", expected.next_hop)
                elif isinstance(expected, DeliverLocal):
                    assert (disposition, seg.dst_position) == ("delivered", expected.node)
                else:
                    assert disposition == "unroutable"


ROUTE_INTERNALS = {"_local", "_next_hop"}
READ_METHODS = {"get", "keys", "values", "items", "copy"}


def route_internal_writes(source: str) -> list[tuple[str, int]]:
    """The (scope, line) of every use of a route table's ``_local`` or
    ``_next_hop``, or of a local name bound to one, outside
    ``RouteTable``'s own methods that is not a plain read: binding a
    name, a membership test, a subscript load or a read-only method."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def enclosing(node):
        while node in parents:
            node = parents[node]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield node

    def function_of(node):
        return next((n for n in enclosing(node) if not isinstance(n, ast.ClassDef)), None)

    def binds_alias(ref):
        parent = parents[ref]
        return (
            isinstance(parent, ast.Assign)
            and parent.value is ref
            and all(isinstance(target, ast.Name) for target in parent.targets)
        )

    refs = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ROUTE_INTERNALS
    ]
    aliases = {
        (function_of(ref), target.id)
        for ref in refs
        if binds_alias(ref)
        for target in parents[ref].targets
    }
    refs += [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and (function_of(node), node.id) in aliases
    ]
    writes = []
    for ref in refs:
        scopes = list(enclosing(ref))
        if any(isinstance(n, ast.ClassDef) and n.name == "RouteTable" for n in scopes):
            continue
        parent = parents[ref]
        if isinstance(parent, ast.Assign) and ref in parent.targets and binds_alias(parent.value):
            continue  # the binding itself
        read = (
            (isinstance(ref, ast.Attribute) and binds_alias(ref))
            or (
                isinstance(parent, ast.Compare)
                and ref in parent.comparators
                and all(isinstance(op, (ast.In, ast.NotIn)) for op in parent.ops)
            )
            or (
                isinstance(parent, ast.Subscript)
                and parent.value is ref
                and isinstance(parent.ctx, ast.Load)
            )
            or (
                isinstance(parent, ast.Attribute)
                and parent.attr in READ_METHODS
                and isinstance(parents[parent], ast.Call)
                and parents[parent].func is parent
            )
        ) and isinstance(ref.ctx, ast.Load)
        if not read:
            writes.append((".".join(n.name for n in reversed(scopes)), ref.lineno))
    return sorted(writes, key=lambda write: write[1])


def test_only_route_table_methods_change_its_contents():
    source = Path(xcache.__file__).parent
    for path in sorted(source.glob("*.py")):
        assert route_internal_writes(path.read_text()) == [], path.name


def test_the_route_guard_tells_reads_from_writes():
    reads = """
def resolve(routes, xid):
    local = routes._local
    hops = routes._next_hop
    return xid in local or xid not in routes._local or hops.get(xid) or routes._next_hop[xid]

class RouteTable:
    def add_local(self, xid):
        self._local.add(xid)
"""
    assert route_internal_writes(reads) == []
    writes = """
def writer(routes, xid):
    routes._local.add(xid)
    routes._next_hop[xid] = "east"
    del routes._next_hop[xid]
    routes._local = set()
    local = routes._local
    local.discard(xid)
    local |= {xid}
    keep(routes._next_hop)
"""
    assert [line for _, line in route_internal_writes(writes)] == [3, 4, 5, 6, 8, 9, 10]
