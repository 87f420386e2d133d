"""Properties of the per-segment forwarding decision.

``resolve_next`` reads the route table's set and dict directly and keeps
no intermediate choice; ``reference_resolve_next`` below is the
straightforward edge scan through the ``RouteTable`` methods, kept as
the specification the fast version must agree with.
"""

import random

from hypothesis import given, settings, strategies as st

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

