import copy
import gc
import os
import pickle
import random
import sys
import threading
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, strategies as st

from xcache import addressing

from conftest import random_dag, relabel
from xcache.addressing import (
    MAX_DAG_NODES,
    SOURCE,
    AddressError,
    DagCycleError,
    DeliverLocal,
    DagAddress,
    DagNode,
    FallbackChain,
    Forward,
    RouteTable,
    Unroutable,
    Xid,
    XidType,
    canonical_numbering,
    dag_address,
    format_xid,
    make_fallback_dag,
    parse_xid,
    resolve_next,
    symbolic_xid,
    validate_dag,
)

C = symbolic_xid(XidType.CID, "C")
B = symbolic_xid(XidType.AD, "B")
P = symbolic_xid(XidType.HID, "P")
S = symbolic_xid(XidType.SID, "S")

ALL = frozenset(XidType)


class TestXid:
    def test_value_must_be_20_bytes(self):
        with pytest.raises(AddressError):
            Xid(XidType.CID, b"short")
        with pytest.raises(AddressError):
            Xid(XidType.CID, b"x" * 21)

    def test_equality_is_type_and_value(self):
        v = bytes(range(20))
        assert Xid(XidType.CID, v) == Xid(XidType.CID, v)
        assert Xid(XidType.CID, v) != Xid(XidType.NCID, v)

    def test_unknown_type_tag_is_an_error(self):
        with pytest.raises(AddressError):
            XidType.from_tag("QID")
        with pytest.raises(AddressError):
            parse_xid("QID-" + "0" * 40)

    def test_hex_round_trip(self):
        xid = Xid(XidType.NCID, bytes(range(20)))
        assert xid.text() == "nCID-" + bytes(range(20)).hex()
        assert parse_xid(xid.text()) == xid

    def test_strict_parse_rejects_short_labels(self):
        with pytest.raises(AddressError):
            parse_xid("AD-B")
        assert parse_xid("AD-B", allow_short=True) == B == symbolic_xid("AD", "B")

    def test_short_format_round_trip(self):
        assert format_xid(B, short=True) == "AD-B"
        assert parse_xid(format_xid(B, short=True), allow_short=True) == B

    def test_short_format_leaves_hashlike_values_hex(self):
        xid = Xid(XidType.CID, bytes([7] * 20))
        assert format_xid(xid, short=True) == xid.text()

    def test_uppercase_hex_rejected(self):
        with pytest.raises(AddressError):
            parse_xid("CID-" + "A" * 40)


XID_TYPES = list(XidType)
XID_VALUES = st.binary(min_size=20, max_size=20)


class TestXidLaws:
    @given(st.sampled_from(XID_TYPES), XID_VALUES)
    def test_equal_pairs_are_equal_and_hash_alike(self, xtype, value):
        xid, twin = Xid(xtype, value), Xid(xtype, bytes(bytearray(value)))
        assert xid == twin and not xid != twin
        assert hash(xid) == hash(twin)
        assert {xid: 1}[twin] == 1 and twin in {xid}
        assert xid is twin  # interned

    @given(st.lists(st.sampled_from(XID_TYPES), min_size=2, max_size=2, unique=True), XID_VALUES)
    def test_the_same_value_under_another_type_is_unequal(self, types, value):
        first, second = (Xid(xtype, value) for xtype in types)
        assert first != second and not first == second
        assert len({first, second}) == 2

    @given(st.sampled_from(XID_TYPES), XID_VALUES)
    def test_never_equal_to_a_tuple_or_another_class(self, xtype, value):
        xid = Xid(xtype, value)
        for other in ((xtype, value), [xtype, value], value, xid.text(), xtype, None):
            assert xid != other and other != xid
            assert not xid == other

    def test_copies_and_unpickled_xids_are_the_interned_one(self):
        for twin in (copy.copy(C), copy.deepcopy(C), pickle.loads(pickle.dumps(C))):
            assert twin is C

    @given(st.sampled_from(XID_TYPES), XID_VALUES)
    def test_text_is_the_type_tag_and_hex(self, xtype, value):
        xid = Xid(xtype, value)
        expected = f"{xid.xtype.value}-{xid.value.hex()}"
        assert format_xid(xid) == expected
        assert format_xid(xid) == xid.text() == expected  # the kept text

    def test_immutable(self):
        xid = Xid(XidType.SID, bytes([9] * 20))
        for _ in range(2):  # before format_xid keeps the text, then after
            for name in ("xtype", "value", "_text", "unknown"):
                with pytest.raises(AttributeError):
                    setattr(xid, name, None)
                with pytest.raises(AttributeError):
                    delattr(xid, name)
            assert format_xid(xid) == "SID-" + "09" * 20
        with pytest.raises(AttributeError):
            C.value = bytes(20)
        with pytest.raises(AttributeError):
            del C.xtype
        assert C == symbolic_xid(XidType.CID, "C")

    def test_intern_table_holds_only_live_xids(self):
        gc.collect()
        before = len(addressing._INTERNED)
        kept = [Xid(XidType.SID, os.urandom(20)) for _ in range(2000)]
        assert len(addressing._INTERNED) == before + 2000
        del kept
        for _ in range(2000):
            Xid(XidType.SID, os.urandom(20))
        gc.collect()
        assert len(addressing._INTERNED) <= before

    def test_threads_constructing_equal_xids_get_one_object(self):
        values = [os.urandom(20) for _ in range(3000)]
        workers = 2 * (os.cpu_count() or 1) + 4
        results = [None] * workers
        start = threading.Barrier(workers)

        def build(slot):
            start.wait(timeout=10)
            results[slot] = [Xid(XidType.CID, bytes(bytearray(v))) for v in values]

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(old_interval)
        for column in zip(*results):
            assert all(xid is column[0] for xid in column)

    def test_a_late_removal_keeps_the_entry_of_a_newer_xid(self):
        # an XID's removal can run after a miss on another thread has
        # entered a new XID of the same value; it must leave that entry
        value = os.urandom(20)
        key = (XidType.HID, value)
        first = Xid(XidType.HID, value)
        stale = addressing._INTERNED[key]
        del first
        assert key not in addressing._INTERNED
        second = Xid(XidType.HID, value)
        addressing._forget(stale)  # the first XID's removal, run late
        assert addressing._INTERNED[key]() is second
        assert Xid(XidType.HID, bytes(bytearray(value))) is second


class TestDecisionValues:
    def test_each_kind_equals_only_its_own_kind(self):
        forward, local, nothing = Forward("hop", SOURCE, 0), DeliverLocal(0), Unroutable()
        assert forward == Forward("hop", SOURCE, 0) and local == DeliverLocal(0)
        assert nothing == Unroutable()
        kinds = [forward, local, nothing]
        for a, b in permutations(kinds, 2):
            assert a != b and not a == b
        for decision, fields in ((forward, ("hop", SOURCE, 0)), (local, (0,)), (nothing, ())):
            assert decision != fields
        assert Forward("hop", SOURCE, 0) != Forward("hop", 0, 0)
        assert DeliverLocal(0) != DeliverLocal(1)

    def test_isinstance_tells_the_kinds_apart(self):
        routes = RouteTable()
        routes.add_route(B, "border")
        decision = resolve_next(make_fallback_dag(C, [B, P]), ALL, routes)
        assert isinstance(decision, Forward) and not isinstance(decision, DeliverLocal)
        assert (decision.next_hop, decision.position, decision.via) == ("border", SOURCE, 0)


class TestFallbackDag:
    def test_standard_shape(self):
        dag = make_fallback_dag(C, [B, P])
        assert [n.xid for n in dag.nodes] == [B, P, C]
        assert dag.source_edges == (2, 0)
        assert dag.nodes[0].out_edges == (1,)
        assert dag.nodes[1].out_edges == (2,)
        assert dag.nodes[2].out_edges == ()
        assert dag.intent == 2
        assert dag.intent_xid() == C

    def test_no_fallback_single_node(self):
        dag = make_fallback_dag(C, [])
        assert len(dag.nodes) == 1
        assert dag.source_edges == (0,)
        assert dag.intent_xid() == C

    def test_names_content_follows_the_intent_type(self):
        assert make_fallback_dag(C, [B, P]).names_content
        assert make_fallback_dag(Xid(XidType.NCID, bytes(20)), []).names_content
        assert not make_fallback_dag(S, [B, P]).names_content
        assert not make_fallback_dag(B, []).names_content

    def test_service_intent_same_shape(self):
        dag = make_fallback_dag(S, [B, P])
        assert dag.intent_xid() == S
        assert dag.source_edges == (2, 0)

    def test_duplicate_xids_rejected(self):
        with pytest.raises(AddressError):
            make_fallback_dag(C, [B, B])
        with pytest.raises(AddressError):
            make_fallback_dag(C, [C])

    def test_addresses_on_one_chain_share_its_nodes(self):
        chain = FallbackChain([B, P])
        first, second = chain.address(C), chain.address(S)
        assert (first, second) == (make_fallback_dag(C, [B, P]), make_fallback_dag(S, [B, P]))
        assert all(a is b for a, b in zip(first.nodes[:2], second.nodes[:2]))
        with pytest.raises(AddressError):
            chain.address(P)


# A small label pool, so that drawn paths often repeat an XID.
_pool_xids = st.builds(
    symbolic_xid, st.sampled_from(list(XidType)), st.sampled_from(["a", "b", "c", "d", "e", "f"])
)


class TestFallbackConstructor:
    """make_fallback_dag builds its chain directly; it must equal the
    validated general constructor on every input."""

    @given(intent=_pool_xids, path=st.lists(_pool_xids, max_size=MAX_DAG_NODES + 2))
    def test_equals_validated_dag_address(self, intent, path):
        k = len(path)
        nodes = [(xid, [i + 1]) for i, xid in enumerate(path)] + [(intent, [])]
        source = [k, 0] if k else [0]
        if len({intent, *path}) != k + 1 or k + 1 > MAX_DAG_NODES:
            with pytest.raises(AddressError):
                dag_address(nodes, source, intent=k)
            with pytest.raises(AddressError):
                make_fallback_dag(intent, path)
            return
        dag = make_fallback_dag(intent, path)
        assert dag == dag_address(nodes, source, intent=k)
        validate_dag(dag)

    def test_node_limit(self):
        xids = [Xid(XidType.AD, bytes([i]) * 20) for i in range(MAX_DAG_NODES)]
        make_fallback_dag(xids[0], xids[1:])
        with pytest.raises(AddressError, match="maximum"):
            make_fallback_dag(Xid(XidType.CID, bytes(20)), xids)


class TestValidation:
    def test_cycle_rejected(self):
        with pytest.raises(AddressError, match="cycle"):
            dag_address([(B, [1]), (P, [0]), (C, [])], [0, 2], intent=2)

    def test_cycle_names_a_node_on_it_ahead_of_other_faults(self):
        # node 2 is a second sink and node 0 repeats an edge; the cycle
        # through nodes 0 and 1 is still what validation reports
        dag = DagAddress(
            (DagNode(B, (1, 1)), DagNode(P, (0,)), DagNode(C, ()), DagNode(S, ())), (0, 2), 2
        )
        with pytest.raises(DagCycleError) as info:
            validate_dag(dag)
        assert info.value.node in (0, 1)

    def test_unreachable_rejected(self):
        with pytest.raises(AddressError, match="unreachable"):
            dag_address([(B, [2]), (P, [2]), (C, [])], [0], intent=2)

    def test_multiple_sinks_rejected(self):
        with pytest.raises(AddressError, match="sink"):
            dag_address([(B, []), (C, [])], [0, 1], intent=1)

    def test_edge_out_of_range(self):
        with pytest.raises(AddressError, match="out of range"):
            dag_address([(C, [5])], [0], intent=0)

    def test_node_limit(self):
        xids = [Xid(XidType.CID, bytes([i]) * 20) for i in range(17)]
        nodes = [(xids[i], [i + 1]) for i in range(16)] + [(xids[16], [])]
        with pytest.raises(AddressError, match="maximum"):
            dag_address(nodes, [0])

    def test_duplicate_edge_targets(self):
        with pytest.raises(AddressError, match="duplicate edge"):
            dag_address([(B, [1, 1]), (C, [])], [0], intent=1)

    def test_random_dags_are_valid(self):
        rng = random.Random(99)
        for _ in range(1000):
            validate_dag(random_dag(rng))


class TestCanonicalNumbering:
    def test_fallback_example(self):
        dag = make_fallback_dag(C, [B, P])
        order = canonical_numbering(dag)
        numbered = {dag.nodes[idx].xid: k for k, idx in enumerate(order)}
        assert numbered == {B: 0, P: 1, C: 2}

    def test_single_node(self):
        assert canonical_numbering(make_fallback_dag(C, [])) == [0]

    def test_intent_numbered_highest_in_fallback_dags(self):
        rng = random.Random(5)
        for _ in range(50):
            k = rng.randint(0, 6)
            fallback = [Xid(XidType.AD, rng.randbytes(20)) for _ in range(k)]
            intent = Xid(XidType.CID, rng.randbytes(20))
            dag = make_fallback_dag(intent, fallback)
            order = canonical_numbering(dag)
            assert order[-1] == dag.intent

    def test_numbering_is_stable_under_its_own_relabeling(self):
        # Exhaustive over every priority-ordered DAG with up to 4 nodes.
        checked = 0
        for n in range(1, 5):
            xids = [Xid(XidType.CID, bytes([i + 1]) * 20) for i in range(n)]
            per_node = []
            for i in range(n - 1):
                per_node.append(list(_ordered_subsets(range(i + 1, n))))
            per_node.append([()])
            sources = [s for s in _ordered_subsets(range(n)) if s]
            for edge_choice in product(*per_node):
                for source in sources:
                    try:
                        dag = dag_address(
                            [(xids[i], edge_choice[i]) for i in range(n)], source
                        )
                    except AddressError:
                        continue
                    order = canonical_numbering(dag)
                    renumbered = relabel(dag, order)
                    assert canonical_numbering(renumbered) == list(range(n))
                    checked += 1
        assert checked > 1000

    def test_relabeled_random_dags(self):
        rng = random.Random(17)
        for _ in range(200):
            dag = random_dag(rng, max_nodes=6)
            shuffled = relabel(dag, rng.sample(range(len(dag.nodes)), len(dag.nodes)))
            order = canonical_numbering(shuffled)
            renumbered = relabel(shuffled, order)
            assert canonical_numbering(renumbered) == list(range(len(dag.nodes)))


def _ordered_subsets(items):
    items = list(items)
    yield ()
    for r in range(1, len(items) + 1):
        for combo in combinations(items, r):
            yield from permutations(combo)


class TestRouteTableState:
    def test_a_write_that_changes_nothing_keeps_the_state(self):
        routes = RouteTable()
        routes.add_route(B, "border")
        routes.add_local(C)
        state = routes.state
        routes.add_route(B, "border")
        routes.remove_route(P)
        routes.add_local(C)
        routes.remove_local(S)
        assert routes.state == state
        for write in (
            lambda: routes.add_route(B, "other"),
            lambda: routes.remove_route(B),
            lambda: routes.add_local(S),
            lambda: routes.remove_local(C),
        ):
            write()
            assert routes.state != state
            state = routes.state

    def test_reads_of_an_expired_entry_move_the_state_once(self):
        # the first read withdraws the expired entry's route; the entry
        # stays for the sweep, and a second read withdraws nothing
        from xcache.chunking import build_cid_chunk
        from xcache.store import LogicalClock, StorageManager

        clock, routes = LogicalClock(), RouteTable()
        manager = StorageManager(mem_capacity=4, clock=clock, routes=routes)
        chunk = build_cid_chunk(b"short-lived", 10)
        manager.store(chunk)
        clock.advance(11)
        states = [routes.state]
        for _ in range(2):
            assert manager.get(chunk.id) is None
            states.append(routes.state)
        assert states[0] != states[1] == states[2]
        assert not routes.is_local(chunk.id) and manager.placement(chunk.id) is not None


class TestResolveNext:
    def setup_method(self):
        self.dag = make_fallback_dag(C, [B, P])

    def test_direct_content_route_wins(self):
        routes = RouteTable()
        routes.add_route(C, "cachebox")
        routes.add_route(B, "border")
        decision = resolve_next(self.dag, ALL, routes)
        assert decision == Forward(next_hop="cachebox", position=SOURCE, via=2)

    def test_fallback_taken_when_content_type_not_understood(self):
        routes = RouteTable()
        routes.add_route(C, "cachebox")
        routes.add_route(B, "border")
        decision = resolve_next(self.dag, {XidType.AD, XidType.HID}, routes)
        assert decision == Forward(next_hop="border", position=SOURCE, via=0)

    def test_empty_routes_unroutable(self):
        assert resolve_next(self.dag, ALL, RouteTable()) == Unroutable()

    def test_deliver_local_at_intent(self):
        routes = RouteTable()
        routes.add_local(C)
        assert resolve_next(self.dag, ALL, routes) == DeliverLocal(node=2)

    def test_advances_through_local_intermediates(self):
        # at the publisher: its own AD and HID are local, the content too;
        # the walk B -> P -> C happens entirely within one resolution
        routes = RouteTable()
        routes.add_local(B)
        routes.add_local(P)
        routes.add_local(C)
        decision = resolve_next(self.dag, {XidType.AD, XidType.HID, XidType.CID}, routes)
        assert decision == DeliverLocal(node=2)

    def test_intermediate_local_then_forward(self):
        routes = RouteTable()
        routes.add_local(B)
        routes.add_route(P, "peer")
        decision = resolve_next(self.dag, {XidType.AD, XidType.HID}, routes)
        assert decision == Forward(next_hop="peer", position=0, via=1)

    def test_no_lookahead_past_unusable_targets(self):
        # route exists only for the node BEHIND the fallback entry; the
        # resolver must not search through the unusable AD edge
        routes = RouteTable()
        routes.add_route(P, "peer")
        decision = resolve_next(self.dag, ALL, routes)
        assert decision == Unroutable()

    def test_deterministic(self):
        routes = RouteTable()
        routes.add_route(B, "border")
        first = resolve_next(self.dag, ALL, routes)
        for _ in range(10):
            assert resolve_next(self.dag, ALL, routes) == first

    def test_priority_monotonicity_targeted(self):
        routes = RouteTable()
        routes.add_route(B, "border")
        assert resolve_next(self.dag, ALL, routes).via == 0
        routes.add_route(C, "cachebox")
        assert resolve_next(self.dag, ALL, routes).via == 2  # higher priority

    def test_priority_monotonicity_randomized(self):
        rng = random.Random(23)
        for _ in range(300):
            dag = random_dag(rng, max_nodes=6)
            routes = RouteTable()
            for node in dag.nodes:
                if rng.random() < 0.4:
                    routes.add_route(node.xid, f"hop{rng.randrange(4)}")
            before = resolve_next(dag, ALL, routes)
            extra = rng.choice(dag.nodes).xid
            routes.add_route(extra, "newhop")
            after = resolve_next(dag, ALL, routes)
            if isinstance(before, Forward):
                assert isinstance(after, Forward)
                priority = list(dag.source_edges)
                assert priority.index(after.via) <= priority.index(before.via)
