import random
import string

import pytest
from hypothesis import given, strategies as st

from conftest import LINE3_TOPO, random_dag, relabel, run_session
from xcache import urls
from xcache.addressing import (
    DagAddress,
    XidType,
    canonical_numbering,
    format_xid,
    make_fallback_dag,
    symbolic_xid,
)
from xcache.chunking import PublisherKey, compute_cid
from xcache.netsim import build_simulator
from xcache.urls import (
    LOCATOR_PUBCERT,
    LOCATOR_VERSION,
    PARSE_MEMO_SIZE,
    NcidUrl,
    UrlParseError,
    canonical_name,
    parse_dag_url,
    parse_ncid_url,
    pct_decode,
    pct_encode,
    serialize_dag_url,
    serialize_ncid_url,
)

C = symbolic_xid(XidType.CID, "C")
B = symbolic_xid(XidType.AD, "B")
P = symbolic_xid(XidType.HID, "P")
S = symbolic_xid(XidType.SID, "S")

FALLBACK_URL = "cid://2,0/AD-B,1/HID-P,2/CID-C"


class TestDagUrlSerialize:
    def test_fallback_example_exact(self):
        dag = make_fallback_dag(C, [B, P])
        assert serialize_dag_url(dag, short=True) == FALLBACK_URL

    def test_single_node(self):
        assert serialize_dag_url(make_fallback_dag(C, []), short=True) == "cid://0/CID-C"

    def test_service_intent(self):
        dag = make_fallback_dag(S, [B, P])
        assert serialize_dag_url(dag, short=True) == "sid://2,0/AD-B,1/HID-P,2/SID-S"

    def test_scheme_follows_intent_type(self):
        rng = random.Random(3)
        for xtype in XidType:
            dag = random_dag(rng, intent_type=xtype)
            assert serialize_dag_url(dag).startswith(xtype.scheme + "://")


def reference_serialize_dag_url(dag: DagAddress, short: bool = False) -> str:
    """serialize_dag_url without the layout memo: number the nodes and
    print every XID afresh on each call.  The oracle for the memo."""
    order = canonical_numbering(dag)
    number = {node_index: k for k, node_index in enumerate(order)}
    segments = [",".join(str(number[t]) for t in dag.source_edges)]
    for node_index in order:
        node = dag.nodes[node_index]
        xid = node.xid
        text = format_xid(xid, short=True) if short else f"{xid.xtype.value}-{xid.value.hex()}"
        parts = [text]
        parts.extend(str(number[t]) for t in node.out_edges)
        segments.append(",".join(parts))
    scheme = dag.intent_xid().xtype.scheme
    return f"{scheme}://" + "/".join(segments)


class TestSerializeOracle:
    def test_random_dags_of_every_intent_type(self):
        # more shapes than the layout memo keeps, so it fills and clears;
        # each also with its nodes shuffled, so the sink is not always last
        rng = random.Random(21)
        types = list(XidType)
        for i in range(PARSE_MEMO_SIZE):
            dag = random_dag(rng, max_nodes=8, intent_type=types[i % len(types)])
            shuffled = relabel(dag, rng.sample(range(len(dag.nodes)), len(dag.nodes)))
            for each in (dag, shuffled):
                for short in (False, True):
                    assert serialize_dag_url(each, short) == reference_serialize_dag_url(each, short)
            assert len(urls._LAYOUTS) <= PARSE_MEMO_SIZE

    def test_published_and_session_endpoint_addresses(self):
        sim = build_simulator(LINE3_TOPO)
        client, pub = sim.nodes["client"], sim.nodes["pub"]
        dags = [make_fallback_dag(C, [B, P]), make_fallback_dag(C, [])]
        for node in sim.nodes.values():
            dags.append(node.local_dag_for(compute_cid(node.name.encode())))
        served = compute_cid(b"served")
        pub.routes.add_local(served)
        pub.serve = lambda xid: b"served"
        session = run_session(client, pub.local_dag_for(served))
        assert session.state == "complete"
        dags += [session.endpoint_dag, session.reply.endpoint_dag]
        for dag in dags:
            for short in (False, True):
                assert serialize_dag_url(dag, short) == reference_serialize_dag_url(dag, short)


class TestDagUrlParse:
    def test_fallback_example(self):
        assert parse_dag_url(FALLBACK_URL, allow_short=True) == make_fallback_dag(C, [B, P])

    def test_single_node(self):
        assert parse_dag_url("cid://0/CID-C", allow_short=True) == make_fallback_dag(C, [])

    def test_cycle_reported_with_position(self):
        with pytest.raises(UrlParseError) as info:
            parse_dag_url("cid://2,0/AD-B,1/HID-P,0/CID-C", allow_short=True)
        assert info.value.kind == "cycle"
        assert info.value.position > 0

    def test_edge_out_of_range(self):
        with pytest.raises(UrlParseError) as info:
            parse_dag_url("cid://9/CID-C", allow_short=True)
        assert info.value.kind == "edge-range"

    def test_unknown_scheme(self):
        with pytest.raises(UrlParseError) as info:
            parse_dag_url("zid://0/CID-C", allow_short=True)
        assert info.value.kind == "scheme"
        assert info.value.position == 0

    def test_scheme_intent_mismatch(self):
        with pytest.raises(UrlParseError) as info:
            parse_dag_url("sid://0/CID-C", allow_short=True)
        assert info.value.kind == "intent-mismatch"

    def test_malformed_segment(self):
        with pytest.raises(UrlParseError) as info:
            parse_dag_url("cid://x/CID-C", allow_short=True)
        assert info.value.kind == "malformed"

    def test_strict_mode_rejects_short_xids(self):
        with pytest.raises(UrlParseError):
            parse_dag_url(FALLBACK_URL)

    def test_node_count_limit(self):
        n = 20
        segments = [",".join(str(i) for i in range(n))]
        for i in range(n):
            edges = [str(i + 1)] if i + 1 < n else []
            segments.append(",".join([f"CID-n{i}"] + edges))
        with pytest.raises(UrlParseError) as info:
            parse_dag_url("cid://" + "/".join(segments), allow_short=True)
        assert info.value.kind == "invalid"

    def test_cycle_detector_against_oracle_on_small_graphs(self):
        # every 3-node edge combination, cyclic or not, expressed as URL
        # text; the parser must flag exactly the cyclic ones
        def subsets(items):
            out = [()]
            for r in range(1, len(items) + 1):
                from itertools import combinations

                out.extend(combinations(items, r))
            return out

        def oracle_cyclic(edge_lists):
            WHITE, GREY, BLACK = 0, 1, 2
            color = [WHITE] * len(edge_lists)

            def visit(i):
                color[i] = GREY
                for t in edge_lists[i]:
                    if color[t] == GREY or (color[t] == WHITE and visit(t)):
                        return True
                color[i] = BLACK
                return False

            return any(visit(i) for i in range(len(edge_lists)) if color[i] == WHITE)

        n = 3
        from itertools import product

        cyclic_seen = acyclic_seen = 0
        for edge_lists in product(subsets(range(n)), repeat=n):
            segments = ["cid://" + ",".join(str(i) for i in range(n))]
            for i, edges in enumerate(edge_lists):
                segments.append(",".join([f"CID-n{i}"] + [str(t) for t in edges]))
            url = "/".join(segments)
            try:
                parse_dag_url(url, allow_short=True)
                outcome = "ok"
            except UrlParseError as exc:
                outcome = exc.kind
            if oracle_cyclic(edge_lists):
                assert outcome == "cycle", url
                cyclic_seen += 1
            else:
                assert outcome != "cycle", url
                acyclic_seen += 1
        assert cyclic_seen > 400 and acyclic_seen > 20


class TestDagUrlRoundTrip:
    def test_thousand_random_dags_reserialize_identically(self):
        rng = random.Random(1234)
        types = list(XidType)
        for i in range(1000):
            dag = random_dag(rng, max_nodes=8, intent_type=types[i % len(types)])
            url = serialize_dag_url(dag)
            parsed = parse_dag_url(url)
            assert serialize_dag_url(parsed) == url

    def test_parse_of_serialize_is_structurally_equal(self):
        rng = random.Random(77)
        for _ in range(200):
            dag = random_dag(rng, max_nodes=8)
            parsed = parse_dag_url(serialize_dag_url(dag))
            assert serialize_dag_url(parsed) == serialize_dag_url(dag)
            assert sorted(n.xid.value for n in parsed.nodes) == sorted(
                n.xid.value for n in dag.nodes
            )
            assert parsed.intent_xid() == dag.intent_xid()

    def test_parse_never_panics_on_arbitrary_input(self):
        rng = random.Random(42)
        candidates = []
        for _ in range(400):
            length = rng.randint(0, 60)
            candidates.append(
                "".join(chr(rng.randint(1, 0x7F)) for _ in range(length))
            )
        base = FALLBACK_URL
        for _ in range(400):
            pos = rng.randrange(len(base))
            mutated = base[:pos] + chr(rng.randint(1, 0x7F)) + base[pos + 1 :]
            candidates.append(mutated)
        for text in candidates:
            try:
                parse_dag_url(text, allow_short=True)
            except UrlParseError:
                pass


class TestNcidUrl:
    def test_useragent_example_exact(self):
        url = NcidUrl("content.facebook.com", (("UserAgent", "Android"),))
        assert serialize_ncid_url(url) == "ncid://content.facebook.com/UserAgent=Android"
        assert parse_ncid_url("ncid://content.facebook.com/UserAgent=Android") == url

    def test_empty_locator_set(self):
        assert serialize_ncid_url(NcidUrl("a")) == "ncid://a/"
        assert parse_ncid_url("ncid://a/") == NcidUrl("a")

    def test_reserved_characters_round_trip(self):
        url = NcidUrl("a&b/c", (("k=1", "v&w%"), ("other", "x#y")))
        assert parse_ncid_url(serialize_ncid_url(url)) == url

    def test_locator_order_preserved(self):
        url = NcidUrl("a", (("z", "1"), ("a", "2"), ("m", "3")))
        assert parse_ncid_url(serialize_ncid_url(url)).locators == url.locators

    def test_duplicate_locator_key_rejected(self):
        with pytest.raises(UrlParseError) as info:
            parse_ncid_url("ncid://a/k=1&k=2")
        assert info.value.kind == "duplicate-locator"

    def test_empty_address_rejected(self):
        with pytest.raises(UrlParseError) as info:
            parse_ncid_url("ncid:///k=1")
        assert info.value.kind == "empty-address"

    def test_bad_percent_escape(self):
        with pytest.raises(UrlParseError) as info:
            parse_ncid_url("ncid://a%2/k=1")
        assert info.value.kind == "escape"

    def test_missing_slash_after_address(self):
        with pytest.raises(UrlParseError) as info:
            parse_ncid_url("ncid://justaname")
        assert info.value.kind == "malformed"

    def test_pubcert_locator_must_be_a_dag_url(self):
        good = serialize_ncid_url(NcidUrl("a", (("PubCert", "cid://0/CID-C"),)))
        assert parse_ncid_url(good).locator("PubCert") == "cid://0/CID-C"
        with pytest.raises(UrlParseError):
            parse_ncid_url("ncid://a/PubCert=gibberish")

    def test_missing_pubcert_is_accepted_at_parse_time(self):
        parsed = parse_ncid_url("ncid://a/Version=7")
        assert parsed.locator("PubCert") is None

    def test_fuzz_round_trip_random_printable(self):
        rng = random.Random(9)
        for _ in range(300):
            addr = "".join(chr(rng.randint(0x20, 0x7E)) for _ in range(rng.randint(1, 12)))
            pairs = []
            used = set()
            for _ in range(rng.randint(0, 3)):
                key = "".join(chr(rng.randint(0x21, 0x7E)) for _ in range(rng.randint(1, 6)))
                if key in used or key == "PubCert":
                    continue
                used.add(key)
                value = "".join(chr(rng.randint(0x20, 0x7E)) for _ in range(rng.randint(0, 8)))
                pairs.append((key, value))
            url = NcidUrl(addr, tuple(pairs))
            assert parse_ncid_url(serialize_ncid_url(url)) == url

    def test_parse_never_panics(self):
        rng = random.Random(31)
        for _ in range(500):
            text = "ncid://" + "".join(
                chr(rng.randint(1, 0x7F)) for _ in range(rng.randint(0, 30))
            )
            try:
                parse_ncid_url(text)
            except UrlParseError:
                pass


def _failure(parse, *args):
    with pytest.raises(UrlParseError) as info:
        parse(*args)
    return info.value.kind, info.value.position, str(info.value)


class TestParseMemo:
    """Successful parses are kept and shared; failures never are."""

    @given(seed=st.integers(0, 2**32 - 1))
    def test_dag_round_trip_is_stable_across_calls(self, seed):
        dag = random_dag(random.Random(seed))
        url = serialize_dag_url(dag)
        parse_dag_url.cache_clear()
        first = parse_dag_url(url)
        assert serialize_dag_url(first) == url
        assert first == parse_dag_url.__wrapped__(url)
        for _ in range(2):
            assert parse_dag_url(url) is first
        assert parse_dag_url.cache_info().hits == 2

    @pytest.mark.parametrize(
        "parse, url, kind",
        [
            (parse_dag_url, "cid://2,0/AD-B,1/HID-P,0/CID-C", "cycle"),
            (parse_dag_url, "cid://9/CID-C", "edge-range"),
            (parse_dag_url, "zid://0/CID-C", "scheme"),
            (parse_dag_url, "sid://0/CID-C", "intent-mismatch"),
            (parse_dag_url, "cid://x/CID-C", "malformed"),
            (parse_ncid_url, "ncid://a%2/k=1", "escape"),
            (parse_ncid_url, "ncid://a/k=1&k=2", "duplicate-locator"),
            (parse_ncid_url, "ncid:///k=1", "empty-address"),
            (parse_ncid_url, "ncid://a/PubCert=gibberish", "invalid"),
        ],
    )
    def test_failures_repeat_exactly_and_are_not_kept(self, parse, url, kind):
        args = (url, True) if parse is parse_dag_url else (url,)
        parse.cache_clear()
        first = _failure(parse, *args)
        assert first[0] == kind
        assert _failure(parse, *args) == first
        assert _failure(parse, *args) == first
        assert parse.cache_info().currsize == 0

    def test_memo_is_keyed_by_short_mode(self):
        url = "cid://0/CID-C"
        strict = _failure(parse_dag_url, url)
        assert parse_dag_url(url, True) == make_fallback_dag(C, [])
        assert _failure(parse_dag_url, url) == strict

    @given(
        address=st.text(min_size=1, max_size=12),
        locators=st.dictionaries(
            st.text(min_size=1, max_size=6).filter(lambda k: k != "PubCert"),
            st.text(max_size=8),
            max_size=3,
        ),
    )
    def test_ncid_round_trip_is_stable_across_calls(self, address, locators):
        url = NcidUrl(address, tuple(locators.items()))
        text = serialize_ncid_url(url)
        first = parse_ncid_url(text)
        assert first == url
        for _ in range(2):
            assert parse_ncid_url(text) is first

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_dag_url, lambda i: f"cid://0/CID-{i:040x}"),
            (parse_ncid_url, lambda i: f"ncid://n{i}/"),
        ],
        ids=["dag", "ncid"],
    )
    def test_memo_stays_within_its_bound(self, parse, text):
        parse.cache_clear()
        for i in range(PARSE_MEMO_SIZE + 50):
            parse(text(i))
            assert parse.cache_info().currsize <= PARSE_MEMO_SIZE
        assert parse.cache_info().currsize == PARSE_MEMO_SIZE
        parse(text(0))  # the oldest entry was evicted
        assert parse.cache_info().misses == PARSE_MEMO_SIZE + 51


def reference_pct_encode(text: str) -> str:
    """The byte-at-a-time encoder that the table-driven one replaced."""
    out = []
    for byte in text.encode("utf-8"):
        if byte in b"/&=%#" or byte <= 0x20 or byte > 0x7E:
            out.append(f"%{byte:02x}")
        else:
            out.append(chr(byte))
    return "".join(out)


def reference_pct_decode(text: str, base_offset: int = 0) -> str:
    """The character-at-a-time decoder that the regex-checked one replaced,
    with an unescaped non-ASCII character made a typed error."""
    raw = bytearray()
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "%":
            hexpart = text[i + 1 : i + 3]
            if len(hexpart) != 2 or any(c not in "0123456789abcdefABCDEF" for c in hexpart):
                raise UrlParseError("escape", base_offset + i, f"bad percent escape {text[i:i+3]!r}")
            raw.append(int(hexpart, 16))
            i += 3
        elif ord(ch) > 0x7F:
            raise UrlParseError("escape", base_offset + i, f"unescaped non-ASCII character {ch!r}")
        else:
            raw.append(ord(ch))
            i += 1
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UrlParseError("escape", base_offset, "escaped bytes are not valid UTF-8") from exc


def _decoded(decode, text):
    try:
        return decode(text, 5)
    except UrlParseError as exc:
        return exc.kind, exc.position, str(exc)


class TestPctEncoding:
    @given(st.text())
    def test_matches_the_reference_encoder(self, text):
        assert pct_encode(text) == reference_pct_encode(text)

    @given(st.text(alphabet=st.sampled_from("%%%0aAfFgz/=&+ \x00\x7féÿ€☃\ud800")))
    def test_matches_the_reference_decoder(self, text):
        assert _decoded(pct_decode, text) == _decoded(reference_pct_decode, text)

    # st.text() seldom draws printable ASCII holding reserved characters,
    # which is the text the str.replace path takes
    @given(st.text(alphabet=string.printable + "/&=%#\x7f"))
    def test_printable_ascii_matches_the_reference_encoder(self, text):
        assert pct_encode(text) == reference_pct_encode(text)

    @given(st.text(alphabet=string.printable + "/&=%#\x7f"))
    def test_printable_ascii_matches_the_reference_decoder(self, text):
        assert _decoded(pct_decode, text) == _decoded(reference_pct_decode, text)
        encoded = pct_encode(text)
        assert _decoded(pct_decode, encoded) == _decoded(reference_pct_decode, encoded) == text

    def test_an_ncid_url_with_a_real_pubcert_keeps_its_text(self):
        key = PublisherKey.generate(rng=random.Random(7))
        cert = serialize_dag_url(
            make_fallback_dag(
                compute_cid(key.public),
                [symbolic_xid(XidType.AD, "pubnode"), symbolic_xid(XidType.HID, "pubhost")],
            )
        )
        url = NcidUrl("fb.com/cmu page#1", ((LOCATOR_PUBCERT, cert), (LOCATOR_VERSION, "2 & 3=5%")))
        assert serialize_ncid_url(url) == (
            "ncid://fb.com%2fcmu%20page%231/PubCert=cid:%2f%2f2,0"
            "%2fAD-7075626e6f646500000000000000000000000000"
            ",1%2fHID-707562686f737400000000000000000000000000"
            ",2%2fCID-d643012d7900bb3b6e58d2e8598d2d9c791ef259"
            "&Version=2%20%26%203%3d5%25"
        )
        assert parse_ncid_url(serialize_ncid_url(url)) == url

    @pytest.mark.parametrize("url", ["ncid://€/", "ncid://é/", "ncid://a/k=€", "ncid://a%41é/"])
    def test_an_unescaped_non_ascii_character_is_an_escape_error(self, url):
        position = next(i for i, ch in enumerate(url) if not ch.isascii())
        kind, at, message = _failure(parse_ncid_url, url)
        assert (kind, at) == ("escape", position)
        assert "non-ASCII" in message

    def test_reserved_set(self):
        assert pct_encode("a/b&c=d%e#f") == "a%2fb%26c%3dd%25e%23f"

    def test_non_printable_and_unicode(self):
        assert pct_encode("\x01") == "%01"
        assert pct_decode(pct_encode("café ☃")) == "café ☃"

    def test_random_round_trip(self):
        rng = random.Random(8)
        for _ in range(500):
            text = "".join(chr(rng.randint(1, 0x2FF)) for _ in range(rng.randint(0, 20)))
            assert pct_decode(pct_encode(text)) == text


class TestCanonicalName:
    def test_address_alone(self):
        assert canonical_name("a.b") == "a.b"

    def test_locators_sorted_and_joined(self):
        assert (
            canonical_name("a", [("UserAgent", "Android"), ("Version", "2")])
            == "a?UserAgent=Android&Version=2"
        )
        assert canonical_name("a", [("Version", "2"), ("UserAgent", "Android")]) == (
            "a?UserAgent=Android&Version=2"
        )

    def test_pubcert_excluded(self):
        assert canonical_name("a", [("PubCert", "cid://0/CID-C")]) == "a"
