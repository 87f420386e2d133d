"""URL schemes for content: serialized DAG addresses and named-content URLs.

Grammar:

    dag-url  := scheme "://" edges ("/" node)*
    node     := xid ("," index)*
    edges    := index ("," index)*
    ncid-url := "ncid://" address "/" [loc ("&" loc)*]
    loc      := key "=" value

Any valid DAG address serializes without loss, whatever the intent's
principal type; the scheme is the lowercase type tag of the intent.
Named-content URLs separate the shared *address* from the *locators*
that pick a concrete representation.

The daemon turns the same URL text back into an address again and
again, so ``parse_dag_url`` and ``parse_ncid_url`` each keep their last
``PARSE_MEMO_SIZE`` successful results, keyed by their arguments.  A
result is a frozen value holding only tuples, so every caller shares
one object.  Failures are never kept: a bad URL is parsed again on every
call and raises the same error each time.  ``serialize_dag_url`` keeps
what a URL takes from its address's shape (node order, edge numbers)
for up to ``PARSE_MEMO_SIZE`` shapes, so printing an address costs its
XIDs' text.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from urllib.parse import unquote_to_bytes

from .addressing import (
    AddressError,
    DagAddress,
    DagCycleError,
    DagNode,
    MAX_DAG_NODES,
    XidType,
    canonical_numbering,
    format_xid,
    parse_xid,
    validate_dag,
)

NCID_SCHEME = "ncid"

LOCATOR_PUBCERT = "PubCert"
LOCATOR_VERSION = "Version"
LOCATOR_USERAGENT = "UserAgent"

#: Successful parses kept per parse function (about 1.2 MB of 3-node DAGs).
PARSE_MEMO_SIZE = 1024


class UrlParseError(ValueError):
    """URL parse failure with a machine-checkable kind and the character
    offset where the offending token starts.

    Kinds: scheme, intent-mismatch, malformed, edge-range, cycle,
    invalid, escape, duplicate-locator, empty-address.
    """

    def __init__(self, kind: str, position: int, message: str):
        super().__init__(f"{message} (at offset {position})")
        self.kind = kind
        self.position = position


def serialize_dag_url(dag: DagAddress, short: bool = False) -> str:
    """Serialize a DAG address.

    First segment: the source's out-edge target numbers in priority
    order.  Then one segment per node in canonical numbering order: the
    node's textual XID followed by its out-edge target numbers (none for
    the sink).  ``short`` renders NUL-padded symbolic XIDs as labels.
    """
    order, template = _url_layout(dag)
    nodes = dag.nodes
    texts = [format_xid(nodes[i].xid, short) for i in order]
    return template.format(dag.intent_xid().xtype.scheme, *texts)


# URL layouts by address shape: the source's edges, then each node's.
_LAYOUTS: dict[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], str]] = {}


def _url_layout(dag: DagAddress) -> tuple[tuple[int, ...], str]:
    """What ``dag``'s URL takes from its shape alone: the canonical node
    order, and the URL as a format template with the scheme and each
    node's XID text, in that order, left as fields.  Kept for the last
    shapes seen, at most ``PARSE_MEMO_SIZE``; a full memo is cleared, so
    each shape still in use costs one rebuild."""
    shape = (dag.source_edges, *[node.out_edges for node in dag.nodes])
    layout = _LAYOUTS.get(shape)
    if layout is None:
        order = canonical_numbering(dag)
        number = {node_index: k for k, node_index in enumerate(order)}
        segments = ["{}://" + ",".join(str(number[t]) for t in dag.source_edges)]
        for node_index in order:
            edges = dag.nodes[node_index].out_edges
            segments.append(",".join(["{}", *(str(number[t]) for t in edges)]))
        layout = (tuple(order), "/".join(segments))
        if len(_LAYOUTS) >= PARSE_MEMO_SIZE:
            _LAYOUTS.clear()
        _LAYOUTS[shape] = layout
    return layout


def _parse_index(token: str, offset: int, limit: int) -> int:
    if not token.isdigit():
        raise UrlParseError("malformed", offset, f"bad edge index {token!r}")
    value = int(token)
    if value >= limit:
        raise UrlParseError(
            "edge-range", offset, f"edge index {value} out of range (nodes: {limit})"
        )
    return value


@functools.lru_cache(maxsize=PARSE_MEMO_SIZE)
def parse_dag_url(url: str, allow_short: bool = False) -> DagAddress:
    """Inverse of serialize_dag_url; the scheme must match the intent.

    Nodes are stored in numbering order, so re-serializing the result of
    a parse is byte-identical for canonical input.
    """
    sep = url.find("://")
    if sep < 0:
        raise UrlParseError("scheme", 0, "missing '://'")
    scheme = url[:sep]
    try:
        xtype = XidType.from_scheme(scheme)
    except AddressError as exc:
        raise UrlParseError("scheme", 0, str(exc)) from exc

    body_start = sep + 3
    body = url[body_start:]
    if not body:
        raise UrlParseError("malformed", body_start, "empty address body")

    segments: list[tuple[int, str]] = []
    offset = body_start
    for raw in body.split("/"):
        segments.append((offset, raw))
        offset += len(raw) + 1
    if len(segments) < 2:
        raise UrlParseError("malformed", body_start, "need source edges and at least one node")

    node_count = len(segments) - 1
    if node_count > MAX_DAG_NODES:
        raise UrlParseError("invalid", body_start, f"too many nodes ({node_count})")

    def split_tokens(seg_offset: int, text: str) -> list[tuple[int, str]]:
        tokens = []
        pos = seg_offset
        for piece in text.split(","):
            tokens.append((pos, piece))
            pos += len(piece) + 1
        return tokens

    src_offset, src_text = segments[0]
    source_edges = [
        _parse_index(tok, tok_off, node_count)
        for tok_off, tok in split_tokens(src_offset, src_text)
    ]

    nodes: list[DagNode] = []
    node_offsets: list[int] = []
    for seg_offset, seg_text in segments[1:]:
        tokens = split_tokens(seg_offset, seg_text)
        xid_offset, xid_text = tokens[0]
        try:
            xid = parse_xid(xid_text, allow_short=allow_short)
        except AddressError as exc:
            raise UrlParseError("malformed", xid_offset, str(exc)) from exc
        edges = [_parse_index(tok, tok_off, node_count) for tok_off, tok in tokens[1:]]
        nodes.append(DagNode(xid, tuple(edges)))
        node_offsets.append(seg_offset)

    sinks = [i for i, node in enumerate(nodes) if not node.out_edges]
    dag = DagAddress(tuple(nodes), tuple(source_edges), sinks[0] if len(sinks) == 1 else 0)

    try:
        validate_dag(dag)
    except DagCycleError as exc:
        raise UrlParseError("cycle", node_offsets[exc.node], "address graph has a cycle") from exc
    except AddressError as exc:
        raise UrlParseError("invalid", body_start, str(exc)) from exc

    if dag.intent_xid().xtype is not xtype:
        raise UrlParseError(
            "intent-mismatch",
            0,
            f"scheme {scheme!r} does not match intent type "
            f"{dag.intent_xid().xtype.value!r}",
        )
    return dag


# Percent-encoding.  Reserved characters get encoded so tokenization of
# the URL is unambiguous; everything outside printable ASCII is encoded
# as well (multi-byte UTF-8 falls out naturally).  Names and PubCert DAG
# URLs are printable ASCII, and such text is escaped by ``str.replace``
# ('%' first, so no escape is escaped again); other text goes through
# the per-byte table.
_RESERVED = frozenset(b"/&=%#")
# The encoded form of each UTF-8 byte value.
_PCT_TABLE = tuple(
    f"%{byte:02x}" if byte in _RESERVED or byte <= 0x20 or byte > 0x7E else chr(byte)
    for byte in range(256)
)


def pct_encode(text: str) -> str:
    if text.isascii() and text.isprintable():
        return (
            text.replace("%", "%25")
            .replace("/", "%2f")
            .replace("&", "%26")
            .replace("=", "%3d")
            .replace("#", "%23")
            .replace(" ", "%20")
        )
    table = _PCT_TABLE
    return "".join([table[byte] for byte in text.encode("utf-8")])


# A '%' not followed by two hex digits, or any character outside ASCII
# (pct_encode escapes every such character, so one left bare is an error).
_BAD_ESCAPE = re.compile(r"%(?![0-9a-fA-F]{2})|[^\x00-\x7f]")


def pct_decode(text: str, base_offset: int = 0) -> str:
    if text.isascii() and "%" not in text:
        return text  # nothing escaped, so nothing badly escaped
    bad = _BAD_ESCAPE.search(text)
    if bad is not None:
        i = bad.start()
        if text[i] == "%":
            raise UrlParseError("escape", base_offset + i, f"bad percent escape {text[i:i+3]!r}")
        raise UrlParseError("escape", base_offset + i, f"unescaped non-ASCII character {text[i]!r}")
    try:
        return unquote_to_bytes(text).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UrlParseError("escape", base_offset, "escaped bytes are not valid UTF-8") from exc


@dataclass(frozen=True)
class NcidUrl:
    """A named-content URL: shared address plus ordered locator pairs."""

    address: str
    locators: tuple[tuple[str, str], ...] = ()

    def locator(self, key: str) -> str | None:
        for k, v in self.locators:
            if k == key:
                return v
        return None


def _validate_ncid_url(u: NcidUrl) -> None:
    if not u.address:
        raise UrlParseError("empty-address", 0, "address must be non-empty")
    keys = [k for k, _ in u.locators]
    if len(keys) != len(set(keys)):
        raise UrlParseError("duplicate-locator", 0, "locator keys must be unique")
    cert = u.locator(LOCATOR_PUBCERT)
    if cert is not None:
        try:
            parse_dag_url(cert, allow_short=True)
        except UrlParseError as exc:
            raise UrlParseError(
                "invalid", 0, f"{LOCATOR_PUBCERT} locator is not a DAG URL: {exc}"
            ) from exc


def serialize_ncid_url(u: NcidUrl) -> str:
    _validate_ncid_url(u)
    locs = "&".join(f"{pct_encode(k)}={pct_encode(v)}" for k, v in u.locators)
    return f"{NCID_SCHEME}://{pct_encode(u.address)}/{locs}"


@functools.lru_cache(maxsize=PARSE_MEMO_SIZE)
def parse_ncid_url(url: str) -> NcidUrl:
    prefix = f"{NCID_SCHEME}://"
    if not url.startswith(prefix):
        raise UrlParseError("scheme", 0, f"expected {prefix!r} prefix")
    rest = url[len(prefix) :]
    slash = rest.find("/")
    if slash < 0:
        raise UrlParseError("malformed", len(url), "missing '/' after address")
    addr_offset = len(prefix)
    address = pct_decode(rest[:slash], addr_offset)
    if not address:
        raise UrlParseError("empty-address", addr_offset, "address must be non-empty")

    loc_text = rest[slash + 1 :]
    loc_offset = addr_offset + slash + 1
    locators: list[tuple[str, str]] = []
    seen: set[str] = set()
    if loc_text:
        pos = loc_offset
        for piece in loc_text.split("&"):
            eq = piece.find("=")
            if eq <= 0:
                raise UrlParseError("malformed", pos, f"locator {piece!r} is not key=value")
            key = pct_decode(piece[:eq], pos)
            value = pct_decode(piece[eq + 1 :], pos + eq + 1)
            if key in seen:
                raise UrlParseError("duplicate-locator", pos, f"duplicate locator key {key!r}")
            seen.add(key)
            locators.append((key, value))
            pos += len(piece) + 1
    u = NcidUrl(address, tuple(locators))
    _validate_ncid_url(u)
    return u


def canonical_name(address: str, locators: tuple[tuple[str, str], ...] | list = ()) -> str:
    """The name a named-content identifier is derived from.

    The address alone when there are no representation-selecting
    locators; otherwise the address joined with the sorted non-PubCert
    ``key=value`` pairs.  Each representation of a multiform resource
    thus gets a distinct identifier while sharing the address.
    """
    pairs = sorted((k, v) for k, v in locators if k != LOCATOR_PUBCERT)
    if not pairs:
        return address
    return address + "?" + "&".join(f"{k}={v}" for k, v in pairs)
