"""Content chunks and their cryptography.

Two kinds of chunk exist.  A plain content chunk is self-certifying: its
identifier is the truncated hash of the payload, so anyone holding the
bytes can check them.  A named chunk binds a human-readable name to a
publisher: its identifier hashes the name together with the publisher's
public-key fingerprint, and a detached signature over (name, payload)
binds the name to the content.  Verifying a named chunk is a two-step
process that needs exactly one extra chunk (the public key), so caches
can gate on it at constant cost regardless of application trust models.

Of those steps only the Ed25519 signature check is expensive, and a
cache meets the same bytes again whenever it evicts a chunk and fetches
it later.  A caller may therefore pass a signature memo: a set of the
SHA-256 digests of ``frame(public key) + frame(signature) + frame(name)
+ payload`` for signatures that verified.  A byte-identical re-check
then costs one hash instead of one Ed25519 verification; every other
step still runs, a rejection is never recorded, and the memo is cleared
once it holds ``SIGNATURE_MEMO_MAX`` digests.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NoReturn

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .addressing import XID_LEN, DagAddress, Xid, XidType
from .urls import parse_dag_url, serialize_dag_url

DEFAULT_MAX_PAYLOAD = 1 << 20  # 1 MiB; desk-scale bound, configurable per call
MAX_TTL_MS = (1 << 32) - 1
# Accepted-signature digests a memo holds before it is cleared.  Sized by
# memory, not by any workload: a 32-byte digest is a 65-byte ``bytes``
# object, 80 bytes once allocated, and a set of 4 096 keeps an 8 192-slot
# table of 16-byte slots, so a full memo takes 4 096 x 80 + 8 192 x 16
# bytes = 448 KiB, about 0.45 MiB per daemon.
SIGNATURE_MEMO_MAX = 4096

CHUNK_MAGIC = b"\x58\x43\x48\x4b"
CHUNK_VERSION = 1

_TYPE_CODES = {
    XidType.AD: 1,
    XidType.HID: 2,
    XidType.SID: 3,
    XidType.CID: 4,
    XidType.NCID: 5,
}
_CODE_TYPES = {code: t for t, code in _TYPE_CODES.items()}

REASON_HASH = "hash-mismatch"
REASON_KEY = "key-chunk-invalid"
REASON_NCID = "ncid-mismatch"
REASON_SIG = "signature-invalid"


class ChunkError(ValueError):
    """Invalid chunk construction or field values."""


class ChunkDecodeError(ChunkError):
    """Wire decode failure; ``kind`` is one of short, magic, version,
    id-type, overflow, trailing, invalid."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def content_hash(data: bytes) -> bytes:
    """First 20 bytes of SHA-256."""
    return hashlib.sha256(data).digest()[:XID_LEN]


def frame(data: bytes) -> bytes:
    """Length-prefix a variable field so concatenated hash inputs cannot
    collide across field boundaries."""
    return struct.pack(">I", len(data)) + data


def compute_cid(payload: bytes) -> Xid:
    return Xid(XidType.CID, content_hash(payload))


def fingerprint(public_key_bytes: bytes) -> bytes:
    """20-byte fingerprint of a public key's raw encoding."""
    return content_hash(public_key_bytes)


def compute_ncid(name: str, fp: bytes) -> Xid:
    """Identifier of named content: hash of the framed name plus the
    publisher's key fingerprint."""
    if not name:
        raise ChunkError("named content requires a non-empty name")
    if len(fp) != XID_LEN:
        raise ChunkError(f"fingerprint must be {XID_LEN} bytes")
    return Xid(XidType.NCID, content_hash(frame(name.encode("utf-8")) + fp))


def _raw_public(signer: Ed25519PrivateKey) -> bytes:
    return signer.public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )


@dataclass(frozen=True)
class PublisherKey:
    """An Ed25519 keypair; the private half stays on the publisher side.
    A key with a private half is refused unless its public half is the
    one derived from it, so what it signs verifies under ``public``.
    ``signer`` is the private half loaded once, for ``sign_named``; it is
    None for a public-only key and takes no part in equality, hashing or
    ``repr``.  ``key_cid`` and ``fingerprint()`` hash ``public`` once
    each per key, not once per publish."""

    public: bytes
    private: bytes | None = None
    signer: Ed25519PrivateKey | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.private is None:
            return
        signer = Ed25519PrivateKey.from_private_bytes(self.private)
        if _raw_public(signer) != self.public:
            raise ChunkError("public key does not match the private key")
        object.__setattr__(self, "signer", signer)

    @classmethod
    def generate(cls, rng=None) -> "PublisherKey":
        """New keypair; pass a seeded ``random.Random`` for deterministic
        test/scenario keys."""
        if rng is None:
            key = Ed25519PrivateKey.generate()
        else:
            key = Ed25519PrivateKey.from_private_bytes(rng.randbytes(32))
        priv = key.private_bytes(
            serialization.Encoding.Raw,
            serialization.PrivateFormat.Raw,
            serialization.NoEncryption(),
        )
        return cls(public=_raw_public(key), private=priv)

    @cached_property
    def key_cid(self) -> Xid:
        """Id of the plain chunk that carries ``public``."""
        return compute_cid(self.public)

    @cached_property
    def _fingerprint(self) -> bytes:
        return fingerprint(self.public)

    def fingerprint(self) -> bytes:
        return self._fingerprint


def sign_named(name: str, payload: bytes, key: PublisherKey) -> bytes:
    """Detached signature over the framed name plus payload."""
    if key.signer is None:
        raise ChunkError("signing requires the private key")
    return key.signer.sign(frame(name.encode("utf-8")) + payload)


def verify_named_signature(
    signature: bytes,
    name: str,
    payload: bytes,
    public_key_bytes: bytes,
    memo: set[bytes] | None = None,
) -> bool:
    """Whether ``signature`` is the publisher's over (name, payload).

    With a ``memo``, a signature already accepted for these exact bytes
    is accepted again without the Ed25519 check.  The memo key frames the
    public key, the signature and the name, so no byte moved across a
    field boundary gives a known key; only accepted signatures are
    recorded, and a full memo is cleared before it takes another."""
    message = frame(name.encode("utf-8")) + payload
    if memo is not None:
        digest = hashlib.sha256(frame(public_key_bytes) + frame(signature) + message).digest()
        if digest in memo:
            return True
    try:
        Ed25519PublicKey.from_public_bytes(public_key_bytes).verify(signature, message)
    except (InvalidSignature, ValueError):
        return False
    if memo is not None:
        if len(memo) >= SIGNATURE_MEMO_MAX:
            memo.clear()
        memo.add(digest)
    return True


@dataclass(frozen=True)
class Chunk:
    """A self-contained content object: header plus payload.

    Plain content chunks carry only id/ttl/payload.  Named chunks also
    carry the name, a pointer to the public key chunk, the key
    fingerprint, and the detached signature.
    """

    id: Xid
    ttl_ms: int
    payload: bytes
    name: str | None = None
    key_ref: DagAddress | None = None
    fingerprint: bytes | None = field(default=None)
    signature: bytes | None = None

    def validate(self, max_payload: int | None = None) -> None:
        if self.id.xtype is XidType.CID:
            if any(v is not None for v in (self.name, self.key_ref, self.fingerprint, self.signature)):
                raise ChunkError("plain content chunk must not carry naming fields")
        elif self.id.xtype is XidType.NCID:
            if not self.name:
                raise ChunkError("named chunk requires a name")
            if self.key_ref is None or self.fingerprint is None or self.signature is None:
                raise ChunkError("named chunk requires key_ref, fingerprint and signature")
            if len(self.fingerprint) != XID_LEN:
                raise ChunkError(f"fingerprint must be {XID_LEN} bytes")
        else:
            raise ChunkError(f"chunk id must be a content type, not {self.id.xtype.value}")
        if type(self.ttl_ms) is not int or not 0 <= self.ttl_ms <= MAX_TTL_MS:
            raise ChunkError(f"ttl {self.ttl_ms!r} is not an int in [0, {MAX_TTL_MS}]")
        if max_payload is not None and len(self.payload) > max_payload:
            raise ChunkError(
                f"payload of {len(self.payload)} bytes exceeds limit {max_payload}"
            )


def build_cid_chunk(
    payload: bytes, ttl_ms: int, max_payload: int = DEFAULT_MAX_PAYLOAD
) -> Chunk:
    chunk = Chunk(id=compute_cid(payload), ttl_ms=ttl_ms, payload=payload)
    chunk.validate(max_payload)
    return chunk


def build_ncid_chunk(
    name: str,
    payload: bytes,
    ttl_ms: int,
    key: PublisherKey,
    key_ref: DagAddress,
    max_payload: int = DEFAULT_MAX_PAYLOAD,
) -> Chunk:
    """Build a fully populated named chunk.

    ``key_ref`` must be an address whose intent is the chunk id of the
    public key itself (publish the key first); anything else is a
    publish-time error.
    """
    if key_ref.intent_xid() != key.key_cid:
        raise ChunkError(
            "key_ref intent does not match the public key chunk "
            f"({key_ref.intent_xid().text()} != {key.key_cid.text()})"
        )
    fp = key.fingerprint()
    chunk = Chunk(
        id=compute_ncid(name, fp),
        ttl_ms=ttl_ms,
        payload=payload,
        name=name,
        key_ref=key_ref,
        fingerprint=fp,
        signature=sign_named(name, payload, key),
    )
    chunk.validate(max_payload)
    return chunk


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.accepted


ACCEPT = VerifyResult(True)


def reject(reason: str) -> VerifyResult:
    return VerifyResult(False, reason)


def verify_cid(chunk: Chunk) -> VerifyResult:
    """Accept iff the payload hashes back to the chunk id."""
    if chunk.id.xtype is not XidType.CID:
        raise ChunkError("verify_cid wants a plain content chunk")
    if compute_cid(chunk.payload) != chunk.id:
        return reject(REASON_HASH)
    return ACCEPT


def verify_ncid(
    chunk: Chunk, key_chunk: Chunk, memo: set[bytes] | None = None
) -> VerifyResult:
    """Two-step verification of a named chunk against its key chunk.

    (a) the key chunk is itself valid and is the one the chunk points
    at; (b) the chunk id and fingerprint match the name/key binding;
    (c) the signature over (name, payload) verifies under that key,
    through ``memo`` when one is given (``verify_named_signature``).
    The result carries the first failing step.
    """
    if chunk.id.xtype is not XidType.NCID:
        raise ChunkError("verify_ncid wants a named chunk")
    chunk.validate()
    assert chunk.key_ref is not None and chunk.name is not None

    if key_chunk.id.xtype is not XidType.CID or not verify_cid(key_chunk):
        return reject(REASON_KEY)
    if key_chunk.id != chunk.key_ref.intent_xid():
        return reject(REASON_KEY)

    fp = fingerprint(key_chunk.payload)
    if chunk.id != compute_ncid(chunk.name, fp) or chunk.fingerprint != fp:
        return reject(REASON_NCID)

    assert chunk.signature is not None
    if not verify_named_signature(
        chunk.signature, chunk.name, chunk.payload, key_chunk.payload, memo
    ):
        return reject(REASON_SIG)
    return ACCEPT


def verify_ncid_via(
    chunk: Chunk, fetch_key: Callable[[Xid], Chunk], memo: set[bytes] | None = None
) -> VerifyResult:
    """Verify a named chunk, obtaining the key chunk through ``fetch_key``.

    Performs exactly one key fetch, whatever the payload size; callers
    wanting to audit the constant-cost property can count calls.  A key
    reference that does not name a plain content chunk is rejected
    without fetching anything.
    """
    if chunk.key_ref is None or chunk.key_ref.intent_xid().xtype is not XidType.CID:
        return reject(REASON_KEY)
    key_chunk = fetch_key(chunk.key_ref.intent_xid())
    if key_chunk is None:
        return reject(REASON_KEY)
    return verify_ncid(chunk, key_chunk, memo)


# Wire layout (big endian): a fixed 32-byte header (magic, u8 version,
# u8 id type, 20B id, u32 ttl-ms, u16 name-len), then the name, u8
# has-key-ref (+ u16 len + DAG URL text), u8 has-fp (+ 20B), u16 sig-len
# + sig, u32 payload-len + payload.  ``decode_chunk`` unpacks the header
# in one call and slices every later field at its offset; a field cut
# short raises ``short`` at the offset where it starts.
_HEADER = struct.Struct(">4sBB20sIH")
# Where each header field starts.
_HEADER_STARTS = (0, 4, 5, 6, 26, 30)
# A header that passes every check: it stands in for the fields a
# truncated buffer lacks.
_GOOD_HEADER = _HEADER.pack(
    CHUNK_MAGIC, CHUNK_VERSION, _TYPE_CODES[XidType.CID], bytes(XID_LEN), 0, 0
)
_U16 = struct.Struct(">H").unpack_from
_U32 = struct.Struct(">I").unpack_from


def _short(pos: int) -> ChunkDecodeError:
    return ChunkDecodeError("short", f"buffer truncated at byte {pos}")


def _id_type(magic: bytes, version: int, type_code: int) -> XidType:
    if magic != CHUNK_MAGIC:
        raise ChunkDecodeError("magic", "bad magic")
    if version != CHUNK_VERSION:
        raise ChunkDecodeError("version", f"unsupported version {version}")
    xtype = _CODE_TYPES.get(type_code)
    if xtype is None:
        raise ChunkDecodeError("id-type", f"unknown id type code {type_code}")
    return xtype


def _raise_truncated_header(buf: bytes) -> NoReturn:
    """Raise for a buffer shorter than the header what a field-by-field
    read meets first: a bad magic, version or id type among the fields
    it holds whole, else ``short`` where the first field it cuts starts."""
    cut = max(start for start in _HEADER_STARTS if start <= len(buf))
    _id_type(*_HEADER.unpack(bytes(buf[:cut]) + _GOOD_HEADER[cut:])[:3])
    raise _short(cut)


def encode_chunk(chunk: Chunk) -> bytes:
    chunk.validate()
    out = bytearray()
    out += CHUNK_MAGIC
    out.append(CHUNK_VERSION)
    out.append(_TYPE_CODES[chunk.id.xtype])
    out += chunk.id.value
    out += struct.pack(">I", chunk.ttl_ms)
    name = (chunk.name or "").encode("utf-8")
    out += struct.pack(">H", len(name)) + name
    if chunk.key_ref is not None:
        ref = serialize_dag_url(chunk.key_ref).encode("ascii")
        out.append(1)
        out += struct.pack(">H", len(ref)) + ref
    else:
        out.append(0)
    if chunk.fingerprint is not None:
        out.append(1)
        out += chunk.fingerprint
    else:
        out.append(0)
    sig = chunk.signature or b""
    out += struct.pack(">H", len(sig)) + sig
    out += struct.pack(">I", len(chunk.payload)) + chunk.payload
    return bytes(out)


def decode_chunk(buf: bytes, max_payload: int = DEFAULT_MAX_PAYLOAD) -> Chunk:
    end = len(buf)
    if end < _HEADER.size:
        _raise_truncated_header(buf)
    magic, version, type_code, id_value, ttl_ms, name_len = _HEADER.unpack_from(buf)
    xid = Xid(_id_type(magic, version, type_code), id_value)
    pos = _HEADER.size
    name = None
    if name_len:
        if pos + name_len > end:
            raise _short(pos)
        try:
            name = buf[pos : pos + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ChunkDecodeError("invalid", "name is not valid UTF-8") from exc
        pos += name_len
    if pos + 1 > end:
        raise _short(pos)
    has_key_ref = buf[pos]
    pos += 1
    key_ref = None
    if has_key_ref:
        if pos + 2 > end:
            raise _short(pos)
        ref_len = _U16(buf, pos)[0]
        pos += 2
        if pos + ref_len > end:
            raise _short(pos)
        ref_text = buf[pos : pos + ref_len].decode("ascii", errors="replace")
        try:
            key_ref = parse_dag_url(ref_text)
        except ValueError as exc:
            raise ChunkDecodeError("invalid", f"bad key reference: {exc}") from exc
        pos += ref_len
    if pos + 1 > end:
        raise _short(pos)
    has_fp = buf[pos]
    pos += 1
    fp = None
    if has_fp:
        if pos + XID_LEN > end:
            raise _short(pos)
        fp = buf[pos : pos + XID_LEN]
        pos += XID_LEN
    if pos + 2 > end:
        raise _short(pos)
    sig_len = _U16(buf, pos)[0]
    pos += 2
    sig = None
    if sig_len:
        if pos + sig_len > end:
            raise _short(pos)
        sig = buf[pos : pos + sig_len]
        pos += sig_len
    if pos + 4 > end:
        raise _short(pos)
    payload_len = _U32(buf, pos)[0]
    pos += 4
    if payload_len > max_payload:
        raise ChunkDecodeError(
            "overflow", f"payload length {payload_len} exceeds limit {max_payload}"
        )
    stop = pos + payload_len
    if stop > end:
        raise _short(pos)
    if stop != end:
        raise ChunkDecodeError("trailing", f"{end - stop} trailing bytes")
    chunk = Chunk(
        id=xid,
        ttl_ms=ttl_ms,
        payload=buf[pos:stop],
        name=name,
        key_ref=key_ref,
        fingerprint=fp,
        signature=sig,
    )
    try:
        chunk.validate(max_payload)
    except ChunkError as exc:
        raise ChunkDecodeError("invalid", str(exc)) from exc
    return chunk
