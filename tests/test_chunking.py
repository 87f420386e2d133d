import random
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from xcache import chunking
from xcache.addressing import XID_LEN, Xid, XidType, make_fallback_dag, symbolic_xid
from xcache.chunking import (
    CHUNK_MAGIC,
    CHUNK_VERSION,
    DEFAULT_MAX_PAYLOAD,
    Chunk,
    ChunkDecodeError,
    ChunkError,
    PublisherKey,
    REASON_HASH,
    REASON_KEY,
    REASON_NCID,
    REASON_SIG,
    build_cid_chunk,
    build_ncid_chunk,
    compute_cid,
    compute_ncid,
    decode_chunk,
    encode_chunk,
    fingerprint,
    frame,
    sign_named,
    verify_cid,
    verify_named_signature,
    verify_ncid,
    verify_ncid_via,
)
from xcache.urls import parse_dag_url

# Published SHA-256 vectors, truncated to the identifier width.
SHA256_HELLO_20 = bytes.fromhex("2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c")
SHA256_EMPTY_20 = bytes.fromhex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4")


def make_key(seed=1):
    return PublisherKey.generate(rng=random.Random(seed))


def publish_pair(name="fb.com/cmu", payload=b"the real bytes", ttl=60000, seed=1):
    """An honestly built named chunk plus its key chunk and key address."""
    key = make_key(seed)
    key_chunk = build_cid_chunk(key.public, ttl)
    key_ref = make_fallback_dag(key_chunk.id, [symbolic_xid("AD", "pubnode")])
    chunk = build_ncid_chunk(name, payload, ttl, key, key_ref)
    return chunk, key_chunk, key_ref, key


class TestHashing:
    def test_cid_matches_frozen_vector(self):
        assert compute_cid(b"hello").value == SHA256_HELLO_20
        assert compute_cid(b"hello").xtype is XidType.CID

    def test_cid_of_empty_payload(self):
        assert compute_cid(b"").value == SHA256_EMPTY_20

    def test_single_bit_flip_changes_cid(self):
        payload = bytes(range(16))
        base = compute_cid(payload)
        for byte_index in range(16):
            for bit in range(8):
                mutated = bytearray(payload)
                mutated[byte_index] ^= 1 << bit
                assert compute_cid(bytes(mutated)) != base

    def test_fingerprint_is_truncated_hash(self):
        assert fingerprint(b"hello") == SHA256_HELLO_20

    def test_fingerprint_distinct_across_keys(self):
        rng = random.Random(4)
        prints = {fingerprint(PublisherKey.generate(rng=rng).public) for _ in range(1000)}
        assert len(prints) == 1000

    def test_frame_is_length_prefixed(self):
        assert frame(b"ab") == b"\x00\x00\x00\x02ab"


class TestNcidDerivation:
    def test_requires_name(self):
        with pytest.raises(ChunkError):
            compute_ncid("", SHA256_HELLO_20)

    def test_distinct_fingerprints_distinct_ids(self):
        a = compute_ncid("fb.com/cmu", bytes(20))
        b = compute_ncid("fb.com/cmu", bytes([1] * 20))
        assert a != b
        assert a.xtype is XidType.NCID

    def test_framing_prevents_boundary_collisions(self):
        fp = bytes(range(20))
        shifted = b"b" + fp[:-1]
        assert compute_ncid("ab", fp) != compute_ncid("a", shifted)

    def test_deterministic(self):
        fp = bytes(range(20))
        assert compute_ncid("x", fp) == compute_ncid("x", fp)


class TestSigning:
    def test_round_trip(self):
        key = make_key()
        sig = sign_named("name", b"data", key)
        assert verify_named_signature(sig, "name", b"data", key.public)

    def test_deterministic_signature(self):
        key = make_key()
        assert sign_named("n", b"d", key) == sign_named("n", b"d", key)

    def test_tampered_payload_fails(self):
        key = make_key()
        rng = random.Random(2)
        payload = rng.randbytes(64)
        sig = sign_named("n", payload, key)
        for _ in range(30):
            mutated = bytearray(payload)
            mutated[rng.randrange(64)] ^= 1 + rng.randrange(255)
            assert not verify_named_signature(sig, "n", bytes(mutated), key.public)

    def test_signature_binds_the_name(self):
        key = make_key()
        sig = sign_named("name", b"data", key)
        assert not verify_named_signature(sig, "other", b"data", key.public)

    def test_name_payload_boundary(self):
        key = make_key()
        sig = sign_named("ab", b"c", key)
        assert not verify_named_signature(sig, "a", b"bc", key.public)

    def test_garbage_signature_rejected_not_raised(self):
        key = make_key()
        assert not verify_named_signature(b"junk", "n", b"d", key.public)

    def test_signing_needs_private_half(self):
        key = PublisherKey(public=make_key().public)
        with pytest.raises(ChunkError):
            sign_named("n", b"d", key)

    def test_a_key_refuses_halves_of_two_keys(self):
        one, two = make_key(1), make_key(2)
        with pytest.raises(ChunkError, match="does not match"):
            PublisherKey(public=one.public, private=two.private)
        assert PublisherKey(public=one.public, private=one.private) == one

    def test_keypair_deterministic_from_rng(self):
        assert make_key(9) == make_key(9)
        assert make_key(9) != make_key(10)

    def test_the_loaded_signer_is_no_part_of_the_key(self):
        one = make_key(5)
        two = PublisherKey(public=one.public, private=one.private)
        assert one.signer is not None and two.signer is not None
        assert one.signer is not two.signer
        assert one == two and hash(one) == hash(two)
        assert repr(one) == repr(two) and "signer" not in repr(one)
        assert sign_named("n", b"d", one) == sign_named("n", b"d", two)
        public_only = PublisherKey(public=one.public)
        assert public_only.signer is None
        with pytest.raises(ChunkError, match="signing requires the private key"):
            sign_named("n", b"d", public_only)


class TestBuilders:
    def test_cid_chunk_is_definitional(self):
        chunk = build_cid_chunk(b"payload", 1000)
        assert chunk.id == compute_cid(b"payload")
        assert chunk.name is None and chunk.signature is None

    def test_ncid_chunk_fields(self):
        chunk, key_chunk, key_ref, key = publish_pair()
        assert chunk.id == compute_ncid("fb.com/cmu", key.fingerprint())
        assert chunk.fingerprint == key.fingerprint()
        assert chunk.key_ref == key_ref
        assert verify_ncid(chunk, key_chunk).accepted

    def test_a_publish_does_not_hash_the_key_again(self, monkeypatch):
        _, key_chunk, key_ref, key = publish_pair()
        hashed = []
        content_hash = chunking.content_hash
        monkeypatch.setattr(
            chunking, "content_hash", lambda data: hashed.append(data) or content_hash(data)
        )
        chunk = build_ncid_chunk("again", b"more", 60000, key, key_ref)
        assert key.public not in hashed
        assert (key.key_cid, key.fingerprint()) == (key_chunk.id, fingerprint(key.public))
        assert verify_ncid(chunk, key_chunk).accepted
        # the kept hashes take no part in equality or hashing
        bare = PublisherKey(key.public, key.private)
        assert bare == key and hash(bare) == hash(key)

    def test_key_ref_intent_mismatch_is_publish_error(self):
        key = make_key()
        wrong_ref = make_fallback_dag(compute_cid(b"not the key"), [])
        with pytest.raises(ChunkError, match="key_ref"):
            build_ncid_chunk("n", b"d", 1000, key, wrong_ref)

    def test_payload_size_limit(self):
        with pytest.raises(ChunkError, match="exceeds"):
            build_cid_chunk(b"x" * 100, 1000, max_payload=64)

    def test_ttl_range(self):
        with pytest.raises(ChunkError):
            build_cid_chunk(b"x", -1)
        with pytest.raises(ChunkError):
            build_cid_chunk(b"x", 1 << 40)

    def test_invariants_enforced(self):
        with pytest.raises(ChunkError):
            Chunk(id=compute_cid(b"x"), ttl_ms=1, payload=b"x", name="nope").validate()
        with pytest.raises(ChunkError):
            Chunk(
                id=compute_ncid("n", bytes(20)), ttl_ms=1, payload=b"x", name="n"
            ).validate()


class TestVerifyCid:
    def test_untampered_accepts(self):
        assert verify_cid(build_cid_chunk(b"ok", 1000)).accepted

    def test_every_single_byte_tamper_rejected(self):
        payload = bytes(range(64))
        chunk = build_cid_chunk(payload, 1000)
        rejected = 0
        for i in range(64):
            mutated = bytearray(payload)
            mutated[i] ^= 0xFF
            tampered = Chunk(id=chunk.id, ttl_ms=chunk.ttl_ms, payload=bytes(mutated))
            result = verify_cid(tampered)
            if not result.accepted and result.reason == REASON_HASH:
                rejected += 1
        assert rejected == 64

    def test_truncation_rejected(self):
        payload = bytes(range(64))
        chunk = build_cid_chunk(payload, 1000)
        for cut in range(64):
            truncated = Chunk(id=chunk.id, ttl_ms=1000, payload=payload[:cut])
            assert not verify_cid(truncated).accepted


class TestVerifyNcid:
    def test_honest_publish_accepts(self):
        chunk, key_chunk, _, _ = publish_pair()
        assert verify_ncid(chunk, key_chunk) .accepted

    def test_reuse_publisher_key_forged_signature(self):
        # attacker keeps the honest publisher's identity but cannot sign
        chunk, key_chunk, key_ref, key = publish_pair()
        attacker = make_key(99)
        forged = Chunk(
            id=chunk.id,
            ttl_ms=chunk.ttl_ms,
            payload=b"poison",
            name=chunk.name,
            key_ref=key_ref,
            fingerprint=key.fingerprint(),
            signature=sign_named(chunk.name, b"poison", attacker),
        )
        result = verify_ncid(forged, key_chunk)
        assert not result.accepted and result.reason == REASON_SIG

    def test_attacker_own_key_breaks_identifier(self):
        chunk, _, _, _ = publish_pair()
        attacker = make_key(99)
        attacker_key_chunk = build_cid_chunk(attacker.public, 60000)
        attacker_ref = make_fallback_dag(attacker_key_chunk.id, [])
        forged = Chunk(
            id=chunk.id,  # claims the honest name/publisher identifier
            ttl_ms=chunk.ttl_ms,
            payload=b"poison",
            name=chunk.name,
            key_ref=attacker_ref,
            fingerprint=attacker.fingerprint(),
            signature=sign_named(chunk.name, b"poison", attacker),
        )
        result = verify_ncid(forged, attacker_key_chunk)
        assert not result.accepted and result.reason == REASON_NCID

    def test_poisoning_matrix_exhausted(self):
        # {reuse publisher key, own key} x {forge signature, forge id}:
        # every cell must reject
        chunk, key_chunk, key_ref, key = publish_pair()
        attacker = make_key(99)
        attacker_key_chunk = build_cid_chunk(attacker.public, 60000)
        attacker_ref = make_fallback_dag(attacker_key_chunk.id, [])
        spoof = b"poison"

        cells = [
            # reuse key, forged signature (cannot produce a real one)
            (
                Chunk(chunk.id, chunk.ttl_ms, spoof, chunk.name, key_ref,
                      key.fingerprint(), sign_named(chunk.name, spoof, attacker)),
                key_chunk,
                REASON_SIG,
            ),
            # reuse key, forged identifier (breaks the id immediately)
            (
                Chunk(compute_ncid("fb.com/cmu!", key.fingerprint()), chunk.ttl_ms,
                      spoof, chunk.name, key_ref, key.fingerprint(),
                      sign_named(chunk.name, spoof, attacker)),
                key_chunk,
                REASON_NCID,
            ),
            # own key, valid signature (identifier check fails)
            (
                Chunk(chunk.id, chunk.ttl_ms, spoof, chunk.name, attacker_ref,
                      attacker.fingerprint(), sign_named(chunk.name, spoof, attacker)),
                attacker_key_chunk,
                REASON_NCID,
            ),
            # own key, forged identifier claiming the honest one anyway
            (
                Chunk(chunk.id, chunk.ttl_ms, spoof, chunk.name, attacker_ref,
                      attacker.fingerprint(), b"gibberish" * 8),
                attacker_key_chunk,
                REASON_NCID,
            ),
        ]
        for forged, served_key_chunk, expected_reason in cells:
            result = verify_ncid(forged, served_key_chunk)
            assert not result.accepted
            assert result.reason == expected_reason

    def test_both_bindings_are_load_bearing(self):
        # each forgery passes one of the two checks in isolation, so
        # dropping either check would admit it
        chunk, key_chunk, key_ref, key = publish_pair()
        attacker = make_key(99)
        attacker_key_chunk = build_cid_chunk(attacker.public, 60000)
        attacker_ref = make_fallback_dag(attacker_key_chunk.id, [])
        spoof = b"poison"

        reuse_key_forgery = Chunk(
            chunk.id, chunk.ttl_ms, spoof, chunk.name, key_ref,
            key.fingerprint(), sign_named(chunk.name, spoof, attacker),
        )
        # passes the name-publisher binding (identifier matches) ...
        assert reuse_key_forgery.id == compute_ncid(
            chunk.name, fingerprint(key_chunk.payload)
        )
        # ... but the full check rejects on the name-content binding
        assert verify_ncid(reuse_key_forgery, key_chunk).reason == REASON_SIG

        own_key_forgery = Chunk(
            chunk.id, chunk.ttl_ms, spoof, chunk.name, attacker_ref,
            attacker.fingerprint(), sign_named(chunk.name, spoof, attacker),
        )
        # passes the name-content binding (signature verifies) ...
        assert verify_named_signature(
            own_key_forgery.signature, chunk.name, spoof, attacker_key_chunk.payload
        )
        # ... but the full check rejects on the name-publisher binding
        assert verify_ncid(own_key_forgery, attacker_key_chunk).reason == REASON_NCID

    def test_invalid_key_chunk_rejected_first(self):
        chunk, key_chunk, _, _ = publish_pair()
        tampered_key = Chunk(
            id=key_chunk.id, ttl_ms=key_chunk.ttl_ms, payload=key_chunk.payload + b"x"
        )
        result = verify_ncid(chunk, tampered_key)
        assert result.reason == REASON_KEY

    def test_wrong_key_chunk_rejected(self):
        chunk, _, _, _ = publish_pair()
        other = build_cid_chunk(b"some other content", 60000)
        assert verify_ncid(chunk, other).reason == REASON_KEY


class TestSignatureMemo:
    def test_only_an_accepted_signature_is_remembered(self, ed25519_verifies):
        key, memo = make_key(), set()
        sig = sign_named("n", b"d", key)
        for _ in range(2):
            assert not verify_named_signature(sig, "n", b"e", key.public, memo)
        assert memo == set()
        for _ in range(3):
            assert verify_named_signature(sig, "n", b"d", key.public, memo)
        assert len(memo) == 1
        assert len(ed25519_verifies) == 3  # both rejections, then the first acceptance

    def test_no_byte_moved_across_a_field_boundary_is_covered(self, ed25519_verifies):
        key, memo = make_key(), set()
        name, payload = "ab", b"cd"
        sig = sign_named(name, payload, key)
        assert verify_named_signature(sig, name, payload, key.public, memo)
        # an Ed25519 signature ends in a byte below 0x80 (S < 2**253), so it
        # moves into a name as one UTF-8 character
        shifted = [
            (sig[:-1], chr(sig[-1]) + name, payload),  # signature -> name
            (sig + name[0].encode(), name[1:], payload),  # name -> signature
            (sig, name[:-1], name[-1].encode() + payload),  # name -> payload
            (sig, name + chr(payload[0]), payload[1:]),  # payload -> name
        ]
        for fields in shifted:
            assert not verify_named_signature(*fields, key.public, memo)
        assert len(ed25519_verifies) == 1 + len(shifted)  # none was a memo hit
        assert len(memo) == 1

    def test_the_memo_never_exceeds_its_bound(self, monkeypatch):
        monkeypatch.setattr(chunking, "SIGNATURE_MEMO_MAX", 3)
        key, memo = make_key(), set()
        for i in range(10):
            payload = bytes([i])
            assert verify_named_signature(
                sign_named("n", payload, key), "n", payload, key.public, memo
            )
            assert 1 <= len(memo) <= 3

    MUTATIONS = ["none", "payload", "name", "signature", "key"]

    @settings(max_examples=60, deadline=None)
    @given(
        contents=st.lists(
            st.tuples(st.text(min_size=1, max_size=8), st.binary(min_size=1, max_size=32)),
            min_size=1,
            max_size=3,
        ),
        pick=st.integers(min_value=0),
        mutation=st.sampled_from(MUTATIONS),
        at=st.integers(min_value=0),
    )
    def test_a_memo_never_changes_a_result(self, contents, pick, mutation, at):
        # a memo filled with accepted chunks gives the same result as no
        # memo, for any of them after any one mutation, and keeps no rejection
        keys = [make_key(41), make_key(42)]
        key_chunks = [build_cid_chunk(k.public, 60000) for k in keys]
        key_refs = [make_fallback_dag(kc.id, [symbolic_xid("AD", "pubnode")]) for kc in key_chunks]
        published, memo = [], set()
        for i, (name, payload) in enumerate(contents):
            k = i % 2
            chunk = build_ncid_chunk(name, payload, 60000, keys[k], key_refs[k])
            assert verify_ncid(chunk, key_chunks[k], memo).accepted
            published.append((chunk, k))
        chunk, k = published[pick % len(published)]
        key_chunk = key_chunks[k]
        if mutation == "payload":
            flipped = bytearray(chunk.payload)
            flipped[at % len(flipped)] ^= 1
            chunk = replace(chunk, payload=bytes(flipped))
        elif mutation == "name":
            name = chunk.name + "~"
            chunk = replace(chunk, name=name, id=compute_ncid(name, chunk.fingerprint))
        elif mutation == "signature":
            flipped = bytearray(chunk.signature)
            flipped[at % len(flipped)] ^= 1
            chunk = replace(chunk, signature=bytes(flipped))
        elif mutation == "key":  # rebound to the other key, keeping its signature
            k = 1 - k
            fp = keys[k].fingerprint()
            chunk = replace(
                chunk, id=compute_ncid(chunk.name, fp), fingerprint=fp, key_ref=key_refs[k]
            )
            key_chunk = key_chunks[k]
        before = set(memo)
        result = verify_ncid(chunk, key_chunk, memo)
        assert result == verify_ncid(chunk, key_chunk)
        assert result.accepted == (mutation == "none")
        assert memo == before


class TestConstantCostVerification:
    @pytest.mark.parametrize("size", [1 << 10, 64 << 10, 1 << 20])
    def test_exactly_one_key_fetch_regardless_of_payload(self, size):
        payload = bytes(size % 251 for size in range(size))
        chunk, key_chunk, _, _ = publish_pair(payload=payload)
        calls = []

        def fetch_key(key_cid):
            calls.append(key_cid)
            return key_chunk

        assert verify_ncid_via(chunk, fetch_key).accepted
        assert len(calls) == 1
        assert calls[0] == key_chunk.id

    def test_key_ref_to_a_named_address_rejected_before_fetching(self):
        named, _, _, key = publish_pair()
        name, payload = "fb.com/other", b"points at a named chunk"
        forged = Chunk(
            id=compute_ncid(name, key.fingerprint()),
            ttl_ms=60000,
            payload=payload,
            name=name,
            key_ref=make_fallback_dag(named.id, [symbolic_xid("AD", "pubnode")]),
            fingerprint=key.fingerprint(),
            signature=sign_named(name, payload, key),
        )
        calls = []
        result = verify_ncid_via(forged, lambda xid: calls.append(xid) or named)
        assert result.reason == REASON_KEY
        assert calls == []

    def test_missing_key_is_a_key_rejection(self):
        chunk, _, _, _ = publish_pair()
        assert verify_ncid_via(chunk, lambda cid: None).reason == REASON_KEY


class TestWireCodec:
    def test_round_trip_random_chunks(self):
        rng = random.Random(6)
        for i in range(100):
            if i % 2 == 0:
                chunk = build_cid_chunk(rng.randbytes(rng.randint(0, 3000)), rng.randint(1, 10**6))
            else:
                chunk, _, _, _ = publish_pair(
                    name=f"name/{i}", payload=rng.randbytes(rng.randint(0, 3000)), seed=i
                )
            assert decode_chunk(encode_chunk(chunk)) == chunk

    def test_minimal_empty_cid_chunk(self):
        chunk = build_cid_chunk(b"", 1)
        assert decode_chunk(encode_chunk(chunk)) == chunk

    def test_corrupt_magic(self):
        blob = bytearray(encode_chunk(build_cid_chunk(b"x", 1)))
        blob[0] ^= 0xFF
        with pytest.raises(ChunkDecodeError) as info:
            decode_chunk(bytes(blob))
        assert info.value.kind == "magic"

    def test_short_buffer(self):
        blob = encode_chunk(build_cid_chunk(b"hello", 1))
        for cut in (0, 3, 10, len(blob) - 1):
            with pytest.raises(ChunkDecodeError) as info:
                decode_chunk(blob[:cut])
            assert info.value.kind in ("short", "magic")

    def test_bad_version(self):
        blob = bytearray(encode_chunk(build_cid_chunk(b"x", 1)))
        blob[4] = 9
        with pytest.raises(ChunkDecodeError) as info:
            decode_chunk(bytes(blob))
        assert info.value.kind == "version"

    def test_unknown_id_type(self):
        blob = bytearray(encode_chunk(build_cid_chunk(b"x", 1)))
        blob[5] = 200
        with pytest.raises(ChunkDecodeError) as info:
            decode_chunk(bytes(blob))
        assert info.value.kind == "id-type"

    def test_trailing_bytes(self):
        blob = encode_chunk(build_cid_chunk(b"x", 1)) + b"extra"
        with pytest.raises(ChunkDecodeError) as info:
            decode_chunk(blob)
        assert info.value.kind == "trailing"

    def test_payload_overflow(self):
        blob = encode_chunk(build_cid_chunk(b"x" * 100, 1))
        with pytest.raises(ChunkDecodeError) as info:
            decode_chunk(blob, max_payload=10)
        assert info.value.kind == "overflow"

    def test_invariant_violations_are_decode_errors(self):
        # a host-typed id is not content
        blob = bytearray(encode_chunk(build_cid_chunk(b"x", 1)))
        blob[5] = 2  # HID type code
        with pytest.raises(ChunkDecodeError) as info:
            decode_chunk(bytes(blob))
        assert info.value.kind == "invalid"

    def test_decode_never_panics_on_fuzz(self):
        rng = random.Random(12)
        blob = encode_chunk(publish_pair()[0])
        for _ in range(400):
            mutated = bytearray(blob)
            for _ in range(rng.randint(1, 6)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            try:
                decode_chunk(bytes(mutated))
            except ChunkDecodeError:
                pass
        for _ in range(200):
            try:
                decode_chunk(rng.randbytes(rng.randint(0, 80)))
            except ChunkDecodeError:
                pass


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise ChunkDecodeError("short", f"buffer truncated at byte {self.pos}")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]


def reference_decode_chunk(buf: bytes, max_payload: int = DEFAULT_MAX_PAYLOAD) -> Chunk:
    """The field-by-field decoder that the offset-based one replaced."""
    r = _Reader(buf)
    if r.take(4) != CHUNK_MAGIC:
        raise ChunkDecodeError("magic", "bad magic")
    version = r.u8()
    if version != CHUNK_VERSION:
        raise ChunkDecodeError("version", f"unsupported version {version}")
    type_code = r.u8()
    xtype = chunking._CODE_TYPES.get(type_code)
    if xtype is None:
        raise ChunkDecodeError("id-type", f"unknown id type code {type_code}")
    xid = Xid(xtype, r.take(XID_LEN))
    ttl_ms = r.u32()
    name_len = r.u16()
    name = None
    if name_len:
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ChunkDecodeError("invalid", "name is not valid UTF-8") from exc
    key_ref = None
    if r.u8():
        ref_len = r.u16()
        ref_text = r.take(ref_len).decode("ascii", errors="replace")
        try:
            key_ref = parse_dag_url(ref_text)
        except ValueError as exc:
            raise ChunkDecodeError("invalid", f"bad key reference: {exc}") from exc
    fp = r.take(XID_LEN) if r.u8() else None
    sig_len = r.u16()
    sig = r.take(sig_len) if sig_len else None
    payload_len = r.u32()
    if payload_len > max_payload:
        raise ChunkDecodeError(
            "overflow", f"payload length {payload_len} exceeds limit {max_payload}"
        )
    payload = r.take(payload_len)
    if r.pos != len(buf):
        raise ChunkDecodeError("trailing", f"{len(buf) - r.pos} trailing bytes")
    chunk = Chunk(
        id=xid,
        ttl_ms=ttl_ms,
        payload=payload,
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


def _decoded(decode, buf, max_payload=DEFAULT_MAX_PAYLOAD):
    try:
        return decode(buf, max_payload)
    except ChunkDecodeError as exc:
        return exc.kind, str(exc)


# Encodings the decoder laws start from: plain chunks, named chunks (one
# with a non-ASCII name and a short key reference) and an empty payload.
_ENCODINGS = [
    encode_chunk(build_cid_chunk(b"", 1)),
    encode_chunk(build_cid_chunk(bytes(range(256)) * 4, 90_000)),
    encode_chunk(publish_pair(payload=b"p" * 40)[0]),
    encode_chunk(publish_pair(name="caf\u00e9/\u2603", payload=b"", seed=3)[0]),
]


# the magic, version and plain-content type code: random bytes after it
# reach the fields past the header checks
_GOOD_PREFIX = CHUNK_MAGIC + bytes([CHUNK_VERSION, 4])


class TestDecodeMatchesReference:
    """``decode_chunk`` returns an equal chunk, or raises the same
    ``ChunkDecodeError`` kind and message, as the field-by-field decoder."""

    @pytest.mark.parametrize("blob", _ENCODINGS, ids=["empty", "plain-1k", "named", "named-utf8"])
    def test_every_truncation_and_extension(self, blob):
        edited = [blob[:cut] for cut in range(len(blob) + 1)]
        edited += [blob + extra for extra in (b"\x00", b"extra", bytes(40))]
        for buf in edited:
            assert _decoded(decode_chunk, buf) == _decoded(reference_decode_chunk, buf)

    @settings(max_examples=300, deadline=None)
    @given(
        pick=st.integers(0, len(_ENCODINGS) - 1),
        edits=st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)), max_size=4),
        cut=st.one_of(st.none(), st.integers(min_value=0)),
        extra=st.binary(max_size=8),
        max_payload=st.sampled_from([DEFAULT_MAX_PAYLOAD, 0, 39, 40, 1024]),
    )
    def test_edited_encodings(self, pick, edits, cut, extra, max_payload):
        blob = bytearray(_ENCODINGS[pick])
        for at, value in edits:
            blob[at % len(blob)] = value
        if cut is not None:
            del blob[cut % (len(blob) + 1) :]
        blob = bytes(blob) + extra
        assert _decoded(decode_chunk, blob, max_payload) == _decoded(
            reference_decode_chunk, blob, max_payload
        )

    @settings(max_examples=300, deadline=None)
    @given(
        prefix=st.sampled_from(
            [b"", CHUNK_MAGIC, CHUNK_MAGIC + bytes([CHUNK_VERSION]), _GOOD_PREFIX]
        ),
        tail=st.binary(max_size=120),
    )
    def test_random_bytes(self, prefix, tail):
        blob = prefix + tail
        assert _decoded(decode_chunk, blob) == _decoded(reference_decode_chunk, blob)
