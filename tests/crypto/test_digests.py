"""MD5 and SHA-1: RFC/FIPS vectors, the from-scratch oracles against
hashlib, and the hashlib interface the suite digests hand to HMAC."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.reference import reference_md5, reference_sha1
from repro.crypto.suite import PAPER_SUITE, CipherSuite

SHA1_SUITE = CipherSuite("des", "sha1")
md5 = PAPER_SUITE.digest_factory
sha1 = SHA1_SUITE.digest_factory

# RFC 1321 appendix A.5 test suite.
MD5_VECTORS = [
    (b"", "d41d8cd98f00b204e9800998ecf8427e"),
    (b"a", "0cc175b9c0f1b6a831c399e269772661"),
    (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
    (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
    (b"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"),
    (b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
     "d174ab98d277d9f5a5611c2c9f419d9f"),
    (b"1234567890" * 8, "57edf4a22be3c955ac49da2e2107b67a"),
]

# FIPS 180-1 appendices A and B, the "a" * 1000 case and the empty string.
SHA1_VECTORS = [
    (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
    (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "84983e441c3bd26ebaae4aa1f95129e5e54670f1"),
    (b"a" * 1000, "291e9a6c66994949b57ba5e650361e98fc36b1ba"),
]

# Arbitrary inputs, plus inputs whose length sits on a padding boundary
# (55/56 bytes leave room for the length field or not; 64k ± 1 straddle
# a block) of the first three blocks.
BOUNDARY_LENGTHS = [n + 64 * k for k in range(3)
                    for n in (0, 1, 55, 56, 57, 63)] + [64 * 3]
MESSAGES = st.binary(max_size=4096) | st.sampled_from(BOUNDARY_LENGTHS).flatmap(
    lambda n: st.binary(min_size=n, max_size=n))


@pytest.mark.parametrize("message,expected", MD5_VECTORS)
def test_md5_rfc1321(message, expected):
    assert reference_md5(message).hex() == expected
    assert PAPER_SUITE.digest(message).hex() == expected


@pytest.mark.parametrize("message,expected", SHA1_VECTORS)
def test_sha1_vectors(message, expected):
    assert reference_sha1(message).hex() == expected
    assert SHA1_SUITE.digest(message).hex() == expected


# 4096 bytes covers a whole group rekey (845 bytes at the paper's
# configuration) several times over.
@given(data=MESSAGES)
def test_md5_matches_hashlib(data):
    assert reference_md5(data) == hashlib.md5(data).digest()


@given(data=MESSAGES)
def test_sha1_matches_hashlib(data):
    assert reference_sha1(data) == hashlib.sha1(data).digest()


def test_md5_accepts_any_buffer():
    data = b"rekey message" * 9
    expected = hashlib.md5(data).digest()
    for buffer in (bytearray(data), memoryview(data)):
        assert reference_md5(buffer) == expected
        assert PAPER_SUITE.digest(buffer) == expected


def test_md5_large_input():
    data = bytes(range(256)) * 1024      # 256 KiB
    assert reference_md5(data) == PAPER_SUITE.digest(data)


@pytest.mark.parametrize("first", [0, 1, 55, 56, 63, 64, 65, 127, 128, 129])
@pytest.mark.parametrize("chunk", [1, 55, 56, 63, 64, 128])
def test_md5_chunkings_across_block_boundaries(first, chunk):
    # HMAC feeds the suite digest incrementally; every chunking must
    # land on the oracle's one-shot digest.
    data = bytes((7 * i + 3) & 0xFF for i in range(300))
    h = md5(data[:first])
    for offset in range(first, len(data), chunk):
        h.update(data[offset:offset + chunk])
    assert h.digest() == reference_md5(data)


def test_md5_copy_mid_block_is_independent():
    h = md5(b"x" * 100)                  # one block compressed, 36 buffered
    clone = h.copy()
    h.update(b"y" * 70)
    clone.update(b"z" * 3)
    assert h.digest() == reference_md5(b"x" * 100 + b"y" * 70)
    assert clone.digest() == reference_md5(b"x" * 100 + b"z" * 3)


@given(chunks=st.lists(st.binary(max_size=100), max_size=8))
def test_md5_incremental_equals_oneshot(chunks):
    incremental = md5()
    for chunk in chunks:
        incremental.update(chunk)
    assert incremental.digest() == reference_md5(b"".join(chunks))


@given(chunks=st.lists(st.binary(max_size=100), max_size=8))
def test_sha1_incremental_equals_oneshot(chunks):
    incremental = sha1()
    for chunk in chunks:
        incremental.update(chunk)
    assert incremental.digest() == reference_sha1(b"".join(chunks))


@pytest.mark.parametrize("name,factory",
                         [("md5", hashlib.md5), ("sha1", hashlib.sha1)])
def test_boundary_lengths(name, factory):
    # Exercise the padding logic at every length from 0 to 130, across
    # the 55/56/63/64-byte boundaries of the first two blocks.
    reference = {"md5": reference_md5, "sha1": reference_sha1}[name]
    suite = CipherSuite("des", name)
    for length in range(131):
        data = bytes(range(256))[:length]
        expected = factory(data).digest()
        assert reference(data) == expected, length
        assert suite.digest(data) == expected, length


def test_digest_does_not_consume_state():
    for factory, reference in ((md5, reference_md5), (sha1, reference_sha1)):
        h = factory(b"hello")
        first = h.digest()
        assert h.digest() == first        # repeatable
        h.update(b" world")
        assert h.digest() == reference(b"hello world")


def test_copy_is_independent():
    for factory, reference in ((md5, reference_md5), (sha1, reference_sha1)):
        h = factory(b"prefix")
        clone = h.copy()
        clone.update(b"-clone")
        h.update(b"-original")
        assert h.digest() == reference(b"prefix-original")
        assert clone.digest() == reference(b"prefix-clone")


def test_interface_metadata():
    # What crypto.hmac reads off a digest factory.
    assert md5().digest_size == 16 and md5().block_size == 64
    assert sha1().digest_size == 20 and sha1().block_size == 64
    assert md5().name == "md5" and sha1().name == "sha1"
