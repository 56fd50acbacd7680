"""MD5 and SHA-1: RFC/FIPS vectors and equivalence with hashlib."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.md5 import MD5, md5
from repro.crypto.sha1 import SHA1, sha1

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

SHA1_VECTORS = [
    (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
    (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "84983e441c3bd26ebaae4aa1f95129e5e54670f1"),
    (b"a" * 1000, "291e9a6c66994949b57ba5e650361e98fc36b1ba"),
]


@pytest.mark.parametrize("message,expected", MD5_VECTORS)
def test_md5_rfc1321(message, expected):
    assert md5(message).hexdigest() == expected


@pytest.mark.parametrize("message,expected", SHA1_VECTORS)
def test_sha1_vectors(message, expected):
    assert sha1(message).hexdigest() == expected


# 4096 bytes covers a whole group rekey (845 bytes at the paper's
# configuration) several times over.
@given(data=st.binary(max_size=4096))
def test_md5_matches_hashlib(data):
    assert md5(data).digest() == hashlib.md5(data).digest()


def test_md5_accepts_any_buffer():
    data = b"rekey message" * 9
    expected = hashlib.md5(data).digest()
    assert md5(bytearray(data)).digest() == expected
    assert md5(memoryview(data)).digest() == expected


def test_md5_large_input():
    data = bytes(range(256)) * 4096      # 1 MiB
    assert md5(data).digest() == hashlib.md5(data).digest()


@pytest.mark.parametrize("first", [0, 1, 55, 56, 63, 64, 65, 127, 128, 129])
@pytest.mark.parametrize("chunk", [1, 55, 56, 63, 64, 128])
def test_md5_chunkings_across_block_boundaries(first, chunk):
    data = bytes((7 * i + 3) & 0xFF for i in range(300))
    h = MD5(data[:first])
    for offset in range(first, len(data), chunk):
        h.update(data[offset:offset + chunk])
    assert h.digest() == hashlib.md5(data).digest()


def test_md5_copy_mid_block_is_independent():
    h = MD5(b"x" * 100)                  # one block compressed, 36 buffered
    clone = h.copy()
    h.update(b"y" * 70)
    clone.update(b"z" * 3)
    assert h.digest() == hashlib.md5(b"x" * 100 + b"y" * 70).digest()
    assert clone.digest() == hashlib.md5(b"x" * 100 + b"z" * 3).digest()


@given(data=st.binary(max_size=512))
def test_sha1_matches_hashlib(data):
    assert sha1(data).digest() == hashlib.sha1(data).digest()


@given(chunks=st.lists(st.binary(max_size=100), max_size=8))
def test_md5_incremental_equals_oneshot(chunks):
    incremental = MD5()
    for chunk in chunks:
        incremental.update(chunk)
    assert incremental.digest() == md5(b"".join(chunks)).digest()


@given(chunks=st.lists(st.binary(max_size=100), max_size=8))
def test_sha1_incremental_equals_oneshot(chunks):
    incremental = SHA1()
    for chunk in chunks:
        incremental.update(chunk)
    assert incremental.digest() == sha1(b"".join(chunks)).digest()


@pytest.mark.parametrize("factory,reference",
                         [(md5, hashlib.md5), (sha1, hashlib.sha1)])
def test_boundary_lengths(factory, reference):
    # Exercise the padding logic at every length from 0 to 130, across
    # the 55/56/63/64-byte boundaries of the first two blocks.
    for length in range(131):
        data = bytes(range(256))[:length]
        assert factory(data).digest() == reference(data).digest(), length


def test_digest_does_not_consume_state():
    h = MD5(b"hello")
    first = h.digest()
    assert h.digest() == first        # repeatable
    h.update(b" world")
    assert h.digest() == md5(b"hello world").digest()

    s = SHA1(b"hello")
    first = s.digest()
    assert s.digest() == first
    s.update(b" world")
    assert s.digest() == sha1(b"hello world").digest()


def test_copy_is_independent():
    h = MD5(b"prefix")
    clone = h.copy()
    clone.update(b"-clone")
    h.update(b"-original")
    assert h.digest() == md5(b"prefix-original").digest()
    assert clone.digest() == md5(b"prefix-clone").digest()

    s = SHA1(b"prefix")
    clone = s.copy()
    clone.update(b"-clone")
    assert s.digest() == sha1(b"prefix").digest()
    assert clone.digest() == sha1(b"prefix-clone").digest()


def test_interface_metadata():
    assert md5().digest_size == 16 and md5().block_size == 64
    assert sha1().digest_size == 20 and sha1().block_size == 64
    assert md5().name == "md5" and sha1().name == "sha1"
