"""HMAC (RFC 2202 vectors, stdlib equivalence) and HMAC-DRBG behaviour."""

import hashlib
import hmac as stdlib_hmac
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.crypto.drbg as drbg_module
import repro.crypto.hmac as our_hmac
from repro.crypto.drbg import HmacDrbg, SystemRandomSource, make_source

# RFC 2202 HMAC-MD5 test cases (subset), run through our HMAC over the
# hashlib digests the suite hands it.
RFC2202_MD5 = [
    (b"\x0b" * 16, b"Hi There", "9294727a3638bb1c13f48ef8158bfc9d"),
    (b"Jefe", b"what do ya want for nothing?",
     "750c783e6ab0b503eaa86e310a5db738"),
    (b"\xaa" * 16, b"\xdd" * 50, "56be34521d144c88dbb8c733f0e8b3f6"),
]

RFC2202_SHA1 = [
    (b"\x0b" * 20, b"Hi There", "b617318655057264e28bc0b6fb378c8ef146be00"),
    (b"Jefe", b"what do ya want for nothing?",
     "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"),
    (b"\xaa" * 20, b"\xdd" * 50, "125d7342b9ac11cd91a39af48aa17b4f63f175d3"),
]


@pytest.mark.parametrize("key,msg,expected", RFC2202_MD5)
def test_hmac_md5_rfc2202(key, msg, expected):
    assert our_hmac.new(key, msg, hashlib.md5).hexdigest() == expected


@pytest.mark.parametrize("key,msg,expected", RFC2202_SHA1)
def test_hmac_sha1_rfc2202(key, msg, expected):
    assert our_hmac.new(key, msg, hashlib.sha1).hexdigest() == expected


@given(key=st.binary(min_size=1, max_size=100), msg=st.binary(max_size=200))
def test_hmac_matches_stdlib(key, msg):
    ours = our_hmac.new(key, msg, hashlib.md5).digest()
    theirs = stdlib_hmac.new(key, msg, hashlib.md5).digest()
    assert ours == theirs


def test_hmac_long_key_is_hashed():
    key = b"k" * 200  # longer than the 64-byte block
    ours = our_hmac.new(key, b"payload", hashlib.sha1).digest()
    theirs = stdlib_hmac.new(key, b"payload", hashlib.sha1).digest()
    assert ours == theirs


def test_hmac_incremental_and_copy():
    h = our_hmac.new(b"key", b"part1", hashlib.md5)
    clone = h.copy()
    h.update(b"part2")
    assert h.digest() == our_hmac.new(b"key", b"part1part2", hashlib.md5).digest()
    assert clone.digest() == our_hmac.new(b"key", b"part1", hashlib.md5).digest()


def test_hmac_requires_digestmod():
    with pytest.raises(TypeError):
        our_hmac.new(b"key", b"msg")


def test_compare_digest():
    assert our_hmac.compare_digest(b"same", b"same")
    assert not our_hmac.compare_digest(b"same", b"diff")
    assert not our_hmac.compare_digest(b"same", b"longer-length")


# -- DRBG ---------------------------------------------------------------------


def test_drbg_deterministic():
    a = HmacDrbg(b"seed")
    b = HmacDrbg(b"seed")
    assert a.generate(64) == b.generate(64)
    assert a.generate(5) == b.generate(5)


def test_drbg_hmac_goes_through_hmac_new(monkeypatch):
    """A served core draws keys while its other threads compute, and
    ``hmac.digest`` drops the GIL on every call: the DRBG must keep to
    ``hmac.new``."""
    expected = HmacDrbg(b"structural").generate(16)

    def refuse(*args, **kwargs):
        raise AssertionError("HmacDrbg called hmac.digest")

    monkeypatch.setattr(drbg_module, "_stdlib_hmac", types.SimpleNamespace(
        new=stdlib_hmac.new, digest=refuse))
    assert HmacDrbg(b"structural").generate(16) == expected


def test_drbg_seed_sensitivity():
    assert HmacDrbg(b"seed1").generate(32) != HmacDrbg(b"seed2").generate(32)


def test_drbg_personalization_sensitivity():
    a = HmacDrbg(b"seed", b"role-a")
    b = HmacDrbg(b"seed", b"role-b")
    assert a.generate(32) != b.generate(32)


def test_drbg_reseed_changes_stream():
    a = HmacDrbg(b"seed")
    b = HmacDrbg(b"seed")
    a.generate(16)
    b.generate(16)
    a.reseed(b"fresh entropy")
    assert a.generate(16) != b.generate(16)


def test_drbg_rejects_empty_seed():
    with pytest.raises(ValueError):
        HmacDrbg(b"")


def test_drbg_generate_validation():
    drbg = HmacDrbg(b"seed")
    with pytest.raises(ValueError):
        drbg.generate(-1)
    assert drbg.generate(0) == b""


@given(bound=st.integers(min_value=1, max_value=10_000))
def test_randint_below_in_range(bound):
    drbg = HmacDrbg(b"bound-test")
    for _ in range(5):
        assert 0 <= drbg.randint_below(bound) < bound


def test_randint_below_rejects_nonpositive():
    drbg = HmacDrbg(b"seed")
    with pytest.raises(ValueError):
        drbg.randint_below(0)
    with pytest.raises(ValueError):
        SystemRandomSource().randint_below(-3)


def test_randint_below_covers_range():
    drbg = HmacDrbg(b"coverage")
    seen = {drbg.randint_below(4) for _ in range(200)}
    assert seen == {0, 1, 2, 3}


def test_make_source():
    assert isinstance(make_source(None), SystemRandomSource)
    assert isinstance(make_source(b"seed"), HmacDrbg)
    sys_source = SystemRandomSource()
    assert len(sys_source.generate(12)) == 12
    assert 0 <= sys_source.randint_below(7) < 7
