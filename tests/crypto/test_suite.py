"""CipherSuite configuration and behaviour."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.modes import PaddingError
from repro.crypto.suite import (FAST_TEST_SUITE, MODERN_SUITE, PAPER_SUITE,
                                PAPER_SUITE_ENC_ONLY, PAPER_SUITE_NO_SIG,
                                CipherSuite, XorCipher, _DIGESTS,
                                suite_from_spec)


def test_paper_suite_shape():
    assert PAPER_SUITE.cipher_name == "des"
    assert PAPER_SUITE.digest_name == "md5"
    assert PAPER_SUITE.signature_bits == 512
    assert PAPER_SUITE.key_size == 8
    assert PAPER_SUITE.block_size == 8
    assert PAPER_SUITE.digest_size == 16
    assert PAPER_SUITE.signature_size == 64
    assert PAPER_SUITE.signs


def test_enc_only_suite():
    assert PAPER_SUITE_ENC_ONLY.digest_size == 0
    assert PAPER_SUITE_ENC_ONLY.digest(b"data") == b""
    assert PAPER_SUITE_ENC_ONLY.digest_factory is None
    assert not PAPER_SUITE_ENC_ONLY.signs
    assert PAPER_SUITE_ENC_ONLY.signature_size == 0


def test_modern_suite():
    assert MODERN_SUITE.key_size == 16
    assert MODERN_SUITE.block_size == 16
    assert MODERN_SUITE.digest_size == 32


def test_invalid_configurations():
    with pytest.raises(ValueError):
        CipherSuite("rot13")
    with pytest.raises(ValueError):
        CipherSuite("des", "crc32")
    with pytest.raises(ValueError):
        CipherSuite("des", None, 512)  # signature without digest
    with pytest.raises(ValueError):
        CipherSuite("des", "md5", 64)  # absurd modulus


@given(key=st.binary(min_size=8, max_size=8), data=st.binary(max_size=64),
       iv=st.binary(min_size=8, max_size=8))
def test_suite_encrypt_decrypt(key, data, iv):
    assert PAPER_SUITE.decrypt(key, PAPER_SUITE.encrypt(key, data, iv),
                               iv) == data


def test_suite_key_length_enforced():
    with pytest.raises(ValueError):
        PAPER_SUITE.new_cipher(bytes(16))
    with pytest.raises(ValueError):
        MODERN_SUITE.new_cipher(bytes(8))


def test_suite_sign_verify():
    keypair = PAPER_SUITE.generate_signing_keypair(seed=b"suite-test")
    signature = PAPER_SUITE.sign(keypair, b"rekey message bytes")
    PAPER_SUITE.verify(keypair.public_key, b"rekey message bytes", signature)
    from repro.crypto.rsa import SignatureError
    with pytest.raises(SignatureError):
        PAPER_SUITE.verify(keypair.public_key, b"tampered", signature)


def test_signature_free_suite_refuses_signing():
    with pytest.raises(ValueError):
        PAPER_SUITE_NO_SIG.generate_signing_keypair()
    with pytest.raises(ValueError):
        PAPER_SUITE_NO_SIG.sign(None, b"data")
    with pytest.raises(ValueError):
        PAPER_SUITE_NO_SIG.verify(None, b"data", b"sig")


def test_xor_cipher_is_self_inverse():
    cipher = XorCipher(bytes(range(8)))
    block = b"ABCDEFGH"
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block
    assert cipher.encrypt_block(cipher.encrypt_block(block)) == block
    with pytest.raises(ValueError):
        XorCipher(b"bad")


def test_fast_test_suite():
    iv = bytes(8)
    ct = FAST_TEST_SUITE.encrypt(bytes(8), b"quick", iv)
    assert FAST_TEST_SUITE.decrypt(bytes(8), ct, iv) == b"quick"


def test_suite_from_spec():
    suite = suite_from_spec("des", "md5", "rsa-512")
    assert suite == PAPER_SUITE
    assert suite_from_spec("des", "none", "none") == PAPER_SUITE_ENC_ONLY
    assert suite_from_spec("des", None, None) == PAPER_SUITE_ENC_ONLY
    assert suite_from_spec("aes128", "sha256", "rsa-1024") == MODERN_SUITE
    with pytest.raises(ValueError):
        suite_from_spec("des", "md5", "dsa-1024")


def test_every_digest_factory_is_hashlib():
    # One name per algorithm, and each one the standard library's C
    # digest; the from-scratch MD5/SHA-1 are oracles in reference.py.
    assert set(_DIGESTS) == {"md5", "sha1", "sha256"}
    for name, (factory, size) in _DIGESTS.items():
        assert factory is getattr(hashlib, name)
        assert factory().digest_size == size
        assert CipherSuite("des", name).digest(b"x") == factory(b"x").digest()


@pytest.mark.parametrize("name", ["md5", "sha1"])
def test_hashlib_suffixed_digest_names_are_gone(name):
    with pytest.raises(ValueError):
        CipherSuite("des", f"{name}-hashlib")
