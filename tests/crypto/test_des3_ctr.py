"""Triple DES and CTR mode."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import modes
from repro.crypto.des import DES
from repro.crypto.des3 import TripleDES
from repro.crypto.suite import CipherSuite

from ..delivery import deliver


def test_3des_known_answer():
    # NIST example: "The qufc" under the 24-byte sample key.
    cipher = TripleDES(bytes.fromhex(
        "0123456789abcdef23456789abcdef01456789abcdef0123"))
    ct = cipher.encrypt_block(bytes.fromhex("5468652071756663"))
    assert ct.hex() == "a826fd8ce53b855f"
    assert cipher.decrypt_block(ct).hex() == "5468652071756663"


def test_3des_degenerates_to_des_with_equal_keys():
    key = bytes.fromhex("133457799BBCDFF1")
    triple = TripleDES(key * 3)
    single = DES(key)
    block = b"ABCDEFGH"
    assert triple.encrypt_block(block) == single.encrypt_block(block)
    # Two-key EDE with K1 == K2 also degenerates.
    two_key = TripleDES(key * 2)
    assert two_key.encrypt_block(block) == single.encrypt_block(block)


@given(key=st.binary(min_size=24, max_size=24),
       block=st.binary(min_size=8, max_size=8))
def test_3des_roundtrip(key, block):
    cipher = TripleDES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@given(key=st.binary(min_size=16, max_size=16),
       block=st.binary(min_size=8, max_size=8))
def test_3des_two_key_roundtrip(key, block):
    cipher = TripleDES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


def test_3des_key_validation():
    with pytest.raises(ValueError):
        TripleDES(bytes(8))
    with pytest.raises(ValueError):
        TripleDES(bytes(23))
    cipher = TripleDES(bytes(24))
    with pytest.raises(ValueError):
        cipher.encrypt_block(bytes(7))
    with pytest.raises(ValueError):
        cipher.decrypt_block(bytes(9))


def test_3des_suite_integration():
    suite = CipherSuite("des3", "md5")
    assert suite.key_size == 24
    iv = bytes(8)
    ct = suite.encrypt(bytes(24), b"group key material", iv)
    assert suite.decrypt(bytes(24), ct, iv) == b"group key material"
    two_key = CipherSuite("des3-2key", "md5")
    assert two_key.key_size == 16


def test_3des_suite_runs_the_protocol():
    from repro.core.server import GroupKeyServer, ServerConfig
    from repro.core.client import GroupClient
    suite = CipherSuite("des3", "md5")
    server = GroupKeyServer(ServerConfig(
        strategy="group", degree=3, suite=suite, signing="none",
        seed=b"des3"))
    key = server.new_individual_key()
    client = GroupClient("a", suite, verify=False)
    client.set_individual_key(key)
    outcome = server.join("a", key)
    client.process_control(outcome.control_messages[0].encoded)
    deliver(server, {"a": client}, outcome.rekey_messages)
    assert client.group_key() == server.group_key()


# -- CTR mode -------------------------------------------------------------------


@given(key=st.binary(min_size=8, max_size=8), data=st.binary(max_size=120),
       nonce=st.binary(min_size=4, max_size=4))
def test_ctr_self_inverse(key, data, nonce):
    cipher = DES(key)
    transformed = modes.ctr_transform(cipher, data, nonce)
    assert len(transformed) == len(data)
    assert modes.ctr_transform(cipher, transformed, nonce) == data


def test_ctr_nonce_matters():
    cipher = DES(bytes(8))
    data = b"stream data " * 4
    a = modes.ctr_transform(cipher, data, b"aaaa")
    b = modes.ctr_transform(cipher, data, b"bbbb")
    assert a != b


def test_ctr_empty_input():
    cipher = DES(bytes(8))
    assert modes.ctr_transform(cipher, b"", b"nonc") == b""


def test_ctr_nonce_validation():
    cipher = DES(bytes(8))
    with pytest.raises(ValueError):
        modes.ctr_transform(cipher, b"data", b"too-long-nonce")


def test_ctr_with_aes():
    from repro.crypto.aes import AES
    cipher = AES(bytes(16))
    data = b"A" * 50
    nonce = bytes(12)
    assert modes.ctr_transform(
        cipher, modes.ctr_transform(cipher, data, nonce), nonce) == data


def test_3des_three_key_composes_single_des_kats():
    """EDE3 equals E_K3(D_K2(E_K1(.))) built from the KAT-validated DES."""
    k1 = bytes.fromhex("0123456789abcdef")
    k2 = bytes.fromhex("23456789abcdef01")
    k3 = bytes.fromhex("456789abcdef0123")
    block = bytes.fromhex("5468652071756663")
    expected = DES(k3).encrypt_block(
        DES(k2).decrypt_block(DES(k1).encrypt_block(block)))
    triple = TripleDES(k1 + k2 + k3)
    assert triple.encrypt_block(block) == expected
    assert triple.decrypt_block(expected) == block


def test_3des_two_key_composes_single_des():
    """EDE2 is EDE3 with K3 = K1 (FIPS 46-3 keying option 2)."""
    k1 = bytes.fromhex("133457799bbcdff1")
    k2 = bytes.fromhex("0123456789abcdef")
    block = b"KeyGraph"
    expected = DES(k1).encrypt_block(
        DES(k2).decrypt_block(DES(k1).encrypt_block(block)))
    two_key = TripleDES(k1 + k2)
    assert two_key.encrypt_block(block) == expected
    assert two_key.encrypt_block(block) == TripleDES(
        k1 + k2 + k1).encrypt_block(block)
    assert two_key.decrypt_block(expected) == block


def test_3des_int_api_matches_byte_api():
    cipher = TripleDES(bytes(range(24)))
    value = 0x0011223344556677
    assert (cipher.encrypt_block_int(value).to_bytes(8, "big")
            == cipher.encrypt_block(value.to_bytes(8, "big")))
    assert (cipher.decrypt_block_int(value).to_bytes(8, "big")
            == cipher.decrypt_block(value.to_bytes(8, "big")))
