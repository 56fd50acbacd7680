"""DES block cipher: known-answer vectors, properties, error handling."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.des import DES

# (key, plaintext, ciphertext) known-answer vectors.
KAT = [
    # The classic FIPS walk-through vector.
    ("133457799BBCDFF1", "0123456789ABCDEF", "85E813540F0AB405"),
    # Ronald Rivest's DES self-test chain endpoints and other published
    # single-block vectors.
    ("0E329232EA6D0D73", "8787878787878787", "0000000000000000"),
    ("0000000000000000", "0000000000000000", "8CA64DE9C1B123A7"),
    ("FFFFFFFFFFFFFFFF", "FFFFFFFFFFFFFFFF", "7359B2163E4EDC58"),
    ("3000000000000000", "1000000000000001", "958E6E627A05557B"),
    ("1111111111111111", "1111111111111111", "F40379AB9E0EC533"),
    ("0123456789ABCDEF", "1111111111111111", "17668DFC7292532D"),
    ("1111111111111111", "0123456789ABCDEF", "8A5AE1F81AB8F2DD"),
    ("FEDCBA9876543210", "0123456789ABCDEF", "ED39D950FA74BCC4"),
]


@pytest.mark.parametrize("key_hex,pt_hex,ct_hex", KAT)
def test_known_answer_encrypt(key_hex, pt_hex, ct_hex):
    cipher = DES(bytes.fromhex(key_hex))
    assert cipher.encrypt_block(bytes.fromhex(pt_hex)).hex().upper() == ct_hex


@pytest.mark.parametrize("key_hex,pt_hex,ct_hex", KAT)
def test_known_answer_decrypt(key_hex, pt_hex, ct_hex):
    cipher = DES(bytes.fromhex(key_hex))
    assert cipher.decrypt_block(bytes.fromhex(ct_hex)).hex().upper() == pt_hex


@given(key=st.binary(min_size=8, max_size=8),
       block=st.binary(min_size=8, max_size=8))
def test_roundtrip(key, block):
    cipher = DES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@given(key=st.binary(min_size=8, max_size=8),
       block=st.binary(min_size=8, max_size=8))
@settings(max_examples=25)
def test_encryption_is_permutation_not_identity_prone(key, block):
    # A fixed key's encryption should essentially never fix a random
    # block (probability 2^-64 per trial); catching accidental identity
    # wiring (e.g. missing final swap).
    cipher = DES(key)
    encrypted = cipher.encrypt_block(block)
    assert encrypted != block or cipher.decrypt_block(block) == encrypted


def test_key_complementation_property():
    # DES complementation: E_{~k}(~p) == ~E_k(p).
    key = bytes.fromhex("0123456789ABCDEF")
    plaintext = bytes.fromhex("1122334455667788")
    normal = DES(key).encrypt_block(plaintext)
    complemented = DES(bytes(b ^ 0xFF for b in key)).encrypt_block(
        bytes(b ^ 0xFF for b in plaintext))
    assert complemented == bytes(b ^ 0xFF for b in normal)


def test_avalanche():
    # Flipping one plaintext bit should flip many ciphertext bits.
    key = bytes.fromhex("133457799BBCDFF1")
    cipher = DES(key)
    base = cipher.encrypt_block(bytes(8))
    flipped = cipher.encrypt_block(bytes([0x80] + [0] * 7))
    differing = sum(bin(a ^ b).count("1") for a, b in zip(base, flipped))
    assert differing >= 16


def test_wrong_key_size_rejected():
    with pytest.raises(ValueError):
        DES(b"short")
    with pytest.raises(ValueError):
        DES(b"ninebytes")


def test_wrong_block_size_rejected():
    cipher = DES(bytes(8))
    with pytest.raises(ValueError):
        cipher.encrypt_block(b"tiny")
    with pytest.raises(ValueError):
        cipher.decrypt_block(b"way too long for DES")


def test_distinct_keys_distinct_ciphertexts():
    block = bytes.fromhex("0123456789ABCDEF")
    a = DES(bytes.fromhex("133457799BBCDFF1")).encrypt_block(block)
    b = DES(bytes.fromhex("233457799BBCDFF1")).encrypt_block(block)
    assert a != b


# -- weak keys --------------------------------------------------------------


def test_weak_keys_are_self_inverse():
    """The defining property: E_k(E_k(x)) == x for weak keys."""
    from repro.crypto.des import WEAK_KEYS, is_weak_key
    block = bytes.fromhex("0123456789ABCDEF")
    for key in WEAK_KEYS:
        assert is_weak_key(key)
        cipher = DES(key)
        assert cipher.encrypt_block(cipher.encrypt_block(block)) == block


def test_semi_weak_keys_pair_up():
    """E_{k1} inverts E_{k2} for each semi-weak pair."""
    from repro.crypto.des import SEMI_WEAK_KEYS, is_semi_weak_key
    block = b"pairwise"
    for first, second in zip(SEMI_WEAK_KEYS[::2], SEMI_WEAK_KEYS[1::2]):
        assert is_semi_weak_key(first) and is_semi_weak_key(second)
        assert DES(second).decrypt_block(
            DES(first).decrypt_block(
                DES(second).encrypt_block(
                    DES(first).encrypt_block(block)))) == block


def test_normal_keys_not_flagged():
    from repro.crypto.des import is_semi_weak_key, is_weak_key
    for key_hex in ("133457799BBCDFF1", "0123456789ABCDEF"):
        key = bytes.fromhex(key_hex)
        assert not is_weak_key(key)
        assert not is_semi_weak_key(key)
    import pytest as _pytest
    with _pytest.raises(ValueError):
        is_weak_key(b"short")


def test_parity_bits_ignored_in_weakness_check():
    from repro.crypto.des import is_weak_key
    # 0000...00 differs from 0101...01 only in parity bits.
    assert is_weak_key(bytes(8))


def test_suite_safe_key_rejects_weak_material():
    from repro.crypto.suite import PAPER_SUITE
    from repro.crypto.des import WEAK_KEYS

    class RiggedSource:
        def __init__(self):
            self.draws = [WEAK_KEYS[0], bytes.fromhex("133457799BBCDFF1")]
        def generate(self, n):
            return self.draws.pop(0)

    key = PAPER_SUITE.safe_key(RiggedSource())
    assert key == bytes.fromhex("133457799BBCDFF1")


def _deep_size(value):
    size = sys.getsizeof(value)
    if isinstance(value, tuple):
        size += sum(_deep_size(entry) for entry in value)
    return size


def test_lookup_tables_fit_in_cache():
    """The module's lookup tables stay under 1.5 MB in total.

    A table wider than L2 costs more in misses than it saves in lookups:
    16-bit expansion pair tables (5 MB of ints) made random blocks under
    random keys slower than the four 256-entry byte tables they fused,
    although a benchmark repeating one block showed them faster.  This
    keeps a future pair table from quietly bringing the megabytes back.
    """
    from repro.crypto import des
    total = sum(_deep_size(value) for value in vars(des).values()
                if isinstance(value, tuple))
    assert total < 1_500_000, f"DES tables hold {total / 1e6:.2f} MB"
