"""Fast path vs frozen reference: the optimized round functions, chaining
modes, batch engine, CRT signing and unrolled MD5 compress must be
bit-identical to the pre-optimization formulations preserved in
:mod:`repro.crypto.reference`."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import batchenc, des, modes, reference, rsa
from repro.crypto.aes import AES
from repro.crypto.des import DES, SEMI_WEAK_KEYS, WEAK_KEYS
from repro.crypto.des3 import TripleDES
from repro.crypto.keycache import SHARED_CACHE
from repro.crypto.md5 import _compress as md5_compress
from repro.crypto.reference import ReferenceAES, ReferenceDES
from repro.crypto.suite import CipherSuite

BLOCK8 = st.binary(min_size=8, max_size=8)
BLOCK16 = st.binary(min_size=16, max_size=16)


class NoIntPath:
    """Wrapper hiding the int-block API, forcing the generic mode paths."""

    def __init__(self, cipher):
        self._cipher = cipher
        self.block_size = cipher.block_size

    def encrypt_block(self, block):
        return self._cipher.encrypt_block(block)

    def decrypt_block(self, block):
        return self._cipher.decrypt_block(block)


# -- block fast paths vs reference rounds -----------------------------------


@settings(max_examples=40)
@given(key=BLOCK16 | st.binary(min_size=24, max_size=24)
       | st.binary(min_size=32, max_size=32), block=BLOCK16)
def test_aes_rounds_match_reference(key, block):
    fast, ref = AES(key), ReferenceAES(key)
    encrypted = fast.encrypt_block(block)
    assert encrypted == ref.encrypt_block(block)
    assert fast.decrypt_block(encrypted) == ref.decrypt_block(encrypted)
    assert fast.decrypt_block(encrypted) == block


@settings(max_examples=40)
@given(key=BLOCK8, block=BLOCK8)
def test_des_rounds_match_reference(key, block):
    fast, ref = DES(key), ReferenceDES(key)
    encrypted = fast.encrypt_block(block)
    assert encrypted == ref.encrypt_block(block)
    assert fast.decrypt_block(encrypted) == ref.decrypt_block(encrypted)
    assert fast.decrypt_block(encrypted) == block


@settings(max_examples=200)
@given(key=BLOCK8)
def test_des_key_schedule_matches_bitwise_reference(key):
    """The oracle for any faster schedule: the reference's round keys."""
    assert DES._key_schedule(key) == ReferenceDES._key_schedule(key)
    assert DES(key)._round_keys_dec == tuple(
        reversed(ReferenceDES._key_schedule(key)))


def test_des_key_schedule_published_round_keys():
    # The FIPS walk-through key's K1 and K16, as printed in every
    # textbook derivation of 133457799BBCDFF1.
    schedule = DES._key_schedule(bytes.fromhex("133457799BBCDFF1"))
    assert schedule[0] == 0b000110110000001011101111111111000111000001110010
    assert schedule[15] == 0b110010110011110110001011000011100001011111110101
    # Parity bits (bit 0 of every byte) never reach a round key.
    assert schedule == DES._key_schedule(bytes.fromhex("123456789ABCDEF0"))


@settings(max_examples=100)
@given(key=BLOCK8, parity=st.integers(min_value=0, max_value=255))
def test_des_key_schedule_ignores_any_parity_subset(key, parity):
    """Flipping any subset of the eight parity bits moves no round key."""
    flipped = bytes(b ^ ((parity >> i) & 1) for i, b in enumerate(key))
    assert DES._key_schedule(flipped) == DES._key_schedule(key)


def test_des_weak_key_lists_match_what_the_schedule_does():
    """Ties the lists ``safe_key`` screens with to the schedule itself."""
    for key in WEAK_KEYS:
        assert len(set(DES._key_schedule(key))) == 1, key.hex()
    assert len(SEMI_WEAK_KEYS) == 12
    for one, other in zip(SEMI_WEAK_KEYS[::2], SEMI_WEAK_KEYS[1::2]):
        assert DES(one)._round_keys == DES(other)._round_keys_dec, one.hex()
        assert DES(other)._round_keys == DES(one)._round_keys_dec
        # ... and neither half of a pair is itself weak.
        assert len(set(DES._key_schedule(one))) > 1


@settings(max_examples=25)
@given(key=BLOCK8)
def test_des_key_schedule_accepts_any_bytes_like(key):
    expected = ReferenceDES._key_schedule(key)
    assert DES._key_schedule(bytearray(key)) == expected
    assert DES._key_schedule(memoryview(key)) == expected
    assert DES(memoryview(key))._round_keys == expected


@pytest.mark.parametrize("length", [0, 7, 9, 16])
@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
def test_des_rejects_wrong_key_length(kind, length):
    with pytest.raises(ValueError, match="DES key must be 8 bytes"):
        DES(kind(bytes(length)))


def test_des_schedule_tables_are_derived_not_transcribed():
    tables = des._KS_TABLES
    assert len(tables) == 8 and all(len(t) == 128 for t in tables)
    occurrences = []
    for table in tables:
        assert table[0] == 0
        singles = [table[1 << bit] for bit in range(7)]
        for value, entry in enumerate(table):
            expected = 0
            for bit in range(7):
                if (value >> bit) & 1:
                    expected |= singles[bit]
            assert entry == expected
        for single in singles:
            # One key bit lands at most once per round key ...
            rounds = [(single >> 48 * r) & 0xFFFFFFFFFFFF for r in range(16)]
            assert all(bin(rk).count("1") <= 1 for rk in rounds)
            occurrences.append(sum(1 for rk in rounds if rk))
    # ... and in 12 to 15 of the 16 (the textbook DES property); the
    # 56 key bits fill all 16 x 48 round-key positions between them.
    assert len(occurrences) == 56
    assert min(occurrences) >= 12 and max(occurrences) <= 15
    assert sum(occurrences) == 768
    assert DES._key_schedule(b"\xfe" * 8) == (0xFFFFFFFFFFFF,) * 16


@settings(max_examples=25)
@given(key=st.binary(min_size=24, max_size=24), block=BLOCK8)
def test_3des_matches_reference_composition(key, block):
    """EDE over the fast DES equals EDE composed from reference DES."""
    k1, k2, k3 = key[:8], key[8:16], key[16:24]
    expected = ReferenceDES(k3).encrypt_block(
        ReferenceDES(k2).decrypt_block(ReferenceDES(k1).encrypt_block(block)))
    assert TripleDES(key).encrypt_block(block) == expected


@settings(max_examples=25)
@given(key=BLOCK16, value=st.integers(min_value=0, max_value=2 ** 128 - 1))
def test_aes_int_api_matches_byte_api(key, value):
    cipher = AES(key)
    block = value.to_bytes(16, "big")
    assert (cipher.encrypt_block_int(value).to_bytes(16, "big")
            == cipher.encrypt_block(block))
    assert (cipher.decrypt_block_int(value).to_bytes(16, "big")
            == cipher.decrypt_block(block))


@settings(max_examples=25)
@given(key=BLOCK8, value=st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_des_int_api_matches_byte_api(key, value):
    cipher = DES(key)
    block = value.to_bytes(8, "big")
    assert (cipher.encrypt_block_int(value).to_bytes(8, "big")
            == cipher.encrypt_block(block))
    assert (cipher.decrypt_block_int(value).to_bytes(8, "big")
            == cipher.decrypt_block(block))


# -- chaining-mode fast paths vs byte-wise chaining -------------------------


@settings(max_examples=25)
@given(key=BLOCK8, plaintext=st.binary(max_size=64), iv=BLOCK8)
def test_cbc_int_path_matches_reference_chaining(key, plaintext, iv):
    cipher = DES(key)
    ciphertext = modes.cbc_encrypt(cipher, plaintext, iv)
    assert ciphertext == reference.reference_cbc_encrypt(
        ReferenceDES(key), plaintext, iv)
    assert modes.cbc_decrypt(cipher, ciphertext, iv) == plaintext
    assert reference.reference_cbc_decrypt(
        ReferenceDES(key), ciphertext, iv) == plaintext


@settings(max_examples=25)
@given(key=BLOCK16, plaintext=st.binary(max_size=64), iv=BLOCK16)
def test_cbc_int_path_matches_generic_path(key, plaintext, iv):
    """The int chaining loop and the byte-wise generic loop agree."""
    fast = AES(key)
    generic = NoIntPath(fast)
    assert (modes.cbc_encrypt(fast, plaintext, iv)
            == modes.cbc_encrypt(generic, plaintext, iv))
    ciphertext = modes.cbc_encrypt(fast, plaintext, iv)
    assert (modes.cbc_decrypt(fast, ciphertext, iv)
            == modes.cbc_decrypt(generic, ciphertext, iv))


@settings(max_examples=25)
@given(key=BLOCK8, data=st.binary(max_size=64),
       nonce=st.binary(min_size=4, max_size=4))
def test_ctr_int_path_matches_generic_path(key, data, nonce):
    fast = DES(key)
    generic = NoIntPath(fast)
    assert (modes.ctr_transform(fast, data, nonce)
            == modes.ctr_transform(generic, data, nonce))


# -- batch engine vs scalar CBC ---------------------------------------------


@pytest.mark.skipif(not batchenc.HAVE_NUMPY, reason="numpy unavailable")
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32))
def test_batch_engine_matches_scalar_cbc(seed):
    import random
    rng = random.Random(seed)

    def rb(n):
        return bytes(rng.randrange(256) for _ in range(n))

    jobs = []
    for _ in range(12):
        jobs.append((AES(rb(16)), rb(32), rb(16)))
        jobs.append((AES(rb(32)), rb(32), rb(16)))
        jobs.append((DES(rb(8)), rb(16), rb(8)))
        jobs.append((TripleDES(rb(24)), rb(16), rb(8)))
        jobs.append((TripleDES(rb(16)), rb(24), rb(8)))
    rng.shuffle(jobs)
    expected = [modes.cbc_encrypt_nopad(cipher, padded, iv)
                for cipher, padded, iv in jobs]
    assert batchenc.cbc_encrypt_nopad_many(jobs) == expected


class ReferenceEDE:
    """EDE2 / EDE3 composed from :class:`ReferenceDES`."""

    block_size = 8

    def __init__(self, key):
        k1, k2, k3 = key[:8], key[8:16], key[16:] or key[:8]
        self._stages = ReferenceDES(k1), ReferenceDES(k2), ReferenceDES(k3)

    def encrypt_block(self, block):
        first, second, third = self._stages
        return third.encrypt_block(
            second.decrypt_block(first.encrypt_block(block)))


@pytest.mark.parametrize("cipher_name", ["des", "des3-2key", "des3"])
def test_des_family_fresh_keys_with_cold_cache(cipher_name):
    """DES / EDE2 / EDE3 through the suite, scalar and numpy, against the
    reference on fresh random keys; the shared cache is cleared between
    cases so a stale cached object cannot mask a schedule bug."""
    import random
    suite = CipherSuite(cipher_name)
    oracle = ReferenceDES if suite.key_size == 8 else ReferenceEDE
    rng = random.Random(cipher_name)
    for _ in range(3):
        SHARED_CACHE.clear()
        misses = SHARED_CACHE.misses
        jobs = [(rng.randbytes(suite.key_size), rng.randbytes(16),
                 rng.randbytes(8)) for _ in range(20)]
        # The reference pads; the two data blocks come first.
        expected = [reference.reference_cbc_encrypt(
            oracle(key), padded, iv)[:16] for key, padded, iv in jobs]
        assert [modes.cbc_encrypt_nopad(suite.new_cipher(key), padded, iv)
                for key, padded, iv in jobs] == expected
        assert SHARED_CACHE.misses == misses + len(jobs)
        assert batchenc.cbc_encrypt_keys_many(suite, jobs) == expected


@pytest.mark.skipif(not batchenc.HAVE_NUMPY, reason="numpy unavailable")
def test_batch_engine_small_groups_and_empty_jobs():
    """Below-threshold groups and zero-block jobs take the scalar path."""
    jobs = [(DES(b"k" * 8), b"p" * 16, b"i" * 8),
            (AES(b"k" * 16), b"", b"i" * 16)]
    expected = [modes.cbc_encrypt_nopad(cipher, padded, iv)
                for cipher, padded, iv in jobs]
    assert batchenc.cbc_encrypt_nopad_many(jobs) == expected
    assert batchenc.cbc_encrypt_nopad_many([]) == []


def test_batch_engine_rejects_misaligned_plaintext():
    with pytest.raises(ValueError):
        batchenc.cbc_encrypt_nopad_many([(DES(b"k" * 8), b"odd", b"i" * 8)])


# -- MD5: unrolled multi-block compress vs the looped reference -------------


WORD = st.integers(min_value=0, max_value=0xFFFFFFFF)


@settings(max_examples=200)
@given(state=st.tuples(WORD, WORD, WORD, WORD),
       blocks=st.lists(st.binary(min_size=64, max_size=64),
                       min_size=1, max_size=4))
def test_md5_compress_matches_reference(state, blocks):
    # One call over several blocks must equal the reference chained
    # block by block, so every chained state is compared too.
    expected = state
    for index, block in enumerate(blocks):
        expected = reference.reference_md5_compress(expected, block)
        assert md5_compress(state, b"".join(blocks[:index + 1])) == expected


# -- RSA: cached CRT vs full exponentiation ---------------------------------


@pytest.fixture(scope="module")
def keypair():
    return rsa.generate_keypair(512, seed=b"fastpath-rsa")


@settings(max_examples=20, deadline=None)
@given(digest=st.binary(min_size=16, max_size=16))
def test_crt_signature_matches_reference(digest):
    key = rsa.generate_keypair(512, seed=b"fastpath-rsa")
    fast = rsa.sign_digest(key, digest, "md5")
    assert fast == reference.reference_sign_digest(key, digest, "md5")
    rsa.verify_digest(key.public_key, digest, fast, "md5")


def test_crt_components_are_cached(keypair):
    first = keypair._crt
    assert keypair._crt is first            # cached_property: derived once
    dp, dq, q_inv = first
    assert dp == keypair.d % (keypair.p - 1)
    assert dq == keypair.d % (keypair.q - 1)
    assert (q_inv * keypair.q) % keypair.p == 1


def test_raw_sign_round_trips_through_raw_verify(keypair):
    value = 0x1234567890ABCDEF
    assert keypair.public_key.raw_verify(keypair.raw_sign(value)) == value
    assert keypair.raw_sign(value) == reference.reference_raw_sign(
        keypair, value)
