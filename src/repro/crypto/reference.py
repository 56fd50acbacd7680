"""Frozen pre-optimization crypto reference implementations.

The crypto fast path (T-table AES, pair-table DES, int-based CBC,
cached-CRT RSA, unrolled MD5) replaced the byte-at-a-time
implementations this module preserves.  They exist for two reasons:

* **Equivalence testing** — `tests/crypto/test_fastpath.py` drives the
  fast path and these references with the same random inputs and
  asserts bit-identical output, so the optimized round functions can
  never silently diverge from the straightforward transcription of the
  standards.
* **Benchmark baselines** — `benchmarks/bench_fastpath.py` measures the
  fast path *against* these functions with one harness, producing the
  `BENCH_*.json` speedup trajectory.

The standard tables (S-boxes, permutations, GF(2^8) multiplication
tables) are shared with the live modules — they are constants of the
algorithms, not part of the optimization — but every *code path* here
is the pre-fast-path formulation and must stay frozen.  Do not "clean
up" or speed up this module; its slowness is the point.
"""

from __future__ import annotations

import struct

from .aes import _INV_MUL, _INV_SBOX, _MUL2, _MUL3, _RCON, _SBOX
from .des import (_E_TABLES, _FP_TABLES, _IP_TABLES, _PC1, _PC2, _SHIFTS,
                  _SP, _permute, _rotl28)
from .md5 import _K as _MD5_K, _S as _MD5_S
from .modes import pad, unpad


# -- AES: byte-wise fused rounds (the pre-T-table formulation) --------------


class ReferenceAES:
    """AES with per-byte round functions, as shipped before the fast path."""

    block_size = 16
    name = "aes-reference"

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise ValueError("AES key must be 16, 24 or 32 bytes")
        self.key_size = len(key)
        self._rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(key)

    def _expand_key(self, key: bytes):
        nk = len(key) // 4
        words = [list(key[4 * i:4 * i + 4]) for i in range(nk)]
        total_words = 4 * (self._rounds + 1)
        for i in range(nk, total_words):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]
                temp = [_SBOX[b] for b in temp]
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [_SBOX[b] for b in temp]
            words.append([words[i - nk][j] ^ temp[j] for j in range(4)])
        round_keys = []
        for round_index in range(self._rounds + 1):
            flat = []
            for word in words[4 * round_index:4 * round_index + 4]:
                flat.extend(word)
            round_keys.append(tuple(flat))
        return tuple(round_keys)

    @staticmethod
    def _add_round_key(state, round_key):
        return [state[i] ^ round_key[i] for i in range(16)]

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block (byte-wise rounds)."""
        if len(block) != 16:
            raise ValueError("AES operates on 16-byte blocks")
        state = self._add_round_key(list(block), self._round_keys[0])
        sbox, mul2, mul3 = _SBOX, _MUL2, _MUL3
        for round_index in range(1, self._rounds):
            rk = self._round_keys[round_index]
            new = [0] * 16
            for col in range(4):
                s0 = state[4 * col]
                s1 = state[(4 * col + 5) % 16]
                s2 = state[(4 * col + 10) % 16]
                s3 = state[(4 * col + 15) % 16]
                new[4 * col] = mul2[s0] ^ mul3[s1] ^ sbox[s2] ^ sbox[s3] ^ rk[4 * col]
                new[4 * col + 1] = sbox[s0] ^ mul2[s1] ^ mul3[s2] ^ sbox[s3] ^ rk[4 * col + 1]
                new[4 * col + 2] = sbox[s0] ^ sbox[s1] ^ mul2[s2] ^ mul3[s3] ^ rk[4 * col + 2]
                new[4 * col + 3] = mul3[s0] ^ sbox[s1] ^ sbox[s2] ^ mul2[s3] ^ rk[4 * col + 3]
            state = new
        rk = self._round_keys[self._rounds]
        final = [0] * 16
        for col in range(4):
            final[4 * col] = sbox[state[4 * col]] ^ rk[4 * col]
            final[4 * col + 1] = sbox[state[(4 * col + 5) % 16]] ^ rk[4 * col + 1]
            final[4 * col + 2] = sbox[state[(4 * col + 10) % 16]] ^ rk[4 * col + 2]
            final[4 * col + 3] = sbox[state[(4 * col + 15) % 16]] ^ rk[4 * col + 3]
        return bytes(final)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block (byte-wise rounds)."""
        if len(block) != 16:
            raise ValueError("AES operates on 16-byte blocks")
        inv_sbox = _INV_SBOX
        mul9, mul11 = _INV_MUL[9], _INV_MUL[11]
        mul13, mul14 = _INV_MUL[13], _INV_MUL[14]
        state = self._add_round_key(list(block), self._round_keys[self._rounds])
        state = self._inv_shift_sub(state, inv_sbox)
        for round_index in range(self._rounds - 1, 0, -1):
            state = self._add_round_key(state, self._round_keys[round_index])
            new = [0] * 16
            for col in range(4):
                s0, s1, s2, s3 = state[4 * col:4 * col + 4]
                new[4 * col] = mul14[s0] ^ mul11[s1] ^ mul13[s2] ^ mul9[s3]
                new[4 * col + 1] = mul9[s0] ^ mul14[s1] ^ mul11[s2] ^ mul13[s3]
                new[4 * col + 2] = mul13[s0] ^ mul9[s1] ^ mul14[s2] ^ mul11[s3]
                new[4 * col + 3] = mul11[s0] ^ mul13[s1] ^ mul9[s2] ^ mul14[s3]
            state = self._inv_shift_sub(new, inv_sbox)
        state = self._add_round_key(state, self._round_keys[0])
        return bytes(state)

    @staticmethod
    def _inv_shift_sub(state, inv_sbox):
        new = [0] * 16
        for col in range(4):
            new[4 * col] = inv_sbox[state[4 * col]]
            new[4 * col + 1] = inv_sbox[state[(4 * col + 13) % 16]]
            new[4 * col + 2] = inv_sbox[state[(4 * col + 10) % 16]]
            new[4 * col + 3] = inv_sbox[state[(4 * col + 7) % 16]]
        return new


# -- DES: per-byte permutations + a per-round Feistel call ------------------


def _fast_permute(value: int, tables, n_bytes: int, in_width: int) -> int:
    out = 0
    for byte_index in range(n_bytes):
        shift = in_width - 8 * (byte_index + 1)
        out |= tables[byte_index][(value >> shift) & 0xFF]
    return out


class ReferenceDES:
    """DES with the pre-fast-path round structure (callable Feistel)."""

    block_size = 8
    key_size = 8
    name = "des-reference"

    def __init__(self, key: bytes):
        if len(key) != 8:
            raise ValueError(f"DES key must be 8 bytes, got {len(key)}")
        self._round_keys = self._key_schedule(key)

    @staticmethod
    def _key_schedule(key: bytes):
        key_int = int.from_bytes(key, "big")
        permuted = _permute(key_int, 64, _PC1)
        c = (permuted >> 28) & 0xFFFFFFF
        d = permuted & 0xFFFFFFF
        round_keys = []
        for shift in _SHIFTS:
            c = _rotl28(c, shift)
            d = _rotl28(d, shift)
            round_keys.append(_permute((c << 28) | d, 56, _PC2))
        return tuple(round_keys)

    @staticmethod
    def _feistel(half: int, round_key: int) -> int:
        e0, e1, e2, e3 = _E_TABLES
        expanded = (e0[(half >> 24) & 0xFF] | e1[(half >> 16) & 0xFF]
                    | e2[(half >> 8) & 0xFF] | e3[half & 0xFF]) ^ round_key
        sp = _SP
        return (sp[0][(expanded >> 42) & 0x3F] | sp[1][(expanded >> 36) & 0x3F]
                | sp[2][(expanded >> 30) & 0x3F] | sp[3][(expanded >> 24) & 0x3F]
                | sp[4][(expanded >> 18) & 0x3F] | sp[5][(expanded >> 12) & 0x3F]
                | sp[6][(expanded >> 6) & 0x3F] | sp[7][expanded & 0x3F])

    def _crypt_block(self, block: bytes, round_keys) -> bytes:
        value = _fast_permute(int.from_bytes(block, "big"), _IP_TABLES, 8, 64)
        left = (value >> 32) & 0xFFFFFFFF
        right = value & 0xFFFFFFFF
        feistel = self._feistel
        for round_key in round_keys:
            left, right = right, left ^ feistel(right, round_key)
        combined = (right << 32) | left
        return _fast_permute(combined, _FP_TABLES, 8, 64).to_bytes(8, "big")

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 8-byte block."""
        if len(block) != 8:
            raise ValueError("DES operates on 8-byte blocks")
        return self._crypt_block(block, self._round_keys)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 8-byte block (reverses the schedule per call)."""
        if len(block) != 8:
            raise ValueError("DES operates on 8-byte blocks")
        return self._crypt_block(block, tuple(reversed(self._round_keys)))


# -- CBC: per-block byte-wise XOR (the pre-int-path formulation) ------------


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def reference_cbc_encrypt(cipher, plaintext: bytes, iv: bytes) -> bytes:
    """CBC encryption of PKCS#7 padded plaintext, byte-wise chaining."""
    block = cipher.block_size
    if len(iv) != block:
        raise ValueError(f"IV must be {block} bytes")
    padded = pad(plaintext, block)
    out = bytearray()
    previous = iv
    for i in range(0, len(padded), block):
        encrypted = cipher.encrypt_block(_xor_bytes(padded[i:i + block], previous))
        out.extend(encrypted)
        previous = encrypted
    return bytes(out)


def reference_cbc_decrypt(cipher, ciphertext: bytes, iv: bytes) -> bytes:
    """CBC decryption with byte-wise chaining; validates PKCS#7 padding."""
    block = cipher.block_size
    if len(iv) != block:
        raise ValueError(f"IV must be {block} bytes")
    if len(ciphertext) % block:
        raise ValueError("ciphertext length is not a block multiple")
    out = bytearray()
    previous = iv
    for i in range(0, len(ciphertext), block):
        chunk = ciphertext[i:i + block]
        out.extend(_xor_bytes(cipher.decrypt_block(chunk), previous))
        previous = chunk
    return unpad(bytes(out), block)


# -- MD5: one looped step with a four-way round branch ----------------------


def _rotl32(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (32 - amount))) & 0xFFFFFFFF


def reference_md5_compress(state, block: bytes):
    """One MD5 block, the 64-pass loop the unrolled compress replaced.

    ``state`` is the 4-tuple chaining value, ``block`` exactly 64 bytes;
    returns the next chaining value.
    """
    mask = 0xFFFFFFFF
    a0, b0, c0, d0 = state
    m = struct.unpack("<16I", block)
    a, b, c, d = a0, b0, c0, d0
    for i in range(64):
        if i < 16:
            f = (b & c) | (~b & d)
            g = i
        elif i < 32:
            f = (d & b) | (~d & c)
            g = (5 * i + 1) % 16
        elif i < 48:
            f = b ^ c ^ d
            g = (3 * i + 5) % 16
        else:
            f = c ^ (b | (~d & mask))
            g = (7 * i) % 16
        f = (f + a + _MD5_K[i] + m[g]) & mask
        a, d, c = d, c, b
        b = (b + _rotl32(f, _MD5_S[i])) & mask
    return ((a0 + a) & mask, (b0 + b) & mask,
            (c0 + c) & mask, (d0 + d) & mask)


# -- RSA: full-exponent (non-CRT) signing -----------------------------------


def reference_raw_sign(private_key, value: int) -> int:
    """Textbook private-key exponentiation: one full-size modular pow.

    The live :meth:`~repro.crypto.rsa.RsaPrivateKey.raw_sign` splits the
    computation over p and q (CRT) with cached exponents; this is the
    unaccelerated formulation it is benchmarked against.
    """
    return pow(value, private_key.d, private_key.n)


def reference_sign_digest(private_key, digest: bytes,
                          algorithm: str = "md5") -> bytes:
    """EMSA-PKCS1-v1_5 signing via the non-CRT exponentiation."""
    from .rsa import _emsa_pkcs1_v15
    em = _emsa_pkcs1_v15(digest, algorithm, private_key.byte_size)
    signature = reference_raw_sign(private_key, int.from_bytes(em, "big"))
    return signature.to_bytes(private_key.byte_size, "big")
