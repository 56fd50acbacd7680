"""Pure-Python DES block cipher (FIPS 46-3).

The paper's prototype encrypts rekey messages with DES-CBC from CryptoLib.
No C crypto library is available in this environment, so the cipher is
implemented here from the standard tables.

Fast path: every bit permutation is flattened into lookup tables at
import.  A round expands through four 256-entry byte tables and reads four
12-bit S-box pair tables (two 6-bit S/P lookups fused per read), and the
16 rounds are one loop over the schedule.  The tables total ~1 MB: 16-bit
expansion pair tables would save two reads a round but add 5 MB of ints,
wider than L2, and made random blocks under random keys slower although a
repeated block ran faster (DESIGN.md §9).  The decryption schedule is
precomputed once per key, and
``encrypt_block_int``/``decrypt_block_int`` expose an integer API so CBC
can chain whole messages without per-block byte churn.

The key schedule is table-driven too.  PC1, the cumulative rotation of
round r and PC2 do not depend on the key, so they compose into one fixed
selection of 16 x 48 = 768 key bits (round 1 most significant): PC2
position p of round r reads ``PC1[28*half + (j + rot_r) % 28]`` with
``half, j = divmod(p - 1, 28)``.  A selection moves each input bit
independently, so the packed schedule is the OR of eight per-key-byte
table entries: eight lookups, sixteen shift-and-mask splits.  Indexing
by ``byte >> 1`` is exact, since PC1 never selects a parity bit (bit 0).
The pre-fast-path rounds and the bitwise schedule are preserved in
:mod:`repro.crypto.reference` and pinned equal by the test suite.

Only the raw 64-bit block operations live here; chaining modes and padding
are in :mod:`repro.crypto.modes`.
"""

from __future__ import annotations

BLOCK_SIZE = 8
KEY_SIZE = 8

# Initial permutation (FIPS 46-3, 1-indexed source bit positions).
_IP = (
    58, 50, 42, 34, 26, 18, 10, 2,
    60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6,
    64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9, 1,
    59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5,
    63, 55, 47, 39, 31, 23, 15, 7,
)

# Final permutation (inverse of IP).
_FP = (
    40, 8, 48, 16, 56, 24, 64, 32,
    39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30,
    37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28,
    35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26,
    33, 1, 41, 9, 49, 17, 57, 25,
)

# Expansion of the 32-bit half block to 48 bits.
_E = (
    32, 1, 2, 3, 4, 5,
    4, 5, 6, 7, 8, 9,
    8, 9, 10, 11, 12, 13,
    12, 13, 14, 15, 16, 17,
    16, 17, 18, 19, 20, 21,
    20, 21, 22, 23, 24, 25,
    24, 25, 26, 27, 28, 29,
    28, 29, 30, 31, 32, 1,
)

# Permutation applied to the S-box output.
_P = (
    16, 7, 20, 21,
    29, 12, 28, 17,
    1, 15, 23, 26,
    5, 18, 31, 10,
    2, 8, 24, 14,
    32, 27, 3, 9,
    19, 13, 30, 6,
    22, 11, 4, 25,
)

# The eight S-boxes, each 4 rows x 16 columns.
_SBOXES = (
    (
        14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7,
        0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8,
        4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0,
        15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
    ),
    (
        15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10,
        3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5,
        0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15,
        13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
    ),
    (
        10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8,
        13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1,
        13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7,
        1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
    ),
    (
        7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15,
        13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9,
        10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4,
        3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
    ),
    (
        2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9,
        14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6,
        4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14,
        11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
    ),
    (
        12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11,
        10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8,
        9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6,
        4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
    ),
    (
        4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1,
        13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6,
        1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2,
        6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
    ),
    (
        13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7,
        1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2,
        7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8,
        2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
    ),
)

# Permuted choice 1: 64-bit key -> 56 bits (drops parity bits).
_PC1 = (
    57, 49, 41, 33, 25, 17, 9,
    1, 58, 50, 42, 34, 26, 18,
    10, 2, 59, 51, 43, 35, 27,
    19, 11, 3, 60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15,
    7, 62, 54, 46, 38, 30, 22,
    14, 6, 61, 53, 45, 37, 29,
    21, 13, 5, 28, 20, 12, 4,
)

# Permuted choice 2: 56 bits -> 48-bit round key.
_PC2 = (
    14, 17, 11, 24, 1, 5,
    3, 28, 15, 6, 21, 10,
    23, 19, 12, 4, 26, 8,
    16, 7, 27, 20, 13, 2,
    41, 52, 31, 37, 47, 55,
    30, 40, 51, 45, 33, 48,
    44, 49, 39, 56, 34, 53,
    46, 42, 50, 36, 29, 32,
)

# Left-rotation amounts per round.
_SHIFTS = (1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1)


def _permute(value: int, in_width: int, table) -> int:
    """Permute ``value`` of ``in_width`` bits using a 1-indexed DES table."""
    out = 0
    for pos in table:
        out = (out << 1) | ((value >> (in_width - pos)) & 1)
    return out


def _byte_tables(in_width: int, table):
    """Build per-input-byte lookup tables for a bit-selection permutation.

    A permutation distributes each input bit independently, so the permuted
    value is the OR of per-byte contributions.  This turns a 64-bit
    permutation into 8 table lookups.
    """
    n_bytes = in_width // 8
    tables = []
    for byte_index in range(n_bytes):
        shift = in_width - 8 * (byte_index + 1)
        entries = [_permute(byte_value << shift, in_width, table)
                   for byte_value in range(256)]
        tables.append(tuple(entries))
    return tuple(tables)


def _rotl28(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (28 - amount))) & 0xFFFFFFF


# Precompute, for each S-box, a 64-entry table mapping the 6-bit S-box
# input directly to the 32-bit output with permutation P already applied.
# This fuses the S-box lookup and P-permutation into a single table read,
# cutting the round function to 8 lookups and xors.
def _build_sp_boxes():
    boxes = []
    for box_index, sbox in enumerate(_SBOXES):
        table = []
        for chunk in range(64):
            row = ((chunk & 0x20) >> 4) | (chunk & 1)
            col = (chunk >> 1) & 0xF
            nibble = sbox[row * 16 + col]
            # Position the 4-bit output in the 32-bit pre-P word...
            pre_p = nibble << (4 * (7 - box_index))
            # ...then apply P to that word.
            table.append(_permute(pre_p, 32, _P))
        boxes.append(tuple(table))
    return tuple(boxes)


_SP = _build_sp_boxes()
_IP_TABLES = _byte_tables(64, _IP)
_FP_TABLES = _byte_tables(64, _FP)
_E_TABLES = _byte_tables(32, _E)

# 12-bit SP pair tables: two adjacent S-boxes (P applied) per read.
_SP12 = tuple(tuple(_SP[2 * pair][i >> 6] | _SP[2 * pair + 1][i & 0x3F]
                    for i in range(4096))
              for pair in range(4))


def _build_schedule_tables():
    """``[i][v]``: what key byte ``i`` with top seven bits ``v`` contributes
    to the 16 round keys packed into one 768-bit int (module docstring)."""
    bit_masks = [0] * 65                 # by 1-indexed key bit, as PC1 counts
    out_bit, rotation = 768, 0
    for shift in _SHIFTS:
        rotation += shift
        for pos in _PC2:
            half, j = divmod(pos - 1, 28)
            out_bit -= 1
            bit_masks[_PC1[28 * half + (j + rotation) % 28]] |= 1 << out_bit
    tables = []
    for byte_index in range(8):
        entries = [0]
        # Double per index bit, LSB first; bit 6 is key bit 8*byte_index + 1.
        for bit in range(7):
            mask = bit_masks[8 * byte_index + 7 - bit]
            entries += [entry | mask for entry in entries]
        tables.append(tuple(entries))
    return tuple(tables)


_KS_TABLES = _build_schedule_tables()


# The four weak keys (self-inverse schedules) and six semi-weak key
# pairs (K1 encrypts what K2 decrypts), FIPS 74 / Menezes et al. §7.4.3.
# Stored with odd parity as conventionally listed; comparison ignores
# parity bits since DES does.
WEAK_KEYS = tuple(bytes.fromhex(value) for value in (
    "0101010101010101", "FEFEFEFEFEFEFEFE",
    "E0E0E0E0F1F1F1F1", "1F1F1F1F0E0E0E0E",
))
SEMI_WEAK_KEYS = tuple(bytes.fromhex(value) for value in (
    "011F011F010E010E", "1F011F010E010E01",
    "01E001E001F101F1", "E001E001F101F101",
    "01FE01FE01FE01FE", "FE01FE01FE01FE01",
    "1FE01FE00EF10EF1", "E01FE01FF10EF10E",
    "1FFE1FFE0EFE0EFE", "FE1FFE1FFE0EFE0E",
    "E0FEE0FEF1FEF1FE", "FEE0FEE0FEF1FEF1",
))


def _strip_parity(key: bytes) -> bytes:
    """Zero each byte's parity bit (bit 0), which DES ignores."""
    return bytes(b & 0xFE for b in key)


# Parity-stripped membership sets (O(1) screening) plus a bounded memo of
# screening verdicts keyed on the raw key bytes, so the key server's
# safe-key rejection loop never rescans a key it has already screened
# (repeated constructions of the same key are common under the
# key-schedule cache).
_WEAK_STRIPPED = frozenset(_strip_parity(weak) for weak in WEAK_KEYS)
_SEMI_WEAK_STRIPPED = frozenset(_strip_parity(semi) for semi in SEMI_WEAK_KEYS)
_SCREEN_CACHE = {}
_SCREEN_CACHE_MAX = 4096


def _screen_key(key: bytes):
    """Cached ``(is_weak, is_semi_weak)`` verdict for an 8-byte key.

    A bytes-like key is copied to ``bytes``: hashable, and never pinned.
    """
    key = memoryview(key).tobytes()
    if len(key) != KEY_SIZE:
        raise ValueError(f"DES key must be {KEY_SIZE} bytes")
    verdict = _SCREEN_CACHE.get(key)
    if verdict is None:
        stripped = _strip_parity(key)
        verdict = (stripped in _WEAK_STRIPPED, stripped in _SEMI_WEAK_STRIPPED)
        if len(_SCREEN_CACHE) >= _SCREEN_CACHE_MAX:
            _SCREEN_CACHE.clear()
        _SCREEN_CACHE[key] = verdict
    return verdict


def is_weak_key(key: bytes) -> bool:
    """True for the four weak keys (encryption == decryption).

    A group key server must never issue one as key material — with a
    weak key, every eavesdropper's double-encryption is the identity.
    """
    return _screen_key(key)[0]


def is_semi_weak_key(key: bytes) -> bool:
    """True for the twelve semi-weak keys (paired inverse schedules)."""
    return _screen_key(key)[1]


class DES:
    """DES block cipher with a precomputed key schedule.

    >>> cipher = DES(bytes.fromhex("133457799BBCDFF1"))
    >>> cipher.encrypt_block(bytes.fromhex("0123456789ABCDEF")).hex()
    '85e813540f0ab405'
    """

    block_size = BLOCK_SIZE
    key_size = KEY_SIZE
    name = "des"

    def __init__(self, key: bytes):
        if len(key) != KEY_SIZE:
            raise ValueError(f"DES key must be {KEY_SIZE} bytes, got {len(key)}")
        self._round_keys = self._key_schedule(key)
        # Decryption walks the schedule backwards; reverse it once per
        # key instead of per block.
        self._round_keys_dec = self._round_keys[::-1]

    @staticmethod
    def _key_schedule(key: bytes):
        k0, k1, k2, k3, k4, k5, k6, k7 = key
        t0, t1, t2, t3, t4, t5, t6, t7 = _KS_TABLES
        p = (t0[k0 >> 1] | t1[k1 >> 1] | t2[k2 >> 1] | t3[k3 >> 1]
             | t4[k4 >> 1] | t5[k5 >> 1] | t6[k6 >> 1] | t7[k7 >> 1])
        m = 0xFFFFFFFFFFFF
        return (p >> 720, (p >> 672) & m, (p >> 624) & m, (p >> 576) & m,
                (p >> 528) & m, (p >> 480) & m, (p >> 432) & m,
                (p >> 384) & m, (p >> 336) & m, (p >> 288) & m,
                (p >> 240) & m, (p >> 192) & m, (p >> 144) & m,
                (p >> 96) & m, (p >> 48) & m, p & m)

    def _crypt_int(self, value: int, round_keys) -> int:
        ip0, ip1, ip2, ip3, ip4, ip5, ip6, ip7 = _IP_TABLES
        value = (ip0[(value >> 56) & 0xFF] | ip1[(value >> 48) & 0xFF]
                 | ip2[(value >> 40) & 0xFF] | ip3[(value >> 32) & 0xFF]
                 | ip4[(value >> 24) & 0xFF] | ip5[(value >> 16) & 0xFF]
                 | ip6[(value >> 8) & 0xFF] | ip7[value & 0xFF])
        left = (value >> 32) & 0xFFFFFFFF
        right = value & 0xFFFFFFFF
        e0, e1, e2, e3 = _E_TABLES
        sp0, sp1, sp2, sp3 = _SP12
        for round_key in round_keys:
            x = (e0[right >> 24] | e1[(right >> 16) & 0xFF]
                 | e2[(right >> 8) & 0xFF] | e3[right & 0xFF]) ^ round_key
            left, right = right, left ^ (
                sp0[(x >> 36) & 0xFFF] | sp1[(x >> 24) & 0xFFF]
                | sp2[(x >> 12) & 0xFFF] | sp3[x & 0xFFF])
        # Final swap: the last round's halves are exchanged before FP.
        combined = (right << 32) | left
        fp0, fp1, fp2, fp3, fp4, fp5, fp6, fp7 = _FP_TABLES
        return (fp0[(combined >> 56) & 0xFF] | fp1[(combined >> 48) & 0xFF]
                | fp2[(combined >> 40) & 0xFF] | fp3[(combined >> 32) & 0xFF]
                | fp4[(combined >> 24) & 0xFF] | fp5[(combined >> 16) & 0xFF]
                | fp6[(combined >> 8) & 0xFF] | fp7[combined & 0xFF])

    def encrypt_block_int(self, value: int) -> int:
        """Encrypt one block given (and returning) a 64-bit integer."""
        return self._crypt_int(value, self._round_keys)

    def decrypt_block_int(self, value: int) -> int:
        """Decrypt one block given (and returning) a 64-bit integer."""
        return self._crypt_int(value, self._round_keys_dec)

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 8-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError("DES operates on 8-byte blocks")
        return self._crypt_int(int.from_bytes(block, "big"),
                               self._round_keys).to_bytes(8, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 8-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError("DES operates on 8-byte blocks")
        return self._crypt_int(int.from_bytes(block, "big"),
                               self._round_keys_dec).to_bytes(8, "big")
