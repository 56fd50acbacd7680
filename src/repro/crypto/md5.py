"""Pure-Python MD5 (RFC 1321).

The paper computes MD5 digests of rekey messages.  The per-step constants
are derived from ``int(abs(sin(i+1)) * 2**32)`` exactly as RFC 1321
specifies, so no 64-entry table needs transcribing.  Validated against
``hashlib.md5`` and the loop formulation kept in
:func:`repro.crypto.reference.reference_md5_compress` in the test suite
(including hypothesis property tests over arbitrary inputs).

The compression function is generated at import as one straight-line
function: the 64 steps with their constants, message-word order and
rotations baked in, the round functions in their xor form, and a loop
over every 64-byte block of its input so one ``struct`` pass unpacks the
whole message.  Only ``t`` (the pre-rotation sum) is masked per step:
the working variables may carry bits above 32 between steps, which
``and`` / ``or`` / ``xor`` and ``+`` leave harmless modulo 2**32, and are
masked once per block when folded into the chaining state.
"""

from __future__ import annotations

import math
import struct

DIGEST_SIZE = 16
BLOCK_SIZE = 64

_K = tuple(int(abs(math.sin(i + 1)) * 2**32) & 0xFFFFFFFF for i in range(64))
_S = (
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
)

_INITIAL_STATE = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)

# Round functions F, G, H, I in xor form (no ``~``, one operator fewer).
_ROUND_F = (
    "{d} ^ ({b} & ({c} ^ {d}))",
    "{c} ^ ({d} & ({b} ^ {c}))",
    "{b} ^ {c} ^ {d}",
    "{c} ^ ({b} | ({d} ^ 0xFFFFFFFF))",
)


def _word_index(i: int) -> int:
    """Message word consumed by step ``i`` (RFC 1321 section 3.4)."""
    return (i, 5 * i + 1, 3 * i + 5, 7 * i)[i // 16] % 16


def _compress_source() -> str:
    """Source text of the unrolled multi-block compression function."""
    words = ", ".join(f"m{j}" for j in range(16))
    lines = [
        "def _compress(state, data, _blocks=_BLOCKS):",
        '    """Fold every 64-byte block of ``data`` into ``state``."""',
        "    a0, b0, c0, d0 = state",
        f"    for {words} in _blocks(data):",
        "        a, b, c, d = a0, b0, c0, d0",
    ]
    for i in range(64):
        # Step i updates the variable that sits in position "a" after i
        # right-rotations of (a, b, c, d); renaming replaces the shuffle.
        a, b, c, d = ("abcd"[(j - i) % 4] for j in range(4))
        f = _ROUND_F[i // 16].format(b=b, c=c, d=d)
        s = _S[i]
        lines.append(f"        t = ({a} + ({f}) + {_K[i]:#010x}"
                     f" + m{_word_index(i)}) & 0xFFFFFFFF")
        lines.append(f"        {a} = {b} + ((t << {s}) | (t >> {32 - s}))")
    for v in "abcd":
        lines.append(f"        {v}0 = ({v}0 + {v}) & 0xFFFFFFFF")
    lines.append("    return a0, b0, c0, d0")
    return "\n".join(lines) + "\n"


def _build_compress():
    namespace = {"_BLOCKS": struct.Struct("<16I").iter_unpack}
    exec(compile(_compress_source(), "<md5-compress>", "exec"), namespace)
    return namespace["_compress"]


# (state, data) -> state: ``data`` is any buffer of whole 64-byte blocks,
# the states are 4-tuples of 32-bit ints.
_compress = _build_compress()

_pack_digest = struct.Struct("<4I").pack
_pack_length = struct.Struct("<Q").pack


def _padding(length: int) -> bytes:
    """RFC 1321 padding for a message of ``length`` bytes."""
    return (b"\x80" + bytes((55 - length) % 64)
            + _pack_length((length << 3) & 0xFFFFFFFFFFFFFFFF))


class MD5:
    """Incremental MD5 with the ``hashlib``-style interface."""

    digest_size = DIGEST_SIZE
    block_size = BLOCK_SIZE
    name = "md5"

    def __init__(self, data: bytes = b""):
        self._state = _INITIAL_STATE
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def copy(self) -> "MD5":
        """Clone the running state."""
        clone = MD5()
        clone._state = self._state
        clone._buffer = self._buffer
        clone._length = self._length
        return clone

    def update(self, data: bytes) -> None:
        """Absorb more message bytes.

        All whole blocks are compressed in one pass (through a
        ``memoryview``, no per-block slicing); only the tail is kept.
        """
        self._length += len(data)
        buffer = self._buffer + data
        whole = len(buffer) - len(buffer) % BLOCK_SIZE
        if whole:
            self._state = _compress(self._state, memoryview(buffer)[:whole])
            buffer = buffer[whole:]
        self._buffer = buffer

    def digest(self) -> bytes:
        """Digest of everything absorbed so far (state preserved)."""
        return _pack_digest(*_compress(
            self._state, self._buffer + _padding(self._length)))

    def hexdigest(self) -> str:
        """Hex form of :meth:`digest`."""
        return self.digest().hex()


def md5(data: bytes = b"") -> MD5:
    """Factory matching ``hashlib.md5`` call style."""
    return MD5(data)
