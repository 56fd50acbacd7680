"""Block cipher modes of operation and padding.

The paper encrypts rekey payloads with DES-CBC.  This module provides
PKCS#7 padding, ECB (for tests/known-answer work) and CBC with an
explicit IV.

Cipher contract: a block cipher object exposes ``block_size``, the
byte API ``encrypt_block`` / ``decrypt_block`` (ECB), and the int block
API ``encrypt_block_int`` / ``decrypt_block_int`` over big-endian block
integers, which every cipher in :mod:`repro.crypto` provides.  The
CBC/CTR loops chain whole messages as integers — one ``int.from_bytes``
per input block, an integer XOR for the chaining step, one ``to_bytes``
per output block.  :mod:`tests.crypto.test_fastpath` pins them against
the byte-wise chaining of :mod:`repro.crypto.reference`.
"""

from __future__ import annotations


class PaddingError(ValueError):
    """Raised when ciphertext unpads to an invalid PKCS#7 padding."""


def pad(data: bytes, block_size: int) -> bytes:
    """Apply PKCS#7 padding up to a multiple of ``block_size``."""
    if not 1 <= block_size <= 255:
        raise ValueError("block size must be in [1, 255]")
    pad_len = block_size - (len(data) % block_size)
    return data + bytes([pad_len]) * pad_len

def unpad(data: bytes, block_size: int) -> bytes:
    """Strip and validate PKCS#7 padding."""
    if not data or len(data) % block_size:
        raise PaddingError("padded data length is not a block multiple")
    pad_len = data[-1]
    if not 1 <= pad_len <= block_size:
        raise PaddingError("invalid padding length byte")
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise PaddingError("padding bytes are inconsistent")
    return data[:-pad_len]


def ecb_encrypt(cipher, plaintext: bytes) -> bytes:
    """ECB encryption of PKCS#7 padded ``plaintext``."""
    block = cipher.block_size
    padded = pad(plaintext, block)
    return b"".join(cipher.encrypt_block(padded[i:i + block])
                    for i in range(0, len(padded), block))


def ecb_decrypt(cipher, ciphertext: bytes) -> bytes:
    """ECB decryption; raises :class:`PaddingError` on bad padding."""
    block = cipher.block_size
    if len(ciphertext) % block:
        raise ValueError("ciphertext length is not a block multiple")
    padded = b"".join(cipher.decrypt_block(ciphertext[i:i + block])
                      for i in range(0, len(ciphertext), block))
    return unpad(padded, block)


def _cbc_encrypt_aligned(cipher, padded: bytes, iv: bytes) -> bytes:
    """CBC-encrypt block-aligned data (shared by both CBC entry points)."""
    block = cipher.block_size
    encrypt_int = cipher.encrypt_block_int
    from_bytes = int.from_bytes
    view = memoryview(padded)
    previous = from_bytes(iv, "big")
    out = []
    for i in range(0, len(padded), block):
        previous = encrypt_int(from_bytes(view[i:i + block], "big")
                               ^ previous)
        out.append(previous.to_bytes(block, "big"))
    return b"".join(out)


def _cbc_decrypt_aligned(cipher, ciphertext: bytes, iv: bytes) -> bytes:
    """CBC-decrypt block-aligned data, padding left in place."""
    block = cipher.block_size
    decrypt_int = cipher.decrypt_block_int
    from_bytes = int.from_bytes
    view = memoryview(ciphertext)
    previous = from_bytes(iv, "big")
    out = []
    for i in range(0, len(ciphertext), block):
        chunk = from_bytes(view[i:i + block], "big")
        out.append((decrypt_int(chunk) ^ previous).to_bytes(block, "big"))
        previous = chunk
    return b"".join(out)


def cbc_encrypt(cipher, plaintext: bytes, iv: bytes) -> bytes:
    """CBC encryption of PKCS#7 padded ``plaintext`` under ``iv``.

    The IV is *not* prepended to the ciphertext; callers that need to
    transmit it (the rekey message format does) carry it explicitly.
    """
    block = cipher.block_size
    if len(iv) != block:
        raise ValueError(f"IV must be {block} bytes")
    return _cbc_encrypt_aligned(cipher, pad(plaintext, block), iv)


def cbc_encrypt_nopad(cipher, plaintext: bytes, iv: bytes) -> bytes:
    """CBC encryption of already block-aligned ``plaintext`` (no padding).

    Used by the rekey message format, which carries an explicit plaintext
    length and zero-pads, keeping single-key items to two cipher blocks.
    """
    block = cipher.block_size
    if len(iv) != block:
        raise ValueError(f"IV must be {block} bytes")
    if len(plaintext) % block:
        raise ValueError("plaintext length is not a block multiple")
    return _cbc_encrypt_aligned(cipher, plaintext, iv)


def cbc_decrypt_nopad(cipher, ciphertext: bytes, iv: bytes) -> bytes:
    """CBC decryption without padding removal (see cbc_encrypt_nopad)."""
    block = cipher.block_size
    if len(iv) != block:
        raise ValueError(f"IV must be {block} bytes")
    if len(ciphertext) % block:
        raise ValueError("ciphertext length is not a block multiple")
    return _cbc_decrypt_aligned(cipher, ciphertext, iv)


def ctr_transform(cipher, data: bytes, nonce: bytes) -> bytes:
    """CTR mode: encrypt or decrypt (self-inverse), any length.

    The counter block is ``nonce`` (block_size - 4 bytes) followed by a
    32-bit big-endian block counter.  Used by the streaming-data
    examples; key distribution itself stays on CBC like the paper.
    """
    block = cipher.block_size
    if len(nonce) != block - 4:
        raise ValueError(f"nonce must be {block - 4} bytes")
    n_blocks = -(-len(data) // block) if data else 0
    encrypt_int = cipher.encrypt_block_int
    from_bytes = int.from_bytes
    view = memoryview(data)
    nonce_high = from_bytes(nonce, "big") << 32
    out = []
    for counter in range(n_blocks):
        chunk = bytes(view[counter * block:(counter + 1) * block])
        keystream = encrypt_int(nonce_high | counter)
        if len(chunk) == block:
            out.append((from_bytes(chunk, "big") ^ keystream)
                       .to_bytes(block, "big"))
        else:
            partial = keystream >> (8 * (block - len(chunk)))
            out.append((from_bytes(chunk, "big") ^ partial)
                       .to_bytes(len(chunk), "big"))
    return b"".join(out)


def cbc_decrypt(cipher, ciphertext: bytes, iv: bytes) -> bytes:
    """CBC decryption; raises :class:`PaddingError` on bad padding."""
    block = cipher.block_size
    if len(iv) != block:
        raise ValueError(f"IV must be {block} bytes")
    if len(ciphertext) % block:
        raise ValueError("ciphertext length is not a block multiple")
    return unpad(_cbc_decrypt_aligned(cipher, ciphertext, iv), block)
