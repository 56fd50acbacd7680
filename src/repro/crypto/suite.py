"""Cipher suites: the (cipher, digest, signature) triples the server uses.

The paper's server "is initialized from a specification file which
determines ... the encryption algorithm, the message digest algorithm,
the digital signature algorithm".  A :class:`CipherSuite` captures that
triple.  The paper's configuration is DES-CBC + MD5 + RSA-512; a modern
AES + SHA-256 + RSA-1024 suite and digest/signature-free variants (used
by the left-hand sides of Figures 10 and 11) are also provided.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

from .aes import AES
from .des import DES, is_semi_weak_key, is_weak_key
from .des3 import TripleDES
from . import modes
from .keycache import SHARED_CACHE
from . import rsa


class XorCipher:
    """Key-stream XOR "cipher" for fast structural tests.

    NOT SECURE.  It exists so that protocol-shape tests can run orders of
    magnitude faster than with DES; every security-property test uses a
    real cipher.
    """

    block_size = 8
    key_size = 8
    name = "xor"

    def __init__(self, key: bytes):
        if len(key) != self.key_size:
            raise ValueError(f"Xor key must be {self.key_size} bytes")
        self._key = int.from_bytes(key, "big")

    def encrypt_block_int(self, value: int) -> int:
        """XOR with the key (self-inverse; NOT secure)."""
        return value ^ self._key

    decrypt_block_int = encrypt_block_int

    def encrypt_block(self, block: bytes) -> bytes:
        """XOR with the key (self-inverse; NOT secure)."""
        return (int.from_bytes(block, "big") ^ self._key).to_bytes(
            self.block_size, "big")

    decrypt_block = encrypt_block


_CIPHERS = {
    "des": (DES, 8),
    "des3": (TripleDES, 24),
    "des3-2key": (TripleDES, 16),
    "aes128": (AES, 16),
    "aes256": (AES, 32),
    "xor": (XorCipher, 8),
}

# Digest name -> (factory, size).  Each name is also the RSA DigestInfo
# algorithm name.  The digests come from the standard library, as the
# paper's came from a C library (CryptoLib): a pure-Python MD5 made a
# receiver's verify four fifths MD5.  The from-scratch formulations
# live on as oracles in ``reference.py``.
_DIGESTS = {
    "md5": (hashlib.md5, 16),
    "sha1": (hashlib.sha1, 20),
    "sha256": (hashlib.sha256, 32),
}


@dataclass(frozen=True)
class CipherSuite:
    """A (symmetric cipher, message digest, signature) configuration.

    ``digest_name`` / ``signature_bits`` of ``None`` mean the corresponding
    protection is disabled (the paper measures both configurations).
    """

    cipher_name: str
    digest_name: Optional[str] = None
    signature_bits: Optional[int] = None

    def __post_init__(self):
        if self.cipher_name not in _CIPHERS:
            raise ValueError(f"unknown cipher {self.cipher_name!r}")
        if self.digest_name is not None and self.digest_name not in _DIGESTS:
            raise ValueError(f"unknown digest {self.digest_name!r}")
        if self.signature_bits is not None:
            if self.digest_name is None:
                raise ValueError("signing requires a message digest")
            if self.signature_bits < 256:
                raise ValueError("signature modulus must be >= 256 bits")

    # -- symmetric encryption -------------------------------------------

    @property
    def key_size(self) -> int:
        """Size in bytes of the symmetric keys managed by the key graph."""
        return _CIPHERS[self.cipher_name][1]

    @property
    def block_size(self) -> int:
        """Cipher block size in bytes."""
        return _CIPHERS[self.cipher_name][0].block_size

    def safe_key(self, source) -> bytes:
        """Draw key material from ``source``, rejecting DES (semi-)weak keys.

        With a weak key, DES encryption equals decryption — unacceptable
        as group key material.  The rejection probability is ~2**-52, so
        this is insurance, not a hot path.
        """
        while True:
            key = source.generate(self.key_size)
            if self.cipher_name in ("des", "des3", "des3-2key"):
                subkeys = [key[i:i + 8] for i in range(0, len(key), 8)]
                if any(is_weak_key(sub) or is_semi_weak_key(sub)
                       for sub in subkeys):
                    continue
            return key

    def new_cipher(self, key: bytes):
        """Cipher object for ``key`` (cached — schedules are expanded once).

        Instances come from :data:`repro.crypto.keycache.SHARED_CACHE`, so
        repeated encryptions under the same key (the common case during a
        rekey) skip key-schedule expansion.  A cipher's schedules never
        change after construction, so sharing is safe; distinct key bytes
        always map to distinct cache entries.  ``XorCipher`` (test-only,
        trivial constructor) bypasses the cache.
        """
        cipher_cls, key_size = _CIPHERS[self.cipher_name]
        if len(key) != key_size:
            raise ValueError(
                f"{self.cipher_name} key must be {key_size} bytes, got {len(key)}")
        if cipher_cls is XorCipher:
            return cipher_cls(key)
        return SHARED_CACHE.get(self.cipher_name, key, cipher_cls)

    def encrypt(self, key: bytes, plaintext: bytes, iv: bytes) -> bytes:
        """CBC-encrypt ``plaintext`` under ``key`` with explicit ``iv``."""
        return modes.cbc_encrypt(self.new_cipher(key), plaintext, iv)

    def decrypt(self, key: bytes, ciphertext: bytes, iv: bytes) -> bytes:
        """CBC-decrypt; raises ``modes.PaddingError`` on garbage."""
        return modes.cbc_decrypt(self.new_cipher(key), ciphertext, iv)

    # -- digests ----------------------------------------------------------

    @property
    def digest_size(self) -> int:
        """Digest size in bytes (0 when digests are off)."""
        if self.digest_name is None:
            return 0
        return _DIGESTS[self.digest_name][1]

    @property
    def digest_factory(self) -> Optional[Callable]:
        """hashlib-style constructor for the suite digest (or None)."""
        if self.digest_name is None:
            return None
        return _DIGESTS[self.digest_name][0]

    def digest(self, data: bytes) -> bytes:
        """Message digest of ``data`` (empty bytes when digests are off)."""
        if self.digest_name is None:
            return b""
        return _DIGESTS[self.digest_name][0](data).digest()

    # -- signatures -------------------------------------------------------

    @property
    def signature_size(self) -> int:
        """Signature size in bytes (0 when signing is off)."""
        if self.signature_bits is None:
            return 0
        return (self.signature_bits + 7) // 8

    @property
    def signs(self) -> bool:
        """True iff the suite carries a signature algorithm."""
        return self.signature_bits is not None

    def generate_signing_keypair(self, seed: Optional[bytes] = None):
        """Fresh RSA keypair of the suite's modulus size."""
        if self.signature_bits is None:
            raise ValueError("suite has no signature algorithm")
        return rsa.generate_keypair(self.signature_bits, seed=seed)

    def sign(self, private_key, data: bytes) -> bytes:
        """Digest-then-sign ``data`` with RSA PKCS#1 v1.5."""
        if self.signature_bits is None:
            raise ValueError("suite has no signature algorithm")
        return rsa.sign_digest(private_key, self.digest(data),
                               self.digest_name)

    def verify(self, public_key, data: bytes, signature: bytes) -> None:
        """Verify a signature; raises :class:`rsa.SignatureError`."""
        if self.signature_bits is None:
            raise ValueError("suite has no signature algorithm")
        rsa.verify_digest(public_key, self.digest(data), signature,
                          self.digest_name)


# The configurations the paper's experiments exercise.
PAPER_SUITE = CipherSuite("des", "md5", 512)          # right-hand figures
PAPER_SUITE_NO_SIG = CipherSuite("des", "md5", None)  # digest, no signature
PAPER_SUITE_ENC_ONLY = CipherSuite("des", None, None)  # left-hand figures
MODERN_SUITE = CipherSuite("aes128", "sha256", 1024)
FAST_TEST_SUITE = CipherSuite("xor", None, None)


def suite_from_spec(cipher: str = "des", digest: Optional[str] = "md5",
                    signature: Optional[str] = "rsa-512") -> CipherSuite:
    """Build a suite from specification-file style strings.

    ``signature`` accepts ``"rsa-<bits>"`` or ``None``/``"none"``.
    """
    if digest in (None, "none"):
        digest = None
    if signature in (None, "none"):
        bits = None
    elif signature.startswith("rsa-"):
        bits = int(signature[len("rsa-"):])
    else:
        raise ValueError(f"unknown signature spec {signature!r}")
    return CipherSuite(cipher, digest, bits)
