"""Cryptographic substrate for the key-graph reproduction.

The ciphers and RSA are implemented from scratch (the standard
library has none of them): DES and AES block ciphers, CBC/ECB modes
with PKCS#7 padding, HMAC, HMAC-DRBG, RSA key generation and PKCS#1
v1.5 signatures, and the :class:`~repro.crypto.suite.CipherSuite`
abstraction the group key server is configured with.  The digests
(MD5, SHA-1, SHA-256) come from :mod:`hashlib`, as the paper's came
from a C library; :mod:`repro.crypto.reference` keeps from-scratch
MD5 and SHA-1 as their oracles.
"""

from .aes import AES
from .des import (DES, SEMI_WEAK_KEYS, WEAK_KEYS, is_semi_weak_key,
                  is_weak_key)
from .des3 import TripleDES
from .drbg import HmacDrbg, SystemRandomSource, make_source
from .modes import (PaddingError, cbc_decrypt, cbc_decrypt_nopad,
                    cbc_encrypt, cbc_encrypt_nopad, ctr_transform,
                    ecb_decrypt, ecb_encrypt, pad, unpad)
from .rsa import (RsaPrivateKey, RsaPublicKey, SignatureError,
                  generate_keypair, sign_digest, verify_digest)
from .suite import (FAST_TEST_SUITE, MODERN_SUITE, PAPER_SUITE,
                    PAPER_SUITE_ENC_ONLY, PAPER_SUITE_NO_SIG, CipherSuite,
                    XorCipher, suite_from_spec)

__all__ = [
    "AES", "DES", "TripleDES", "WEAK_KEYS", "SEMI_WEAK_KEYS",
    "is_weak_key", "is_semi_weak_key", "HmacDrbg", "SystemRandomSource", "make_source",
    "PaddingError",
    "cbc_decrypt", "cbc_encrypt", "cbc_decrypt_nopad", "cbc_encrypt_nopad",
    "ctr_transform", "ecb_decrypt", "ecb_encrypt",
    "pad", "unpad",
    "RsaPrivateKey", "RsaPublicKey", "SignatureError",
    "generate_keypair", "sign_digest", "verify_digest",
    "CipherSuite", "XorCipher", "suite_from_spec",
    "PAPER_SUITE", "PAPER_SUITE_NO_SIG", "PAPER_SUITE_ENC_ONLY",
    "MODERN_SUITE", "FAST_TEST_SUITE",
]
