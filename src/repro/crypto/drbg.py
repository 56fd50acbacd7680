"""Deterministic random bit generator (HMAC-DRBG, NIST SP 800-90A).

The group key server "randomly generates" new keys on every join/leave.
For reproducible experiments the server draws key material from an
HMAC-DRBG seeded from the experiment seed; two runs with the same seed
and workload produce byte-identical rekey messages, which makes the
table/figure benchmarks deterministic.

``SystemRandomSource`` wraps ``os.urandom`` for non-experiment use.
"""

from __future__ import annotations

import hashlib
import hmac as _stdlib_hmac
import os
from typing import Callable, Optional

from .sha1 import sha1
from . import hmac as _hmac


class HmacDrbg:
    """HMAC-DRBG instantiated with SHA-1 (sufficient for simulation keys).

    Follows the SP 800-90A update/generate structure (without the
    prediction-resistance machinery, which the experiments do not need).
    """

    def __init__(self, seed: bytes, personalization: bytes = b"",
                 scratch_hash: bool = False):
        if not seed:
            raise ValueError("HMAC-DRBG requires a non-empty seed")
        # The DRBG is reproducibility plumbing, not part of the paper's
        # measured crypto, so it defaults to the C-speed hashlib backend;
        # scratch_hash=True exercises this package's own SHA-1/HMAC.
        self._scratch = scratch_hash
        digest_size = sha1().digest_size if scratch_hash else 32
        self._key = b"\x00" * digest_size
        self._value = b"\x01" * digest_size
        self._update(seed + personalization)
        self._reseed_counter = 1

    def _hmac(self, key: bytes, data: bytes) -> bytes:
        if self._scratch:
            return _hmac.new(key, data, sha1).digest()
        # Not hmac.digest(): its one-shot C path drops the GIL on every
        # call, and a served core's other threads then keep it for a
        # whole switch interval (~5 ms per HMAC instead of ~2 µs).
        return _stdlib_hmac.new(key, data, hashlib.sha256).digest()

    def _update(self, provided: bytes = b"") -> None:
        self._key = self._hmac(self._key, self._value + b"\x00" + provided)
        self._value = self._hmac(self._key, self._value)
        if provided:
            self._key = self._hmac(self._key, self._value + b"\x01" + provided)
            self._value = self._hmac(self._key, self._value)

    def reseed(self, seed: bytes) -> None:
        """Mix fresh entropy into the generator state."""
        self._update(seed)
        self._reseed_counter = 1

    def generate(self, n_bytes: int) -> bytes:
        """Return ``n_bytes`` of pseudo-random output."""
        if n_bytes < 0:
            raise ValueError("cannot generate a negative number of bytes")
        output = bytearray()
        while len(output) < n_bytes:
            self._value = self._hmac(self._key, self._value)
            output.extend(self._value)
        self._update()
        self._reseed_counter += 1
        return bytes(output[:n_bytes])

    def randint_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        n_bits = bound.bit_length()
        n_bytes = (n_bits + 7) // 8
        excess_bits = 8 * n_bytes - n_bits
        while True:
            candidate = int.from_bytes(self.generate(n_bytes), "big") >> excess_bits
            if candidate < bound:
                return candidate


class SystemRandomSource:
    """``os.urandom``-backed source with the same interface as HmacDrbg."""

    def generate(self, n_bytes: int) -> bytes:
        """``n_bytes`` from os.urandom."""
        return os.urandom(n_bytes)

    def randint_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        n_bits = bound.bit_length()
        n_bytes = (n_bits + 7) // 8
        excess_bits = 8 * n_bytes - n_bits
        while True:
            candidate = int.from_bytes(self.generate(n_bytes), "big") >> excess_bits
            if candidate < bound:
                return candidate


def make_source(seed: Optional[bytes] = None,
                personalization: bytes = b""):
    """Return a deterministic DRBG when ``seed`` is given, else urandom."""
    if seed is None:
        return SystemRandomSource()
    return HmacDrbg(seed, personalization)
