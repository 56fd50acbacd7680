"""Ticket-based group authorization (paper §3, footnote 7).

"The authorization function may be offloaded to an authorization
server.  In this case, the authorization server provides an authorized
user with a ticket to join the secure group.  The user submits the
ticket together with its join request to server s."

:class:`TicketAuthority` is that authorization server: it signs tickets
binding (user, group id, expiry).  A :class:`~repro.core.server.
GroupKeyServer` configured with the authority's public key
(``ServerConfig.ticket_authority``) admits exactly the users presenting
a valid, unexpired ticket for its group — instead of (or in addition
to) a local access control list.

Ticket wire format: ``user_len(1) user group_id(4) expires_us(8)``
followed by an RSA PKCS#1 v1.5 signature over those bytes.
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass
from typing import Optional

from ..crypto import rsa

_BODY = struct.Struct(">IQ")


class TicketError(ValueError):
    """Raised for malformed, forged or expired tickets."""


@dataclass(frozen=True)
class Ticket:
    """A signed admission grant for one user into one group."""

    user_id: str
    group_id: int
    expires_us: int          # absolute microseconds since the epoch
    signature: bytes

    def body(self) -> bytes:
        """The signed byte region."""
        user = self.user_id.encode("utf-8")
        return (bytes([len(user)]) + user
                + _BODY.pack(self.group_id, self.expires_us))

    def encode(self) -> bytes:
        return self.body() + struct.pack(">H", len(self.signature)) \
            + self.signature

    @classmethod
    def decode(cls, data: bytes) -> "Ticket":
        try:
            user_len = data[0]
            user = data[1:1 + user_len].decode("utf-8")
            group_id, expires_us = _BODY.unpack_from(data, 1 + user_len)
            offset = 1 + user_len + _BODY.size
            (sig_len,) = struct.unpack_from(">H", data, offset)
            signature = data[offset + 2:offset + 2 + sig_len]
            if len(signature) != sig_len:
                raise TicketError("truncated ticket signature")
        except (IndexError, struct.error, UnicodeDecodeError) as exc:
            raise TicketError(f"malformed ticket: {exc}") from None
        return cls(user, group_id, expires_us, signature)


class TicketAuthority:
    """The authorization server: issues and verifies admission tickets."""

    DIGEST = "sha1"

    def __init__(self, keypair: Optional[rsa.RsaPrivateKey] = None,
                 seed: Optional[bytes] = None):
        if keypair is None:
            keypair = rsa.generate_keypair(
                512, seed=(seed + b"/tickets") if seed else None)
        self._keypair = keypair

    @property
    def public_key(self) -> rsa.RsaPublicKey:
        """Give this to every group key server that should honour us."""
        return self._keypair.public_key

    def issue(self, user_id: str, group_id: int,
              lifetime_seconds: float = 300.0,
              now_us: Optional[int] = None) -> Ticket:
        """Grant ``user_id`` admission to ``group_id`` for a limited time."""
        if not user_id or len(user_id.encode("utf-8")) > 255:
            raise TicketError("user id must be 1..255 UTF-8 bytes")
        if now_us is None:
            now_us = time.time_ns() // 1000
        expires_us = now_us + int(lifetime_seconds * 1_000_000)
        unsigned = Ticket(user_id, group_id, expires_us, b"")
        digest = self._digest(unsigned.body())
        signature = rsa.sign_digest(self._keypair, digest, self.DIGEST)
        return Ticket(user_id, group_id, expires_us, signature)

    @staticmethod
    def _digest(data: bytes) -> bytes:
        return hashlib.sha1(data).digest()

    @classmethod
    def verify(cls, public_key: rsa.RsaPublicKey, ticket: Ticket,
               user_id: str, group_id: int,
               now_us: Optional[int] = None) -> None:
        """Check signature, binding and expiry; raise TicketError if bad."""
        if ticket.user_id != user_id:
            raise TicketError(
                f"ticket names {ticket.user_id!r}, not {user_id!r}")
        if ticket.group_id != group_id:
            raise TicketError(
                f"ticket is for group {ticket.group_id}, not {group_id}")
        if now_us is None:
            now_us = time.time_ns() // 1000
        if now_us >= ticket.expires_us:
            raise TicketError("ticket has expired")
        digest = cls._digest(ticket.body())
        try:
            rsa.verify_digest(public_key, digest, ticket.signature,
                              cls.DIGEST)
        except rsa.SignatureError:
            raise TicketError("ticket signature does not verify") from None
