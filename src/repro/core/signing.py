"""Signing rekey messages (paper §4).

A digital signature is ~two orders of magnitude slower than a DES
encryption, so signing each of the many per-join/leave rekey messages
individually dominates server time for user- and key-oriented rekeying.
The paper's remedy (after Merkle's certified digital signature) signs
*one* value — the root of a hash tree over the message digests — and
attaches to each message a certificate: the signature plus the sibling
digests needed to recompute the root.

Three signer policies implement the paper's measured configurations:

* :class:`NullSigner` — no signature (digest only, or nothing);
* :class:`PerMessageSigner` — one RSA signature per rekey message
  (Table 4, left half);
* :class:`MerkleSigner` — one RSA signature per join/leave for the
  whole batch of rekey messages (Table 4, right half).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..crypto import rsa
from .messages import (SIG_MERKLE, SIG_NONE, SIG_PER_MESSAGE, AuthBlock,
                       Message)


class MerkleTree:
    """Binary hash tree over a list of leaf digests.

    Interior node = H(left || right); an odd node is promoted unchanged
    (no duplication), so the tree over one digest is that digest itself.
    """

    def __init__(self, leaves: Sequence[bytes], digest_fn: Callable[[bytes], bytes]):
        if not leaves:
            raise ValueError("Merkle tree needs at least one leaf")
        self._digest = digest_fn
        self.levels: List[List[bytes]] = [list(leaves)]
        while len(self.levels[-1]) > 1:
            current = self.levels[-1]
            parents = []
            for i in range(0, len(current) - 1, 2):
                parents.append(digest_fn(current[i] + current[i + 1]))
            if len(current) % 2:
                parents.append(current[-1])
            self.levels.append(parents)

    @property
    def root(self) -> bytes:
        """The tree's root digest (the value that gets signed)."""
        return self.levels[-1][0]

    def path(self, index: int) -> List[bytes]:
        """Sibling digests from leaf ``index`` up to (not incl.) the root.

        An empty sibling marks levels where the node was promoted without
        a partner; verification skips those.
        """
        if not 0 <= index < len(self.levels[0]):
            raise IndexError("leaf index out of range")
        siblings = []
        position = index
        for level in self.levels[:-1]:
            partner = position ^ 1
            if partner < len(level):
                siblings.append(level[partner])
            else:
                siblings.append(b"")
            position //= 2
        return siblings

    @staticmethod
    def verify_path(leaf: bytes, index: int, siblings: Sequence[bytes],
                    root: bytes, digest_fn: Callable[[bytes], bytes]) -> bool:
        """Recompute the root from a leaf and its authentication path."""
        value = leaf
        position = index
        for sibling in siblings:
            if sibling:
                if position % 2:
                    value = digest_fn(sibling + value)
                else:
                    value = digest_fn(value + sibling)
            position //= 2
        return value == root


class SigningError(ValueError):
    """Raised when a message fails digest or signature verification."""


class NullSigner:
    """Attach a digest (if the suite has one) but no signature."""

    name = "none"

    def __init__(self, suite):
        self.suite = suite
        self.signatures_performed = 0

    def seal(self, messages: Sequence[Message]) -> None:
        """Fill each message's auth block in place."""
        for message in messages:
            digest = self.suite.digest(message.signed_region())
            message.auth = AuthBlock(digest=digest, scheme=SIG_NONE)


class PerMessageSigner:
    """One RSA signature per rekey message (the naive baseline)."""

    name = "per-message"

    def __init__(self, suite, private_key: rsa.RsaPrivateKey):
        if not suite.signs:
            raise ValueError("suite has no signature algorithm")
        self.suite = suite
        self.private_key = private_key
        self.signatures_performed = 0

    def seal(self, messages: Sequence[Message]) -> None:
        """Sign every message individually (the naive baseline)."""
        for message in messages:
            region = message.signed_region()
            digest = self.suite.digest(region)
            signature = self.suite.sign(self.private_key, region)
            self.signatures_performed += 1
            message.auth = AuthBlock(digest=digest, scheme=SIG_PER_MESSAGE,
                                     signature=signature)


class MerkleSigner:
    """One RSA signature for the whole batch of rekey messages (§4)."""

    name = "merkle"

    def __init__(self, suite, private_key: rsa.RsaPrivateKey):
        if not suite.signs:
            raise ValueError("suite has no signature algorithm")
        self.suite = suite
        self.private_key = private_key
        self.signatures_performed = 0

    def seal(self, messages: Sequence[Message]) -> None:
        """One signature over the batch's Merkle root; per-message certificates."""
        if not messages:
            return
        digests = [self.suite.digest(message.signed_region())
                   for message in messages]
        tree = MerkleTree(digests, self.suite.digest)
        signature = rsa.sign_digest(
            self.private_key, tree.root, self.suite.digest_name)
        self.signatures_performed += 1
        for index, message in enumerate(messages):
            message.auth = AuthBlock(scheme=SIG_MERKLE, signature=signature,
                                     merkle_index=index,
                                     merkle_path=tree.path(index),
                                     merkle_leaves=len(messages))


def verify_message(suite, message: Message,
                   public_key: Optional[rsa.RsaPublicKey]) -> None:
    """Client-side check of a received message's auth block.

    Raises :class:`SigningError` if the digest mismatches, a signature is
    present but invalid, or a signature was expected (``public_key``
    given and suite signs) but absent.  A Merkle certificate carries no
    digest: the path starts from the digest recomputed here.
    """
    auth = message.auth
    if auth is None:
        if suite.digest_name is not None:
            raise SigningError("missing auth block")
        return
    if suite.digest_name is not None and auth.scheme != SIG_MERKLE:
        digest = suite.digest(message.signed_region())
        if digest != auth.digest:
            raise SigningError("message digest mismatch")
    expects_signature = public_key is not None and suite.signs
    if auth.scheme == SIG_NONE:
        if expects_signature:
            raise SigningError("expected a signature but message has none")
        return
    if public_key is None:
        raise SigningError("signed message but no server public key")
    if auth.scheme == SIG_PER_MESSAGE:
        try:
            suite.verify(public_key, message.signed_region(), auth.signature)
        except rsa.SignatureError as exc:
            raise SigningError(str(exc)) from None
    elif auth.scheme == SIG_MERKLE:
        # Recompute the root from this message's digest and the attached
        # sibling path, then check the signature over the root.
        if suite.digest_name is None:
            raise SigningError("Merkle certificate but the suite has no "
                               "digest")
        value = suite.digest(message.signed_region())
        position = auth.merkle_index
        for sibling in auth.merkle_path:
            if sibling:
                if position % 2:
                    value = suite.digest(sibling + value)
                else:
                    value = suite.digest(value + sibling)
            position //= 2
        try:
            rsa.verify_digest(public_key, value, auth.signature,
                              suite.digest_name)
        except rsa.SignatureError as exc:
            raise SigningError(str(exc)) from None
    else:
        raise SigningError(f"unknown signature scheme {auth.scheme}")
