"""Merkle trees and the rekey-message signing policies (paper §4)."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import (MSG_REKEY, SIG_MERKLE, SIG_NONE,
                                 SIG_PER_MESSAGE, EncryptedItem, Message)
from repro.core.signing import (MerkleSigner, MerkleTree, NullSigner,
                                PerMessageSigner, SigningError,
                                verify_message)
from repro.crypto.suite import PAPER_SUITE, PAPER_SUITE_NO_SIG


def digest_fn(data: bytes) -> bytes:
    return hashlib.md5(data).digest()


@pytest.fixture(scope="module")
def keypair():
    return PAPER_SUITE.generate_signing_keypair(seed=b"signing-tests")


def make_messages(count):
    return [Message(msg_type=MSG_REKEY, seq=i,
                    items=[EncryptedItem(i, 0, bytes(8), bytes(16), 16)])
            for i in range(count)]


# -- Merkle tree ------------------------------------------------------------------


def test_merkle_single_leaf():
    tree = MerkleTree([b"only"], digest_fn)
    assert tree.root == b"only"
    assert tree.path(0) == []
    assert MerkleTree.verify_path(b"only", 0, [], b"only", digest_fn)


def test_merkle_paper_example_four_leaves():
    """§4's worked example: d1..d4, pairwise digests, one signature."""
    leaves = [digest_fn(f"M{i}".encode()) for i in range(1, 5)]
    tree = MerkleTree(leaves, digest_fn)
    d12 = digest_fn(leaves[0] + leaves[1])
    d34 = digest_fn(leaves[2] + leaves[3])
    assert tree.root == digest_fn(d12 + d34)
    # The certificate for M4 contains d3 and d12 (§4's D_34 and D_1-4).
    assert tree.path(3) == [leaves[2], d12]


@given(count=st.integers(min_value=1, max_value=33))
@settings(max_examples=30, deadline=None)
def test_merkle_every_path_verifies(count):
    leaves = [digest_fn(bytes([i]) * 4) for i in range(count)]
    tree = MerkleTree(leaves, digest_fn)
    for index, leaf in enumerate(leaves):
        assert MerkleTree.verify_path(leaf, index, tree.path(index),
                                      tree.root, digest_fn)


@given(count=st.integers(min_value=2, max_value=17))
@settings(max_examples=20, deadline=None)
def test_merkle_rejects_wrong_leaf(count):
    leaves = [digest_fn(bytes([i]) * 4) for i in range(count)]
    tree = MerkleTree(leaves, digest_fn)
    assert not MerkleTree.verify_path(b"\x00" * 16, 0, tree.path(0),
                                      tree.root, digest_fn)


def test_merkle_rejects_swapped_path_order():
    leaves = [digest_fn(bytes([i])) for i in range(8)]
    tree = MerkleTree(leaves, digest_fn)
    path = tree.path(2)
    tampered = [path[1], path[0], path[2]]
    assert not MerkleTree.verify_path(leaves[2], 2, tampered, tree.root,
                                      digest_fn)


def test_merkle_empty_rejected():
    with pytest.raises(ValueError):
        MerkleTree([], digest_fn)


# -- signers -----------------------------------------------------------------------


def test_null_signer_attaches_digest_only():
    signer = NullSigner(PAPER_SUITE_NO_SIG)
    messages = make_messages(3)
    signer.seal(messages)
    for message in messages:
        assert message.auth.scheme == SIG_NONE
        assert message.auth.digest == PAPER_SUITE_NO_SIG.digest(
            message.signed_region())
        verify_message(PAPER_SUITE_NO_SIG, message, None)
    assert signer.signatures_performed == 0


def test_per_message_signer(keypair):
    signer = PerMessageSigner(PAPER_SUITE, keypair)
    messages = make_messages(4)
    signer.seal(messages)
    assert signer.signatures_performed == 4
    for message in messages:
        assert message.auth.scheme == SIG_PER_MESSAGE
        verify_message(PAPER_SUITE, message, keypair.public_key)


def test_merkle_signer_one_signature(keypair):
    signer = MerkleSigner(PAPER_SUITE, keypair)
    messages = make_messages(7)
    signer.seal(messages)
    assert signer.signatures_performed == 1
    signatures = {bytes(m.auth.signature) for m in messages}
    assert len(signatures) == 1  # shared signature over the Merkle root
    for message in messages:
        assert message.auth.scheme == SIG_MERKLE
        verify_message(PAPER_SUITE, message, keypair.public_key)


def test_merkle_signer_messages_survive_wire(keypair):
    signer = MerkleSigner(PAPER_SUITE, keypair)
    messages = make_messages(5)
    signer.seal(messages)
    for message in messages:
        decoded = Message.decode(message.encode())
        verify_message(PAPER_SUITE, decoded, keypair.public_key)


def test_merkle_signer_empty_batch(keypair):
    MerkleSigner(PAPER_SUITE, keypair).seal([])  # no-op, no crash


def test_signers_require_signing_suite(keypair):
    with pytest.raises(ValueError):
        PerMessageSigner(PAPER_SUITE_NO_SIG, keypair)
    with pytest.raises(ValueError):
        MerkleSigner(PAPER_SUITE_NO_SIG, keypair)


# -- verification failures ------------------------------------------------------------


def tampered_copy(message, mutate):
    encoded = bytearray(message.encode())
    mutate(encoded)
    return Message.decode(bytes(encoded))


def test_verify_detects_payload_tamper(keypair):
    signer = MerkleSigner(PAPER_SUITE, keypair)
    messages = make_messages(3)
    signer.seal(messages)
    # Flip a byte inside the first item's ciphertext.
    bad = tampered_copy(messages[0],
                        lambda buf: buf.__setitem__(60, buf[60] ^ 1))
    with pytest.raises(SigningError):
        verify_message(PAPER_SUITE, bad, keypair.public_key)


def test_verify_detects_digest_tamper(keypair):
    signer = PerMessageSigner(PAPER_SUITE, keypair)
    messages = make_messages(1)
    signer.seal(messages)
    messages[0].auth.digest = b"\x00" * 16
    with pytest.raises(SigningError):
        verify_message(PAPER_SUITE, messages[0], keypair.public_key)


def test_verify_detects_merkle_path_tamper(keypair):
    signer = MerkleSigner(PAPER_SUITE, keypair)
    messages = make_messages(4)
    signer.seal(messages)
    auth = messages[1].auth
    auth.merkle_path[0] = b"\x00" * 16
    with pytest.raises(SigningError):
        verify_message(PAPER_SUITE, messages[1], keypair.public_key)


def test_verify_detects_cross_message_signature_swap(keypair):
    """A signature from one request must not validate another request's
    messages (different Merkle roots)."""
    signer = MerkleSigner(PAPER_SUITE, keypair)
    batch_a = make_messages(2)
    batch_b = [Message(msg_type=MSG_REKEY, seq=99,
                       items=[EncryptedItem(9, 9, bytes(8), bytes(16), 16)])]
    signer.seal(batch_a)
    signer.seal(batch_b)
    batch_b[0].auth.signature = batch_a[0].auth.signature
    with pytest.raises(SigningError):
        verify_message(PAPER_SUITE, batch_b[0], keypair.public_key)


def test_verify_requires_signature_when_expected(keypair):
    messages = make_messages(1)
    NullSigner(PAPER_SUITE).seal(messages)
    with pytest.raises(SigningError):
        verify_message(PAPER_SUITE, messages[0], keypair.public_key)


def test_verify_missing_auth_block():
    message = make_messages(1)[0]
    with pytest.raises(SigningError):
        verify_message(PAPER_SUITE, message, None)


def test_verify_unknown_scheme(keypair):
    messages = make_messages(1)
    NullSigner(PAPER_SUITE).seal(messages)
    messages[0].auth.scheme = 77
    with pytest.raises(SigningError):
        verify_message(PAPER_SUITE, messages[0], keypair.public_key)


def test_verify_no_digest_suite_accepts_bare_message():
    from repro.crypto.suite import PAPER_SUITE_ENC_ONLY
    message = make_messages(1)[0]
    verify_message(PAPER_SUITE_ENC_ONLY, message, None)  # nothing to check
