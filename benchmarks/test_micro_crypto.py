"""Micro-benchmarks of the crypto substrate.

These calibrate the cost model behind every table.  With the suite
digests from hashlib the order is digest << encryption << signature
(DES and RSA stay pure Python).  The measured ratios are attached as
extra_info so EXPERIMENTS.md can cite them.
"""

from repro.core.messages import KeyRecord, encrypt_records
from repro.core.signing import MerkleSigner, MerkleTree
from repro.crypto import rsa
from repro.crypto.aes import AES
from repro.crypto.des import DES
from repro.crypto.suite import PAPER_SUITE, CipherSuite

SHA1_SUITE = CipherSuite("des", "sha1")


def test_des_block(benchmark):
    cipher = DES(bytes.fromhex("133457799BBCDFF1"))
    block = bytes(8)
    result = benchmark(cipher.encrypt_block, block)
    assert cipher.decrypt_block(result) == block


def test_aes_block(benchmark):
    cipher = AES(bytes(range(16)))
    block = bytes(16)
    result = benchmark(cipher.encrypt_block, block)
    assert cipher.decrypt_block(result) == block


def test_des_key_schedule(benchmark):
    benchmark(DES, bytes.fromhex("133457799BBCDFF1"))


def test_md5_rekey_message(benchmark):
    data = bytes(range(256)) * 4  # ~1 KB, a large rekey message
    digest = benchmark(PAPER_SUITE.digest, data)
    assert len(digest) == 16


def test_sha1_rekey_message(benchmark):
    data = bytes(range(256)) * 4
    digest = benchmark(SHA1_SUITE.digest, data)
    assert len(digest) == 20


def test_rsa512_sign(benchmark):
    keypair = rsa.generate_keypair(512, seed=b"bench-rsa")
    digest = bytes(16)
    signature = benchmark(rsa.sign_digest, keypair, digest, "md5")
    rsa.verify_digest(keypair.public_key, digest, signature, "md5")


def test_rsa512_verify(benchmark):
    keypair = rsa.generate_keypair(512, seed=b"bench-rsa")
    signature = rsa.sign_digest(keypair, bytes(16), "md5")
    benchmark(rsa.verify_digest, keypair.public_key, bytes(16), signature,
              "md5")


def test_rekey_item_encryption(benchmark):
    """One {K'}_{K} item: the unit the Table 2 cost model counts."""
    record = [KeyRecord(1, 1, bytes(8))]
    item = benchmark(encrypt_records, PAPER_SUITE, bytes(8), bytes(8),
                     record, 2, 0)
    assert len(item.ciphertext) == 8


def test_merkle_seal_20_messages(benchmark):
    """The §4 technique on a user-oriented-leave-sized batch."""
    keypair = PAPER_SUITE.generate_signing_keypair(seed=b"bench-merkle")
    from repro.core.messages import MSG_REKEY, EncryptedItem, Message

    def seal():
        signer = MerkleSigner(PAPER_SUITE, keypair)
        messages = [Message(msg_type=MSG_REKEY, seq=i,
                            items=[EncryptedItem(i, 0, bytes(8),
                                                 bytes(16), 16)])
                    for i in range(20)]
        signer.seal(messages)
        return messages

    messages = benchmark(seal)
    assert messages[0].auth.signature


def test_merkle_tree_path_verification(benchmark):
    digest_fn = PAPER_SUITE.digest
    leaves = [digest_fn(bytes([i])) for i in range(20)]
    tree = MerkleTree(leaves, digest_fn)
    path = tree.path(13)
    assert benchmark(MerkleTree.verify_path, leaves[13], 13, path,
                     tree.root, digest_fn)
