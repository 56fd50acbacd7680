"""Server state snapshot / restore (paper §6, "Trust" and "Reliability").

The paper's architecture has a single trusted key server and notes that
"the key server may be replicated for reliability/performance
enhancement".  Replication needs the server's state to be serializable:
the key graph with all key material, the signing keypair, the sequence
counter, and pending registered individual keys.

``snapshot`` produces a self-contained JSON document; ``restore`` builds
a warm standby that continues exactly where the primary stopped (same
keys, same node ids, same sequence numbers), so clients never notice the
failover.  The snapshot contains every group secret — a real deployment
encrypts it at rest; :func:`snapshot_encrypted` does so under a
storage key using the suite's own cipher.
"""

from __future__ import annotations

import json
from typing import Optional

from ..crypto import modes
from ..crypto.rsa import RsaPrivateKey
from ..crypto.suite import CipherSuite
from ..keygraph.flat import FlatKeyTree
from ..keygraph.journal import CHECKPOINT, ReplayKeySource, TreeJournal
from .server import GroupKeyServer, ServerConfig

FORMAT_VERSION = 1


class PersistenceError(ValueError):
    """Raised on malformed or incompatible snapshots."""


def _tree_to_dict(tree) -> dict:
    nodes = []
    for node in tree.nodes():
        nodes.append({
            "id": node.node_id,
            "version": node.version,
            "key": node.key.hex(),
            "user": node.user_id,
            "children": [child.node_id for child in node.children],
        })
    return {"degree": tree.degree, "next_id": tree._next_id,
            "root": tree.root.node_id if tree.root else None,
            "nodes": nodes}


def _tree_from_dict(data: dict, keygen) -> FlatKeyTree:
    """Rebuild the key tree from snapshot entries."""
    tree = FlatKeyTree(data["degree"], keygen)
    tree.load_nodes(data["nodes"], data["root"], data["next_id"])
    return tree


def snapshot(server: GroupKeyServer, reseed: bytes = b"failover") -> bytes:
    """Serialize the full server state.

    ``reseed`` is mixed into the standby's DRBG so primary and standby
    diverge in *future* key material (running both from an identical
    stream would be a key-reuse hazard if they ever both serve).
    """
    config = server.config
    doc = {
        "format": FORMAT_VERSION,
        "config": {
            "group_id": config.group_id,
            "graph": config.graph,
            "degree": config.degree,
            "strategy": config.strategy,
            "cipher": config.suite.cipher_name,
            "digest": config.suite.digest_name,
            "signature_bits": config.suite.signature_bits,
            "signing": config.signing,
            "access_list": (sorted(config.access_list)
                            if config.access_list is not None else None),
        },
        "seq": server._seq,
        "reseed": reseed.hex(),
        "registered_keys": {user: key.hex() for user, key
                            in server._registered_keys.items()},
    }
    if server.signing_keypair is not None:
        keypair = server.signing_keypair
        doc["signing_keypair"] = {"n": keypair.n, "e": keypair.e,
                                  "d": keypair.d, "p": keypair.p,
                                  "q": keypair.q}
    if server.tree is not None:
        doc["tree"] = _tree_to_dict(server.tree)
    else:
        doc["star"] = {
            "members": {user: key.hex()
                        for user, key in server.star._members.items()},
            "group_key": server.star.group_key.hex(),
            "version": server.star.group_key_version,
        }
    return json.dumps(doc).encode("utf-8")


def restore(blob: bytes, seed: Optional[bytes] = None) -> GroupKeyServer:
    """Build a standby server from a snapshot."""
    try:
        doc = json.loads(blob.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise PersistenceError(f"malformed snapshot: {exc}") from None
    if doc.get("format") != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported snapshot format {doc.get('format')!r}")
    cfg = doc["config"]
    suite = CipherSuite(cfg["cipher"], cfg["digest"], cfg["signature_bits"])
    # Older snapshots also name a tree backend; it is ignored, since
    # every server restores onto FlatKeyTree.
    config = ServerConfig(
        group_id=cfg["group_id"], graph=cfg["graph"], degree=cfg["degree"],
        strategy=cfg["strategy"], suite=suite, signing=cfg["signing"],
        seed=(seed if seed is not None
              else bytes.fromhex(doc["reseed"])),
        access_list=(set(cfg["access_list"])
                     if cfg["access_list"] is not None else None),
    )
    server = GroupKeyServer(config)
    server._seq = doc["seq"]
    server._registered_keys = {user: bytes.fromhex(key) for user, key
                               in doc["registered_keys"].items()}
    if "signing_keypair" in doc:
        kp = doc["signing_keypair"]
        server.signing_keypair = RsaPrivateKey(
            n=kp["n"], e=kp["e"], d=kp["d"], p=kp["p"], q=kp["q"])
        # Re-point the signer at the restored keypair.
        server._signer.private_key = server.signing_keypair
    if "tree" in doc:
        server.tree = _tree_from_dict(doc["tree"], server._new_key)
    else:
        star = doc["star"]
        server.star._members = {user: bytes.fromhex(key)
                                for user, key in star["members"].items()}
        server.star.group_key = bytes.fromhex(star["group_key"])
        server.star.group_key_version = star["version"]
    return server


def snapshot_encrypted(server: GroupKeyServer, storage_key: bytes,
                       iv: bytes) -> bytes:
    """Snapshot encrypted at rest under ``storage_key`` (suite cipher)."""
    cipher = server.suite.new_cipher(storage_key)
    return modes.cbc_encrypt(cipher, snapshot(server), iv)


def restore_encrypted(blob: bytes, storage_key: bytes, iv: bytes,
                      suite: CipherSuite,
                      seed: Optional[bytes] = None) -> GroupKeyServer:
    """Decrypt and restore an at-rest snapshot."""
    cipher = suite.new_cipher(storage_key)
    try:
        plaintext = modes.cbc_decrypt(cipher, blob, iv)
    except (modes.PaddingError, ValueError) as exc:
        raise PersistenceError(f"cannot decrypt snapshot: {exc}") from None
    return restore(plaintext, seed=seed)


# -- journaling (restart by replay) ----------------------------------------

def attach_journal(server: GroupKeyServer, path: str) -> TreeJournal:
    """Journal every state-changing op of ``server`` to ``path``.

    Writes an initial checkpoint snapshot, then the server appends one
    op record per join/leave/refresh/flush/register (plus
    sequence-counter markers) until the journal is detached.  Restart with
    :func:`restore_from_journal`.
    """
    if server.tree is None:
        raise PersistenceError("journaling requires a tree-based server")
    journal = TreeJournal(path)
    server.attach_journal(journal)
    return journal


def restore_from_journal(path: str,
                         seed: Optional[bytes] = None,
                         strict: bool = False) -> GroupKeyServer:
    """Rebuild a server byte-identically by replaying its journal.

    Restores the last checkpoint, then re-applies each op record with
    :func:`apply_record` — recorded key material, no DRBG draws, no
    strategy planning, no encryption — so a restart at n = 1M costs one
    snapshot load plus O(ops · log n) array edits instead of re-running
    the rekey pipeline over the whole history.

    ``strict`` distinguishes damage classes: a torn tail (crash
    mid-append) is always dropped and replay proceeds, but a
    CRC-corrupt complete record raises
    :class:`~repro.keygraph.journal.JournalError` instead of silently
    truncating history — the supervisor refuses to restart from a
    journal that failed its integrity check.
    """
    blob, ops = TreeJournal(path).load(strict=strict)
    if blob is None:
        raise PersistenceError(f"{path}: no checkpoint record to restore")
    server = restore(blob, seed=seed)
    for record in ops:
        apply_record(server, record)
    return server


def apply_record(server: Optional[GroupKeyServer],
                 record: dict) -> GroupKeyServer:
    """Apply one decoded journal record; returns the server to continue.

    The single replay step shared by :func:`restore_from_journal` and
    the warm standby's follower.  A checkpoint record rebuilds the
    server from its snapshot (:func:`restore`, so future draws come
    from the snapshot's reseed); an op record is a pure tree edit that
    installs the *recorded* keys through a
    :class:`~repro.keygraph.journal.ReplayKeySource`, so no DRBG draw
    happens and no rekey message is produced.  The sequence counter
    takes the record's final value.
    """
    op = record.get("op")
    if op == CHECKPOINT:
        return restore(bytes.fromhex(record["blob"]))
    if server is None:
        raise PersistenceError("no checkpoint record to restore")
    if op == "register":
        server._registered_keys[record["user_id"]] = \
            bytes.fromhex(record["individual_key"])
    elif op != "seq":
        _apply_tree_edit(server, op, record)
    if "seq" in record:
        server._seq = record["seq"]
    return server


def _apply_tree_edit(server: GroupKeyServer, op: str, record: dict) -> None:
    tree = server.tree
    if tree is None:
        raise PersistenceError("journal replay requires a tree server")
    source = ReplayKeySource(
        [bytes.fromhex(k) for k in record.get("keys", [])])
    original_keygen = tree._keygen
    tree._keygen = source
    try:
        if op == "join":
            # The original join may have consumed a registered key.
            server._registered_keys.pop(record["user_id"], None)
            tree.join(record["user_id"],
                      bytes.fromhex(record["individual_key"]))
        elif op == "leave":
            tree.leave(record["user_id"])
        elif op == "refresh":
            if tree.root is None:
                raise PersistenceError("refresh record on an empty tree")
            tree.root.replace_key(source())
        elif op == "flush":
            from ..batch.planner import apply_window
            for user_id in record["joins"]:
                server._registered_keys.pop(user_id, None)
            joins = zip(record["joins"],
                        map(bytes.fromhex, record["individual_keys"]))
            apply_window(tree, list(joins), record["leaves"], source)
        else:
            raise PersistenceError(f"unknown journal op {op!r}")
    finally:
        tree._keygen = original_keygen
    if not source.exhausted:
        raise PersistenceError(f"op {op!r} drew fewer keys than recorded")
