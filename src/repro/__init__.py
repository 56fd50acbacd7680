"""repro — reproduction of "Secure Group Communications Using Key Graphs".

Wong, Gouda, Lam (ACM SIGCOMM 1998): scalable group key management with
key trees (LKH), three rekeying strategies, and Merkle batch signing.

Public API tour
---------------
>>> from repro import GroupKeyServer, ServerConfig, GroupClient
>>> from repro.crypto import PAPER_SUITE
>>> server = GroupKeyServer(ServerConfig(strategy="group", degree=4,
...                                      seed=b"demo"))
>>> alice_key = server.new_individual_key()
>>> outcome = server.join("alice", alice_key)

Packages
--------
``repro.crypto``      DES/AES/HMAC/RSA from scratch; hashlib MD5/SHA-1
``repro.keygraph``    the (U, K, R) model; star/tree/complete graphs
``repro.core``        rekeying strategies, server, client, Merkle signing
``repro.transport``   in-memory bus, reliable delivery, loopback UDP
``repro.simulation``  workloads, client simulator, experiment runner
``repro.iolus``       the Iolus baseline (paper §6)
``repro.multigroup``  multiple secure groups over one user population (§7)
``repro.batch``       interval batch rekeying extension
``repro.experiments`` regenerates every table and figure
"""

from .core import (AccessDenied, GroupClient, GroupKeyServer, RekeyOutcome,
                   RequestRecord, ServerConfig, ServerError)
from .keygraph import KeyGraph, KeyTree, SecureGroup, StarGroup

__version__ = "1.0.0"

__all__ = [
    "GroupKeyServer", "ServerConfig", "ServerError", "AccessDenied",
    "GroupClient", "RekeyOutcome", "RequestRecord",
    "KeyGraph", "KeyTree", "SecureGroup", "StarGroup",
    "__version__",
]
