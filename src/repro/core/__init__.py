"""Core group key management: protocols, strategies, server, client.

This is the paper's primary contribution: join/leave protocols over key
trees under user-, key- and group-oriented rekeying (§3), the Merkle
batch-signing technique (§4), and the analytic cost model (Tables 1-3).
"""

from . import costs
from .channel import (ChannelError, ReplayWindow, SecureGroupChannel,
                      derive_keys)
from .client import ClientError, ClientStats, GroupClient
from .persistence import (PersistenceError, restore, restore_encrypted,
                          snapshot, snapshot_encrypted)
from .messages import (DEST_ALL, DEST_SUBGROUP, DEST_USER, DEST_USERS,
                       INDIVIDUAL_KEY, MSG_DATA, MSG_JOIN_ACK,
                       MSG_JOIN_DENIED, MSG_JOIN_REQUEST, MSG_LEAVE_ACK,
                       MSG_LEAVE_DENIED, MSG_LEAVE_REQUEST, MSG_REKEY,
                       STRATEGY_GROUP_ORIENTED, STRATEGY_HYBRID,
                       STRATEGY_KEY_ORIENTED, STRATEGY_STAR,
                       STRATEGY_USER_ORIENTED, AuthBlock, Destination,
                       EncryptedItem, KeyRecord, Message, OutboundMessage,
                       WireError, decrypt_records, encrypt_records)
from .server import (AccessDenied, GroupKeyServer, RekeyOutcome,
                     RequestRecord, ServerConfig, ServerError,
                     STAR_GROUP_NODE)
from .signing import (MerkleSigner, MerkleTree, NullSigner, PerMessageSigner,
                      SigningError, verify_message)
from .tickets import Ticket, TicketAuthority, TicketError
from .strategies import (STRATEGIES, GroupOrientedStrategy, HybridStrategy,
                         KeyOrientedStrategy, PlannedMessage, RekeyContext,
                         UserOrientedStrategy)

__all__ = [
    "costs",
    "SecureGroupChannel", "ChannelError", "ReplayWindow", "derive_keys",
    "snapshot", "restore", "snapshot_encrypted", "restore_encrypted",
    "PersistenceError",
    "GroupClient", "ClientError", "ClientStats",
    "GroupKeyServer", "ServerConfig", "ServerError", "AccessDenied",
    "RekeyOutcome", "RequestRecord", "STAR_GROUP_NODE",
    "Message", "OutboundMessage", "Destination", "EncryptedItem",
    "KeyRecord", "AuthBlock", "WireError",
    "decrypt_records", "encrypt_records",
    "INDIVIDUAL_KEY",
    "MSG_JOIN_REQUEST", "MSG_JOIN_ACK", "MSG_JOIN_DENIED",
    "MSG_LEAVE_REQUEST", "MSG_LEAVE_ACK", "MSG_LEAVE_DENIED",
    "MSG_REKEY", "MSG_DATA",
    "DEST_ALL", "DEST_SUBGROUP", "DEST_USER", "DEST_USERS",
    "STRATEGY_USER_ORIENTED", "STRATEGY_KEY_ORIENTED",
    "STRATEGY_GROUP_ORIENTED", "STRATEGY_STAR", "STRATEGY_HYBRID",
    "MerkleTree", "MerkleSigner", "PerMessageSigner", "NullSigner",
    "SigningError", "verify_message",
    "Ticket", "TicketAuthority", "TicketError",
    "STRATEGIES", "PlannedMessage", "RekeyContext",
    "UserOrientedStrategy", "KeyOrientedStrategy", "GroupOrientedStrategy",
    "HybridStrategy",
]
