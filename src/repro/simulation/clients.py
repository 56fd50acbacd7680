"""Client simulator: hosts many GroupClient state machines (paper §5).

The paper ran up to 8192 simulated clients in one process on the second
SGI machine; this class is that process.  Each member is a real
:class:`~repro.core.client.GroupClient` that decrypts and verifies every
message addressed to it, so client-side statistics (Table 6, Figure 12)
come from actual protocol processing, not estimates.

Members of the initial (bootstrapped) group are primed with their key
path directly — the equivalent of having processed the initial n joins —
via :meth:`prime_member`.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Callable, Dict, Iterable, List, Optional

from ..core.client import ClientStats, GroupClient
from ..core.messages import KeyRecord
from ..core.server import GroupKeyServer


class SimulatorError(RuntimeError):
    """Raised when the simulated client population diverges."""


class ClientSimulator:
    """A population of group clients with delivery plumbing."""

    def __init__(self, suite, server_public_key=None, verify: bool = True):
        self.suite = suite
        self.server_public_key = server_public_key
        self.verify = verify
        self.clients: Dict[str, GroupClient] = {}
        # Stats of clients that already left (so totals stay complete).
        self._departed_stats: List[ClientStats] = []

    def __len__(self) -> int:
        return len(self.clients)

    # -- membership ---------------------------------------------------------

    def add_member(self, user_id: str, individual_key: bytes) -> GroupClient:
        """Create and register a client with its individual key."""
        if user_id in self.clients:
            raise SimulatorError(f"duplicate client {user_id!r}")
        client = GroupClient(user_id, self.suite, self.server_public_key,
                             verify=self.verify)
        client.set_individual_key(individual_key)
        self.clients[user_id] = client
        return client

    def prime_member(self, user_id: str, leaf_node_id: int,
                     path_records: Iterable[KeyRecord],
                     root_ref) -> None:
        """Install a bootstrapped member's key path directly."""
        client = self.clients[user_id]
        client.set_leaf(leaf_node_id)
        for record in path_records:
            client.keys[record.node_id] = (record.version, record.key)
        client.root_ref = root_ref

    def prime_from_server(self, server: GroupKeyServer) -> None:
        """Prime every current client from the server's key tree."""
        if server.tree is None:
            ref = server.group_key_ref()
            for user_id, client in self.clients.items():
                client.keys[ref[0]] = (ref[1], server.star.group_key)
                client.root_ref = ref
            return
        root_ref = server.group_key_ref()
        for user_id, client in self.clients.items():
            path = server.tree.user_key_path(user_id)
            leaf = path[0]
            records = [KeyRecord(node.node_id, node.version, node.key)
                       for node in path[1:]]  # leaf key == individual key
            self.prime_member(user_id, leaf.node_id, records, root_ref)

    def remove_member(self, user_id: str) -> GroupClient:
        """Drop a departed client (its stats are retained)."""
        try:
            client = self.clients.pop(user_id)
        except KeyError:
            raise SimulatorError(f"unknown client {user_id!r}") from None
        self._departed_stats.append(client.stats)
        return client

    # -- delivery --------------------------------------------------------------

    def handler_for(self, user_id: str) -> Callable[[bytes], None]:
        """A transport receiver callback for ``user_id``."""
        def handle(payload: bytes) -> None:
            client = self.clients.get(user_id)
            if client is not None:
                client.process_message(payload)
        return handle

    # -- verification ---------------------------------------------------------------

    def assert_synchronized(self, server: GroupKeyServer) -> None:
        """Every current client must hold exactly the server's group key."""
        expected = server.group_key()
        members = set(server.members())
        if members != set(self.clients):
            raise SimulatorError(
                "membership divergence: "
                f"server-only={sorted(members - set(self.clients))[:5]} "
                f"sim-only={sorted(set(self.clients) - members)[:5]}")
        for user_id, client in self.clients.items():
            if client.group_key() != expected:
                raise SimulatorError(
                    f"client {user_id!r} is missing the current group key")

    # -- statistics ----------------------------------------------------------------

    def total_stats(self) -> ClientStats:
        """Sum of counters over current and departed clients."""
        total = ClientStats()
        for stats in list(self._departed_stats) + [
                client.stats for client in self.clients.values()]:
            for field in fields(ClientStats):
                setattr(total, field.name, getattr(total, field.name)
                        + getattr(stats, field.name))
        return total
