"""Receiver side of the harness: sampled members, joiners, the witness.

The load generator multiplexes every simulated member over two sockets,
so one process plays receivers that in a deployment are separate
machines working in parallel.  Two modelling rules follow:

* A group rekey reaches all sampled members as the *same* datagram, so
  its signature is verified once and the measured verify time is
  charged to every member.
* Members install in parallel: an op's install latency ends at
  ``receive + verify + slowest member's install``, not when this
  process finished looping over all of them.

* Delivery is reliable and ordered, as the paper's section 5 assumes:
  a rekey that arrives ahead of its predecessor (the async core fans
  out in completion order, which is not always plan order) is held
  until the gap fills, and an op's install latency runs until then.
  A bare ``GroupClient`` handed the two out of order desynchronises.

The work itself is real: every sampled member decrypts every rekey with
the repository's own ``GroupClient``, which is what lets the end-of-run
check compare their group key with the server's.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cluster.coordinator import ROOT_LAYER_BASE, SHARD_ID_SPACE
from repro.core.client import ClientError, GroupClient
from repro.core.messages import Message
from repro.core.signing import verify_message

Ref = Tuple[int, int]

_now = time.perf_counter


class SampledMembers:
    """The K members that verify and install every group rekey."""

    def __init__(self, suite, public_key, cluster: bool = False):
        self.suite = suite
        self.public_key = public_key
        self.cluster = cluster
        self.clients: Dict[str, GroupClient] = {}
        self.witness: Optional[GroupClient] = None
        #: op ref -> modelled time at which every member held its key.
        self.installed_at: Dict[Ref, float] = {}
        #: op ref -> rekey bytes the server emitted for it (one copy of
        #: each message, before fan-out duplicates them per socket).
        self.op_bytes: Dict[Ref, int] = {}
        self.verify_s: List[float] = []
        self.install_s: List[float] = []
        self.multicasts = 0
        self.held_back = 0
        #: key node id -> newest version delivered (the ordering state).
        self._delivered: Dict[int, int] = {}
        self._held: List[Tuple[Message, int]] = []

    def add(self, user_id: str, key: bytes) -> GroupClient:
        client = GroupClient(user_id, self.suite, self.public_key,
                             verify=False)
        client.set_individual_key(key)
        self.clients[user_id] = client
        return client

    def add_bytes(self, ref: Ref, n_bytes: int) -> None:
        self.op_bytes[ref] = self.op_bytes.get(ref, 0) + n_bytes

    def prime_order(self) -> None:
        """Start ordering from the keys the members hold right now."""
        for client in self.clients.values():
            for node_id, (version, _key) in client.keys.items():
                if version > self._delivered.get(node_id, -1):
                    self._delivered[node_id] = version

    def _in_order(self, message: Message) -> bool:
        """True unless a predecessor of ``message`` is still missing.

        Every op bumps the version of the root it rekeys by one.  A
        cluster's root-layer rekey additionally needs the shard rekey
        whose new root it is encrypted under.
        """
        delivered = self._delivered
        last = delivered.get(message.root_node_id)
        if last is not None and message.root_version > last + 1:
            return False
        if self.cluster and message.root_node_id >= ROOT_LAYER_BASE:
            for item in message.items:
                if item.enc_node_id < ROOT_LAYER_BASE and \
                        delivered.get(item.enc_node_id,
                                      item.enc_version) < item.enc_version:
                    return False
        return True

    def offer(self, message: Message, size: int
              ) -> List[Tuple[Message, List[Ref]]]:
        """Accept one group rekey; deliver what is now in order.

        Returns ``(message, refs of the ops it completed)`` for every
        message delivered by this call.
        """
        self._held.append((message, size))
        out = []
        progress = True
        while progress:
            progress = False
            for held in self._held:
                if self._in_order(held[0]):
                    self._held.remove(held)
                    out.append((held[0], self._deliver(*held)))
                    progress = True
                    break
        if not out:
            self.held_back += 1
        return out

    def verify(self, message: Message) -> float:
        """Check the signature once; returns the seconds it took."""
        started = _now()
        verify_message(self.suite, message, self.public_key)
        elapsed = _now() - started
        self.verify_s.append(elapsed)
        return elapsed

    def _audience(self, message: Message) -> Iterable[GroupClient]:
        # A cluster shard's rekey is multicast to that shard's members
        # only; ids are namespaced per shard, which is how a receiver
        # (and this harness) tells whose stream a message belongs to.
        if self.cluster and message.root_node_id < ROOT_LAYER_BASE:
            shard = message.root_node_id // SHARD_ID_SPACE
            return [c for c in self.clients.values()
                    if c.leaf_node_id // SHARD_ID_SPACE == shard]
        return self.clients.values()

    def _op_refs(self, message: Message) -> List[Ref]:
        """The op(s) this multicast completes, named by their ack ref.

        A single server's ack and rekey share the new root ref.  A
        cluster acks with the *shard* root, and the op is complete when
        the root-layer rekey lands; that message names the shard root
        it was encrypted under as an item reference.
        """
        if not self.cluster:
            return [(message.root_node_id, message.root_version)]
        if message.root_node_id < ROOT_LAYER_BASE:
            return []
        return [(item.enc_node_id, item.enc_version)
                for item in message.items
                if item.enc_node_id < ROOT_LAYER_BASE]

    def _deliver(self, message: Message, size: int) -> List[Ref]:
        """Hand one group rekey to every sampled member it is for.

        Returns the op refs this message completed the install of.
        """
        self.multicasts += 1
        received = _now()
        node_id, version = message.root_node_id, message.root_version
        if version > self._delivered.get(node_id, -1):
            self._delivered[node_id] = version
        verified = self.verify(message)
        slowest = 0.0
        for client in self._audience(message):
            started = _now()
            client.process_message(message)
            elapsed = _now() - started
            self.install_s.append(elapsed)
            slowest = max(slowest, elapsed)
        done = received + verified + slowest
        completed = []
        for ref in self._op_refs(message):
            # First mention wins: later root-layer rekeys re-reference
            # every shard's (unchanged) root.
            if ref not in self.installed_at:
                self.installed_at[ref] = done
                self.add_bytes(ref, size)
                completed.append(ref)
        if self.cluster and not completed:
            self.add_bytes((node_id, version), size)  # a shard's own rekey
        if self.witness is not None:
            try:
                self.witness.process_message(message)
            except ClientError:
                pass  # undecryptable for a departed member, as intended
        return completed

    def key_digests(self) -> Dict[str, Optional[str]]:
        return {user: _digest(client.group_key())
                for user, client in self.clients.items()}

    def witness_digests(self) -> List[str]:
        """Every key the departed witness still holds."""
        if self.witness is None:
            return []
        return [_digest(key) for _version, key in self.witness.keys.values()]


def _digest(key: Optional[bytes]) -> Optional[str]:
    return key.hex() if key is not None else None


class Joiner:
    """One joining user: a fresh verifying ``GroupClient``."""

    __slots__ = ("client", "ref")

    def __init__(self, suite, public_key, user_id: str, key: bytes):
        self.client = GroupClient(user_id, suite, public_key, verify=True)
        self.client.set_individual_key(key)
        self.ref: Optional[Ref] = None

    def on_ack(self, ack: Message) -> Ref:
        self.client.process_control(ack)
        self.ref = (ack.root_node_id, ack.root_version)
        return self.ref

    def on_path(self, message: Message) -> bool:
        """Install the unicast path keys; True iff the group key is held."""
        self.client.process_message(message)
        return self.client.group_key() is not None
