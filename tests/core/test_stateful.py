"""Stateful model testing of the whole key-management world.

Hypothesis drives random interleavings of join, leave, refresh, data
broadcast and server failover (snapshot/restore) against a live server
and fully simulated clients, checking after every step that

* the server and every client agree on the group key;
* every client can open data sealed under the current key;
* every *departed* client cannot;
* the tree stays valid and balanced.

This is the library's deepest integration test: any ordering bug in
rekey message construction, client fixed-point decryption, snapshot
state, or the balance heuristic shows up here as a falsifying example.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (Bundle, RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.core.client import GroupClient
from repro.core.persistence import restore, snapshot
from repro.core.server import GroupKeyServer, ServerConfig
from repro.crypto.suite import FAST_TEST_SUITE, PAPER_SUITE_NO_SIG

from ..delivery import deliver


class KeyManagementMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # The Xor suite keeps each step cheap; the same machine runs a
        # smoke pass under real DES in test_real_cipher_replay below.
        self.suite = FAST_TEST_SUITE
        self.server = GroupKeyServer(ServerConfig(
            strategy="key", degree=3, suite=self.suite, signing="none",
            seed=b"stateful"))
        self.clients = {}
        self.departed = {}
        self.counter = 0

    users = Bundle("users")

    # -- operations -------------------------------------------------------

    @rule(target=users)
    def join(self):
        self.counter += 1
        user_id = f"u{self.counter}"
        key = self.server.new_individual_key()
        client = GroupClient(user_id, self.suite, verify=False)
        client.set_individual_key(key)
        self.clients[user_id] = client
        outcome = self.server.join(user_id, key)
        client.process_control(outcome.control_messages[0].encoded)
        self._deliver(outcome)
        return user_id

    @rule(user_id=users)
    def leave(self, user_id):
        if user_id not in self.clients:
            return  # already left in a previous step
        outcome = self.server.leave(user_id)
        self.departed[user_id] = self.clients.pop(user_id)
        self._deliver(outcome)

    @precondition(lambda self: self.clients)
    @rule()
    def refresh(self):
        outcome = self.server.refresh()
        self._deliver(outcome)

    @precondition(lambda self: len(self.clients) >= 1)
    @rule()
    def failover(self):
        self.server = restore(snapshot(self.server))

    def _deliver(self, outcome):
        # Departed members stay attached, so a copy reaching one of
        # them fails the step.
        deliver(self.server, {**self.departed, **self.clients},
                outcome.rekey_messages, handler=self._receiver)

    def _receiver(self, client):
        if client.user_id in self.clients:
            return client.process_message

        def refuse(_payload):
            raise AssertionError(
                f"message addressed to non-member {client.user_id}")
        return refuse

    # -- invariants ------------------------------------------------------------

    @invariant()
    def members_agree_on_group_key(self):
        if not self.clients:
            return
        group_key = self.server.group_key()
        for user_id, client in self.clients.items():
            assert client.group_key() == group_key, user_id

    @invariant()
    def data_reaches_members_only(self):
        if not self.clients:
            return
        sealed = self.server.seal_group_message(b"probe")
        for user_id, client in self.clients.items():
            assert client.open_data(sealed.encoded) == b"probe", user_id
        for user_id, client in self.departed.items():
            try:
                client.open_data(sealed.encoded)
            except Exception:
                continue
            raise AssertionError(f"departed {user_id} opened new data")

    @invariant()
    def tree_is_valid_and_balanced(self):
        if self.server.tree is not None and self.server.tree.n_users:
            self.server.tree.validate()
            from repro.keygraph.analysis import assert_balanced
            assert_balanced(self.server.tree, slack=1)


KeyManagementMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=25, deadline=None)
TestKeyManagement = KeyManagementMachine.TestCase


def test_real_cipher_replay():
    """One scripted pass of the same operations under real DES."""
    machine = KeyManagementMachine()
    machine.suite = PAPER_SUITE_NO_SIG
    machine.server = GroupKeyServer(ServerConfig(
        strategy="group", degree=3, suite=PAPER_SUITE_NO_SIG,
        signing="none", seed=b"stateful-des"))
    users = [machine.join() for _ in range(7)]
    machine.members_agree_on_group_key()
    machine.leave(users[2])
    machine.refresh()
    machine.failover()
    machine.join()
    machine.leave(users[0])
    machine.members_agree_on_group_key()
    machine.data_reaches_members_only()
    machine.tree_is_valid_and_balanced()
