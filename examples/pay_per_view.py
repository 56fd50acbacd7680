#!/usr/bin/env python3
"""Pay-per-view: the paper's motivating workload.

A broadcaster streams three paid program segments to a large audience
with heavy churn between segments (viewers buy individual programs).
Confidentiality requirements map exactly onto the paper's model:

* a viewer who leaves after segment 1 must not decrypt segment 2
  (forward secrecy — the group key changes on every leave);
* a viewer who buys only segment 3 must not decrypt earlier segments
  (backward secrecy — the group key changes on every join);
* rekeying cost must stay ~log(n) per membership change or the
  broadcaster cannot scale (the paper's headline result).

Run:  python examples/pay_per_view.py
"""

from repro import GroupClient, GroupKeyServer, ServerConfig
from repro.crypto import PAPER_SUITE_NO_SIG as SUITE
from repro.simulation.workload import initial_members
from repro.transport import InMemoryNetwork


class Broadcaster:
    def __init__(self, audience_size):
        self.server = GroupKeyServer(ServerConfig(
            strategy="group", degree=4, suite=SUITE, signing="none",
            seed=b"ppv-demo"))
        self.viewers = {}
        # The broadcast network: each rekey is sent once, to the group
        # address, and reaches whoever is subscribed.
        self.network = InMemoryNetwork()
        # Bulk-admit the opening audience.
        names = initial_members(audience_size, prefix="viewer")
        enrollment = [(name, self.server.new_individual_key())
                      for name in names]
        self.server.bootstrap(enrollment)
        for name, key in enrollment:
            self._make_viewer(name, key, primed=True)

    def _make_viewer(self, name, key, primed=False):
        viewer = GroupClient(name, SUITE, verify=False)
        viewer.set_individual_key(key)
        self.viewers[name] = viewer
        self.network.attach(name, viewer.process_message)
        if primed:
            # Initial key distribution (the bootstrap's equivalent of the
            # paper's initial n joins).
            path = self.server.tree.user_key_path(name)
            viewer.set_leaf(path[0].node_id)
            for node in path[1:]:
                viewer.keys[node.node_id] = (node.version, node.key)
            viewer.root_ref = self.server.group_key_ref()
        return viewer

    def subscribe(self, name):
        key = self.server.new_individual_key()
        viewer = self._make_viewer(name, key)
        outcome = self.server.join(name, key)
        viewer.process_control(outcome.control_messages[0].encoded)
        self.network.send_all(outcome.rekey_messages)
        return outcome.record

    def unsubscribe(self, name):
        outcome = self.server.leave(name)
        self.viewers.pop(name)
        # Off the group before the leave's rekey goes out.
        self.network.detach(name)
        self.network.send_all(outcome.rekey_messages)
        return outcome.record

    def broadcast(self, segment_bytes):
        return self.server.seal_group_message(segment_bytes)


def can_watch(viewer, sealed):
    try:
        viewer.open_data(sealed.encoded)
        return True
    except Exception:
        return False


def main():
    broadcaster = Broadcaster(audience_size=512)
    print(f"audience bootstrapped: {broadcaster.server.n_users} viewers, "
          f"key tree height {broadcaster.server.tree.height()}")

    # --- segment 1 -------------------------------------------------------
    segment1 = broadcaster.broadcast(b"[segment 1: championship game]")
    early_bird = broadcaster.viewers["viewer0007"]
    assert can_watch(early_bird, segment1)
    print("segment 1 on air; viewer0007 is watching")

    # --- churn between segments -----------------------------------------
    print("\nintermission churn: 40 leave, 40 join")
    leave_records = [broadcaster.unsubscribe(f"viewer{i:04d}")
                     for i in range(40)]
    join_records = [broadcaster.subscribe(f"latecomer{i}")
                    for i in range(40)]
    mean = lambda records: sum(r.encryptions for r in records) / len(records)
    print(f"  mean encryptions per leave: {mean(leave_records):.1f} "
          f"(star baseline would need ~{broadcaster.server.n_users})")
    print(f"  mean encryptions per join:  {mean(join_records):.1f}")

    # --- segment 2 --------------------------------------------------------
    segment2 = broadcaster.broadcast(b"[segment 2: overtime thriller]")
    churned_out = GroupClient("viewer0003", SUITE, verify=False)
    # viewer0003 left; its last known keys are stale.
    latecomer = broadcaster.viewers["latecomer5"]
    assert can_watch(latecomer, segment2)
    print("\nsegment 2 on air; latecomer5 is watching")
    # Forward secrecy: everyone who left during intermission is locked out.
    locked_out = sum(1 for i in range(40)
                     if f"viewer{i:04d}" not in broadcaster.viewers)
    print(f"  {locked_out}/40 departed viewers hold only stale keys")

    # Backward secrecy: latecomers cannot decrypt segment 1 (captured
    # earlier) — their keys postdate it.
    assert not can_watch(latecomer, segment1)
    print("  latecomer5 cannot decrypt the segment-1 recording "
          "(backward secrecy)")

    # --- the scalability ledger -------------------------------------------
    history = broadcaster.server.history
    total_bytes = sum(r.rekey_bytes for r in history)
    total_ms = sum(r.seconds for r in history) * 1000
    print(f"\nledger: {len(history)} membership changes, "
          f"{total_bytes} rekey bytes, {total_ms:.1f} ms server time "
          f"({total_ms / len(history):.2f} ms per change)")


if __name__ == "__main__":
    main()
