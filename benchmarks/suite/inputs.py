"""Seeded inputs: group shape, member keys, and the op schedules.

Everything the programs under test receive is generated here from
``--seed``; the servers themselves only ever see the generated inputs
(a DRBG seed, a roster with keys, request datagrams).  ``random.Random``
seeded with a *string* hashes it with SHA-512, so schedules do not
depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

#: The paper's §5 configuration (Fig. 10-12, Tables 4-6).
PAPER_N = 8192
DEGREE = 4
WORKERS = 2
#: Members holding a real ``GroupClient`` that installs every rekey.
SAMPLED = 16
#: Closed-loop client count and the op cadence of sampled-member resyncs.
CLOSED_CLIENTS = 8
RESYNC_EVERY = 16
#: Open loop (``serve_open_mixed``): fixed offered rate and mix.  The
#: rate was adjusted on the calibration box (ISSUE.md's 100/s put the
#: median request on the knee between "served at once" and "queued",
#: and 75/s still made the server 76 % busy at the host's slowest) and
#: is frozen: at 60/s the server is 37-47 % busy; see README.md.
OPEN_RATE = 60.0
OPEN_MIX = (("join", 0.25), ("leave", 0.25), ("resync", 0.35),
            ("subcast", 0.15))
HEARTBEAT_MEMBERS = 512
HEARTBEAT_HZ = 2.0
SUBCAST_TARGETS = 8
SUBCAST_BYTES = 64
#: A departed member is not scheduled again for this long (far above
#: any request latency), so open-loop ops on one user never overlap.
LEAVE_COOLDOWN_S = 2.0

WORKLOADS = ("core_churn", "serve_closed", "serve_open_mixed",
             "cluster_closed")

#: The measured window is a fixed number of requests, not a duration,
#: so a seed's counts repeat exactly.  These are the counts at
#: ``--seconds`` = ``RUN_SECONDS`` (membership ops in the closed loops,
#: arrivals of any kind in the open loop), sized on the calibration box
#: so that the window then lasts about that long; another ``--seconds``
#: scales them in proportion.  ISSUE.md's 6000/4000/3200/4000 do not fit
#: the driver's time cap (README.md).
RUN_SECONDS = 24
WINDOW_OPS = {"core_churn": 3600, "serve_closed": 3600,
              "serve_open_mixed": 1440, "cluster_closed": 3200}
#: The window is cut into this many slices of equal request count.
SLICES = 10


def window_ops(workload: str, seconds: float) -> int:
    """Requests in the measured window: a whole number per slice, even
    so that a closed loop's leaves and joins pair up."""
    per_slice = WINDOW_OPS[workload] * seconds / RUN_SECONDS / SLICES
    return SLICES * max(2, 2 * round(per_slice / 2))

Op = Tuple[str, str]  # (kind, user id)


@dataclass(frozen=True)
class Shape:
    """Group dimensions; ``scale`` < 1 shrinks them for the smoke test."""

    n: int          # steady group size
    warm: int       # real joins during set-up (they are the warm-up)
    stable: int     # leading roster block that never leaves

    @classmethod
    def scaled(cls, scale: float) -> "Shape":
        n = max(96, int(PAPER_N * scale))
        return cls(n=n, warm=max(8, int(512 * scale)),
                   stable=max(2 * SAMPLED, n // 8))

    @property
    def roster(self) -> List[str]:
        """Bootstrapped members, in tree order."""
        return [f"m{i:05d}" for i in range(self.n - self.warm)]

    @property
    def sampled(self) -> List[str]:
        """Sampled members: spread evenly over the stable block."""
        stride = self.stable // SAMPLED
        return [f"m{i * stride:05d}" for i in range(SAMPLED)]

    @property
    def warm_joiners(self) -> List[str]:
        return [f"w{i:04d}" for i in range(self.warm)]

    #: Joins and then leaves during set-up; its client keeps the keys it
    #: held and must never recover the group key afterwards.
    witness = "witness"

    def leave_candidates(self) -> List[str]:
        return self.roster[self.stable:]

    def subcast_window(self, sender: str) -> List[str]:
        """``SUBCAST_TARGETS`` contiguous stable members incl. ``sender``."""
        index = int(sender[1:])
        start = min(index, self.stable - SUBCAST_TARGETS)
        return [f"m{i:05d}" for i in range(start, start + SUBCAST_TARGETS)]


class _HashSource:
    """Deterministic byte source for ``CipherSuite.safe_key``."""

    def __init__(self, label: str):
        self._label = label.encode()
        self._draws = 0

    def generate(self, n_bytes: int) -> bytes:
        self._draws += 1
        block = hashlib.sha256(self._label + b"/%d" % self._draws).digest()
        if n_bytes > len(block):
            raise ValueError("key size exceeds one SHA-256 block")
        return block[:n_bytes]


def member_key(suite, seed: int, user_id: str) -> bytes:
    """The individual key of ``user_id`` (the auth exchange's result)."""
    return suite.safe_key(_HashSource(f"suite-key/{seed}/{user_id}"))


def server_seed(seed: int) -> bytes:
    return b"suite-server/%d" % seed


def joiner_id(client: int, k: int) -> str:
    return f"j{client}-{k:05d}"


def closed_schedule(seed: int, shape: Shape, clients: int,
                    joins_per_client: int) -> List[Iterator[Op]]:
    """One op stream per closed-loop client, ``joins_per_client`` long.

    Each client alternates leave -> join (the paper's Fig. 10 request
    sequence): leaves hit uniformly random non-stable members, dealt to
    the clients round-robin from one seeded shuffle; joins admit fresh
    ids.  Every ``RESYNC_EVERY``-th membership op is followed by a
    resync of a sampled member.  Streams are independent of timing, so
    the same seed gives the same requests however fast they complete;
    they are long enough that only a >10x faster server could drain one.
    """
    rng = random.Random(f"suite-closed/{seed}")
    leavers = shape.leave_candidates()
    rng.shuffle(leavers)
    sampled = shape.sampled

    def stream(client: int) -> Iterator[Op]:
        mine = leavers[client::clients]
        done = 0
        k = 0
        while k < joins_per_client:
            # Once the shuffled roster share is used up, a client
            # recycles its own earliest joiners.
            victim = (mine[k] if k < len(mine)
                      else joiner_id(client, k - len(mine)))
            for op in (("leave", victim), ("join", joiner_id(client, k))):
                yield op
                done += 1
                if done % RESYNC_EVERY == 0:
                    yield ("resync",
                           sampled[(client + done // RESYNC_EVERY)
                                   % len(sampled)])
            k += 1
    return [stream(client) for client in range(clients)]


def open_schedule(seed: int, shape: Shape, n_arrivals: int
                  ) -> Tuple[List[Tuple[float, str, str]], List[str]]:
    """``n_arrivals`` Poisson arrivals at ``OPEN_RATE``.

    Returns ``(arrivals, heartbeaters)``: arrivals are ``(due offset,
    kind, user)`` sorted by time, heartbeaters the initial live set.
    The process is conditioned on its count slice by slice: each of the
    ``SLICES`` slices holds the same number of arrivals, uniform over a
    span of exactly that number / ``OPEN_RATE`` seconds, so the offered
    rate is the same in every slice of every seed and only a server
    that falls behind moves ``ops_per_s``.
    Leaves take the longest-standing live member (so the heartbeating
    population stays at ``HEARTBEAT_MEMBERS`` while its identity turns
    over); a leave with no member past its cool-down becomes a resync.
    """
    rng = random.Random(f"suite-open/{seed}")
    sampled = shape.sampled
    boot_live = shape.leave_candidates()[
        :max(0, HEARTBEAT_MEMBERS - shape.warm)]
    queue: List[Tuple[str, float]] = [(u, -1e9) for u in boot_live]
    queue += [(u, -1e9) for u in shape.warm_joiners]
    heartbeaters = sampled + boot_live + shape.warm_joiners
    kinds = [kind for kind, _share in OPEN_MIX]
    weights = [share for _kind, share in OPEN_MIX]
    per_slice = -(-n_arrivals // SLICES)
    span = per_slice / OPEN_RATE
    dues = [index * span + offset for index in range(SLICES)
            for offset in sorted(rng.uniform(0.0, span)
                                 for _ in range(per_slice))][:n_arrivals]
    arrivals: List[Tuple[float, str, str]] = []
    joined = 0
    for due in dues:
        kind = rng.choices(kinds, weights)[0]
        if kind == "leave":
            if queue and queue[0][1] + LEAVE_COOLDOWN_S <= due:
                user = queue.pop(0)[0]
            else:
                kind = "resync"
        if kind == "join":
            user = joiner_id(0, joined)
            joined += 1
            queue.append((user, due))
        elif kind in ("resync", "subcast"):
            user = sampled[rng.randrange(len(sampled))]
        arrivals.append((due, kind, user))
    return arrivals, heartbeaters


def joiner_keys(suite, seed: int, shape: Shape, clients: int,
                per_client: int) -> Dict[str, bytes]:
    """Keys to pre-register: every id a schedule may ever join."""
    users = shape.warm_joiners + [shape.witness]
    users += [joiner_id(c, k) for c in range(clients)
              for k in range(per_client)]
    return {user: member_key(suite, seed, user) for user in users}
