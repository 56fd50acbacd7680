"""Subgroup multicast ("subcast"): sealed messages to arbitrary subsets.

The paper's key graphs exist to rekey on membership change, but the
same structure answers a second question: how do you send one message
to an *arbitrary* subset of a million-member group without ``|S|``
unicasts?  Compute a key cover of the subset (:mod:`repro.keygraph.
covering`), seal the payload once under a fresh message key, and seal
that message key once per cover key — ``O(|cover|)`` ciphertexts,
where the cover of a clustered subset is a handful of subtree keys.

Layers:

* :class:`~repro.subcast.sealing.SubcastSealer` — cover in, signed
  ``MSG_SUBCAST`` out (dedicated DRBG personalization; byte-
  deterministic);
* :mod:`repro.subcast.wire` — the ``MSG_SUBCAST_REQUEST`` body codec
  for the async front-end path;
* server entry points — ``subcast()`` on
  :class:`~repro.core.server.GroupKeyServer` and
  :class:`~repro.cluster.coordinator.ClusterCoordinator` (per-shard
  covers plus root-layer keys for fully-covered shards);
* client decrypt — :meth:`repro.core.client.GroupClient.open_subcast`.
"""

from .sealing import CoverKey, SubcastError, SubcastSealer
from .wire import (SUBCAST_REQUEST_VERSION, SubcastWireError,
                   encode_subcast_request, parse_subcast_request)

__all__ = [
    "SubcastSealer", "SubcastError", "CoverKey",
    "SubcastWireError", "encode_subcast_request", "parse_subcast_request",
    "SUBCAST_REQUEST_VERSION",
]
