"""Sharding layer: many CHT groups behind a routing client.

One CHT group (:class:`~repro.core.client.ChtCluster`) serializes every
RMW through a single leader, so its commit pipeline is the throughput
ceiling no matter how many clients submit.  This package scales writes
horizontally by running *G* independent groups over one shared simulator
and partitioning the keyspace between them:

* :mod:`map` — a versioned :class:`ShardMap` from key slots to groups,
  with a seed-stable hash (``slot_of``).
* :mod:`spec` — :class:`ShardedSpec`, an :class:`~repro.objects.spec.ObjectSpec`
  wrapper whose replicated state tracks which slots the group owns.
  Operations on un-owned slots commit as :class:`WrongShard` no-ops, and
  two special RMWs (``shard_freeze`` / ``shard_install``) move a slot
  range between groups through the replicated state machines themselves.
* :mod:`router` — a client-side :class:`Router` that caches the shard
  map, routes each operation by its ``partition_key``, and chases
  ``WrongShard`` redirects.
* :mod:`transport` — the control plane and the message link between
  it and the groups (:class:`LocalTransport`).
* :mod:`cluster` — :class:`ShardedCluster`, the multi-group façade with
  the fenced handoff primitive.

See ``docs/SHARDING.md`` for the design and its safety argument.
"""

from .cluster import ShardedCluster, group_fingerprint
from .map import ShardMap, slot_of
from .router import Router
from .spec import FREEZE, INSTALL, ShardState, ShardedSpec, WrongShard, freeze_op, install_op
from .transport import ControlPlane, LocalTransport

__all__ = [
    "FREEZE",
    "INSTALL",
    "ControlPlane",
    "LocalTransport",
    "Router",
    "ShardMap",
    "ShardState",
    "ShardedCluster",
    "ShardedSpec",
    "WrongShard",
    "freeze_op",
    "install_op",
    "group_fingerprint",
    "slot_of",
]
